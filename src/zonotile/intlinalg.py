"""Small exact integer matrix routines: row Hermite form, kernels and
proportionality.

Everything here works on lists of Python ints.  Matrices are tiny
(at most a handful of rows over at most 32 columns), so the plain
gcd-elimination algorithm is entirely adequate.
"""

from __future__ import annotations

__all__ = ["row_hnf", "row_hnf_transform", "right_kernel", "proportion"]


def _row_sub(m, i, j, q):
    if q:
        mi, mj = m[i], m[j]
        for c in range(len(mi)):
            mi[c] -= q * mj[c]


def _hnf_inplace(m: list[list[int]], u: list[list[int]] | None = None) -> int:
    """Reduce ``m`` to canonical row Hermite form in place; return the rank.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows sink to the bottom.  If ``u`` is given the same
    row operations are applied to it, so u_in * m_in == m_out.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if m[i][c]]
            if not nz:
                pivot = None
                break
            if len(nz) == 1:
                pivot = nz[0]
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            for i in nz:
                if i != i0:
                    q = m[i][c] // m[i0][c]
                    _row_sub(m, i, i0, q)
                    if u is not None:
                        _row_sub(u, i, i0, q)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            if u is not None:
                u[r], u[pivot] = u[pivot], u[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            _row_sub(m, i, r, q)
            if u is not None:
                _row_sub(u, i, r, q)
        r += 1
    return r


def row_hnf(rows) -> list[list[int]]:
    """Canonical Hermite basis of the integer row span (zero rows dropped)."""
    m = [list(map(int, row)) for row in rows]
    rank = _hnf_inplace(m)
    return m[:rank]


def row_hnf_transform(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Like :func:`row_hnf` but keeps zero rows and returns (H, U), U*rows == H."""
    m = [list(map(int, row)) for row in rows]
    n = len(m)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    _hnf_inplace(m, u)
    return m, u


def right_kernel(rows) -> list[list[int]]:
    """A basis of the integer solutions x of rows @ x == 0."""
    m = [list(map(int, row)) for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    bt = [[m[i][j] for i in range(len(m))] for j in range(ncols)]
    h, u = row_hnf_transform(bt)
    return [u[i] for i in range(ncols) if not any(h[i])]


def proportion(a, b) -> tuple[int, int] | None:
    """Integers (p, q), q nonzero, with q * a == p * b, for integer tuples
    of one length and b nonzero, or None when a is no rational multiple
    of b.  They are read at b's first nonzero entry and not reduced.

    Read on the numerators of two field elements, p / q is the rational
    value of their quotient, when there is one, without a field division."""
    i = next(i for i, y in enumerate(b) if y)
    p, q = a[i], b[i]
    if any(x * q != y * p for x, y in zip(a, b)):
        return None
    return p, q
