"""Small exact integer matrix routines: row Hermite form and
proportionality.

Everything here works on lists of Python ints.  The row Hermite form is
the one algorithm: ranks, spans, canonical bases and lattice
intersections are all read off it, and stopped early it gives spans with
their relations (:func:`span_and_relations`).  Matrices are tiny (a
handful of rows over at most 64 columns): plain gcd elimination will do.
"""

from __future__ import annotations

__all__ = ["row_hnf", "span_and_relations", "proportion"]


def _row_sub(m, i, j, q):
    if q:
        mi, mj = m[i], m[j]
        for c in range(len(mi)):
            mi[c] -= q * mj[c]


def _hnf_inplace(m: list[list[int]], ncols: int | None = None) -> int:
    """Reduce ``m`` to canonical row Hermite form in place; return the rank.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows sink to the bottom; it stops after ``ncols`` columns.
    """
    nrows = len(m)
    if ncols is None:
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
                    _row_sub(m, i, i0, m[i][c] // m[i0][c])
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            _row_sub(m, i, r, m[i][c] // m[r][c])
        r += 1
    return r


def row_hnf(rows) -> list[list[int]]:
    """Canonical Hermite basis of the integer row span (zero rows dropped)."""
    m = [list(map(int, row)) for row in rows]
    rank = _hnf_inplace(m)
    return m[:rank]


def span_and_relations(rows) -> tuple[list[list[int]], list[list[int]]]:
    """The Hermite rows of the span of ``rows`` and a basis (not canonical)
    of the relations sum k_j rows[j] = 0: [rows | I] echelonized on the
    columns of ``rows`` spans the (k @ rows | k), the (0 | k) last."""
    width = len(rows[0])
    m = [list(map(int, row)) + [int(i == j) for i in range(len(rows))] for j, row in enumerate(rows)]
    rank = _hnf_inplace(m, width)
    return [row[:width] for row in m[:rank]], [row[width:] for row in m[rank:]]


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
