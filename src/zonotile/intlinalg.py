"""Small exact integer matrix routines: row Hermite form and
proportionality.

Everything here works on lists of Python ints.  The row Hermite form is
the one algorithm: ranks, spans, canonical bases and lattice
intersections are all read off it.  It takes one pass per column, in
which each row below the pivot meets the pivot row once: by one
subtraction when the pivot divides its entry, else by the unimodular
extended-gcd step on the pair (Cohen, *A Course in Computational
Algebraic Number Theory*, 1993, chapter 2).  Matrices are small (up to
a few rows over 64 columns, and m rows for a zonotope's m translations),
so the entries are not reduced modulo a determinant.

Rows of width 2, every span over Q, take a scalar fold of their own
instead (``_hnf2``): they join the Hermite rows (a, b), (0, d) one at a
time on plain ints, with the same result as the general kernel, which
takes every wider row (every irrational field, and ``intersect``'s
blocks).  The choice is by row width alone.
"""

from __future__ import annotations

from math import gcd

__all__ = ["row_hnf", "proportion"]


def _hnf_inplace(m: list[list[int]]) -> int:
    """Reduce ``m`` to canonical row Hermite form in place; return the rank.

    One pass per column: the first row at or below the rank with a
    nonzero entry is the pivot row, and every later row with a nonzero
    entry meets it once, by one subtraction when the pivot divides that
    entry, else by the unimodular extended-gcd step that leaves the gcd
    in the pivot row and a zero below it.  Then the pivot is made
    positive and the rows above it reduced into [0, pivot); zero rows
    sink to the bottom.
    """
    nrows = len(m)
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r >= nrows:
            break
        for p in range(r, nrows):
            if m[p][c]:
                break
        else:
            continue
        top = m[p]
        if p != r:
            m[p], m[r] = m[r], top
        a = top[c]
        for i in range(p + 1, nrows):
            row = m[i]
            b = row[c]
            if not b:
                continue
            q, rest = divmod(b, a)
            if not rest:
                m[i] = [x - q * y for x, y in zip(row, top)]
                continue
            g, u, v = _xgcd(a, b)
            ag, bg = a // g, b // g
            m[i] = [ag * x - bg * y for x, y in zip(row, top)]
            m[r] = top = [u * y + v * x for x, y in zip(row, top)]
            a = g
        if a < 0:
            m[r] = top = [-x for x in top]
            a = -a
        for i in range(r):
            q = m[i][c] // a
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], top)]
        r += 1
    return r


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g, g = +-gcd(a, b), for nonzero a and b."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


def _hnf2(rows) -> list[list[int]]:
    """``_hnf_inplace``'s rows for rows of width 2, on plain ints.

    The rows fold in one at a time into the Hermite rows (a, b), (0, d).
    A row (x, y) with x nonzero meets (a, b) by one subtraction when a
    divides x, else by one extended gcd, and the minor it leaves in the
    second column joins d by one gcd; a row with x zero joins d directly.
    b stays reduced modulo d."""
    a = b = d = 0
    for x, y in rows:
        if not x:
            d = gcd(d, y)
        elif not a:
            a, b = x, y
        else:
            q, rest = divmod(x, a)
            if rest:
                g, u, v = _xgcd(a, x)
                d = gcd(d, (a * y - x * b) // g)
                a, b = g, u * b + v * y
            else:
                d = gcd(d, y - q * b)
        if d:
            b %= d
    if a < 0:
        a, b = -a, -b % d if d else -b
    if not a:
        return [[0, d]] if d else []
    return [[a, b], [0, d]] if d else [[a, b]]


def row_hnf(rows) -> list[list[int]]:
    """Canonical Hermite basis of the integer row span (zero rows dropped)
    of a sequence of rows of one width."""
    if rows and len(rows[0]) == 2:
        return _hnf2(rows)
    m = [list(row) for row in rows]
    rank = _hnf_inplace(m)
    return m[:rank]


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
