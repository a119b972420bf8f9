"""Plane vectors and full-rank planar lattices with exact predicates.

A finitely generated subgroup of the plane over a multi-quadratic field is
discrete iff its generators have rational rank at most 2 when flattened to
rational coordinate tuples (one rational per plane coordinate per field
monomial).  Rank, span and canonical basis all come from one computation
on integer rows: the x numerators then the y numerators of each vector,
over one common denominator (:func:`integer_rows`).  The row Hermite form
of the rows has the rational rank as its row count, spans the same group
(:func:`row_span`), and for a lattice basis it is the canonical basis, so
equal lattices compare and serialize identically.  :func:`drop_one_spans`
reads every drop-one span of t_1..t_m off the Hermite forms of their
prefixes and suffixes, O(m) forms of at most 6 rows each.

A :class:`PlaneLattice` is its two Hermite rows ``rows``, their
denominator ``den`` and the numerators of det(b1, b2) over its square;
the basis vectors become field elements only when they are read.
A row is solved once against the two echelon rows
(:meth:`PlaneLattice.span_coords`): its lattice coordinates over one
common k, a lattice point iff k divides both, and det(u, v) / det(L) is
their determinant over k**2.  Only for a vector outside the lattice's
rational span is such a ratio tested on numerators: it is rational iff
they are proportional (:func:`~zonotile.intlinalg.proportion`).  Two
lattices intersect (:func:`intersect`) by one Hermite form of the block
rows (u | u) and (v | 0), u and v their Hermite rows: the rows whose
first block is zero number 2 exactly when the lattices are commensurable,
and then their second halves are the Hermite rows of the intersection
(Cohen, *A Course in Computational Algebraic Number Theory*, 1993,
chapter 2).  Adjoining a point of an edge line is one more Hermite form
(:meth:`PlaneLattice.adjoin_line_point`), so no lattice operation divides
field elements; the vector forms of these operations are reference checks
in :mod:`zonotile.oracles`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import FieldError, GeometryError, IncommensurableError, InternalError
from .field import Field, FieldElement
from .intlinalg import proportion, row_hnf

__all__ = [
    "PlaneVector",
    "PlaneLattice",
    "SpanAnalysis",
    "LATTICE",
    "NOT_DISCRETE",
    "RANK_DEFICIENT",
    "vector",
    "doubled_area",
    "ccw_rows",
    "convex_start",
    "integer_rows",
    "vectors_from_rows",
    "lowest_rows",
    "row_cross",
    "row_span",
    "drop_one_spans",
    "intersect",
]

LATTICE = "lattice"
NOT_DISCRETE = "not-discrete"
RANK_DEFICIENT = "rank-deficient"


class PlaneVector:
    """A vector of the plane with field-element coordinates ``x`` and
    ``y``; vectors with equal coordinates are equal and hash equal."""

    __slots__ = ("x", "y")

    def __init__(self, x: FieldElement, y: FieldElement):
        self.x = x
        self.y = y

    @property
    def field(self) -> Field:
        return self.x.field

    def __add__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "PlaneVector":
        return PlaneVector(-self.x, -self.y)

    def scale(self, c) -> "PlaneVector":
        return PlaneVector(self.x * c, self.y * c)

    def cross(self, other: "PlaneVector") -> FieldElement:
        return _product_sum(self.x, other.y, self.y, other.x, -1)

    def dot(self, other: "PlaneVector") -> FieldElement:
        return _product_sum(self.x, other.x, self.y, other.y, 1)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"PlaneVector(x={self.x!r}, y={self.y!r})"

    def __str__(self):
        return f"({self.x}, {self.y})"


def _product_sum(a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement, s: int) -> FieldElement:
    """a*b + s*c*d for s = 1 or -1, in one integer pass: the two products'
    numerators over the product of the four denominators, reduced once."""
    field = a.field
    if b.field is not field or c.field is not field or d.field is not field:
        other = next(e.field for e in (b, c, d) if e.field is not field)
        raise FieldError(f"cannot mix elements of {field!r} and {other!r}")
    dab, dcd = a.den * b.den, c.den * d.den
    k = s * dab
    ab, cd = field.product(a.nums, b.nums), field.product(c.nums, d.nums)
    return FieldElement.from_integers(field, [x * dcd + y * k for x, y in zip(ab, cd)], dab * dcd)


def vector(field: Field, x, y) -> PlaneVector:
    """Build a vector from ints, Fractions, or ready field elements."""

    def lift(v):
        if isinstance(v, FieldElement):
            return field.embed(v)
        return field.rational(v)

    return PlaneVector(lift(x), lift(y))


def doubled_area(field: Field, rows) -> tuple[int, ...]:
    """The numerators of twice the signed area of the closed cycle of the
    vectors whose flattened rows over one denominator den are ``rows``,
    over den**2; positive when the cycle turns counterclockwise."""
    total = [0] * field.size
    for u, v in zip(rows, [*rows[1:], rows[0]]):
        total = [a + b for a, b in zip(total, row_cross(field, u, v))]
    return tuple(total)


def ccw_rows(field: Field, rows) -> tuple[tuple[int, ...], ...]:
    """The vertex list flattened to ``rows`` as tuples, counterclockwise;
    refused with fewer than 3 vertices, one equal to the next (named by its
    position as given) or zero area: the one reader of vertex lists."""
    rows, n = tuple(map(tuple, rows)), len(rows)
    if n < 3:
        raise GeometryError("a polygon needs at least 3 vertices")
    repeated = next((i for i in range(n) if rows[i] == rows[(i + 1) % n]), None)
    if repeated is not None:
        raise GeometryError(f"repeated vertex at position {repeated}")
    s = field.sign(doubled_area(field, rows))
    if not s:
        raise GeometryError("degenerate vertex list")
    return rows if s > 0 else rows[::-1]


def convex_start(field: Field, rows) -> int | None:
    """For a vertex cycle flattened to ``rows``, the index i of the one
    edge rows[i] -> rows[i + 1] that points upward (y > 0, or y = 0 and
    x > 0, the half-plane of a zonotope's generators) after an edge that
    does not, when the cycle turns strictly left at every vertex and has
    exactly one such step: its edge directions then wind once, so it
    bounds a strictly convex polygon.  None otherwise; exact and linear."""
    n = field.size
    edges = [[b - a for a, b in zip(u, v)] for u, v in zip(rows, [*rows[1:], rows[0]])]
    if any(field.sign(row_cross(field, e, f)) <= 0 for e, f in zip(edges, [*edges[1:], edges[0]])):
        return None
    up = [(field.sign(e[n:]) or field.sign(e[:n])) > 0 for e in edges]
    starts = [i for i in range(len(edges)) if up[i] and not up[i - 1]]
    return starts[0] if len(starts) == 1 else None


def integer_rows(vectors) -> tuple[list[list[int]], int]:
    """The flattened vectors as integer rows over their least common
    denominator: x numerators, then y numerators, per vector."""
    elems = [(v.x, v.y) for v in vectors]
    if len({e.field for pair in elems for e in pair}) > 1:
        raise FieldError("vectors do not share a field")
    den = lcm(*(e.den for pair in elems for e in pair))
    return [[n * (den // e.den) for e in pair for n in e.nums] for pair in elems], den


def vectors_from_rows(field: Field, rows, den: int) -> list[PlaneVector]:
    """Inverse of :func:`integer_rows`: integer rows over ``den`` back to vectors."""
    size = field.size
    return [
        PlaneVector(
            FieldElement.from_integers(field, row[:size], den),
            FieldElement.from_integers(field, row[size:], den),
        )
        for row in rows
    ]


def lowest_rows(rows, den: int):
    """Integer rows and their positive denominator ``den`` divided by the
    gcd of all their entries and ``den``; ``rows`` itself when that is 1."""
    g = gcd(den, *chain.from_iterable(rows))
    return (rows, den) if g == 1 else (tuple(tuple([n // g for n in row]) for row in rows), den // g)


def row_cross(field: Field, u, v) -> tuple[int, ...]:
    """The numerators of det(u, v) over den**2, for two vectors flattened
    as integer rows over one denominator den."""
    n = field.size
    if n == 1:
        return (u[0] * v[1] - u[1] * v[0],)
    return tuple(a - b for a, b in zip(field.product(u[:n], v[n:]), field.product(u[n:], v[:n])))


class PlaneLattice:
    """A full-rank discrete subgroup of the plane, held in canonical form.

    The constructor accepts any basis and immediately rewrites it into the
    canonical one (Hermite form of the flattened rational rows), so two
    lattices with equal point sets are equal objects.  The lattice keeps
    the two Hermite rows over their least common denominator and the
    numerators of det(b1, b2), no vector: ``basis()`` and ``point``
    build field elements from them when read.  :meth:`span_coords` and the
    methods built on it answer on integer rows; the vector forms of these
    questions (coordinates, membership, covolume) are reference checks in
    :mod:`zonotile.oracles`.
    """

    __slots__ = ("field", "rows", "den", "_pivots", "_det")

    def __init__(self, b1: PlaneVector, b2: PlaneVector):
        rows, den = integer_rows([b1, b2])
        h = row_hnf(rows)
        if len(h) != 2 or not self._hold_rows(b1.field, h, den):
            raise GeometryError("lattice basis is degenerate")

    @classmethod
    def _from_hermite(cls, field: Field, h, den: int) -> "PlaneLattice | None":
        """The lattice whose canonical rows are the Hermite rows ``h`` over
        ``den``, or None unless they are two rows that span the plane."""
        lat = cls.__new__(cls)
        return lat if len(h) == 2 and lat._hold_rows(field, h, den) else None

    def _hold_rows(self, field: Field, h, den: int) -> bool:
        """Keep the Hermite rows ``h`` over ``den``, brought to the least
        common denominator; False when they are collinear in the plane.

        Dividing a Hermite form by a common factor of its entries leaves a
        Hermite form, so the kept rows are canonical."""
        h, den = lowest_rows(h, den)
        self.field = field
        self.rows = (tuple(h[0]), tuple(h[1]))
        self.den = den
        self._pivots = tuple(next(c for c, n in enumerate(row) if n) for row in h)
        self._det = row_cross(field, *self.rows)
        return any(self._det)

    def basis(self) -> tuple[PlaneVector, PlaneVector]:
        """b1 and b2, the canonical basis; ``check`` embeds a lattice into a larger field through it."""
        return tuple(vectors_from_rows(self.field, self.rows, self.den))

    def span_coords(self, rows, den: int) -> tuple[list[tuple[int, int] | None], int]:
        """Lattice coordinates (c1, c2) over one k of the vectors whose
        flattened rows over ``den`` are ``rows``, None off the rational span.

        Flattening is Q-linear, so a row r is a1*h1 + a2*h2 scaled by
        q / s (g = gcd(den, self.den), q = den / g, s = self.den / g).  At
        the pivots a = h1[p1], b = h2[p2] that gives c1 = s*b*r[p1] and
        c2 = s*(a*r[p2] - h1[p2]*r[p1]) over k = q*a*b; off the span some
        other entry disagrees."""
        g = gcd(self.den, den)
        s = self.den // g
        (h1, h2), (p1, p2) = self.rows, self._pivots
        a, b, c, ab = h1[p1], h2[p2], h1[p2], h1[p1] * h2[p2]
        rest = [i for i in range(len(h1)) if i != p1 and i != p2]  # the pivot entries always agree
        out = []
        for row in rows:
            u1, u2 = b * row[p1], a * row[p2] - c * row[p1]
            off = rest and any(row[i] * ab != u1 * h1[i] + u2 * h2[i] for i in rest)
            out.append(None if off else (s * u1, s * u2))
        return out, den // g * ab

    def det_ratio(self, nums, den: int) -> Fraction | None:
        """The rational value of (nums / den) / det(b1, b2) for the
        numerators ``nums`` of a field element over ``den``, or None when
        it is irrational.  The determinant is the signed one of the
        canonical basis, so the ratio is the covolume ratio up to sign."""
        pq = proportion(nums, self._det)
        return None if pq is None else Fraction(pq[0] * self.den**2, pq[1] * den)

    def meets_line(self, e, tau, den: int, ec, tc, k: int) -> bool:
        """Whether e is a lattice point and some real t puts t*e + tau in
        the lattice, for nonzero e and tau given as rows over ``den``
        with :meth:`span_coords` ``ec`` and ``tc`` over ``k``: for integer
        e = (e1, e2), k*gcd(e1, e2) must divide k*det(e, tau)/det(L) =
        e1*tc[1] - e2*tc[0], or the plane ratio's numerator if tc is None."""
        if ec is None or ec[0] % k or ec[1] % k:
            return False
        e1, e2 = ec[0] // k, ec[1] // k
        if tc is None:
            d = self.det_ratio(row_cross(self.field, e, tau), den * den)
            return d is not None and d.denominator == 1 and d.numerator % gcd(e1, e2) == 0
        return (e1 * tc[1] - e2 * tc[0]) % (k * gcd(e1, e2)) == 0

    def adjoin_line_point(self, ec: tuple[int, int], d: Fraction) -> "PlaneLattice":
        """The superlattice adjoining the point of the line t*e + tau that is
        perpendicular to e in lattice coordinates, for the lattice point
        e = e1*b1 + e2*b2 given by ``ec`` = (e1, e2) and
        d = det(tau, e) / det(b1, b2) from :meth:`det_ratio`.  With
        N = e1**2 + e2**2 that point is d*(e2*b1 - e1*b2)/N, rational in
        lattice coordinates (the ambient foot can be irrational for a
        skewed basis); with d = p/q the rows q*N*h1, q*N*h2,
        p*(e2*h1 - e1*h2) over den*q*N span the superlattice."""
        if ec is None or ec == (0, 0):
            raise GeometryError("e is not a nonzero lattice point")
        e1, e2 = ec
        qn = d.denominator * (e1 * e1 + e2 * e2)
        rows = [[qn * n for n in h] for h in self.rows]
        rows.append([d.numerator * (e2 * a - e1 * b) for a, b in zip(*self.rows)])
        bigger = PlaneLattice._from_hermite(self.field, row_hnf(rows), self.den * qn)
        coords, k = bigger.span_coords(rows, self.den * qn) if bigger else ([None], 1)
        if any(c is None or c[0] % k or c[1] % k for c in coords):
            raise InternalError("adjoined point did not yield a superlattice")  # unreachable
        return bigger

    def point(self, a: int, b: int) -> PlaneVector:
        """a*b1 + b*b2, the lattice point the tests' and the benchmark's oracles draw."""
        b1, b2 = self.basis()
        return b1.scale(a) + b2.scale(b)

    def __eq__(self, other):
        return (
            isinstance(other, PlaneLattice)
            and other.field is self.field
            and (other.rows, other.den) == (self.rows, self.den)
        )

    def __hash__(self):
        return hash((self.rows, self.den))

    def __repr__(self):
        b1, b2 = self.basis()
        return f"PlaneLattice[{b1}, {b2}]"


class SpanAnalysis(namedtuple("SpanAnalysis", "q_rank verdict basis")):
    """Outcome of testing whether an integer span is a full-rank lattice.

    ``q_rank``: the rational rank of the span.
    ``verdict``: LATTICE, NOT_DISCRETE or RANK_DEFICIENT.
    ``basis``: the span as a PlaneLattice when it is one, else None."""

    __slots__ = ()


def row_span(field: Field, rows, den: int) -> SpanAnalysis:
    """Classify the integer span of the vectors whose flattened rows over
    ``den`` are ``rows``.  Their Hermite rows give the rank and, at rank 2,
    a basis of the span: the span is a full-rank lattice iff the rational
    rank is at most 2 and the vectors span the real plane; rank > 2 means
    a dense (non-discrete) subgroup, real span below dimension 2 means no
    full-rank subgroup at all."""
    h = row_hnf(rows)
    basis = PlaneLattice._from_hermite(field, h, den)
    if basis is not None:
        return SpanAnalysis(2, LATTICE, basis)
    return SpanAnalysis(len(h), NOT_DISCRETE if len(h) > 2 else RANK_DEFICIENT, None)


def drop_one_spans(field: Field, rows, den: int) -> list[PlaneLattice | None]:
    """For each j, the span of ``rows`` without row j if it is a full-rank
    lattice, else None.

    Dropping a row lowers the rank of the span M of all rows by at most
    one, so no drop-one span is a lattice unless M has rank 2 or 3.  Then
    the Hermite forms of rows[:j] and of rows[j+1:] grow a row at a time
    and stop once they are M, and the span without row j is M when either
    is, the one side when the other is empty, else the Hermite form of
    both, at most 6 rows."""
    full = row_hnf(rows)
    if len(full) not in (2, 3):
        return [None] * len(rows)
    whole = PlaneLattice._from_hermite(field, full, den)
    return [
        whole if before is full or after is full
        else PlaneLattice._from_hermite(field, row_hnf(before + after) if before and after else before or after, den)
        for before, after in zip(_growing_spans(rows, full), _growing_spans(rows[::-1], full)[::-1])
    ]


def _growing_spans(rows, full):
    """The Hermite forms of rows[:j] for j = 0..m-1, each from the one
    before and one more row, and ``full`` itself from the first equal to
    it; rows[:1] is kept as its one row, which never spans ``full``."""
    h, spans = [], [[]]
    for row in rows[:-1]:
        if h is not full:
            h = row_hnf([*h, row]) if h else [row]
            if h == full:
                h = full
        spans.append(h)
    return spans


def intersect(l1: PlaneLattice, l2: PlaneLattice) -> PlaneLattice:
    """Intersection of two commensurable lattices (always full rank).

    With U and V the Hermite rows of l1 and l2 over one denominator, the
    four independent rows (u | u) and (v | 0) span the (aU + cV | aU), and
    those with a zero first block are the (0 | w) with w = aU = -cV in both
    lattices.  Their number is 4 minus the rational rank of U and V, so 2
    exactly when the lattices are commensurable; otherwise the intersection
    can degenerate to rank <= 1 and is refused rather than guessed at.  An
    echelon form ends with a basis of that sublattice, so the last two
    Hermite rows' second halves are the intersection's Hermite rows.
    """
    if l2.field is not l1.field:
        raise FieldError(f"lattices over {l1.field!r} and {l2.field!r} do not share a field")
    den = lcm(l1.den, l2.den)
    u, v = ([[n * (den // lat.den) for n in row] for row in lat.rows] for lat in (l1, l2))
    width = len(u[0])
    h = row_hnf([row + row for row in u] + [row + [0] * width for row in v])
    if any(h[2][:width]):
        raise IncommensurableError("lattices share no full-rank superlattice")
    return PlaneLattice._from_hermite(l1.field, [row[width:] for row in h[2:]], den)
