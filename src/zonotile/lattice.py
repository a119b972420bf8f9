"""Plane vectors and full-rank planar lattices with exact predicates.

A finitely generated subgroup of the plane over a multi-quadratic field is
discrete iff its generators have rational rank at most 2 when flattened to
rational coordinate tuples (one rational per plane coordinate per field
monomial).  Rank, span and canonical basis all come from one computation:
flatten the vectors, clear denominators, and take the integer row Hermite
form.  Its row count is the rational rank (:func:`rational_rank`), its
rows span the same group as the vectors (:func:`integer_span`), and for a
lattice basis it is the canonical basis, so equal lattices compare and
serialize identically.  A :class:`PlaneLattice` keeps its two Hermite rows
and their common denominator, and membership is read off them: a vector is
a lattice point iff its flattened coordinates, scaled by the denominator,
are integers that reduce to zero against the two echelon rows, and the
pivot quotients are its lattice coordinates.  No field division is made.
The integer kernel of the same rows for two bases (:func:`intersect`) has
rank 2 exactly when the lattices are commensurable, and then gives a basis
of their intersection (Cohen, *A Course in Computational Algebraic Number
Theory*, 1993, section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import FieldError, GeometryError, IncommensurableError, InternalError, RationalityError
from .field import Field, FieldElement
from .intlinalg import right_kernel, row_hnf

__all__ = [
    "PlaneVector",
    "PlaneLattice",
    "SpanAnalysis",
    "LATTICE",
    "NOT_DISCRETE",
    "RANK_DEFICIENT",
    "vector",
    "doubled_area",
    "rational_rank",
    "integer_span",
    "intersect",
    "sublattice_avoiding_coset",
    "line_meets_lattice",
    "superlattice_meeting_line",
]

LATTICE = "lattice"
NOT_DISCRETE = "not-discrete"
RANK_DEFICIENT = "rank-deficient"


@dataclass(frozen=True)
class PlaneVector:
    x: FieldElement
    y: FieldElement

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
        return self.x * other.y - self.y * other.x

    def dot(self, other: "PlaneVector") -> FieldElement:
        return self.x * other.x + self.y * other.y

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def __str__(self):
        return f"({self.x}, {self.y})"


def vector(field: Field, x, y) -> PlaneVector:
    """Build a vector from ints, Fractions, or ready field elements."""

    def lift(v):
        if isinstance(v, FieldElement):
            return field.embed(v)
        return field.rational(v)

    return PlaneVector(lift(x), lift(y))


def doubled_area(vs) -> FieldElement:
    """Twice the signed area of the closed vertex cycle, positive when it
    turns counterclockwise."""
    doubled = vs[0].field.zero()
    for i in range(len(vs)):
        doubled = doubled + vs[i].cross(vs[(i + 1) % len(vs)])
    return doubled


def _integer_rows(vectors) -> tuple[list[list[int]], int]:
    """The flattened vectors as integer rows over one common denominator."""
    elems = [(v.x, v.y) for v in vectors]
    den = lcm(*(e.den for pair in elems for e in pair))
    return [[n * (den // e.den) for e in pair for n in e.nums] for pair in elems], den


def _vectors_from_rows(field: Field, rows, den: int) -> list[PlaneVector]:
    """Inverse of :func:`_integer_rows`: integer rows over ``den`` back to vectors."""
    size = field.size
    return [
        PlaneVector(
            FieldElement.from_integers(field, row[:size], den),
            FieldElement.from_integers(field, row[size:], den),
        )
        for row in rows
    ]


def rational_rank(vectors) -> int:
    """Rank over Q of the vectors viewed as rational coordinate tuples.

    No pipeline code calls it: it is the tests' rank oracle, and the
    benchmark's generators use it to draw rationally independent
    generators."""
    rows, _ = _integer_rows(_check_common_field(vectors))
    return len(row_hnf(rows))


def _check_common_field(vectors):
    vs = list(vectors)
    if not vs:
        raise GeometryError("empty vector list")
    field = vs[0].field
    for v in vs:
        if v.x.field is not field or v.y.field is not field:
            raise FieldError("vectors do not share a field")
    return vs


class PlaneLattice:
    """A full-rank discrete subgroup of the plane, held in canonical form.

    The constructor accepts any basis and immediately rewrites it into the
    canonical one (Hermite form of the flattened rational rows), so two
    lattices with equal point sets are equal objects.  The Hermite rows and
    their common denominator are kept: :meth:`integer_coords` and
    :meth:`contains` reduce a vector's scaled flattened row against them.
    """

    __slots__ = ("b1", "b2", "_det", "_rows", "_den", "_pivots")

    def __init__(self, b1: PlaneVector, b2: PlaneVector):
        rows, den = _integer_rows(_check_common_field([b1, b2]))
        h = row_hnf(rows)
        if len(h) != 2 or not self._hold_rows(b1.field, h, den):
            raise GeometryError("lattice basis is degenerate")

    @classmethod
    def _from_hermite(cls, field: Field, h, den: int) -> "PlaneLattice | None":
        """The lattice whose canonical rows are the two Hermite rows ``h``
        over ``den``, or None when they are Q-independent but collinear in
        the plane."""
        lat = cls.__new__(cls)
        return lat if lat._hold_rows(field, h, den) else None

    def _hold_rows(self, field: Field, h, den: int) -> bool:
        """Keep the Hermite rows ``h`` over ``den`` and the basis they give;
        False when that basis is collinear in the plane."""
        self.b1, self.b2 = _vectors_from_rows(field, h, den)
        self._det = self.b1.cross(self.b2)
        self._rows = (h[0], h[1])
        self._den = den
        self._pivots = tuple(next(c for c, n in enumerate(row) if n) for row in h)
        return not self._det.is_zero()

    @property
    def field(self) -> Field:
        return self.b1.field

    @property
    def det(self) -> FieldElement:
        """The positive covolume |det(b1, b2)|."""
        return abs(self._det)

    def basis(self) -> tuple[PlaneVector, PlaneVector]:
        return (self.b1, self.b2)

    def coords(self, v: PlaneVector) -> tuple[FieldElement, FieldElement]:
        """Exact coordinates of ``v`` in the canonical basis."""
        return (v.cross(self.b2) / self._det, self.b1.cross(v) / self._det)

    def integer_coords(self, v: PlaneVector) -> tuple[int, int] | None:
        """Integer coordinates of ``v`` in the canonical basis, or None.

        Flattening is a Q-linear bijection, so ``v`` is a1*b1 + a2*b2 with
        integers a1, a2 exactly when its flattened row scaled by the
        denominator is the integer row a1*h1 + a2*h2.  The echelon pivots
        give a1 and then a2; any residue left means ``v`` is no lattice
        point.
        """
        field = self.field
        if v.x.field is not field or v.y.field is not field:
            raise FieldError(f"vector over {v.field!r} tested against a lattice over {self.field!r}")
        den = self._den
        if den % v.x.den or den % v.y.den:
            return None
        sx, sy = den // v.x.den, den // v.y.den
        w = [n * sx for n in v.x.nums] + [n * sy for n in v.y.nums]
        (h1, h2), (p1, p2) = self._rows, self._pivots
        a1 = w[p1] // h1[p1]
        a2 = (w[p2] - a1 * h1[p2]) // h2[p2]
        if any(n != a1 * x + a2 * y for n, x, y in zip(w, h1, h2)):
            return None
        return (a1, a2)

    def contains(self, v: PlaneVector) -> bool:
        return self.integer_coords(v) is not None

    def point(self, a: int, b: int) -> PlaneVector:
        return self.b1.scale(a) + self.b2.scale(b)

    def __eq__(self, other):
        return isinstance(other, PlaneLattice) and (other.b1, other.b2) == (self.b1, self.b2)

    def __hash__(self):
        return hash((self.b1, self.b2))

    def __repr__(self):
        return f"PlaneLattice[{self.b1}, {self.b2}]"


@dataclass(frozen=True)
class SpanAnalysis:
    """Outcome of testing whether an integer span is a full-rank lattice."""

    q_rank: int
    verdict: str  # LATTICE | NOT_DISCRETE | RANK_DEFICIENT
    basis: PlaneLattice | None


def integer_span(vectors) -> SpanAnalysis:
    """Classify the integer span of finitely many plane vectors.

    The span is a full-rank lattice iff the flattened rational rank is at
    most 2 and the vectors span the real plane; rank > 2 means a dense
    (non-discrete) subgroup, real span below dimension 2 means no full-rank
    subgroup at all.  The Hermite rows of the flattened vectors give the
    rank and, at rank 2, a basis of the span.
    """
    vs = _check_common_field(vectors)
    rows, den = _integer_rows(vs)
    h = row_hnf(rows)
    if len(h) > 2:
        return SpanAnalysis(len(h), NOT_DISCRETE, None)
    if len(h) < 2:
        return SpanAnalysis(len(h), RANK_DEFICIENT, None)
    basis = PlaneLattice._from_hermite(vs[0].field, h, den)
    if basis is None:
        return SpanAnalysis(2, RANK_DEFICIENT, None)
    return SpanAnalysis(2, LATTICE, basis)


def intersect(l1: PlaneLattice, l2: PlaneLattice) -> PlaneLattice:
    """Intersection of two commensurable lattices (always full rank).

    With (u1, u2) and (v1, v2) the two bases, the integer relations
    a1*u1 + a2*u2 + c1*v1 + c2*v2 = 0 are the kernel of the flattened
    integer rows of the four vectors.  Its rank is 4 minus their rational
    rank, so it is 2 exactly when v1 and v2 lie in the rational span of u1
    and u2, which is commensurability; without it the intersection can
    degenerate to rank <= 1, so such inputs are refused rather than
    guessed at.  a1*u1 + a2*u2 is then a point of both lattices, and the
    map to (a1, a2) is injective, so the two kernel rows give l1
    coordinates of a basis of the intersection, and their combinations of
    l1's Hermite rows are its integer rows over l1's denominator.
    """
    rows, _ = _integer_rows(_check_common_field([*l1.basis(), *l2.basis()]))
    kernel = right_kernel(list(zip(*rows)))
    if len(kernel) != 2:
        raise IncommensurableError("lattices share no full-rank superlattice")
    h1, h2 = l1._rows
    combos = [[a1 * x + a2 * y for x, y in zip(h1, h2)] for a1, a2, _, _ in kernel]
    return PlaneLattice._from_hermite(l1.field, row_hnf(combos), l1._den)


def _shortest_independent_basis_vector(l: PlaneLattice, w: PlaneVector) -> PlaneVector:
    candidates = [b for b in l.basis() if not b.cross(w).is_zero()]
    if len(candidates) == 2 and candidates[1].dot(candidates[1]) < candidates[0].dot(candidates[0]):
        return candidates[1]
    return candidates[0]


def sublattice_avoiding_coset(
    l: PlaneLattice, generator: PlaneVector | None, tau: PlaneVector
) -> PlaneLattice:
    """A full-rank sublattice of ``l`` disjoint from the coset V + tau.

    V is the subgroup generated by ``generator`` (trivial when None).  If
    tau lies on the real line of V, keep the generator and complete with a
    basis vector of ``l``; otherwise take the generator (or a completing
    basis vector) together with 2*tau.  Completion always uses the shortest
    canonical basis vector of ``l`` independent of the kept direction.  No
    pipeline code calls it: it serves acceptance criterion 8, coset
    avoidance.
    """
    if not l.contains(tau):
        raise GeometryError("tau is not a lattice point")
    if generator is not None and generator.is_zero():
        generator = None
    if generator is not None:
        if not l.contains(generator):
            raise GeometryError("subgroup generator is not a lattice point")
        if generator.cross(tau).is_zero():
            # tau on the line of V; both are lattice points so the ratio is rational
            ratio = (tau.x / generator.x) if not generator.x.is_zero() else (tau.y / generator.y)
            q = ratio.rational_value()
            if q is not None and q.denominator == 1:
                raise GeometryError("tau lies in the subgroup V")
            return PlaneLattice(generator, _shortest_independent_basis_vector(l, generator))
        return PlaneLattice(generator, tau + tau)
    if tau.is_zero():
        raise GeometryError("tau lies in the subgroup V")
    double = tau + tau
    return PlaneLattice(double, _shortest_independent_basis_vector(l, tau))


def line_meets_lattice(l: PlaneLattice, e: PlaneVector, tau: PlaneVector) -> bool:
    """Decide whether e is in l and some real t gives t*e + tau in l.

    In lattice coordinates e becomes an integer vector (e1, e2) and the
    line {t*e + tau} meets Z^2 iff the linear Diophantine equation
    e2*m - e1*n = -det(e, tau) has a solution, i.e. the right side is an
    integer divisible by gcd(e1, e2).  This reduces the existential over
    the reals to gcd arithmetic.  The determinant in lattice coordinates is
    the plane one over det(l), so tau's coordinates are never solved for.
    """
    ec = l.integer_coords(e)
    if ec is None:
        return False
    if ec == (0, 0):
        return l.contains(tau)
    d = (e.cross(tau) / l._det).rational_value()
    if d is None or d.denominator != 1:
        return False
    return d.numerator % gcd(ec[0], ec[1]) == 0


def superlattice_meeting_line(
    l: PlaneLattice, e: PlaneVector, tau: PlaneVector
) -> tuple[FieldElement, PlaneLattice]:
    """Find t0 and a superlattice of ``l`` containing t0*e + tau.

    Requires e in l, e nonzero, and det(tau, e)/det(l) rational.  t0 is
    chosen so that t0*e + tau is perpendicular to e in lattice coordinates;
    the caught point then has rational lattice coordinates, so adjoining it
    keeps the span discrete.  (Perpendicularity in ambient coordinates
    would not: for a skewed basis the caught point can be irrational.)
    """
    ec = l.integer_coords(e)
    if ec is None:
        raise GeometryError("e is not a lattice point")
    if ec == (0, 0):
        raise GeometryError("e must be nonzero")
    t1, t2 = l.coords(tau)
    d = (t1 * ec[1] - t2 * ec[0]).rational_value()
    if d is None:
        raise RationalityError("det(tau, e) is not a rational multiple of det(L)")
    t0 = -(t1 * ec[0] + t2 * ec[1]) / (ec[0] * ec[0] + ec[1] * ec[1])
    caught = l.b1.scale(t0 * ec[0] + t1) + l.b2.scale(t0 * ec[1] + t2)
    analysis = integer_span([l.b1, l.b2, caught])
    if analysis.verdict != LATTICE:
        raise InternalError("adjoined point did not yield a lattice")  # unreachable
    bigger = analysis.basis
    if not (bigger.contains(l.b1) and bigger.contains(l.b2) and bigger.contains(caught)):
        raise InternalError("superlattice check failed")  # unreachable
    return t0, bigger
