"""Reference checks: the independent methods the pipeline's answers are
held to, and the helpers the acceptance criteria run.

No pipeline module imports this one, and these use only the pipeline's
public names (``tests/test_layout.py`` holds both rules): point location
(:func:`locate`) on translates listed by element arithmetic, sharing no
code with the grid enumeration, against the sweep's faces, vector spans
and field division against the row forms, vector sums against the pair
translations' row recurrence, the shoelace area against Bolle's
accounting.  The exception classes here are raised by these
checks only.  ``covering_at`` and ``strip_profile`` import the covering
layer where they run, so the span checks load only the decision layer.
"""

from __future__ import annotations

from .criteria import bolle_check
from .errors import FieldError, GeometryError, ZonotileError
from .field import FieldElement
from .intlinalg import row_hnf
from .lattice import (
    PlaneLattice, PlaneVector, SpanAnalysis, integer_rows, row_cross, row_span, vector, vectors_from_rows,
)
from .zonotope import Zonotope

__all__ = [
    "BoundaryError", "AccountingError", "RationalityError", "right_kernel", "rational_rank", "integer_span",
    "lattice_coords", "integer_coords", "covolume", "pair_translations", "line_meets_lattice",
    "superlattice_meeting_line", "sublattice_avoiding_coset", "lattice_points_in_box", "locate", "covering_at",
    "strip_profile", "lattice_multiplicity",
]


class BoundaryError(ZonotileError):
    """``covering_at`` was asked to count a point on a translate boundary."""


class AccountingError(ZonotileError, ArithmeticError):
    """A multiplicity that must be a positive integer is not."""


class RationalityError(GeometryError):
    """A determinant ratio that must be rational is irrational."""


def right_kernel(rows) -> list[list[int]]:
    """A basis of the integer solutions x of rows @ x == 0.

    The rows of [rows^T | I] span the (rows @ x | x), so their Hermite
    rows with a zero first block are the (0 | x) of a basis of the
    kernel."""
    if not rows:
        return []
    n = len(rows)
    ncols = len(rows[0])
    block = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    return [h[n:] for h in row_hnf(block) if not any(h[:n])]


def rational_rank(vectors) -> int:
    """Rank over Q of the vectors viewed as rational coordinate tuples (0
    for none); the benchmark's generators also use it to draw rationally
    independent generators."""
    rows, _ = integer_rows(vectors)
    return len(row_hnf(rows))


def integer_span(vectors) -> SpanAnalysis:
    """:func:`~zonotile.lattice.row_span` of finitely many plane vectors,
    flattened: the vector form of the spans ``decide`` takes on rows."""
    vs = list(vectors)
    if not vs:
        raise GeometryError("empty vector list")
    return row_span(vs[0].field, *integer_rows(vs))


def _flatten(l: PlaneLattice, vectors) -> tuple[list[list[int]], int]:
    for v in vectors:
        if v.x.field is not l.field or v.y.field is not l.field:
            raise FieldError(f"vector over {v.field!r} tested against a lattice over {l.field!r}")
    return integer_rows(vectors)


def lattice_coords(l: PlaneLattice, v: PlaneVector) -> tuple[FieldElement, FieldElement]:
    """Coordinates of ``v`` in ``l``'s canonical basis by field division, the reference for ``span_coords``."""
    b1, b2 = l.basis()
    det = b1.cross(b2)
    return (v.cross(b2) / det, b1.cross(v) / det)


def integer_coords(l: PlaneLattice, v: PlaneVector) -> tuple[int, int] | None:
    """Integer coordinates of ``v`` in ``l``'s canonical basis, or None
    when it is no lattice point; a vector over another field is refused."""
    (c,), k = l.span_coords(*_flatten(l, [v]))
    return None if c is None or c[0] % k or c[1] % k else (c[0] // k, c[1] // k)


def covolume(l: PlaneLattice) -> FieldElement:
    """The positive covolume |det(b1, b2)| of ``l``, from its basis vectors."""
    b1, b2 = l.basis()
    return abs(b1.cross(b2))


def pair_translations(z: Zonotope) -> list[PlaneVector]:
    """For each generator e_j of ``z``, t_j = S - e_j - 2(e_1 + ... + e_{j-1})
    with S = e_1 + ... + e_m, by vector sums: the reference for
    :meth:`Zonotope.translation_rows`' recurrence."""
    gens, before, out = z.generators, vector(z.field, 0, 0), []
    total = sum(gens, before)
    for e in gens:
        out.append(total - e - before - before)
        before = before + e
    return out


def line_meets_lattice(l: PlaneLattice, e: PlaneVector, tau: PlaneVector) -> bool:
    """Decide whether e is in l and some real t gives t*e + tau in l.

    In lattice coordinates e becomes an integer vector (e1, e2) and the
    line {t*e + tau} meets Z^2 iff the linear Diophantine equation
    e2*m - e1*n = -det(e, tau) has a solution, i.e. the right side is an
    integer divisible by gcd(e1, e2).  This reduces the existential over
    the reals to gcd arithmetic.  The determinant in lattice coordinates is
    the plane one over det(l), so tau needs no rational coordinates.
    Bolle's test asks :meth:`PlaneLattice.meets_line` on solved rows; this
    vector form serves acceptance criterion 7.
    """
    (e_row, tau_row), den = _flatten(l, [e, tau])
    (ec, tc), k = l.span_coords([e_row, tau_row], den)
    return integer_coords(l, tau) is not None if e.is_zero() else l.meets_line(e_row, tau_row, den, ec, tc, k)


def superlattice_meeting_line(l: PlaneLattice, e: PlaneVector, tau: PlaneVector) -> tuple[FieldElement, PlaneLattice]:
    """Find t0 and a superlattice of ``l`` containing t0*e + tau.

    Requires e in l, e nonzero, and det(tau, e)/det(l) rational.
    ``decide`` asks :meth:`PlaneLattice.adjoin_line_point` on rows; this
    vector form puts t0*e + tau on w = e2*b1 - e1*b2 by one field
    division."""
    (e_row, tau_row), den = _flatten(l, [e, tau])
    d = l.det_ratio(row_cross(l.field, tau_row, e_row), den * den)
    if d is None:
        raise RationalityError("det(tau, e) is not a rational multiple of det(L)")
    ec = integer_coords(l, e)
    bigger = l.adjoin_line_point(ec, d)
    (e1, e2), (b1, b2) = ec, l.basis()
    w = b1.scale(e2) - b2.scale(e1)
    return -w.cross(tau) / w.cross(e), bigger


def _shortest_independent_basis_vector(l: PlaneLattice, w: PlaneVector) -> PlaneVector:
    return min((b for b in l.basis() if not b.cross(w).is_zero()), key=lambda b: b.dot(b))


def sublattice_avoiding_coset(l: PlaneLattice, generator: PlaneVector | None, tau: PlaneVector) -> PlaneLattice:
    """A full-rank sublattice of ``l`` disjoint from the coset V + tau,
    for acceptance criterion 8.

    V is the subgroup generated by ``generator`` (trivial when None).  If
    tau lies on the real line of V, keep the generator and complete with a
    basis vector of ``l``; otherwise take the generator (or a completing
    basis vector) together with 2*tau.  Completion always uses the shortest
    canonical basis vector of ``l`` independent of the kept direction.
    """
    if integer_coords(l, tau) is None:
        raise GeometryError("tau is not a lattice point")
    if generator is not None and generator.is_zero():
        generator = None
    if generator is not None:
        if integer_coords(l, generator) is None:
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
    return PlaneLattice(tau + tau, _shortest_independent_basis_vector(l, tau))


def lattice_points_in_box(lat: PlaneLattice, box: Box) -> list[PlaneVector]:
    """Exactly the lattice points inside the closed box, row by row in the
    first coordinate, by element arithmetic alone: the ``lat.point(a, b)``
    the box holds, a and b ranging over the corners' :func:`lattice_coords`."""
    a_s, b_s = zip(*(lattice_coords(lat, PlaneVector(x, y)) for x in (box.x0, box.x1) for y in (box.y0, box.y1)))
    out = []
    for a in range(min(a_s).ceil(), max(a_s).floor() + 1):
        for b in range(min(b_s).ceil(), max(b_s).floor() + 1):
            p = lat.point(a, b)
            if box.x0 <= p.x <= box.x1 and box.y0 <= p.y <= box.y1:
                out.append(p)
    return out


def locate(poly: Polygon, p: PlaneVector) -> int:
    """+1 strictly inside ``poly``, 0 on its boundary, -1 strictly
    outside, by the parity of a horizontal ray's edge crossings."""
    bb = poly.bbox
    if p.x < bb.x0 or p.x > bb.x1 or p.y < bb.y0 or p.y > bb.y1:
        return -1
    parity = 0
    vs = poly.vertices
    for a, b in zip(vs, vs[1:] + vs[:1]):
        ab = b - a
        ap = p - a
        if ab.cross(ap).is_zero():
            t = ap.dot(ab)
            if t.sign() >= 0 and (ab.dot(ab) - t).sign() >= 0:
                return 0
            continue
        dy = ab.y
        sdy = dy.sign()
        if sdy == 0:
            continue
        # half-open in y so that a ray through a vertex counts once
        if sdy > 0:
            if p.y < a.y or p.y >= b.y:
                continue
        else:
            if p.y < b.y or p.y >= a.y:
                continue
        val = (a.x - p.x) * dy + (p.y - a.y) * ab.x
        if val.sign() * sdy > 0:
            parity ^= 1
    return 1 if parity else -1


def covering_at(poly: Polygon, tset: TranslateSet, x: PlaneVector) -> int:
    """The number of translates of poly whose interior contains x, by
    point location: the count every face of the sweep is held to.  The
    offsets are built as vectors, with their weights, and each moves its
    lattice's :func:`lattice_points_in_box` when the set is periodic.

    Raises BoundaryError when x lies on some translate boundary; the
    covering function is only defined off that measure-zero set.
    """
    from .covering import Box
    bb = poly.bbox

    def search(c):  # the positions whose translate of poly can hold c
        return Box(c.x - bb.x1, c.y - bb.y1, c.x - bb.x0, c.y - bb.y0)

    translates = list(zip(vectors_from_rows(tset.field, tset.rows, tset.den), tset.weights))
    if tset.is_periodic:
        translates = [(p + z, k) for (z, k), lat in zip(translates, tset.lattices)
                      for p in lattice_points_in_box(lat, search(x - z))]
    count = 0
    for lam, mult in translates:
        loc = locate(poly, x - lam)
        if loc == 0:
            raise BoundaryError(f"query point lies on the boundary of a translate at {lam}")
        if loc > 0:
            count += mult
    return count


def strip_profile(poly: Polygon, lat: PlaneLattice, n_values) -> list[int]:
    """Covering count of poly + lat on each horizontal strip R x [n, n+1],
    for acceptance criterion 2, the octagon's strip profile.

    The lattice must have a vertical second basis vector and a rational
    ratio between the vertical parts of its basis (which gives the strip
    covering a horizontal period); the profile is computed on one period
    per strip and each strip must cover constantly (non-constant strips
    are reported as an error, never averaged).
    """
    from .arrangement import arrangement_faces
    from .covering import Polygon, TranslateSet, region_translates
    b1, b2 = lat.basis()
    if not b2.x.is_zero():
        raise GeometryError("lattice is not axis-compatible (vertical second basis vector)")
    ratio = (b1.y / b2.y).rational_value()
    if ratio is None:
        raise GeometryError("lattice has no horizontal period (irrational basis ratio)")
    period = abs(b1.x * ratio.denominator)
    field = poly.field
    tset = TranslateSet.periodic(field, [lat], [(0,) * 2 * field.size], 1)
    out = []
    for n in n_values:
        region = Polygon([vector(field, x, y) for x, y in ((0, n), (period, n), (period, n + 1), (0, n + 1))])
        faces = arrangement_faces(poly, *region_translates(poly, tset, region), region)
        counts = {f.count for f in faces}
        if len(counts) != 1:
            raise GeometryError(f"covering is not constant on strip [{n}, {n + 1}]: counts {sorted(counts)}")
        out.append(counts.pop())
    return out


def lattice_multiplicity(p: Zonotope, lat: PlaneLattice, n_translates: int) -> int:
    """Covering multiplicity of n translated copies of a lattice tiling set.

    k = n_translates * area / det from :meth:`Zonotope.area`, required to
    be a positive integer: the density identity ``verify_covering`` checks,
    for one lattice taken n_translates times.  A single translate must
    itself pass the edge-pair criterion; a union of several may multi-tile
    even though one copy alone does not, so only the accounting is checked
    there.
    """
    if n_translates < 1:
        raise GeometryError("need at least one translate")
    if n_translates == 1:
        report = bolle_check(p, lat)
        if not report.verdict:
            raise GeometryError("lattice fails the edge-pair criterion")
        return report.multiplicity
    area = p.area()
    ratio = lat.det_ratio(area.nums, area.den)
    if ratio is None:
        raise AccountingError("area/det is irrational")
    k = n_translates * abs(ratio)
    if k.denominator != 1:
        raise AccountingError(f"multiplicity {k} is not a positive integer")
    return k.numerator
