"""Decision procedures for translational multi-tilings by zonotopes.

Two layers:

* :func:`bolle_check` tests a concrete lattice against Bolle's classical
  per-edge-pair criterion (Bolle, 1994): each pair of parallel edges must
  have its pair translation in the lattice, or the edge itself in the
  lattice together with some real multiple of it landing the translation
  back in the lattice.

* :func:`decide_multitiling` settles whether ANY multi-tiling exists, by
  rank analysis of the pair translations: for odd m their integer span
  must be a lattice; for even m dropping one translation must leave a
  lattice whose determinant rationally divides det(e_j0, tau_j0).  The
  witness lattice produced is always re-verified by :func:`bolle_check`
  before it is returned; :func:`canonical_lattice` reuses its spans.

Both run on the zonotope's integer rows (generators and pair translations
over one denominator): spans are Hermite forms of rows, and the Hermite
forms of the translations' prefixes and suffixes give every drop-one span
in O(m) forms of a few rows each (the span without t_j is the full span
whenever the prefix before it or the suffix after it already spans all
m translations).  Each row is solved once into lattice coordinates over
one k, so membership, det(e, tau) / det(L) and area / det(L) are
small-integer arithmetic (off the lattice's rational span, a ratio is
rational iff two numerator tuples are proportional), and no step, not
even the even witness, does field arithmetic.  For even m only the first
drop-one span whose ratio det(t_j0, e_j0) / det(M_j0) is rational solves
t_j0 and e_j0 into coordinates, to build the witness; every later span
needs only to know that its ratio is rational, which always holds over Q
and otherwise is the numerator test alone.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import accumulate

from .errors import FieldError, GeometryError, InternalError
from .lattice import LATTICE, PlaneLattice, drop_one_spans, intersect, row_cross, row_span
from .zonotope import Zonotope

__all__ = [
    "BollePair",
    "BolleReport",
    "Decision",
    "CanonicalLattice",
    "bolle_check",
    "decide_multitiling",
    "canonical_lattice",
]

SPAN_NOT_DISCRETE = "span-not-discrete"
DET_RATIO_IRRATIONAL = "det-ratio-irrational"


class BollePair(namedtuple("BollePair", "j cond1 cond2")):
    """Bolle's conditions on the j-th pair of parallel edges.

    ``cond1``: the pair translation is a lattice point.
    ``cond2``: the edge is in the lattice and the edge line meets the lattice."""

    __slots__ = ()


class BolleReport(namedtuple("BolleReport", "pairs verdict multiplicity")):
    """Outcome of :func:`bolle_check`.

    ``pairs``: one :class:`BollePair` per edge pair, j = 1..m.
    ``verdict``: whether every pair meets one of the conditions.
    ``multiplicity``: area / det, present when the verdict holds."""

    __slots__ = ()


class Decision(
    namedtuple(
        "Decision",
        "multi_tiles branch j0 witness_lattice witness_multiplicity succeeded_j0 failure_reason drop_one_spans",
        defaults=((),),
    )
):
    """Outcome of :func:`decide_multitiling`.

    ``branch``: "parallelogram", "odd" or "even".
    ``failure_reason``: SPAN_NOT_DISCRETE or DET_RATIO_IRRATIONAL, or None.
    ``drop_one_spans``: for even m, (j0, span) for each drop-one span that
    is a lattice, in j0 order; () by default."""

    __slots__ = ()


class CanonicalLattice(namedtuple("CanonicalLattice", "lattice source contributing_j")):
    """Outcome of :func:`canonical_lattice`.

    ``source``: "pair-span" (odd m) or "intersection" (even m)."""

    __slots__ = ()


def bolle_check(p: Zonotope, lat: PlaneLattice) -> BolleReport:
    """Evaluate the per-edge-pair criterion for p against a concrete lattice.

    Each row is solved into lattice coordinates once.  A passing lattice
    has area / det a positive integer by Bolle's theorem, so any other
    value is a bug, not bad input."""
    if lat.field is not p.field:
        raise FieldError(f"zonotope over {p.field!r} checked against a lattice over {lat.field!r}")
    shifts = p.translation_rows()
    coords, k = lat.span_coords(p.rows + shifts, p.den)
    pairs = tuple(
        BollePair(j, tc is not None and not (tc[0] % k or tc[1] % k), lat.meets_line(e, t, p.den, ec, tc, k))
        for j, (e, t, ec, tc) in enumerate(zip(p.rows, shifts, coords, coords[p.m :]), start=1)
    )
    if not all(pr.cond1 or pr.cond2 for pr in pairs):
        return BolleReport(pairs, False, None)
    ratio = _multiplicity(p, lat, coords[: p.m], k)
    if ratio is None or ratio.denominator != 1:
        raise InternalError(f"internal: a lattice passing the edge-pair criterion has area/det {ratio}")
    return BolleReport(pairs, True, ratio.numerator)


def _multiplicity(p: Zonotope, lat: PlaneLattice, coords, k: int) -> Fraction | None:
    """|area / det|, or None when it is irrational, from the lattice
    coordinates c over k of p's generators (``span_coords``): it is
    sum_{i<j} det(c_i, c_j) / k**2 when no c is None."""
    if None in coords:
        area = p.area()
        ratio = lat.det_ratio(area.nums, area.den)
    else:
        prefix = accumulate(coords, lambda u, v: (u[0] + v[0], u[1] + v[1]))
        ratio = Fraction(sum(x * cy - y * cx for (x, y), (cx, cy) in zip(prefix, coords[1:])), k * k)
    return None if ratio is None else abs(ratio)


def _verified(p: Zonotope, lat: PlaneLattice) -> BolleReport:
    report = bolle_check(p, lat)
    if not report.verdict:
        raise InternalError("internal: constructed witness fails the edge-pair criterion")
    return report


def decide_multitiling(p: Zonotope) -> Decision:
    """Decide whether p admits any translational multi-tiling.

    Total on valid zonotopes: every branch returns a definite answer, and
    a positive answer always carries a verified witness lattice.
    Parallelograms trivially tile, so they answer True with the generator
    lattice rather than being refused.  For even m every drop-one span
    that is a lattice is kept in ``drop_one_spans``, whatever the verdict;
    only those that are not the full span (see
    :func:`~zonotile.lattice.drop_one_spans`) take a Hermite form apart.
    """
    shifts = p.translation_rows()
    field, den = p.field, p.den
    if p.is_parallelogram():
        span = row_span(field, p.rows, den)
        report = _verified(p, span.basis)
        return Decision(True, "parallelogram", None, span.basis, report.multiplicity, (), None)

    if p.m % 2 == 1:
        span = row_span(field, shifts, den)
        if span.verdict != LATTICE:
            return Decision(False, "odd", None, None, None, (), SPAN_NOT_DISCRETE)
        report = _verified(p, span.basis)
        return Decision(True, "odd", None, span.basis, report.multiplicity, (), None)

    succeeded: list[int] = []
    spans: list[tuple[int, PlaneLattice]] = []
    witness = witness_j0 = None
    for j0, sub in enumerate(drop_one_spans(field, shifts, den), start=1):
        if sub is None:
            continue
        spans.append((j0, sub))
        e, t = p.rows[j0 - 1], shifts[j0 - 1]
        if witness is not None:
            # past the witness only whether the ratio is rational counts
            if field.size == 1 or sub.det_ratio(row_cross(field, t, e), den * den) is not None:
                succeeded.append(j0)
            continue
        (tc, ec), k = sub.span_coords([t, e], den)
        if tc is None or ec is None:  # only over an irrational field
            d = sub.det_ratio(row_cross(field, t, e), den * den)
        else:
            d = Fraction(tc[0] * ec[1] - tc[1] * ec[0], k * k)
        if d is None:
            continue
        succeeded.append(j0)
        # for even m the dropped edge is a +-1 combination of the kept
        # translations, so ec / k is a span point and condition 2 applies
        witness = sub.adjoin_line_point((ec[0] // k, ec[1] // k), d)
        witness_j0 = j0
    if witness is not None:
        report = _verified(p, witness)
        return Decision(
            True, "even", witness_j0, witness, report.multiplicity, tuple(succeeded), None, tuple(spans)
        )
    reason = DET_RATIO_IRRATIONAL if spans else SPAN_NOT_DISCRETE
    return Decision(False, "even", None, None, None, (), reason, tuple(spans))


def canonical_lattice(decision: Decision) -> CanonicalLattice:
    """The canonical lattice of a multi-tiling zonotope, from its decision.

    Odd m: the integer span of all pair translations, which is the odd
    witness.  Even m: the intersection of the decision's drop-one spans
    that are lattices, each distinct one taken once (most are the full
    span of the pair translations).  Meets every lattice that multi-tiles
    with the zonotope in full rank.
    """
    if decision.branch == "parallelogram":
        raise GeometryError("canonical lattice is not defined for parallelograms")
    if not decision.multi_tiles:
        raise GeometryError("polygon does not multi-tile by translations")
    if decision.branch == "odd":
        return CanonicalLattice(decision.witness_lattice, "pair-span", ())
    contributing, parts = zip(*decision.drop_one_spans)
    return CanonicalLattice(reduce(intersect, dict.fromkeys(parts)), "intersection", contributing)
