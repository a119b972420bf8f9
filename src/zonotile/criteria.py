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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import AccountingError, GeometryError, InternalError
from .lattice import (
    LATTICE,
    PlaneLattice,
    integer_span,
    intersect,
    line_meets_lattice,
    superlattice_meeting_line,
)
from .zonotope import Zonotope

__all__ = [
    "BollePair",
    "BolleReport",
    "Decision",
    "CanonicalLattice",
    "bolle_check",
    "decide_multitiling",
    "canonical_lattice",
    "lattice_multiplicity",
]

SPAN_NOT_DISCRETE = "span-not-discrete"
DET_RATIO_IRRATIONAL = "det-ratio-irrational"


@dataclass(frozen=True)
class BollePair:
    j: int
    cond1: bool  # pair translation is a lattice point
    cond2: bool  # edge in lattice and the edge line meets the lattice


@dataclass(frozen=True)
class BolleReport:
    pairs: tuple[BollePair, ...]
    verdict: bool
    multiplicity: int | None  # area / det, present when the verdict holds


@dataclass(frozen=True)
class Decision:
    multi_tiles: bool
    branch: str  # "parallelogram" | "odd" | "even"
    j0: int | None
    witness_lattice: PlaneLattice | None
    witness_multiplicity: int | None
    succeeded_j0: tuple[int, ...]
    failure_reason: str | None  # SPAN_NOT_DISCRETE | DET_RATIO_IRRATIONAL
    # even m: (j0, span) for each drop-one span that is a lattice, in j0 order
    drop_one_spans: tuple[tuple[int, PlaneLattice], ...] = ()


@dataclass(frozen=True)
class CanonicalLattice:
    lattice: PlaneLattice
    source: str  # "pair-span" (odd m) | "intersection" (even m)
    contributing_j: tuple[int, ...]


def bolle_check(p: Zonotope, lat: PlaneLattice) -> BolleReport:
    """Evaluate the per-edge-pair criterion for p against a concrete lattice."""
    return _bolle_report(p, lat, p.pair_translations())


def _bolle_report(p: Zonotope, lat: PlaneLattice, shifts) -> BolleReport:
    """``bolle_check`` with p's pair translations already at hand."""
    pairs = []
    for j, (e, t) in enumerate(zip(p.generators, shifts), start=1):
        cond1 = lat.contains(t)
        cond2 = line_meets_lattice(lat, e, t)  # False when e is not in lat
        pairs.append(BollePair(j, cond1, cond2))
    verdict = all(pr.cond1 or pr.cond2 for pr in pairs)
    return BolleReport(tuple(pairs), verdict, _multiplicity(p, lat, 1) if verdict else None)


def _multiplicity(p: Zonotope, lat: PlaneLattice, n_translates: int) -> int:
    """n_translates * area / det, which must be a positive integer."""
    ratio = (p.area() / lat.det).rational_value()
    if ratio is None:
        raise AccountingError("area/det is irrational")
    k = n_translates * ratio
    if k.denominator != 1 or k <= 0:
        raise AccountingError(f"multiplicity {k} is not a positive integer")
    return k.numerator


def _verified(p: Zonotope, lat: PlaneLattice, shifts) -> BolleReport:
    report = _bolle_report(p, lat, shifts)
    if not report.verdict:
        raise InternalError("internal: constructed witness fails the edge-pair criterion")
    return report


def decide_multitiling(p: Zonotope) -> Decision:
    """Decide whether p admits any translational multi-tiling.

    Total on valid zonotopes: every branch returns a definite answer, and
    a positive answer always carries a verified witness lattice.
    Parallelograms trivially tile, so they answer True with the generator
    lattice rather than being refused.  For even m every drop-one span
    that is a lattice is kept in ``drop_one_spans``, whatever the verdict.
    """
    shifts = p.pair_translations()
    if p.is_parallelogram():
        span = integer_span(list(p.generators))
        report = _verified(p, span.basis, shifts)
        return Decision(True, "parallelogram", None, span.basis, report.multiplicity, (), None)

    if p.m % 2 == 1:
        span = integer_span(shifts)
        if span.verdict != LATTICE:
            return Decision(False, "odd", None, None, None, (), SPAN_NOT_DISCRETE)
        report = _verified(p, span.basis, shifts)
        return Decision(True, "odd", None, span.basis, report.multiplicity, (), None)

    succeeded: list[int] = []
    spans: list[tuple[int, PlaneLattice]] = []
    witness = None
    witness_j0 = None
    for j0 in range(1, p.m + 1):
        span = integer_span([t for j, t in enumerate(shifts, start=1) if j != j0])
        if span.verdict != LATTICE:
            continue
        sub = span.basis
        spans.append((j0, sub))
        e = p.generators[j0 - 1]
        t = shifts[j0 - 1]
        if (t.cross(e) / sub.det).rational_value() is None:
            continue
        succeeded.append(j0)
        if witness is None:
            # for even m the dropped edge is a +-1 combination of the kept
            # translations, so it lies in the span and condition 2 applies
            _, witness = superlattice_meeting_line(sub, e, t)
            witness_j0 = j0
    if witness is not None:
        report = _verified(p, witness, shifts)
        return Decision(
            True, "even", witness_j0, witness, report.multiplicity, tuple(succeeded), None, tuple(spans)
        )
    reason = DET_RATIO_IRRATIONAL if spans else SPAN_NOT_DISCRETE
    return Decision(False, "even", None, None, None, (), reason, tuple(spans))


def canonical_lattice(decision: Decision) -> CanonicalLattice:
    """The canonical lattice of a multi-tiling zonotope, from its decision.

    Odd m: the integer span of all pair translations, which is the odd
    witness.  Even m: the intersection of the decision's drop-one spans
    that are lattices.  Meets every lattice that multi-tiles with the
    zonotope in full rank.
    """
    if decision.branch == "parallelogram":
        raise GeometryError("canonical lattice is not defined for parallelograms")
    if not decision.multi_tiles:
        raise GeometryError("polygon does not multi-tile by translations")
    if decision.branch == "odd":
        return CanonicalLattice(decision.witness_lattice, "pair-span", ())
    contributing, parts = zip(*decision.drop_one_spans)
    return CanonicalLattice(reduce(intersect, parts), "intersection", contributing)


def lattice_multiplicity(p: Zonotope, lat: PlaneLattice, n_translates: int) -> int:
    """Covering multiplicity of n translated copies of a lattice tiling set.

    k = n_translates * area / det, required to be a positive integer.  For
    a single translate the lattice must itself pass the edge-pair
    criterion; a union of several translates may multi-tile even though
    one copy alone does not, so only the accounting is checked there.
    No pipeline code calls it: it is the tests' oracle for the density
    identity that ``verify_covering`` checks on every constant periodic
    verdict, here for one lattice taken n_translates times.
    """
    if n_translates < 1:
        raise GeometryError("need at least one translate")
    if n_translates == 1:
        report = bolle_check(p, lat)
        if not report.verdict:
            raise GeometryError("lattice fails the edge-pair criterion")
        return report.multiplicity
    return _multiplicity(p, lat, n_translates)
