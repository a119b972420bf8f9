"""Decision procedures: the edge-pair criterion, the existence decision,
the canonical lattice, and multiplicity accounting."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonotile import (
    AccountingError,
    BollePair,
    BolleReport,
    Decision,
    Field,
    FieldElement,
    GeometryError,
    IncommensurableError,
    PlaneLattice,
    PlaneVector,
    Zonotope,
    bolle_check,
    canonical_lattice,
    covolume,
    decide_multitiling,
    integer_coords,
    integer_span,
    intersect,
    lattice_coords,
    lattice_multiplicity,
    pair_translations,
    rational_rank,
    vector,
)
import zonotile.lattice
from zonotile.criteria import DET_RATIO_IRRATIONAL, SPAN_NOT_DISCRETE
from zonotile.lattice import LATTICE, drop_one_spans, row_hnf, row_span
from zonotile.oracles import line_meets_lattice

from conftest import (
    F2,
    F23,
    Q,
    V,
    rand_element,
    random_irrational_zonotope,
    random_zonotope,
    sort_by_argument,
    upper_half,
)

H = Fraction(1, 2)


def Z2():
    return PlaneLattice(V(1, 0), V(0, 1))


def octagon():
    return Zonotope([V(1, 0), V(1, 1), V(0, 1), V(-1, 1)])


def hexagon():
    return Zonotope([V(1, 0), V(0, 1), V(-1, 1)])


def square():
    return Zonotope([V(1, 0), V(0, 1)])


def det_ratio_failure_zonotope():
    """Three octagon generators perturbed by an alternating irrational
    vector: the pair translations have rational rank 3, and only dropping
    the first leaves a lattice, Z x 2Z."""
    f = Field([2])
    gamma = vector(f, f.sqrt(2), f.sqrt(2)).scale(Fraction(1, 8))
    return Zonotope([
        vector(f, 1, 0),
        vector(f, 1, 1) + gamma,
        vector(f, 0, 1) - gamma,
        vector(f, -1, 1) + gamma,
    ])


def count_hermite_forms(monkeypatch):
    """The row counts of the Hermite forms ``zonotile.lattice`` takes from
    here on, one entry a form."""
    calls = []

    def counting(rows, _form=zonotile.lattice.row_hnf):
        calls.append(len(rows))
        return _form(rows)

    monkeypatch.setattr(zonotile.lattice, "row_hnf", counting)
    return calls


def independent_generators(rng, m):
    """Rationally independent generators over Q(sqrt 2,3,5,7): no nontrivial
    rational combination vanishes, i.e. the m vectors have full rank m."""
    field = Field([2, 3, 5, 7])
    bases = {
        4: [(5, 1), (1, 1), (-1, 3), (-3, 1)],
        5: [(7, 1), (3, 1), (1, 2), (-1, 2), (-5, 1)],
        7: [(9, 1), (4, 1), (2, 1), (1, 2), (-1, 3), (-3, 2), (-7, 1)],
    }[m]
    masks = list(range(1, 16))
    eps = Fraction(1, 32)
    for _ in range(40):
        rng.shuffle(masks)
        gens = []
        it = iter(masks)
        for bx, by in bases:
            dx = field.element({next(it): eps * rng.randint(1, 3)})
            dy = field.element({next(it): eps * rng.randint(1, 3)})
            gens.append(
                vector(field, bx + rng.randint(-1, 1), by) + vector(field, dx, dy)
            )
        try:
            z = Zonotope([upper_half(g) for g in gens])
        except Exception:
            eps /= 2
            continue
        if rational_rank(list(z.generators)) == m:
            return z
    raise RuntimeError("failed to build independent generators")


class TestBolleCheck:
    def test_octagon_z2(self):
        report = bolle_check(octagon(), Z2())
        assert report.verdict
        assert report.multiplicity == 7
        assert all(p.cond1 for p in report.pairs)

    def test_octagon_zx2z_fails_on_first_pair(self):
        report = bolle_check(octagon(), PlaneLattice(V(1, 0), V(0, 2)))
        assert not report.verdict
        assert report.multiplicity is None
        first = report.pairs[0]
        assert first.j == 1 and not first.cond1 and not first.cond2
        assert all(p.cond1 for p in report.pairs[1:])

    def test_square_z2(self):
        report = bolle_check(square(), Z2())
        assert report.verdict and report.multiplicity == 1

    def test_verdict_requires_every_pair(self):
        report = bolle_check(hexagon(), PlaneLattice(V(1, 0), V(0, 3)))
        assert not report.verdict

    def test_a_passing_lattice_solves_the_rows_once(self, monkeypatch):
        # the generators' coordinates from the pair test serve the
        # multiplicity as well
        calls = []
        span_coords = PlaneLattice.span_coords

        def counting(self, rows, den):
            calls.append(len(rows))
            return span_coords(self, rows, den)

        monkeypatch.setattr(PlaneLattice, "span_coords", counting)
        report = bolle_check(octagon(), Z2())
        assert report.verdict and report.multiplicity == 7
        assert calls == [8]


class TestRecords:
    def test_decision_drop_one_spans_defaults_to_empty(self):
        dec = Decision(True, "odd", None, Z2(), 1, (), None)
        assert dec.drop_one_spans == ()
        assert dec == Decision(True, "odd", None, Z2(), 1, (), None, ())

    def test_bolle_report_compares_field_wise(self):
        def report(cond2=False, multiplicity=2):
            return BolleReport((BollePair(1, True, False), BollePair(2, False, cond2)), True, multiplicity)

        assert report() == report() and hash(report()) == hash(report())
        assert report() != report(cond2=True) and report() != report(multiplicity=None)
        assert bolle_check(octagon(), Z2()) == bolle_check(octagon(), PlaneLattice(V(0, 1), V(1, 1)))


class TestDecide:
    def test_octagon(self):
        dec = decide_multitiling(octagon())
        assert dec.multi_tiles
        assert dec.branch == "even" and dec.j0 == 1
        assert dec.succeeded_j0 == (1, 2, 3, 4)
        assert dec.witness_lattice == Z2()
        assert dec.witness_multiplicity == 7
        assert bolle_check(octagon(), dec.witness_lattice).verdict

    def test_octagon_drop_one_spans(self):
        shifts = pair_translations(octagon())
        spans = {}
        for j0 in range(1, 5):
            sub = [t for j, t in enumerate(shifts, start=1) if j != j0]
            spans[j0] = integer_span(sub).basis
        assert spans[1] == PlaneLattice(V(1, 0), V(0, 2))
        assert spans[2] == PlaneLattice(V(1, 1), V(3, 0))
        assert spans[3] == PlaneLattice(V(2, 0), V(0, 1))
        assert spans[4] == PlaneLattice(V(1, 2), V(0, 3))

    def test_hexagon(self):
        dec = decide_multitiling(hexagon())
        assert dec.multi_tiles and dec.branch == "odd"
        assert dec.witness_lattice == PlaneLattice(V(1, 1), V(0, 3))
        assert dec.witness_multiplicity == 1

    def test_square(self):
        dec = decide_multitiling(square())
        assert dec.multi_tiles and dec.branch == "parallelogram"
        assert dec.witness_multiplicity == 1

    def test_rationally_independent_pentagon_generators(self):
        rng = random.Random(71)
        z = independent_generators(rng, 5)
        dec = decide_multitiling(z)
        assert not dec.multi_tiles
        assert dec.branch == "odd"
        assert dec.failure_reason == SPAN_NOT_DISCRETE

    def test_rationally_independent_even_generators(self):
        rng = random.Random(73)
        z = independent_generators(rng, 4)
        dec = decide_multitiling(z)
        assert not dec.multi_tiles
        assert dec.branch == "even"
        assert dec.failure_reason == SPAN_NOT_DISCRETE

    def test_rationally_independent_14_gon(self):
        rng = random.Random(75)
        z = independent_generators(rng, 7)
        dec = decide_multitiling(z)
        assert not dec.multi_tiles
        assert dec.branch == "odd"
        assert dec.failure_reason == SPAN_NOT_DISCRETE

    def test_even_case_det_ratio_failure(self):
        # the drop-first span stays the lattice Z x 2Z, but det(e_1, t_1)
        # picks up an irrational part, so condition 2(b) fails there while
        # every other drop-one span is dense
        z = det_ratio_failure_zonotope()
        shifts = pair_translations(z)
        assert [(t.x, t.y) for t in shifts[1:]] == [(-2, 2), (-3, 0), (-2, -2)]
        dec = decide_multitiling(z)
        assert not dec.multi_tiles
        assert dec.branch == "even"
        assert dec.failure_reason == DET_RATIO_IRRATIONAL

    def test_rational_zonotopes_always_multi_tile(self):
        rng = random.Random(79)
        for _ in range(50):
            z = random_zonotope(rng)
            dec = decide_multitiling(z)
            assert dec.multi_tiles
            report = bolle_check(z, dec.witness_lattice)
            assert report.verdict
            assert report.multiplicity == dec.witness_multiplicity

    def test_verdict_invariant_under_rational_linear_maps(self):
        rng = random.Random(83)
        done = 0
        while done < 40:
            z = random_zonotope(rng)
            lat = PlaneLattice(V(rng.randint(1, 2), 0), V(rng.randint(0, 1), rng.randint(1, 2)))
            a, b = rand_matrix(rng)
            try:
                z2 = Zonotope(sort_by_argument([upper_half(apply_map(a, b, g)) for g in z.generators]))
            except Exception:
                continue
            lat2 = PlaneLattice(*(apply_map(a, b, v) for v in lat.basis()))
            assert bolle_check(z, lat).verdict == bolle_check(z2, lat2).verdict
            done += 1


class TestDropOneSpans:
    """``drop_one_spans`` against ``integer_span`` and ``row_span`` of
    the m - 1 kept translations, with the Hermite forms it takes: one of all m rows, then
    prefix and suffix forms of 2 to 4 rows until each reaches that full
    span, then one of at most 6 rows for each span that has a prefix and
    a suffix and that neither reaches."""

    def spans(self, p, monkeypatch):
        calls = count_hermite_forms(monkeypatch)
        spans = drop_one_spans(p.field, p.translation_rows(), p.den)
        monkeypatch.undo()
        shifts = pair_translations(p)
        assert spans == [integer_span(shifts[:j] + shifts[j + 1 :]).basis for j in range(p.m)]
        return spans, integer_span(shifts), calls

    def test_every_span_is_the_full_span(self, monkeypatch):
        # the prefix t1..t3 and the suffix t4..t6 already span all six,
        # so no span takes a form of its own
        spans, full, calls = self.spans(random_zonotope(random.Random(3), m=6), monkeypatch)
        assert full.verdict == LATTICE
        assert spans == [full.basis] * 6
        assert calls == [6, 2, 3, 2, 3]

    def test_octagon_spans_are_all_recomputed(self, monkeypatch):
        # the relations 2t1 - 2t3 + 3t4 = 0 and 3t2 - 4t3 + 3t4 = 0 make
        # every span a strict sublattice, of index 2, 3, 2, 3 in Z^2: the
        # first and the last are the suffix and the prefix form, and each
        # inner one takes the form of its prefix and suffix together
        spans, full, calls = self.spans(octagon(), monkeypatch)
        assert full.basis == Z2()
        assert [covolume(s).rational_value() for s in spans] == [2, 3, 2, 3]
        assert calls == [4, 2, 3, 2, 3, 3, 3]

    def test_rank_three_leaves_one_lattice(self, monkeypatch):
        # the one relation 3t2 - 4t3 + 3t4 = 0 leaves t_1 outside the
        # rational span of the others, so only the drop-first span has
        # rank 2
        spans, full, calls = self.spans(det_ratio_failure_zonotope(), monkeypatch)
        assert full.q_rank == 3
        assert spans[0] == PlaneLattice(V(1, 0, F2), V(0, 2, F2))
        assert spans[1:] == [None] * 3
        assert calls == [4, 2, 3, 2, 3, 3, 3]

    def test_matches_row_span_on_seeded_zonotopes(self):
        # pair translations over Q, over Q(sqrt2) and Q(sqrt2, sqrt3) with
        # one generator scaled by sqrt2 or with sparse irrational
        # generators, and small integer combinations of their first r
        # rows, the r-th only in the first combination so that dropping it
        # can lower the rank: the full spans reach every rank from 1 to
        # beyond 3
        rng = random.Random(39)
        ranks, kinds = set(), set()
        pool = [Fraction(n, 2) for n in range(-8, 9)]
        for _ in range(150):
            field, m = rng.choice([Q, F2, F23]), rng.randint(3, 24)
            if field is Q or rng.random() < 0.6:
                p = random_zonotope(rng, field, m, pool)
                if field is not Q:
                    gens, k = list(p.generators), rng.randrange(m)
                    gens[k] = gens[k].scale(field.sqrt(2))
                    p = Zonotope(gens)
            else:
                p = random_irrational_zonotope(rng, field, min(m, 8))
            shifts = p.translation_rows()
            r = rng.randint(1, 3)
            cs = [[rng.randint(-2, 2) for _ in range(r - (j > 0))] + [0] * (j > 0) for j in range(m)]
            mixed = [[sum(c * row[i] for c, row in zip(cj, shifts)) for i in range(len(shifts[0]))] for cj in cs]
            for rows in (shifts, mixed):
                spans = drop_one_spans(p.field, rows, p.den)
                assert spans == [row_span(p.field, rows[:j] + rows[j + 1 :], p.den).basis
                                 for j in range(len(rows))]
                rank = len(row_hnf(rows))
                ranks.add(min(rank, 4))
                full = row_span(p.field, rows, p.den).basis
                kinds.update((min(rank, 4), "none" if s is None else "full" if s == full else "own") for s in spans)
        assert {1, 2, 3, 4} <= ranks
        assert {(2, "full"), (2, "own"), (3, "own"), (3, "none"), (4, "none")} <= kinds

    def test_decide_and_canon_take_narrow_forms_linear_in_m(self, monkeypatch):
        # 2,048 generators (x, 1): every form has the rows' width, each
        # after the one of all m translations has at most 7 rows, and there
        # are O(m) of them; every drop-one span is the span of all
        # translations, so canon intersects nothing
        p = Zonotope([V(x, 1) for x in range(1024, -1024, -1)])
        sizes = []

        def counted(rows):  # the rows of each form the lattice layer takes
            sizes.append((len(rows), len(rows[0])))
            return row_hnf(rows)

        monkeypatch.setattr(zonotile.lattice, "row_hnf", counted)
        dec = decide_multitiling(p)
        canon = canonical_lattice(dec)
        monkeypatch.undo()
        assert all(width == 2 for _, width in sizes)
        assert sizes[0][0] == p.m and all(rows <= 7 for rows, _ in sizes[1:])
        assert len(sizes) <= 3 * p.m
        assert dec.multi_tiles and [j0 for j0, _ in dec.drop_one_spans] == list(range(1, p.m + 1))
        assert canon.lattice == integer_span(pair_translations(p)).basis


class TestNoFieldArithmetic:
    def test_decide_and_canon_do_no_field_arithmetic(self, monkeypatch):
        # the lattice octagon under (x, y) -> (x + sqrt2 y, sqrt3 y): its
        # witness is a strict superlattice of the drop-first span
        r2, r3 = F23.sqrt(2), F23.sqrt(3)
        p = Zonotope([PlaneVector(v.x + r2 * v.y, r3 * v.y)
                      for v in (V(1, 0, F23), V(1, 1, F23), V(0, 1, F23), V(-1, 1, F23))])
        calls = []
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "inverse"):
            def counting(self, *args, _name=name, _op=getattr(FieldElement, name)):
                calls.append(_name)
                return _op(self, *args)

            monkeypatch.setattr(FieldElement, name, counting)
        dec = decide_multitiling(p)
        canon = canonical_lattice(dec)
        monkeypatch.undo()
        assert calls == []
        assert dec.multi_tiles and dec.branch == "even"
        assert dec.witness_lattice != dict(dec.drop_one_spans)[dec.j0]
        assert canon.lattice == reduce(intersect, [lat for _, lat in dec.drop_one_spans])


def rand_matrix(rng):
    while True:
        a = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        b = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        if a[0] * b[1] - a[1] * b[0] != 0:
            return a, b


def apply_map(row1, row2, v):
    return V(
        row1[0] * v.x.rational_value() + row1[1] * v.y.rational_value(),
        row2[0] * v.x.rational_value() + row2[1] * v.y.rational_value(),
    )


class TestCanonicalLattice:
    def test_octagon_is_6z_by_6z(self):
        result = canonical_lattice(decide_multitiling(octagon()))
        assert result.lattice == PlaneLattice(V(6, 0), V(0, 6))
        assert result.source == "intersection"
        assert result.contributing_j == (1, 2, 3, 4)

    def test_octagon_cross_checked_by_window_enumeration(self):
        # a point of [-6,6]^2 is in the canonical lattice iff it is in all
        # four drop-one spans
        shifts = pair_translations(octagon())
        spans = [
            integer_span([t for j, t in enumerate(shifts, start=1) if j != j0]).basis
            for j0 in range(1, 5)
        ]
        result = canonical_lattice(decide_multitiling(octagon())).lattice
        for x in range(-6, 7):
            for y in range(-6, 7):
                p = V(x, y)
                assert (integer_coords(result, p) is not None) == all(integer_coords(s, p) is not None for s in spans)

    def test_hexagon_full_span(self):
        result = canonical_lattice(decide_multitiling(hexagon()))
        assert result.lattice == PlaneLattice(V(1, 1), V(0, 3))
        assert result.source == "pair-span"
        assert result.contributing_j == ()

    def test_parallelogram_rejected(self):
        with pytest.raises(GeometryError):
            canonical_lattice(decide_multitiling(square()))

    def test_non_multi_tiler_rejected(self):
        rng = random.Random(89)
        z = independent_generators(rng, 5)
        with pytest.raises(GeometryError):
            canonical_lattice(decide_multitiling(z))

    def test_meets_every_witness_in_full_rank(self):
        rng = random.Random(97)
        for _ in range(30):
            z = random_zonotope(rng)
            if z.is_parallelogram():
                continue
            dec = decide_multitiling(z)
            lp = canonical_lattice(decide_multitiling(z))
            met = intersect(lp.lattice, dec.witness_lattice)
            assert not covolume(met).is_zero()


class TestPassingLatticesAreCommensurable:
    """The paper's last theorem on finite unions.  If lattices L and L'
    both multi-tile P, then L and L' + z together cover the plane a
    constant number of times for every z; a convex polygon that is not a
    parallelogram multi-tiles only periodically, so for such a P every two
    lattices that pass Bolle's test must be commensurable."""

    def test_every_two_passing_lattices_intersect(self):
        # the witness of seeded accepted zonotopes with 3 to 5 generators
        # over Q, Q(sqrt2) and Q(sqrt2, sqrt3), and its index-2 sub- and
        # superlattices that pass
        rng = random.Random(22)
        passing_variants, pairs = {Q: 0, F2: 0, F23: 0}, 0
        for field in (Q, F2, F23):
            accepted = 0
            while accepted < 20:
                m = rng.randint(3, 5)
                z = random_zonotope(rng, Q, m) if field is Q else random_irrational_zonotope(rng, field, m)
                dec = decide_multitiling(z)
                if not dec.multi_tiles:
                    continue
                accepted += 1
                witness = dec.witness_lattice
                b1, b2 = witness.basis()
                variants = [(b1, b2.scale(2)), (b1.scale(2), b2), (b1 + b2, b2.scale(2)),
                            (b1.scale(H), b2), (b1, b2.scale(H)), ((b1 + b2).scale(H), b2)]
                passing = [witness] + [lat for lat in (PlaneLattice(u, v) for u, v in variants)
                                       if bolle_check(z, lat).verdict]
                passing_variants[field] += len(passing) - 1
                for lat, other in combinations(passing, 2):
                    met = intersect(lat, other)
                    assert all(integer_coords(l, v) is not None for l in (lat, other) for v in met.basis())
                    pairs += 1
        # every index-2 sublattice passes, so each field has at least 60
        assert min(passing_variants.values()) >= 60 and pairs >= 360

    def test_the_parallelogram_needs_no_common_period(self):
        # the unit square over Q(sqrt2) multi-tiles once with Z^2 and with
        # Z(1, 0) + Z(sqrt2, 1), which have no common full-rank sublattice
        z = Zonotope([V(1, 0, F2), V(0, 1, F2)])
        lattices = [PlaneLattice(V(1, 0, F2), V(0, 1, F2)), PlaneLattice(V(1, 0, F2), V(F2.sqrt(2), 1, F2))]
        assert [(r.verdict, r.multiplicity) for r in (bolle_check(z, lat) for lat in lattices)] == [(True, 1)] * 2
        with pytest.raises(IncommensurableError):
            intersect(*lattices)


class TestLatticeMultiplicity:
    def test_octagon_z2_single(self):
        assert lattice_multiplicity(octagon(), Z2(), 1) == 7

    def test_octagon_zx2z_two_translates(self):
        assert lattice_multiplicity(octagon(), PlaneLattice(V(1, 0), V(0, 2)), 2) == 7

    def test_square_z2(self):
        assert lattice_multiplicity(square(), Z2(), 1) == 1

    def test_single_translate_requires_criterion(self):
        with pytest.raises(GeometryError):
            lattice_multiplicity(octagon(), PlaneLattice(V(1, 0), V(0, 2)), 1)

    def test_fractional_multiplicity_rejected(self):
        # 2 * area 7 / det 4 = 7/2
        with pytest.raises(AccountingError, match="7/2"):
            lattice_multiplicity(octagon(), PlaneLattice(V(2, 0), V(0, 2)), 2)

    def test_irrational_ratio_rejected(self):
        octagon_r2 = Zonotope([V(1, 0, F2), V(1, 1, F2), V(0, 1, F2), V(-1, 1, F2)])
        lat = PlaneLattice(V(1, 0, F2), V(0, F2.sqrt(2), F2))
        assert covolume(lat) == F2.sqrt(2)
        with pytest.raises(AccountingError, match="irrational"):
            lattice_multiplicity(octagon_r2, lat, 2)


def _field_coords(lat, v):
    """Integer lattice coordinates of v by field division, or None."""
    coords = [c.rational_value() for c in lattice_coords(lat, v)]
    if any(c is None or c.denominator != 1 for c in coords):
        return None
    return tuple(c.numerator for c in coords)


def _field_bolle(p, lat):
    """Bolle's test on field elements: membership, the plane determinant
    det(e, t) divided by det(L), ``rational_value`` and ``Zonotope.area()``."""
    pairs = []
    for j, (e, t) in enumerate(zip(p.generators, pair_translations(p)), start=1):
        ec = _field_coords(lat, e)
        cond2 = False
        if ec is not None:
            d = (e.cross(t) / covolume(lat)).rational_value()
            cond2 = d is not None and d.denominator == 1 and d.numerator % gcd(*ec) == 0
        pairs.append(BollePair(j, integer_coords(lat, t) is not None, cond2))
    verdict = all(pr.cond1 or pr.cond2 for pr in pairs)
    multiplicity = None
    if verdict:
        ratio = (p.area() / covolume(lat)).rational_value()
        assert ratio is not None and ratio.denominator == 1 and ratio > 0
        multiplicity = ratio.numerator
    return BolleReport(tuple(pairs), verdict, multiplicity)


def _bolle_agreement(p):
    """Decide p, check the verdict against the rational rank of its pair
    translations, and compare ``bolle_check`` with the field oracle on the
    witness and on the drop-one spans, each with its index-2 and index-3
    sub- and superlattices.  Each drop-one span must be the integer span of
    its m - 1 translations.  Returns the reports."""
    dec = decide_multitiling(p)
    shifts = pair_translations(p)
    if p.m == 2:
        assert dec.multi_tiles
    elif p.m % 2:
        assert dec.multi_tiles == (rational_rank(shifts) == 2)
    else:
        lattices = [j0 for j0 in range(1, p.m + 1) if rational_rank(shifts[: j0 - 1] + shifts[j0:]) == 2]
        assert [j0 for j0, _ in dec.drop_one_spans] == lattices
        for j0, lat in dec.drop_one_spans:
            assert lat == integer_span(shifts[: j0 - 1] + shifts[j0:]).basis
        assert dec.multi_tiles or dec.failure_reason == (DET_RATIO_IRRATIONAL if lattices else SPAN_NOT_DISCRETE)
    base = [dec.witness_lattice] if dec.multi_tiles else []
    base += [lat for _, lat in dec.drop_one_spans[:2]]
    if not base:
        base = [PlaneLattice(V(1, 0, p.field), V(0, 1, p.field))]
    reports = []
    for lat in base:
        b1, b2 = lat.basis()
        for variant in (lat, PlaneLattice(b1.scale(2), b2), PlaneLattice(b1, b2.scale(3)),
                        PlaneLattice(b1.scale(H), b2), PlaneLattice(b1, b2.scale(Fraction(1, 3)))):
            report = bolle_check(p, variant)
            assert report == _field_bolle(p, variant)
            reports.append(report)
    return reports


def _element(draw, field):
    coeffs = {0: draw(st.sampled_from([Fraction(n, 2) for n in range(-4, 5)]))}
    for mask in range(1, field.size):
        coeffs[mask] = draw(st.sampled_from([0, 0, 0, 1, -1]))
    return field.element(coeffs)


@st.composite
def zonotopes(draw):
    """Zonotopes with m = 2..8 over Q, Q(sqrt2) and Q(sqrt2, sqrt3), with
    half-integer rational parts and sparse irrational parts."""
    field = draw(st.sampled_from([Q, F2, F23]))
    m = draw(st.integers(2, 8))
    gens = []
    for _ in range(4 * m):
        v = PlaneVector(_element(draw, field), _element(draw, field))
        if v.is_zero():
            continue
        v = upper_half(v)
        if any(g.cross(v).is_zero() for g in gens):
            continue
        gens.append(v)
        if len(gens) == m:
            break
    assume(len(gens) == m)
    return Zonotope(sort_by_argument(gens))


class TestIntegerRowsAgainstFieldOracle:
    @settings(max_examples=120, deadline=None)
    @given(zonotopes())
    def test_bolle_check_matches_the_field_oracle(self, p):
        _bolle_agreement(p)

    def test_both_conditions_come_out_both_ways(self):
        det_ratio_irrational = Zonotope([V(1, 0, F2), V(2, 2, F2), PlaneVector(F2.zero(), 2 + F2.sqrt(2)),
                                         V(-1, 2, F2)])
        reports = []
        for p in (octagon(), hexagon(), square(), random_zonotope(random.Random(12), m=12), det_ratio_irrational):
            reports += _bolle_agreement(p)
        pairs = [pr for report in reports for pr in report.pairs]
        assert {pr.cond1 for pr in pairs} == {pr.cond2 for pr in pairs} == {True, False}
        assert {report.verdict for report in reports} == {True, False}


def _pair_oracle(p, lat):
    """Bolle's test pair by pair on vectors: ``integer_coords`` of each
    translation, ``line_meets_lattice`` of each edge and its translation,
    and area / det by field division."""
    pairs = tuple(
        BollePair(j, integer_coords(lat, t) is not None, line_meets_lattice(lat, e, t))
        for j, (e, t) in enumerate(zip(p.generators, pair_translations(p)), start=1)
    )
    verdict = all(pr.cond1 or pr.cond2 for pr in pairs)
    multiplicity = abs(p.area() / covolume(lat)).rational_value().numerator if verdict else None
    return BolleReport(pairs, verdict, multiplicity)


def _lattice_generator_cases(seed=89, per_field=40):
    """Random lattices over Q, Q(sqrt2) and Q(sqrt2, sqrt3) with zonotopes
    whose generators are small half-integer combinations of the basis.  Over
    the irrational fields some generator is moved off the lattice's rational
    span by sqrt2 times another generator or by a random vector, so some
    translations have no rational lattice coordinates."""
    rng = random.Random(seed)
    steps = [Fraction(n, 2) for n in range(-4, 5)] + [-1, 1, 1, 2]
    for field in (Q, F2, F23):
        done = 0
        while done < per_field:
            try:
                lat = PlaneLattice(*(V(rand_element(rng, field), rand_element(rng, field), field) for _ in range(2)))
                b1, b2 = lat.basis()
                gens = [b1.scale(rng.choice(steps)) + b2.scale(rng.choice(steps)) for _ in range(rng.randint(2, 6))]
                if field.size > 1 and rng.random() < 0.7:
                    i, j = rng.sample(range(len(gens)), 2)
                    w = gens[j].scale(field.sqrt(2)) if rng.random() < 0.6 else V(rand_element(rng, field), 0, field)
                    gens[i] = gens[i] + w
                if any(g.is_zero() for g in gens):
                    continue
                p = Zonotope(sort_by_argument([upper_half(g) for g in gens]))
            except GeometryError:
                continue
            done += 1
            yield p, lat


class TestBollePairOracle:
    def test_bolle_check_matches_the_pair_oracle(self):
        outside = set()  # cond2 of the pairs whose edge is a lattice point and translation is off the span
        verdicts = set()
        for p, lat in _lattice_generator_cases():
            report = bolle_check(p, lat)
            assert report == _pair_oracle(p, lat)
            verdicts.add(report.verdict)
            for pr, e, t in zip(report.pairs, p.generators, pair_translations(p)):
                if integer_coords(lat, e) is not None and any(c.rational_value() is None for c in lattice_coords(lat, t)):
                    outside.add(pr.cond2)
        assert verdicts == {True, False}
        assert outside == {True, False}

    def test_rational_bolle_check_makes_no_proportion_call(self, monkeypatch):
        # every vector of a rational zonotope has lattice coordinates, so
        # neither the edge-line test nor the multiplicity tests numerators
        p = random_zonotope(random.Random(8), m=8)
        lat = decide_multitiling(p).witness_lattice
        b1, b2 = lat.basis()
        lattices = [lat, PlaneLattice(b1.scale(2), b2), PlaneLattice(b1, b2.scale(H))]
        calls = []

        def counting(a, b, _proportion=zonotile.lattice.proportion):
            calls.append(1)
            return _proportion(a, b)

        monkeypatch.setattr(zonotile.lattice, "proportion", counting)
        reports = [bolle_check(p, l) for l in lattices]
        monkeypatch.undo()
        assert calls == []
        assert reports == [_pair_oracle(p, l) for l in lattices]
        assert [r.verdict for r in reports] == [True, False, True]
