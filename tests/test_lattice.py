"""Plane lattices: spans, membership, intersections, coset avoidance, and
the Diophantine reduction of the edge-line condition."""

import random
from fractions import Fraction
from math import lcm

import pytest

from zonotile import (
    Field,
    FieldElement,
    FieldError,
    GeometryError,
    IncommensurableError,
    LATTICE,
    NOT_DISCRETE,
    PlaneLattice,
    PlaneVector,
    RANK_DEFICIENT,
    RationalityError,
    covolume,
    integer_coords,
    integer_span,
    intersect,
    lattice_coords,
    line_meets_lattice,
    pair_translations,
    rational_rank,
    sublattice_avoiding_coset,
    superlattice_meeting_line,
)
from zonotile import intlinalg, lattice
from zonotile.intlinalg import row_hnf
from zonotile.lattice import lowest_rows
from zonotile.oracles import right_kernel

from conftest import (
    F2, F23, Q, V, flatten_vector, rand_element, rand_fraction, random_irrational_zonotope, random_zonotope, sympy_rank,
)

H = Fraction(1, 2)


def Z2():
    return PlaneLattice(V(1, 0), V(0, 1))


class TestPlaneVector:
    def test_equal_values_are_equal_and_hash_equal(self):
        r2 = F2.sqrt(2)
        for field, x, y in ((Q, H, -3), (F2, 1 + r2 / 3, H * r2), (F23, F23.sqrt(6) - H, F23.zero())):
            built = lattice.vector(field, x, y)
            (from_rows,) = lattice.vectors_from_rows(field, *lattice.integer_rows([built]))
            assert built == from_rows and hash(built) == hash(from_rows)
            assert built != lattice.vector(field, x, 1) and built != PlaneVector(built.y, built.x)

    def test_is_not_a_tuple(self):
        v = V(1, 2)
        assert v != (v.x, v.y) and (v.x, v.y) != v
        assert not isinstance(v, tuple)

    def test_operators(self):
        r2 = F2.sqrt(2)
        u, v = V(1 + r2, H, F2), V(-3, r2 / 5, F2)
        assert u + v == PlaneVector(u.x + v.x, u.y + v.y) == V(r2 - 2, H + r2 / 5, F2)
        assert u - v == PlaneVector(u.x - v.x, u.y - v.y) == V(4 + r2, H - r2 / 5, F2)
        assert -u == PlaneVector(-u.x, -u.y) == V(-1 - r2, -H, F2)
        assert u.scale(r2) == V(r2 + 2, r2 / 2, F2)
        assert u.scale(Fraction(2, 3)) == V((2 + 2 * r2) / 3, Fraction(1, 3), F2)


class TestRationalRank:
    def test_rational_combination_collapses(self):
        assert rational_rank([V(1, 0), V(0, 1), V(H, H)]) == 2

    def test_one_and_sqrt2_are_independent(self):
        vs = [V(1, 0, F2), V(F2.sqrt(2), 0, F2)]
        assert rational_rank(vs) == 2

    def test_three_vectors_with_irrational_third(self):
        vs = [V(1, 0, F23), V(0, 1, F23), V(F23.sqrt(2), F23.sqrt(3), F23)]
        assert rational_rank(vs) == 3

    def test_matches_sympy_on_random_inputs(self):
        rng = random.Random(31)
        from conftest import rand_element

        for _ in range(60):
            vs = []
            for _ in range(rng.randint(1, 5)):
                vs.append(
                    V(rand_element(rng, F23, density=0.4), rand_element(rng, F23, density=0.4), F23)
                )
            assert rational_rank(vs) == sympy_rank(vs)


class TestIntegerSpan:
    def test_half_integer_superlattice(self):
        analysis = integer_span([V(1, 0), V(0, 1), V(H, H)])
        assert analysis.verdict == LATTICE
        lat = analysis.basis
        assert covolume(lat) == H
        # every integer combination of the inputs is in the lattice
        inputs = [V(1, 0), V(0, 1), V(H, H)]
        rng = random.Random(2)
        for _ in range(100):
            c = [rng.randint(-4, 4) for _ in inputs]
            p = V(0, 0)
            for ci, vi in zip(c, inputs):
                p = p + vi.scale(ci)
            assert integer_coords(lat, p) is not None
        # index-2 superlattice of Z^2
        assert integer_coords(lat, V(1, 0)) is not None and integer_coords(lat, V(0, 1)) is not None
        assert (covolume(Z2()) / covolume(lat)).rational_value() == 2

    def test_sqrt2_direction_is_not_discrete(self):
        analysis = integer_span([V(1, 0, F2), V(F2.sqrt(2), 0, F2), V(0, 1, F2)])
        assert analysis.verdict == NOT_DISCRETE
        assert analysis.q_rank == 3

    def test_irrational_rectangle_is_a_lattice(self):
        analysis = integer_span([V(F23.sqrt(2), 0, F23), V(0, F23.sqrt(3), F23)])
        assert analysis.verdict == LATTICE
        assert covolume(analysis.basis) == F23.sqrt(6)

    def test_collinear_inputs_are_rank_deficient(self):
        assert integer_span([V(1, 0), V(3, 0)]).verdict == RANK_DEFICIENT
        assert integer_span([V(2, 1)]).verdict == RANK_DEFICIENT
        a = integer_span([V(1, 0, F2), V(F2.sqrt(2), 0, F2)])
        assert a.verdict == RANK_DEFICIENT and a.q_rank == 2

    def test_two_input_span_is_exactly_the_combination_set(self):
        # complete check for n = 2: solve the 2x2 system in the test itself
        rng = random.Random(41)
        done = 0
        while done < 60:
            v1 = V(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
            v2 = V(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
            if v1.cross(v2).is_zero():
                continue
            lat = integer_span([v1, v2]).basis
            det = (v1.x * v2.y - v1.y * v2.x).rational_value()
            for a in range(-15, 16):
                for b in range(-15, 16):
                    p = lat.point(a, b)
                    if abs(p.x) <= 2 and abs(p.y) <= 2:
                        c1 = (p.x * v2.y - p.y * v2.x).rational_value() / det
                        c2 = (v1.x * p.y - v1.y * p.x).rational_value() / det
                        assert c1.denominator == 1 and c2.denominator == 1
            for c1 in range(-8, 9):
                for c2 in range(-8, 9):
                    assert integer_coords(lat, v1.scale(c1) + v2.scale(c2)) is not None
            done += 1

    def test_basis_vectors_are_integer_combinations_of_inputs(self):
        # independent oracle: sympy's Hermite normal form decides whether the
        # basis coordinates lie in the integer row span of the input coordinates
        from sympy import Matrix
        from sympy.matrices.normalforms import hermite_normal_form

        def pair_coords(v, va, vb):
            det = (va.x * vb.y - va.y * vb.x).rational_value()
            c1 = (v.x * vb.y - v.y * vb.x).rational_value() / det
            c2 = (va.x * v.y - va.y * v.x).rational_value() / det
            return c1, c2

        def in_integer_row_span(rows, target):
            h = hermite_normal_form(Matrix(rows).T)
            cols = [tuple(h.col(j)) for j in range(h.cols)]
            if len(cols) == 1:
                (x0, y0), (tx, ty) = cols[0], target
                if x0 == y0 == 0:
                    return tx == ty == 0
                if y0 == 0:
                    return ty == 0 and tx % x0 == 0
                if ty % y0:
                    return False
                return tx - ty // y0 * x0 == 0
            (a, c), (b, d) = cols  # upper triangular: c == 0 is not guaranteed; solve generally
            det = a * d - b * c
            assert det != 0
            n1 = target[0] * d - target[1] * b
            n2 = a * target[1] - c * target[0]
            return n1 % det == 0 and n2 % det == 0

        rng = random.Random(67)
        done = 0
        while done < 60:
            inputs = [
                V(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
                for _ in range(rng.randint(2, 4))
            ]
            analysis = integer_span(inputs)
            if analysis.verdict != LATTICE:
                continue
            lat = analysis.basis
            # forward: inputs and their combinations live in the lattice
            for v in inputs:
                assert integer_coords(lat, v) is not None
            # pick a q-independent input pair to coordinatize
            va = next(v for v in inputs if not v.is_zero())
            vb = next(v for v in inputs if not va.cross(v).is_zero())
            all_coords = [pair_coords(v, va, vb) for v in inputs]
            basis_coords = [pair_coords(u, va, vb) for u in lat.basis()]
            den = lcm(*(q.denominator for pair in all_coords + basis_coords for q in pair))
            rows = [[int(c1 * den), int(c2 * den)] for c1, c2 in all_coords]
            for c1, c2 in basis_coords:
                assert in_integer_row_span(rows, (int(c1 * den), int(c2 * den)))
            done += 1

    def test_quadratic_spans_match_pair_coordinates_construction(self):
        # the earlier construction, kept here as an oracle: Q-elimination
        # picks an independent input pair, every input gets its rational
        # coordinates in that pair, and the Hermite form of those
        # coordinates gives the basis
        def pair_coordinates_span(vs):
            pivots, sources = [], []
            for idx, v in enumerate(vs):
                row = flatten_vector(v)
                for pc, b in pivots:
                    if row[pc]:
                        f = row[pc] / b[pc]
                        row = [r - f * c for r, c in zip(row, b)]
                pc = next((c for c, val in enumerate(row) if val), None)
                if pc is not None:
                    pivots.append((pc, row))
                    sources.append(idx)
            if len(pivots) != 2:
                return len(pivots), NOT_DISCRETE if len(pivots) > 2 else RANK_DEFICIENT, None
            va, vb = vs[sources[0]], vs[sources[1]]
            if va.cross(vb).is_zero():
                return 2, RANK_DEFICIENT, None
            fa, fb = flatten_vector(va), flatten_vector(vb)
            j1 = next(c for c, val in enumerate(fa) if val)
            fb2 = [fb[c] - fb[j1] / fa[j1] * fa[c] for c in range(len(fa))]
            j2 = next(c for c, val in enumerate(fb2) if val)
            coords = []
            for v in vs:
                fv = flatten_vector(v)
                beta = (fv[j2] - fv[j1] / fa[j1] * fa[j2]) / fb2[j2]
                alpha = (fv[j1] - beta * fb[j1]) / fa[j1]
                assert [alpha * a + beta * b for a, b in zip(fa, fb)] == fv
                coords.append((alpha, beta))
            den = lcm(*(q.denominator for pair in coords for q in pair))
            h = row_hnf([[int(a * den), int(b * den)] for a, b in coords])
            u1 = va.scale(Fraction(h[0][0], den)) + vb.scale(Fraction(h[0][1], den))
            u2 = va.scale(Fraction(h[1][0], den)) + vb.scale(Fraction(h[1][1], den))
            return 2, LATTICE, PlaneLattice(u1, u2)

        def rand_vector():
            return V(rand_element(rng, F23), rand_element(rng, F23), F23)

        rng = random.Random(53)
        verdicts = set()
        for trial in range(120):
            v1, v2 = rand_vector(), rand_vector()
            if trial % 4 == 3:
                v2 = v1.scale(F23.sqrt(2) + rng.randint(-2, 2))  # real-collinear pair
            inputs = [
                v1.scale(Fraction(rng.randint(-4, 4), rng.choice([1, 2])))
                + v2.scale(Fraction(rng.randint(-4, 4), rng.choice([1, 2])))
                for _ in range(rng.randint(1, 4))
            ]
            if trial % 3 == 2:
                inputs.append(rand_vector())
            analysis = integer_span(inputs)
            q_rank, verdict, lat = pair_coordinates_span(inputs)
            assert analysis.q_rank == q_rank == sympy_rank(inputs)
            assert analysis.verdict == verdict
            verdicts.add(verdict)
            if verdict != LATTICE:
                assert analysis.basis is None
                continue
            assert [flatten_vector(b) for b in analysis.basis.basis()] == [
                flatten_vector(b) for b in lat.basis()
            ]
            assert all(integer_coords(analysis.basis, v) is not None for v in inputs)
        assert verdicts == {LATTICE, NOT_DISCRETE, RANK_DEFICIENT}


class TestLowestRows:
    def test_divides_by_the_common_gcd(self):
        assert lowest_rows(((4, -6), (10, 0)), 8) == (((2, -3), (5, 0)), 4)
        assert lowest_rows([[0, 0], [0, 6]], 6) == (((0, 0), (0, 1)), 1)

    def test_rows_in_lowest_terms_are_returned_as_they_are(self):
        rows = ((4, -6), (10, 0))
        got, den = lowest_rows(rows, 3)
        assert got is rows and den == 3


class TestCanonicalForm:
    def test_equal_lattices_have_equal_bases(self):
        l1 = PlaneLattice(V(1, 0), V(0, 1))
        l2 = PlaneLattice(V(1, 1), V(0, 1))
        l3 = PlaneLattice(V(2, 1), V(1, 1))
        assert l1 == l2 == l3
        assert l1.basis() == l2.basis() == l3.basis()

    def test_point_sets_agree_after_canonicalization(self):
        rng = random.Random(43)
        for _ in range(80):
            b1 = V(rng.randint(-4, 4), rng.randint(-4, 4))
            b2 = V(rng.randint(-4, 4), rng.randint(-4, 4))
            if b1.cross(b2).is_zero():
                continue
            lat = PlaneLattice(b1, b2)
            assert integer_coords(lat, b1) is not None and integer_coords(lat, b2) is not None
            assert covolume(lat) == abs(b1.cross(b2))
            # unimodular change of basis gives the same object
            lat2 = PlaneLattice(b1 + b2, b2)
            assert lat == lat2

    def test_degenerate_basis_rejected(self):
        with pytest.raises(GeometryError):
            PlaneLattice(V(1, 1), V(2, 2))


class TestMembership:
    def test_examples(self):
        zx2z = PlaneLattice(V(1, 0), V(0, 2))
        assert integer_coords(zx2z, V(2, 4)) is not None
        assert integer_coords(zx2z, V(1, 1)) is None
        half = PlaneLattice(V(H, H), V(0, 1))
        assert integer_coords(half, V(H, H)) is not None

    def test_dets(self):
        assert covolume(Z2()) == 1
        assert covolume(PlaneLattice(V(1, 0), V(0, 2))) == 2
        assert covolume(PlaneLattice(V(F23.sqrt(2), 0, F23), V(0, F23.sqrt(3), F23))) == F23.sqrt(6)


def field_integer_coords(lat, v):
    """The field-coordinate construction: solve v's coordinates in the
    canonical basis by cross products over det, then read them as rationals."""
    q1, q2 = (c.rational_value() for c in lattice_coords(lat, v))
    if q1 is None or q2 is None or q1.denominator != 1 or q2.denominator != 1:
        return None
    return (q1.numerator, q2.numerator)


def hermite_membership_cases(seed=59, per_field=25):
    """Random lattices over Q, Q(sqrt2) and Q(sqrt2, sqrt3), each with
    members, rational non-members (points of the half and third lattices)
    and vectors with irrational lattice coordinates (over Q there are none;
    random vectors stand in)."""
    rng = random.Random(seed)

    def rand_vector(field):
        return V(rand_element(rng, field), rand_element(rng, field), field)

    for field in (Q, F2, F23):
        done = 0
        while done < per_field:
            try:
                lat = PlaneLattice(rand_vector(field), rand_vector(field))
            except GeometryError:
                continue
            done += 1
            members = [lat.point(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4)]
            members.append(lat.point(0, 0))
            c1, c2 = lat.basis()
            non_members = [
                c1.scale(Fraction(rng.randint(-9, 9), d)) + c2.scale(Fraction(rng.randint(-9, 9), d))
                for d in (2, 3)
                for _ in range(3)
            ]
            irrational = [rand_vector(field) for _ in range(3)]
            if field.size > 1:
                r = field.sqrt(2)
                irrational += [c1.scale(r), lat.point(1, 2) + c2.scale(r * Fraction(1, 2))]
            yield lat, members, non_members, irrational


class TestHermiteMembership:
    def test_matches_field_coordinates(self):
        kinds = {"member": 0, "rational": 0, "irrational": 0}
        for lat, members, non_members, irrational in hermite_membership_cases():
            for kind, vs in (("member", members), ("rational", non_members), ("irrational", irrational)):
                for v in vs:
                    expected = field_integer_coords(lat, v)
                    assert integer_coords(lat, v) == expected
                    if kind == "member":
                        assert expected is not None and lat.point(*expected) == v
                    kinds[kind] += expected is None
        # counts of non-members by kind: the oracle saw both kinds of miss
        assert kinds["member"] == 0 and kinds["rational"] > 0 and kinds["irrational"] > 0

    def test_span_coords_match_field_coordinates(self):
        """span_coords over k are the field coordinates, for rows over any
        common denominator, and None exactly when one is irrational."""
        outside = inside = 0
        for lat, members, non_members, irrational in hermite_membership_cases():
            vs = members + non_members + irrational
            rows, den = lattice.integer_rows(vs)
            for scale in (1, 6):
                coords, k = lat.span_coords([[scale * n for n in row] for row in rows], scale * den)
                for v, c in zip(vs, coords):
                    q = tuple(x.rational_value() for x in lattice_coords(lat, v))
                    if None in q:
                        assert c is None
                        outside += 1
                    else:
                        assert c is not None and (Fraction(c[0], k), Fraction(c[1], k)) == q
                        inside += 1
        assert outside and inside

    def test_vector_over_another_field_refused(self):
        lat = PlaneLattice(V(1, 0, F2), V(0, 1, F2))
        for v in [V(1, 0, F23), V(1, 0), PlaneVector(F2.one(), F23.one())]:
            with pytest.raises(FieldError):
                integer_coords(lat, v)

    def test_span_basis_equals_lattice_from_the_same_rows(self):
        rng = random.Random(61)
        seen = 0
        for field in (Q, F2, F23):
            for _ in range(30):
                v1 = V(rand_element(rng, field), rand_element(rng, field), field)
                v2 = V(rand_element(rng, field), rand_element(rng, field), field)
                vs = [v1, v2] + [
                    v1.scale(Fraction(rng.randint(-4, 4), 2)) + v2.scale(Fraction(rng.randint(-4, 4), 3))
                    for _ in range(rng.randint(0, 2))
                ]
                analysis = integer_span(vs)
                if analysis.verdict != LATTICE:
                    continue
                flat = [flatten_vector(v) for v in vs]
                den = lcm(*(c.denominator for row in flat for c in row))
                h = row_hnf([[int(c * den) for c in row] for row in flat])
                u1, u2 = (
                    V(
                        FieldElement(field, tuple(Fraction(n, den) for n in row[: field.size])),
                        FieldElement(field, tuple(Fraction(n, den) for n in row[field.size :])),
                        field,
                    )
                    for row in h
                )
                expected = PlaneLattice(u1, u2)
                assert analysis.basis == expected
                assert hash(analysis.basis) == hash(expected)
                assert covolume(analysis.basis) == covolume(expected)
                seen += 1
        assert seen > 40

    def test_span_takes_one_hermite_form(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(rows)
            return row_hnf(rows)

        monkeypatch.setattr(lattice, "row_hnf", counted)
        assert integer_span([V(1, 0), V(0, 1), V(H, H)]).verdict == LATTICE
        assert integer_span([V(F23.sqrt(2), 0, F23), V(0, F23.sqrt(3), F23)]).verdict == LATTICE
        assert len(calls) == 2

    def test_membership_makes_no_field_division(self, monkeypatch):
        calls = []
        truediv = FieldElement.__truediv__

        def counted(self, other):
            calls.append(other)
            return truediv(self, other)

        cases = list(hermite_membership_cases(per_field=8))
        monkeypatch.setattr(FieldElement, "__truediv__", counted)
        for lat, members, non_members, irrational in cases:
            for v in members + non_members + irrational:
                integer_coords(lat, v)
        assert calls == []


class TestReferenceViews:
    """The vector reference checks in ``oracles`` share no code with the
    row forms they are held to, and agree with them."""

    def test_pair_translations_match_the_row_recurrence(self):
        rng = random.Random(83)
        zs = [random_zonotope(rng, m=rng.choice([2, 3, 4, 5])) for _ in range(40)]
        for field in (F2, F23):
            zs += [random_irrational_zonotope(rng, field, rng.choice([2, 3, 4, 5])) for _ in range(40)]
        for z in zs:
            assert pair_translations(z) == lattice.vectors_from_rows(z.field, z.translation_rows(), z.den)

    def test_lattice_views_match_the_row_forms(self):
        rng = random.Random(89)
        for field in (Q, F2, F23):
            done = 0
            while done < 30:
                b1, b2 = (V(rand_element(rng, field), rand_element(rng, field), field) for _ in range(2))
                if b1.cross(b2).is_zero():
                    continue
                lat, done = PlaneLattice(b1, b2), done + 1
                c = covolume(lat)
                assert c.sign() > 0 and abs(lat.det_ratio(c.nums, c.den)) == 1
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                assert integer_coords(lat, lat.point(a, b)) == (a, b)
                # a point of the rational span, at rational lattice coordinates q
                q = (rand_fraction(rng), rand_fraction(rng))
                c1, c2 = lat.basis()
                v = c1.scale(q[0]) + c2.scale(q[1])
                (u,), k = lat.span_coords(*lattice.integer_rows([v]))
                assert (Fraction(u[0], k), Fraction(u[1], k)) == q
                assert tuple(x.rational_value() for x in lattice_coords(lat, v)) == q


class TestIntersect:
    def test_axis_aligned(self):
        out = intersect(PlaneLattice(V(2, 0), V(0, 1)), PlaneLattice(V(1, 0), V(0, 3)))
        assert out == PlaneLattice(V(2, 0), V(0, 3))

    def test_checkerboard_inside_z2(self):
        check = PlaneLattice(V(1, 1), V(1, -1))
        out = intersect(check, Z2())
        assert out == check
        assert covolume(out) == 2

    def test_superlattice_absorbs(self):
        out = intersect(Z2(), PlaneLattice(V(Fraction(1, 3), 0), V(0, 1)))
        assert out == Z2()

    def test_incommensurable_refused(self):
        irr = PlaneLattice(V(F2.sqrt(2), 0, F2), V(0, 1, F2))
        z2 = PlaneLattice(V(1, 0, F2), V(0, 1, F2))
        with pytest.raises(IncommensurableError):
            intersect(z2, irr)
        with pytest.raises(IncommensurableError):
            intersect(irr, z2)

    def test_self_intersection(self):
        rng = random.Random(61)
        for field in (Q, F2, F23):
            for _ in range(10):
                b1, b2 = (V(rand_element(rng, field), rand_element(rng, field), field) for _ in range(2))
                try:
                    l = PlaneLattice(b1, b2)
                except GeometryError:
                    continue
                assert intersect(l, l) == l

    def test_intersection_is_the_common_point_set(self):
        rng = random.Random(47)
        for _ in range(50):
            l1 = PlaneLattice(V(rng.randint(1, 3), rng.randint(0, 2)), V(0, rng.randint(1, 3)))
            l2 = PlaneLattice(V(rng.randint(1, 3), 0), V(rng.randint(0, 2), rng.randint(1, 3)))
            out = intersect(l1, l2)
            assert all(integer_coords(l, b) is not None for l in (l1, l2) for b in out.basis())
            for a in range(-6, 7):
                for b in range(-6, 7):
                    p = l1.point(a, b)
                    if abs(p.x) <= 6 and abs(p.y) <= 6 and integer_coords(l2, p) is not None:
                        assert integer_coords(out, p) is not None

    @staticmethod
    def coordinate_intersect(l1, l2):
        """The intersection through rational coordinates in l1: the kernel of
        [den*I | -M], M the coordinates of l2's basis over den, mapped by
        l1.point.  None where some coordinate is irrational."""
        coords = []
        for v in l2.basis():
            q1, q2 = (c.rational_value() for c in lattice_coords(l1, v))
            if q1 is None or q2 is None:
                return None
            coords.append((q1, q2))
        (m11, m21), (m12, m22) = coords
        den = lcm(*(q.denominator for q in (m11, m12, m21, m22)))
        rows = [[den, 0, -int(m11 * den), -int(m12 * den)], [0, den, -int(m21 * den), -int(m22 * den)]]
        kernel = right_kernel(rows)
        assert len(kernel) == 2
        return PlaneLattice(*(l1.point(a1, a2) for a1, a2, _, _ in kernel))

    def test_matches_coordinate_construction(self):
        rng = random.Random(53)

        def random_vector(field):
            return V(rand_element(rng, field), rand_element(rng, field), field)

        def rational_combination(l, field):
            a, b = rand_fraction(rng, 4, 3), rand_fraction(rng, 4, 3)
            b1, b2 = l.basis()
            return b1.scale(field.rational(a)) + b2.scale(field.rational(b))

        outcomes = {"both": [0, 0], "one": [0, 0], "none": [0, 0]}
        for field in (F2, F23, Field([2, 3, 5])):
            done = 0
            while done < 20:
                try:
                    l1 = PlaneLattice(random_vector(field), random_vector(field))
                    kind = rng.choice(list(outcomes))
                    if kind == "both":
                        l2 = PlaneLattice(rational_combination(l1, field), rational_combination(l1, field))
                    elif kind == "one":
                        l2 = PlaneLattice(rational_combination(l1, field), random_vector(field))
                    else:
                        l2 = PlaneLattice(random_vector(field), random_vector(field))
                except GeometryError:
                    continue
                done += 1
                expected = self.coordinate_intersect(l1, l2)
                if expected is None:
                    with pytest.raises(IncommensurableError):
                        intersect(l1, l2)
                    with pytest.raises(IncommensurableError):
                        intersect(l2, l1)
                else:
                    assert intersect(l1, l2) == expected
                    assert intersect(l2, l1) == expected
                outcomes[kind][expected is None] += 1
        assert outcomes["both"][1] == 0 and outcomes["both"][0] > 0
        assert outcomes["one"][1] > 0 and outcomes["none"][1] > 0

    def test_takes_one_hermite_form(self, monkeypatch):
        calls = []
        hnf_inplace = intlinalg._hnf_inplace

        def counted(m):
            calls.append(m)
            return hnf_inplace(m)

        l1, l2 = PlaneLattice(V(2, 0), V(0, 1)), PlaneLattice(V(1, 1), V(0, 3))
        monkeypatch.setattr(intlinalg, "_hnf_inplace", counted)
        assert covolume(intersect(l1, l2)) == 6
        assert len(calls) == 1

    def test_different_fields_refused(self):
        with pytest.raises(FieldError):
            intersect(PlaneLattice(V(1, 0, F2), V(0, 1, F2)), PlaneLattice(V(1, 0, F23), V(0, 1, F23)))


class TestAvoidCoset:
    def test_trivial_subgroup(self):
        out = sublattice_avoiding_coset(Z2(), None, V(1, 0))
        assert out == PlaneLattice(V(2, 0), V(0, 1))
        assert integer_coords(out, V(1, 0)) is None

    def test_full_line_subgroup(self):
        out = sublattice_avoiding_coset(Z2(), V(1, 0), V(0, 1))
        assert out == PlaneLattice(V(1, 0), V(0, 2))
        for k in range(-5, 6):
            assert integer_coords(out, V(k, 1)) is None

    def test_tau_inside_line_span(self):
        out = sublattice_avoiding_coset(Z2(), V(2, 0), V(1, 0))
        assert out == PlaneLattice(V(2, 0), V(0, 1))
        for k in range(-5, 6):
            assert integer_coords(out, V(2 * k + 1, 0)) is None

    def test_tau_in_subgroup_rejected(self):
        with pytest.raises(GeometryError):
            sublattice_avoiding_coset(Z2(), V(1, 0), V(3, 0))
        with pytest.raises(GeometryError):
            sublattice_avoiding_coset(Z2(), None, V(0, 0))

    def test_tau_outside_lattice_rejected(self):
        with pytest.raises(GeometryError):
            sublattice_avoiding_coset(Z2(), None, V(H, 0))

    def test_random_triples(self):
        rng = random.Random(53)
        done = 0
        while done < 120:
            b1 = V(rng.randint(-3, 3), rng.randint(-3, 3))
            b2 = V(rng.randint(-3, 3), rng.randint(-3, 3))
            if b1.cross(b2).is_zero():
                continue
            lat = PlaneLattice(b1, b2)
            tau = lat.point(rng.randint(-3, 3), rng.randint(-3, 3))
            gen = None
            if rng.random() < 0.6:
                gen = lat.point(rng.randint(-2, 2), rng.randint(-2, 2))
                if gen.is_zero():
                    gen = None
            try:
                out = sublattice_avoiding_coset(lat, gen, tau)
            except GeometryError:
                continue  # tau was in the subgroup; precondition case
            assert all(integer_coords(lat, b) is not None for b in out.basis())
            coset = (
                [tau]
                if gen is None
                else [gen.scale(k) + tau for k in range(-5, 6)]
            )
            for p in coset:
                assert integer_coords(out, p) is None
            done += 1


def oracle_line_hits(lat, e, tau, mrange=300):
    """Search oracle: walk candidate integer values of the first coordinate."""
    ec = integer_coords(lat, e)
    assert ec is not None
    t1, t2 = lattice_coords(lat, tau)
    e1, e2 = ec
    if e1 == 0 and e2 == 0:
        return integer_coords(lat, tau) is not None
    if e1 == 0:
        q = t1.rational_value()
        return q is not None and q.denominator == 1
    for mm in range(-mrange, mrange + 1):
        t = (t1 - mm) / (-e1)
        second = t * e2 + t2
        q = second.rational_value()
        if q is not None and q.denominator == 1:
            return True
    return False


class TestLineMeetsLattice:
    def test_t_zero_case(self):
        assert line_meets_lattice(Z2(), V(2, 0), V(0, 1))

    def test_irrational_shift_still_meets(self):
        z2 = PlaneLattice(V(1, 0, F2), V(0, 1, F2))
        assert line_meets_lattice(z2, V(1, 0, F2), V(F2.sqrt(2), 3, F2))

    def test_half_offset_never_meets(self):
        z2 = PlaneLattice(V(1, 0, F2), V(0, 1, F2))
        assert not line_meets_lattice(z2, V(1, 0, F2), V(F2.sqrt(2), H, F2))

    def test_e_not_in_lattice(self):
        assert not line_meets_lattice(Z2(), V(H, 0), V(0, 0))

    def test_zero_edge_reduces_to_membership(self):
        assert line_meets_lattice(Z2(), V(0, 0), V(2, 3))
        assert not line_meets_lattice(Z2(), V(0, 0), V(H, 0))

    def test_agrees_with_search_oracle(self):
        rng = random.Random(59)
        done = 0
        z2 = PlaneLattice(V(1, 0, F2), V(0, 1, F2))
        while done < 220:
            if rng.random() < 0.5:
                lat = z2
            else:
                b1 = V(rng.randint(-3, 3), rng.randint(-3, 3), F2)
                b2 = V(rng.randint(-3, 3), rng.randint(-3, 3), F2)
                if b1.cross(b2).is_zero():
                    continue
                lat = PlaneLattice(b1, b2)
            e = lat.point(rng.randint(-5, 5), rng.randint(-5, 5))
            if e.is_zero():
                continue
            # mix: sometimes engineered to hit, sometimes random
            if rng.random() < 0.4:
                target = lat.point(rng.randint(-3, 3), rng.randint(-3, 3))
                drift = F2.sqrt(2) * Fraction(rng.randint(-2, 2), 3)
                tau = target - e.scale(drift)
            else:
                tau = V(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    F2,
                ) + V(F2.sqrt(2), 0, F2).scale(rng.randint(-1, 1))
            got = line_meets_lattice(lat, e, tau)
            want = oracle_line_hits(lat, e, tau)
            assert got == want, f"{lat} e={e} tau={tau}: got {got}, oracle {want}"
            # forward direction of the quantitative lemma:
            # condition true  =>  det(e, tau) is an integer multiple of det(L)
            if got:
                ratio = (e.cross(tau) / covolume(lat)).rational_value()
                assert ratio is not None and ratio.denominator == 1
            done += 1


def field_superlattice_meeting_line(lat, e, tau):
    """The field formula for the superlattice: t0 puts t0*e + tau
    perpendicular to e in lattice coordinates, solved for by field division,
    and the superlattice is the integer span of b1, b2 and that point."""
    e1, e2 = integer_coords(lat, e)
    t1, t2 = lattice_coords(lat, tau)
    t0 = -(t1 * e1 + t2 * e2) / (e1 * e1 + e2 * e2)
    analysis = integer_span([*lat.basis(), e.scale(t0) + tau])
    assert analysis.verdict == LATTICE
    return t0, analysis.basis


class TestSuperlatticeMeetingLine:
    def test_rational_shift_lands_in_same_lattice(self):
        t0, big = superlattice_meeting_line(Z2(), V(1, 0), V(H, 3))
        assert t0 == Fraction(-1, 2)
        assert big == Z2()

    def test_half_integer_extension(self):
        z2 = PlaneLattice(V(1, 0, F2), V(0, 1, F2))
        t0, big = superlattice_meeting_line(z2, V(1, 0, F2), V(F2.sqrt(2), H, F2))
        assert t0 == -F2.sqrt(2)
        assert big == PlaneLattice(V(1, 0, F2), V(0, H, F2))

    def test_irrational_det_ratio_rejected(self):
        z2 = PlaneLattice(V(1, 0, F2), V(0, 1, F2))
        with pytest.raises(RationalityError):
            superlattice_meeting_line(z2, V(0, 1, F2), V(F2.sqrt(2), 0, F2))

    def test_skewed_basis_regression(self):
        # the perpendicular foot must be taken in lattice coordinates;
        # the ambient foot would adjoin an irrational point here
        f = F23
        b1 = V(1, f.sqrt(2), f)
        b2 = V(0, 1, f)
        lat = PlaneLattice(b1, b2)
        e = b1
        tau = V(f.sqrt(3), f.sqrt(6) + H, f)
        t0, big = superlattice_meeting_line(lat, e, tau)
        assert t0 == -f.sqrt(3)
        caught = e.scale(t0) + tau
        assert caught == V(0, H, f)
        assert all(integer_coords(big, v) is not None for v in (caught, *lat.basis()))

    def test_properties_on_random_instances(self):
        # skewed bases with irrational entries, e of squared length N > 1 in
        # lattice coordinates, and tau with an irrational slide along e
        rng = random.Random(61)
        for field in (Q, F2, F23):
            done = strict = 0
            while done < 60:
                b1 = PlaneVector(rand_element(rng, field, 3, 2), rand_element(rng, field, 3, 2))
                b2 = PlaneVector(rand_element(rng, field, 3, 2), rand_element(rng, field, 3, 2))
                if b1.cross(b2).is_zero():
                    continue
                lat = PlaneLattice(b1, b2)
                e1, e2 = rng.randint(-3, 3), rng.randint(-3, 3)
                if e1 * e1 + e2 * e2 < 2:
                    continue
                e = lat.point(e1, e2)
                q1, q2 = Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2)
                c1, c2 = lat.basis()
                tau = c1.scale(q1) + c2.scale(q2) + e.scale(rand_element(rng, field, 2, 2))
                t0, big = superlattice_meeting_line(lat, e, tau)
                assert (t0, big) == field_superlattice_meeting_line(lat, e, tau)
                caught = e.scale(t0) + tau
                assert all(integer_coords(big, v) is not None for v in (caught, c1, c2))
                assert (covolume(lat) / covolume(big)).rational_value() is not None
                strict += big != lat
                done += 1
            assert strict > done // 2
