"""Zonotope construction, pair translations, vertices, and area."""

import random
from fractions import Fraction

import pytest

from zonotile import SymmetryError, Zonotope, ZonotopeError

from conftest import (
    F23,
    V,
    from_vertices,
    random_irrational_zonotope,
    random_zonotope,
    shoelace_area,
    signed_pair_translation,
    translations,
)

H = Fraction(1, 2)


def square():
    return Zonotope([V(1, 0), V(0, 1)])


def hexagon():
    return Zonotope([V(1, 0), V(0, 1), V(-1, 1)])


def octagon():
    return Zonotope([V(1, 0), V(1, 1), V(0, 1), V(-1, 1)])


class TestConstruction:
    def test_unit_square(self):
        z = square()
        assert z.m == 2 and z.is_parallelogram()

    def test_octagon_generators_kept_in_order(self):
        z = octagon()
        assert [(g.x, g.y) for g in z.generators] == [(1, 0), (1, 1), (0, 1), (-1, 1)]

    def test_colinear_pair_rejected(self):
        with pytest.raises(ZonotopeError):
            Zonotope([V(1, 0), V(2, 0)])

    def test_zero_generator_rejected(self):
        with pytest.raises(ZonotopeError) as err:
            Zonotope([V(1, 0), V(0, 0)])
        assert "generator 2" in str(err.value)

    def test_wrong_order_rejected(self):
        with pytest.raises(ZonotopeError):
            Zonotope([V(0, 1), V(1, 0)])

    def test_lower_half_generators_are_negated(self):
        z = Zonotope([V(1, 0), V(0, -1)])
        assert [(g.x, g.y) for g in z.generators] == [(1, 0), (0, 1)]

    def test_single_generator_rejected(self):
        with pytest.raises(ZonotopeError):
            Zonotope([V(1, 0)])


class TestPairTranslations:
    def test_square(self):
        t = translations(square())
        assert [(v.x, v.y) for v in t] == [(0, 1), (-1, 0)]

    def test_hexagon(self):
        t = translations(hexagon())
        assert [(v.x, v.y) for v in t] == [(-1, 2), (-2, 1), (-1, -1)]

    def test_octagon(self):
        t = translations(octagon())
        assert [(v.x, v.y) for v in t] == [(0, 3), (-2, 2), (-3, 0), (-2, -2)]

    def test_geometric_meaning_midpoint_of_opposite_edge(self):
        # the translation of edge j equals (midpoint of opposite edge) minus
        # (midpoint of edge j), read off the vertex walk
        rng = random.Random(3)
        for _ in range(50):
            z = random_zonotope(rng)
            vs = z.vertices()
            m = z.m
            n = 2 * m
            shifts = translations(z)
            for j in range(1, m + 1):
                mid = (vs[j - 1] + vs[j % n]).scale(H)
                mid_opp = (vs[j - 1 + m] + vs[(j + m) % n]).scale(H)
                diff = mid_opp - mid
                assert (diff - shifts[j - 1]).is_zero()

    def test_matches_sum_of_following_edges(self):
        # definition: t_j is the sum of the m-1 signed edges after e_j
        rng = random.Random(29)
        zs = [random_zonotope(rng, m=rng.choice([2, 3, 4, 5])) for _ in range(60)]
        zs += [random_irrational_zonotope(rng, F23, rng.choice([2, 3, 4, 5])) for _ in range(60)]
        for z in zs:
            # the 2m edge vectors in counterclockwise order: e_1..e_m, -e_1..-e_m
            edges = [*z.generators, *(-g for g in z.generators)]
            n = len(edges)
            for j, t in enumerate(translations(z)):
                want = edges[(j + 1) % n]
                for i in range(j + 2, j + z.m):
                    want = want + edges[i % n]
                assert t == want


class TestVertices:
    def test_square_vertices(self):
        vs = square().vertices()
        assert {(v.x, v.y) for v in vs} == {(-H, -H), (H, -H), (H, H), (-H, H)}

    def test_walk_closes_and_is_symmetric(self):
        rng = random.Random(5)
        for _ in range(50):
            z = random_zonotope(rng)
            vs = z.vertices()
            m = z.m
            assert len(vs) == 2 * m
            total = vs[0]
            for v in vs[1:]:
                total = total + v
            assert total.is_zero()  # centered at the origin
            for i in range(m):
                assert (vs[i] + vs[i + m]).is_zero()

    def test_octagon_is_translated_lattice_octagon(self):
        vs = octagon().vertices()
        shifted = {(v.x + Fraction(3, 2), v.y + Fraction(3, 2)) for v in vs}
        assert shifted == {
            (1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1),
        }


class TestArea:
    def test_basic_areas(self):
        assert square().area() == 1
        assert hexagon().area() == 3
        assert octagon().area() == 7

    def test_area_equals_shoelace(self):
        rng = random.Random(7)
        for _ in range(120):
            z = random_zonotope(rng)
            assert z.area() == shoelace_area(z.vertices())

    def test_area_equals_shoelace_irrational(self):
        rng = random.Random(9)
        for _ in range(40):
            z = random_irrational_zonotope(rng, F23, rng.choice([2, 3]))
            assert (z.area() - shoelace_area(z.vertices())).is_zero()


class TestFromVertices:
    def test_lattice_octagon(self):
        vs = [V(1, 0), V(2, 0), V(3, 1), V(3, 2), V(2, 3), V(1, 3), V(0, 2), V(0, 1)]
        z = from_vertices(vs)
        assert [(g.x, g.y) for g in z.generators] == [(1, 0), (1, 1), (0, 1), (-1, 1)]

    def test_unit_square_vertices(self):
        z = from_vertices([V(0, 0), V(1, 0), V(1, 1), V(0, 1)])
        assert [(g.x, g.y) for g in z.generators] == [(1, 0), (0, 1)]

    def test_clockwise_input_is_reoriented(self):
        z = from_vertices([V(0, 1), V(1, 1), V(1, 0), V(0, 0)])
        assert [(g.x, g.y) for g in z.generators] == [(1, 0), (0, 1)]

    def test_odd_count_rejected(self):
        with pytest.raises(SymmetryError):
            from_vertices([V(0, 0), V(1, 0), V(0, 1)])

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            from_vertices([V(0, 0), V(2, 0), V(3, 1), V(0, 1)])

    def test_non_convex_rejected(self):
        vs = [V(0, 0), V(2, 1), V(4, 0), V(4, 3), V(2, 2), V(0, 3)]
        with pytest.raises(SymmetryError):
            from_vertices(vs)

    def test_round_trip_with_vertices(self):
        rng = random.Random(11)
        for _ in range(60):
            z = random_zonotope(rng)
            z2 = from_vertices(z.vertices())
            assert [(g.x, g.y) for g in z2.generators] == [(g.x, g.y) for g in z.generators]

    def test_rotated_vertex_list_gives_the_same_zonotope(self):
        # the half-walk of edges may straddle the argument wrap-around;
        # normalization plus sorting must recover the same generators
        rng = random.Random(15)
        for _ in range(40):
            z = random_zonotope(rng)
            vs = z.vertices()
            k = rng.randrange(len(vs))
            rotated = vs[k:] + vs[:k]
            z2 = from_vertices(rotated)
            assert [(g.x, g.y) for g in z2.generators] == [(g.x, g.y) for g in z.generators]


class TestAdjacentIdentities:
    """Exact identities between edges and pair translations."""

    def _check_adjacent(self, z):
        shifts = translations(z)
        gens = z.generators
        for j in range(z.m - 1):
            left = shifts[j] - shifts[j + 1]
            right = gens[j] + gens[j + 1]
            assert (left - right).is_zero()

    def _check_alternating_representation(self, z):
        # for even m: e_j = sum_{r=1}^{m-1} (-1)^r t_{j+r}, indices wrapping
        # with a sign flip, which writes e_j as a +-1 combination of the
        # other pair translations
        shifts = translations(z)
        m = z.m
        for j in range(1, m + 1):
            total = z.generators[0].scale(0)
            for r in range(1, m):
                term = signed_pair_translation(shifts, j + r)
                total = total + (-term if r % 2 else term)
            assert (total - z.generators[j - 1]).is_zero()

    def test_rational_zonotopes(self):
        rng = random.Random(13)
        for _ in range(300):
            z = random_zonotope(rng)
            self._check_adjacent(z)
            if z.m % 2 == 0:
                self._check_alternating_representation(z)

    def test_quadratic_zonotopes(self):
        rng = random.Random(17)
        for _ in range(200):
            z = random_irrational_zonotope(rng, F23, rng.choice([2, 3, 4]))
            self._check_adjacent(z)
            if z.m % 2 == 0:
                self._check_alternating_representation(z)
