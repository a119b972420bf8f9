"""The brute-force covering oracle: point location, enumeration, exact
constancy verification, strips, and the builtin scenes."""

import math
import random
from collections import Counter
from fractions import Fraction
from operator import sub

import pytest

from zonotile import (
    BoundaryError,
    Box,
    Field,
    FieldElement,
    GeometryError,
    IncommensurableError,
    PlaneLattice,
    PlaneVector,
    Polygon,
    TranslateSet,
    Zonotope,
    builtin_scene,
    covering_at,
    lattice_points_in_box,
    locate,
    strip_profile,
    verify_covering,
)
from zonotile import arrangement, covering, oracles, patterns
from zonotile.arrangement import Grid
from zonotile.covering import MAX_BOX_CANDIDATES, arrangement_faces, region_translates
from zonotile.lattice import convex_start, integer_rows, vectors_from_rows
from zonotile.patterns import (
    lattice_octagon,
    octagon_strip_lattice,
    skew_tetromino,
    tetromino_l2_multiplicity,
)

from conftest import F2, F23, Q, V, periodic_set, random_zonotope, set_parts
from test_acceptance import bounded_random_polygon

H = Fraction(1, 2)


def qbox(x0, y0, x1, y1, field=Q):
    return Box(field.rational(x0), field.rational(y0), field.rational(x1), field.rational(y1))


def single(lat, field=Q):
    return TranslateSet.periodic(field, [lat], [(0,) * 2 * field.size], 1)


def corners(box):
    """The box's corners, counterclockwise from the lower left."""
    return [PlaneVector(box.x0, box.y0), PlaneVector(box.x1, box.y0), PlaneVector(box.x1, box.y1),
            PlaneVector(box.x0, box.y1)]


def grid_vector(grid, p):
    """The grid point p as a vector."""
    return PlaneVector(grid.element(p[0]), grid.element(p[1]))


def edges(poly):
    """The polygon's edges as pairs of vectors, counterclockwise."""
    vs = poly.vertices
    return list(zip(vs, vs[1:] + vs[:1]))


def pipeline_positions(tset, box):
    """The translate positions in the closed box that the pipeline lists
    on its grid, counted with their multiplicities, as vectors."""
    grid = covering._scene_grid(box.x0.field, tset, (), box)
    got = Counter()
    for p, k in covering._positions(grid, tset, box):
        got[grid_vector(grid, p)] += k
    return got


def oracle_positions(tset, box):
    """The translate positions in the closed box, counted with their
    multiplicities, by element arithmetic: each part's through
    ``lattice_points_in_box`` on the box less its offset, a windowed
    set's as the listed points that compare inside the box."""
    got = Counter()
    if tset.is_periodic:
        for (lat, z), k in zip(set_parts(tset), tset.weights):
            for p in lattice_points_in_box(lat, Box(box.x0 - z.x, box.y0 - z.y, box.x1 - z.x, box.y1 - z.y)):
                got[p + z] += k
        return got
    for p, k in zip(vectors_from_rows(tset.field, tset.rows, tset.den), tset.weights):
        if box.x0 <= p.x <= box.x1 and box.y0 <= p.y <= box.y1:
            got[p] += k
    return +got


class TestPolygonLocate:
    def test_square(self):
        sq = Polygon([V(0, 0), V(1, 0), V(1, 1), V(0, 1)])
        assert locate(sq, V(H, H)) == 1
        assert locate(sq, V(H, 0)) == 0
        assert locate(sq, V(0, 0)) == 0
        assert locate(sq, V(2, 0)) == -1
        assert locate(sq, V(H, Fraction(-1, 3))) == -1

    def test_non_convex_tetromino(self):
        t = skew_tetromino()
        assert locate(t, V(H, Fraction(3, 2))) == 1
        assert locate(t, V(-H, Fraction(3, 2))) == -1
        assert locate(t, V(-H, H)) == 1
        # the seam between the two squares is interior, not boundary
        assert locate(t, V(0, H)) == 1
        assert locate(t, V(0, -H)) == 0
        assert locate(t, V(H, 2)) == 0
        assert locate(t, V(Fraction(3, 2), 1)) == -1

    def test_clockwise_vertices_are_reoriented(self):
        sq = Polygon([V(0, 1), V(1, 1), V(1, 0), V(0, 0)])
        assert locate(sq, V(H, H)) == 1

    def test_irrational_point(self):
        sq = Polygon([V(0, 0, F2), V(1, 0, F2), V(1, 1, F2), V(0, 1, F2)])
        r2 = F2.sqrt(2)
        inside = V(r2 / 2, r2 / 2, F2)
        assert locate(sq, inside) == 1
        assert locate(sq, V(r2 / 2, r2 - 1 + Fraction(1, 1000), F2)) == 1


def _cross(a, b, c):
    """det(b - a, c - a) of three integer points."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def all_pairs_simple(poly):
    """The reference for ``Polygon.is_simple``: every two non-adjacent edges tested."""
    rows, n = poly.rows, len(poly.rows)
    edges = list(zip(rows, rows[1:] + rows[:1]))
    return not any(covering._segments_meet(poly.field, *edges[i], *edges[j])
                   for i in range(n) for j in range(i + 2, n if i else n - 1))


class TestPolygonSimple:
    def test_simple_polygons(self):
        assert Polygon([V(0, 0), V(1, 0), V(1, 1), V(0, 1)]).is_simple()
        assert skew_tetromino().is_simple()
        assert lattice_octagon(F2).is_simple()
        # non-convex, with a reflex vertex
        assert Polygon([V(0, 0), V(2, 0), V(2, 1), V(1, 1), V(1, 2), V(0, 2)]).is_simple()

    def test_crossing_and_touching_edges(self):
        assert not Polygon([V(0, 0), V(1, 3), V(1, 1), V(0, 1)]).is_simple()
        # a vertex on a non-adjacent edge
        assert not Polygon([V(0, 0), V(4, 0), V(4, 4), V(2, 0), V(0, 4)]).is_simple()
        # non-adjacent edges overlapping along a line
        assert not Polygon([V(0, 0), V(3, 0), V(3, 1), V(2, 0), V(1, 0), V(0, 1)]).is_simple()
        r2 = F2.sqrt(2)
        assert not Polygon([V(0, 0, F2), V(r2, 3, F2), V(r2, 1, F2), V(0, 1, F2)]).is_simple()

    def test_the_sweep_tests_only_overlapping_non_adjacent_pairs(self, monkeypatch):
        # the 2,048-vertex parabola, convex or with vertex 1024 raised to a
        # reflex one, costs at most 2n pair tests; every pair tested shares
        # no end and has overlapping closed x-ranges; the tetromino, over Q
        # and carried into Q(sqrt2) with its abscissas out of numerator
        # tuple order, and the octagram (which winds three times) are
        # tested, and the octagram is refused
        calls = []

        def spy(field, p, q, r, s, _meet=covering._segments_meet):
            n, key = field.size, field.order_key()
            lo = max(min(p[:n], q[:n], key=key), min(r[:n], s[:n], key=key), key=key)
            hi = min(max(p[:n], q[:n], key=key), max(r[:n], s[:n], key=key), key=key)
            assert not {p, q} & {r, s} and field.sign(tuple(map(sub, hi, lo))) >= 0
            calls.append((p, q, r, s))
            return _meet(field, p, q, r, s)

        monkeypatch.setattr(covering, "_segments_meet", spy)
        parabola = [(i, i * i) for i in range(2048)]
        raised = [(x, y + 6144 * (x == 1024)) for x, y in parabola]
        for rows in (parabola, raised):
            calls.clear()
            assert Polygon.from_rows(Q, rows, 1).is_simple() and 0 < len(calls) <= 2 * len(rows)
        tetromino = skew_tetromino().rows
        for field, rows in [(Q, tetromino), (F2, [(y, x, y, 0) for x, y in tetromino])]:  # x -> sqrt2*x + y
            calls.clear()
            assert Polygon.from_rows(field, rows, 1).is_simple() and calls
        calls.clear()
        octagram = [(1, 0), (3, 2), (0, 2), (2, 0), (2, 3), (0, 1), (3, 1), (1, 3)]
        assert not Polygon([V(x, y) for x, y in octagram]).is_simple() and calls

    def test_matches_the_all_pairs_loop(self):
        # seeded vertex lists on a small grid, half of them sorted by angle
        # about their centroid (mostly simple), over Q or carried into
        # Q(sqrt2) by x -> sqrt2*x (x ties kept) or x -> sqrt2*x + y (none
        # kept, and the numerator tuples out of order), maps that keep
        # every incidence
        rng = random.Random(47)
        seen = Counter()
        for _ in range(2000):
            pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(3, 8))]
            if rng.random() < 0.5:
                cx, cy = sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts)
                pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
            field, rows = rng.choice([(Q, pts), (F2, [(0, x, y, 0) for x, y in pts]),
                                      (F2, [(y, x, y, 0) for x, y in pts])])
            try:
                poly = Polygon.from_rows(field, rows, 1)
            except GeometryError:
                continue
            expected = all_pairs_simple(poly)
            assert poly.is_simple() == expected, (field, pts)
            seen[field, expected] += 1
        assert sum(seen.values()) >= 1000 and min(seen[Q, v] + seen[F2, v] for v in (True, False)) >= 200
        assert min(seen[f, v] for f in (Q, F2) for v in (True, False)) >= 100

    def test_convex_start_is_simple_with_every_turn_left(self):
        # on convex hulls, in order or shuffled, the linear predicate holds
        # exactly when the pair test finds the list simple and every turn
        # is strictly left, and it names the first upward edge
        rng = random.Random(46)
        seen = {True: 0, False: 0}
        for _ in range(300):
            pts = sorted({(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(3, 12))})
            hull = []
            for chain in (pts, pts[::-1]):  # Andrew's monotone chain, lower then upper
                start = len(hull)
                for p in chain:
                    while len(hull) >= start + 2 and _cross(hull[-2], hull[-1], p) <= 0:
                        hull.pop()
                    hull.append(p)
                hull.pop()
            if len(hull) < 3:
                continue
            if rng.random() < 0.5:
                rng.shuffle(hull)
            try:
                poly = Polygon([V(x, y) for x, y in hull])
            except GeometryError:
                continue
            rows, n = poly.rows, len(poly.rows)
            edges = list(zip(rows, rows[1:] + rows[:1]))
            simple = all_pairs_simple(poly)
            left = all(_cross(rows[i - 1], rows[i], rows[(i + 1) % n]) > 0 for i in range(n))
            start = convex_start(Q, rows)
            assert (start is not None) == (simple and left), hull
            if start is not None:
                up = [(dy, dx) > (0, 0) for (ax, ay), (bx, by) in edges for dx, dy in [(bx - ax, by - ay)]]
                assert up[start] and not up[start - 1]
            seen[start is not None] += 1
        assert min(seen.values()) > 50

    def test_matches_sympy_segment_intersection(self):
        from sympy import Point, Segment

        rng = random.Random(29)
        seen = {True: 0, False: 0}
        while sum(seen.values()) < 80:
            pts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)]
            if len(set(pts)) < 5:
                continue
            try:
                poly = Polygon([V(x, y) for x, y in pts])
            except GeometryError:
                continue
            segs = [Segment(Point(*pts[i]), Point(*pts[(i + 1) % 5])) for i in range(5)]
            expected = not any(
                segs[i].intersection(segs[j]) for i in range(5) for j in range(i + 2, 5) if (i, j) != (0, 4)
            )
            assert poly.is_simple() == expected, pts
            seen[expected] += 1
        assert min(seen.values()) > 10


class TestLatticePointsInBox:
    def test_z2_nine_points(self):
        pts = lattice_points_in_box(PlaneLattice(V(1, 0), V(0, 1)), qbox(0, 0, 2, 2))
        assert len(pts) == 9

    def test_zx2z_strip(self):
        pts = lattice_points_in_box(octagon_strip_lattice(), qbox(0, 0, 1, 3))
        assert {(p.x, p.y) for p in pts} == {(0, 0), (1, 0), (0, 2), (1, 2)}

    def test_half_integer_lattice_unit_box(self):
        # direct enumeration: points are (a/2, a/2 + b); inside [0,1]^2 that
        # gives (0,0), (0,1), (1/2,1/2), (1,0), (1,1) and nothing else
        lat = PlaneLattice(V(H, H), V(0, 1))
        pts = lattice_points_in_box(lat, qbox(0, 0, 1, 1))
        assert {(p.x, p.y) for p in pts} == {(0, 0), (0, 1), (H, H), (1, 0), (1, 1)}

    def test_matches_naive_scan(self):
        rng = random.Random(19)
        for _ in range(40):
            b1 = V(rng.randint(-3, 3), rng.randint(-3, 3))
            b2 = V(rng.randint(-3, 3), rng.randint(-3, 3))
            if b1.cross(b2).is_zero():
                continue
            lat = PlaneLattice(b1, b2)
            box = qbox(rng.randint(-3, 0), rng.randint(-3, 0), rng.randint(0, 3), rng.randint(0, 3))
            got = {(p.x, p.y) for p in lattice_points_in_box(lat, box)}
            # the naive oracle in plain Fractions from the basis coordinates
            (b1x, b1y), (b2x, b2y) = [(b.x.rational_value(), b.y.rational_value()) for b in lat.basis()]
            x0, y0, x1, y1 = (c.rational_value() for c in (box.x0, box.y0, box.x1, box.y1))
            want = set()
            for a in range(-60, 61):
                for b in range(-60, 61):
                    x, y = a * b1x + b * b2x, a * b1y + b * b2y
                    if x0 <= x <= x1 and y0 <= y <= y1:
                        want.add((x, y))
            assert got == want

    def test_matches_naive_scan_over_q_sqrt2(self):
        # irrational bases and offsets, box corners rational and irrational,
        # one- and two-part sets: every point lat.point(a, b) + z in the
        # box, by element arithmetic, over an index range that holds them;
        # the oracle and the pipeline's grid enumeration both give them
        r2 = F2.sqrt(2)
        pool = [F2.rational(Fraction(n, 2)) + m * r2 for n in range(-2, 3) for m in (-1, 0, 1)]
        rng = random.Random(29)

        def approx(x):  # a float near x, used for the scan's index range only
            return sum(float(c) * math.sqrt(p) for c, p in zip(x.coeffs, x.field.products))

        def index_range(values):
            return range(math.floor(min(values)) - 1, math.ceil(max(values)) + 2)

        def part():
            while True:
                b1, b2 = PlaneVector(*rng.sample(pool, 2)), PlaneVector(*rng.sample(pool, 2))
                if abs(b1.cross(b2)) >= 1 and not all(c.is_rational() for c in (b1.x, b1.y, b2.x, b2.y)):
                    return PlaneLattice(b1, b2), PlaneVector(rng.choice(pool), rng.choice(pool))

        def corner():
            return F2.rational(Fraction(rng.randint(-4, 2), rng.randint(1, 3))) + rng.choice((0, r2 / 2))

        irrational = on_edge = 0
        for case in range(40):
            parts = [part() for _ in range(1 + case % 2)]
            x0, y0 = corner(), corner()
            box = Box(x0, y0, x0 + rng.choice((1, 3, r2, 1 + r2)), y0 + rng.choice((2, 3, r2, 2 * r2)))
            tset = periodic_set(parts)
            got, pipeline = oracle_positions(tset, box), pipeline_positions(tset, box)
            want = Counter()
            for lat, z in parts:
                b1, b2 = lat.basis()
                det = approx(b1.cross(b2))
                offsets = [c - z for c in corners(box)]
                for a in index_range([approx(d.cross(b2)) / det for d in offsets]):
                    for b in index_range([approx(b1.cross(d)) / det for d in offsets]):
                        p = lat.point(a, b) + z
                        if box.x0 <= p.x <= box.x1 and box.y0 <= p.y <= box.y1:
                            want[p] += 1
            assert got == want
            assert pipeline == want
            irrational += sum(not (p.x.is_rational() and p.y.is_rational()) for p in got.elements())
            on_edge += sum(p.x in (box.x0, box.x1) or p.y in (box.y0, box.y1) for p in got.elements())
        assert irrational > 100 and on_edge > 10


class TestEnumerationBudget:
    """The pipeline refuses a box with one candidate over the cap before
    it makes any."""

    def test_lattice_points_refused_over_the_cap(self):
        tset, box = single(PlaneLattice(V(1, 0), V(0, 1))), qbox(0, 0, MAX_BOX_CANDIDATES, 0)
        grid = covering._scene_grid(Q, tset, (), box)
        # every candidate is compared with the box on the grid
        compared, le = [], grid.le
        grid.le = lambda a, b: compared.append((a, b)) or le(a, b)
        # (cap + 1) x 1 candidates
        with pytest.raises(GeometryError, match=f"{MAX_BOX_CANDIDATES + 1} candidate lattice points.*{MAX_BOX_CANDIDATES}"):
            covering._positions(grid, tset, box)
        assert compared == []

    def test_parts_share_one_budget(self):
        # two parts of (cap/2 + 1) x 1 candidates each: either is within the
        # cap alone, and together they are over it before either is listed
        lat = PlaneLattice(V(1, 0), V(0, 1))
        tset, box = periodic_set([(lat, V(0, 0)), (lat, V(0, 0))]), qbox(0, 0, MAX_BOX_CANDIDATES // 2, 0)
        grid = covering._scene_grid(Q, tset, (), box)
        compared, le = [], grid.le
        grid.le = lambda a, b: compared.append((a, b)) or le(a, b)
        with pytest.raises(GeometryError, match=f"{MAX_BOX_CANDIDATES + 2} candidate lattice points.*{MAX_BOX_CANDIDATES}"):
            covering._positions(grid, tset, box)
        assert compared == []
        assert len(covering._positions(grid, single(lat), box)) == MAX_BOX_CANDIDATES // 2 + 1

    def test_window_points_refused_when_the_scene_is_built(self, monkeypatch):
        # a tetromino window is counted before its rule runs on any point
        asked = []
        monkeypatch.setitem(patterns._TETROMINO_RULES, "tetromino-L1", lambda m, n: asked.append((m, n)) or 1)
        # (cap + 1) x 1 integer points
        with pytest.raises(GeometryError, match=f"^window: the window holds {MAX_BOX_CANDIDATES + 1} candidate points.*{MAX_BOX_CANDIDATES}"):
            builtin_scene("tetromino-L1", window=(0, 0, MAX_BOX_CANDIDATES, H))
        # a window wide enough to hold 10^30 columns but no integer row
        # counts 0 and lists nothing, at once
        _, tset = builtin_scene("tetromino-L1", window=(0, Fraction(1, 5), 10**30, H))
        assert (tset.rows, tset.weights, asked) == ((), (), [])
        # a window inside the cap is listed point by point, column by column
        _, tset = builtin_scene("tetromino-L1", window=(0, 0, 2, H))
        assert asked == [(0, 0), (1, 0), (2, 0)]
        assert (tset.rows, tset.den, tset.weights) == (((0, 0), (1, 0), (2, 0)), 1, (1, 1, 1))
        assert len(pipeline_positions(tset, qbox(0, 0, 1, 0))) == 2

    def test_cap_is_far_above_the_octagon_on_eighths(self):
        # the largest enumeration the suite and the bench make
        lat = PlaneLattice(V(Fraction(1, 8), 0), V(0, Fraction(1, 8)))
        assert len(lattice_points_in_box(lat, qbox(-2, -2, Fraction(9, 8), Fraction(9, 8)))) == 676
        assert MAX_BOX_CANDIDATES >= 96 * 676


class TestCoveringAt:
    def test_octagon_strip_values(self):
        poly = lattice_octagon()
        ts = single(octagon_strip_lattice())
        # generic points on the even and odd strips
        assert covering_at(poly, ts, V(Fraction(23, 16), H)) == 4
        assert covering_at(poly, ts, V(Fraction(3, 2), Fraction(3, 2))) == 3
        assert covering_at(poly, ts, V(Fraction(23, 16), Fraction(5, 2))) == 4

    def test_spec_sample_point_is_a_boundary_point(self):
        # (3/2, 1/2) lies on the diagonal edge of the translate at (-1, -2),
        # so the strict no-boundary precondition rejects it
        poly = lattice_octagon()
        ts = single(octagon_strip_lattice())
        with pytest.raises(BoundaryError):
            covering_at(poly, ts, V(Fraction(3, 2), H))

    def test_centered_unit_square(self):
        sq = Polygon(Zonotope([V(1, 0), V(0, 1)]).vertices())
        ts = single(PlaneLattice(V(1, 0), V(0, 1)))
        assert covering_at(sq, ts, V(Fraction(1, 3), Fraction(1, 3))) == 1

    def test_boundary_raises(self):
        sq = Polygon(Zonotope([V(1, 0), V(0, 1)]).vertices())
        ts = single(PlaneLattice(V(1, 0), V(0, 1)))
        with pytest.raises(BoundaryError):
            covering_at(sq, ts, V(H, 0))

    def test_translation_equivariance(self):
        def shifted(ts, v):
            return periodic_set([(lat, z + v) for lat, z in set_parts(ts)])

        rng = random.Random(23)
        poly = lattice_octagon(F2)
        lat = octagon_strip_lattice(F2)
        ts = single(lat, F2)
        shifts = [
            V(Fraction(1, 3), Fraction(-2, 5), F2),
            V(F2.sqrt(2) / 3, Fraction(1, 7), F2),
        ]
        for _ in range(25):
            x = V(Fraction(rng.randint(-40, 40), 16), Fraction(rng.randint(-40, 40), 16), F2)
            for v in shifts:
                try:
                    base = covering_at(poly, ts, x)
                except BoundaryError:
                    continue
                assert covering_at(poly, shifted(ts, v), x + v) == base


class TestVerifyCovering:
    def test_octagon_family_rational_beta(self):
        poly, ts = builtin_scene("octagon-family", beta=Fraction(1, 3))
        report = verify_covering(poly, ts)
        assert report.constant and report.multiplicity == 7
        assert not report.window_relative
        assert report.counterexample is None

    def test_octagon_family_irrational_beta(self):
        poly, ts = builtin_scene("octagon-family", beta=Field([2]).sqrt(2))
        report = verify_covering(poly, ts)
        assert report.constant and report.multiplicity == 7

    def test_octagon_family_beta_zero(self):
        poly, ts = builtin_scene("octagon-family", beta=Fraction(0))
        report = verify_covering(poly, ts)
        assert report.constant and report.multiplicity == 7

    def test_listed_octagon_family_points_over_sqrt2(self):
        # the translates of both parts (beta = sqrt2) inside [-4, 5]^2,
        # listed as points: constant 7 on the window less the octagon's
        # extent, and one listed point fewer leaves a hole of count 6
        poly, ts = builtin_scene("octagon-family", beta=F2.sqrt(2))
        window = (-4, -4, 5, 5)
        box, points = qbox(*window, F2), []
        for lat, z in set_parts(ts):
            points += [p + z for p in lattice_points_in_box(lat, Box(box.x0 - z.x, box.y0 - z.y, box.x1 - z.x, box.y1 - z.y))]
        assert len(points) == 95

        def listed(vectors):
            return TranslateSet.windowed(F2, *integer_rows(vectors), [1] * len(vectors), window)

        report = verify_covering(poly, listed(points))
        assert report.constant and report.multiplicity == 7 and report.window_relative
        assert report.cells_checked == 432
        nearest = min(points, key=lambda p: (p - V(1, 1, F2)).dot(p - V(1, 1, F2)))
        assert nearest == PlaneVector(F2.sqrt(2), F2.one())
        holed = listed([p for p in points if p != nearest])
        report = verify_covering(poly, holed)
        assert not report.constant and report.window_relative
        assert [count for _, count in report.counterexample] == [6, 7]
        for sample, count in report.counterexample:
            assert covering_at(poly, holed, sample) == count

    def test_listed_points_need_one_nonzero_weight_each(self):
        window = (-1, -1, 1, 1)
        for rows, weights in [([(0, 0), (1, 0)], [1]), ([(0, 0)], [1, 1]), ([(0, 0), (1, 0)], [1, 0])]:
            with pytest.raises(GeometryError, match="one nonzero weight per listed point"):
                TranslateSet.windowed(Q, rows, 1, weights, window)
        assert TranslateSet.windowed(Q, [(0, 0)], 1, [-2], window).weights == (-2,)

    def test_periodic_weights_count(self):
        poly, tset = lattice_octagon(), TranslateSet(Q, [(0, 0)], 1, [2], (PlaneLattice(V(1, 0), V(0, 1)),), None)
        region = verification_region(poly, tset)
        faces = arrangement_faces(poly, *region_translates(poly, tset, region), region)
        assert faces and all(face.count == covering_at(poly, tset, face.sample) for face in faces)
        assert verify_covering(poly, tset).multiplicity == 14

    def test_period_lattice_intersects_each_distinct_lattice_once(self, monkeypatch):
        # parts that share one lattice need no intersection: 2,048 parts on
        # Z^2 offset by (i, 0), and the octagon family's two parts
        calls = []

        def spy(*args, _intersect=covering.intersect):
            calls.append(args)
            return _intersect(*args)

        monkeypatch.setattr(covering, "intersect", spy)
        z2 = PlaneLattice(V(1, 0), V(0, 1))
        tset = TranslateSet.periodic(Q, [z2] * 2048, [(i, 0) for i in range(2048)], 1)
        square = Polygon([V(0, 0), V(1, 0), V(1, 1), V(0, 1)])
        assert tset.period_lattice() == z2 and verify_covering(square, tset).multiplicity == 2048
        poly, ts = builtin_scene("octagon-family", beta=Fraction(1, 3))
        assert len(ts.lattices) == 2 and verify_covering(poly, ts).multiplicity == 7
        assert calls == []

    def test_octagon_single_lattice_not_constant(self):
        report = verify_covering(lattice_octagon(), single(octagon_strip_lattice()))
        assert not report.constant
        counts = sorted((report.counterexample[0][1], report.counterexample[1][1]))
        assert counts == [3, 4]

    def test_scaled_lattice_octagon(self):
        # 676 translates meet the cell of (1/8)Z^2 and their edges cross
        # there thousands of times, almost all on a few abscissas; the
        # sweep intersects only pairs whose order swaps within a slab
        eighth = Fraction(1, 8)
        report = verify_covering(lattice_octagon(), single(PlaneLattice(V(eighth, 0), V(0, eighth))))
        assert report.constant and report.multiplicity == 448
        assert report.cells_checked == 6

    def test_incommensurable_parts_refused(self):
        f = F2
        zero = PlaneVector(f.zero(), f.zero())
        l1 = PlaneLattice(V(1, 0, f), V(0, 1, f))
        l2 = PlaneLattice(V(f.sqrt(2), 0, f), V(0, 1, f))
        ts = periodic_set([(l1, zero), (l2, zero)])
        with pytest.raises(IncommensurableError):
            verify_covering(lattice_octagon(f), ts)
        with pytest.raises(GeometryError, match="at least one part"):
            TranslateSet.periodic(Q, [], [], 1)
        with pytest.raises(GeometryError, match="one lattice per offset"):
            TranslateSet.periodic(Q, [PlaneLattice(V(1, 0), V(0, 1))], [(0, 0), (1, 0)], 1)

    def test_oracle_multiplicity_matches_accounting(self):
        rng = random.Random(29)
        done = 0
        while done < 15:
            z = random_zonotope(rng, pool=[Fraction(n, 2) for n in range(-2, 3)])
            from zonotile import decide_multitiling

            dec = decide_multitiling(z)
            assert dec.multi_tiles
            if dec.witness_multiplicity > 16:
                continue
            report = verify_covering(Polygon.from_zonotope(z), single(dec.witness_lattice))
            assert report.constant
            assert report.multiplicity == dec.witness_multiplicity
            done += 1


def concurrent_crossing_scene():
    """The lattice octagon on four cosets of 4Z^2, placed so that a
    horizontal, a rising and a falling translate edge cross at (1/2, 1),
    strictly inside a slab of the cell [0, 4]^2, and a second horizontal
    edge overlaps the first there: the ladder must reverse a block of
    three lines, one of them two segments thick, at one cut."""
    four = PlaneLattice(V(4, 0), V(0, 4))
    offsets = [(-1, 1), (-2, H), (0, H), (Fraction(-5, 4), 1)]
    return lattice_octagon(), periodic_set([(four, V(x, y)) for x, y in offsets])


def irrational_crossing_scene():
    """The hexagon with generators (1, 0), (sqrt2, 1), (0, 1) over Q(sqrt2) on
    Z(1, 0) + Z(1/3, 1): its slopes 0 and 1/sqrt2 differ by an irrational
    amount, so some crossing abscissas come from an irrational division."""
    hexagon = Zonotope([V(1, 0, F2), PlaneVector(F2.sqrt(2), F2.one()), V(0, 1, F2)])
    return Polygon.from_zonotope(hexagon), single(PlaneLattice(V(1, 0, F2), V(Fraction(1, 3), 1, F2)), F2)


def verification_region(poly, tset):
    """The region verify_covering sweeps: one period cell, or the window
    shrunk by the polygon's extent."""
    if tset.is_periodic:
        period = tset.period_lattice()
        origin = V(0, 0, period.field)
        b1, b2 = period.basis()
        return Polygon([origin, b1, b1 + b2, b2])
    wx0, wy0, wx1, wy1 = tset.window
    pb = poly.bbox
    return Polygon(corners(Box(pb.x1 + wx0, pb.y1 + wy0, pb.x0 + wx1, pb.y0 + wy1)))


def oracle_scenes():
    """The builtin scenes, and octagon-family with each part listed twice,
    so that every translate has multiplicity 2."""
    octagon_third = builtin_scene("octagon-family", beta=Fraction(1, 3))
    return [
        builtin_scene("octagon-family", beta=Fraction(0)),
        octagon_third,
        builtin_scene("octagon-family", beta=F2.sqrt(2)),
        builtin_scene("tetromino-L1"),
        builtin_scene("tetromino-L2"),
        builtin_scene("tetromino-union"),
        (octagon_third[0], periodic_set(set_parts(octagon_third[1]) * 2)),
    ]


class TestArrangementCounts:
    """The counts propagated up the sweep's ladder, held to the brute-force
    oracle ``covering_at`` on every face."""

    def test_every_face_count_matches_the_oracle(self):
        scenes = oracle_scenes()
        scenes += [
            (lattice_octagon(), single(octagon_strip_lattice())),
            concurrent_crossing_scene(),
            irrational_crossing_scene(),
        ]
        for poly, tset in scenes:
            region = verification_region(poly, tset)
            faces = arrangement_faces(poly, *region_translates(poly, tset, region), region)
            assert faces
            for face in faces:
                assert face.count == covering_at(poly, tset, face.sample)

    def test_irrational_crossing_scene_divides_by_irrational_slope_differences(self, monkeypatch):
        divisors = []
        crossing = arrangement._crossing

        def recording(s, t, grid):
            divisors.append(tuple(a - b for a, b in zip(s.rise, t.rise)))
            return crossing(s, t, grid)

        monkeypatch.setattr(arrangement, "_crossing", recording)
        poly, tset = irrational_crossing_scene()
        region = verification_region(poly, tset)
        assert len(arrangement_faces(poly, *region_translates(poly, tset, region), region)) == 62
        assert sum(any(d[1:]) for d in divisors) == 4

    def test_concurrent_crossing_scene_is_degenerate(self):
        poly, tset = concurrent_crossing_scene()
        region = verification_region(poly, tset)
        grid, translates = region_translates(poly, tset, region)
        x, y = Q.rational(H), Q.rational(1)
        assert locate(region, V(x, y)) == 1
        through = []
        for pos, _ in translates:
            lam = grid_vector(grid, pos)
            vs = [v + lam for v in poly.vertices]
            # (1/2, 1) is no vertex abscissa, so it lies inside a slab
            assert all(v.x != x for v in vs)
            for p, q in zip(vs, vs[1:] + vs[:1]):
                if (p.x - x).sign() * (q.x - x).sign() < 0 and (q - p).cross(V(x, y) - p).is_zero():
                    through.append((q.y - p.y) / (q.x - p.x))
        assert sorted(through) == [-1, 0, 0, 1]

    def test_region_translates_sums_repeated_positions(self):
        poly, tset = builtin_scene("octagon-family", beta=Fraction(1, 3))
        doubled = periodic_set(set_parts(tset) * 2)
        region = Polygon(corners(qbox(0, 0, 1, 2)))
        _, once = region_translates(poly, tset, region)
        assert len({p for p, _ in once}) == len(once)
        assert all(k == 1 for _, k in once)
        assert region_translates(poly, doubled, region)[1] == [(p, 2) for p, _ in once]

    def test_region_translates_are_the_oracle_positions(self):
        # the grid positions the sweep reads, as vectors, are the positions
        # the oracle lists by element arithmetic, summed by place: over Q,
        # Q(sqrt2) and Q(sqrt2, sqrt3), periodic and windowed, with the
        # positions on the search box's boundary among them
        scenes = [(poly, tset, verification_region(poly, tset)) for poly, tset in oracle_scenes()]
        scenes += arrangement_event_scenes()
        assert {poly.field for poly, _, _ in scenes} == {Q, F2, F23}
        on_edge = 0
        for poly, tset, region in scenes:
            grid, translates = region_translates(poly, tset, region)
            got = Counter()
            for p, k in translates:
                got[grid_vector(grid, p)] += k
            assert len(got) == len(translates)
            pb, rb = poly.bbox, region.bbox
            search = Box(rb.x0 - pb.x1, rb.y0 - pb.y1, rb.x1 - pb.x0, rb.y1 - pb.y0)
            assert got == oracle_positions(tset, search)
            on_edge += sum(p.x in (search.x0, search.x1) or p.y in (search.y0, search.y1) for p in got)
        assert on_edge > 10

    def test_field_work_does_not_follow_the_translates(self, monkeypatch):
        # the lattice octagon on (1/n)Z^2 meets (3n+2)^2 translates; no
        # field element is built per translate
        scenes = []
        for n in (8, 16):
            tset = single(PlaneLattice(V(Fraction(1, n), 0), V(0, Fraction(1, n))))
            poly = lattice_octagon()
            translates = region_translates(poly, tset, verification_region(poly, tset))[1]
            scenes.append((n, poly, tset, len(translates)))
        assert [t for *_, t in scenes] == [676, 2500]
        made = []
        from_integers = FieldElement.from_integers.__func__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return from_integers(cls, *args, **kwargs)

        monkeypatch.setattr(FieldElement, "from_integers", classmethod(counted))
        calls = []
        for n, poly, tset, _ in scenes:
            made.clear()
            assert verify_covering(poly, tset).multiplicity == 7 * n * n
            calls.append(len(made))
        assert calls[1] - calls[0] < (2500 - 676) / 10, calls


class _RefSegment:
    """An arrangement edge with its closed bounding box."""

    def __init__(self, p, q):
        self.p, self.q = p, q
        self.xlo, self.xhi = sorted((p.x, q.x))
        self.ylo, self.yhi = sorted((p.y, q.y))


def all_pairs_crossing_abscissas(segments, xmin, xmax):
    """The crossing abscissas in [xmin, xmax] by testing every pair of
    segments, as the sweep did before it was clipped and pruned."""
    xs = []
    for i in range(len(segments)):
        si = segments[i]
        for j in range(i + 1, len(segments)):
            sj = segments[j]
            if (si.xhi - sj.xlo).sign() < 0 or (sj.xhi - si.xlo).sign() < 0:
                continue
            if (si.yhi - sj.ylo).sign() < 0 or (sj.yhi - si.ylo).sign() < 0:
                continue
            a = si.q - si.p
            b = sj.q - sj.p
            den = a.cross(b)
            if den.is_zero():
                continue
            c = sj.p - si.p
            t = c.cross(b) / den
            u = c.cross(a) / den
            if t.sign() < 0 or (t - 1).sign() > 0 or u.sign() < 0 or (u - 1).sign() > 0:
                continue
            x = si.p.x + t * a.x
            if (x - xmin).sign() >= 0 and (xmax - x).sign() >= 0:
                xs.append(x)
    return xs


def all_pairs_events(poly, translates, region):
    """Every edge endpoint and edge crossing abscissa in the region's
    x-range, over all region and translate edges, sorted and deduplicated."""
    segments = [_RefSegment(a, b) for a, b in edges(region)]
    segments += [_RefSegment(a + lam, b + lam) for lam, _ in translates for a, b in edges(poly)]
    rb = region.bbox
    xs = [rb.x0, rb.x1]
    xs += [x for s in segments for x in (s.p.x, s.q.x) if rb.x0 <= x <= rb.x1]
    xs += all_pairs_crossing_abscissas(segments, rb.x0, rb.x1)
    return sorted(set(xs))


def arrangement_event_scenes():
    """(poly, tset, region) cases whose sweep is held to the oracles: every
    region is convex, and the √2 octagon's cell edges are not axis-aligned."""
    scenes = []
    # over Q(√2,√3) the grid is ordered by exact signs of four-term
    # numerators; with beta = 3880899 - 2744210√2, about 1.3e-7, translate
    # abscissas sit so close to the cell's integer ones that several signs
    # need enclosures past 32 bits
    betas = [Fraction(0), Fraction(1, 3), F2.sqrt(2), F23.sqrt(2) + F23.sqrt(3), 3880899 - 2744210 * F2.sqrt(2)]
    for beta in betas:
        poly, tset = builtin_scene("octagon-family", beta=beta)
        scenes.append((poly, tset, verification_region(poly, tset)))
    poly, tset = builtin_scene("tetromino-union")
    scenes.append((poly, tset, verification_region(poly, tset)))
    poly, tset = builtin_scene("octagon-family", beta=Fraction(1, 3))
    scenes.append((poly, tset, Polygon(corners(qbox(0, 0, 4, 4)))))
    # a window lower than a vertical period: some crossings in its
    # x-range happen only below it, where edges must not be clipped
    scenes.append((poly, tset, Polygon(corners(qbox(Fraction(1, 3), Fraction(1, 5), 2, H)))))
    poly, tset = concurrent_crossing_scene()
    scenes.append((poly, tset, verification_region(poly, tset)))
    rng = random.Random(20260810)
    for _ in range(8):
        z, dec = bounded_random_polygon(rng)
        poly, tset = Polygon.from_zonotope(z), single(dec.witness_lattice)
        scenes.append((poly, tset, verification_region(poly, tset)))
    return scenes


def located_faces(poly, translates, region, slabs):
    """(x0, x1, sample, count) of every ladder gap on the given slabs whose
    sample ``oracles.locate`` puts strictly inside, bottom to top in each
    slab: the region filter the sweep used before it read membership off
    its ladder, over brute-force ladders of every non-vertical edge."""
    weighted = [(a, b, 0) for a, b in edges(region)]
    weighted += [(a + lam, b + lam, mult) for lam, mult in translates for a, b in edges(poly)]
    out = []
    for xa, xb in zip(slabs, slabs[1:]):
        xm = (xa + xb) / 2
        ladder = []
        for p, q, mult in weighted:
            dx = (q.x - p.x).sign()
            if dx and (xm - p.x).sign() == dx and (q.x - xm).sign() == dx:
                ladder.append((p.y + (xm - p.x) * (q.y - p.y) / (q.x - p.x), dx * mult))
        ladder.sort(key=lambda rung: rung[0])
        rungs = []
        count = 0
        for y, weight in ladder:
            count += weight
            if rungs and (y - rungs[-1][0]).is_zero():
                rungs[-1][1] = count
            else:
                rungs.append([y, count])
        for (ylo, c), (yhi, _) in zip(rungs, rungs[1:]):
            pt = PlaneVector(xm, (ylo + yhi) / 2)
            if oracles.locate(region, pt) == 1:
                out.append((xa, xb, pt, c))
    return out


class TestArrangementEvents:
    """The slab-local sweep cuts the region into the same slabs as the
    all-pairs event list, and keeps the same faces as point location."""

    def test_face_slabs_are_the_all_pairs_events(self):
        for poly, tset, region in arrangement_event_scenes():
            grid, translates = region_translates(poly, tset, region)
            faces = arrangement_faces(poly, grid, translates, region)
            translates = [(grid_vector(grid, p), k) for p, k in translates]
            # every region is convex, so every slab holds a face
            got = {f.x0 for f in faces} | {f.x1 for f in faces}
            assert sorted(got) == all_pairs_events(poly, translates, region)

    def test_region_membership_is_read_off_the_ladder(self, monkeypatch):
        calls = []

        def counted(poly, p):
            calls.append(p)
            return locate(poly, p)

        monkeypatch.setattr(oracles, "locate", counted)
        for poly, tset, region in arrangement_event_scenes():
            grid, translates = region_translates(poly, tset, region)
            faces = arrangement_faces(poly, grid, translates, region)
            translates = [(grid_vector(grid, p), k) for p, k in translates]
            assert calls == []
            slabs = sorted({f.x0 for f in faces} | {f.x1 for f in faces})
            got = [(f.x0, f.x1, f.sample, f.count) for f in faces]
            assert got == located_faces(poly, translates, region, slabs)
            calls.clear()

    def test_corner_heights_are_the_edge_heights(self):
        # _Segment.height reads the grid; the oracle evaluates the edge
        # with field arithmetic from its endpoints
        def y_at(segment, x):
            p, q = (grid_vector(segment.grid, end) for end in segment.ends)
            return p.y + (x - p.x) * (q.y - p.y) / (q.x - p.x)

        for poly, tset, region in arrangement_event_scenes():
            for f in arrangement_faces(poly, *region_translates(poly, tset, region), region):
                expected = [
                    y_at(f.lower, f.x0),
                    y_at(f.lower, f.x1),
                    y_at(f.upper, f.x1),
                    y_at(f.upper, f.x0),
                ]
                heights = [f.lower.height(f.x0), f.lower.height(f.x1), f.upper.height(f.x1), f.upper.height(f.x0)]
                got = [FieldElement.from_integers(poly.field, *h) for h in heights]
                assert got == expected


class TestCollinearLines:
    """Edges that share a line are one rung of the ladder, whatever their
    weights sum to, and a region line toggles "inside" only in the slabs
    its region edge spans."""

    def unit_squares(self, *vertices):
        return Polygon([V(x, y) for x, y in vertices]), single(PlaneLattice(V(1, 0), V(0, 1)))

    def assert_faces_are_the_oracle(self, poly, tset, region):
        faces = arrangement_faces(poly, *region_translates(poly, tset, region), region)
        assert faces
        for face in faces:
            assert face.count == covering_at(poly, tset, face.sample)
        return faces

    def test_cancelling_edges_still_split_faces(self):
        # on Z^2 every horizontal line holds the top of one square (-1)
        # and the bottom of the next (+1): a rung of weight 0
        poly, tset = self.unit_squares((0, 0), (1, 0), (1, 1), (0, 1))
        assert verify_covering(poly, tset).cells_checked == 1
        faces = self.assert_faces_are_the_oracle(poly, tset, Polygon(corners(qbox(0, 0, 1, 2))))
        assert [(f.sample, f.count) for f in faces] == [(V(H, H), 1), (V(H, Fraction(3, 2)), 1)]

    def test_region_line_toggles_only_where_its_region_edge_spans(self):
        # y = 0 holds the octagons' horizontal edges at every abscissa; it
        # is the cell's bottom edge, and in the trapezoid it is the bottom
        # edge over 0 < x < 1 only, and lies below the region beyond
        poly, tset = builtin_scene("octagon-family")
        assert verify_covering(poly, tset).cells_checked == 24
        for region in (verification_region(poly, tset), Polygon([V(0, 0), V(1, 0), V(2, 1), V(0, 1)])):
            grid, translates = region_translates(poly, tset, region)
            faces = self.assert_faces_are_the_oracle(poly, tset, region)
            slabs = sorted({f.x0 for f in faces} | {f.x1 for f in faces})
            translates = [(grid_vector(grid, p), k) for p, k in translates]
            assert [(f.x0, f.x1, f.sample, f.count) for f in faces] == located_faces(poly, translates, region, slabs)

    def test_collinear_vertex_edges_share_a_line(self):
        # the bottom edge listed as two edges through (1/2, 0): both are
        # on one line, and the vertex adds an event
        poly, tset = self.unit_squares((0, 0), (H, 0), (1, 0), (1, 1), (0, 1))
        report = verify_covering(poly, tset)
        assert (report.constant, report.multiplicity, report.cells_checked) == (True, 1, 2)
        self.assert_faces_are_the_oracle(poly, tset, verification_region(poly, tset))


class TestSweepWork:
    def test_abscissas_are_ranked_once_per_column(self, monkeypatch):
        # the lattice octagon on (1/2)Z^2: 64 translates meet the cell's
        # bbox, in 8 columns of one abscissa each; the abscissa ranking
        # sees the region's 4 corners and 8 vertex abscissas per column,
        # not 8 per translate
        sizes = []
        ranks = arrangement._ranks

        def counted(values, key):
            values = list(values)
            sizes.append(len(values))
            return ranks(values, key)

        monkeypatch.setattr(arrangement, "_ranks", counted)
        half = PlaneLattice(V(Fraction(1, 2), 0), V(0, Fraction(1, 2)))
        poly, tset = lattice_octagon(), periodic_set([(half, V(0, 0))])
        b1, b2 = half.basis()
        grid, translates = region_translates(poly, tset, Polygon([V(0, 0), b1, b1 + b2, b2]))
        assert (len(translates), len({x for (x, _), _ in translates})) == (64, 8)
        assert verify_covering(poly, tset).multiplicity == 28
        assert sizes[0] == 4 + 8 * 8

    def test_one_segment_per_line(self, monkeypatch):
        # the lattice octagon's translate edges pair up on common lines:
        # its 98 live edges on (1/2)Z^2 lie on 40 lines, and its 4,802 on
        # (1/16)Z^2 on 292, each built once
        built = []
        init = arrangement._Segment.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(arrangement._Segment, "__init__", counted)
        lines = []
        for n in (2, 16):
            built.clear()
            tset = single(PlaneLattice(V(Fraction(1, n), 0), V(0, Fraction(1, n))))
            assert verify_covering(lattice_octagon(), tset).multiplicity == 7 * n * n
            assert len({(s.rise, s.base) for s in built}) == len(built)
            lines.append(len(built))
        assert lines == [40, 292]

    def test_heights_take_one_product_per_rise(self, monkeypatch):
        # the lattice octagon's live edges and the cell's have three slopes
        # (0, 1 and -1), so ranking the heights at an event takes at most
        # three products, however many lines cross it
        per_event = []
        inside = []
        product, height_ranks = Field.product, arrangement._height_ranks

        def counted_product(self, a, b):
            if inside:
                per_event[-1] += 1
            return product(self, a, b)

        def counted_ranks(*args):
            per_event.append(0)
            inside.append(True)
            try:
                return height_ranks(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(Field, "product", counted_product)
        monkeypatch.setattr(arrangement, "_height_ranks", counted_ranks)
        half = PlaneLattice(V(H, 0), V(0, H))
        assert verify_covering(lattice_octagon(), single(half)).multiplicity == 28
        assert len(per_event) == 2 and max(per_event) <= 3, per_event


class TestGridOrder:
    def test_sorts_convergent_differences_like_field_elements(self):
        # p - q√2 for the convergents p/q of √2 shrink like 1/q and alternate
        # in sign; over q up to about 10**12 the 32-bit enclosure cannot
        # separate them, so the grid order must refine its integer signs
        convergents = [(1, 1)]
        while convergents[-1][1] < 10**12:
            p, q = convergents[-1]
            convergents.append((p + 2 * q, p + q))
        r2 = F2.sqrt(2)
        values = [p - q * r2 for p, q in convergents]
        values += [v / 3 for v in values[::2]] + [-v / 7 for v in values[1::2]] + [F2.zero(), F2.one()]
        grid = Grid(F2, math.lcm(*(v.den for v in values)))
        xs = [grid.scale(v.nums, v.den) for v in values]
        assert len(set(xs)) == len(values)
        assert [grid.element(x) for x in sorted(xs, key=grid.key)] == sorted(values)
        assert [grid.element(x) for x in sorted(xs, key=grid.key, reverse=True)] == sorted(values, reverse=True)


class TestStripProfile:
    def test_octagon_profile(self):
        assert strip_profile(lattice_octagon(), octagon_strip_lattice(), range(6)) == [4, 3, 4, 3, 4, 3]

    def test_centered_square_profile(self):
        sq = Polygon(Zonotope([V(1, 0), V(0, 1)]).vertices())
        assert strip_profile(sq, PlaneLattice(V(1, 0), V(0, 1)), range(2)) == [1, 1]

    def test_skewed_vertical_lattice(self):
        # span{(1,1),(0,3)} has horizontal period 3; the unit square tiles
        # with it at multiplicity... area 1 / det 3 is not integral, so the
        # strips cannot be constant; just confirm the profile machinery
        # accepts the skewed basis and reports the non-constant strip
        sq = Polygon(Zonotope([V(1, 0), V(0, 1)]).vertices())
        lat = PlaneLattice(V(1, 1), V(0, 3))
        with pytest.raises(GeometryError):
            strip_profile(sq, lat, range(1))

    def test_hexagon_strips_are_not_constant(self):
        # mean covering per strip is 3/2, 0, 3/2: no integer profile exists
        hexagon = Polygon(Zonotope([V(1, 0), V(0, 1), V(-1, 1)]).vertices())
        lat = PlaneLattice(V(1, 0), V(0, 3))
        with pytest.raises(GeometryError):
            strip_profile(hexagon, lat, range(3))
        # the strip [0,1] really does take both values, and [1,2] is empty
        ts = single(lat)
        assert covering_at(hexagon, ts, V(Fraction(1, 10), H)) == 2
        assert covering_at(hexagon, ts, V(Fraction(3, 5), H)) == 1
        assert covering_at(hexagon, ts, V(Fraction(1, 10), Fraction(3, 2))) == 0

    def test_irrational_horizontal_scale(self):
        # a sqrt2-wide parallelogram tiles with its own lattice, one per strip
        f = F2
        z = Zonotope([V(f.sqrt(2), 0, f), V(0, 2, f)])
        lat = PlaneLattice(V(f.sqrt(2), 0, f), V(0, 2, f))
        assert strip_profile(Polygon.from_zonotope(z), lat, range(2)) == [1, 1]

    def test_non_axis_lattice_rejected(self):
        f = F2
        skew = PlaneLattice(V(1, 0, f), V(f.sqrt(2), 1, f))
        assert not skew.basis()[1].x.is_zero()
        with pytest.raises(GeometryError):
            strip_profile(lattice_octagon(f), skew, range(1))


class TestTetrominoSuite:
    def test_l1_tiles_window(self):
        poly, ts = builtin_scene("tetromino-L1")
        report = verify_covering(poly, ts)
        assert report.constant and report.multiplicity == 1
        assert report.window_relative

    def test_l2_tiles_window(self):
        poly, ts = builtin_scene("tetromino-L2")
        report = verify_covering(poly, ts)
        assert report.constant and report.multiplicity == 1

    def test_union_covers_twice(self):
        poly, ts = builtin_scene("tetromino-union")
        report = verify_covering(poly, ts)
        assert report.constant and report.multiplicity == 2

    def test_l2_alone_has_the_diagonal_period(self):
        # L2 by itself is invariant under (2,2): both membership clauses
        # are preserved, so the aperiodicity claim belongs to the union
        for m in range(-8, 9):
            for n in range(-8, 9):
                assert tetromino_l2_multiplicity(m, n) == tetromino_l2_multiplicity(m - 2, n - 2)

    def test_union_has_no_nonzero_period_on_the_grid(self):
        # multiset multiplicities checked directly over the window for
        # every candidate shift in [-4,4]^2
        from zonotile.patterns import tetromino_union_multiplicity as union

        for vx in range(-4, 5):
            for vy in range(-4, 5):
                if vx == 0 and vy == 0:
                    continue
                moved = any(
                    union(m, n) != union(m - vx, n - vy)
                    for m in range(-6, 7)
                    for n in range(-6, 7)
                )
                assert moved, f"shift ({vx},{vy}) fixes the union pattern"

    def test_window_too_small(self):
        poly, ts = builtin_scene("tetromino-L1", window=(-1, -1, 1, 1))
        with pytest.raises(GeometryError):
            verify_covering(poly, ts)
