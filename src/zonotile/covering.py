"""Brute-force covering verification: does a translate set cover the plane
a constant number of times?

A translate set is one weighted list of offsets, each with a lattice
when the set is periodic.  The covering function x -> #{translates whose
interior contains x} is piecewise constant on the faces of the
arrangement of all translate edges.  For a periodic translate set it
suffices to certify constancy on one fundamental cell of the common
period lattice; a windowed set only ever gets a verdict relative to its
rational window (``window_region``).  ``verify_covering`` reads the faces
of that region from ``arrangement_faces`` (:mod:`zonotile.arrangement`),
an exact vertical decomposition with one count per face.

Each scene is put on one integer grid (``arrangement.Grid``) once, by
``region_translates``: the region's and the polygon's rows, the search
box, the offsets and the lattices' Hermite rows become integer numerator
tuples over their common denominator D.  The translate positions are
enumerated on that grid, stepping by b1 and b2 from each offset, and
reach the sweep and the renderer as grid tuples, merged by position,
with no vector built.  Each lattice's index range is one ``Field.divide``
and ``Field.floor`` per end, and all of a scene's ranges are counted
against one enumeration budget before any point is made.
``region_translates`` is the one translate enumerator: the reference
checks in :mod:`zonotile.oracles` list the translates by element
arithmetic of their own.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, neg, sub

from .arrangement import Face, Grid, arrangement_faces
from .errors import FieldError, GeometryError, InternalError, WindowError
from .field import Field, FieldElement
from .lattice import (
    PlaneLattice, PlaneVector, ccw_rows, doubled_area, integer_rows, intersect, lowest_rows, row_cross,
    vectors_from_rows,
)

__all__ = [
    "Polygon",
    "Box",
    "TranslateSet",
    "VerifyReport",
    "Face",
    "region_translates",
    "window_region",
    "arrangement_faces",
    "verify_covering",
]


# The most candidate points one box enumeration may visit.  The largest
# count the tests reach is 2,500 (the lattice octagon on (1/16)Z^2), so
# this cap sits about 26 times above it; larger work is refused before it
# starts.
MAX_BOX_CANDIDATES = 2**16


def check_budget(count: int, what: str, where: str = "the box") -> None:
    """Refuse ``count`` candidate ``what`` in ``where`` over the cap, before any is made."""
    if count > MAX_BOX_CANDIDATES:
        # a count can have more digits than str converts: name its size in bits then
        size = count if count.bit_length() <= 64 else f"over 2^{count.bit_length() - 1}"
        raise GeometryError(f"{where} holds {size} candidate {what}, over the enumeration budget of {MAX_BOX_CANDIDATES}")


class Box(namedtuple("Box", "x0 y0 x1 y1")):
    """A closed axis-aligned box with exact field-element corners, the
    lower left (x0, y0) and the upper right (x1, y1)."""

    __slots__ = ()


class Polygon:
    """A simple polygon: its vertices' integer ``rows``, counterclockwise,
    over their least common denominator ``den``, flattened as in
    ``integer_rows``.  The vector constructor flattens its vertices once
    and delegates to :meth:`from_rows`; ``vertices`` are built when read."""

    __slots__ = ("field", "rows", "den", "bbox")

    def __init__(self, vertices):
        vs = list(vertices)
        self._hold(vs[0].field if vs else None, *integer_rows(vs))

    @classmethod
    def from_rows(cls, field: Field, rows, den: int) -> "Polygon":
        """The polygon whose vertices, flattened as in ``integer_rows``,
        are ``rows`` over the positive ``den``; the JSON decoder and
        :meth:`from_zonotope` build polygons this way."""
        p = cls.__new__(cls)
        p._hold(field, rows, den)
        return p

    @classmethod
    def from_zonotope(cls, z) -> "Polygon":
        return cls.from_rows(z.field, *z.vertex_rows())

    def _hold(self, field: Field, rows, den: int) -> None:
        """Keep the rows as :func:`~zonotile.lattice.ccw_rows` reads them, over
        their least common denominator, and the bounding box read off them."""
        rows, den = lowest_rows(ccw_rows(field, rows), den)
        self.field, self.rows, self.den = field, rows, den
        n = field.size
        key = field.order_key()
        xs, ys = [row[:n] for row in rows], [row[n:] for row in rows]
        ends = (min(xs, key=key), min(ys, key=key), max(xs, key=key), max(ys, key=key))
        self.bbox = Box(*(FieldElement.from_integers(field, nums, den) for nums in ends))

    @property
    def vertices(self) -> tuple[PlaneVector, ...]:
        return tuple(vectors_from_rows(self.field, self.rows, self.den))

    def area(self) -> FieldElement:
        """The enclosed area, by the shoelace formula."""
        return FieldElement.from_integers(self.field, doubled_area(self.field, self.rows), 2 * self.den**2)

    def is_simple(self) -> bool:
        """Whether no two non-adjacent edges meet, by one exact sweep over
        x: with the edges sorted by the ranks of their end abscissas, each
        is tested against the earlier ones whose closed x-range reaches its
        left end, so every pair that can meet is tested once (O(n**2) pairs
        at worst, on many edges over one x-range).  Only a vertex list read
        from a document is checked: polygons built from zonotopes and the
        verification regions are simple by construction."""
        field, rows, n = self.field, self.rows, self.field.size
        rank = {x: i for i, x in enumerate(sorted({row[:n] for row in rows}, key=field.order_key()))}
        m, reach = len(rows), []
        # edge i runs from rows[i - 1] to rows[i]: edges i - 1 and i + 1 (mod m) share its ends
        for lo, hi, i in sorted((*sorted((rank[rows[i - 1][:n]], rank[rows[i][:n]])), i) for i in range(m)):
            reach = [(end, j) for end, j in reach if end >= lo]
            if any(_segments_meet(field, rows[i - 1], rows[i], rows[j - 1], rows[j])
                   for _, j in reach if (i - j) % m not in (1, m - 1)):
                return False
            reach.append((hi, i))
        return True


def _orient(field: Field, a, b, c) -> int:
    """+1 when the rows a, b, c turn counterclockwise, -1 clockwise, 0 collinear."""
    return field.sign(row_cross(field, [y - x for x, y in zip(a, b)], [y - x for x, y in zip(a, c)]))


def _segments_meet(field: Field, p, q, r, s) -> bool:
    """Whether the closed segments pq and rs, ends given as rows, meet."""
    d1, d2 = _orient(field, r, s, p), _orient(field, r, s, q)
    d3, d4 = _orient(field, p, q, r), _orient(field, p, q, s)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    n = field.size

    def on(a, b, c):  # c on the segment ab, given that the three are collinear
        ca, cb = [x - y for x, y in zip(c, a)], [x - y for x, y in zip(c, b)]
        return field.sign(tuple(map(add, field.product(ca[:n], cb[:n]), field.product(ca[n:], cb[n:])))) <= 0

    return (
        (d1 == 0 and on(r, s, p))
        or (d2 == 0 and on(r, s, q))
        or (d3 == 0 and on(p, q, r))
        or (d4 == 0 and on(p, q, s))
    )


class TranslateSet:
    """A discrete multiset as one weighted point list: offsets flattened as
    in ``integer_rows`` into ``rows`` over ``den``, with nonzero integer
    ``weights``.  A periodic set has one of its ``lattices`` per offset
    (a decoded one weight 1 each); a windowed set has ``lattices`` None
    and a verdict relative to the rational ``window``."""

    __slots__ = ("field", "rows", "den", "weights", "lattices", "window")

    def __init__(self, field: Field, rows, den: int, weights, lattices, window):
        self.field, self.rows, self.den, self.weights = field, tuple(map(tuple, rows)), den, tuple(weights)
        self.lattices, self.window = lattices, window
        if len(self.rows) != len(self.weights) or not all(self.weights):
            raise GeometryError("a translate set needs one nonzero weight per listed point")

    @classmethod
    def periodic(cls, field: Field, lattices, rows, den: int) -> "TranslateSet":
        """The union of the translates lattices[i] + rows[i] / den."""
        lattices, rows = tuple(lattices), tuple(rows)
        if not lattices or len(lattices) != len(rows):
            raise GeometryError("periodic translate set needs at least one part, and one lattice per offset")
        return cls(field, rows, den, [1] * len(rows), lattices, None)

    @classmethod
    def windowed(cls, field: Field, rows, den: int, weights, window) -> "TranslateSet":
        return cls(field, rows, den, weights, None, tuple(Fraction(w) for w in window))

    @property
    def is_periodic(self) -> bool:
        return self.lattices is not None

    def period_lattice(self) -> PlaneLattice:
        if not self.is_periodic:
            raise GeometryError("windowed translate sets have no period lattice")
        return reduce(intersect, dict.fromkeys(self.lattices))


def _scene_grid(field: Field, tset: TranslateSet, polygons, box: Box) -> Grid:
    """The grid of the polygons' rows, the box corners, the translate
    set's offsets and its lattices' Hermite rows."""
    held = [*polygons, *box, tset, *(tset.lattices or ())]
    if any(x.field is not field for x in held):
        raise FieldError(f"a point of the scene is not over {field!r}")
    return Grid(field, lcm(*(x.den for x in held)))


def _positions(grid: Grid, tset: TranslateSet, box: Box) -> list:
    """Every translate position in the closed box with its weight, offset
    by offset and unmerged, as grid points.  Each lattice's basis is put
    on the grid once, for its index ranges and its candidates, and every
    lattice's candidates are counted against the budget first; one box
    test keeps listed points and lattice points alike.  The grid must hold
    the box corners and the translate set (``_scene_grid``)."""
    bounds = x0, y0, x1, y1 = [grid.scale(c.nums, c.den) for c in box]
    points = zip(grid.rows(tset.rows, tset.den), tset.weights)
    if tset.is_periodic:
        parts = [(grid.rows(lat.rows, lat.den), z, k) for lat, (z, k) in zip(tset.lattices, points)]
        ranges = [_index_ranges(grid, basis, z, bounds) for basis, z, _ in parts]
        check_budget(sum(max(ahi - alo + 1, 0) * max(bhi - blo + 1, 0) for alo, ahi, blo, bhi in ranges),
                     "lattice points")
        points = ((p, k) for (basis, z, k), r in zip(parts, ranges) for p in _lattice_points(basis, z, r))
    below = grid.le
    return [((x, y), k) for (x, y), k in points if below(x0, x) and below(x, x1) and below(y0, y) and below(y, y1)]


def _index_ranges(grid: Grid, basis, z, bounds) -> tuple[int, int, int, int]:
    """The least and greatest a, then b, of the candidates z + a*b1 + b*b2
    inside the closed box of the grid bounds x0, y0, x1, y1, for the
    lattice basis b1, b2 and the point z on the grid.

    The lattice coordinates of a corner less z are cross products of
    numerator tuples over the basis determinant, linear in the corner, so
    the extreme corners by grid order bound the range."""
    b1, b2 = (x + y for x, y in basis)
    (zx, zy), (x0, y0, x1, y1) = z, bounds
    field = grid.field
    det = row_cross(field, b1, b2)
    corners = [(*map(sub, x, zx), *map(sub, y, zy)) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]

    def integer_range(scaled):
        lo, hi = min(scaled, key=grid.key), max(scaled, key=grid.key)
        if field.sign(det) < 0:
            lo, hi = hi, lo
        # ceil(lo / det) is -floor(-lo / det)
        return -field.floor(*field.divide(tuple(map(neg, lo)), 1, det, 1)), field.floor(*field.divide(hi, 1, det, 1))

    return (*integer_range([row_cross(field, c, b2) for c in corners]),
            *integer_range([row_cross(field, b1, c) for c in corners]))


def _lattice_points(basis, z, ranges):
    """The candidates z + a*b1 + b*b2 of ``_index_ranges`` as grid points,
    for the basis b1, b2 and z on the grid, row by row in a; each is one
    integer step of b2 or b1 from the last."""
    ((b1x, b1y), (b2x, b2y)), (zx, zy), (alo, ahi, blo, bhi) = basis, z, ranges
    rx = tuple([c + alo * m + blo * n for c, m, n in zip(zx, b1x, b2x)])
    ry = tuple([c + alo * m + blo * n for c, m, n in zip(zy, b1y, b2y)])
    for _ in range(alo, ahi + 1):
        px, py = rx, ry
        for _ in range(blo, bhi + 1):
            yield px, py
            px, py = tuple(map(add, px, b2x)), tuple(map(add, py, b2y))
        rx, ry = tuple(map(add, rx, b1x)), tuple(map(add, ry, b1y))


class VerifyReport(namedtuple("VerifyReport", "constant multiplicity counterexample cells_checked window_relative")):
    """Outcome of :func:`verify_covering`.

    ``constant``: whether every face has the same count.
    ``multiplicity``: that count when constant, else None.
    ``counterexample``: ((sample, count), (sample, count)) of a least and
    a greatest face count when not constant, else None.
    ``cells_checked``: the number of faces sampled.
    ``window_relative``: whether the verdict holds only on a window."""

    __slots__ = ()


def region_translates(poly: Polygon, tset: TranslateSet, region: Polygon):
    """The scene on its grid: the one place a scene is put on a grid.

    Returns the grid of the region's and the polygon's vertices, the
    search box, the offsets and the lattices' bases, and the translates whose
    copy of poly can meet the region's bounding box, each position once as
    a grid point with its summed multiplicity, in order of first
    appearance."""
    pb, rb = poly.bbox, region.bbox
    search = Box(rb.x0 - pb.x1, rb.y0 - pb.y1, rb.x1 - pb.x0, rb.y1 - pb.y0)
    grid = _scene_grid(poly.field, tset, (region, poly), search)
    merged: dict[tuple, int] = {}
    for p, k in _positions(grid, tset, search):
        merged[p] = merged.get(p, 0) + k
    return grid, list(merged.items())


def _report(faces: list[Face], window_relative: bool) -> VerifyReport:
    lo = min(faces, key=lambda f: f.count)
    hi = max(faces, key=lambda f: f.count)
    if lo.count == hi.count:
        return VerifyReport(True, lo.count, None, len(faces), window_relative)
    counterexample = ((lo.sample, lo.count), (hi.sample, hi.count))
    return VerifyReport(False, None, counterexample, len(faces), window_relative)


def _periodic_region(tset: TranslateSet) -> Polygon:
    """The period lattice's fundamental cell 0, b1, b1 + b2, b2, on its rows."""
    period = tset.period_lattice()
    h1, h2 = period.rows
    rows = [(0,) * len(h1), h1, tuple(map(add, h1, h2)), h2]
    return Polygon.from_rows(period.field, rows, period.den)


def window_region(field: Field, window, poly: Polygon | None = None) -> Polygon:
    """The rectangle of the rational window [x0, y0, x1, y1] on rows; given
    poly, the window shrunk by its extent, with corners the margin sums
    wx0 + x1, wy0 + y1, wx1 + x0 and wy1 + y0 of the window's rationals and
    poly's bounding box, as numerators over one denominator."""
    pb = poly.bbox if poly is not None else Box(*(field.zero(),) * 4)
    ends = (pb.x1, pb.y1, pb.x0, pb.y0)
    den = lcm(*(w.denominator for w in window), *(e.den for e in ends))
    margins = []
    for w, e in zip(window, ends):
        nums = [n * (den // e.den) for n in e.nums]
        nums[0] += w.numerator * (den // w.denominator)
        margins.append(nums)
    x0, y0, x1, y1 = margins
    if field.sign(tuple(map(sub, x1, x0))) <= 0 or field.sign(tuple(map(sub, y1, y0))) <= 0:
        raise WindowError("window is too small for the polygon's diameter margin" if poly else "window is empty")
    return Polygon.from_rows(field, [x0 + y0, x1 + y0, x1 + y1, x0 + y1], den)


def verify_covering(poly: Polygon, tset: TranslateSet) -> VerifyReport:
    """Certify covering constancy exactly, one sample per arrangement face.

    Periodic sets are checked on one closed fundamental cell of the common
    period lattice, which certifies the whole plane, and a constant
    verdict is checked against the density count.  Windowed sets are
    checked on the window shrunk by the polygon's extent and the verdict
    is marked window-relative.
    """
    if tset.is_periodic:
        region = _periodic_region(tset)
        window_relative = False
    else:
        region = window_region(poly.field, tset.window, poly)
        window_relative = True
    faces = arrangement_faces(poly, *region_translates(poly, tset, region), region)
    report = _report(faces, window_relative)
    if report.constant and tset.is_periodic:
        _check_density(poly, tset, report.multiplicity)
    return report


def _check_density(poly: Polygon, tset: TranslateSet, multiplicity: int) -> None:
    """Hold a constant periodic count to area(P) * sum_j w_j/det(L_j).

    Averaged over a large disc, the covering count of P + (L_j + z_j) of
    weight w_j tends to w_j * area(P) / det(L_j), so a constant count must
    equal their sum; a mismatch, an irrational ratio included, is a bug
    in the sweep, not bad input."""
    area = poly.area()
    ratios = [lat.det_ratio(area.nums, area.den) for lat in tset.lattices]
    density = None if None in ratios else sum(k * abs(r) for k, r in zip(tset.weights, ratios))
    if density != multiplicity:
        raise InternalError(
            f"internal: the faces count {multiplicity} but the density count is "
            f"{'irrational' if density is None else density}"
        )
