"""Brute-force covering verification: does a translate set cover the plane
a constant number of times?

The covering function x -> #{translates whose interior contains x} is
piecewise constant on the faces of the arrangement of all translate
edges.  For a periodic translate set it suffices to certify constancy on
one fundamental cell of the common period lattice; a windowed (explicit)
set only ever gets a window-relative verdict.

Faces are visited by an exact vertical decomposition: collect every edge
endpoint and edge crossing abscissa inside the cell, and between two
consecutive events walk the ladder of lines crossing the slab, bottom to
top.  Each gap between two consecutive lines is one face of the
arrangement restricted to the cell, with a count that is the sum of the
signed multiplicities of the edges below it.  A face's sample point, the
midpoint of its gap above the slab's midpoint, is computed only when it
is read (a counterexample, a test); it is strictly interior, so it never
lands on an edge and boundary handling never needs a tolerance.
``arrangement_faces`` is the one place this decomposition is built: the
verifier, the strip profiles and the SVG renderer all read its faces.

The sweep's cost follows the segments that reach the cell and the
crossings inside it, not the pairs of segments, and it orders by integer
ranks wherever it can.  Rank: every vertex abscissa is ranked once; the
events are the ranks from the cell's left end to its right end, and the
live test and the filing below compare ranks, not field elements.  Clip:
only the live segments, non-vertical and with an open x-range meeting
the cell's, take part further; a translate edge shares the slope of its
polygon edge, computed once per polygon edge.  No segment is clipped in
y, since those below the cell carry the ladder weights.  Ladder: each
live segment is filed under the slabs between the ranks of its two
ends, so a slab holds just the segments spanning it, in construction
order.
Heights are ranked at each endpoint event, and two segments of a slab
lie on one line exactly when their (left rank, right rank) pairs are
equal; each line is one rung of the ladder with its segments' summed
weight, and sorted by that pair the lines are the ladder of the slab's
first sub-slab.  Swap: no segment starts or ends strictly between two
consecutive endpoint events, so two lines of a slab cross strictly
inside it exactly when their ranks are strictly apart at both ends in
opposite orders.  Insertion-sorting the ladder from its left order into
its right order swaps exactly those pairs, the only ones intersected,
and files each under the cut where it crosses; at each cut an insertion
pass swaps just the pairs filed there, so no height is evaluated and no
field element sorted inside a slab.  Region: the region is convex, so
exactly one lower and one upper region edge span a slab.  Region edges
are built first and every sort is stable, so walking up the ladder, each
line that holds a region edge toggles "inside", and the faces kept are
exactly those strictly inside the region.

``covering_at`` counts one point by brute-force point location.  It is the
oracle the tests hold the propagated counts to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import BoundaryError, GeometryError, InternalError, WindowError
from .field import Field, FieldElement
from .lattice import PlaneLattice, PlaneVector, intersect, vector

__all__ = [
    "Polygon",
    "Box",
    "TranslateSet",
    "WindowPattern",
    "VerifyReport",
    "Face",
    "lattice_points_in_box",
    "region_translates",
    "arrangement_faces",
    "covering_at",
    "verify_covering",
    "strip_profile",
]


# The most candidate points one box enumeration may visit.  The largest
# count the tests and the bench reach is 676 (the lattice octagon on
# (1/8)Z^2), so this cap sits about 100 times above it; larger work is
# refused before it starts.
MAX_BOX_CANDIDATES = 2**16


def _check_budget(count: int, what: str) -> None:
    if count > MAX_BOX_CANDIDATES:
        raise GeometryError(
            f"the box holds {count} candidate {what}, over the enumeration budget of {MAX_BOX_CANDIDATES}"
        )


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box with exact field-element corners."""

    x0: FieldElement
    y0: FieldElement
    x1: FieldElement
    y1: FieldElement

    def corners(self) -> list[PlaneVector]:
        return [
            PlaneVector(self.x0, self.y0),
            PlaneVector(self.x1, self.y0),
            PlaneVector(self.x1, self.y1),
            PlaneVector(self.x0, self.y1),
        ]

    def shift(self, v: PlaneVector) -> "Box":
        return Box(self.x0 + v.x, self.y0 + v.y, self.x1 + v.x, self.y1 + v.y)

    def is_empty(self) -> bool:
        return self.x1 < self.x0 or self.y1 < self.y0

    def has_area(self) -> bool:
        return self.x1 > self.x0 and self.y1 > self.y0


class Polygon:
    """A simple polygon with exact vertices, oriented counterclockwise."""

    __slots__ = ("vertices", "bbox")

    def __init__(self, vertices):
        vs = list(vertices)
        if len(vs) < 3:
            raise GeometryError("a polygon needs at least 3 vertices")
        s = _doubled_area(vs).sign()
        if s == 0:
            raise GeometryError("degenerate polygon")
        if s < 0:
            vs.reverse()
        self.vertices = tuple(vs)
        xs = [v.x for v in vs]
        ys = [v.y for v in vs]
        self.bbox = Box(min(xs), min(ys), max(xs), max(ys))

    @classmethod
    def from_zonotope(cls, z) -> "Polygon":
        return cls(z.vertices())

    @property
    def field(self) -> Field:
        return self.vertices[0].field

    def area(self) -> FieldElement:
        """The enclosed area, by the shoelace formula."""
        return _doubled_area(self.vertices) / 2

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def is_simple(self) -> bool:
        """Whether no two non-adjacent edges meet, by an exact O(n**2) test.

        The constructor does not run it: polygons built from zonotopes and
        the verification regions are simple by construction, so only a
        vertex list read from a document is checked."""
        edges = self.edges()
        n = len(edges)
        for i in range(n):
            # the last edge is adjacent to the first
            for j in range(i + 2, n if i else n - 1):
                if _segments_meet(*edges[i], *edges[j]):
                    return False
        return True

    def locate(self, p: PlaneVector) -> int:
        """+1 strictly inside, 0 on the boundary, -1 strictly outside."""
        bb = self.bbox
        if p.x < bb.x0 or p.x > bb.x1 or p.y < bb.y0 or p.y > bb.y1:
            return -1
        parity = 0
        for a, b in self.edges():
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


def _doubled_area(vs) -> FieldElement:
    """Twice the signed area of the closed vertex cycle, positive when it
    turns counterclockwise."""
    doubled = vs[0].field.zero()
    for i in range(len(vs)):
        doubled = doubled + vs[i].cross(vs[(i + 1) % len(vs)])
    return doubled


def _orient(a: PlaneVector, b: PlaneVector, c: PlaneVector) -> int:
    """+1 when a, b, c turn counterclockwise, -1 clockwise, 0 collinear."""
    return (b - a).cross(c - a).sign()


def _segments_meet(p: PlaneVector, q: PlaneVector, r: PlaneVector, s: PlaneVector) -> bool:
    """Whether the closed segments pq and rs share a point."""
    d1, d2 = _orient(r, s, p), _orient(r, s, q)
    d3, d4 = _orient(p, q, r), _orient(p, q, s)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True

    def on(a, b, c):  # c on the segment ab, given that the three are collinear
        return (c - a).dot(c - b).sign() <= 0

    return (
        (d1 == 0 and on(r, s, p))
        or (d2 == 0 and on(r, s, q))
        or (d3 == 0 and on(p, q, r))
        or (d4 == 0 and on(p, q, s))
    )


class WindowPattern:
    """An explicit point multiset, defined by a membership rule on Z^2,
    truncated to a rational window."""

    __slots__ = ("name", "window", "_multiplicity")

    def __init__(self, name: str, window: tuple[Fraction, Fraction, Fraction, Fraction], multiplicity):
        self.name = name
        self.window = tuple(Fraction(w) for w in window)
        self._multiplicity = multiplicity

    def points_in(self, box: Box) -> list[tuple[PlaneVector, int]]:
        field = box.x0.field
        wx0, wy0, wx1, wy1 = self.window
        mlo = max(box.x0.ceil(), -(-wx0.numerator // wx0.denominator))
        mhi = min(box.x1.floor(), wx1.numerator // wx1.denominator)
        nlo = max(box.y0.ceil(), -(-wy0.numerator // wy0.denominator))
        nhi = min(box.y1.floor(), wy1.numerator // wy1.denominator)
        _check_budget(max(mhi - mlo + 1, 0) * max(nhi - nlo + 1, 0), "pattern points")
        out = []
        for m in range(mlo, mhi + 1):
            for n in range(nlo, nhi + 1):
                k = self._multiplicity(m, n)
                if k:
                    out.append((vector(field, m, n), k))
        return out


class TranslateSet:
    """A discrete multiset: a union of translated lattices, or a windowed
    explicit pattern."""

    __slots__ = ("parts", "pattern")

    def __init__(self, parts=None, pattern=None):
        if (parts is None) == (pattern is None):
            raise GeometryError("translate set needs lattice parts or a pattern")
        if parts is not None and not parts:
            raise GeometryError("periodic translate set needs at least one part")
        self.parts = tuple(parts) if parts is not None else None
        self.pattern = pattern

    @classmethod
    def periodic(cls, parts) -> "TranslateSet":
        return cls(parts=list(parts))

    @classmethod
    def windowed(cls, pattern: WindowPattern) -> "TranslateSet":
        return cls(pattern=pattern)

    @property
    def is_periodic(self) -> bool:
        return self.parts is not None

    def period_lattice(self) -> PlaneLattice:
        if not self.is_periodic:
            raise GeometryError("windowed patterns have no period lattice")
        return reduce(intersect, (lat for lat, _ in self.parts))

    def points_in(self, box: Box) -> list[tuple[PlaneVector, int]]:
        if self.is_periodic:
            out = []
            for lat, z in self.parts:
                for p in lattice_points_in_box(lat, box.shift(-z)):
                    out.append((p + z, 1))
            return out
        return self.pattern.points_in(box)


def lattice_points_in_box(lat: PlaneLattice, box: Box) -> list[PlaneVector]:
    """Exactly the lattice points inside the closed box, row by row in the
    first coordinate; each candidate is one step of b2 or b1 from the last."""
    if box.is_empty():
        return []
    corner_coords = [lat.coords(c) for c in box.corners()]
    a_vals = [c[0] for c in corner_coords]
    b_vals = [c[1] for c in corner_coords]
    alo, ahi = min(a_vals).ceil(), max(a_vals).floor()
    blo, bhi = min(b_vals).ceil(), max(b_vals).floor()
    _check_budget(max(ahi - alo + 1, 0) * max(bhi - blo + 1, 0), "lattice points")
    out = []
    row = lat.point(alo, blo)
    for _ in range(alo, ahi + 1):
        p = row
        for _ in range(blo, bhi + 1):
            if box.x0 <= p.x <= box.x1 and box.y0 <= p.y <= box.y1:
                out.append(p)
            p = p + lat.b2
        row = row + lat.b1
    return out


def covering_at(poly: Polygon, tset: TranslateSet, x: PlaneVector) -> int:
    """The number of translates of poly whose interior contains x.

    Raises BoundaryError when x lies on some translate boundary; the
    covering function is only defined off that measure-zero set.
    """
    bb = poly.bbox
    search = Box(x.x - bb.x1, x.y - bb.y1, x.x - bb.x0, x.y - bb.y0)
    count = 0
    for lam, mult in tset.points_in(search):
        loc = poly.locate(x - lam)
        if loc == 0:
            raise BoundaryError(f"query point lies on the boundary of a translate at {lam}")
        if loc > 0:
            count += mult
    return count


@dataclass(frozen=True)
class VerifyReport:
    constant: bool
    multiplicity: int | None
    counterexample: tuple[tuple[PlaneVector, int], tuple[PlaneVector, int]] | None
    cells_checked: int
    window_relative: bool


# -- exact face sampling -------------------------------------------------------


class _Segment:
    """An arrangement edge.  ``weight`` is the change in covering count on
    crossing it upwards: polygons are counterclockwise, so a rightward edge
    of a translate of multiplicity k enters it (+k) and a leftward one
    leaves it (-k).  Region edges weigh 0.  ``dx``, the sign of
    q.x - p.x, and ``slope`` come from :func:`_direction`; a translate
    edge takes them from the polygon edge it translates."""

    __slots__ = ("p", "q", "weight", "slope")

    def __init__(self, p: PlaneVector, q: PlaneVector, mult: int, dx: int, slope: FieldElement | None):
        self.p = p
        self.q = q
        self.weight = dx * mult
        self.slope = slope

    def y_at(self, x: FieldElement) -> FieldElement:
        """The height at abscissa x, the stored one at an endpoint."""
        if x == self.p.x:
            return self.p.y
        if x == self.q.x:
            return self.q.y
        return self.p.y + (x - self.p.x) * self.slope


def _direction(p: PlaneVector, q: PlaneVector) -> tuple[int, FieldElement | None]:
    """The sign of q.x - p.x and the slope of pq, None when it is vertical."""
    dx = q.x - p.x
    sign = dx.sign()
    return sign, (q.y - p.y) / dx if sign else None


def _ranks(values) -> dict[FieldElement, int]:
    """Integer ranks of exact values, equal values sharing a rank; the keys
    run in increasing order.

    Elements are canonical, so equal values hash and compare equal without
    field arithmetic; only the distinct values are sorted."""
    return {v: k for k, v in enumerate(sorted(set(values)))}


def _heights(x: FieldElement, segments) -> dict[_Segment, tuple[int, FieldElement]]:
    """Each segment's height at abscissa x, with its rank among them."""
    ys = {s: s.y_at(x) for s in dict.fromkeys(segments)}
    rank = _ranks(ys.values())
    return {s: (rank[y], y) for s, y in ys.items()}


def _crossings(ladder: list[_Segment], left, right, xa: FieldElement):
    """Where the lines of a slab cross strictly inside it.

    ``ladder`` holds one segment per line of the slab, sorted by the
    (left, right) height ranks, ``left`` and ``right`` their ranks and
    heights at the slab's two ends, and xa its left end.  Insertion-sorting
    by the right rank swaps exactly the pairs that are strictly apart at
    both ends in opposite orders, which are the pairs that cross inside;
    only those are intersected.  Returns the crossing abscissas in
    increasing order, and for each swapped pair, lower line first, the
    index of its abscissa among the slab's cuts: 1 for the first, since
    cut 0 is xa."""
    perm = list(ladder)
    at = {}
    for i in range(1, len(perm)):
        j = i
        while j and right[perm[j - 1]][0] > right[perm[j]][0]:
            s, t = perm[j - 1], perm[j]
            at[s, t] = xa + (left[t][1] - left[s][1]) / (s.slope - t.slope)
            perm[j - 1], perm[j] = t, s
            j -= 1
    cut = _ranks(at.values())
    return list(cut), {pair: cut[x] + 1 for pair, x in at.items()}


def _cross(ladder: list[_Segment], at, k: int) -> None:
    """Carry a slab's ladder across its cut k, in place.

    Just past the cut, two lines trade places exactly when they cross
    there, so an insertion pass that swaps the adjacent pairs ``at`` files
    under k sorts the ladder into its order above the next sub-slab."""
    for i in range(1, len(ladder)):
        j = i
        while j and at.get((ladder[j - 1], ladder[j])) == k:
            ladder[j - 1], ladder[j] = ladder[j], ladder[j - 1]
            j -= 1


def region_translates(poly: Polygon, tset: TranslateSet, region_bbox: Box):
    """The translates whose copy of poly can meet the box, each position
    once with its summed multiplicity, in order of first appearance."""
    pb = poly.bbox
    search = Box(
        region_bbox.x0 - pb.x1,
        region_bbox.y0 - pb.y1,
        region_bbox.x1 - pb.x0,
        region_bbox.y1 - pb.y0,
    )
    merged: dict[PlaneVector, int] = {}
    for lam, mult in tset.points_in(search):
        merged[lam] = merged.get(lam, 0) + mult
    return list(merged.items())


@dataclass(frozen=True)
class Face:
    """One trapezoid of the vertical decomposition: the part of the slab
    x0 < x < x1 strictly between two consecutive ladder segments."""

    x0: FieldElement
    x1: FieldElement
    lower: _Segment
    upper: _Segment
    count: int

    @property
    def sample(self) -> PlaneVector:
        """The strictly interior point midway between the face's edges
        above the slab's midpoint."""
        xm = (self.x0 + self.x1) / 2
        return PlaneVector(xm, (self.lower.y_at(xm) + self.upper.y_at(xm)) / 2)

    def corners(self) -> tuple[PlaneVector, PlaneVector, PlaneVector, PlaneVector]:
        """The four corners, counterclockwise from the lower left."""
        return (
            PlaneVector(self.x0, self.lower.y_at(self.x0)),
            PlaneVector(self.x1, self.lower.y_at(self.x1)),
            PlaneVector(self.x1, self.upper.y_at(self.x1)),
            PlaneVector(self.x0, self.upper.y_at(self.x0)),
        )


def arrangement_faces(poly: Polygon, translates, region: Polygon) -> list[Face]:
    """Every face of the translate-edge arrangement inside the convex
    region with its covering count: slab by slab from the left, bottom to
    top within a slab.

    Counts are propagated up each slab's ladder from 0 below every edge;
    ``translates`` must hold every translate that can meet the region.

    Every vertex abscissa is ranked once, and from then on the sweep
    compares integer ranks.  The events are the ranks from rb.x0 to rb.x1.
    Only the live segments, those that are not vertical and whose open
    x-range meets the open interval (rb.x0, rb.x1), enter the crossing test
    and the ladders; dropping the others is exact.  A dropped segment never
    spans a slab, which lies strictly inside (rb.x0, rb.x1), and its
    endpoints are events when they are in range.  Any crossing it takes
    part in lies on it, so the abscissa is outside [rb.x0, rb.x1], or it is
    rb.x0 or rb.x1, or it is the abscissa of the vertical segment itself,
    all of which are events already.  The segments are not clipped in y:
    those below the region carry the ladder weights, and their crossings
    are events too.

    Crossings are found slab by slab between consecutive endpoint events.
    Two live segments that meet at an abscissa that is not an endpoint
    event both span the slab around it, since no endpoint lies inside a
    slab; there their height difference is linear and not identically
    zero, so they cross strictly inside exactly when the difference is
    nonzero at both ends with opposite signs.  A zero at an end is a
    meeting on an event already listed, and a difference zero at both ends
    means the segments are collinear and never cross.  Heights are ranked
    at each endpoint event, so two segments lie on one line of the slab
    exactly when their (left rank, right rank) pairs are equal; each line
    is one rung with the summed weight of its segments.  Sorted by that
    pair, the lines are the ladder of the first sub-slab, ``_crossings``
    intersects only the pairs of lines whose ranks swap strictly across
    the slab, and ``_cross`` carries the ladder over each crossing
    abscissa.  No height is evaluated inside a slab.

    A face is in the region when it lies between the region's edges: the
    region is convex, so exactly one lower and one upper region edge span
    a slab, and the faces inside are those between them.  Region edges
    are built first and every sort is stable, so a line that holds a
    region edge has it as its first segment, and walking up the ladder
    each such line toggles "inside"."""
    rb = region.bbox
    outlines = [(region.vertices, 0, [_direction(a, b) for a, b in region.edges()])]
    # a translate edge has the direction and slope of its polygon edge
    directions = [_direction(a, b) for a, b in poly.edges()]
    outlines += [([v + lam for v in poly.vertices], mult, directions) for lam, mult in translates]
    rank = _ranks(v.x for vs, _, _ in outlines for v in vs)
    first, last = rank[rb.x0], rank[rb.x1]
    xs = list(rank)[first : last + 1]
    # a live segment spans the slabs from the rank of its left end (the
    # first slab when that is left of rb.x0) to the rank of its right end
    # (the last when that is right of rb.x1); each slab lists its segments
    # in construction order
    spanning = [[] for _ in xs[1:]]
    bounds = set()
    for n, (vs, mult, dirs) in enumerate(outlines):
        rs = [rank[v.x] for v in vs]
        for i, (dx, slope) in enumerate(dirs):
            j = i + 1 if i + 1 < len(vs) else 0
            lo, hi = (rs[i], rs[j]) if dx > 0 else (rs[j], rs[i])
            if dx and lo < last and hi > first:
                s = _Segment(vs[i], vs[j], mult, dx, slope)
                if n == 0:  # the region's own edges
                    bounds.add(s)
                for k in range(max(lo, first), min(hi, last)):
                    spanning[k - first].append(s)
    faces = []
    # only the height maps at a slab's two ends are alive at a time
    right = _heights(xs[0], spanning[0])
    for xa, xb, slab, after in zip(xs, xs[1:], spanning, spanning[1:] + [[]]):
        left, right = right, _heights(xb, slab + after)
        # the first segment and the summed weight of each line
        lines: dict[tuple[int, int], list] = {}
        for s in slab:
            line = lines.setdefault((left[s][0], right[s][0]), [s, 0])
            line[1] += s.weight
        ladder = [lines[key][0] for key in sorted(lines)]
        weight = dict(lines.values())
        xcuts, at = _crossings(ladder, left, right, xa)
        cuts = [xa, *xcuts, xb]
        for k in range(len(cuts) - 1):
            if k:
                _cross(ladder, at, k)
            faces.extend(_slab_faces(cuts[k], cuts[k + 1], ladder, weight, bounds))
    return faces


def _slab_faces(xa, xb, ladder: list[_Segment], weight, bounds) -> list[Face]:
    """The region's faces in one crossing-free slab, bottom to top.

    ``ladder`` holds one segment per line spanning the slab, in the order
    of their heights there, and ``weight`` the summed weight of each
    line's segments; the count just above a line is the sum of the
    weights up to it."""
    faces = []
    count = 0
    inside = False
    for lo, hi in zip(ladder, ladder[1:]):
        count += weight[lo]
        inside ^= lo in bounds
        if inside:
            faces.append(Face(xa, xb, lo, hi, count))
    return faces


def _report(faces: list[Face], window_relative: bool) -> VerifyReport:
    if not faces:
        raise WindowError("verification region contains no sample cells")
    lo = min(faces, key=lambda f: f.count)
    hi = max(faces, key=lambda f: f.count)
    if lo.count == hi.count:
        return VerifyReport(True, lo.count, None, len(faces), window_relative)
    counterexample = ((lo.sample, lo.count), (hi.sample, hi.count))
    return VerifyReport(False, None, counterexample, len(faces), window_relative)


def _periodic_region(tset: TranslateSet) -> Polygon:
    period = tset.period_lattice()
    zero = period.field.zero()
    origin = PlaneVector(zero, zero)
    return Polygon([origin, period.b1, period.b1 + period.b2, period.b2])


def _windowed_region(poly: Polygon, tset: TranslateSet) -> Polygon:
    field = poly.field
    wx0, wy0, wx1, wy1 = (field.rational(w) for w in tset.pattern.window)
    pb = poly.bbox
    region = Box(wx0 + pb.x1, wy0 + pb.y1, wx1 + pb.x0, wy1 + pb.y0)
    if not region.has_area():
        raise WindowError("window is too small for the polygon's diameter margin")
    return Polygon(region.corners())


def verify_covering(poly: Polygon, tset: TranslateSet) -> VerifyReport:
    """Certify covering constancy exactly, one sample per arrangement face.

    Periodic sets are checked on one closed fundamental cell of the common
    period lattice, which certifies the whole plane, and a constant
    verdict is checked against the density count.  Windowed patterns are
    checked on the window shrunk by the polygon's extent and the verdict
    is marked window-relative.
    """
    if tset.is_periodic:
        region = _periodic_region(tset)
        window_relative = False
    else:
        region = _windowed_region(poly, tset)
        window_relative = True
    faces = arrangement_faces(poly, region_translates(poly, tset, region.bbox), region)
    report = _report(faces, window_relative)
    if report.constant and tset.is_periodic:
        _check_density(poly, tset, report.multiplicity)
    return report


def _check_density(poly: Polygon, tset: TranslateSet, multiplicity: int) -> None:
    """Hold a constant periodic count to area(P) * sum_j 1/det(L_j).

    Averaged over a large disc, the covering count of P + (L_j + z_j)
    tends to area(P) / det(L_j) for each part, so a constant count must
    equal their sum; a mismatch is a bug in the sweep, not bad input."""
    area = poly.area()
    density = poly.field.zero()
    for lat, _ in tset.parts:
        density = density + area / lat.det
    if density != multiplicity:
        raise InternalError(
            f"internal: the faces count {multiplicity} but the density count is {density}"
        )


def strip_profile(poly: Polygon, lat: PlaneLattice, n_values) -> list[int]:
    """Covering count of poly + lat on each horizontal strip R x [n, n+1].

    The lattice must have a vertical second basis vector and a rational
    ratio between the vertical parts of its basis (which gives the strip
    covering a horizontal period); the profile is computed on one period
    per strip and each strip must cover constantly (non-constant strips
    are reported as an error, never averaged).
    """
    if not lat.b2.x.is_zero():
        raise GeometryError("lattice is not axis-compatible (vertical second basis vector)")
    ratio = (lat.b1.y / lat.b2.y).rational_value()
    if ratio is None:
        raise GeometryError("lattice has no horizontal period (irrational basis ratio)")
    period = abs(lat.b1.x * ratio.denominator)
    field = poly.field
    tset = TranslateSet.periodic([(lat, PlaneVector(field.zero(), field.zero()))])
    out = []
    for n in n_values:
        region = Polygon(
            Box(field.zero(), field.rational(n), period, field.rational(n + 1)).corners()
        )
        translates = region_translates(poly, tset, region.bbox)
        counts = {f.count for f in arrangement_faces(poly, translates, region)}
        if len(counts) != 1:
            raise GeometryError(f"covering is not constant on strip [{n}, {n + 1}]: counts {sorted(counts)}")
        out.append(counts.pop())
    return out
