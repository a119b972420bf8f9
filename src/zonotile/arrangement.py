"""The exact vertical decomposition of a translate-edge arrangement, on one
integer grid.

``arrangement_faces`` visits the faces of the arrangement of all
translate edges inside a convex region: collect every edge endpoint and
edge crossing abscissa inside it, and between two consecutive events walk
the ladder of lines crossing the slab, bottom to top.  Each gap between
two consecutive lines is one face, with a count that is the sum of the
signed multiplicities of the edges below it.  A face's sample point, the
midpoint of its gap above the slab's midpoint, is computed only when it
is read (a counterexample, a test); it is strictly interior, so it never
lands on an edge and boundary handling never needs a tolerance.  This is
the one place the decomposition is built: the covering verifier, the
strip profiles and the SVG renderer all read its faces.

Grid.  A translate set is a finite union of translated lattices, so the
positions of one scene share a few denominators.  Each scene is put on
one grid (:class:`Grid`) once, by ``covering.region_translates``:
integer numerator tuples, one integer per field monomial, over the
common denominator D of the region's and the polygon's vertex rows and
the translate positions.  Positions reach the sweep as grid tuples, so a
translated vertex is a tuple sum and an event abscissa a tuple over D.
The edge slopes go over their common denominator M, so a line's
height at an event abscissa X is base + X*rise, a tuple over D*M, with
``rise`` the numerators of its slope and ``base`` those of its height at
abscissa 0; the product of two tuples is the field's monomial product
(``Field.product``).  Field elements are canonical, so equal values over
one denominator are equal tuples, and the rank dicts hash tuples, not
field elements.  Distinct values are ordered by native tuple order over
Q, which is integer order, and over a larger field by the exact integer
sign of their difference (``Field.sign``).  Field elements remain only
at the crossing abscissas and the slab ends handed to ``Face``.  A
line's height anywhere is read on the grid (``_Segment.height``): at
x = nums/den it is base*den + D*(nums*rise) over D*M*den, integer tuples
that the SVG renderer rounds without field arithmetic, once per ladder
line and cut, and that a face's sample turns into one field element.

The sweep's cost follows the edges that reach the region, the lines
they lie on and the crossings inside it, not the pairs of edges, and it
orders by integer ranks wherever it can.  Columns: the translates of
one abscissa form a column, whose translated outline has the same
abscissas, so the work on abscissas is done once per column and a
translate adds only the ordinates of its column's live edges.  Rank: the distinct
vertex abscissas of the region and of each column are ranked once; the
events are the ranks from the region's left end to its right end, and
the live test and the filing below compare ranks.  Clip: only the live
edges, non-vertical and with an open x-range meeting the region's,
reach the ladders; the live test and each live edge's range of slabs are
found once per column.  A translate edge shares the direction and slope
of its polygon edge, computed once per polygon edge, and its height at
abscissa 0 is its column's edge's moved up by the translate's ordinate.
No edge is clipped in y, since those below the region carry the
ladder weights.  Ladder: in a multi-tiling the translate edges pair up
on common lines, so each live edge looks up its line by (rise, base),
built as one ``_Segment`` for the first edge on it, and adds its weight
to that line in each slab between the ranks of its two ends.  A slab
holds just the lines spanning it with their summed weights, in
construction order; a line whose weights cancel stays a rung.  Heights
are ranked once per line at each endpoint event, from one product per
distinct slope; distinct lines of a slab have distinct (left rank, right
rank) pairs, and sorted by that pair they are the ladder of the slab's
first sub-slab.  Swap: no edge starts or ends strictly between two
consecutive endpoint events, so two lines of a slab cross strictly
inside it exactly when their ranks are strictly apart at both ends in
opposite orders.  Insertion-sorting the ladder from its left order into
its right order swaps exactly those pairs, the only ones intersected,
and files each under the cut where it crosses; at each cut an insertion
pass swaps just the pairs filed there, so no height is evaluated and no
value sorted inside a slab.  Region: the region is convex, so exactly
one lower and one upper region edge span a slab.  The region is filed
first, as a weight-0 translate at the origin, so a slab's first two
lines are theirs, and walking up the ladder each of the two toggles
"inside": the faces kept are exactly those strictly inside the region.
A region line may also hold translate edges in slabs its region edge
does not span; there it toggles nothing.
"""

from __future__ import annotations

from itertools import islice
from math import lcm
from operator import add, le, sub

from .field import Field, FieldElement
from .lattice import PlaneVector

__all__ = ["Grid", "Face", "arrangement_faces"]


class Grid:
    """Points of one scene as integer numerator tuples over one denominator.

    :meth:`scale` puts numerators over a divisor of ``den`` on the grid,
    and :meth:`rows` puts flattened rows there as points, pairs of
    numerator tuples over ``den``.  Equal values over one denominator have
    equal numerators, so equality and hashing are those of tuples.  ``le``
    and ``key`` (:meth:`Field.order_key`) order values over one
    denominator: over Q by native tuple order, which is integer order, and
    otherwise by the exact integer sign of the difference."""

    __slots__ = ("field", "den", "le", "key")

    def __init__(self, field: Field, den: int):
        self.field = field
        self.den = den
        self.key = field.order_key()
        if field.size == 1:
            self.le = le
        else:
            sign = field.sign
            self.le = lambda a, b: sign(tuple(map(sub, b, a))) >= 0

    def scale(self, nums, den: int) -> tuple[int, ...]:
        """The numerators ``nums`` over ``den``, a divisor of the grid's, over the grid's."""
        m = self.den // den
        return tuple(nums) if m == 1 else tuple([n * m for n in nums])

    def rows(self, rows, den: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The vectors flattened as integer ``rows`` over ``den`` as grid points."""
        n, scale = self.field.size, self.scale
        return [(scale(row[:n], den), scale(row[n:], den)) for row in rows]

    def element(self, nums) -> FieldElement:
        return FieldElement.from_integers(self.field, nums, self.den)


def _ranks(values, key) -> dict[tuple[int, ...], int]:
    """Integer ranks of grid values over one denominator, equal values
    sharing a rank; the keys run in increasing order."""
    return {v: k for k, v in enumerate(sorted(set(values), key=key))}


class _Segment:
    """One line of the arrangement, built once for all the region and
    translate edges on it.

    The sign of an edge's dx and its slope come from :func:`_direction`; a
    translate edge takes them from the polygon edge it translates.
    ``rise`` is the slope's numerators over the scene's slope denominator
    M and ``base`` the numerators of the height at abscissa 0 over
    ``den`` = D*M, so (rise, base) identifies the line, and the height at
    a grid abscissa X is base + X*rise, one product of numerator tuples;
    :meth:`height` gives it at any abscissa.  No endpoint, field element
    or weight is kept: each slab holds its lines' summed weights."""

    __slots__ = ("grid", "rise", "base", "den")

    def __init__(self, grid: Grid, rise, base, m: int):
        self.grid = grid
        self.rise, self.base, self.den = rise, base, grid.den * m

    def height(self, x: FieldElement) -> tuple[tuple[int, ...], int]:
        """The height at abscissa x as numerators over a positive
        denominator, unreduced, from integers only.

        With x = nums/den, the grid abscissa x*D is nums*D over den, so the
        height base + x*D*rise over D*M is base*den + D*(nums*rise) over
        D*M*den; at an event den divides D."""
        d, den = self.grid.den, x.den
        xr = self.grid.field.product(x.nums, self.rise)
        return tuple([b * den + d * n for b, n in zip(self.base, xr)]), self.den * den


def _direction(field: Field, p, q) -> tuple[int, tuple[int, ...] | None, int]:
    """The sign of q.x - p.x and the slope of pq, for grid points p and q:
    its numerators over a positive denominator in lowest terms, or None
    over 1 when pq is vertical."""
    dx = tuple(map(sub, q[0], p[0]))
    sign = field.sign(dx)
    return (sign, *field.divide(tuple(map(sub, q[1], p[1])), 1, dx, 1)) if sign else (0, None, 1)


def _height_ranks(x, lines, grid: Grid) -> dict[_Segment, int]:
    """Each line's height rank at the grid abscissa x among them, with one
    product per distinct slope."""
    product = grid.field.product
    xr = {r: product(x, r) for r in {s.rise for s in lines}}
    ys = {s: tuple(map(add, s.base, xr[s.rise])) for s in lines}
    rank = _ranks(ys.values(), grid.key)
    return {s: rank[y] for s, y in ys.items()}


def _crossing(s: _Segment, t: _Segment, grid: Grid) -> FieldElement:
    """The abscissa where the lines of s and t meet.

    base_s + X*rise_s = base_t + X*rise_t at the grid abscissa
    X = (base_t - base_s) / (rise_s - rise_t), which is x*D."""
    db = tuple(map(sub, t.base, s.base))
    dr = tuple(map(sub, s.rise, t.rise))
    return FieldElement.from_integers(grid.field, *grid.field.divide(db, grid.den, dr, 1))


def _crossings(ladder: list[_Segment], right, grid: Grid):
    """Where the lines of a slab cross strictly inside it.

    ``ladder`` holds one segment per line of the slab, sorted by the
    (left, right) height ranks, and ``right`` their ranks at the slab's
    right end.  Insertion-sorting by the right rank swaps exactly the pairs
    that are strictly apart at both ends in opposite orders, which are the
    pairs that cross inside; only those are intersected.  Returns the
    crossing abscissas in increasing order, and for each swapped pair,
    lower line first, the index of its abscissa among the slab's cuts: 1
    for the first, since cut 0 is the slab's left end."""
    perm = list(ladder)
    at = {}
    for i in range(1, len(perm)):
        j = i
        while j and right[perm[j - 1]] > right[perm[j]]:
            s, t = perm[j - 1], perm[j]
            at[s, t] = _crossing(s, t, grid)
            perm[j - 1], perm[j] = t, s
            j -= 1
    # elements are canonical, so (nums, den) identifies a value
    distinct = {(x.nums, x.den): x for x in at.values()}
    cuts = sorted(distinct.values())
    index = {(x.nums, x.den): k for k, x in enumerate(cuts, 1)}
    return cuts, {pair: index[x.nums, x.den] for pair, x in at.items()}


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


class Face:
    """One trapezoid of the vertical decomposition: the part of the slab
    x0 < x < x1 strictly between two consecutive ladder lines ``lower``
    and ``upper``, covered ``count`` times."""

    __slots__ = ("x0", "x1", "lower", "upper", "count")

    def __init__(self, x0: FieldElement, x1: FieldElement, lower: _Segment, upper: _Segment, count: int):
        self.x0 = x0
        self.x1 = x1
        self.lower = lower
        self.upper = upper
        self.count = count

    @property
    def sample(self) -> PlaneVector:
        """The strictly interior point midway between the face's edges
        above the slab's midpoint.  Its height is the mean of the two
        edges' :meth:`_Segment.height` there, which share a denominator,
        built as one field element."""
        (a, da), (b, db) = (self.x0.nums, self.x0.den), (self.x1.nums, self.x1.den)
        xm = FieldElement.from_integers(self.x0.field, [x * db + y * da for x, y in zip(a, b)], 2 * da * db)
        lo, den = self.lower.height(xm)
        hi, _ = self.upper.height(xm)
        return PlaneVector(xm, FieldElement.from_integers(xm.field, map(add, lo, hi), 2 * den))


def arrangement_faces(poly: Polygon, grid: Grid, translates, region: Polygon) -> list[Face]:
    """Every face of the translate-edge arrangement inside the convex
    region with its covering count: slab by slab from the left, bottom to
    top within a slab.

    Counts are propagated up each slab's ladder from 0 below every edge;
    ``translates`` must hold every translate that can meet the region, as
    ``(point, multiplicity)`` pairs with each point on ``grid``, whose
    denominator D the region's and the polygon's vertices divide.

    The sweep runs on that grid, so a translated vertex is a tuple sum.
    The translates of one abscissa form a column: its vertex abscissas
    are summed once and ranked once with the region's, and from then on
    the sweep compares integer ranks.  With rb the region's bounding box,
    the events are the ranks from rb.x0 to rb.x1.  Only the live edges,
    those that are not vertical and whose open x-range meets the open
    interval (rb.x0, rb.x1), reach the ladders; which edges of a column
    are live, and the slabs each spans, is found once per column, and each
    of its translates builds the ordinates of just those edges.  Dropping
    the others is exact.  A dropped edge never spans a slab, which lies
    strictly inside (rb.x0, rb.x1), and its endpoints are events when they
    are in range.  Any crossing it takes part in lies on it, so the
    abscissa is outside [rb.x0, rb.x1], or it is rb.x0 or rb.x1, or it is
    the abscissa of the vertical edge itself, all of which are events
    already.  The edges are not clipped in y: those below the region carry
    the ladder weights, and their crossings are events too.

    Each live edge looks up its line by (rise, base), its slope and its
    height at abscissa 0 over M and D*M, M the common denominator of the
    edge slopes, in one dict; the line's ``_Segment`` is built for its
    first edge, and each slab maps its lines to the summed weights of
    their edges spanning it.

    Crossings are found slab by slab between consecutive endpoint events.
    Two lines that meet at an abscissa that is not an endpoint event both
    span the slab around it, since no endpoint lies inside a slab; there
    their height difference is linear and not identically zero, so they
    cross strictly inside exactly when the difference is nonzero at both
    ends with opposite signs.  A zero at an end is a meeting on an event
    already listed.  Each line's height at each endpoint event is base +
    X*rise, from one product per distinct rise, and is ranked there, so
    distinct lines of a slab have distinct (left rank, right rank) pairs.
    Sorted by that pair, the lines are the ladder of the first sub-slab,
    ``_crossings`` intersects only the pairs of lines whose ranks swap
    strictly across the slab, and ``_cross`` carries the ladder over each
    crossing abscissa.  No height is evaluated inside a slab.

    A face is in the region when it lies between the region's edges: the
    region is convex, so exactly one lower and one upper region edge span
    a slab, and the faces inside are those between them.  The region is
    filed first, as a weight-0 translate at the origin, so a slab's first
    two lines are those of its region edges, and walking up the ladder
    each of the two toggles "inside"; a region line toggles nothing in a
    slab its region edge does not span.
    Which edge a line was built for does not change a face: the line's
    edges are collinear."""
    corners, shape = grid.rows(region.rows, region.den), grid.rows(poly.rows, poly.den)
    # every edge direction, with the numerators of its slope over one M
    # unless it is vertical; a translate edge has the direction and slope
    # of its polygon edge
    dirs = [_direction(grid.field, a, b) for vs in (corners, shape) for a, b in zip(vs, [*vs[1:], vs[0]])]
    m = lcm(*(d for _, _, d in dirs))
    dirs = [(dx, dx and tuple([n * (m // d) for n in rise])) for dx, rise, d in dirs]
    region_dirs, poly_dirs = dirs[: len(corners)], dirs[len(corners) :]
    # the translates of one abscissa form a column, whose outline
    # abscissas are summed once here and whose live edges are found once
    # below
    columns = {lx: [(tuple(map(add, x, lx)), y) for x, y in shape] for lx in {p for (p, _), _ in translates}}
    rank = _ranks([x for vs in (corners, *columns.values()) for x, _ in vs], grid.key)
    region_ranks = [rank[x] for x, _ in corners]
    first, last = min(region_ranks), max(region_ranks)
    events = list(rank)[first : last + 1]
    xs = [grid.element(x) for x in events]
    # a live edge spans the slabs from the rank of its left end (the first
    # slab when that is left of rb.x0) to the rank of its right end (the
    # last when that is right of rb.x1); each slab maps the lines of the
    # edges spanning it to their summed weights, in construction order
    spanning = [{} for _ in xs[1:]]
    product = grid.field.product

    def live(vs, dirs):
        """The live edges of an outline: the sign of dx, the slope
        numerators, the height numerators at abscissa 0 and the slabs
        spanned."""
        rs = [rank[x] for x, _ in vs]
        out = []
        for i, (dx, rise) in enumerate(dirs):
            j = i + 1 if i + 1 < len(vs) else 0
            lo, hi = (rs[i], rs[j]) if dx > 0 else (rs[j], rs[i])
            if dx and lo < last and hi > first:
                x, y = vs[i]
                base = tuple(map(sub, [n * m for n in y], product(x, rise)))
                out.append((dx, rise, base, spanning[max(lo, first) - first : min(hi, last) - first]))
        return out

    # one segment per line, looked up by (rise, base) and built for the
    # first edge on it; a translate moves a column's edges up by ly, and
    # their bases by ly*M.  The region is filed first, as a translate at
    # the origin with weight 0 in a column of its own (None), so a slab's
    # first two lines are those of the region edges spanning it
    edges = {None: live(corners, region_dirs)} | {lx: live(vs, poly_dirs) for lx, vs in columns.items()}
    lines: dict[tuple, _Segment] = {}
    for (lx, ly), mult in [((None, (0,) * grid.field.size), 0), *translates]:
        lift = [n * m for n in ly]
        for dx, rise, base, slabs in edges[lx]:
            key = rise, tuple(map(add, base, lift))
            if (line := lines.get(key)) is None:
                line = lines[key] = _Segment(grid, *key, m)
            weight = dx * mult
            for slab in slabs:
                slab[line] = slab.get(line, 0) + weight
    faces = []
    # only the height ranks at a slab's two ends are alive at a time
    right = _height_ranks(events[0], spanning[0], grid)
    for xa, xb, x, slab, after in zip(xs, xs[1:], events[1:], spanning, spanning[1:] + [{}]):
        left, right = right, _height_ranks(x, slab.keys() | after, grid)
        ladder = sorted(slab, key=lambda s: (left[s], right[s]))
        bounds = set(islice(slab, 2))
        xcuts, at = _crossings(ladder, right, grid)
        cuts = [xa, *xcuts, xb]
        for k in range(len(cuts) - 1):
            if k:
                _cross(ladder, at, k)
            faces.extend(_slab_faces(cuts[k], cuts[k + 1], ladder, slab, bounds))
    return faces


def _slab_faces(xa, xb, ladder: list[_Segment], weight, bounds) -> list[Face]:
    """The region's faces in one crossing-free slab, bottom to top.

    ``ladder`` holds the lines spanning the slab, in the order of their
    heights there, ``weight`` the summed weight of each line's edges that
    span it and ``bounds`` its region lines; the count just above a line
    is the sum of the weights up to it."""
    faces = []
    count = 0
    inside = False
    for lo, hi in zip(ladder, ladder[1:]):
        count += weight[lo]
        inside ^= lo in bounds
        if inside:
            faces.append(Face(xa, xb, lo, hi, count))
    return faces
