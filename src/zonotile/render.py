"""Deterministic SVG pictures of covering scenes.

Faces of the translate-edge arrangement inside the window are filled by
covering multiplicity.  They are the verifier's own faces
(``covering.arrangement_faces``), so the picture is a faithful map of the
covering function.  Translate outlines are stroked on top and a legend
lists the observed multiplicities.  All geometry is exact until the final
coordinate emission, and every coordinate is emitted from integer
numerators on the one grid ``region_translates`` puts the scene on, the
sweep's.  A face corner's height is the face's lower or upper line read
at the slab's end (``_Segment.height``, one segment per line of the
arrangement), read and formatted once per line and cut, since the faces
on either side of a line, and of the cut, share that corner.  An outline
vertex is the tuple sum of a polygon vertex and a translate position,
both grid tuples; its abscissa is formatted once per column of
translates and its ordinate once per row.  The window is four
rationals, as the command line and a windowed translate set hold it;
``covering.window_region`` builds its rectangle on rows, and the size
comes from that rectangle's numerators.  Every coordinate, rational or
not, is rounded half up to four decimals exactly, by one ``Field.floor``
on its numerators.
"""

from __future__ import annotations

from operator import add

from .covering import Polygon, TranslateSet, arrangement_faces, region_translates, window_region
from .field import Field, FieldElement, int_str

__all__ = ["render_svg"]

_SCALE = 48
# coordinates are written to four decimals, and computed in half-units of
# the fourth, so that rounding half up is one floor
_HALF_UNITS = 20000
_PALETTE = [
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
]


def _fill(k: int) -> str:
    if k <= 0:
        return "#ffffff"
    return _PALETTE[(k - 1) % len(_PALETTE)]


def _fmt(field: Field, nums, den: int) -> str:
    """The coordinate nums/den half-units long (den > 0), rounded half up
    to four decimals: floor((nums/den + 1) / 2) ten-thousandths, by one
    exact ``Field.floor``, whose rational case is one integer division."""
    scaled = field.floor((nums[0] + den, *nums[1:]), 2 * den)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{int_str(scaled // 10000)}.{scaled % 10000:04d}"


class _Axis:
    """One SVG axis: the value v = nums/den goes to the coordinate
    sign*(v - origin)*48, which ``value`` gives in half-units.

    Values come as integer numerators over a positive denominator, in any
    terms, and the scaled numerators go straight to ``_fmt``, which
    depends only on the value, so every term form gives the same string.
    Strings are cached per (numerators, denominator): the faces of a slab
    share its ends, and lines that meet there share a height."""

    __slots__ = ("field", "nums", "den", "scale", "strings")

    def __init__(self, field: Field, origin: FieldElement, sign: int):
        self.field = field
        self.nums, self.den = origin.nums, origin.den
        self.scale = sign * _SCALE * _HALF_UNITS
        self.strings: dict[tuple, str] = {}

    def value(self, nums, den: int) -> tuple[list[int], int]:
        """The coordinate in half-units: numerators, denominator."""
        od, k = self.den, self.scale
        return [k * (n * od - o * den) for n, o in zip(nums, self.nums)], den * od

    def __call__(self, nums, den: int) -> str:
        key = (nums, den)
        text = self.strings.get(key)
        if text is None:
            text = self.strings[key] = _fmt(self.field, *self.value(nums, den))
        return text


def render_svg(poly: Polygon, tset: TranslateSet, window) -> str:
    """The scene inside the rational window [x0, y0, x1, y1] as SVG text."""
    field = poly.field
    region = window_region(field, window)
    grid, translates = region_translates(poly, tset, region)
    faces = arrangement_faces(poly, grid, translates, region)
    box = region.bbox  # the window's corners, read off the region's rows
    sx, sy = _Axis(field, box.x0, 1), _Axis(field, box.y1, -1)
    width = sx(box.x1.nums, box.x1.den)
    h, hd = sy.value(box.y0.nums, box.y0.den)

    def below(k: int) -> str:  # k pixels under the window
        return _fmt(field, (h[0] + k * _HALF_UNITS * hd, *h[1:]), hd)

    height, full = below(0), below(32)  # the legend row is 32 pixels high
    counts = sorted({f.count for f in faces})
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{full}" viewBox="0 0 {width} {full}">',
        f'<clipPath id="win"><rect x="0" y="0" width="{width}" height="{height}"/></clipPath>',
        '<g clip-path="url(#win)">',
    ]
    # each line's height at each cut, keyed by the cut's terms and not the
    # element, whose hash costs more than the lookup saves
    heights: dict[tuple, str] = {}

    def corner(segment, x: FieldElement) -> str:
        key = segment, x.nums, x.den
        text = heights.get(key)
        if text is None:
            text = heights[key] = sy(*segment.height(x))
        return text

    for face in faces:
        (a, b), lo, hi = (face.x0, face.x1), face.lower, face.upper
        x0, x1 = sx(a.nums, a.den), sx(b.nums, b.den)
        points = f"{x0},{corner(lo, a)} {x1},{corner(lo, b)} {x1},{corner(hi, b)} {x0},{corner(hi, a)}"
        parts.append(f'<polygon points="{points}" fill="{_fill(face.count)}" stroke="none"/>')
    shape, d = grid.rows(poly.rows, poly.den), grid.den
    columns = {lx: [sx(tuple(map(add, x, lx)), d) for x, _ in shape] for lx in {p for (p, _), _ in translates}}
    rows = {ly: [sy(tuple(map(add, y, ly)), d) for _, y in shape] for ly in {p for (_, p), _ in translates}}
    for (lx, ly), _ in translates:
        points = " ".join(f"{x},{y}" for x, y in zip(columns[lx], rows[ly]))
        parts.append(
            f'<polygon points="{points}" fill="none" stroke="#202020" stroke-width="1"/>'
        )
    parts.append("</g>")
    x = 8.0
    for c in counts:
        parts.append(
            f'<rect x="{x:.1f}" y="{below(8)}" width="16" height="16" '
            f'fill="{_fill(c)}" stroke="#202020"/>'
        )
        parts.append(
            f'<text x="{x + 20:.1f}" y="{below(21)}" font-family="monospace" '
            f'font-size="12">k={c}</text>'
        )
        x += 64.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
