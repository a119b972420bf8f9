"""Deterministic SVG pictures of covering scenes.

Faces of the translate-edge arrangement inside the window are filled by
covering multiplicity.  They are the verifier's own faces
(``covering.arrangement_faces``), so the picture is a faithful map of the
covering function.  Translate outlines are stroked on top and a legend
lists the observed multiplicities.  All geometry is exact until the final
coordinate emission: a rational coordinate is rounded from its numerator
and denominator, an irrational one from the midpoint of its 30-bit
enclosure.
"""

from __future__ import annotations

from .covering import Box, Polygon, TranslateSet, arrangement_faces, region_translates
from .errors import WindowError
from .field import FieldElement
from .lattice import PlaneVector

__all__ = ["render_svg"]

_SCALE = 48
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


def _fmt(num: int, den: int) -> str:
    """num/den (den > 0) rounded half up to four decimals."""
    scaled = (num * 20000 + den) // (2 * den)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10000}.{scaled % 10000:04d}"


class _Frame:
    def __init__(self, window: Box):
        self.x0 = window.x0
        self.y1 = window.y1

    def to_svg(self, p: PlaneVector) -> str:
        sx = (p.x - self.x0) * _SCALE
        sy = (self.y1 - p.y) * _SCALE
        return f"{_fmt(*_mid(sx))},{_fmt(*_mid(sy))}"


def _mid(x: FieldElement) -> tuple[int, int]:
    """x itself when rational, else the midpoint of its 30-bit enclosure,
    as a numerator over a positive denominator."""
    if x.is_rational():
        return x.nums[0], x.den
    lo, hi = x.approx(30)
    return (
        lo.numerator * hi.denominator + hi.numerator * lo.denominator,
        2 * lo.denominator * hi.denominator,
    )


def render_svg(poly: Polygon, tset: TranslateSet, window: Box) -> str:
    if not window.has_area():
        raise WindowError("render window is empty")
    region = Polygon(window.corners())
    translates = region_translates(poly, tset, region.bbox)
    faces = arrangement_faces(poly, translates, region)
    frame = _Frame(window)
    w, wd = _mid((window.x1 - window.x0) * _SCALE)
    h, hd = _mid((window.y1 - window.y0) * _SCALE)
    width, height = _fmt(w, wd), _fmt(h, hd)
    legend_h = 32
    full = _fmt(h + legend_h * hd, hd)
    counts = sorted({f.count for f in faces})
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{full}" viewBox="0 0 {width} {full}">',
        f'<clipPath id="win"><rect x="0" y="0" width="{width}" height="{height}"/></clipPath>',
        '<g clip-path="url(#win)">',
    ]
    for face in faces:
        points = " ".join(frame.to_svg(p) for p in face.corners())
        parts.append(f'<polygon points="{points}" fill="{_fill(face.count)}" stroke="none"/>')
    for lam, _ in translates:
        points = " ".join(frame.to_svg(v + lam) for v in poly.vertices)
        parts.append(
            f'<polygon points="{points}" fill="none" stroke="#202020" stroke-width="1"/>'
        )
    parts.append("</g>")
    x = 8.0
    for c in counts:
        parts.append(
            f'<rect x="{x:.1f}" y="{_fmt(h + 8 * hd, hd)}" width="16" height="16" '
            f'fill="{_fill(c)}" stroke="#202020"/>'
        )
        parts.append(
            f'<text x="{x + 20:.1f}" y="{_fmt(h + 21 * hd, hd)}" font-family="monospace" '
            f'font-size="12">k={c}</text>'
        )
        x += 64.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
