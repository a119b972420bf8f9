"""The SVG coordinate emitter against the field-element path it replaces,
and the work a render does per face corner."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from zonotile import Box, FieldElement, arrangement, builtin_scene
from zonotile.render import _SCALE, _Axis, _fmt, _mid, render_svg

from conftest import F2, F23, Q, rand_element


def expected(v: FieldElement, origin: FieldElement, sign: int) -> str:
    """The string the renderer once emitted: the scaled coordinate as a
    field element, rounded from ``_mid``."""
    return _fmt(*_mid((v - origin) * _SCALE if sign > 0 else (origin - v) * _SCALE))


def unreduced(rng, v: FieldElement):
    """v as numerators over a positive denominator, scaled by a random factor."""
    k = rng.randint(1, 12)
    return tuple(n * k for n in v.nums), v.den * k


@pytest.mark.parametrize("field", [Q, F2, F23], ids=["Q", "Q(r2)", "Q(r2,r3)"])
def test_axis_matches_the_field_element_path(field):
    rng = random.Random(20261018 + field.size)
    for _ in range(300):
        origin = rand_element(rng, field, max_num=9, max_den=5)
        v = rand_element(rng, field, max_num=40, max_den=7)
        for sign in (1, -1):
            axis = _Axis(field, origin, sign)
            nums, den = unreduced(rng, v)
            assert axis(nums, den) == expected(v, origin, sign)
            # a second term form of the same value, now from the cache
            assert axis(*unreduced(rng, v)) == expected(v, origin, sign)


@pytest.mark.parametrize("field", [Q, F2, F23], ids=["Q", "Q(r2)", "Q(r2,r3)"])
@pytest.mark.parametrize("half", [1, -1, 3, -3, 19999, -40001])
def test_axis_rounds_half_way_cases_like_the_field_path(field, half):
    # the scaled coordinate is half/20000 exactly, a tie of the rounding
    rng = random.Random(half)
    for sign in (1, -1):
        origin = field.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        v = origin + sign * field.rational(Fraction(half, 20000 * _SCALE))
        assert ((v - origin) * _SCALE * sign).rational_value() == Fraction(half, 20000)
        axis = _Axis(field, origin, sign)
        text = axis(*unreduced(rng, v))
        assert text == expected(v, origin, sign)
        assert text == _fmt(half, 20000)


def test_each_line_height_is_read_once_per_cut(monkeypatch):
    # the faces above and below a ladder line share its corners at both
    # cuts of the slab, so the line's height there is read once
    calls = Counter()
    height = arrangement._Segment.height

    def counted(segment, x):
        calls[segment, x.nums, x.den] += 1
        return height(segment, x)

    monkeypatch.setattr(arrangement._Segment, "height", counted)
    poly, tset = builtin_scene("octagon-family", beta=Fraction(1, 3))
    svg = render_svg(poly, tset, Box(*(poly.field.rational(v) for v in (0, 0, 4, 4))))
    faces = svg.count('stroke="none"/>')
    assert faces and calls
    assert max(calls.values()) == 1
