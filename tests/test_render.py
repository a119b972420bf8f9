"""The SVG coordinate emitter against an independent exact rounding, and
the work a render does per face corner and per coordinate."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from zonotile import FieldElement, arrangement, builtin_scene, render
from zonotile.cli import main
from zonotile.render import _SCALE, _Axis, render_svg

from conftest import F2, F23, Q, rand_element
from test_field_properties import ref_floor, sqrt2_convergents
from test_golden import RENDER, _scene


def decimals(n: int) -> str:
    """The integer n as n / 10000 written with four decimals."""
    return f"{'-' if n < 0 else ''}{abs(n) // 10000}.{abs(n) % 10000:04d}"


def expected(v: FieldElement, origin: FieldElement, sign: int) -> str:
    """w = sign*(v - origin)*48 rounded half up to four decimals, that is
    floor(10000 * w + 1/2), from the rational coefficients and the
    bisection floor of the reference model."""
    w = [sign * _SCALE * 10000 * (a - b) for a, b in zip(v.coeffs, origin.coeffs)]
    return decimals(ref_floor(v.field.products, [w[0] + Fraction(1, 2), *w[1:]]))


def unreduced(rng, v: FieldElement):
    """v as numerators over a positive denominator, scaled by a random factor."""
    k = rng.randint(1, 12)
    return tuple(n * k for n in v.nums), v.den * k


@pytest.mark.parametrize("field", [Q, F2, F23], ids=["Q", "Q(r2)", "Q(r2,r3)"])
def test_axis_matches_the_field_element_path(field):
    # the field element's value, rounded by the reference model
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
    # the scaled coordinate is half/20000 exactly, a tie of the rounding,
    # which goes up
    rng = random.Random(half)
    for sign in (1, -1):
        origin = field.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        v = origin + sign * field.rational(Fraction(half, 20000 * _SCALE))
        assert ((v - origin) * _SCALE * sign).rational_value() == Fraction(half, 20000)
        axis = _Axis(field, origin, sign)
        text = axis(*unreduced(rng, v))
        assert text == expected(v, origin, sign) == decimals((half + 1) // 2)


def test_axis_rounds_irrational_near_ties_exactly():
    # tie/20000 +- (sqrt2 - p/q), for a convergent p/q of sqrt2, lies
    # within 1/(2 q**2) of a tie of the rounding, on the side that p/q
    # gives; the tie is read on both axes' orientations
    for p, q in sqrt2_convergents(10**12):
        if q < 1000:
            continue
        gap = F2.sqrt(2) - Fraction(p, q)
        for side in (1, -1):
            for tie in (1, -1, 3, 40001):
                w = F2.rational(Fraction(tie, 20000)) + side * gap
                want = decimals((tie + 1) // 2 if (side * gap).sign() > 0 else (tie - 1) // 2)
                for sign, origin in ((1, F2.zero()), (-1, F2.rational(Fraction(7, 3)))):
                    v = origin + sign * w / _SCALE
                    assert _Axis(F2, origin, sign)(v.nums, v.den) == expected(v, origin, sign) == want
    # 9.3e-12 above the tie at 0.00005
    w = F2.rational(Fraction(1, 20000)) + (F2.sqrt(2) - Fraction(275807, 195025))
    v = w / _SCALE
    assert _Axis(F2, F2.zero(), 1)(v.nums, v.den) == "0.0001"


def test_coordinates_past_the_least_digit_limit(long_integers):
    # 20000*n half-units are n units, written to four decimals
    for n, text in long_integers:
        assert render._fmt(Q, (20000 * n,), 1) == f"{text}.0000"


def _code(member):
    """The code object of a function, method, classmethod or property."""
    member = getattr(member, "__func__", None) or getattr(member, "fget", None) or member
    return getattr(member, "__code__", None)


def test_render_calls_no_field_element_method(capsys, tmp_path):
    # every coordinate is rounded from numerator tuples, so render.py
    # builds, compares and rounds no element itself; the window corners
    # and the faces' cuts are read by their numerators
    codes = {c for c in map(_code, vars(FieldElement).values()) if c is not None}
    runs = []
    for i, (name, beta, window) in enumerate(RENDER):
        (tmp_path / str(i)).mkdir()
        runs.append(["render", _scene(capsys, tmp_path / str(i), name, beta),
                     "-o", str(tmp_path / str(i) / "out.svg"), window])
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes and frame.f_back.f_code.co_filename == render.__file__:
            calls[frame.f_back.f_code.co_name, frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        exits = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert exits == [0] * len(RENDER)
    assert calls == {}, calls


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
    svg = render_svg(poly, tset, (Fraction(0), Fraction(0), Fraction(4), Fraction(4)))
    faces = svg.count('stroke="none"/>')
    assert faces and calls
    assert max(calls.values()) == 1
