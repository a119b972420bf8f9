"""The common-denominator representation against a plain ``Fraction`` model.

The reference model holds an element as one ``Fraction`` per monomial and
multiplies by the XOR rule.  Its sign is decided exactly by recursive
squaring on the last radicand d: a + b*sqrt(d) has the sign of a and b
when they agree, and otherwise sign(a) * sign(a**2 - d*b**2), with a and b
in the field without sqrt(d).  No enclosure is involved, so it shares
nothing with the refinement it checks.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotile import RATIONALS, Field, FieldElement, FieldError
from zonotile import field as field_module

FIELDS = [RATIONALS, Field([2]), Field([2, 3]), Field([2, 3, 5, 7])]
PROPERTY = settings(max_examples=60, deadline=None)

coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    st.integers(-(10**30), 10**30).map(Fraction),
)


def coefficients(field):
    return st.lists(coefficient, min_size=field.size, max_size=field.size)


@st.composite
def element_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    a = draw(coefficients(field))
    b = draw(coefficients(field))
    return field, a, b


# -- the reference model -----------------------------------------------------------


def ref_mul(products, a, b):
    out = [Fraction(0)] * len(a)
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            out[s ^ t] += x * y * products[s & t]
    return out


def ref_sign(products, c):
    if len(c) == 1:
        return (c[0] > 0) - (c[0] < 0)
    half = len(c) // 2
    sub, d = products[:half], products[half]
    a, b = c[:half], c[half:]
    sa, sb = ref_sign(sub, a), ref_sign(sub, b)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    norm = [x - d * y for x, y in zip(ref_mul(sub, a, a), ref_mul(sub, b, b))]
    return sa * ref_sign(sub, norm)


def assert_canonical(x):
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert len(x.nums) == x.field.size
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


def value(x):
    assert_canonical(x)
    return list(x.coeffs)


# -- representation ----------------------------------------------------------------


class TestCanonicalForm:
    @PROPERTY
    @given(element_pairs(), st.integers(-50, 50).filter(bool))
    def test_constructor_and_round_trips(self, pair, k):
        field, a, _ = pair
        x = FieldElement(field, a)
        assert value(x) == a
        assert FieldElement(field, x.coeffs).nums == x.nums
        y = FieldElement.from_integers(field, [n * k for n in x.nums], x.den * k)
        assert (y.nums, y.den) == (x.nums, x.den)
        assert_canonical(y)

    def test_zero_is_all_zeros_over_one(self):
        for field in FIELDS:
            for z in (field.zero(), FieldElement(field, [Fraction(0, 7)] * field.size),
                      FieldElement.from_integers(field, [0] * field.size, 12)):
                assert z.nums == (0,) * field.size and z.den == 1

    def test_from_integers_refuses_bad_input(self):
        f = Field([2])
        with pytest.raises(ZeroDivisionError):
            FieldElement.from_integers(f, [1, 2], 0)
        with pytest.raises(TypeError):
            FieldElement.from_integers(f, [Fraction(1, 2), 0], 1)
        with pytest.raises(FieldError):
            FieldElement.from_integers(f, [1, 2, 3], 1)

    def test_slots(self):
        assert FieldElement.__slots__ == ("field", "nums", "den", "_sign")


class TestAgainstFractionModel:
    @PROPERTY
    @given(element_pairs())
    def test_ring_operations(self, pair):
        field, a, b = pair
        x, y = FieldElement(field, a), FieldElement(field, b)
        assert value(x + y) == [p + q for p, q in zip(a, b)]
        assert value(x - y) == [p - q for p, q in zip(a, b)]
        assert value(-x) == [-p for p in a]
        assert value(x * y) == ref_mul(field.products, a, b)

    @PROPERTY
    @given(element_pairs())
    def test_division_and_inverse(self, pair):
        field, a, b = pair
        x, y = FieldElement(field, a), FieldElement(field, b)
        if not any(b):
            with pytest.raises(ZeroDivisionError):
                x / y
            return
        one = [Fraction(1)] + [Fraction(0)] * (field.size - 1)
        assert ref_mul(field.products, value(y.inverse()), b) == one
        assert ref_mul(field.products, value(x / y), b) == a

    @PROPERTY
    @given(element_pairs(), st.fractions(max_denominator=50))
    def test_scalar_operations(self, pair, q):
        field, a, _ = pair
        x = FieldElement(field, a)
        assert value(x * q) == value(q * x) == [p * q for p in a]
        assert value(x + q) == value(q + x) == [a[0] + q, *a[1:]]
        assert value(q - x) == [q - a[0], *[-p for p in a[1:]]]
        if q:
            assert value(x / q) == [p / q for p in a]
        assert (x == q) == (a == [q] + [0] * (field.size - 1))

    @PROPERTY
    @given(element_pairs())
    def test_equality_and_hash(self, pair):
        field, a, b = pair
        x, y = FieldElement(field, a), FieldElement(field, b)
        assert (x == y) == (a == b)
        assert x == FieldElement(field, list(a)) and hash(x) == hash(FieldElement(field, list(a)))
        if x.is_rational():
            assert hash(x) == hash(a[0])
            assert x == a[0] and {a[0]: 1}[x] == 1

    @PROPERTY
    @given(element_pairs())
    def test_order_and_sign(self, pair):
        field, a, b = pair
        x, y = FieldElement(field, a), FieldElement(field, b)
        s = ref_sign(field.products, [p - q for p, q in zip(a, b)])
        assert ((x < y), (x <= y), (x > y), (x >= y)) == (s < 0, s <= 0, s > 0, s >= 0)
        assert (x - y).sign() == s
        assert x.sign() == ref_sign(field.products, a)
        q = a[0] + 1
        assert (x < q) == (ref_sign(field.products, [a[0] - q, *a[1:]]) < 0)


# -- near-degenerate signs ---------------------------------------------------------


def sqrt2_convergents(max_q):
    p, q = 1, 1
    while q <= max_q:
        yield p, q
        p, q = p + 2 * q, p + q


class TestNearDegenerate:
    def test_convergents_of_sqrt2(self, monkeypatch):
        precisions = []
        enclosure = field_module._enclosure

        def recording(field, nums, prec):
            precisions.append(prec)
            return enclosure(field, nums, prec)

        monkeypatch.setattr(field_module, "_enclosure", recording)
        fields = [Field([2]), Field([2, 3, 5, 7])]
        hard = 0
        for p, q in sqrt2_convergents(10**60):
            expected = (2 * q * q > p * p) - (2 * q * q < p * p)
            for f in fields:
                precisions.clear()
                x = f.sqrt(2) * q - p
                assert x.sign() == expected
                assert (f.sqrt(2) * q > p) == (expected > 0)
                if q > 10**5:
                    # |sqrt2*q - p| < 1/q, far below a 32-bit enclosure of sqrt2*q
                    assert precisions[0] == 32 and max(precisions) > 32
                    hard += 1
        assert q > 10**59 and hard > 100
