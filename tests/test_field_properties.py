"""The common-denominator representation against a plain ``Fraction`` model.

The reference model holds an element as one ``Fraction`` per monomial and
multiplies by the XOR rule.  Its sign is decided exactly by recursive
squaring on the last radicand d: a + b*sqrt(d) has the sign of a and b
when they agree, and otherwise sign(a) * sign(a**2 - d*b**2), with a and b
in the field without sqrt(d).  That is the recursion ``Field.sign`` falls
back on, so signs and floors are also held against sympy's guaranteed
numerical evaluation, which shares nothing with either.
"""

from fractions import Fraction
import math
import re
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zonotile import RATIONALS, Field, FieldElement, FieldError, PlaneVector, vector

FIELDS = [RATIONALS, Field([2]), Field([2, 3]), Field([2, 3, 5, 7])]
PROPERTY = settings(max_examples=60, deadline=None)

coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    st.integers(-(10**30), 10**30).map(Fraction),
)


def coefficients(field, small=False):
    c = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4) if small else coefficient
    return st.lists(c, min_size=field.size, max_size=field.size)


@st.composite
def element_pairs(draw, small=False):
    """A field and two coefficient lists; ``small`` keeps them below 10**6,
    which bounds the reference floor's bisection."""
    field = draw(st.sampled_from(FIELDS))
    a = draw(coefficients(field, small))
    b = draw(coefficients(field, small))
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


def ref_floor(products, c):
    """floor of the value, by bisection on ``ref_sign`` from a float guess
    that the bisection checks, or else from a bound on |value|."""
    def at_most(n):  # n <= value
        return ref_sign(products, [c[0] - n, *c[1:]]) >= 0

    guess = math.floor(sum(float(x) * math.sqrt(p) for x, p in zip(c, products)))
    lo, hi = guess - 1, guess + 2
    if not (at_most(lo) and not at_most(hi)):
        lo = -(hi := int(sum(abs(x) * (math.isqrt(p) + 1) for x, p in zip(c, products))) + 1)
    while hi - lo > 1:  # lo <= value < hi
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if at_most(mid) else (lo, mid)
    return lo


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
        # whole coefficients as ints, which the constructor takes as they are
        mixed = [int(c) if c.denominator == 1 else c for c in a]
        for y in (FieldElement(field, mixed), field.element({m: c for m, c in enumerate(mixed) if c})):
            assert (y.nums, y.den) == (x.nums, x.den)

    def test_zero_is_all_zeros_over_one(self):
        for field in FIELDS:
            for z in (field.zero(), FieldElement(field, [Fraction(0, 7)] * field.size),
                      FieldElement.from_integers(field, [0] * field.size, 12), field.element({})):
                assert z.nums == (0,) * field.size and z.den == 1

    def test_from_integers_refuses_bad_input(self):
        f = Field([2])
        with pytest.raises(ZeroDivisionError):
            FieldElement.from_integers(f, [1, 2], 0)
        with pytest.raises(TypeError):
            FieldElement.from_integers(f, [Fraction(1, 2), 0], 1)
        with pytest.raises(FieldError):
            FieldElement.from_integers(f, [1, 2, 3], 1)

    def test_element_by_mask_coefficients(self):
        for field in FIELDS:
            assert field.element({0: True}) == field.one() == FieldElement(field, [True] + [False] * (field.size - 1))
            assert field.element({field.size - 1: "-3/6"}).coeffs[-1] == Fraction(-1, 2)
            for mask in (-1, field.size):
                with pytest.raises(FieldError, match=f"monomial index {mask} out of range"):
                    field.element({mask: 1})

    def test_slots(self):
        assert FieldElement.__slots__ == ("field", "nums", "den")


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


@st.composite
def vector_pairs(draw):
    """A field and the coefficient lists of ux, uy, vx and vy."""
    field = draw(st.sampled_from(FIELDS))
    return field, [draw(coefficients(field)) for _ in range(4)]


class TestVectorProducts:
    @PROPERTY
    @given(vector_pairs())
    def test_cross_and_dot(self, case):
        field, (ux, uy, vx, vy) = case
        u = PlaneVector(FieldElement(field, ux), FieldElement(field, uy))
        v = PlaneVector(FieldElement(field, vx), FieldElement(field, vy))
        products = field.products
        assert value(u.cross(v)) == [p - q for p, q in zip(ref_mul(products, ux, vy), ref_mul(products, uy, vx))]
        assert value(u.dot(v)) == [p + q for p, q in zip(ref_mul(products, ux, vx), ref_mul(products, uy, vy))]
        # value() holds every result to lowest terms, and zero to all zeros over 1
        assert value(u.cross(u)) == value(u.cross(v) + v.cross(u)) == [0] * field.size

    def test_vectors_over_two_fields_do_not_mix(self):
        for f, g in zip(FIELDS, FIELDS[1:]):
            u, v = vector(f, 1, Fraction(1, 2)), vector(g, 3, Fraction(-4, 3))
            for a, b in ((u, v), (v, u)):
                message = re.escape(f"cannot mix elements of {a.field!r} and {b.field!r}")
                for product in (a.cross, a.dot):
                    with pytest.raises(FieldError, match=message):
                        product(b)


# -- the division and floor kernels ------------------------------------------------

nonzero = st.integers(-(10**12), 10**12).filter(bool)


@st.composite
def divisions(draw):
    """Numerators a over da and a divisor b over db with 1 to 2**k nonzero
    monomials; both denominators may be negative, and a/da is unreduced."""
    field = draw(st.sampled_from(FIELDS))
    a = draw(st.lists(st.integers(-(10**12), 10**12), min_size=field.size, max_size=field.size))
    support = draw(st.sets(st.integers(0, field.size - 1), min_size=1))
    b = [draw(nonzero) if mask in support else 0 for mask in range(field.size)]
    g = draw(st.integers(1, 1000))
    da, db = draw(st.integers(-(10**6), 10**6).filter(bool)), draw(nonzero)
    return field, [n * g for n in a], da * g, b, db


class TestDivideAndFloor:
    @PROPERTY
    @given(divisions())
    def test_divide(self, case):
        field, a, da, b, db = case
        nums, den = field.divide(tuple(a), da, tuple(b), db)
        assert all(type(n) is int for n in nums) and len(nums) == field.size
        assert den > 0 and gcd(den, *nums) == 1 and (any(nums) or den == 1)
        quotient = [Fraction(n, den) for n in nums]
        assert ref_mul(field.products, quotient, [Fraction(n, db) for n in b]) == [Fraction(n, da) for n in a]

    def test_zero_divisor(self):
        for field in FIELDS:
            with pytest.raises(ZeroDivisionError):
                field.divide((1,) * field.size, 1, (0,) * field.size, 5)
            with pytest.raises(ZeroDivisionError):
                field.one() / field.zero()
            with pytest.raises(ZeroDivisionError):
                field.zero().inverse()

    @PROPERTY
    @given(element_pairs(small=True), st.integers(1, 50))
    def test_floor_and_ceil(self, pair, k):
        field, a, _ = pair
        x = FieldElement(field, a)
        fl = ref_floor(field.products, a)
        assert x.floor() == fl == field.floor(x.nums, x.den)
        assert field.floor([n * k for n in x.nums], x.den * k) == fl
        assert x.ceil() == -ref_floor(field.products, [-c for c in a])

    def test_floor_and_ceil_next_to_integers(self):
        # sqrt2*q - p is within 1/q of 0, on the side its convergent gives
        for p, q in sqrt2_convergents(10**40):
            above = 2 * q * q > p * p
            for field in (Field([2]), Field([2, 3, 5, 7])):
                for n in (-3, 0, 7):
                    x = field.sqrt(2) * q - p + n
                    assert (x.floor(), x.ceil()) == ((n, n + 1) if above else (n - 1, n))
                    assert field.floor(x.nums, x.den) == x.floor()
                    exact, half = field.rational(n), field.rational(Fraction(2 * n - 1, 2))
                    assert (exact.floor(), exact.ceil(), half.floor(), half.ceil()) == (n, n, n - 1, n)


# -- near-degenerate signs ---------------------------------------------------------


def sqrt2_convergents(max_q):
    p, q = 1, 1
    while q <= max_q:
        yield p, q
        p, q = p + 2 * q, p + q


class TestNearDegenerate:
    def test_convergents_of_sqrt2(self, monkeypatch):
        calls = []
        sign = Field.sign

        def recording(field, nums):
            calls.append(tuple(nums))
            return sign(field, nums)

        monkeypatch.setattr(Field, "sign", recording)
        fields = [Field([2]), Field([2, 3, 5, 7])]
        hard = 0
        for p, q in sqrt2_convergents(10**60):
            expected = (2 * q * q > p * p) - (2 * q * q < p * p)
            for f in fields:
                calls.clear()
                x = f.sqrt(2) * q - p
                assert x.sign() == expected
                assert (f.sqrt(2) * q > p) == (expected > 0)
                if q > 10**5:
                    # |sqrt2*q - p| < 1/q, far below a 32-bit enclosure of
                    # sqrt2*q, so the sign recurses on halves of the tuple
                    # down to the rational norm p**2 - 2*q**2
                    assert calls[0] == x.nums and (-p, q) in calls
                    assert (p * p - 2 * q * q,) in calls
                    hard += 1
        assert q > 10**59 and hard > 100
        assert RATIONALS.size == 1


# -- signs and floors against sympy --------------------------------------------------

# working bits sympy may use to separate a value from zero; the elements
# below cancel at most a few hundred digits
SYMPY_MAXN = 20000


def sympy_sign(field, nums):
    """The sign of sum(nums[m] * sqrt(products[m])) from sympy's ``evalf``
    with ``strict=True``, which raises unless the digits it returns are
    correct, so one correct digit of a nonzero value gives its sign."""
    from sympy import Add, Integer, sqrt

    if not any(nums):
        return 0
    v = Add(*(Integer(n) * sqrt(Integer(p)) for n, p in zip(nums, field.products))).evalf(
        2, strict=True, maxn=SYMPY_MAXN
    )
    return 1 if v > 0 else -1


def sympy_floor(field, nums, den):
    """floor(value / den) for den > 0: the floor of a 60-digit sympy value,
    moved until sympy's signs of value - f*den and value - (f+1)*den bracket it."""
    from sympy import Add, Integer, floor, sqrt

    v = Add(*(Integer(n) * sqrt(Integer(p)) for n, p in zip(nums, field.products))) / den
    f = int(floor(v.evalf(60, strict=True, maxn=SYMPY_MAXN)))

    def at_least(n):  # value >= n * den
        return sympy_sign(field, (nums[0] - n * den, *nums[1:])) >= 0

    while not at_least(f):
        f -= 1
    while at_least(f + 1):
        f += 1
    return f


def conjugate(nums, flip):
    """The numerators with sqrt(d_i) negated for each radicand bit i in ``flip``."""
    return tuple(-n if bin(m & flip).count("1") % 2 else n for m, n in enumerate(nums))


@st.composite
def coefficient_elements(draw):
    """A field and an element with the coefficients of ``element_pairs``."""
    field, a, _ = draw(element_pairs())
    x = FieldElement(field, a)
    return field, x.nums, x.den


@st.composite
def near_zero_elements(draw):
    """A field, the numerators of a conjugate of (1+sqrt2)**k or
    (sqrt2+sqrt3)**k plus a rational in [-1, 1] that is 0 or ±1/10**j,
    times a basis monomial, and a small denominator.  The conjugates that
    shrink under powers, such as (1-sqrt2)**k, are below 0.42**k in size,
    so the element is that close to zero or to the rational times the
    monomial."""
    field = draw(st.sampled_from(FIELDS[1:]))
    unit = [0] * field.size
    if field.size > 2 and draw(st.booleans()):
        unit[1] = unit[2] = 1  # sqrt2 + sqrt3
    else:
        unit[0] = unit[1] = 1  # 1 + sqrt2
    x = (1, *[0] * (field.size - 1))
    for _ in range(draw(st.integers(1, 60))):
        x = field.product(x, unit)
    x = conjugate(x, draw(st.integers(0, field.size - 1)))
    j = draw(st.integers(0, 40))
    shift = draw(st.sampled_from([0, 1, -1]))
    den = draw(st.integers(1, 7))
    nums = [n * 10**j * den for n in x]
    nums[0] += shift * den
    monomial = [0] * field.size
    monomial[draw(st.integers(0, field.size - 1))] = 1
    return field, field.product(nums, monomial), 10**j * den


@st.composite
def pell_elements(draw):
    """±(q*sqrt2 - p) for a convergent p/q of sqrt2, with q up to 10**60,
    plus an integer, over a denominator, in any field with sqrt2."""
    field = draw(st.sampled_from(FIELDS[1:]))
    p, q = draw(st.sampled_from(list(sqrt2_convergents(10**60))))
    s = draw(st.sampled_from([1, -1]))
    nums = [0] * field.size
    nums[0], nums[1] = -s * p + draw(st.integers(-3, 3)), s * q
    return field, tuple(nums), draw(st.integers(1, 9))


@st.composite
def large_elements(draw):
    """Numerators up to 10**40 over a small denominator: floors of these
    take an enclosure above 32 bits."""
    field = draw(st.sampled_from(FIELDS))
    nums = draw(st.lists(st.integers(-(10**40), 10**40), min_size=field.size, max_size=field.size))
    return field, tuple(nums), draw(st.integers(1, 50))


def small_times_root(field, k, d):
    """(1 - sqrt2)**k * sqrt(d), about 2.4**-k in size: when d holds the top
    radicand, its lower half of numerators is zero and its upper half near zero."""
    x = field.one()
    for _ in range(k):
        x = x * (1 - field.sqrt(2))
    x = x * field.sqrt(d)
    return field, x.nums, x.den


class TestAgainstSympy:
    """``Field.sign`` and ``Field.floor`` against values sympy evaluates
    with guaranteed digits, which share nothing with the enclosure or the
    norm recursion."""

    @settings(max_examples=200, deadline=None)
    @example(small_times_root(Field([2, 3]), 40, 3))
    @example(small_times_root(Field([2, 3, 5, 7]), 40, 14))
    @given(st.one_of(coefficient_elements(), near_zero_elements(), pell_elements(), large_elements()))
    def test_sign_and_floor(self, case):
        field, nums, den = case
        assert field.sign(nums) == sympy_sign(field, nums)
        negated = tuple(-n for n in nums)
        assert field.floor(nums, den) == sympy_floor(field, nums, den)
        assert field.floor(negated, den) == sympy_floor(field, negated, den)
