"""Exact field arithmetic: descriptors, operators, sign, and enclosures."""

import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction
from math import isqrt, lcm

import pytest

from zonotile import Field, FieldError, RATIONALS
from zonotile.field import int_str

from conftest import F2, F23, rand_element


class TestDescriptor:
    def test_rational_field_is_single_monomial(self):
        assert RATIONALS.size == 1
        assert RATIONALS.products == (1,)

    def test_two_radicands_give_four_monomials(self):
        f = Field([2, 3])
        assert f.size == 4
        assert set(f.products) == {1, 2, 3, 6}

    def test_non_squarefree_rejected(self):
        with pytest.raises(FieldError):
            Field([4])
        with pytest.raises(FieldError):
            Field([12])

    def test_squarefree_check_matches_division_by_squares(self):
        # the check divides only up to the cube root; hold it to the plain
        # test "no odd square and not 4 divides n" on small n
        def by_squares(n):
            return n % 4 != 0 and all(n % (p * p) for p in range(3, isqrt(n) + 1, 2))

        for n in range(2, 5000):
            if by_squares(n):
                Field([n])
            else:
                with pytest.raises(FieldError, match="not squarefree"):
                    Field([n])
        p, q = 999983, 1000003  # primes
        with pytest.raises(FieldError, match="not squarefree"):
            Field([q * q])
        with pytest.raises(FieldError, match="not squarefree"):
            Field([2 * p * p])
        assert Field([p * q]).radicands == (p * q,)

    def test_radicand_above_cap_rejected(self):
        with pytest.raises(FieldError, match=str(10**18 + 1)):
            Field([10**18 + 1])

    def test_duplicates_rejected(self):
        with pytest.raises(FieldError):
            Field([2, 2])

    def test_small_radicands_rejected(self):
        with pytest.raises(FieldError):
            Field([1])
        with pytest.raises(FieldError):
            Field([0])

    def test_multiplicative_dependence_rejected(self):
        # 2 * 3 * 6 = 36 is a perfect square, so {1, r2, r3, r6, ...} would
        # be linearly dependent; distinct squarefree alone is not enough.
        with pytest.raises(FieldError):
            Field([2, 3, 6])

    def test_at_most_four_radicands(self):
        Field([2, 3, 5, 7])
        with pytest.raises(FieldError):
            Field([2, 3, 5, 7, 11])

    def test_radicands_stored_sorted(self):
        assert Field([3, 2]).radicands == (2, 3)

    def test_radicands_must_be_integers(self):
        # read with operator.index, as from_integers reads numerators:
        # a float or a digit string is refused, not truncated
        for rads in ([2.5], [3.99], ["3"], [2, 3.0]):
            with pytest.raises(TypeError):
                Field(rads)


class TestInterning:
    """One live ``Field`` per sorted radicand tuple, compared with ``is``."""

    def test_one_object_per_radicand_set(self):
        assert Field([3, 2]) is Field([2, 3])
        assert Field(()) is RATIONALS
        assert F2.union(Field([3])) is Field([2, 3])

    def test_refused_tuple_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(FieldError, match="not squarefree"):
                Field([2, 12])

    def test_copies_and_pickles_keep_the_field(self):
        x = F23.sqrt(2) + Fraction(1, 3)
        for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert back.field is x.field
            assert back == x
        assert copy.deepcopy(F23) is F23
        # a copy rebuilt on a bare Field() would have overwritten the rationals
        assert RATIONALS.radicands == ()
        assert RATIONALS.size == 1

    def test_recent_field_outlives_its_elements(self):
        rads = (19, 23)  # a field no other test builds
        x = Field(rads).sqrt(19)
        kept = weakref.ref(x.field)
        del x
        gc.collect()
        assert kept() is not None and Field(rads) is kept()
        for _ in range(3):
            with pytest.raises(FieldError, match="multiplicatively dependent"):
                Field([2, 3, 6])

    def test_field_is_rebuilt_after_its_elements_are_gone(self):
        rads = (13, 17)  # a field no other test keeps alive
        x = Field(rads).sqrt(13) - 4  # its sign reads the field's roots
        assert x.sign() < 0
        gone = weakref.ref(x.field)
        del x
        # fields built later push it out of the few that are kept referenced
        for p in (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069):
            Field([p])
        gc.collect()
        assert gone() is None
        f = Field(rads)
        assert f.sqrt(13) * f.sqrt(17) == f.sqrt(221)
        assert (f.sqrt(17) - 4).sign() > 0
        assert str(f.sqrt(221) / 2) == "1/2*r221"


class TestIntegerWriter:
    def test_int_str_around_the_chunk_size(self):
        for n in (0, 7, 10**500 - 1, 10**500, 10**500 + 1, 10**1000 + 5):
            assert int_str(n) == str(n) and int_str(-n) == str(-n)


class TestArithmetic:
    def test_difference_of_squares(self):
        one = F2.one()
        r2 = F2.sqrt(2)
        assert (one + r2) * (one - r2) == -1

    def test_radicand_reduction(self):
        assert F2.sqrt(2) * F2.sqrt(2) == 2

    def test_mixed_monomial_product(self):
        f = F23
        assert f.sqrt(2) * f.sqrt(3) == f.sqrt(6)
        assert f.sqrt(6) * f.sqrt(2) == f.sqrt(3) * 2

    def test_inverse_of_one_plus_sqrt2(self):
        one = F2.one()
        r2 = F2.sqrt(2)
        inv = one / (one + r2)
        assert inv == r2 - one
        # the defining property, checked by multiplication
        assert (one + r2) * inv == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F2.one() / F2.zero()

    def test_division_returns_unique_quotient(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rand_element(rng, F23)
            b = rand_element(rng, F23)
            if b.is_zero():
                continue
            assert b * (a / b) == a

    def test_mixed_scalar_arithmetic(self):
        r2 = F2.sqrt(2)
        assert 1 + r2 - 1 == r2
        assert (r2 * Fraction(3, 2)) / Fraction(3, 2) == r2
        assert 2 / (r2 * r2) == 1

    def test_fields_do_not_mix(self):
        with pytest.raises(FieldError):
            F2.sqrt(2) + F23.sqrt(3)


class TestRationality:
    def test_plain_rational(self):
        x = F23.rational(Fraction(3, 2))
        assert x.is_rational()
        assert x.rational_value() == Fraction(3, 2)

    def test_sqrt_is_not_rational(self):
        assert not F2.sqrt(2).is_rational()
        assert F2.sqrt(2).rational_value() is None

    def test_square_of_sqrt_collapses(self):
        x = F2.sqrt(2) * F2.sqrt(2) / 2
        assert x.is_rational()
        assert x.rational_value() == 1


class TestSign:
    def test_zero(self):
        assert F2.zero().sign() == 0

    def test_sqrt2_minus_three_halves(self):
        # oracle: (3/2)^2 = 9/4 > 2, so sqrt2 < 3/2
        assert (F2.sqrt(2) - Fraction(3, 2)).sign() == -1

    def test_sqrt2_plus_sqrt3_minus_three(self):
        # oracle: (r2 + r3)^2 = 5 + 2*r6 and (2*r6)^2 = 24 > 16 = 4^2,
        # so r2 + r3 > 3
        assert (F23.sqrt(2) + F23.sqrt(3) - 3).sign() == 1

    def test_sign_is_multiplicative(self):
        rng = random.Random(11)
        for _ in range(300):
            a = rand_element(rng, F23)
            b = rand_element(rng, F23)
            assert a.sign() * b.sign() == (a * b).sign()

    def test_zero_test_is_exact(self):
        rng = random.Random(13)
        for _ in range(200):
            a = rand_element(rng, F23)
            assert (a - a).sign() == 0

    def test_tiny_nonzero_differences_are_detected(self):
        # sqrt(2)*sqrt(3) - sqrt(6) is exactly zero ...
        f = F23
        assert (f.sqrt(2) * f.sqrt(3) - f.sqrt(6)).sign() == 0
        # ... while a close rational approximation of sqrt(6) is not
        approx = Fraction(4866, 1987)  # within 4e-8 of sqrt(6)
        assert (f.sqrt(6) - approx).sign() != 0

    def test_order_key_sorts_numerators_by_value(self):
        assert RATIONALS.order_key() is None
        rng = random.Random(17)
        for f in (F2, F23):
            xs = [rand_element(rng, f) for _ in range(40)]
            den = lcm(*(x.den for x in xs))
            nums = [tuple(n * (den // x.den) for n in x.nums) for x in xs]
            # oracle: the elements' own comparisons
            assert sorted(nums, key=f.order_key()) == [nums[i] for i in sorted(range(40), key=xs.__getitem__)]


class TestFloorCeil:
    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda: F2.sqrt(2), 1),
            (lambda: -F2.sqrt(2), -2),
            (lambda: F2.rational(Fraction(5, 2)), 2),
            (lambda: F2.rational(Fraction(-5, 2)), -3),
            (lambda: F2.rational(3), 3),
            (lambda: F23.sqrt(2) + F23.sqrt(3), 3),
        ],
    )
    def test_floor(self, build, expected):
        assert build().floor() == expected

    def test_ceil(self):
        assert F2.sqrt(2).ceil() == 2
        assert (-F2.sqrt(2)).ceil() == -1
        assert F2.rational(3).ceil() == 3


class TestFieldAxioms:
    def test_axioms_on_random_elements(self):
        rng = random.Random(23)
        one = F23.one()
        for _ in range(1000):
            a = rand_element(rng, F23, density=0.6)
            b = rand_element(rng, F23, density=0.6)
            c = rand_element(rng, F23, density=0.6)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == one


class TestEmbedding:
    def test_embed_rational_into_bigger_field(self):
        x = RATIONALS.rational(Fraction(2, 3))
        y = F23.embed(x)
        assert y.field == F23
        assert y.rational_value() == Fraction(2, 3)

    def test_embed_sqrt2(self):
        x = F2.sqrt(2)
        y = F23.embed(x)
        assert y == F23.sqrt(2)

    def test_embed_missing_monomial_fails(self):
        with pytest.raises(FieldError):
            F2.embed(F23.sqrt(3))

    def test_union(self):
        assert F2.union(Field([3])).radicands == (2, 3)
        assert F2.union(F2) is F2
