"""Exact arithmetic in real multi-quadratic number fields.

A :class:`Field` is Q with the square roots of a few multiplicatively
independent squarefree integers adjoined, e.g. Q(sqrt2, sqrt3).  An
element is held in common-denominator form (Cohen, *A Course in
Computational Algebraic Number Theory*, 1993, section 4.2): integer
numerators on the 2**k monomial basis
{prod_{i in S} sqrt(d_i) : S subset of {1..k}} over one positive
denominator, in lowest terms.  The form is unique, so the zero test and
equality compare integer tuples, and arithmetic is integer arithmetic:
each sum, difference or product is formed over the product of the
denominators and brought to lowest terms by one gcd.

Signs are decided on integers too.  With s = isqrt(p << 2*prec), the
monomial sqrt(p) lies strictly between s and s + 1 over 2**prec, so the
numerators times those bounds enclose the element times 2**prec.  A sign
takes one 32-bit enclosure and, when that holds zero, the exact norm
recursion of :meth:`Field.sign`, one level per radicand; a floor takes
one enclosure that leaves at most two candidates, and one sign.  No
predicate in this package touches floating point.

There is one live :class:`Field` per radicand set, so the package
compares fields with ``is``, and each field carries the JSON name of
every monomial of its basis.  The last few fields built stay referenced,
so a field that one document after another declares is validated once.

The integer kernels are public :class:`Field` methods on numerator
tuples: ``product``, ``sign``, the one division ``divide`` and the one
``floor``.  Element arithmetic and comparisons call them, and so does the
pipeline, which keeps its values as numerator tuples over denominators.
"""

from __future__ import annotations

import weakref
from collections import deque
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isqrt, lcm
from operator import add, index, mul, neg, sub

from .errors import FieldError

__all__ = ["Field", "FieldElement", "RATIONALS", "int_str"]

_MAX_RADICANDS = 4
_MAX_RADICAND = 10**18
# the bits of every sign's enclosure and the fewest of a floor's
_PREC = 32
# the live field of each sorted radicand tuple; a field leaves with its last
# reference, and the most recently built ones keep one here
_FIELDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_RECENT_FIELDS: deque = deque(maxlen=8)


def _is_squarefree(n: int) -> bool:
    """Squarefree test for n >= 1 by trial division up to the cube root.

    Once every prime p with p**3 <= n is divided out, the cofactor has at
    most two prime factors, so it is squarefree exactly when it is 1 or not
    a perfect square.
    """
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    return n == 1 or not _is_square(n)


def _is_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


# digits per chunk of :func:`int_str`, under the least digit limit (640)
# that ``sys.set_int_max_str_digits`` accepts, and the size that takes chunks
_CHUNK_DIGITS = 500
_CHUNK = 10**_CHUNK_DIGITS


def int_str(n: int) -> str:
    """``str(n)`` for an int of any length, the one integer writer: below
    ``_CHUNK`` in size ``int.__repr__``, and otherwise in chunks of
    ``_CHUNK_DIGITS`` digits, each within the interpreter's digit limit."""
    if abs(n) < _CHUNK:
        return int.__repr__(n)
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(int.__repr__(n))
    return sign + "".join(reversed(chunks))


class Field:
    """Q(sqrt d_1, ..., sqrt d_k), k <= 4, one object per field.

    The radicands must be distinct squarefree integers >= 2 that are
    multiplicatively independent modulo squares (no nonempty subset has a
    perfect-square product); this is exactly what makes the 2**k monomials
    linearly independent over Q.  ``Field(radicands)`` reads them with
    ``operator.index``, sorts them and returns the one live field for that
    tuple, so fields are compared with ``is``; a copy or a pickle of a
    field is that field again.  ``names`` holds the JSON name of each
    monomial in mask order: "1", then "r" and the monomial's product, and
    ``mask_of_name`` maps each name back to its mask.
    """

    __slots__ = (
        "radicands", "products", "size", "names", "mask_of_name", "_mask_of_product", "_zeros", "_roots", "__weakref__"
    )

    def __new__(cls, radicands=()):
        rads = tuple(sorted(map(index, radicands)))
        self = _FIELDS.get(rads)
        if self is not None:
            return self
        if len(rads) > _MAX_RADICANDS:
            raise FieldError(f"at most {_MAX_RADICANDS} radicands supported, got {len(rads)}")
        for d in rads:
            if d < 2:
                raise FieldError(f"radicand {d} must be an integer >= 2")
            if d > _MAX_RADICAND:
                raise FieldError(f"radicand {d} exceeds the supported maximum 10**18")
            if not _is_squarefree(d):
                raise FieldError(f"radicand {d} is not squarefree")
        if len(set(rads)) != len(rads):
            raise FieldError(f"duplicate radicand in {rads}")
        products = []
        for mask in range(1 << len(rads)):
            p = 1
            for i, d in enumerate(rads):
                if mask >> i & 1:
                    p *= d
            products.append(p)
        for mask, p in enumerate(products):
            if mask and _is_square(p):
                raise FieldError(
                    f"radicands {rads} are multiplicatively dependent "
                    f"(subset product {p} is a perfect square)"
                )
        self = object.__new__(cls)
        self.radicands = rads
        self.products = tuple(products)
        self.size = len(products)
        self.names = ("1", *(f"r{p}" for p in products[1:]))
        self._mask_of_product = {p: m for m, p in enumerate(products)}
        self.mask_of_name = {n: m for m, n in enumerate(self.names)}
        self._zeros = (0,) * len(products)
        self._roots = tuple(isqrt(p << 2 * _PREC) for p in products)
        _FIELDS[rads] = self
        _RECENT_FIELDS.append(self)
        return self

    def __reduce__(self):
        return Field, (self.radicands,)

    def __repr__(self):
        return f"Field({list(self.radicands)})"

    # -- element constructors ----------------------------------------------

    def zero(self) -> FieldElement:
        return _make(self, self._zeros, 1)

    def one(self) -> FieldElement:
        return _make(self, (1, *self._zeros[1:]), 1)

    def rational(self, q) -> FieldElement:
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _make(self, (q.numerator, *self._zeros[1:]), q.denominator)

    def sqrt(self, d: int) -> FieldElement:
        """The basis monomial whose square is the integer ``d``."""
        mask = self._mask_of_product.get(d)
        if mask is None:
            raise FieldError(f"sqrt({d}) is not a basis monomial of {self!r}")
        nums = list(self._zeros)
        nums[mask] = 1
        return _make(self, tuple(nums), 1)

    def root(self, d: int) -> tuple[int, Fraction] | None:
        """sqrt(d) for an integer d >= 1 as (r / p) * sqrt(p): the mask of
        the monomial p with d * p == r * r and the factor r / p, or None
        when there is no such p."""
        p = next((p for p in self.products if isqrt(d * p) ** 2 == d * p), None)
        return None if p is None else (self._mask_of_product[p], Fraction(isqrt(d * p), p))

    def element(self, coeffs_by_mask) -> FieldElement:
        """The element with rational coefficient ``coeffs_by_mask[m]`` on
        monomial m and zero on the others.

        The pipeline builds its elements from integers
        (:meth:`FieldElement.from_integers`, which the JSON decoder calls);
        this rational form serves the tests and the bench's generators."""
        coeffs = [0] * self.size
        for mask, c in coeffs_by_mask.items():
            if not 0 <= mask < self.size:
                raise FieldError(f"monomial index {mask} out of range")
            coeffs[mask] = c
        return FieldElement(self, coeffs)

    # -- relations between fields --------------------------------------------

    def union(self, other: Field) -> Field:
        return Field(set(self.radicands) | set(other.radicands))

    def embed(self, x: FieldElement) -> FieldElement:
        """Reinterpret an element of a compatible (sub)field in this field."""
        if x.field is self:
            return x
        nums = list(self._zeros)
        for mask, n in enumerate(x.nums):
            if not n:
                continue
            here = self._mask_of_product.get(x.field.products[mask])
            if here is None:
                raise FieldError(
                    f"monomial sqrt({x.field.products[mask]}) does not exist in {self!r}"
                )
            nums[here] = n
        return _make(self, tuple(nums), x.den)

    # -- integer kernels -------------------------------------------------------

    def product(self, a, b) -> tuple[int, ...]:
        """The numerators of the product of two elements given by their
        numerators, over the product of their denominators, unreduced.

        Monomials multiply as sqrt(p_s) * sqrt(p_t) = p_(s&t) * sqrt(p_(s^t)),
        so equal inputs over equal denominators give equal outputs."""
        if len(a) == 1:
            return (a[0] * b[0],)
        products = self.products
        out = [0] * len(a)
        for s, x in enumerate(a):
            if not x:
                continue
            for t, y in enumerate(b):
                if y:
                    out[s ^ t] += x * y * products[s & t]
        return tuple(out)

    def sign(self, nums) -> int:
        """The sign of sum(nums[m] * sqrt(products[m])), decided on integers:
        one enclosure, or else, with a and b the halves of nums and d the
        top radicand, a + b*sqrt(d) has the sign of a and b when they agree
        or one is 0, and otherwise sign(a) times that of its product with
        a - b*sqrt(d), the norm a**2 - d*b**2, all without sqrt(d)."""
        if not any(nums[1:]):
            n = nums[0]
            return (n > 0) - (n < 0)
        lo, hi = _enclosure(nums, self._roots)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        half = len(nums) // 2
        a, b = nums[:half], nums[half:]
        sa, sb = self.sign(a), self.sign(b)
        if sa == sb or not sa * sb:
            return sa or sb
        return sa * self.sign(self.product(nums, (*a, *map(neg, b)))[:half])

    def order_key(self):
        """The sort key that orders numerator tuples over one denominator
        by value: None over Q, where tuple order is integer order, and
        otherwise the exact sign of their difference."""
        if self.size == 1:
            return None
        sign = self.sign
        return cmp_to_key(lambda a, b: sign(tuple(map(sub, a, b))))

    def divide(self, a, da: int, b, db: int) -> tuple[tuple[int, ...], int]:
        """(a/da) / (b/db) for numerator tuples, as numerators over a
        positive denominator in lowest terms.  Multiplying by b's conjugate
        in radicand i (its monomials holding i negated) clears i from b, so
        one product per radicand leaves the rational divisor b[0]."""
        if not any(b):
            raise ZeroDivisionError("division by zero field element")
        for bit in (1 << i for i in range(len(self.radicands))):
            if any(n for mask, n in enumerate(b) if mask & bit):
                conj = tuple(-n if mask & bit else n for mask, n in enumerate(b))
                a, b = self.product(a, conj), self.product(b, conj)
        den = da * b[0]
        if den < 0:
            db, den = -db, -den
        return _lowest(tuple([n * db for n in a]), den)

    def floor(self, nums, den: int) -> int:
        """floor(sum(nums[m] * sqrt(products[m])) / den) for den > 0: the
        enclosure spans the sum of the irrational numerators' sizes, so
        with den << prec above that it leaves f and f + 1, and a sign picks."""
        if not any(nums[1:]):
            return nums[0] // den
        prec = max(_PREC, sum(map(abs, nums[1:])).bit_length() - den.bit_length() + 1)
        roots = self._roots if prec == _PREC else [isqrt(p << 2 * prec) for p in self.products]
        lo, hi = _enclosure(nums, roots)
        scale = den << prec
        f = lo // scale
        if f == hi // scale:
            return f
        return f + (self.sign((nums[0] - (f + 1) * den, *nums[1:])) >= 0)


RATIONALS = Field(())


_new = object.__new__


def _make(field: Field, nums: tuple[int, ...], den: int) -> FieldElement:
    """An element from numerators and a denominator already in lowest terms."""
    x = _new(FieldElement)
    x.field = field
    x.nums = nums
    x.den = den
    return x


def _lowest(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Numerators and their positive denominator divided by their gcd;
    ``nums`` itself when that is 1."""
    g = 1 if den == 1 else gcd(den, *nums)
    return (nums, den) if g == 1 else (tuple([n // g for n in nums]), den // g)


def _reduced(field: Field, nums: tuple[int, ...], den: int) -> FieldElement:
    """An element from numerators over a positive denominator, reduced."""
    return _make(field, *_lowest(nums, den))


def _add(field: Field, a, da: int, op, b, db: int) -> FieldElement:
    """a/da op b/db in lowest terms, ``op`` being ``operator.add`` or
    ``operator.sub``."""
    return _reduced(field, tuple(map(op, [x * db for x in a], [y * da for y in b])), da * db)


def _enclosure(nums, roots) -> tuple[int, int]:
    """Integers lo < v * 2**prec < hi for v = sum(nums[m] * sqrt(products[m]))
    with an irrational part and roots[m] = isqrt(products[m] << 2*prec),
    nums possibly a prefix; equal bounds when there is none."""
    lo = hi = sum(map(mul, nums, roots))
    for n in nums[1:]:
        if n < 0:
            lo += n
        else:
            hi += n
    return lo, hi


class FieldElement:
    """An exact element of a multi-quadratic field.

    ``nums`` holds one integer numerator per monomial of the field basis
    and ``den`` their positive common denominator, in lowest terms:
    gcd(den, *nums) == 1, and zero is all zeros over 1.  Equal values
    therefore have equal representations, which is what ``==`` and
    ``hash`` compare; a rational element hashes like the equal ``int`` or
    ``Fraction``.  ``coeffs`` gives the value as one ``Fraction`` per
    monomial, and the constructor takes that form back;
    :meth:`from_integers` builds an element from numerators over any
    nonzero denominator.

    Comparisons take the sign of the cross-multiplied numerator
    difference without building an element.  Division and ``floor`` are
    :meth:`Field.divide` and :meth:`Field.floor` on the numerators.

    Values are immutable; all operators are pure.  Mixed arithmetic with
    ``int`` and ``Fraction`` lifts the scalar into the field; elements of
    fields with different radicand sets do not mix (embed first).
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: Field, coeffs):
        """The element with rational coefficient ``coeffs[m]`` on monomial m."""
        if len(coeffs) != field.size:
            raise FieldError(f"{len(coeffs)} coefficients for a field of {field.size} monomials")
        # an int is taken as it is, anything else (a bool included) once as
        # a Fraction; every q is then in lowest terms, so the lcm of their
        # denominators is the least common denominator
        qs = [c if type(c) is int else Fraction(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        self.field = field
        self.nums = tuple(q.numerator * (den // q.denominator) for q in qs)
        self.den = den

    @classmethod
    def from_integers(cls, field: Field, nums, den: int = 1) -> FieldElement:
        """The element sum(nums[m] * monomial m) / den, in lowest terms."""
        nums = tuple(map(index, nums))
        den = index(den)
        if len(nums) != field.size:
            raise FieldError(f"{len(nums)} numerators for a field of {field.size} monomials")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            nums, den = tuple(map(neg, nums)), -den
        return _reduced(field, nums, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficient of each monomial."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- coercion ------------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldError(
                    f"cannot mix elements of {self.field!r} and {other.field!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _add(self.field, self.nums, self.den, add, o.nums, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _add(self.field, self.nums, self.den, sub, o.nums, o.den)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _add(self.field, o.nums, o.den, sub, self.nums, self.den)

    def __neg__(self):
        return _make(self.field, tuple(map(neg, self.nums)), self.den)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _reduced(self.field, self.field.product(self.nums, o.nums), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _make(self.field, *self.field.divide(self.nums, self.den, o.nums, o.den))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> FieldElement:
        """Multiplicative inverse (:meth:`Field.divide`)."""
        return self.field.one() / self

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction | None:
        """The exact rational value, or None if any sqrt monomial survives."""
        if self.is_rational():
            return Fraction(self.nums[0], self.den)
        return None

    def sign(self) -> int:
        return self.field.sign(self.nums)

    def floor(self) -> int:
        return self.field.floor(self.nums, self.den)

    def ceil(self) -> int:
        return -self.field.floor(tuple(map(neg, self.nums)), self.den)

    # -- order and identity -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                self.den == other.den
                and self.nums == other.nums
                and other.field is self.field
            )
        if isinstance(other, (int, Fraction)):
            nums = self.nums
            return self.den == other.denominator and nums[0] == other.numerator and not any(nums[1:])
        return NotImplemented

    def __hash__(self):
        nums = self.nums
        if any(nums[1:]):
            return hash((nums, self.den))
        return hash(Fraction(nums[0], self.den))

    def _cmp_sign(self, other) -> int:
        """The sign of self - other, from the cross-multiplied numerators."""
        o = self._lift(other)
        if o is None:
            raise TypeError(f"cannot compare FieldElement with {type(other).__name__}")
        a, da, b, db = self.nums, self.den, o.nums, o.den
        if da != db:
            a, b = [x * db for x in a], [y * da for y in b]
        return self.field.sign(tuple(map(sub, a, b)))

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- display -------------------------------------------------------------

    def __str__(self):
        terms = []
        for name, c in zip(self.field.names, self.coeffs):
            if not c:
                continue
            if name == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(name)
            else:
                terms.append(f"{c}*{name}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def __repr__(self):
        return f"<{self} in {self.field!r}>"

