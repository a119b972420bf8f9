"""Exact arithmetic in real multi-quadratic number fields.

A :class:`Field` is Q with the square roots of a few multiplicatively
independent squarefree integers adjoined, e.g. Q(sqrt2, sqrt3).  Elements
are exact rational coordinate vectors on the 2**k monomial basis
{prod_{i in S} sqrt(d_i) : S subset of {1..k}}, so the zero test and
equality are trivially decidable.  Signs are decided by refining rational
interval enclosures of the square roots, which terminates because a
nonzero element is bounded away from zero.  No predicate in this package
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import FieldError

__all__ = ["Field", "FieldElement", "RATIONALS"]

_MAX_RADICANDS = 4
_MAX_RADICAND = 10**18
_ZERO = Fraction(0)


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


class Field:
    """Descriptor of Q(sqrt d_1, ..., sqrt d_k), k <= 4.

    The radicands must be distinct squarefree integers >= 2 that are
    multiplicatively independent modulo squares (no nonempty subset has a
    perfect-square product); this is exactly what makes the 2**k monomials
    linearly independent over Q.  Radicands are stored sorted, so two
    fields with the same radicand set share one monomial layout.
    """

    __slots__ = ("radicands", "products", "_mask_of_product", "_sqrt_cache")

    def __init__(self, radicands=()):
        rads = tuple(sorted(int(d) for d in radicands))
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
        self.radicands = rads
        self.products = tuple(products)
        self._mask_of_product = {p: m for m, p in enumerate(products)}
        self._sqrt_cache: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.radicands == self.radicands

    def __hash__(self):
        return hash(self.radicands)

    def __repr__(self):
        return f"Field({list(self.radicands)})"

    @property
    def size(self) -> int:
        return len(self.products)

    # -- element constructors ----------------------------------------------

    def zero(self) -> FieldElement:
        return FieldElement(self, (_ZERO,) * self.size)

    def one(self) -> FieldElement:
        return self.rational(1)

    def rational(self, q) -> FieldElement:
        coeffs = [_ZERO] * self.size
        coeffs[0] = Fraction(q)
        return FieldElement(self, tuple(coeffs))

    def sqrt(self, d: int) -> FieldElement:
        """The basis monomial whose square is the integer ``d``."""
        mask = self._mask_of_product.get(d)
        if mask is None:
            raise FieldError(f"sqrt({d}) is not a basis monomial of {self!r}")
        coeffs = [_ZERO] * self.size
        coeffs[mask] = Fraction(1)
        return FieldElement(self, tuple(coeffs))

    def element(self, coeffs_by_mask) -> FieldElement:
        coeffs = [_ZERO] * self.size
        for mask, c in coeffs_by_mask.items():
            if not 0 <= mask < self.size:
                raise FieldError(f"monomial index {mask} out of range")
            coeffs[mask] = Fraction(c)
        return FieldElement(self, tuple(coeffs))

    # -- relations between fields --------------------------------------------

    def union(self, other: Field) -> Field:
        if other.radicands == self.radicands:
            return self
        return Field(sorted(set(self.radicands) | set(other.radicands)))

    def embed(self, x: FieldElement) -> FieldElement:
        """Reinterpret an element of a compatible (sub)field in this field."""
        if x.field.radicands == self.radicands:
            return FieldElement(self, x.coeffs)
        coeffs = [_ZERO] * self.size
        for mask, c in enumerate(x.coeffs):
            if not c:
                continue
            here = self._mask_of_product.get(x.field.products[mask])
            if here is None:
                raise FieldError(
                    f"monomial sqrt({x.field.products[mask]}) does not exist in {self!r}"
                )
            coeffs[here] = c
        return FieldElement(self, tuple(coeffs))

    # -- interval support ----------------------------------------------------

    def _sqrt_enclosure(self, mask: int, prec: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure of sqrt(products[mask]) of width 2**-prec."""
        key = (mask, prec)
        cached = self._sqrt_cache.get(key)
        if cached is None:
            n = self.products[mask]
            s = isqrt(n << (2 * prec))
            # n is never a perfect square here, so the enclosure is strict.
            cached = (Fraction(s, 1 << prec), Fraction(s + 1, 1 << prec))
            self._sqrt_cache[key] = cached
        return cached


RATIONALS = Field(())


class FieldElement:
    """An exact element of a multi-quadratic field.

    Values are immutable; all operators are pure.  Mixed arithmetic with
    ``int`` and ``Fraction`` lifts the scalar into the field; elements of
    fields with different radicand sets do not mix (embed first).
    """

    __slots__ = ("field", "coeffs", "_sign")

    def __init__(self, field: Field, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs
        self._sign = None

    # -- coercion ------------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, FieldElement):
            if other.field.radicands != self.field.radicands:
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
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __pos__(self):
        return self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            q = o.coeffs[0]
            if not q:
                return self.field.zero()
            return FieldElement(self.field, tuple(a * q for a in self.coeffs))
        products = self.field.products
        out = [_ZERO] * self.field.size
        for s, a in enumerate(self.coeffs):
            if not a:
                continue
            for t, b in enumerate(o.coeffs):
                if not b:
                    continue
                out[s ^ t] += a * b * products[s & t]
        return FieldElement(self.field, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            q = o.coeffs[0]
            if not q:
                raise ZeroDivisionError("division by zero field element")
            return FieldElement(self.field, tuple(a / q for a in self.coeffs))
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def _conjugate(self, i: int) -> FieldElement:
        """Negate every monomial containing radicand index ``i``."""
        return FieldElement(
            self.field,
            tuple(-c if mask >> i & 1 else c for mask, c in enumerate(self.coeffs)),
        )

    def inverse(self) -> FieldElement:
        """Multiplicative inverse, by successive conjugation down to Q."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        num = self.field.one()
        den = self
        for i in range(len(self.field.radicands)):
            if any(c for mask, c in enumerate(den.coeffs) if mask >> i & 1):
                conj = den._conjugate(i)
                num = num * conj
                den = den * conj
        q = den.coeffs[0]
        return FieldElement(self.field, tuple(a / q for a in num.coeffs))

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction | None:
        """The exact rational value, or None if any sqrt monomial survives."""
        if self.is_rational():
            return self.coeffs[0]
        return None

    def sign(self) -> int:
        if self._sign is None:
            self._sign = self._compute_sign()
        return self._sign

    def _compute_sign(self) -> int:
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self.coeffs[0] > 0 else -1
        prec = 32
        while True:
            lo, hi = self._enclosure(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
            if prec > 1 << 22:  # unreachable for nonzero elements
                raise RuntimeError("sign refinement failed to converge")

    def _enclosure(self, prec: int) -> tuple[Fraction, Fraction]:
        lo = hi = self.coeffs[0]
        for mask in range(1, len(self.coeffs)):
            c = self.coeffs[mask]
            if not c:
                continue
            slo, shi = self.field._sqrt_enclosure(mask, prec)
            if c > 0:
                lo += c * slo
                hi += c * shi
            else:
                lo += c * shi
                hi += c * slo
        return lo, hi

    def approx(self, bits: int) -> tuple[Fraction, Fraction]:
        """A rational interval of width <= 2**-bits enclosing the value."""
        if bits < 1:
            raise ValueError("precision must be >= 1 bit")
        if self.is_rational():
            q = self.coeffs[0]
            return (q, q)
        prec = max(bits + 4, 16)
        tol = Fraction(1, 1 << bits)
        while True:
            lo, hi = self._enclosure(prec)
            if hi - lo <= tol:
                return (lo, hi)
            prec *= 2

    def floor(self) -> int:
        q = self.rational_value()
        if q is not None:
            return q.numerator // q.denominator
        prec = 32
        while True:
            lo, hi = self._enclosure(prec)
            fl = lo.numerator // lo.denominator
            fh = hi.numerator // hi.denominator
            if fl == fh:
                return fl
            prec *= 2

    def ceil(self) -> int:
        return -(-self).floor()

    # -- order and identity -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.field.radicands == self.field.radicands and other.coeffs == self.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field.radicands, self.coeffs))

    def _cmp_sign(self, other) -> int:
        o = self._lift(other)
        if o is None:
            raise TypeError(f"cannot compare FieldElement with {type(other).__name__}")
        return (self - o).sign()

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
        for mask, c in enumerate(self.coeffs):
            if not c:
                continue
            if mask == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"r{self.field.products[mask]}")
            else:
                terms.append(f"{c}*r{self.field.products[mask]}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def __repr__(self):
        return f"<{self} in {self.field!r}>"
