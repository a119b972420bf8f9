"""Centrally symmetric convex polygons as generator lists.

A planar zonotope is determined by nonzero, pairwise non-colinear
generators e_1..e_m of strictly increasing argument in the upper
half-plane; its edges are the generators and their negatives.  Generators
supplied pointing into the lower half-plane are negated on construction,
the given order is then required to be by increasing argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .errors import SymmetryError, ZonotopeError
from .field import Field
from .lattice import PlaneVector, doubled_area

__all__ = ["Zonotope"]


def _normalize_upper(g: PlaneVector, idx: int) -> PlaneVector:
    sy = g.y.sign()
    if sy < 0 or (sy == 0 and g.x.sign() < 0):
        return -g
    if sy == 0 and g.x.sign() == 0:
        raise ZonotopeError(f"generator {idx} is zero")
    return g


def _argument_cmp(u: PlaneVector, v: PlaneVector) -> int:
    """Order upper-half-plane vectors by argument: negative when u comes first."""
    return -u.cross(v).sign()


class Zonotope:
    __slots__ = ("_generators",)

    def __init__(self, generators):
        gens = [_normalize_upper(g, i + 1) for i, g in enumerate(generators)]
        if len(gens) < 2:
            raise ZonotopeError("a zonotope needs at least 2 generators")
        field = gens[0].field
        if any(g.field is not field for g in gens):
            raise ZonotopeError("generators do not share a field")
        for i in range(len(gens) - 1):
            if gens[i].cross(gens[i + 1]).sign() <= 0:
                raise ZonotopeError(
                    f"generators {i + 1} and {i + 2} are not in strictly increasing argument order"
                )
        if gens[0].cross(gens[-1]).sign() <= 0:
            raise ZonotopeError("first and last generators violate the argument order")
        self._generators = tuple(gens)

    @property
    def generators(self) -> tuple[PlaneVector, ...]:
        return self._generators

    @property
    def m(self) -> int:
        return len(self._generators)

    @property
    def field(self) -> Field:
        return self._generators[0].field

    def is_parallelogram(self) -> bool:
        return self.m == 2

    def signed_edges(self) -> list[PlaneVector]:
        """The 2m edge vectors in counterclockwise order: e_1..e_m, -e_1..-e_m."""
        return list(self._generators) + [-g for g in self._generators]

    def pair_translations(self) -> list[PlaneVector]:
        """For each edge e_j, the translation carrying it onto its parallel edge.

        With the sign convention e_{j+m} = -e_j, the j-th translation is
        the sum of the m-1 edges following e_j around the boundary, that is
        t_j = S - e_j - 2(e_1 + ... + e_{j-1}) with S = e_1 + ... + e_m.
        Consecutive ones differ by t_{j+1} = t_j - e_j - e_{j+1}, so all m
        cost O(m).
        """
        gens = self._generators
        t = gens[1]
        for g in gens[2:]:
            t = t + g
        out = [t]
        for prev, g in zip(gens, gens[1:]):
            t = t - prev - g
            out.append(t)
        return out

    def vertices(self) -> list[PlaneVector]:
        """The 2m vertices, counterclockwise, centered at the origin."""
        half = Fraction(1, 2)
        total = self._generators[0]
        for g in self._generators[1:]:
            total = total + g
        v = total.scale(-half)
        out = [v]
        for e in self.signed_edges()[:-1]:
            v = v + e
            out.append(v)
        return out

    def area(self):
        """Sum of det(e_i, e_j) over generator pairs i < j (equals the shoelace area).

        Each term is positive by the argument order.  By bilinearity the
        sum is sum_j det(e_1 + ... + e_{j-1}, e_j), computed in O(m).
        """
        gens = self._generators
        prefix = gens[0]
        total = self.field.zero()
        for g in gens[1:]:
            total = total + prefix.cross(g)
            prefix = prefix + g
        return total

    @classmethod
    def from_vertices(cls, vertices) -> "Zonotope":
        """Build from a cyclically ordered vertex list of a symmetric convex polygon."""
        vs = list(vertices)
        n = len(vs)
        if n < 4 or n % 2 != 0:
            raise SymmetryError(f"need an even number >= 4 of vertices, got {n}")
        s = doubled_area(vs).sign()
        if s == 0:
            raise SymmetryError("degenerate vertex list")
        if s < 0:
            vs.reverse()
        m = n // 2
        center2 = vs[0] + vs[m]
        for i in range(1, m):
            if not (vs[i] + vs[i + m] - center2).is_zero():
                raise SymmetryError("vertex list is not centrally symmetric")
        edges = [vs[(i + 1) % n] - vs[i] for i in range(n)]
        for i in range(n):
            if edges[i].is_zero():
                raise SymmetryError(f"repeated vertex at position {i}")
            if edges[i].cross(edges[(i + 1) % n]).sign() <= 0:
                raise SymmetryError("vertex list is not strictly convex")
        gens = [_normalize_upper(edges[i], i + 1) for i in range(m)]
        gens.sort(key=cmp_to_key(_argument_cmp))
        return cls(gens)

