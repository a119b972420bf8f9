"""Centrally symmetric convex polygons as generator lists.

A planar zonotope is determined by nonzero, pairwise non-colinear
generators e_1..e_m of strictly increasing argument in the upper
half-plane; its edges are the generators and their negatives.  Generators
supplied pointing into the lower half-plane are negated on construction,
the given order is then required to be by increasing argument.

A :class:`Zonotope` holds its generators as integer rows over one least
common denominator (``rows`` and ``den``, flattened as in
:func:`~zonotile.lattice.integer_rows`), and the argument order is the
sign of integer cross products.  Pair translations, vertices and the area
are sums and cross products of rows; ``generators``, ``vertices()`` and
``area()`` build field elements when read, and the vector form of the pair
translations is a reference check in :mod:`zonotile.oracles`.  A vertex
list is read as rows by :func:`~zonotile.lattice.ccw_rows`
(:meth:`Zonotope.from_vertex_rows`).
"""

from __future__ import annotations

from .errors import SymmetryError, ZonotopeError
from .field import Field, FieldElement
from .lattice import PlaneVector, ccw_rows, convex_start, integer_rows, lowest_rows, row_cross, vectors_from_rows

__all__ = ["Zonotope"]


class Zonotope:
    __slots__ = ("field", "rows", "den", "_translations")

    def __init__(self, generators):
        gens = list(generators)
        self._hold(gens[0].field if gens else None, *integer_rows(gens))

    @classmethod
    def from_rows(cls, field: Field, rows, den: int) -> "Zonotope":
        """The zonotope whose generators, flattened as in
        :func:`~zonotile.lattice.integer_rows`, are ``rows`` over the
        positive ``den``; the JSON decoder builds zonotopes this way."""
        z = cls.__new__(cls)
        z._hold(field, rows, den)
        return z

    def _hold(self, field: Field, rows, den: int) -> None:
        """Turn each row into the upper half-plane, check the argument
        order and keep the rows over their least common denominator."""
        gens = []
        for i, row in enumerate(rows, start=1):
            half = len(row) // 2
            s = field.sign(row[half:]) or field.sign(row[:half])
            if not s:
                raise ZonotopeError(f"generator {i} is zero")
            gens.append(tuple(row) if s > 0 else tuple(-n for n in row))
        if len(gens) < 2:
            raise ZonotopeError("a zonotope needs at least 2 generators")
        for i in range(len(gens) - 1):
            if field.sign(row_cross(field, gens[i], gens[i + 1])) <= 0:
                raise ZonotopeError(
                    f"generators {i + 1} and {i + 2} are not in strictly increasing argument order"
                )
        self.field = field
        self.rows, self.den = lowest_rows(tuple(gens), den)
        self._translations = None

    @property
    def generators(self) -> tuple[PlaneVector, ...]:
        return tuple(vectors_from_rows(self.field, self.rows, self.den))

    @property
    def m(self) -> int:
        return len(self.rows)

    def is_parallelogram(self) -> bool:
        return self.m == 2

    def translation_rows(self) -> tuple[tuple[int, ...], ...]:
        """For each edge e_j, the translation carrying it onto its parallel
        edge, as integer rows over ``den``, computed once per zonotope.

        With the sign convention e_{j+m} = -e_j, the j-th translation is
        the sum of the m-1 edges following e_j around the boundary, that is
        t_j = S - e_j - 2(e_1 + ... + e_{j-1}) with S = e_1 + ... + e_m.
        Consecutive ones differ by t_{j+1} = t_j - e_j - e_{j+1}, so all m
        cost O(m) row sums."""
        if self._translations is None:
            rows = self.rows
            t = [sum(col) for col in zip(*rows[1:])]
            out = [tuple(t)]
            for prev, g in zip(rows, rows[1:]):
                t = [a - b - c for a, b, c in zip(t, prev, g)]
                out.append(tuple(t))
            self._translations = tuple(out)
        return self._translations

    def vertex_rows(self) -> tuple[list[list[int]], int]:
        """The 2m vertices, counterclockwise, centered at the origin, as
        integer rows over 2 * den: -S/2 followed by the partial sums of
        the signed edges."""
        rows = self.rows
        v = [-sum(col) for col in zip(*rows)]
        out = [v]
        for k, row in [(2, r) for r in rows] + [(-2, r) for r in rows[:-1]]:
            v = [a + k * b for a, b in zip(v, row)]
            out.append(v)
        return out, 2 * self.den

    def vertices(self) -> list[PlaneVector]:
        """:meth:`vertex_rows` as vectors."""
        return vectors_from_rows(self.field, *self.vertex_rows())

    def area(self) -> FieldElement:
        """Sum of det(e_i, e_j) over generator pairs i < j (equals the shoelace area).

        Each term is positive by the argument order.  By bilinearity the
        sum is sum_j det(e_1 + ... + e_{j-1}, e_j), computed in O(m).
        """
        field, rows = self.field, self.rows
        prefix = rows[0]
        total = [0] * field.size
        for g in rows[1:]:
            total = [a + b for a, b in zip(total, row_cross(field, prefix, g))]
            prefix = [a + b for a, b in zip(prefix, g)]
        return FieldElement.from_integers(field, total, self.den**2)

    @classmethod
    def from_vertex_rows(cls, field: Field, rows, den: int) -> "Zonotope":
        """Build from a cyclically ordered vertex list of a symmetric
        convex polygon, flattened as in
        :func:`~zonotile.lattice.integer_rows` to ``rows`` over the
        positive ``den``; the JSON decoder builds from vertices this way.

        Counterclockwise, the edge arguments increase through one turn, so
        the m edges pointing into the upper half-plane are consecutive, and
        in argument order from the first of them."""
        n = len(rows)
        if n < 4 or n % 2 != 0:
            raise SymmetryError(f"need an even number >= 4 of vertices, got {n}")
        rows, m = ccw_rows(field, rows), n // 2
        if len({tuple(a + b for a, b in zip(rows[i], rows[i + m])) for i in range(m)}) != 1:
            raise SymmetryError("vertex list is not centrally symmetric")
        first = convex_start(field, rows)
        if first is None:
            raise SymmetryError("vertex list is not strictly convex")
        ends = [rows[(first + k) % n] for k in range(m + 1)]
        return cls.from_rows(field, [[b - a for a, b in zip(u, v)] for u, v in zip(ends, ends[1:])], den)
