"""Built-in polygons and translate sets used by the CLI examples command.

``tetromino-L1`` and ``tetromino-L2`` are two tilings of the skew
tetromino (a non-convex union of four unit squares, whose edges still
pair up); ``tetromino-union`` is their multiset union, a 2-fold covering.
L2 has no translational period, which is why these only admit
window-relative verification.  ``octagon-family`` is a symmetric octagon
with lattice vertices together with two translated copies of Z x 2Z, one
shifted by (beta, 1); it covers the plane exactly 7 times for every beta,
rational or not.

The scene builders import the covering layer where they run, so the
command line reads ``BUILTIN_NAMES`` without loading it.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from .errors import GeometryError
from .field import Field, FieldElement, RATIONALS
from .lattice import PlaneLattice, integer_rows, vector

__all__ = ["BUILTIN_NAMES", "builtin_scene"]

DEFAULT_WINDOW = (Fraction(-6), Fraction(-6), Fraction(6), Fraction(6))

TETROMINO_VERTICES = [(-1, -1), (0, -1), (0, 0), (1, 0), (1, 2), (0, 2), (0, 1), (-1, 1)]

OCTAGON_VERTICES = [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]


def skew_tetromino(field: Field = RATIONALS) -> Polygon:
    from .covering import Polygon
    return Polygon([vector(field, x, y) for x, y in TETROMINO_VERTICES])


def lattice_octagon(field: Field = RATIONALS) -> Polygon:
    from .covering import Polygon
    return Polygon([vector(field, x, y) for x, y in OCTAGON_VERTICES])


def tetromino_l1_multiplicity(m: int, n: int) -> int:
    return 1 if (m % 2 == 0 and n % 2 == 0 and m != 0) or (m == 0 and n % 2 == 1) else 0


def tetromino_l2_multiplicity(m: int, n: int) -> int:
    if m % 2 == 0 and n % 2 == 0:
        return 1 if m >= n else 0
    if m % 2 == 1 and n % 2 == 1:
        return 1 if m < n else 0
    return 0


def tetromino_union_multiplicity(m: int, n: int) -> int:
    return tetromino_l1_multiplicity(m, n) + tetromino_l2_multiplicity(m, n)


_TETROMINO_RULES = {
    "tetromino-L1": tetromino_l1_multiplicity,
    "tetromino-L2": tetromino_l2_multiplicity,
    "tetromino-union": tetromino_union_multiplicity,
}

BUILTIN_NAMES = tuple(_TETROMINO_RULES) + ("octagon-family",)


def octagon_strip_lattice(field: Field = RATIONALS) -> PlaneLattice:
    return PlaneLattice(vector(field, 1, 0), vector(field, 0, 2))


def builtin_scene(name: str, window=None, beta=None, where=("window", "beta")) -> tuple[Polygon, TranslateSet]:
    """The named builtin polygon and translate set.

    ``window`` (rational 4-tuple) applies to the tetromino patterns and
    defaults to [-6, 6]^2; their points are listed once over it, column
    by column, after its integer points are counted against the
    enumeration budget.  ``beta`` (Fraction or FieldElement) is the
    horizontal offset of the shifted lattice copy in the octagon family,
    defaults to 1/3 and is refused for the tetromino patterns.  A refused
    window or beta is named by its caller's spelling in ``where``.
    """
    from .covering import TranslateSet, check_budget
    if name in _TETROMINO_RULES:
        if beta is not None:
            raise GeometryError(f"{where[1]}: {name} takes no beta; only octagon-family is offset by one")
        win = tuple(Fraction(w) for w in (window if window is not None else DEFAULT_WINDOW))
        if win[0] >= win[2] or win[1] >= win[3]:
            raise GeometryError(f"{where[0]}: window is empty")
        mlo, nlo, mhi, nhi = ceil(win[0]), ceil(win[1]), floor(win[2]), floor(win[3])
        # a window that holds no integer row or column counts 0 and lists nothing
        count = (mhi - mlo + 1) * (nhi - nlo + 1)
        check_budget(count, "points", f"{where[0]}: the window")
        rule, ms = _TETROMINO_RULES[name], range(mlo, mhi + 1) if count else ()
        points = [((m, n), k) for m in ms for n in range(nlo, nhi + 1) if (k := rule(m, n))]
        rows, weights = zip(*points) if points else ((), ())
        return skew_tetromino(), TranslateSet.windowed(RATIONALS, rows, 1, weights, win)
    if name == "octagon-family":
        if beta is None:
            beta = Fraction(1, 3)
        field = beta.field if isinstance(beta, FieldElement) else RATIONALS
        poly = lattice_octagon(field)
        lat = octagon_strip_lattice(field)
        offsets = integer_rows([vector(field, 0, 0), vector(field, beta, 1)])
        return poly, TranslateSet.periodic(field, [lat, lat], *offsets)
    raise GeometryError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
