"""Answers that do not depend on coordinates.

Multi-tiling, Bolle's criterion and covering counts are invariant under
invertible linear maps over the field and under translation, and the
canonical lattice maps with the polygon.  Each map here is applied to a
seeded zonotope over Q, Q(sqrt 2) or Q(sqrt 2, sqrt 3) and to its lattices.
``witness_multiplicity`` is not compared across the map: it belongs to one
witness, read off Hermite rows, and a map can change which generator j0
names.  The image of that witness keeps its multiplicity.
"""

import random
from fractions import Fraction

import pytest

from zonotile import (
    PlaneLattice,
    PlaneVector,
    Polygon,
    TranslateSet,
    Zonotope,
    bolle_check,
    canonical_lattice,
    covering_at,
    decide_multitiling,
    verify_covering,
)

from conftest import F2, F23, Q, from_vertices, random_irrational_zonotope, random_zonotope

# name, the field of the entries, and the rows (a, b), (c, d) of the map
# (x, y) -> (a x + b y, c x + d y)
MAPS = [
    ("shear", Q, ((1, 1), (0, 1))),
    ("swap", Q, ((0, 1), (1, 0))),
    ("rotation", Q, ((0, -1), (1, 0))),
    ("sqrt2-shear", F2, ((1, "r2"), (0, 1))),
    ("dilation", Q, ((Fraction(3, 2), 0), (0, 1))),
]

FIELDS = {"Q": Q, "Q(r2)": F2, "Q(r2,r3)": F23}


def linear_map(field, rows):
    """The map with these rows on vectors over subfields of ``field``,
    read in ``field``."""
    (a, b), (c, d) = [[field.sqrt(2) if e == "r2" else field.rational(e) for e in row] for row in rows]

    def apply(v: PlaneVector) -> PlaneVector:
        x, y = field.embed(v.x), field.embed(v.y)
        return PlaneVector(a * x + b * y, c * x + d * y)

    return apply


def map_zonotope(f, z: Zonotope) -> Zonotope:
    return from_vertices([f(v) for v in z.vertices()])


def map_lattice(f, lat: PlaneLattice) -> PlaneLattice:
    return PlaneLattice(*map(f, lat.basis()))


def zonotopes(field, seed):
    """Seeded zonotopes with m = 3..5: rational generators, which always
    multi-tile, and, over a larger field, sparse irrational ones."""
    rng = random.Random(seed)
    out = [random_zonotope(rng, field, m=m) for m in (3, 4, 5, 4)]
    if field is not Q:
        out += [random_irrational_zonotope(rng, field, m) for m in (3, 4, 4)]
    return out


def trials(field_name, map_name):
    field = FIELDS[field_name]
    _, map_field, rows = next(entry for entry in MAPS if entry[0] == map_name)
    f = linear_map(field.union(map_field), rows)
    seed = sorted(FIELDS).index(field_name) * 100 + [entry[0] for entry in MAPS].index(map_name)
    return [(z, map_zonotope(f, z), f) for z in zonotopes(field, seed)]


@pytest.mark.parametrize("map_name", [entry[0] for entry in MAPS])
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_decisions_do_not_depend_on_coordinates(field_name, map_name):
    positives = 0
    for z, fz, f in trials(field_name, map_name):
        dec, fdec = decide_multitiling(z), decide_multitiling(fz)
        assert (fdec.multi_tiles, fdec.branch, fdec.failure_reason) == (dec.multi_tiles, dec.branch, dec.failure_reason)
        if not dec.multi_tiles:
            continue
        positives += 1
        assert canonical_lattice(fdec).lattice == map_lattice(f, canonical_lattice(dec).lattice)
        report = bolle_check(fz, map_lattice(f, dec.witness_lattice))
        assert (report.verdict, report.multiplicity) == (True, dec.witness_multiplicity)
    assert positives >= 4


def scene(z: Zonotope, lat: PlaneLattice, shift=None):
    """The translates of z by one lattice, z moved by ``shift`` first."""
    poly = Polygon.from_zonotope(z)
    if shift is not None:
        poly = Polygon([v + shift for v in poly.vertices])
    return poly, TranslateSet.periodic(z.field, [lat], [(0,) * 2 * z.field.size], 1)


@pytest.mark.parametrize("map_name", [entry[0] for entry in MAPS])
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_verify_does_not_depend_on_coordinates(field_name, map_name):
    """Each multi-tiling zonotope with its canonical lattice, which for
    even m need not tile: the scene, its image and a translate of it."""
    verdicts = set()
    for z, fz, f in trials(field_name, map_name):
        dec = decide_multitiling(z)
        if not dec.multi_tiles:
            continue
        lat = canonical_lattice(dec).lattice
        report = verify_covering(*scene(z, lat))
        verdicts.add(report.constant)
        shift = PlaneVector(z.field.rational(Fraction(1, 3)), z.field.rational(Fraction(2, 7)))
        image = scene(fz, map_lattice(f, lat))
        for other in (image, scene(z, lat, shift)):
            got = verify_covering(*other)
            assert (got.constant, got.multiplicity) == (report.constant, report.multiplicity)
        if not report.constant:  # the counterexample, mapped, still tells two counts apart
            (p1, c1), (p2, c2) = report.counterexample
            assert [covering_at(*image, f(p)) for p in (p1, p2)] == [c1, c2]
    assert verdicts == {True, False}
