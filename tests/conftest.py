"""Shared helpers: builders, random generators, and independent oracles."""

import json
import sys
from fractions import Fraction

import pytest

from zonotile import RATIONALS, Field, PlaneVector, TranslateSet, Zonotope, vector
from zonotile.lattice import integer_rows, vectors_from_rows

Q = RATIONALS
F2 = Field([2])
F23 = Field([2, 3])


@pytest.fixture
def long_integers():
    """A 641-digit and a 10,000-digit integer and their negatives, each with
    ``str`` of it under no digit limit; the least limit (640) that
    ``sys.set_int_max_str_digits`` accepts is then in force for the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    big = [7 * 10**640 + 1, 1234567890 * (10**10000 - 1) // (10**10 - 1)]
    cases = [(n, str(n)) for n in big + [-n for n in big]]
    sys.set_int_max_str_digits(640)
    yield cases
    sys.set_int_max_str_digits(limit)


def V(x, y, field=Q):
    return vector(field, x, y)


def periodic_set(parts):
    """The periodic translate set of (lattice, offset vector) pairs."""
    lattices, offsets = zip(*parts)
    return TranslateSet.periodic(lattices[0].field, lattices, *integer_rows(offsets))


def from_vertices(vs):
    """The zonotope of a cyclically ordered vertex list of vectors, flattened once."""
    return Zonotope.from_vertex_rows(vs[0].field, *integer_rows(vs))


def translations(z):
    """The zonotope's pair translations as ``decide`` reads them, its rows made vectors."""
    return vectors_from_rows(z.field, z.translation_rows(), z.den)


def set_parts(tset):
    """A periodic translate set's (lattice, offset vector) pairs."""
    return list(zip(tset.lattices, vectors_from_rows(tset.field, tset.rows, tset.den)))


def rand_fraction(rng, max_num=8, max_den=4):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_element(rng, field, max_num=6, max_den=3, density=0.7):
    coeffs = {}
    for mask in range(field.size):
        if rng.random() < density:
            coeffs[mask] = rand_fraction(rng, max_num, max_den)
    return field.element(coeffs)


def sort_by_argument(gens):
    """Insertion sort of upper-half-plane vectors by exact argument order."""
    out = []
    for g in gens:
        i = 0
        while i < len(out) and out[i].cross(g).sign() > 0:
            i += 1
        out.insert(i, g)
    return out


def upper_half(v):
    sy = v.y.sign()
    if sy < 0 or (sy == 0 and v.x.sign() < 0):
        return -v
    return v


def random_zonotope(rng, field=Q, m=None, pool=None):
    """A random valid zonotope with generators drawn from a coordinate pool."""
    if m is None:
        m = rng.choice([2, 3, 4])
    if pool is None:
        pool = [Fraction(n, 2) for n in range(-3, 4)]
    gens = []
    guard = 0
    while len(gens) < m:
        guard += 1
        if guard > 500:
            raise RuntimeError("random zonotope generation stalled")
        v = V(rng.choice(pool), rng.choice(pool), field)
        if v.is_zero():
            continue
        v = upper_half(v)
        if any(g.cross(v).is_zero() for g in gens):
            continue
        gens.append(v)
    return Zonotope(sort_by_argument(gens))


def random_irrational_zonotope(rng, field, m):
    """Random zonotope with sparse irrational generator coordinates."""
    gens = []
    guard = 0
    while len(gens) < m:
        guard += 1
        if guard > 800:
            raise RuntimeError("random zonotope generation stalled")
        v = PlaneVector(
            rand_element(rng, field, max_num=3, max_den=2, density=0.4),
            rand_element(rng, field, max_num=3, max_den=2, density=0.4),
        )
        if v.is_zero():
            continue
        v = upper_half(v)
        if any(g.cross(v).is_zero() for g in gens):
            continue
        gens.append(v)
    return Zonotope(sort_by_argument(gens))


def shoelace_area(vertices):
    field = vertices[0].field
    doubled = field.zero()
    for i in range(len(vertices)):
        doubled = doubled + vertices[i].cross(vertices[(i + 1) % len(vertices)])
    return abs(doubled) / 2


def signed_pair_translation(shifts, idx):
    """shifts[j] continued with the sign convention t_{j+m} = -t_j (1-based idx)."""
    m = len(shifts)
    k = (idx - 1) % (2 * m)
    return shifts[k] if k < m else -shifts[k - m]


def flatten_vector(v):
    return [Fraction(c) for c in (v.x.coeffs + v.y.coeffs)]


def sympy_rank(vectors):
    from sympy import Matrix, Rational

    rows = [
        [Rational(c.numerator, c.denominator) for c in flatten_vector(v)] for v in vectors
    ]
    return Matrix(rows).rank()


def lattice_window_points(lat, bound):
    """All lattice points a*b1 + b*b2 with |a|, |b| small, kept in [-bound, bound]^2."""
    out = []
    coeff = 3 * bound + 6
    for a in range(-coeff, coeff + 1):
        for b in range(-coeff, coeff + 1):
            p = lat.point(a, b)
            if (
                abs(p.x) <= bound
                and abs(p.y) <= bound
            ):
                out.append((p.x, p.y))
    return set(out)


MUTANT_VALUES = [None, True, 0, 1, -1, 2, 1.5, "", "x", "1/2", "sqrt(2)", "r2",
                 [], {}, [1, 2], ["1", "2", "3", "4"], {"x": []}]


def json_paths(doc, path=()):
    """The key path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from json_paths(value, path + (key,))


def json_mutant(rng, doc):
    """A copy of ``doc`` with one node below the top level changed: it is
    replaced by a value of ``MUTANT_VALUES``, deleted, wrapped in a list,
    or, for a container, grown or shrunk by one entry."""
    doc = json.loads(json.dumps(doc))
    *head, key = rng.choice(list(json_paths(doc))[1:])
    parent = doc
    for k in head:
        parent = parent[k]
    node = parent[key]
    op = rng.randrange(4)
    if op == 0:
        parent[key] = rng.choice(MUTANT_VALUES)
    elif op == 1:
        del parent[key]
    elif op == 2:
        parent[key] = [node]
    elif isinstance(node, list) and node:
        if rng.random() < 0.5:
            node.append(node[0])
        else:
            node.pop()
    elif isinstance(node, dict) and node:
        del node[rng.choice(list(node))]
    return doc
