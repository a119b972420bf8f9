"""Integer Hermite form and the kernel oracle built on it."""

import itertools
import random

from hypothesis import example, given, settings, strategies as st

from zonotile.intlinalg import _hnf_inplace, row_hnf
from zonotile.oracles import right_kernel


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        for c in range(n):
            m[i][c] += q * m[j][c]
        if rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
    return m


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def test_hnf_shape_and_reduction():
    h = row_hnf([[2, 0], [0, 2], [1, 1]])
    assert h == [[1, 1], [0, 2]]


def test_hnf_canonical_under_unimodular_row_changes():
    rng = random.Random(5)
    for _ in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        h1 = row_hnf(rows)
        u = random_unimodular(rng, 3)
        h2 = row_hnf(matmul(u, rows))
        assert h1 == h2


def test_hnf_pivots_positive_and_above_reduced():
    rng = random.Random(9)
    for _ in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        h = row_hnf(rows)
        pivots = []
        for r, row in enumerate(h):
            c = next(i for i, v in enumerate(row) if v)
            assert row[c] > 0
            pivots.append(c)
            for rr in range(r):
                assert 0 <= h[rr][c] < row[c]
        assert pivots == sorted(pivots)


def test_right_kernel_annihilates():
    rng = random.Random(1)
    for _ in range(100):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
        for k in right_kernel(rows):
            assert all(sum(r[c] * k[c] for c in range(4)) == 0 for r in rows)


def test_right_kernel_known_case():
    # q*y = M*b with q = 2, M = [[1,0],[0,6]]
    kernel = right_kernel([[2, 0, -1, 0], [0, 2, 0, -6]])
    assert len(kernel) == 2
    for k in kernel:
        assert 2 * k[0] == k[2] and 2 * k[1] == 6 * k[3]


def test_right_kernel_edge_cases():
    assert right_kernel([]) == []
    assert right_kernel([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert right_kernel([[1, 2], [3, 5]]) == []
    assert right_kernel([[2, 0, 1], [0, 3, 1], [1, 1, 1]]) == []


def test_right_kernel_rank():
    rng = random.Random(7)
    for _ in range(100):
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        assert len(right_kernel(rows)) == ncols - len(row_hnf(rows))


def test_right_kernel_is_saturated():
    """Every integer solution in a small box is an integer combination of
    the kernel rows: adjoining it leaves their Hermite form unchanged."""
    rng = random.Random(11)
    for _ in range(30):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(1, 2))]
        kernel = right_kernel(rows)
        h = row_hnf(kernel)
        for x in itertools.product(range(-3, 4), repeat=4):
            if all(sum(r * c for r, c in zip(row, x)) == 0 for row in rows):
                assert row_hnf(kernel + [list(x)]) == h


def in_echelon_lattice(v, basis):
    """Whether v is an integer combination of ``basis``, nonzero rows whose
    leading entries sit in strictly increasing columns: forward
    substitution, one row at a time from the top."""
    v = list(v)
    for row in basis:
        c = next(i for i, x in enumerate(row) if x)
        q, rest = divmod(v[c], row[c])
        if rest:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def assert_hermite_shape(h):
    """Pivots strictly increasing and positive, zeros left of and below
    each pivot, entries above it in [0, pivot)."""
    pivots = [next(i for i, x in enumerate(row) if x) for row in h]
    assert pivots == sorted(set(pivots))
    for r, (row, c) in enumerate(zip(h, pivots)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in h[:r])
        assert not any(below[c] for below in h[r + 1 :])


def wide_rows(rng, width, n, r):
    """n integer rows of ``width`` columns whose lattice is that of r
    echelon rows B, entries up to about 10**30, with zero columns, zero
    rows and duplicate rows; returns them with B.  B's pivots are neither
    positive nor reduced, and the rows are a unimodular change of B
    followed by small integer combinations of it, so both lattices are
    equal by construction."""
    big = lambda: rng.choice([rng.randint(-9, 9), rng.randint(-10**30, 10**30)])
    zero_cols = set(rng.sample(range(width), rng.randint(0, width // 3)))
    pivots = sorted(rng.sample([c for c in range(width) if c not in zero_cols], r))
    basis = []
    for p in pivots:
        row = [0 if c < p or c in zero_cols else big() for c in range(width)]
        row[p] = row[p] or rng.choice([-1, 1]) * rng.randint(1, 10**30)
        basis.append(row)
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(3 * r):
        i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
        if i != j:
            q = rng.randint(-4, 4)
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        if rng.random() < 0.3:
            u[i] = [-x for x in u[i]]
    while len(u) < n:
        kind = rng.random()
        if kind < 0.2 or not u:
            u.append([0] * r)
        elif kind < 0.5:
            u.append(list(rng.choice(u)))
        else:
            u.append([rng.randint(-3, 3) for _ in range(r)])
    rng.shuffle(u)
    return matmul(u, basis) if r else [[0] * width for _ in range(n)], basis


def test_hnf_on_wide_rows_with_huge_entries():
    """Held to what defines it, not to the kernel that computes it: the
    Hermite rows have Hermite shape and the same lattice as the input
    (each is tested inside the other by forward substitution against an
    echelon basis)."""
    rng = random.Random(36)
    for _ in range(100):
        width, n = rng.randint(2, 36), rng.randint(1, 20)
        r = rng.randint(0, min(n, width - width // 3))
        rows, basis = wide_rows(rng, width, n, r)
        h = row_hnf(rows)
        assert_hermite_shape(h)
        assert len(h) == r
        assert all(in_echelon_lattice(row, h) for row in rows)
        assert all(in_echelon_lattice(row, basis) for row in h)


# entries small enough to collide and divide, or up to 10**1000, zero often
_ENTRY = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**1000), 10**1000))


@st.composite
def width_two_rows(draw):
    """0 to 8 rows of width 2: any rows, rows on one line through the
    origin (multiples of one drawn row, zero rows among them), or rows
    whose first column is all zero."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["any", "collinear", "first column zero"]))
    if kind == "collinear":
        x, y = draw(_ENTRY), draw(_ENTRY)
        return [[k * x, k * y] for k in draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))]
    first = st.just(0) if kind == "first column zero" else _ENTRY
    return [[draw(first), draw(_ENTRY)] for _ in range(n)]


@settings(max_examples=400, deadline=None)
@given(width_two_rows())
@example([[1, 5], [0, 2]])
@example([[-3, 7], [0, -2]])
@example([[4, 1], [6, 3], [0, 0]])
def test_width_two_fold_matches_the_general_kernel(rows):
    """Rows of width 2 take their own fold; it gives the general kernel's
    rows exactly."""
    m = [list(row) for row in rows]
    expected = m[: _hnf_inplace(m)]
    assert row_hnf(rows) == expected
