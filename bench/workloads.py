"""Workload inputs, op lists and output checks for the zonotile benchmark.

Every workload is a list of CLI invocations (``Op``) grouped into items: a
scene, or one polygon with the ops run on it.  Inputs are written as JSON
files at set-up, from seeds the benchmark takes as arguments, so the same
seeds always give byte-identical files.

The random generators are copies of the ones the test suite uses
(``tests/conftest.py``, ``tests/test_criteria.py`` and
``tests/test_acceptance.py``).  They are copied, not imported, so that a
refactor of the tests cannot silently change a workload.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# The criterion-4 stream of the acceptance suite: half-integer generators,
# vertices in [-4, 4]^2, witness multiplicity at most 24.
CORPUS_STREAM_SEED = 20260810
CORPUS_SIZE = 24
CORPUS_MAX_MULTIPLICITY = 24
DECIDE_BLOCKS = 16

HALF_POOL = [Fraction(n, 2) for n in range(-3, 4)]

# The lattice octagon of the octagon-family scene (area 7).
OCTAGON_VERTICES = [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]


class CheckFailed(Exception):
    """An op's output does not match what the workload expects."""


@dataclass
class Op:
    """One CLI invocation and the check its output must pass.

    ``check(code, stdout, ctx)`` raises CheckFailed on a wrong result; ``ctx``
    is shared by the ops of one item, so a later op can be built from or
    compared with an earlier op's output.
    """

    id: str
    item: str
    kind: str
    argv: list[str]
    check: Callable[[int, str, dict], None]
    ctx: dict
    svg: Path | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs_sha256: str
    seeds: dict


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _report(code: int, stdout: str, want_code: int) -> dict:
    _expect(code == want_code, f"exit code {code}, expected {want_code}")
    return json.loads(stdout)


def _write(path: Path, text: str, written: list[Path]) -> str:
    path.write_text(text, encoding="utf-8")
    written.append(path)
    return str(path)


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


# -- generators (copied from the test suite) ------------------------------------


def rand_fraction(rng, max_num=8, max_den=4):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_element(rng, fld, max_num=6, max_den=3, density=0.7):
    coeffs = {}
    for mask in range(fld.size):
        if rng.random() < density:
            coeffs[mask] = rand_fraction(rng, max_num, max_den)
    return fld.element(coeffs)


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


def random_zonotope(zt, rng, m, pool):
    """A random valid zonotope with generators drawn from a coordinate pool."""
    gens = []
    guard = 0
    while len(gens) < m:
        guard += 1
        if guard > 500:
            raise RuntimeError("random zonotope generation stalled")
        v = zt.vector(zt.RATIONALS, rng.choice(pool), rng.choice(pool))
        if v.is_zero():
            continue
        v = upper_half(v)
        if any(g.cross(v).is_zero() for g in gens):
            continue
        gens.append(v)
    return zt.Zonotope(sort_by_argument(gens))


def random_irrational_zonotope(zt, rng, fld, m):
    """Random zonotope with sparse irrational generator coordinates."""
    gens = []
    guard = 0
    while len(gens) < m:
        guard += 1
        if guard > 800:
            raise RuntimeError("random zonotope generation stalled")
        v = zt.PlaneVector(
            rand_element(rng, fld, max_num=3, max_den=2, density=0.4),
            rand_element(rng, fld, max_num=3, max_den=2, density=0.4),
        )
        if v.is_zero():
            continue
        v = upper_half(v)
        if any(g.cross(v).is_zero() for g in gens):
            continue
        gens.append(v)
    return zt.Zonotope(sort_by_argument(gens))


def independent_generators(zt, rng, m):
    """Rationally independent generators over Q(sqrt 2,3,5,7): the m vectors
    have full rational rank m, so no lattice multi-tiles with them."""
    fld = zt.Field([2, 3, 5, 7])
    bases = {
        4: [(5, 1), (1, 1), (-1, 3), (-3, 1)],
        5: [(7, 1), (3, 1), (1, 2), (-1, 2), (-5, 1)],
    }[m]
    masks = list(range(1, 16))
    eps = Fraction(1, 32)
    for _ in range(40):
        rng.shuffle(masks)
        gens = []
        it = iter(masks)
        for bx, by in bases:
            dx = fld.element({next(it): eps * rng.randint(1, 3)})
            dy = fld.element({next(it): eps * rng.randint(1, 3)})
            gens.append(zt.vector(fld, bx + rng.randint(-1, 1), by) + zt.vector(fld, dx, dy))
        try:
            z = zt.Zonotope([upper_half(g) for g in gens])
        except zt.ZonotileError:
            eps /= 2
            continue
        if zt.rational_rank(list(z.generators)) == m:
            return z
    raise RuntimeError("failed to build independent generators")


def bounded_random_polygon(zt, rng):
    """Random half-integer zonotope with vertices in [-4, 4]^2 whose witness
    multiplicity stays at most CORPUS_MAX_MULTIPLICITY."""
    while True:
        z = random_zonotope(zt, rng, rng.choice([2, 3, 4]), HALF_POOL)
        if any(abs(v.x) > 4 or abs(v.y) > 4 for v in z.vertices()):
            continue
        dec = zt.decide_multitiling(z)
        if dec.witness_multiplicity <= CORPUS_MAX_MULTIPLICITY:
            return z, dec


# -- shared checks ----------------------------------------------------------------


def _check_verify(multiplicity: int, window_relative: bool):
    def check(code, out, ctx):
        rep = _report(code, out, 0)
        _expect(rep["constant"] is True, "covering is not constant")
        _expect(rep["multiplicity"] == multiplicity, f"multiplicity {rep['multiplicity']}, expected {multiplicity}")
        _expect(rep["window_relative"] is window_relative, "wrong window_relative flag")

    return check


def _check_render(legend: set[int], svg: Path):
    def check(code, out, ctx):
        _expect(code == 0, f"exit code {code}, expected 0")
        found = {int(k) for k in re.findall(r">k=(-?\d+)</text>", svg.read_text(encoding="utf-8"))}
        _expect(found == legend, f"legend multiplicities {sorted(found)}, expected {sorted(legend)}")

    return check


def _lattice_point(basis: list[dict], a: int, b: int) -> dict:
    """The JSON vector a*b1 + b*b2 of a JSON lattice basis, computed here in
    plain fractions so that building a scene runs no zonotile code."""

    def combine(e1, e2):
        total: dict[str, Fraction] = {}
        for k, terms in ((a, e1), (b, e2)):
            for t in terms:
                c = k * Fraction(int(t["num"]), int(t["den"]))
                total[t["monomial"]] = total.get(t["monomial"], Fraction(0)) + c
        return [{"monomial": mono, "num": str(c.numerator), "den": str(c.denominator)}
                for mono, c in sorted(total.items()) if c]

    b1, b2 = basis
    return {"x": combine(b1["x"], b2["x"]), "y": combine(b1["y"], b2["y"])}


# -- workloads ----------------------------------------------------------------------


def build_scenes(zt, seed: int, work: Path, tiny: bool = False) -> Workload:
    """verify and render on a few large arrangements over Q, Q(r2), Q(r2, r3)."""
    rng = random.Random(seed)
    jsonio = zt.jsonio
    written: list[Path] = []
    ops: list[Op] = []

    def builtin(name, beta=None):
        value = None
        if beta is not None:
            value = jsonio.parse_element_text(beta)
            if value.is_rational():
                value = value.rational_value()
        return jsonio.dumps(jsonio.encode_scene_builtin(name, None, value))

    betas = ["1/3"] if tiny else ["1/3", "sqrt(2)", "sqrt(2)+sqrt(3)"]
    for i, beta in enumerate(betas):
        path = _write(work / f"octagon-{i}.json", builtin("octagon-family", beta), written)
        ops.append(Op(f"octagon-{i}.verify", f"octagon-{i}", "verify", ["verify", path],
                      _check_verify(7, False), {}))
    if not tiny:
        path = _write(work / "tetromino.json", builtin("tetromino-union"), written)
        ops.append(Op("tetromino.verify", "tetromino", "verify", ["verify", path],
                      _check_verify(2, True), {}))

        # The lattice octagon against (1/2)Z^2: 7 / (1/4) = 28.  The offset
        # is a lattice point, so the translate set is the same for every seed.
        half = zt.PlaneLattice(zt.vector(zt.RATIONALS, Fraction(1, 2), 0),
                               zt.vector(zt.RATIONALS, 0, Fraction(1, 2)))
        offset = half.point(rng.randint(-3, 3), rng.randint(-3, 3))
        doc = {
            "field": [],
            "polygon": {"vertices": [jsonio.encode_vector(zt.vector(zt.RATIONALS, x, y))
                                     for x, y in OCTAGON_VERTICES]},
            "lambda": {"periodic": [{"lattice": jsonio.encode_lattice(half),
                                     "offset": jsonio.encode_vector(offset)}]},
            "mode": "exact",
        }
        path = _write(work / "scaled-octagon.json", jsonio.dumps(doc), written)
        ops.append(Op("scaled-octagon.verify", "scaled-octagon", "verify", ["verify", path],
                      _check_verify(28, False), {}))

    renders = [("octagon-render", work / "octagon-0.json", "--window=0,0,1,1" if tiny else "--window=0,0,4,4", {7})]
    if not tiny:
        renders.insert(0, ("tetromino-render", work / "tetromino.json", "--window=-4,-4,4,4", {2}))
    for item, scene, window, legend in renders:
        svg = work / f"{item}.svg"
        ops.append(Op(f"{item}.render", item, "render", ["render", str(scene), "-o", str(svg), window],
                      _check_render(legend, svg), {}, svg=svg))
    return Workload("scenes", _shuffled_items(ops, rng), _digest(written), {"seed": seed})


def build_corpus(zt, seed: int, work: Path, tiny: bool = False,
                 stream_seed: int = CORPUS_STREAM_SEED) -> Workload:
    """decide, then verify of the witness scene, on the criterion-4 stream.

    The polygons are the first CORPUS_SIZE of the stream seeded by
    ``stream_seed``; ``seed`` orders them and picks, per polygon, a lattice
    point of the witness lattice as the scene's offset.  Offsetting by a
    lattice point leaves the translate set unchanged, so the work per run
    does not depend on ``seed`` while the scene documents do.
    """
    rng = random.Random(seed)
    stream = random.Random(stream_seed)
    jsonio = zt.jsonio
    written: list[Path] = []
    ops: list[Op] = []
    size = 1 if tiny else CORPUS_SIZE
    for i in range(size):
        z, dec = bounded_random_polygon(zt, stream)
        item = f"p{i:03d}"
        poly = _write(work / f"{item}.json", jsonio.dumps(jsonio.encode_zonotope(z)), written)
        scene = work / f"{item}-scene.json"
        ctx = {"multiplicity": dec.witness_multiplicity, "offset": (rng.randint(-2, 2), rng.randint(-2, 2))}

        def check_decide(code, out, ctx, poly_doc=jsonio.encode_zonotope(z), scene=scene):
            rep = _report(code, out, 0)
            _expect(rep["multi_tiles"] is True, "decide is negative")
            _expect(rep["witness_multiplicity"] == ctx["multiplicity"], "witness multiplicity changed")
            if not scene.exists():
                basis = rep["witness_lattice"]["basis"]
                part = {"lattice": rep["witness_lattice"],
                        "offset": _lattice_point(basis, *ctx["offset"])}
                doc = {"field": rep["field"], "polygon": {"generators": poly_doc["generators"]},
                       "lambda": {"periodic": [part]}, "mode": "exact"}
                scene.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")

        def check_verify(code, out, ctx):
            _check_verify(ctx["multiplicity"], False)(code, out, ctx)

        ops.append(Op(f"{item}.decide", item, "decide", ["decide", poly], check_decide, ctx))
        ops.append(Op(f"{item}.verify", item, "verify", ["verify", str(scene)], check_verify, ctx))
    return Workload("corpus", _shuffled_items(ops, rng), _digest(written),
                    {"seed": seed, "corpus_stream_seed": stream_seed})


def build_decide(zt, seed: int, work: Path, tiny: bool = False) -> Workload:
    """decide and canon on a mixed stream, check on every positive witness.

    Each block holds rational half-integer zonotopes with m = 3..12, random
    Q(r2, r3) zonotopes with m = 3..5 and rationally independent
    Q(r2, r3, r5, r7) zonotopes with m = 4, 5.
    """
    rng = random.Random(seed)
    jsonio = zt.jsonio
    f23 = zt.Field([2, 3])
    written: list[Path] = []
    ops: list[Op] = []
    n = 0
    for _ in range(1 if tiny else DECIDE_BLOCKS):
        polys = [("rational", random_zonotope(zt, rng, m, HALF_POOL)) for m in range(3, 13)]
        polys += [("q23", random_irrational_zonotope(zt, rng, f23, m)) for m in range(3, 6)]
        polys += [("independent", independent_generators(zt, rng, m)) for m in (4, 5)]
        if tiny:
            polys = polys[:2] + polys[10:11] + polys[13:14]
        for family, z in polys:
            item = f"z{n:03d}-{family}-m{z.m}"
            n += 1
            poly = _write(work / f"{item}.json", jsonio.dumps(jsonio.encode_zonotope(z)), written)
            lattice = work / f"{item}-witness.json"
            ctx = {"family": family}
            ops.append(Op(f"{item}.decide", item, "decide", ["decide", poly],
                          _check_decide_stream(lattice), ctx))
            ops.append(Op(f"{item}.canon", item, "canon", ["canon", poly], _check_canon, ctx))
            ops.append(Op(f"{item}.check", item, "check", ["check", poly, str(lattice)],
                          _check_witness, ctx))
    return Workload("decide", _shuffled_items(ops, rng), _digest(written), {"seed": seed})


def _check_decide_stream(lattice: Path):
    def check(code, out, ctx):
        _expect(code in (0, 1), f"exit code {code}")
        rep = json.loads(out)
        _expect(rep["multi_tiles"] is (code == 0), "exit code disagrees with the verdict")
        if ctx["family"] == "rational":
            _expect(code == 0, "rational zonotope refused")
        if ctx["family"] == "independent":
            _expect(code == 1 and rep["failure_reason"] == "span-not-discrete",
                    f"independent generators: {rep['failure_reason']}")
        ctx["positive"] = code == 0
        ctx["multiplicity"] = rep["witness_multiplicity"]
        if code == 0 and not lattice.exists():
            doc = dict(rep["witness_lattice"], field=rep["field"])
            lattice.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")

    return check


def _check_canon(code, out, ctx):
    _expect("positive" in ctx, "decide did not run")
    _expect(code == (0 if ctx["positive"] else 1), f"canon exit code {code}")


def _check_witness(code, out, ctx):
    rep = _report(code, out, 0)
    _expect(rep["verdict"] is True, "witness fails the edge-pair criterion")
    _expect(rep["multiplicity"] == ctx["multiplicity"], "check and decide disagree on multiplicity")


def _shuffled_items(ops: list[Op], rng: random.Random) -> list[Op]:
    """Shuffle the order of items, keeping each item's ops in order."""
    items: dict[str, list[Op]] = {}
    for op in ops:
        items.setdefault(op.item, []).append(op)
    keys = list(items)
    rng.shuffle(keys)
    return [op for k in keys for op in items[k]]


def runnable(op: Op) -> bool:
    """Whether an op applies: check runs only on a positive decision."""
    return op.kind != "check" or op.ctx.get("positive", False)


WORKLOADS = {"scenes": build_scenes, "corpus": build_corpus, "decide": build_decide}
