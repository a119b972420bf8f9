"""Golden bytes: sha256 of ``verify`` stdout, ``render`` SVG output and
the stdout of ``decide``, ``canon`` and ``check``.

The scenes are the builtins the benchmark's ``scenes`` workload runs,
written the same way (``examples`` output), so any byte drift in the
verifier's report or the picture fails here and not only in the bench.
The decision inputs cover every branch and failure reason, fields up to
four radicands, a ``vertices`` document and the field embedding of
``check``.
"""

import functools
import hashlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotile import Field, FieldElement, PlaneVector, Zonotope, covering, jsonio, lattice, render, vector
from zonotile.arrangement import arrangement_faces
from zonotile.cli import main

from conftest import F2, F23, Q, V, random_irrational_zonotope, random_zonotope

VERIFY = {
    ("octagon-family", "1/3"): (
        "c6c173f3fa3cd25bf12247e0c53022cdb860553f75ce055bea0da0ffd89f6c1e"
    ),
    ("octagon-family", "sqrt(2)"): (
        "63f588cb94a655878c4a8c11bdc82ad8ef8397bc12cbf72288ed5d3204d4e756"
    ),
    ("octagon-family", "sqrt(2)+sqrt(3)"): (
        "e43d8031b552b4c7451033588f25c7febcd0435a82e2117b18e5bfce028b7c81"
    ),
    ("tetromino-union", None): (
        "04ce8d0f5b6677c810ddc73e6034b1bcb12b2cf90a189749288d41f60ee7ade9"
    ),
}

RENDER = {
    ("octagon-family", "1/3", "--window=0,0,4,4"): (
        "a629f0615dc5682401d519dab83450427dd9778c01a7a0838ebad087169a4c30"
    ),
    ("tetromino-union", None, "--window=-4,-4,4,4"): (
        "a71f39e6ff8a2b895fbe91204a15ba88e9e3238a79d4a3fc1ee14bfc34da0bf9"
    ),
    # irrational coordinates: each rounded exactly by one Field.floor
    ("octagon-family", "sqrt(2)", "--window=-1,-1,2,2"): (
        "582137b6e78b3a9b92e693e36c66453b743c52532dc87f5613c3b928aa2d8aa4"
    ),
    ("octagon-family", "sqrt(2)+sqrt(3)", "--window=0,0,2,2"): (
        "e4f4994399d617573c99856a2272fbaacf3c4d7d347e57e863c5d936d714bcd1"
    ),
    # window corners off the integers and crossing abscissas off the grid
    ("octagon-family", "2/7", "--window=-1/3,1/5,7/2,9/4"): (
        "e4f3ff5f760be586e22367897197b1c74e18dac1672f048d6f94af508b53a82f"
    ),
    ("tetromino-union", None, "--window=-7/3,-5/2,10/3,11/4"): (
        "14a7d9d43a69e7a3c90aa16d5c340b8933741f26d92fc2ddea60a23f20089149"
    ),
    ("octagon-family", "sqrt(2)", "--window=-1/2,1/3,5/2,7/3"): (
        "1ec12ab9817583f5dc795220caba31ea9149ebf298b95d7e176b61b6ffad7683"
    ),
}


def _scene(capsys, tmp_path, name, beta):
    argv = ["examples", name] + (["--beta", beta] if beta is not None else [])
    assert main(argv) == 0
    path = tmp_path / "scene.json"
    path.write_text(capsys.readouterr().out)
    return str(path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, beta", list(VERIFY))
def test_verify_stdout_bytes(capsys, tmp_path, name, beta):
    scene = _scene(capsys, tmp_path, name, beta)
    assert main(["verify", scene]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VERIFY[name, beta]


@pytest.mark.parametrize("name, beta, window", list(RENDER))
def test_render_svg_bytes(capsys, tmp_path, name, beta, window):
    scene = _scene(capsys, tmp_path, name, beta)
    svg = tmp_path / "out.svg"
    assert main(["render", scene, "-o", str(svg), window]) == 0
    assert _sha256(svg.read_bytes()) == RENDER[name, beta, window]


# (input, command): sha256 of stdout.  ``check`` runs against the witness
# of ``decide`` when there is one and against Z^2 over Q otherwise, so
# ``check`` of a polygon over a larger field takes the embedding path.
DECIDE = {
    ("half-m12", "decide"): "eb4876f6ec6741a3b57057f3b5fa1f42f05af46b02eb4e06375aa7c9b82985cf",
    ("half-m12", "canon"): "9e98a8727c175f290afcffee0e30ac8b947d2c65885ae23056a80215947755a6",
    ("half-m12", "check"): "cf4bedccddba92b5a4fc05402d5d3afffea967f7e29947a05120a15ff55fab72",
    ("hexagon", "decide"): "871ee6847db090c9be445df1074c4a6c3ae291115eb2c2fd3dab7e9d352c304a",
    ("hexagon", "canon"): "f3be9cc8f7198f36b1dbeaa20290ba01bb3ef7d4e8991aaa14c69b664753533e",
    ("hexagon", "check"): "846c503593635c39f9f57ba277e62d68b34af8988393bdb35e2801afb246945e",
    ("hexagon-vertices", "decide"): "812ddd338b0930e2f0107b6772ba0442667f303bb3e2428ee1d9b06bccb756d4",
    ("hexagon-vertices", "canon"): "f0fcd95f4ed9ec95f7ff17499d198e3484d535bc13a665c3de208e38a22e972d",
    ("hexagon-vertices", "check"): "846c503593635c39f9f57ba277e62d68b34af8988393bdb35e2801afb246945e",
    ("octagon", "decide"): "c39200527627d7b84d2df333d33d3ccab7b0f1001754dc5a4c69c1fe71de676e",
    ("octagon", "canon"): "1658271013fe222d62459ebbbc6806d5d5476b584e017861452b74d656fc583b",
    ("octagon", "check"): "185c5e05c4bcc465569cc0d7bcfc133b0e0a29f8307d141ebae9522e9843fce9",
    ("q2-det-ratio-irrational", "decide"): "0673fb1f3b3fc38249b5566b55dbac4e5d99f3a35e14e715fe23d1883ab3dbf0",
    ("q2-det-ratio-irrational", "canon"): "0673fb1f3b3fc38249b5566b55dbac4e5d99f3a35e14e715fe23d1883ab3dbf0",
    ("q2-det-ratio-irrational", "check"): "f89f684c26b12a10d9fc62271abadea01d21740f9a116761146f10f84f0e730e",
    ("q2-regular-octagon", "decide"): "e8d80c3b221b97a7f3f631c0492b4a65e4d5e49ce251f4e73dd49d63ef8b10ec",
    ("q2-regular-octagon", "canon"): "e8d80c3b221b97a7f3f631c0492b4a65e4d5e49ce251f4e73dd49d63ef8b10ec",
    ("q2-regular-octagon", "check"): "dd029909276fc835422a318ec0dcdaa30dcd46c8ab58c8b332addcd7dd4ca125",
    ("q2-sheared-half-m4", "decide"): "c5b8685c64e493558eb640087aeaf17e96d3d4e9876e34d85c67b9fc36c0c202",
    ("q2-sheared-half-m4", "canon"): "d76b25ebe3805366b26651fee9a335ce1dc2b73c9adb3fdb2b5b15da9e742dce",
    ("q2-sheared-half-m4", "check"): "9ae2280ebc66e7f1b68a27f48ecd9dfbcb39390a5225a2375752238b199caffb",
    ("q2-sheared-half-m6", "decide"): "fe05997c39498ae49c27d996306e765f40ed9c4fb8abf28923cda97659934cb7",
    ("q2-sheared-half-m6", "canon"): "faa057dbd37421815c367a344a68d348e1bb69c7bde9942c3a3f1ff512743094",
    ("q2-sheared-half-m6", "check"): "19d7dd9e5a3a9bb7de99b605595540fcb31cd81cd2b3938d3d29ce381dad8eba",
    ("q23-negative", "decide"): "9588c2ad90bce4aa306a3d660e6abce2e5c29a6c052f30c8756f16c25a762703",
    ("q23-negative", "canon"): "9588c2ad90bce4aa306a3d660e6abce2e5c29a6c052f30c8756f16c25a762703",
    ("q23-negative", "check"): "023d041bf499ff2574314ff43e7459e381d02de29c1c0d6671078f2c7eba4edb",
    ("q23-octagon-image", "decide"): "a222d4b60cacece8c64a213916e7cf5178d21a64319bc4a1262d69dfeaf7a9d8",
    ("q23-octagon-image", "canon"): "8f3f701910a4909daeaba02b24bc194b3d28d8666b299e5c3950b024a4c8c7dd",
    ("q23-octagon-image", "check"): "c5cabe1a0785f7ae961041cbdb2aa1f7ecde9de467b46caee618d603c56cd0af",
    ("q23-positive", "decide"): "0017bb2ee415b874ad914918b7733184e8640117ef6a81fe2a38b2aa524cddbc",
    ("q23-positive", "canon"): "3b087776294ce71ae70cd97b0c421ddcc939e7fdeb16d2e954c3c6eea7e4ac24",
    ("q23-positive", "check"): "eeba4147c2701bb4375e6d684b2d59c1b8736a1b43b406720669e7d4d482430f",
    ("q2357-pentagon", "decide"): "01863690c4d83d553a3b893974b436ec914566b12f07f9a6eac890d89bf14918",
    ("q2357-pentagon", "canon"): "01863690c4d83d553a3b893974b436ec914566b12f07f9a6eac890d89bf14918",
    ("q2357-pentagon", "check"): "41d069e9a3eabed7b0837755758d8c173fadb754841346d78133e6f560b4352f",
    ("square", "decide"): "66e2df9d05d8f3629bca28ba4a758b83e7b63764e28ec2428083a12282c6b083",
    ("square", "canon"): "66e2df9d05d8f3629bca28ba4a758b83e7b63764e28ec2428083a12282c6b083",
    ("square", "check"): "6470cbbe148d52c07a5d828040be71d67ece9cc6d4b6062c1461a3f5e2c0375d",
}


def _octagon_image():
    """The lattice octagon under (x, y) -> (x + sqrt2 y, sqrt3 y): an even
    multi-tiler over Q(sqrt2, sqrt3)."""
    r2, r3 = F23.sqrt(2), F23.sqrt(3)
    return Zonotope([PlaneVector(v.x + r2 * v.y, r3 * v.y)
                     for v in (V(1, 0, F23), V(1, 1, F23), V(0, 1, F23), V(-1, 1, F23))])


def _sheared(z):
    """The image of a zonotope over Q under (x, y) -> (x + sqrt2 y, y)."""
    r2 = F2.sqrt(2)
    return Zonotope([PlaneVector(F2.embed(v.x) + r2 * F2.embed(v.y), F2.embed(v.y)) for v in z.generators])


def _pentagon():
    """Rationally independent generators over Q(sqrt2, sqrt3, sqrt5, sqrt7)."""
    f = Field([2, 3, 5, 7])
    eps = Fraction(1, 32)
    pairs = [((7, 1), (2, 3)), ((3, 1), (5, 7)), ((1, 2), (6, 10)), ((-1, 2), (14, 15)), ((-5, 1), (21, 35))]
    return Zonotope([vector(f, x, y) + vector(f, f.sqrt(a) * eps, f.sqrt(b) * eps)
                     for (x, y), (a, b) in pairs])


def _decision_inputs():
    r2 = F2.sqrt(2)
    h = r2 * Fraction(1, 2)
    q2_octagon = [PlaneVector(F2.one(), F2.zero()), PlaneVector(h, h), PlaneVector(F2.zero(), F2.one()),
                  PlaneVector(-h, h)]
    zonotopes = {
        "octagon": Zonotope([V(1, 0), V(1, 1), V(0, 1), V(-1, 1)]),
        "hexagon": Zonotope([V(1, 0), V(1, 1), V(0, 1)]),
        "square": Zonotope([V(1, 0), V(0, 1)]),
        "half-m12": random_zonotope(random.Random(12), m=12),
        "q23-positive": random_irrational_zonotope(random.Random(3), F23, 3),
        "q23-negative": random_irrational_zonotope(random.Random(3), F23, 4),
        "q23-octagon-image": _octagon_image(),
        "q2-det-ratio-irrational": Zonotope([V(1, 0, F2), V(2, 2, F2), PlaneVector(F2.zero(), 2 + r2),
                                             V(-1, 2, F2)]),
        "q2-regular-octagon": Zonotope(q2_octagon),
        # even m, witness strictly above its drop-one span, and e_j0 of
        # squared length 5 and 10 in that span's coordinates
        "q2-sheared-half-m4": _sheared(random_zonotope(random.Random(4), m=4)),
        "q2-sheared-half-m6": _sheared(random_zonotope(random.Random(2), m=6)),
        "q2357-pentagon": _pentagon(),
    }
    docs = {name: jsonio.encode_zonotope(z) for name, z in zonotopes.items()}
    hexagon = [(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)]
    docs["hexagon-vertices"] = {"field": [], "vertices": [jsonio.encode_vector(V(x, y)) for x, y in hexagon]}
    return docs


DECISION_INPUTS = sorted(_decision_inputs())


def _decision_stdout(capsys, tmp_path, name, command) -> bytes:
    poly = tmp_path / "polygon.json"
    poly.write_text(jsonio.dumps(_decision_inputs()[name]))
    argv = [command, str(poly)]
    if command == "check":
        main(["decide", str(poly)])
        decision = json.loads(capsys.readouterr().out)
        lattice = dict(decision["witness_lattice"], field=decision["field"]) if decision["multi_tiles"] else {
            "field": [], "basis": [jsonio.encode_vector(V(1, 0)), jsonio.encode_vector(V(0, 1))]}
        path = tmp_path / "lattice.json"
        path.write_text(jsonio.dumps(lattice))
        argv.append(str(path))
    assert main(argv) in (0, 1)
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", DECISION_INPUTS)
@pytest.mark.parametrize("command", ["decide", "canon", "check"])
def test_decision_stdout_bytes(capsys, tmp_path, name, command):
    assert _sha256(_decision_stdout(capsys, tmp_path, name, command)) == DECIDE[name, command]


def _scene_document(field, vertices, parts):
    """An explicit scene: the polygon's vertices and (lattice basis,
    offset) per periodic part, all over ``field``."""
    def vec(x, y):
        return jsonio.encode_vector(vector(field, x, y))

    return {
        "field": list(field.radicands),
        "polygon": {"vertices": [vec(x, y) for x, y in vertices]},
        "lambda": {"periodic": [
            {"lattice": {"basis": [vec(*b1), vec(*b2)]}, "offset": vec(*offset)}
            for (b1, b2), offset in parts
        ]},
    }


def _period_scenes():
    """Scenes whose parts lie on distinct commensurable lattices, none
    containing another, so the period lattice is a proper intersection."""
    r2 = F2.sqrt(2)
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    columns, rows = ((2, 0), (0, 1)), ((1, 0), (0, 2))
    # 2Z x Z and Z x 2Z, each with two cosets: twice covered, period 2Z x 2Z
    q_constant = _scene_document(Q, square, [
        (columns, (0, 0)), (columns, (1, 0)), (rows, (0, 0)), (rows, (0, 1))])
    # [0, sqrt2] x [0, 1] under <(2 sqrt2, 0), (0, 1)> and the skewed
    # <(sqrt2, 1), (0, 2)>: twice covered, period <(2 sqrt2, 0), (0, 2)>
    q2_constant = _scene_document(F2, [(0, 0), (r2, 0), (r2, 1), (0, 1)], [
        (((2 * r2, 0), (0, 1)), (0, 0)), (((2 * r2, 0), (0, 1)), (r2, 0)),
        (((r2, 1), (0, 2)), (0, 0)), (((r2, 1), (0, 2)), (0, 1))])
    # the columns shifted by a half against the rows: points are covered 0, 1 or 2 times
    q_non_constant = _scene_document(Q, square, [(columns, (Fraction(1, 2), 0)), (rows, (0, 0))])
    return {"q-constant": q_constant, "q2-constant": q2_constant, "q-non-constant": q_non_constant}


# sha256 of ``verify`` stdout on each of :func:`_period_scenes`
PERIOD_SCENES = {
    "q-constant": "64b246006f7826cfebdb61a68fe8ac13356f80a7b9daf437852411cb135145b7",
    "q-non-constant": "bdb3e5dc8cf51edc614c08ca32cf76500d5920a8015299752c9d2af606651419",
    "q2-constant": "1c8674f3e03aa1f87ee548e582434560d325ec4368861224d75dabf7a7a704d6",
}


@pytest.mark.parametrize("name", sorted(PERIOD_SCENES))
def test_period_scene_verify_bytes(capsys, tmp_path, name):
    scene = tmp_path / "scene.json"
    scene.write_text(jsonio.dumps(_period_scenes()[name]))
    assert main(["verify", str(scene)]) in (0, 1)
    assert _sha256(capsys.readouterr().out.encode()) == PERIOD_SCENES[name]


@functools.cache
def _golden_sweeps():
    """The (poly, grid, translates, region) of every sweep that the
    golden ``verify`` and ``render`` runs make, with its faces as
    (x0, x1, count, sample)."""
    sweeps = []

    def recording(poly, grid, translates, region):
        faces = arrangement_faces(poly, grid, translates, region)
        sweeps.append(((poly, grid, translates, region), [(f.x0, f.x1, f.count, f.sample) for f in faces]))
        return faces

    with tempfile.TemporaryDirectory() as work:
        runs = []
        for i, key in enumerate([*VERIFY, *RENDER]):
            name, beta = key[:2]
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["examples", name] + (["--beta", beta] if beta is not None else [])) == 0
            scene = Path(work, f"{i}.json")
            scene.write_text(out.getvalue())
            runs.append(["render", str(scene), "-o", str(Path(work, f"{i}.svg")), key[2]] if key in RENDER
                        else ["verify", str(scene)])
        for name, doc in _period_scenes().items():
            Path(work, f"{name}.json").write_text(jsonio.dumps(doc))
            runs.append(["verify", str(Path(work, f"{name}.json"))])
        covering.arrangement_faces = render.arrangement_faces = recording
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes = [main(argv) for argv in runs]
        finally:
            covering.arrangement_faces = render.arrangement_faces = arrangement_faces
    assert set(codes) == {0, 1} and len(sweeps) == len(runs)
    return sweeps


@settings(max_examples=8, deadline=None)
@given(st.randoms(use_true_random=False))
def test_faces_do_not_depend_on_the_translate_order(rng):
    # region edges are built first, so only which translate edge leads a
    # line changes with the order, and a line's segments are collinear
    for (poly, grid, translates, region), faces in _golden_sweeps():
        shuffled = rng.sample(translates, len(translates))
        assert [(f.x0, f.x1, f.count, f.sample) for f in arrangement_faces(poly, grid, shuffled, region)] == faces


FIELD_OPERATORS = {
    FieldElement: ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__neg__", "inverse"),
    PlaneVector: ("__add__", "__sub__", "__neg__", "scale", "cross", "dot"),
}


def count_operator_callers(monkeypatch):
    """Patch the element and vector operators to count, by the name of the
    calling function, each call that no other patched operator makes."""
    callers = Counter()
    depth = [0]
    for cls, names in FIELD_OPERATORS.items():
        for name in names:
            def counting(*args, _op=getattr(cls, name)):
                if not depth[0]:
                    callers[sys._getframe(1).f_code.co_name] += 1
                depth[0] += 1
                try:
                    return _op(*args)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(cls, name, counting)
    return callers


class TestNoFieldArithmetic:
    def test_decisions_on_a_vertex_document_do_none(self, capsys, tmp_path, monkeypatch):
        octagon = Zonotope([V(1, 0), V(1, 1), V(0, 1), V(-1, 1)])
        poly = tmp_path / "polygon.json"
        vertices = [jsonio.encode_vector(v) for v in octagon.vertices()]
        poly.write_text(jsonio.dumps({"field": [], "vertices": vertices}))
        lattice = tmp_path / "lattice.json"
        lattice.write_text(jsonio.dumps({"field": [], "basis": [jsonio.encode_vector(V(1, 0)),
                                                                jsonio.encode_vector(V(0, 1))]}))
        callers = count_operator_callers(monkeypatch)
        codes = [main(argv) for argv in (["decide", str(poly)], ["canon", str(poly)],
                                         ["check", str(poly), str(lattice)])]
        monkeypatch.undo()
        capsys.readouterr()
        assert codes == [0, 0, 0]
        assert callers == {}

    def test_verify_and_render_only_build_the_region_and_the_search_box(self, capsys, tmp_path, monkeypatch):
        runs = _golden_runs(capsys, tmp_path)
        # a beta text is read into its element without element arithmetic
        beta_text = tmp_path / "beta-text.json"
        beta_text.write_text(jsonio.dumps({"lambda": {"builtin": "octagon-family", "beta": "1/2+sqrt(2)"}}))
        runs.append(["verify", str(beta_text)])
        callers = count_operator_callers(monkeypatch)
        codes = [main(argv) for argv in runs]
        monkeypatch.undo()
        capsys.readouterr()
        assert set(codes) == {0, 1}
        assert set(callers) <= {"region_translates"}, callers


def _golden_runs(capsys, tmp_path) -> list[list[str]]:
    """The command lines of every golden ``verify`` and ``render``, their
    scenes written under tmp_path."""
    runs = []
    for i, key in enumerate([*VERIFY, *RENDER]):
        (tmp_path / str(i)).mkdir()
        scene = _scene(capsys, tmp_path / str(i), *key[:2])
        out = str(tmp_path / str(i) / "out.svg")
        runs.append(["render", scene, "-o", out, key[2]] if key in RENDER else ["verify", scene])
    for name, doc in _period_scenes().items():
        (tmp_path / f"{name}.json").write_text(jsonio.dumps(doc))
        runs.append(["verify", str(tmp_path / f"{name}.json")])
    return runs


class TestRowsAreTheState:
    def test_verify_and_render_build_no_vector(self, capsys, tmp_path, monkeypatch):
        # polygons, lattices and translate offsets are held as rows and put
        # on the grid from them, so no vector is built from rows
        runs = _golden_runs(capsys, tmp_path)
        callers, original = Counter(), lattice.vectors_from_rows

        def counting(*args):
            callers[sys._getframe(1).f_code.co_name] += 1
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "zonotile" and getattr(module, "vectors_from_rows", None) is original:
                monkeypatch.setattr(module, "vectors_from_rows", counting)
        codes = [main(argv) for argv in runs]
        monkeypatch.undo()
        capsys.readouterr()
        assert set(codes) == {0, 1}
        assert not callers, callers
