"""End-to-end CLI behavior: exit codes, JSON output, determinism, SVG."""

import argparse
import functools
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zonotile import BUILTIN_NAMES, RATIONALS, Field, FieldElement, PlaneLattice, Zonotope, vector
from zonotile import cli, covering, criteria, jsonio
from zonotile.errors import ZonotileError
from zonotile.arrangement import Face
from zonotile.cli import main

from conftest import F2, F23, V, json_mutant


@pytest.fixture
def octagon_file(tmp_path):
    z = Zonotope([V(1, 0), V(1, 1), V(0, 1), V(-1, 1)])
    path = tmp_path / "octagon.json"
    path.write_text(jsonio.dumps(jsonio.encode_zonotope(z)))
    return str(path)


@pytest.fixture
def irrational_pentagon_file(tmp_path):
    f = Field([2, 3, 5, 7])
    eps = Fraction(1, 32)
    gens = [
        vector(f, 7, 1) + vector(f, f.sqrt(2) * eps, f.sqrt(3) * eps),
        vector(f, 3, 1) + vector(f, f.sqrt(5) * eps, f.sqrt(7) * eps),
        vector(f, 1, 2) + vector(f, f.sqrt(6) * eps, f.sqrt(10) * eps),
        vector(f, -1, 2) + vector(f, f.sqrt(14) * eps, f.sqrt(15) * eps),
        vector(f, -5, 1) + vector(f, f.sqrt(21) * eps, f.sqrt(35) * eps),
    ]
    z = Zonotope(gens)
    path = tmp_path / "pentagon.json"
    path.write_text(jsonio.dumps(jsonio.encode_zonotope(z)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDecide:
    def test_octagon_positive(self, capsys, octagon_file):
        code, out = run(capsys, ["decide", octagon_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["multi_tiles"] is True
        assert doc["branch"] == "even" and doc["j0"] == 1
        assert doc["witness_multiplicity"] == 7
        assert doc["witness_lattice"]["basis"]

    def test_irrational_pentagon_negative(self, capsys, irrational_pentagon_file):
        code, out = run(capsys, ["decide", irrational_pentagon_file])
        assert code == 1
        doc = json.loads(out)
        assert doc["multi_tiles"] is False
        assert doc["failure_reason"] == "span-not-discrete"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = run(capsys, ["decide", str(bad)])
        assert code == 2
        one = [{"monomial": "1", "num": "1", "den": "1"}]
        zero_den = [{"monomial": "1", "num": "1", "den": "0"}]
        float_num = [{"monomial": "1", "num": 1.9, "den": True}]
        bad_key = [{"monomial": "rx", "num": "1", "den": "1"}]
        for field, x, named in [
            ([], zero_den, "'den': '0'"),
            ("23", one, "'23'"),
            ([], float_num, "'num': 1.9"),
            ([], bad_key, "'rx'"),
            ([], [{"monomial": "1", "num": "1"}], "lacks 'den'"),
            ([], ["1"], "term '1'"),
        ]:
            doc = {"field": field, "generators": [{"x": x, "y": []}, {"x": [], "y": one}]}
            bad.write_text(json.dumps(doc))
            assert main(["decide", str(bad)]) == 2
            assert named in capsys.readouterr().err
        # vector lists must be lists of {x, y} objects, named by key and index
        for key, value, named in [
            ("generators", [[1, 2], [3, 4]], "generators[0]"),
            ("generators", "x", "'generators'"),
            ("generators", [{"x": one, "y": []}, {"x": one}], "generators[1]"),
            ("vertices", [None], "vertices[0]"),
        ]:
            bad.write_text(json.dumps({"field": [], key: value}))
            assert main(["decide", str(bad)]) == 2
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err
        poly = tmp_path / "square.json"
        poly.write_text(jsonio.dumps(jsonio.encode_zonotope(Zonotope([V(1, 0), V(0, 1)]))))
        for lattice, named in [
            ({"basis": [[1, 0], [0, 1]]}, "basis[0]"),
            ({"basis": "x"}, "'basis'"),
            ({}, "'basis'"),
        ]:
            bad.write_text(json.dumps({"field": [], **lattice}))
            assert main(["check", str(poly), str(bad)]) == 2
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err
        # scene entries must be objects and lists, named by their JSON location
        square = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]}
        z2 = {"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}
        for polygon, lam, named in [
            (square, {"periodic": [[1, 2]]}, "lambda.periodic[0]"),
            (square, {"periodic": [z2, {}]}, "lambda.periodic[1]"),
            (square, {"periodic": {"a": 1}}, "lambda.periodic"),
            (square, {"periodic": [{**z2, "offset": [1, 2]}]}, "lambda.periodic[0].offset"),
            (square, [1], "'lambda'"),
            (
                square,
                {"periodic": [{"lattice": {"basis": [jsonio.encode_vector(V(1, 0)), [0, 1]]}}]},
                "lambda.periodic[0].lattice.basis[1] must be an object with 'x' and 'y', got [0, 1]",
            ),
            (square, {"periodic": [z2, {"lattice": {"basis": "x"}}]}, "lambda.periodic[1].lattice.basis must"),
            (square, {"periodic": [{"lattice": [1]}]}, "lambda.periodic[0].lattice must"),
            (
                square,
                {"periodic": [{"lattice": {"basis": [jsonio.encode_vector(V(1, 0))] * 2}}]},
                "lambda.periodic[0].lattice: lattice basis is degenerate",
            ),
            (
                square,
                {"periodic": [{"lattice": {"basis": [jsonio.encode_vector(V(x, 1)) for x in range(3)]}}]},
                "lambda.periodic[0].lattice basis must have exactly 2 vectors",
            ),
            ([1], {"periodic": [z2]}, "'polygon'"),
        ]:
            bad.write_text(json.dumps({"field": [], "polygon": polygon, "lambda": lam}))
            assert main(["verify", str(bad)]) == 2
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["decide", "/nonexistent/poly.json"])
        assert code == 2

    def test_deterministic_output(self, capsys, octagon_file):
        _, out1 = run(capsys, ["decide", octagon_file])
        _, out2 = run(capsys, ["decide", octagon_file])
        assert out1 == out2


class TestCheck:
    def test_octagon_z2(self, capsys, octagon_file, tmp_path):
        lat = PlaneLattice(V(1, 0), V(0, 1))
        lat_file = tmp_path / "z2.json"
        lat_file.write_text(jsonio.dumps({"field": [], **jsonio.encode_lattice(lat)}))
        code, out = run(capsys, ["check", octagon_file, str(lat_file)])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True and doc["multiplicity"] == 7

    def test_octagon_strip_lattice_fails(self, capsys, octagon_file, tmp_path):
        lat = PlaneLattice(V(1, 0), V(0, 2))
        lat_file = tmp_path / "zx2z.json"
        lat_file.write_text(jsonio.dumps({"field": [], **jsonio.encode_lattice(lat)}))
        code, out = run(capsys, ["check", octagon_file, str(lat_file)])
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert doc["pairs"][0] == {"j": 1, "cond1": False, "cond2": False}

    def test_bad_lattice_bases_exit_2(self, capsys, octagon_file, tmp_path):
        lat_file = tmp_path / "bad.json"
        e1, e2, e3 = (jsonio.encode_vector(V(x, y)) for x, y in [(1, 0), (0, 1), (1, 1)])
        for basis, message in [
            ([e1], "lattice basis must have exactly 2 vectors"),
            ([e1, e2, e3], "lattice basis must have exactly 2 vectors"),
            ([e1, jsonio.encode_vector(V(-2, 0))], "lattice basis is degenerate"),
        ]:
            lat_file.write_text(json.dumps({"field": [], "basis": basis}))
            assert main(["check", octagon_file, str(lat_file)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err and "Traceback" not in captured.err

    def test_lattice_round_trip_builds_no_field_element(self, monkeypatch):
        r2, r3 = F23.sqrt(2), F23.sqrt(3)
        lat = PlaneLattice(V(1, 0, F23) + vector(F23, r2, r3 * Fraction(1, 3)), vector(F23, r3, 2 + r2))
        doc = {"field": [2, 3], **jsonio.encode_lattice(lat)}
        calls = []
        from_integers = FieldElement.from_integers.__func__

        def counted(cls, *args):
            calls.append(args)
            return from_integers(cls, *args)

        monkeypatch.setattr(FieldElement, "from_integers", classmethod(counted))
        decoded = jsonio.decode_lattice_document(doc)
        assert jsonio.encode_lattice(decoded) == jsonio.encode_lattice(lat)
        assert calls == []
        assert decoded == lat

    def test_lattice_decoded_once_then_embedded(self, capsys, tmp_path, monkeypatch):
        # the polygon over Q(sqrt2) widens the field of a lattice over Q
        f2 = Field([2])
        z = Zonotope([V(1, 0, f2), V(1, 1, f2), V(0, 1, f2), V(-1, 1, f2)])
        poly_file = tmp_path / "octagon2.json"
        poly_file.write_text(jsonio.dumps(jsonio.encode_zonotope(z)))
        lat_file = tmp_path / "z2.json"
        lat_file.write_text(jsonio.dumps({"field": [], **jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}))
        decode = jsonio.decode_lattice_document
        fields = []

        def counting(doc):
            lattice = decode(doc)
            fields.append(lattice.field)
            return lattice

        monkeypatch.setattr(jsonio, "decode_lattice_document", counting)
        code, out = run(capsys, ["check", str(poly_file), str(lat_file)])
        assert code == 0 and fields == [RATIONALS]
        doc = json.loads(out)
        assert doc["field"] == [2] and doc["verdict"] is True and doc["multiplicity"] == 7
        # the lattice is still read in its own declared field only
        term = [{"monomial": "r2", "num": "1", "den": "1"}]
        lat_file.write_text(json.dumps({"field": [], "basis": [{"x": term, "y": []}, {"x": [], "y": term}]}))
        assert main(["check", str(poly_file), str(lat_file)]) == 2
        assert "'r2' does not exist in field []" in capsys.readouterr().err


class TestCanon:
    def test_octagon(self, capsys, octagon_file):
        code, out = run(capsys, ["canon", octagon_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["contributing_j"] == [1, 2, 3, 4]
        basis = doc["lattice"]["basis"]
        assert basis[0]["x"] == [{"den": "1", "monomial": "1", "num": "6"}]
        assert basis[1]["y"] == [{"den": "1", "monomial": "1", "num": "6"}]

    def test_non_multi_tiler(self, capsys, irrational_pentagon_file):
        code, out = run(capsys, ["canon", irrational_pentagon_file])
        assert code == 1
        assert json.loads(out)["multi_tiles"] is False

    def test_parallelogram(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(jsonio.dumps(jsonio.encode_zonotope(Zonotope([V(1, 0), V(0, 1)]))))
        code, out = run(capsys, ["canon", str(path)])
        assert code == 1
        assert json.loads(out)["branch"] == "parallelogram"

    def test_hexagon(self, capsys, tmp_path):
        path = tmp_path / "hexagon.json"
        path.write_text(jsonio.dumps(jsonio.encode_zonotope(Zonotope([V(1, 0), V(0, 1), V(-1, 1)]))))
        code, out = run(capsys, ["canon", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "pair-span"
        assert doc["contributing_j"] == []

    def test_decides_once(self, capsys, octagon_file, monkeypatch):
        decide = criteria.decide_multitiling
        calls = []

        def counting(z):
            calls.append(z)
            return decide(z)

        monkeypatch.setattr(criteria, "decide_multitiling", counting)
        monkeypatch.setattr(cli, "decide_multitiling", counting)
        code, _ = run(capsys, ["canon", octagon_file])
        assert code == 0
        assert len(calls) == 1


class TestExamplesAndVerify:
    def scene(self, capsys, tmp_path, *argv):
        code, out = run(capsys, ["examples", *argv])
        assert code == 0
        path = tmp_path / "scene.json"
        path.write_text(out)
        return str(path)

    def test_octagon_family_verifies(self, capsys, tmp_path):
        for beta, cells in [("0", 12), ("1/3", 24)]:
            scene = self.scene(capsys, tmp_path, "octagon-family", "--beta", beta)
            code, out = run(capsys, ["verify", scene])
            assert code == 0
            doc = json.loads(out)
            assert doc["constant"] is True and doc["multiplicity"] == 7
            assert doc["window_relative"] is False
            assert doc["cells_checked"] == cells

    def test_half_lattice_octagon_verifies(self, capsys, tmp_path):
        # the lattice octagon (area 7) against (1/2)Z^2: multiplicity 28
        half = PlaneLattice(V(Fraction(1, 2), 0), V(0, Fraction(1, 2)))
        doc = {
            "field": [],
            "polygon": {
                "vertices": [
                    jsonio.encode_vector(V(x, y))
                    for x, y in [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]
                ]
            },
            "lambda": {"periodic": [{"lattice": jsonio.encode_lattice(half)}]},
        }
        path = tmp_path / "half.json"
        path.write_text(jsonio.dumps(doc))
        code, out = run(capsys, ["verify", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["multiplicity"] == 28 and doc["cells_checked"] == 6

    def test_octagon_family_irrational_beta(self, capsys, tmp_path):
        scene = self.scene(capsys, tmp_path, "octagon-family", "--beta", "sqrt(2)")
        code, out = run(capsys, ["verify", scene])
        assert code == 0
        assert json.loads(out)["multiplicity"] == 7

    def test_list_beta_decodes_in_declared_field(self, capsys, tmp_path):
        path = tmp_path / "beta.json"
        third = [{"monomial": "1", "num": "1", "den": "3"}]
        r2 = [{"monomial": "r2", "num": "1", "den": "1"}]
        for field, beta in [([], third), ([2], r2)]:
            path.write_text(json.dumps({"field": field, "lambda": {"builtin": "octagon-family", "beta": beta}}))
            code, out = run(capsys, ["verify", str(path)])
            assert code == 0 and json.loads(out)["multiplicity"] == 7
        # without a declared field the terms are decoded over Q, never guessed
        for beta, named in [
            (r2, "'r2'"),
            ([{"monomial": "rx", "num": "1", "den": "1"}], "'monomial': 'rx'"),
            (["1", "1"], "term '1'"),
        ]:
            path.write_text(json.dumps({"lambda": {"builtin": "octagon-family", "beta": beta}}))
            assert main(["verify", str(path)]) == 2
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("beta", ["1/2+1/3", "-1/3", "0.5", "1/2 + 3*sqrt(2) - sqrt(6)", [], 2])
    def test_scene_beta_reads_as_the_flag_does(self, capsys, tmp_path, beta):
        # an empty term list reads as 0, and a JSON integer as its text
        text = "0" if beta == [] else str(beta)
        expected = run(capsys, ["verify", self.scene(capsys, tmp_path, "octagon-family", f"--beta={text}")])
        assert expected[0] == 0 and json.loads(expected[1])["multiplicity"] == 7
        path = tmp_path / "beta.json"
        path.write_text(json.dumps({"lambda": {"builtin": "octagon-family", "beta": beta}}))
        assert run(capsys, ["verify", str(path)]) == expected

    def test_declared_field_holds_a_text_beta(self, capsys, tmp_path):
        path = tmp_path / "beta.json"
        outs = []
        for beta in ["1/3", [{"monomial": "1", "num": "1", "den": "3"}]]:
            path.write_text(json.dumps({"field": [2], "lambda": {"builtin": "octagon-family", "beta": beta}}))
            outs.append(run(capsys, ["verify", str(path)]))
        assert outs[0] == outs[1] and outs[0][0] == 0 and json.loads(outs[0][1])["field"] == [2]

    def test_declared_rationals_hold_beta(self, capsys, tmp_path):
        # "field": [] declares Q: an irrational beta is refused however it is
        # spelled, and a rational one reads as where no field is declared
        path = tmp_path / "beta.json"
        refused = [
            ("sqrt(2)", "bad term 'sqrt(2)' in lambda.beta: sqrt(2) is not a basis monomial of Field([])"),
            ([{"monomial": "r2", "num": "1", "den": "1"}], "monomial 'r2' does not exist in field []"),
        ]
        for beta, message in refused:
            path.write_text(json.dumps({"field": [], "lambda": {"builtin": "octagon-family", "beta": beta}}))
            assert main(["verify", str(path)]) == 2
            assert message in capsys.readouterr().err
        for beta in [{"beta": "1/3"}, {}]:
            outs = []
            for declared in [{"field": []}, {}]:
                path.write_text(json.dumps({**declared, "lambda": {"builtin": "octagon-family", **beta}}))
                outs.append(run(capsys, ["verify", str(path)]))
            assert outs[0] == outs[1] and outs[0][0] == 0

    def test_declared_field_reads_any_root_it_holds(self, capsys, tmp_path):
        # sqrt(15) is no basis monomial of Q(sqrt6, sqrt10), but it is sqrt(60)/2
        path = tmp_path / "beta.json"
        outs = []
        for beta in ["sqrt(15)", [{"monomial": "r60", "num": "1", "den": "2"}]]:
            path.write_text(json.dumps({"field": [6, 10], "lambda": {"builtin": "octagon-family", "beta": beta}}))
            outs.append(run(capsys, ["verify", str(path)]))
        assert outs[0] == outs[1] and outs[0][0] == 0 and json.loads(outs[0][1])["field"] == [6, 10]
        for text in ["sqrt(4)", "sqrt(8)"]:  # 2*sqrt(2) is in Q(sqrt2), but a radicand is squarefree
            path.write_text(json.dumps({"field": [2], "lambda": {"builtin": "octagon-family", "beta": text}}))
            assert main(["verify", str(path)]) == 2
            assert f"radicand {text[5:-1]} is not squarefree" in capsys.readouterr().err

    def test_single_lattice_counterexample(self, capsys, tmp_path):
        lat = PlaneLattice(V(1, 0), V(0, 2))
        doc = {
            "field": [],
            "polygon": {
                "vertices": [
                    jsonio.encode_vector(V(x, y))
                    for x, y in [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]
                ]
            },
            "lambda": {"periodic": [{"lattice": jsonio.encode_lattice(lat)}]},
        }
        path = tmp_path / "bad_scene.json"
        path.write_text(jsonio.dumps(doc))
        code, out = run(capsys, ["verify", str(path)])
        assert code == 1
        rep = json.loads(out)
        assert rep["constant"] is False
        assert sorted(rep["counterexample"]["counts"]) == [3, 4]

    def test_incommensurable_scene_errors(self, capsys, tmp_path):
        f = Field([2])
        l1 = PlaneLattice(vector(f, 1, 0), vector(f, 0, 1))
        l2 = PlaneLattice(vector(f, f.sqrt(2), 0), vector(f, 0, 1))
        doc = {
            "field": [2],
            "polygon": {
                "vertices": [
                    jsonio.encode_vector(vector(f, x, y))
                    for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]
                ]
            },
            "lambda": {
                "periodic": [
                    {"lattice": jsonio.encode_lattice(l1)},
                    {"lattice": jsonio.encode_lattice(l2)},
                ]
            },
        }
        path = tmp_path / "incomm.json"
        path.write_text(jsonio.dumps(doc))
        code, _ = run(capsys, ["verify", str(path)])
        assert code == 2

    def test_tetromino_union(self, capsys, tmp_path):
        scene = self.scene(capsys, tmp_path, "tetromino-union")
        code, out = run(capsys, ["verify", scene])
        assert code == 0
        doc = json.loads(out)
        assert doc["multiplicity"] == 2 and doc["window_relative"] is True
        assert doc["cells_checked"] == 58

    def test_window_without_margin_rejected(self, capsys, tmp_path):
        # the window equals the polygon's margin, so the region has no area
        scene = self.scene(capsys, tmp_path, "tetromino-L1", "--window=0,0,2,5")
        assert main(["verify", scene]) == 2
        err = capsys.readouterr().err
        assert err == "zonotile: error: lambda.window: window is too small for the polygon's diameter margin\n"

    def test_sampled_mode_removed(self, capsys, tmp_path):
        scene = self.scene(capsys, tmp_path, "tetromino-L1")
        for flags, named in [(["--mode", "sampled"], "--mode"), (["--samples", "150"], "--samples")]:
            assert main(["verify", scene, *flags]) == 2
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err
        path = tmp_path / "mode.json"
        l1 = {"builtin": "tetromino-L1"}
        path.write_text(json.dumps({"lambda": l1, "mode": "sampled"}))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'mode'" in err and "sampled" in err and "Traceback" not in err
        for doc in [{"lambda": l1, "mode": "exact"}, {"lambda": l1}]:
            path.write_text(json.dumps(doc))
            code, out = run(capsys, ["verify", str(path)])
            assert code == 0
            assert json.loads(out)["multiplicity"] == 1

    def test_examples_round_trip(self, capsys, tmp_path):
        for name in ["tetromino-L1", "tetromino-L2", "tetromino-union"]:
            code, out = run(capsys, ["examples", name])
            assert code == 0
            doc = json.loads(out)
            assert doc["lambda"]["builtin"] == name
            jsonio.decode_scene_document(doc)


class TestRender:
    def test_tetromino_union_two_colors(self, capsys, tmp_path):
        code, out = run(capsys, ["examples", "tetromino-union"])
        scene = tmp_path / "scene.json"
        scene.write_text(out)
        svg_path = tmp_path / "out.svg"
        code = main(["render", str(scene), "-o", str(svg_path), "--window=-3,-3,3,3"])
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert "k=2" in svg
        # deterministic
        svg_path2 = tmp_path / "out2.svg"
        main(["render", str(scene), "-o", str(svg_path2), "--window=-3,-3,3,3"])
        assert svg_path2.read_text() == svg
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "2618389fa24b8a3f791c6e8b74d300142ef5d6db16437b33675b01518b1f269d"
        )

    def test_octagon_constant_fill(self, capsys, tmp_path):
        code, out = run(capsys, ["examples", "octagon-family", "--beta", "1/3"])
        scene = tmp_path / "oct.json"
        scene.write_text(out)
        svg_path = tmp_path / "oct.svg"
        code = main(["render", str(scene), "-o", str(svg_path), "--window=0,0,4,4"])
        assert code == 0
        svg = svg_path.read_text()
        assert "k=7" in svg
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "a629f0615dc5682401d519dab83450427dd9778c01a7a0838ebad087169a4c30"
        )

    def test_scene_window_decoded_once(self, capsys, tmp_path, monkeypatch):
        # render without --window draws the window the scene decoder read
        z2 = {"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}
        square = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]}
        scenes = [
            {"lambda": {"builtin": "octagon-family", "window": ["0", "0", "4", "4"]}},
            {"field": [], "polygon": square, "lambda": {"periodic": [z2], "window": ["0", "0", "2", "2"]}},
        ]
        calls = []

        def spy(doc, where, _decode=jsonio.decode_window):
            calls.append(where)
            return _decode(doc, where)

        monkeypatch.setattr(jsonio, "decode_window", spy)
        for doc in scenes:
            scene, drawn, flagged = tmp_path / "scene.json", tmp_path / "drawn.svg", tmp_path / "flagged.svg"
            scene.write_text(json.dumps(doc))
            calls.clear()
            assert main(["render", str(scene), "-o", str(drawn)]) == 0
            assert calls == ["lambda.window"]
            window = ",".join(doc["lambda"]["window"])
            assert main(["render", str(scene), "-o", str(flagged), f"--window={window}"]) == 0
            assert drawn.read_bytes() == flagged.read_bytes()

    def test_window_required(self, capsys, tmp_path, octagon_file):
        _, out = run(capsys, ["examples", "octagon-family"])
        scene = tmp_path / "oct.json"
        scene.write_text(out)
        code = main(["render", str(scene), "-o", str(tmp_path / "x.svg")])
        assert code == 2

    def test_empty_window_rejected(self, capsys, tmp_path):
        _, out = run(capsys, ["examples", "tetromino-L1"])
        scene = tmp_path / "scene.json"
        scene.write_text(out)
        code = main(["render", str(scene), "-o", str(tmp_path / "x.svg"), "--window=2,2,2,2"])
        assert code == 2

    def test_flat_window_rejected(self, capsys, tmp_path):
        _, out = run(capsys, ["examples", "tetromino-L1"])
        scene = tmp_path / "scene.json"
        scene.write_text(out)
        code = main(["render", str(scene), "-o", str(tmp_path / "x.svg"), "--window=0,0,0,1"])
        assert code == 2
        assert "--window: window is empty" in capsys.readouterr().err

    def test_unwritable_output(self, capsys, tmp_path):
        _, out = run(capsys, ["examples", "tetromino-L1"])
        scene = tmp_path / "scene.json"
        scene.write_text(out)
        code = main(["render", str(scene), "-o", "/nonexistent/dir/x.svg", "--window=-3,-3,3,3"])
        assert code == 2


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_command_arguments_are_parsed_once(self, capsys, octagon_file, monkeypatch):
        reads = []
        read = cli._read

        def counting(argv):
            reads.append(list(argv))
            return read(argv)

        monkeypatch.setattr(cli, "_read", counting)
        assert run(capsys, ["decide", octagon_file])[0] == 0
        assert reads == [["decide", octagon_file]]

    def test_exit_codes(self, capsys, tmp_path):
        for argv, code in [(["-h"], 0), (["nosuch"], 2), (["decide"], 2), (["decide", "-h"], 0)]:
            assert main(argv) == code, argv
        capsys.readouterr()
        scene = tmp_path / "scene.json"
        scene.write_text(run(capsys, ["examples", "tetromino-L1"])[1])
        assert main(["verify", str(scene), "--mode", "sampled"]) == 2
        err = capsys.readouterr().err
        assert "zonotile verify: error: unrecognized arguments: --mode sampled" in err

    def test_every_option_is_checked_for_a_missing_value(self, capsys, tmp_path):
        # every flag of every command, in every form, with no value, the
        # value "--" given explicitly, or the next token "--"; nothing is read
        for name, (_, _, positionals, options, choices) in cli._COMMANDS.items():
            needed = [choices[p][0] if p in choices else p for p in positionals]
            needed += ["-o", str(tmp_path / "x.svg")] if "-o" in options else []
            for flag, (dest, _, _) in options.items():
                for tail, message in [
                    ([flag], f"argument {cli._flag_names(options, options[flag])}: expected one argument"),
                    ([flag, "--"], "expected one argument"),
                    ([flag, "--", "x"], "expected one argument"),
                    ([f"{flag}=--"], f"zonotile: error: --{dest}: expected one argument"),
                    ([f"{flag[:3]}=--"], f"zonotile: error: --{dest}: expected one argument"),
                ]:
                    assert main([name, *needed, *tail]) == 2, (name, tail)
                    assert message in capsys.readouterr().err, (name, tail)
        assert not (tmp_path / "x.svg").exists()

    def test_a_file_may_be_named_double_dash(self, capsys, octagon_file, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "--").write_text(Path(octagon_file).read_text())
        assert run(capsys, ["decide", "--", "--"])[0] == 0
        # a later positional too: argparse read this lattice as [], and check exited 3
        (tmp_path / "--").write_text(jsonio.dumps(jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))))
        assert run(capsys, ["check", octagon_file, "--", "--"])[0] == 0

    def test_console_script_reads_sys_argv(self, capsys, octagon_file, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["zonotile", "decide", octagon_file])
        code, out = run(capsys, None)
        assert code == 0 and json.loads(out)["multi_tiles"] is True

    def test_unknown_builtin_name(self, capsys):
        assert main(["examples", "heptomino"]) == 2
        assert main(["examples", "octagon-family", "--beta", "1/0"]) == 2
        assert "'1/0'" in capsys.readouterr().err

    def test_negative_option_values(self, capsys, tmp_path):
        # a flag takes the next token as its value unless it starts with "--",
        # so a negative value needs no "=" (argparse read "-1/3" as a flag)
        for spaced, attached in [
            (["--beta", "-1/3"], ["--beta=-1/3"]),
            (["--window", "-4,-4,4,4"], ["--window=-4,-4,4,4"]),
            (["--window", "-4,-4,4,4", "--beta", "-1/3"], ["--window=-4,-4,4,4", "--beta=-1/3"]),
        ]:
            code, out = run(capsys, ["examples", "octagon-family", *spaced])
            assert code == 0, capsys.readouterr().err
            assert (code, out) == run(capsys, ["examples", "octagon-family", *attached])
        scene = tmp_path / "scene.json"
        scene.write_text(run(capsys, ["examples", "tetromino-L1"])[1])
        svg = tmp_path / "x.svg"
        assert main(["render", str(scene), "-o", str(svg), "--window", "-3,-3,3,3"]) == 0
        main(["render", str(scene), "-o", str(tmp_path / "y.svg"), "--window=-3,-3,3,3"])
        assert svg.read_text() == (tmp_path / "y.svg").read_text()


@functools.cache
def _argparse_parsers():
    """The argparse parsers that read the command line before the table
    reader, built here from the reader's own table: the top-level parser
    and the command parsers by name (the reference for the reader)."""
    top = argparse.ArgumentParser(prog="zonotile")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, _, positionals, options, choices) in cli._COMMANDS.items():
        parser = sub.add_parser(name)
        for positional in positionals:
            parser.add_argument(positional, choices=choices.get(positional))
        for option in dict.fromkeys(options.values()):
            dest, _, required = option
            parser.add_argument(*(flag for flag in options if options[flag] is option), dest=dest, required=required)
    return top, sub.choices


def _argparse_reads(argv):
    """What the argparse parsers made of argv: "help", "refused" or the values."""
    top, commands = _argparse_parsers()
    parser, rest = (commands[argv[0]], argv[1:]) if argv and argv[0] in commands else (top, argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            values = vars(parser.parse_args(rest))
    except SystemExit as exc:
        return "help" if exc.code == 0 else "refused"
    # before Python 3.13 argparse read "--flag=--" as [], and main refused
    # an option value of [] or "--" after the parse
    options = {dest for dest, _, _ in cli._COMMANDS[argv[0]][3].values()}
    return "refused" if any(values[dest] in ([], "--") for dest in options) else values


def _reader_reads(argv):
    """What the table reader makes of argv: "help", "refused" or the values."""
    try:
        values = vars(cli._read(argv))
    except (cli._Usage, ZonotileError):
        assert main(argv) == 2  # refused before any file is read
        return "refused"
    return "help" if values.pop("fn") is cli._help else values


# values that argparse and the reader both read as a flag's next token, or
# both refuse; a token with one leading dash is where they differ (the reader
# takes it, argparse read it as a flag), and so is one like "--a b"
_VALUES = st.one_of(
    st.sampled_from(["1/3", "sqrt(2)", "0,0,1,1", "", "a=b", "x y", "--", "--x", "--win", "---"]),
    st.text(alphabet="ab1/,=. ", max_size=4),
)
# values a flag carries in its own token: anything
_ATTACHED = st.one_of(_VALUES, st.sampled_from(["-1/3", "-4,-4,4,4", "-", "--a b", "-o", "-h"]))
# positionals and stray tokens: files, numbers and dash tokens that argparse
# reads as positionals ("-", "-1", "a b") or as unknown flags ("-x", "--mode")
_TOKENS = st.one_of(
    st.sampled_from(["a.json", "-", "-1", "-2.5", "a b", "--a b", "", "-x", "--mode", "--samples=3", "-1/3"]),
    st.text(alphabet="ab1/,=-. ", max_size=4).filter(lambda t: t != "--" and not t.startswith("--=")),
)
_HELP_TOKENS = st.sampled_from(["-h", "--help", "--h", "--he", "--hel", "-h=1", "--help=", "--he=x"])
_ALL_FLAGS = sorted({flag for spec in cli._COMMANDS.values() for flag in spec[3]})


@st.composite
def _command_lines(draw):
    """argv from the grammar: positionals, every flag form with and without
    its value, prefixes, repeats, help, unknown flags, "--", in any order."""
    name = draw(st.sampled_from([*cli._COMMANDS, None]))
    if name is None:  # no command first: help, unknown flags and stray words
        return draw(st.lists(st.one_of(_HELP_TOKENS, _TOKENS, st.just("nosuch")), max_size=4))
    _, _, positionals, options, choices = cli._COMMANDS[name]
    words = []
    for positional in positionals + ("extra",):
        if positional in choices:
            words.append([draw(st.sampled_from([*choices[positional], "heptomino"]))])
        else:
            words.append([draw(_TOKENS)])
    words = words[: draw(st.sampled_from([len(positionals)] * 3 + list(range(len(words) + 1))))]
    if words and draw(st.booleans()):  # "--" right before a positional
        k = draw(st.integers(0, len(words) - 1))
        words[k] = ["--", *words[k]]
    items = []
    own = st.sampled_from(sorted(options)) if options else st.nothing()
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.one_of(own, st.sampled_from(_ALL_FLAGS)))  # other commands' flags are unknown here
        form = draw(st.sampled_from(["space", "equals", "prefix", "prefix=", "attached", "bare", "help", "stray"]))
        if form == "help":
            items.append([draw(_HELP_TOKENS)])
        elif form == "stray":
            items.append([draw(_TOKENS)])
        elif form == "bare":
            items.append([flag])
        elif form == "space":
            items.append([flag, draw(_VALUES)])
        elif form == "equals":
            items.append([f"{flag}={draw(_ATTACHED)}"])
        elif form == "attached" and not flag.startswith("--"):
            value = draw(_ATTACHED.filter(lambda v: v and not v.startswith("=")))
            items.append([flag + value])
        elif flag.startswith("--"):
            prefix = flag[: draw(st.integers(3, len(flag)))]
            items.append([prefix, draw(_VALUES)] if form == "prefix" else [f"{prefix}={draw(_ATTACHED)}"])
    # options before, between and after the positionals, in drawn order
    for item in items:
        words.insert(draw(st.integers(0, len(words))), item)
    return [name, *(token for word in words for token in word)]


def _takes_next(name, token) -> bool:
    """Whether the reader takes the token after this one as its value."""
    flags = cli._FLAGS[name]
    option, value = flags.get(token), None
    if option is None and token[:1] == "-" and token not in ("-", "--"):
        option, value = cli._attached(name, flags, token)
    return value is None and option not in (None, cli._HELP, cli._END)


class TestReaderAgainstArgparse:
    """The table reader reads every command line of its grammar as the
    argparse parsers it replaced did (built here from the same table):
    the same values, help, or a refusal with exit 2 on both sides.  The one
    intended difference, a flag followed by a token with one leading dash,
    is left out, and tested in ``test_negative_option_values``."""

    @settings(max_examples=400, deadline=None)
    @given(_command_lines())
    @example(["examples", "octagon-family", "--beta", "1/3", "--win=0,0,1,1", "--beta=2"])
    @example(["render", "-o", "x.svg", "--", "-1"])
    @example(["decide", "--", "--"])
    @example(["examples", "heptomino", "-h"])
    @example(["examples", "-h", "heptomino"])
    @example(["verify", "a.json", "--mode", "sampled"])
    @example(["render", "a.json", "-ox.svg", "-o=y.svg", "--output", "z.svg"])
    @example(["check", "a.json"])
    @example(["nosuch", "-h"])
    @example([])
    def test_same_reading(self, argv):
        command = argv[0] if argv and argv[0] in cli._COMMANDS else None
        ended = False
        for token, after in zip(argv[1:], argv[2:]):
            ended = ended or token == "--"
            if not ended and _takes_next(command, token):
                assume(not (after[:1] == "-" and after[:2] != "--") and not (after[:2] == "--" and " " in after))
        assert _reader_reads(argv) == _argparse_reads(argv), argv


class TestTypedErrors:
    """Inputs that once reached ``main`` as bare TypeError or ValueError exit
    2 with a message that names their location."""

    def fails(self, capsys, argv, named):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_non_string_monomial(self, capsys, tmp_path):
        path = tmp_path / "poly.json"
        one = [{"monomial": "1", "num": "1", "den": "1"}]
        for monomial, named in [(["1"], "['1']"), ({"r": 2}, "{'r': 2}")]:
            term = {"monomial": monomial, "num": "1", "den": "1"}
            doc = {"field": [], "generators": [{"x": [term], "y": []}, {"x": [], "y": one}]}
            path.write_text(json.dumps(doc))
            self.fails(capsys, ["decide", str(path)], f"term {term!r}: monomial {named} does not exist")

    def test_huge_polygon_refused_by_the_budget(self, capsys, tmp_path):
        # a unit square over Z^2 with one vertex pulled up to y = 10**30
        # would meet about 10**30 translates
        z2 = {"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}
        corners = [(0, 0), (1, 0), (1, 10**30), (0, 1)]
        polygon = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in corners]}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"field": [], "polygon": polygon, "lambda": {"periodic": [z2], "window": [0, 0, 1, 1]}}))
        for argv in (["verify", str(path)], ["render", str(path), "-o", str(tmp_path / "x.svg")]):
            start = time.perf_counter()
            self.fails(capsys, argv, "over the enumeration budget of 65536")
            assert time.perf_counter() - start < 1.0

    def test_builtin_name_not_a_string(self, capsys, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"lambda": {"builtin": [2, 3]}}))
        self.fails(capsys, ["verify", str(path)], "lambda.builtin")

    def test_render_windows(self, capsys, tmp_path):
        z2 = {"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}
        square = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]}
        path = tmp_path / "scene.json"
        svg = str(tmp_path / "x.svg")
        for window in [[1, 2], 5, [1, 2, 3, "x"]]:
            doc = {"field": [], "polygon": square, "lambda": {"periodic": [z2], "window": window}}
            path.write_text(json.dumps(doc))
            self.fails(capsys, ["render", str(path), "-o", svg], "lambda.window")
        for flag in ["--window=1,2", "--window=1,2,3,x"]:
            self.fails(capsys, ["render", str(path), "-o", svg, flag], "--window")

    def test_periodic_scene_window_checked_by_verify_and_render(self, capsys, tmp_path):
        # verify does not use a periodic scene's window, but the same file
        # must not pass verify and fail render
        z2 = {"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}
        square = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]}
        path = tmp_path / "scene.json"
        svg = str(tmp_path / "x.svg")
        for window in [5, [1, 2], [1, 2, 3, "x"], ["0", "0", "1/0", "1"]]:
            path.write_text(json.dumps({"field": [], "polygon": square, "lambda": {"periodic": [z2], "window": window}}))
            self.fails(capsys, ["verify", str(path)], "lambda.window")
            self.fails(capsys, ["render", str(path), "-o", svg], "lambda.window")
        path.write_text(json.dumps({"field": [], "polygon": square, "lambda": {"periodic": [z2]}}))
        code, plain = run(capsys, ["verify", str(path)])
        assert code == 0
        path.write_text(json.dumps({"field": [], "polygon": square, "lambda": {"periodic": [z2], "window": [0, 0, 2, 2]}}))
        assert run(capsys, ["verify", str(path)]) == (0, plain)
        assert main(["render", str(path), "-o", svg]) == 0

    def test_self_intersecting_vertices(self, capsys, tmp_path):
        # the bow-tie's two loops have opposite orientations, so its
        # covering counts would come out as -1 and 2
        z2 = {"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}
        bowtie = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 3), (1, 1), (0, 1)]]}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"field": [], "polygon": bowtie, "lambda": {"periodic": [z2]}}))
        self.fails(capsys, ["verify", str(path)], "polygon.vertices")
        self.fails(capsys, ["render", str(path), "-o", str(tmp_path / "x.svg"), "--window=0,0,2,2"], "polygon.vertices")

    def test_bad_radicand_text(self, capsys, tmp_path):
        for text in ["sqrt(x)", "2*sqrt(3)*sqrt(2)", "sqrt(2.5)", "sqrt()"]:
            self.fails(capsys, ["examples", "octagon-family", "--beta", text], "--beta")
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"lambda": {"builtin": "octagon-family", "beta": "sqrt(x)"}}))
        self.fails(capsys, ["verify", str(path)], "lambda.beta")

    def test_beta_errors_name_their_source_and_term(self, capsys, tmp_path):
        for text, named in [
            ("1/0", "bad term '1/0' in --beta: bad rational literal '1/0'"),
            ("sqrt(4)", "bad term 'sqrt(4)' in --beta: radicand 4 is not squarefree"),
            ("1 + sqrt(-2)", "bad term 'sqrt(-2)' in --beta: expected [c*]sqrt(n)"),
            ("1 - 2*sqrt(3)*5", "bad term '- 2*sqrt(3)*5' in --beta"),
            ("sqrt(2) + sqrt(3) + sqrt(5) + sqrt(7) + sqrt(11)", "--beta: at most 4 radicands supported, got 5"),
        ]:
            self.fails(capsys, ["examples", "octagon-family", f"--beta={text}"], named)
        path = tmp_path / "scene.json"
        zero_den = {"monomial": "1", "num": "1", "den": "0"}
        for beta, named in [
            ("1/0", "bad term '1/0' in lambda.beta: bad rational literal '1/0'"),
            ("sqrt(4)", "bad term 'sqrt(4)' in lambda.beta: radicand 4 is not squarefree"),
            ([zero_den], f"lambda.beta: term {zero_den!r} has a zero denominator"),
            ({"num": 1}, "lambda.beta: expected a rational number, got {'num': 1}"),
        ]:
            path.write_text(json.dumps({"lambda": {"builtin": "octagon-family", "beta": beta}}))
            self.fails(capsys, ["verify", str(path)], named)
        path.write_text(json.dumps({"field": [2], "lambda": {"builtin": "octagon-family", "beta": "sqrt(3)"}}))
        self.fails(capsys, ["verify", str(path)], "bad term 'sqrt(3)' in lambda.beta: sqrt(3) is not a basis monomial")

    def test_beta_text_with_an_empty_term_or_a_split_number(self, capsys, tmp_path):
        # these once read as 0, and "1 2" as 12
        for text, why in [("", "a term is empty"), (" ", "a term is empty"), ("+", "a term is empty"),
                          ("1 + - 2", "a term is empty"), ("sqrt(2) -", "a term is empty"),
                          ("1 2", "a space splits a number or a name")]:
            self.fails(capsys, ["examples", "octagon-family", f"--beta={text}"], f"bad text {text!r} in --beta: {why}")
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"lambda": {"builtin": "octagon-family", "beta": "1 2*sqrt(2)"}}))
        self.fails(capsys, ["verify", str(path)], "bad text '1 2*sqrt(2)' in lambda.beta: a space splits")

    def test_beta_texts_keep_their_values(self, capsys):
        for text, beta in [
            ("1/3", "1/3"),
            ("sqrt(2)", [{"den": "1", "monomial": "r2", "num": "1"}]),
            ("sqrt(2)+sqrt(3)", [{"den": "1", "monomial": "r2", "num": "1"}, {"den": "1", "monomial": "r3", "num": "1"}]),
            ("3 * sqrt(2)", [{"den": "1", "monomial": "r2", "num": "3"}]),
            ("1/2 + 3*sqrt(2) - sqrt(6)", [{"den": "2", "monomial": "1", "num": "1"},
                                           {"den": "1", "monomial": "r2", "num": "3"},
                                           {"den": "1", "monomial": "r6", "num": "-1"}]),
        ]:
            code, out = run(capsys, ["examples", "octagon-family", "--beta", text])
            assert code == 0 and json.loads(out)["lambda"]["beta"] == beta, (text, out)

    def test_periodic_parts_over_the_budget(self, capsys, tmp_path):
        # the part count is checked before any part is read: these parts are
        # not objects, and only a list within the budget gets to say so
        budget = jsonio.MAX_VECTORS
        square = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]}
        path = tmp_path / "scene.json"
        for entries, named in [
            (budget + 1, f"lambda.periodic has {budget + 1} parts, over the budget of {budget}"),
            (budget, "lambda.periodic[0] must be an object with a 'lattice'"),
        ]:
            path.write_text(json.dumps({"field": [], "polygon": square, "lambda": {"periodic": [None] * entries}}))
            self.fails(capsys, ["verify", str(path)], named)

    def test_parts_share_one_enumeration_budget(self, capsys, tmp_path):
        # the lattice octagon meets 64,516 candidates of (1/84)Z^2 a part,
        # within the budget; two copies of the part meet twice as many and
        # are refused before either is enumerated
        lattice = {"lattice": jsonio.encode_lattice(PlaneLattice(V(Fraction(1, 84), 0), V(0, Fraction(1, 84))))}
        octagon = [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]
        polygon = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in octagon]}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"field": [], "polygon": polygon, "lambda": {"periodic": [lattice]}}))
        assert run(capsys, ["verify", str(path)])[0] == 0
        path.write_text(json.dumps({"field": [], "polygon": polygon, "lambda": {"periodic": [lattice] * 2}}))
        start = time.perf_counter()
        self.fails(capsys, ["verify", str(path)],
                   "holds 129032 candidate lattice points, over the enumeration budget of 65536")
        assert time.perf_counter() - start < 1.0

    def test_dependent_radicands_read_in_the_field_they_span(self, capsys):
        for text, field, monomials in [
            ("sqrt(2) + sqrt(3) + sqrt(6)", [2, 3], {"r2": "1", "r3": "1", "r6": "1"}),
            ("sqrt(6) + sqrt(10) + sqrt(15)", [6, 10], {"r6": "1", "r10": "1", "r60": "1/2"}),
        ]:
            code, out = run(capsys, ["examples", "octagon-family", f"--beta={text}"])
            assert code == 0
            doc = json.loads(out)
            assert doc["field"] == field
            assert {t["monomial"]: str(Fraction(int(t["num"]), int(t["den"]))) for t in doc["lambda"]["beta"]} == monomials

    def test_empty_window_is_named(self, capsys):
        self.fails(capsys, ["examples", "tetromino-L1", "--window=0,0,0,0"], "--window: window is empty")

    def test_tetromino_beta_is_refused(self, capsys, tmp_path):
        # only octagon-family is offset by a beta; a tetromino refuses one
        # from the command line and from a scene document
        for name in ["tetromino-L1", "tetromino-L2", "tetromino-union"]:
            self.fails(capsys, ["examples", name, "--beta", "1/3"], f"--beta: {name} takes no beta")
            self.fails(capsys, ["examples", name, "--window=-2,-2,2,2", "--beta=sqrt(2)"], "--beta")
            path = tmp_path / "scene.json"
            path.write_text(json.dumps({"lambda": {"builtin": name, "beta": "1/3"}}))
            for argv in (["verify", str(path)], ["render", str(path), "-o", str(tmp_path / "x.svg"), "--window=0,0,1,1"]):
                self.fails(capsys, argv, f"lambda.beta: {name} takes no beta")

    def test_tetromino_window_over_the_budget_is_refused_when_built(self, capsys, tmp_path):
        # 257 x 256 integer points, one column over 2^16: every command
        # that reads the window refuses it before any point is listed
        self.fails(capsys, ["examples", "tetromino-union", "--window=0,0,256,255"],
                   "--window: the window holds 65792 candidate points, over the enumeration budget of 65536")
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"lambda": {"builtin": "tetromino-union", "window": [0, 0, 256, 255]}}))
        for argv in (["verify", str(path)], ["render", str(path), "-o", str(tmp_path / "x.svg")]):
            self.fails(capsys, argv, "lambda.window: the window holds 65792 candidate points")
        assert run(capsys, ["examples", "tetromino-union", "--window=0,0,255,255"])[0] == 0

    def test_tetromino_window_with_no_integer_row_lists_nothing_at_once(self, capsys, tmp_path):
        # 10^30 columns wide but no integer row: no point is listed, so
        # examples emits it, verify finds the window too small for the
        # tetromino, and render draws an empty box
        window = "0,1/5,1000000000000000000000000000000,1/2"
        path = tmp_path / "scene.json"
        start = time.perf_counter()
        code, out = run(capsys, ["examples", "tetromino-L1", f"--window={window}"])
        assert code == 0
        path.write_text(out)
        self.fails(capsys, ["verify", str(path)], "window is too small")
        code, _ = run(capsys, ["render", str(path), "-o", str(tmp_path / "x.svg"), "--window=0,0,1,1"])
        assert code == 0
        assert time.perf_counter() - start < 1.0

    def test_explicit_double_dash_values(self, capsys, tmp_path, monkeypatch):
        # argparse hands "--flag=--" over as an empty list before Python 3.13
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, ["examples", "octagon-family"])
        scene = tmp_path / "scene.json"
        scene.write_text(out)
        for argv, named in [
            (["examples", "octagon-family", "--beta=--"], "--beta"),
            (["examples", "octagon-family", "--window=--"], "--window"),
            (["render", str(scene), "-o=--", "--window=0,0,1,1"], "--output"),
            (["render", str(scene), "-o", str(tmp_path / "x.svg"), "--window=--"], "--window"),
        ]:
            self.fails(capsys, argv, f"zonotile: error: {named}: expected one argument")
        assert not (tmp_path / "x.svg").exists() and not (tmp_path / "--").exists()

    def test_explicit_double_dash_values_as_python_3_13_reads_them(self, capsys, tmp_path, monkeypatch):
        # argparse handed "--flag=--" over as [] before Python 3.13 and as "--"
        # from it; the reader hands it over as "--" and refuses it itself, so
        # the result is one on every Python, and only the last value counts
        assert not hasattr(cli, "argparse")
        self.test_explicit_double_dash_values(capsys, tmp_path, monkeypatch)
        for argv, code in [
            (["examples", "octagon-family", "--beta=--", "--beta", "1/3"], 0),
            (["examples", "octagon-family", "--beta", "1/3", "--beta=--"], 2),
            (["examples", "octagon-family", "--beta=--", "-h"], 0),
        ]:
            assert main(argv) == code, argv
        capsys.readouterr()

    def test_exponent_literals_refused_at_once(self, capsys):
        # 10**99999999 would take minutes to build and could not be written back
        for flag in ["--beta=1e99999999", "--window=0,0,1,1e99999999"]:
            start = time.perf_counter()
            self.fails(capsys, ["examples", "octagon-family", flag], "with no exponent")
            assert time.perf_counter() - start < 1.0

    def test_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"field": [], "note": "\xe9"}')
        self.fails(capsys, ["decide", str(path)], f"{path}: not UTF-8")

    @pytest.mark.parametrize("depth", [995, 200_000])
    def test_deeply_nested_json(self, capsys, tmp_path, octagon_file, depth):
        nested = "[" * depth + "]" * depth
        path = tmp_path / "deep.json"
        named = f"{path}: JSON nested too deeply"
        for text, argvs in [
            (f'{{"field": [], "generators": {nested}}}', [["decide", str(path)], ["canon", str(path)]]),
            (f'{{"field": [], "basis": {nested}}}', [["check", octagon_file, str(path)]]),
            (
                f'{{"field": [], "polygon": {{"vertices": {nested}}}, "lambda": {{"periodic": []}}}}',
                [["verify", str(path)], ["render", str(path), "-o", str(tmp_path / "x.svg"), "--window=0,0,1,1"]],
            ),
        ]:
            path.write_text(text)
            for argv in argvs:
                self.fails(capsys, argv, named)

    def test_nesting_budget(self, capsys, tmp_path):
        # MAX_JSON_DEPTH levels are read on every interpreter, and one more
        # is refused as too deep, whatever depth the interpreter could parse
        path = tmp_path / "deep.json"
        for lists, named in [
            (jsonio.MAX_JSON_DEPTH - 1, "generators[0] must be an object with 'x' and 'y'"),
            (jsonio.MAX_JSON_DEPTH, f"{path}: JSON nested too deeply"),
        ]:
            path.write_text('{"field": [], "generators": ' + "[" * lists + "]" * lists + "}")
            self.fails(capsys, ["decide", str(path)], named)

    def test_vector_lists_over_the_budget(self, capsys, tmp_path):
        # the length is checked before any entry is read: these entries are
        # no vectors, and only a list within the budget gets to say so
        budget = jsonio.MAX_VECTORS
        path, lattice = tmp_path / "long.json", tmp_path / "z2.json"
        lattice.write_text(jsonio.dumps(jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))))
        for entries, named in [
            (budget + 1, lambda where: f"{where} has {budget + 1} vectors, over the budget of {budget}"),
            (budget, lambda where: f"{where}[0] must be an object with 'x' and 'y'"),
        ]:
            for doc, argv, where in [
                ({"generators": [None] * entries}, ["decide", str(path)], "generators"),
                ({"vertices": [None] * entries}, ["canon", str(path)], "vertices"),
                ({"generators": [None] * entries}, ["check", str(path), str(lattice)], "generators"),
                ({"polygon": {"vertices": [None] * entries}, "lambda": {"periodic": []}}, ["verify", str(path)],
                 "polygon.vertices"),
            ]:
                path.write_text(json.dumps(dict(doc, field=[])))
                self.fails(capsys, argv, named(where))

    def test_integers_past_the_digit_limit_never_exit_3(self, capsys, tmp_path):
        # 2,200-digit integers are read (the limit on input is 4,300 digits),
        # and the lattices, areas and counts built from them have more
        rng = random.Random(2200)
        a, b, c = (rng.randrange(10**2199, 10**2200) for _ in range(3))

        def vec(x, y, den=1):
            term = lambda n: [{"monomial": "1", "num": str(n), "den": str(den)}] if n else []
            return {"x": term(x), "y": term(y)}

        files = {
            "poly": {"generators": [vec(a, 0), vec(c, b), vec(0, 1)]},
            "tiny": {"generators": [vec(1, 0, a), vec(1, 1, b), vec(0, 1, c)]},
            "lattice": {"basis": [vec(a, 0), vec(c, b)]},
            "square": {"polygon": {"vertices": [vec(0, 0), vec(a, 0), vec(a, b), vec(0, b)]},
                       "lambda": {"periodic": [{"lattice": {"basis": [vec(a, 0), vec(0, b)]}}], "window": [0, 0, 1, 1]}},
            "zonotope": {"polygon": {"generators": [vec(a, 0), vec(c, b), vec(0, 1)]},
                         "lambda": {"periodic": [{"lattice": {"basis": [vec(a, 0), vec(c, b)]}}], "window": [0, 0, 1, 1]}},
        }
        for name, doc in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(dict(doc, field=[])))
        path = lambda name: str(tmp_path / f"{name}.json")
        svg = str(tmp_path / "x.svg")
        for argv in [
            ["decide", path("poly")], ["canon", path("poly")], ["decide", path("tiny")], ["canon", path("tiny")],
            ["check", path("poly"), path("lattice")], ["check", path("tiny"), path("lattice")],
            ["verify", path("square")], ["verify", path("zonotope")],
            ["render", path("square"), "-o", svg], ["render", path("zonotope"), "-o", svg],
        ]:
            assert main(argv) in (0, 1, 2), argv
            assert "internal error" not in capsys.readouterr().err

    def test_render_writes_coordinates_past_the_digit_limit(self, capsys, tmp_path):
        # a 4,300-digit ordinate times the scale of 48 has 4,301 digits,
        # past what str() converts; the picture writes it in full
        big = 10**4299
        term = lambda n: [{"monomial": "1", "num": str(n), "den": "1"}] if n else []
        vec = lambda x, y: {"x": term(x), "y": term(y)}
        lattice = {"basis": [vec(1, 0), vec(0, big)]}
        scene = {"field": [], "polygon": {"generators": [vec(1, 0), vec(0, big)]},
                 "lambda": {"periodic": [{"lattice": lattice}], "window": [0, 0, 1, 1]}}
        path, svg = tmp_path / "scene.json", tmp_path / "x.svg"
        path.write_text(json.dumps(scene))
        assert main(["verify", str(path)]) == 0
        assert main(["render", str(path), "-o", str(svg)]) == 0
        assert capsys.readouterr().err == ""
        # the centred translate's outline runs from y = -10**4299 / 2 to
        # 10**4299 / 2, which SVG writes as 48 * (1 - y)
        text = svg.read_text()
        assert f",24{'0' * 4297}48.0000" in text and f",-23{'9' * 4297}52.0000" in text

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_huge_integers_and_deep_nesting_never_exit_3(self, data):
        # numerators and denominators up to the input limit of 4,300 digits,
        # and documents nested from just under to just over MAX_JSON_DEPTH;
        # 30 examples of five commands each take about 1 s on a 2-vCPU VM
        digits = data.draw(st.one_of(st.sampled_from([2200, 4299, 4300]), st.integers(1, 4300)))
        big = st.integers(10 ** (digits - 1), 10**digits - 1)
        coordinate = st.one_of(st.integers(-3, 3).map(Fraction), st.builds(
            Fraction, st.one_of(big, big.map(lambda n: -n), st.just(1)), st.one_of(big, st.just(1))))
        points = st.tuples(coordinate, coordinate)
        term = lambda c: [{"monomial": "1", "num": str(c.numerator), "den": str(c.denominator)}] if c else []
        vec = lambda p: {"x": term(p[0]), "y": term(p[1])}
        # generators turned into the upper half-plane and sorted by argument,
        # so that most documents are zonotopes and reach the kernel
        upper = lambda p: (-p[0], -p[1]) if p[1] < 0 or (p[1] == 0 and p[0] < 0) else p
        after = lambda p, q: 1 if p[0] * q[1] - p[1] * q[0] <= 0 else -1
        drawn = {upper(p) for p in data.draw(st.lists(points, min_size=2, max_size=4)) if p != (0, 0)}
        generators = [vec(p) for p in sorted(drawn, key=functools.cmp_to_key(after))]
        basis = [vec(data.draw(points)), vec(data.draw(points))]
        scene = {"polygon": {"generators": generators}, "lambda": {"periodic": [{"lattice": {"basis": basis}}],
                                                                   "window": [0, 0, 1, 1]}}
        docs = {"poly": {"generators": generators}, "lattice": {"basis": basis}, "scene": scene}
        if data.draw(st.booleans()):  # the vector lists nested to a drawn depth in all
            depth = data.draw(st.integers(jsonio.MAX_JSON_DEPTH - 2, jsonio.MAX_JSON_DEPTH + 2))
            nest = lambda value, levels: nest([value], levels - 1) if levels else value
            docs["poly"]["generators"] = nest(generators, depth - 5)  # object, list, vector, element, term
            docs["lattice"]["basis"] = nest(basis, depth - 5)
            scene["polygon"] = {"generators": nest(generators, depth - 6)}
        with tempfile.TemporaryDirectory() as work:
            path = {name: str(Path(work, f"{name}.json")) for name in docs}
            for name, doc in docs.items():
                Path(path[name]).write_text(json.dumps(dict(doc, field=[])))
            for argv in [["decide", path["poly"]], ["canon", path["poly"]], ["check", path["poly"], path["lattice"]],
                         ["verify", path["scene"]], ["render", path["scene"], "-o", str(Path(work, "x.svg"))]]:
                code, err = _errors(argv)
                assert code in (0, 1, 2) and "internal error" not in err, (argv, err)

    def test_element_errors_name_their_location_in_a_polygon(self, capsys, tmp_path):
        one = [{"monomial": "1", "num": "1", "den": "1"}]
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"field": [], "generators": [{"x": "1", "y": []}, {"x": [], "y": one}]}))
        self.fails(capsys, ["decide", str(path)], "error: generators[0].x: element must be a list of terms, got '1'")
        zero_den = {"monomial": "1", "num": "1", "den": "0"}
        square = [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]
        square[2] = {"x": one, "y": [zero_den]}
        path.write_text(json.dumps({"field": [], "vertices": square}))
        self.fails(capsys, ["decide", str(path)], f"error: vertices[2].y: term {zero_den!r} has a zero denominator")

    def test_element_errors_name_their_location_in_a_lattice(self, capsys, tmp_path, octagon_file):
        one = [{"monomial": "1", "num": "1", "den": "1"}]
        bad = {"monomial": "1", "num": "٣", "den": "1"}
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"field": [], "basis": [{"x": one, "y": []}, {"x": [bad], "y": one}]}))
        named = f"error: basis[1].x: term {bad!r} needs an integer or integer string as 'num'"
        self.fails(capsys, ["check", octagon_file, str(path)], named)

    def test_element_errors_name_their_location_in_a_scene(self, capsys, tmp_path):
        z2 = {"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}
        square = [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]
        bad = {"monomial": "r5", "num": "1", "den": "1"}
        unknown = f"term {bad!r}: monomial 'r5' does not exist in field []"
        path = tmp_path / "scene.json"
        for polygon, lam, where in [
            ({"vertices": square}, {"periodic": [z2, {**z2, "offset": {"x": [], "y": [bad]}}]}, "lambda.periodic[1].offset.y"),
            (
                {"vertices": square},
                {"periodic": [{"lattice": {"basis": [square[1], {"x": [bad], "y": []}]}}]},
                "lambda.periodic[0].lattice.basis[1].x",
            ),
            ({"vertices": [*square[:3], {"x": [bad], "y": []}]}, {"periodic": [z2]}, "polygon.vertices[3].x"),
            ({"generators": [square[1], {"x": [], "y": [bad]}]}, {"periodic": [z2]}, "polygon.generators[1].y"),
        ]:
            path.write_text(json.dumps({"field": [], "polygon": polygon, "lambda": lam}))
            self.fails(capsys, ["verify", str(path)], f"error: {where}: {unknown}")
            self.fails(capsys, ["render", str(path), "-o", str(tmp_path / "x.svg"), "--window=0,0,1,1"], where)

    @pytest.fixture
    def long_integer_doc(self, tmp_path):
        """A two-generator document whose first x numerator has 5000 digits,
        over the interpreter's default limit of 4300 on converting integer
        text, with that limit in force."""
        one = [{"monomial": "1", "num": "1", "den": "1"}]
        digits = "1" * 5000
        doc = {"field": [], "generators": [{"x": [{"monomial": "1", "num": digits, "den": "1"}], "y": []}, {"x": [], "y": one}]}
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield tmp_path / "poly.json", json.dumps(doc), digits
        sys.set_int_max_str_digits(limit)

    def test_integer_string_over_the_digit_limit(self, capsys, long_integer_doc):
        path, text, _ = long_integer_doc
        path.write_text(text)
        self.fails(capsys, ["decide", str(path)], "term '1': 'num' has 5000 digits, over the limit of 4300")

    def test_bare_integer_over_the_digit_limit(self, capsys, long_integer_doc):
        path, text, digits = long_integer_doc
        path.write_text(text.replace(f'"{digits}"', digits))
        self.fails(capsys, ["decide", str(path)], f"{path}: a JSON number is too long")


def _vertices(*points):
    return [jsonio.encode_vector(V(x, y)) for x, y in points]


def _square_lattice_scene(polygon):
    return {"field": [], "polygon": polygon, "lambda": {"periodic": [{"lattice": {"basis": _vertices((1, 0), (0, 1))}}]}}


_CLOCKWISE_REPEAT_AT_0 = _vertices((0, 0), (0, 0), (0, 1), (1, 1), (1, 1), (1, 0))
_CLOCKWISE_REPEAT_AT_1 = _vertices((0, 1), (1, 1), (1, 1), (1, 0), (0, 0), (0, 0))
# centrally symmetric and turning left at every vertex, but wound three times
_OCTAGRAM = _vertices((1, 0), (3, 2), (0, 2), (2, 0), (2, 3), (0, 1), (3, 1), (1, 3))


class TestShapeErrors:
    """Documents of the right form whose shape is wrong exit 2 and say what is wrong."""

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("decide", [], "top-level JSON value must be an object"),
            (
                "verify",
                {"field": [], "polygon": {"vertices": _vertices((0, 0), (1, 0))},
                 "lambda": {"periodic": [{"lattice": {"basis": _vertices((1, 0), (0, 1))}}]}},
                "a polygon needs at least 3 vertices",
            ),
            ("decide", {"field": [], "vertices": _vertices((-1, 0), (0, 0), (1, 0), (0, 0))}, "degenerate vertex list"),
            (
                "decide",
                {"field": [], "vertices": _vertices((0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1))},
                "repeated vertex at position 0",
            ),
            (
                "decide",
                {"field": [], "vertices": _vertices((0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 1))},
                "repeated vertex at position 1",
            ),
            ("decide", {"field": [], "generators": _vertices((1, 0), (0, 0))}, "generator 2 is zero"),
            (
                "decide",
                {"field": [], "generators": _vertices((0, 1), (1, 0))},
                "generators 1 and 2 are not in strictly increasing argument order",
            ),
            ("decide", {"field": [], "generators": _vertices((1, 0))}, "a zonotope needs at least 2 generators"),
            ("verify", _square_lattice_scene({"generators": _vertices((1, 0))}), "a zonotope needs at least 2 generators"),
            # clockwise lists: a repeat is named at its position as given
            ("decide", {"field": [], "vertices": _CLOCKWISE_REPEAT_AT_0}, "repeated vertex at position 0"),
            ("verify", _square_lattice_scene({"vertices": _CLOCKWISE_REPEAT_AT_0}), "repeated vertex at position 0"),
            ("decide", {"field": [], "vertices": _CLOCKWISE_REPEAT_AT_1}, "repeated vertex at position 1"),
            ("verify", _square_lattice_scene({"vertices": _CLOCKWISE_REPEAT_AT_1}), "repeated vertex at position 1"),
            ("decide", {"field": [], "vertices": _OCTAGRAM}, "vertex list is not strictly convex"),
        ],
    )
    def test_exits_2_with_its_message(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        # a shape error names the list it was read from
        if isinstance(doc, dict):
            shape, where = (doc["polygon"], "polygon.") if "polygon" in doc else (doc, "")
            message = f"error: {where}{'vertices' if 'vertices' in shape else 'generators'}: {message}"
        assert message in err and "Traceback" not in err

    def test_a_polygon_with_neither_list(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_square_lattice_scene({})))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "zonotile: error: scene polygon needs 'vertices' or 'generators'\n"


class TestInternalError:
    def test_bug_exits_3_without_traceback(self, capsys, octagon_file, monkeypatch):
        def broken(_):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "decide_multitiling", broken)
        assert main(["decide", octagon_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "zonotile: internal error: KeyError: 'lost'\n"

    def test_failed_witness_exits_3(self, capsys, octagon_file, monkeypatch):
        # decide re-verifies every witness it builds; one that fails is a
        # bug, not malformed input
        def failing(p, lat):
            return criteria.BolleReport((), False, None)

        monkeypatch.setattr(criteria, "bolle_check", failing)
        assert main(["decide", octagon_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "zonotile: internal error: InternalError: "
            "internal: constructed witness fails the edge-pair criterion\n"
        )

    def test_impossible_multiplicity_exits_3(self, capsys, octagon_file, monkeypatch):
        # by Bolle's theorem a passing lattice has area/det a positive
        # integer; any other value is a bug, not malformed input
        monkeypatch.setattr(criteria, "_multiplicity", lambda p, lat, coords, k: Fraction(7, 2))
        assert main(["decide", octagon_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "zonotile: internal error: InternalError: "
            "internal: a lattice passing the edge-pair criterion has area/det 7/2\n"
        )

    def test_unconverged_sign_exits_3(self, capsys, irrational_pentagon_file, monkeypatch):
        # an enclosure that holds zero never decides a sign, so every
        # irrational sign falls to the exact norm recursion, which alone
        # reproduces the verdict; no sign can fail to converge and exit 3
        expected = run(capsys, ["decide", irrational_pentagon_file])
        calls = []

        def undecided(nums, roots):
            calls.append(nums)
            return 0, 0

        monkeypatch.setattr("zonotile.field._enclosure", undecided)
        assert main(["decide", irrational_pentagon_file]) == expected[0] == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected[1], "")
        assert calls

    def test_density_mismatch_exits_3(self, capsys, tmp_path, monkeypatch):
        code, out = run(capsys, ["examples", "octagon-family", "--beta", "1/3"])
        assert code == 0
        scene = tmp_path / "scene.json"
        scene.write_text(out)
        assert run(capsys, ["verify", str(scene)])[0] == 0
        faces = covering.arrangement_faces

        def one_more(*args):
            # still constant, but one more than area / det per part allows
            return [Face(f.x0, f.x1, f.lower, f.upper, f.count + 1) for f in faces(*args)]

        monkeypatch.setattr(covering, "arrangement_faces", one_more)
        assert main(["verify", str(scene)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "zonotile: internal error: InternalError: "
            "internal: the faces count 8 but the density count is 7\n"
        )

    def test_no_faces_exits_3(self, capsys, tmp_path, monkeypatch):
        # every verification region has positive area, so a sweep that
        # returns no face is a bug in the program, not bad input
        code, out = run(capsys, ["examples", "octagon-family", "--beta", "1/3"])
        assert code == 0
        scene = tmp_path / "scene.json"
        scene.write_text(out)
        monkeypatch.setattr(covering, "arrangement_faces", lambda *args: [])
        assert main(["verify", str(scene)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("zonotile: internal error: ValueError: ")


_NUMBERS = st.one_of(
    st.integers(-4, 4).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-1, 9)),
    st.sampled_from(["0.5", "-1.25", ".5", "1e3", "1_0", "", " "]),
)
# short texts of the characters flags are made of; at most two digits keep
# every window that parses small enough to render at once
_JUNK = st.text(alphabet="0123456789/+-*.,() eqrst", max_size=2)


@st.composite
def _beta_texts(draw):
    terms = st.one_of(
        _NUMBERS,
        st.builds("{}*sqrt({})".format, _NUMBERS, st.integers(-2, 40)),
        st.builds("sqrt({})".format, st.integers(-2, 40)),
        _JUNK,
    )
    parts = draw(st.lists(st.tuples(st.sampled_from(["+", "-", " + ", " - ", ""]), terms), max_size=5))
    return "".join(sign + term for sign, term in parts)


class TestFlagTexts:
    """``render --window`` and ``examples --beta`` on any flag text exit 0
    or 2, never 3, write no traceback, and name the flag in every error."""

    def exits_0_or_2(self, argv, flag):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err and "internal error" not in err, err
        assert code == 0 or flag in err, err

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.lists(st.one_of(_NUMBERS, _JUNK), max_size=5).map(",".join), st.text(max_size=10)))
    @example("--")
    def test_render_window(self, text):
        z2 = {"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}
        square = {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]}
        with tempfile.TemporaryDirectory() as work:
            scene = Path(work, "scene.json")
            scene.write_text(json.dumps({"field": [], "polygon": square, "lambda": {"periodic": [z2]}}))
            self.exits_0_or_2(["render", str(scene), "-o", str(Path(work, "out.svg")), f"--window={text}"], "--window")

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_beta_texts(), st.text(max_size=10)))
    @example("--")
    def test_examples_beta(self, text):
        self.exits_0_or_2(["examples", "octagon-family", f"--beta={text}"], "--beta")


# decimal digits outside ASCII, which str.isdecimal, int and Fraction all read
_FOREIGN_DIGITS = st.characters(whitelist_categories=["Nd"]).filter(lambda c: not c.isascii())
_RATIONAL_TEXTS = st.one_of(
    st.integers(-9, 9).map(str), st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9))
)


def _errors(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _with_digit(data, text: str) -> str:
    """text with a non-ASCII digit drawn into it at a drawn position."""
    i = data.draw(st.integers(0, len(text)))
    return text[:i] + data.draw(_FOREIGN_DIGITS) + text[i:]


class TestAsciiDigits:
    """Flags and scene values read numbers in ASCII digits only: a text
    with any other digit exits 2 with a message that names it."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_window_flag(self, data):
        values = data.draw(st.lists(_RATIONAL_TEXTS, min_size=4, max_size=4))
        k = data.draw(st.integers(0, 3))
        values[k] = _with_digit(data, values[k])
        text = ",".join(values)
        for argv in (["examples", "octagon-family"], ["render", "scene.json", "-o", "out.svg"]):
            # the flag is read before any file
            code, err = _errors([*argv, f"--window={text}"])
            assert code == 2 and f"--window: bad rational literal {values[k]!r}" in err, err

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_beta_flag(self, data):
        text = _with_digit(data, data.draw(_beta_texts()))
        code, err = _errors(["examples", "octagon-family", f"--beta={text}"])
        assert code == 2 and f"bad text {text!r} in --beta" in err, err

    @pytest.mark.parametrize("beta, message", [
        ("sqrt(\u0663)", "bad text 'sqrt(\u0663)' in lambda.beta"),
        ("\u0661/\u0662", "bad text '\u0661/\u0662' in lambda.beta: write it with ASCII digits"),
        ("\uff11", "bad text '\uff11' in lambda.beta: write it with ASCII digits"),
    ])
    def test_scene_beta(self, tmp_path, beta, message):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"lambda": {"builtin": "octagon-family", "beta": beta}}))
        for argv in (["verify", str(scene)], ["render", str(scene), "-o", str(tmp_path / "out.svg"), "--window=0,0,1,1"]):
            code, err = _errors(argv)
            assert code == 2 and message in err, err

    def test_scene_window(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"lambda": {"builtin": "tetromino-union", "window": ["-4", "-4", "\u0664", "4"]}}))
        for argv in (["verify", str(scene)], ["render", str(scene), "-o", str(tmp_path / "out.svg")]):
            code, err = _errors(argv)
            assert code == 2 and "lambda.window: bad rational literal '\u0664'" in err, err


@functools.cache
def _mutation_cases():
    """(command, input documents) for every command that reads documents:
    a zonotope over Q(sqrt2, sqrt3), a lattice over Q(sqrt3) that ``check``
    widens to the zonotope's field, an explicit scene and the builtin
    scenes."""
    f3 = Field([3])
    r2 = F23.sqrt(2)
    zonotope = jsonio.encode_zonotope(Zonotope([V(r2, 0, F23), V(r2, 1, F23), V(0, 1, F23), V(-r2, 1, F23)]))
    lattice = {"field": [3], **jsonio.encode_lattice(PlaneLattice(V(1, 0, f3), V(0, f3.sqrt(3), f3)))}
    z2 = jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))
    explicit = {
        "field": [],
        "polygon": {"generators": [jsonio.encode_vector(V(x, y)) for x, y in [(1, 0), (1, 1), (0, 1), (-1, 1)]]},
        "lambda": {
            "window": ["-2", "-2", "2", "2"],
            "periodic": [{"lattice": z2}, {"lattice": z2, "offset": jsonio.encode_vector(V(Fraction(1, 3), 1))}],
        },
    }
    beta = F2.sqrt(2) + Fraction(1, 3)
    builtins = [
        jsonio.encode_scene_builtin(name, (-3, -3, 3, 3), beta if name == "octagon-family" else None)
        for name in BUILTIN_NAMES
    ]
    cases = [("decide", (zonotope,)), ("canon", (zonotope,)), ("check", (zonotope, lattice))]
    return cases + [(command, (scene,)) for scene in [explicit, *builtins] for command in ("verify", "render")]


class TestMutatedCommands:
    """The CLI on mutants (``json_mutant``) of valid documents exits 0, 1
    or 2, writes no traceback and no internal error, and exits 1 only with
    a JSON verdict on stdout."""

    VERDICT = {"decide": "multi_tiles", "canon": "multi_tiles", "check": "verdict", "verify": "constant"}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exit_codes(self, data):
        command, docs = data.draw(st.sampled_from(_mutation_cases()))
        docs = list(docs)
        i = data.draw(st.integers(0, len(docs) - 1))
        docs[i] = json_mutant(data.draw(st.randoms(use_true_random=False)), docs[i])
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as work:
            argv = [command]
            for k, doc in enumerate(docs):
                path = Path(work, f"{k}.json")
                path.write_text(json.dumps(doc))
                argv.append(str(path))
            if command == "render":
                argv += ["-o", str(Path(work, "out.svg"))]
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2), err
        assert "Traceback" not in err and "internal error" not in err, err
        if code == 1:
            verdict = json.loads(out.getvalue())[self.VERDICT[command]]
            # canon exits 1 on a tiling parallelogram too: it has no canonical lattice
            assert verdict is False or (command == "canon" and verdict is True)
