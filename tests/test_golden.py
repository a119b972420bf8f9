"""Golden bytes: sha256 of ``verify`` stdout and ``render`` SVG output.

The scenes are the builtins the benchmark's ``scenes`` workload runs,
written the same way (``examples`` output), so any byte drift in the
verifier's report or the picture fails here and not only in the bench.
"""

import hashlib

import pytest

from zonotile.cli import main

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
    # irrational coordinates: emitted through the 30-bit enclosure
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
