"""Command-line front end.

Exit codes follow one convention everywhere: 0 for a positive verdict,
1 for a negative one, 2 for input or usage errors, 3 for an internal
error (a bug), reported on stderr without a traceback.  All reports are
canonical JSON on stdout, so identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import jsonio
from .criteria import bolle_check, canonical_lattice, decide_multitiling
from .errors import GeometryError, ZonotileError
from .field import FieldElement
from .lattice import PlaneLattice, PlaneVector
from .patterns import BUILTIN_NAMES

# verify and render import the covering layer where they run, and scene
# documents are decoded by a function that imports it, so decide, check and
# canon load only the decision layer


def _parse_window_flag(text: str):
    return jsonio.decode_window([p.strip() for p in text.split(",")], "--window")


def _emit(doc) -> None:
    sys.stdout.write(jsonio.dumps(doc))


def _cmd_decide(args) -> int:
    z = jsonio.decode_zonotope_document(jsonio.load_document(args.polygon))
    decision = decide_multitiling(z)
    _emit(jsonio.encode_decision(decision, z.field))
    return 0 if decision.multi_tiles else 1


def _cmd_check(args) -> int:
    poly_doc = jsonio.load_document(args.polygon)
    lat_doc = jsonio.load_document(args.lattice)
    lat = jsonio.decode_lattice_document(lat_doc)
    z = jsonio.decode_zonotope_document(poly_doc, field=lat.field)
    if z.field is not lat.field:
        embed = z.field.embed
        lat = PlaneLattice(*(PlaneVector(embed(v.x), embed(v.y)) for v in lat.basis()))
    report = bolle_check(z, lat)
    _emit(jsonio.encode_bolle_report(report, z.field))
    return 0 if report.verdict else 1


def _cmd_canon(args) -> int:
    z = jsonio.decode_zonotope_document(jsonio.load_document(args.polygon))
    decision = decide_multitiling(z)
    if decision.branch == "parallelogram" or not decision.multi_tiles:
        _emit(jsonio.encode_decision(decision, z.field))
        return 1
    _emit(jsonio.encode_canonical_lattice(canonical_lattice(decision), z.field))
    return 0


def _cmd_verify(args) -> int:
    from .covering import verify_covering
    poly, tset = jsonio.decode_scene_document(jsonio.load_document(args.scene))
    report = verify_covering(poly, tset)
    _emit(jsonio.encode_verify_report(report, poly.field))
    return 0 if report.constant else 1


def _cmd_render(args) -> int:
    from .covering import Box
    from .render import render_svg
    window = _parse_window_flag(args.window) if args.window is not None else None  # flag errors first
    doc = jsonio.load_document(args.scene)
    poly, tset = jsonio.decode_scene_document(doc)
    where = "--window" if window is not None else "lambda.window"
    if window is None and "window" in doc["lambda"]:
        window = jsonio.decode_window(doc["lambda"]["window"], where)
    if window is None:
        raise GeometryError("render needs a window (--window or the scene's lambda.window)")
    try:
        svg = render_svg(poly, tset, Box(*(poly.field.rational(w) for w in window)))
    except GeometryError as exc:  # the window is empty, or its box is over the enumeration budget
        raise GeometryError(f"{where}: {exc}") from None
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _cmd_examples(args) -> int:
    window = _parse_window_flag(args.window) if args.window is not None else None
    beta = None
    if args.beta is not None:
        beta = jsonio.parse_element_text(args.beta, where="--beta")
        if isinstance(beta, FieldElement) and beta.is_rational():
            beta = beta.rational_value()
    doc = jsonio.encode_scene_builtin(args.name, window, beta)
    try:  # build once to validate the combination before emitting
        jsonio.decode_scene_document(doc)
    except GeometryError as exc:  # the builtin refuses the window, as empty say
        raise exc if window is None else GeometryError(f"--window: {exc}") from None
    _emit(doc)
    return 0


# the commands' options, by dest: argparse reads --flag=-- as [] before Python
# 3.13 and as "--" from it, while a positional (a file) may be named "--"
_OPTIONS = ("output", "window", "beta")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and its command parsers by name."""
    parser = argparse.ArgumentParser(
        prog="zonotile",
        description="Exact multi-tiling decisions and covering verification for planar zonotopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide whether a zonotope admits translational multi-tilings")
    p.add_argument("polygon", help="zonotope JSON file (generators or vertices)")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("check", help="check one lattice against the per-edge-pair criterion")
    p.add_argument("polygon")
    p.add_argument("lattice", help="lattice JSON file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("canon", help="compute the canonical lattice of a multi-tiling zonotope")
    p.add_argument("polygon")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("verify", help="verify covering constancy of a scene")
    p.add_argument("scene", help="scene JSON file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="render a scene to SVG, faces filled by multiplicity")
    p.add_argument("scene")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--window", help="x0,y0,x1,y1 (rationals)")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("examples", help="emit a builtin scene as JSON")
    p.add_argument("name", choices=list(BUILTIN_NAMES))
    p.add_argument("--window", help="x0,y0,x1,y1 (rationals)")
    p.add_argument("--beta", help="offset for octagon-family, e.g. '1/3' or 'sqrt(2)'")
    p.set_defaults(fn=_cmd_examples)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    if argv and argv[0] in commands:  # a command's own parser reads its arguments once
        parser, argv = commands[argv[0]], argv[1:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    missing = [name for name in _OPTIONS if vars(args).get(name) in ([], "--")]
    try:
        if missing:
            raise GeometryError(f"--{missing[0]}: expected one argument")
        return args.fn(args)
    except (ZonotileError, OSError) as exc:
        print(f"zonotile: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: keep exit 1 for negative verdicts
        print(f"zonotile: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
