"""Command-line front end.

Exit codes follow one convention everywhere: 0 for a positive verdict,
1 for a negative one, 2 for input or usage errors, 3 for an internal
error (a bug), reported on stderr without a traceback.  All reports are
canonical JSON on stdout, so identical inputs produce byte-identical
output.

The command line is read by ``_read`` from one table, ``_COMMANDS``, in
one walk of argv (its grammar is in ``_read``).  A usage error prints the
command's usage line and ``zonotile <cmd>: error: ...`` on stderr and
exits 2; ``-h`` prints help on stdout and exits 0.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from . import jsonio
from .criteria import bolle_check, canonical_lattice, decide_multitiling
from .errors import GeometryError, ZonotileError
from .lattice import PlaneLattice, PlaneVector
from .patterns import BUILTIN_NAMES, builtin_scene

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
    poly, tset, _ = jsonio.decode_scene_document(jsonio.load_document(args.scene))
    if tset.is_periodic:
        report = verify_covering(poly, tset)
    else:  # on a windowed scene every geometry error the verifier raises comes from the window
        report = jsonio.located("lambda.window", verify_covering, poly, tset)
    _emit(jsonio.encode_verify_report(report, poly.field))
    return 0 if report.constant else 1


def _cmd_render(args) -> int:
    from .render import render_svg
    window = _parse_window_flag(args.window) if args.window is not None else None  # flag errors first
    poly, tset, scene_window = jsonio.decode_scene_document(jsonio.load_document(args.scene))
    where = "--window" if window is not None else "lambda.window"
    window = scene_window if window is None else window
    if window is None:
        raise GeometryError("render needs a window (--window or the scene's lambda.window)")
    # refused when the window is empty, or its box is over the enumeration budget
    svg = jsonio.located(where, render_svg, poly, tset, window)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _cmd_examples(args) -> int:
    window = _parse_window_flag(args.window) if args.window is not None else None
    beta = jsonio.parse_element_text(args.beta, where="--beta") if args.beta is not None else None
    builtin_scene(args.name, window, beta, where=("--window", "--beta"))  # validate before emitting
    _emit(jsonio.encode_scene_builtin(args.name, window, beta))
    return 0


# an option is (dest, metavar, required); every command's flag map also holds
# -h/--help, and "--", which ends the options
_HELP, _END = object(), object()
_OUTPUT = ("output", "FILE", True)
_WINDOW = ("window", "X0,Y0,X1,Y1", False)

# each command: its function, its one-line help, its positionals, its options by
# flag and the choices of those positionals that have them
_COMMANDS = {
    "decide": (_cmd_decide, "decide whether a zonotope admits translational multi-tilings", ("polygon",), {}, {}),
    "check": (_cmd_check, "check one lattice against the per-edge-pair criterion", ("polygon", "lattice"), {}, {}),
    "canon": (_cmd_canon, "compute the canonical lattice of a multi-tiling zonotope", ("polygon",), {}, {}),
    "verify": (_cmd_verify, "verify covering constancy of a scene", ("scene",), {}, {}),
    "render": (_cmd_render, "render a scene to SVG, faces filled by multiplicity", ("scene",),
               {"-o": _OUTPUT, "--output": _OUTPUT, "--window": _WINDOW}, {}),
    "examples": (_cmd_examples, "emit a builtin scene as JSON; --beta offsets octagon-family, e.g. 1/3 or sqrt(2)",
                 ("name",), {"--window": _WINDOW, "--beta": ("beta", "BETA", False)}, {"name": BUILTIN_NAMES}),
}

# the command line whose first argument names no command: it reads as help or
# is refused, since a command named later follows an unknown flag
_TOP = (None, "Exact multi-tiling decisions and covering verification for planar zonotopes.",
        ("command",), {}, {"command": tuple(_COMMANDS)})

_FLAGS = {name: {"-h": _HELP, "--help": _HELP, "--": _END, **spec[3]} for name, spec in _COMMANDS.items()}
_FLAGS[None] = {"-h": _HELP, "--help": _HELP}

# a dash token that reads as a number is a positional, as argparse reads it
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Usage(Exception):
    """A command line that does not read: exit 2 after the command's usage line."""

    def __init__(self, command, message: str):
        super().__init__(message)
        self.command = command


def _read(argv):
    """The arguments of one command line, for ``args.fn(args)``.

    argv is walked once, each token looked up in its command's flag map.
    Options may come before, between or after positionals, as ``--flag
    value``, ``--flag=value``, ``-o value``, ``-oVALUE`` or ``-o=VALUE``;
    a long flag may be shortened to a unique prefix; a repeated option
    keeps its last value; ``--`` ends the options; ``-h`` or ``--help``
    anywhere reads as help.  A flag takes the next token as its value
    unless that token is ``--`` or starts with ``--``, so ``--beta -1/3``
    reads.  Raises _Usage, or ZonotileError for a value of exactly ``--``
    (``--beta=--``)."""
    name = argv[0] if argv else None
    if name in _COMMANDS:
        fn, _, positionals, options, choices = _COMMANDS[name]
        argv = argv[1:]
    else:
        fn, _, positionals, options, choices = _TOP
        name = None
    flags = _FLAGS[name]
    values = {dest: None for dest, _, _ in options.values()}
    given = 0
    extras = []
    ended = False
    tokens = iter(argv)
    for token in tokens:
        option = None if ended else flags.get(token)
        value = None
        if option is None and not ended and token[:1] == "-" and token != "-":
            option, value = _attached(name, flags, token)
            if option is None and " " not in token and not _NEGATIVE_NUMBER.match(token):
                extras.append(token)
                continue
        if option is None:
            if given == len(positionals):
                extras.append(token)
                continue
            positional = positionals[given]
            allowed = choices.get(positional)
            if allowed is not None and token not in allowed:
                raise _Usage(name, f"argument {positional}: invalid choice: {token!r} "
                                   f"(choose from {', '.join(map(repr, allowed))})")
            values[positional] = token
            given += 1
        elif option is _END:
            ended = True
        elif option is _HELP:
            if value is not None:
                raise _Usage(name, f"argument -h/--help: ignored explicit argument {value!r}")
            return SimpleNamespace(fn=_help, command=name)
        else:
            if value is None:
                value = next(tokens, "--")  # no token left reads as "--"
                if value.startswith("--"):
                    raise _Usage(name, f"argument {_flag_names(options, option)}: expected one argument")
            values[option[0]] = value
    missing = list(positionals[given:])
    missing += [_flag_names(options, option) for option in dict.fromkeys(options.values())
                if option[2] and values[option[0]] is None]
    if missing:
        raise _Usage(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _Usage(name, f"unrecognized arguments: {' '.join(extras)}")
    for dest, _, _ in options.values():
        if values[dest] == "--":  # --flag=--: no value is "--", while a file may be named so
            raise ZonotileError(f"--{dest}: expected one argument")
    return SimpleNamespace(fn=fn, **values)


def _attached(name, flags, token: str):
    """The option a dash token names other than exactly, and the value it
    carries (None if it has none): ``--flag=value``, ``-o=VALUE``,
    ``-oVALUE``, or a unique prefix of a long flag, with or without
    ``=value``.  (None, None) if it names no option."""
    head, eq, value = token.partition("=")
    if head == "--":  # "--" where it ends no options, or "--=value"
        return None, None
    if not eq:
        value = None
    if eq and head in flags:
        return flags[head], value
    if head[:2] != "--":
        return flags.get(token[:2]), token[2:]
    matches = [flag for flag in flags if flag.startswith(head)]
    if len(matches) > 1:
        raise _Usage(name, f"ambiguous option: {token} could match {', '.join(matches)}")
    return (flags[matches[0]], value) if matches else (None, None)


def _flag_names(options, option) -> str:
    return "/".join(flag for flag, o in options.items() if o is option)


def _usage(name) -> str:
    _, _, positionals, options, choices = _COMMANDS[name] if name else _TOP
    words = ["usage: zonotile" if name is None else f"usage: zonotile {name}", "[-h]"]
    for option in dict.fromkeys(options.values()):
        _, metavar, required = option
        flag = next(flag for flag in options if options[flag] is option)
        words.append(f"{flag} {metavar}" if required else f"[{flag} {metavar}]")
    words += ("{" + ",".join(choices[p]) + "}" if p in choices else p for p in positionals)
    return " ".join(words)


def _help(args) -> int:
    summary = (_COMMANDS[args.command] if args.command else _TOP)[1]
    lines = [_usage(args.command), "", summary]
    if args.command is None:
        lines += ["", "commands:", *(f"  {name:<9} {spec[1]}" for name, spec in _COMMANDS.items())]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = _read(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except _Usage as exc:
        prog = "zonotile" if exc.command is None else f"zonotile {exc.command}"
        sys.stderr.write(f"{_usage(exc.command)}\n{prog}: error: {exc}\n")
        return 2
    except (ZonotileError, OSError) as exc:
        print(f"zonotile: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: keep exit 1 for negative verdicts
        print(f"zonotile: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
