"""Per-layer tracing for the zonotile benchmark, from outside the program.

The tracer replaces public names of the program with timing wrappers for
the length of one traced pass and restores them afterwards.  Nothing under
``src/`` knows about it.

* Layer calls above ``field`` (the names in ``SPANS``) record a span: id,
  name, start, end and parent span id.
* ``FieldElement`` and ``Field`` methods are far too many to keep as spans,
  so each call only adds its count and self time to the totals of the
  enclosing span.
* Self time is a call's duration minus the durations of the wrapped calls
  made inside it, so the self times of one root call sum to its duration.

A function is replaced in every ``zonotile`` module namespace that binds it
(``criteria`` imports ``integer_span`` by name, ``cli`` imports
``verify_covering``), and a method is replaced on its class.  Private
names are never wrapped: their time is the self time of the public caller.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, name, span name).  "Class.method" wraps a method on the class;
# a bare class name wraps its constructor.
SPANS = [
    ("cli", "main", "cli.main"),
    ("covering", "verify_covering", "covering.verify_covering"),
    ("covering", "TranslateSet.points_in", "covering.points_in"),
    ("covering", "lattice_points_in_box", "covering.lattice_points_in_box"),
    ("covering", "Polygon.locate", "covering.locate"),
    ("render", "render_svg", "render.render_svg"),
    ("criteria", "decide_multitiling", "criteria.decide_multitiling"),
    ("criteria", "bolle_check", "criteria.bolle_check"),
    ("criteria", "canonical_lattice", "criteria.canonical_lattice"),
    ("lattice", "PlaneLattice", "lattice.PlaneLattice"),
    ("lattice", "integer_span", "lattice.integer_span"),
    ("lattice", "intersect", "lattice.intersect"),
    ("lattice", "line_meets_lattice", "lattice.line_meets_lattice"),
    ("lattice", "superlattice_meeting_line", "lattice.superlattice_meeting_line"),
    ("intlinalg", "row_hnf", "intlinalg.row_hnf"),
    ("intlinalg", "right_kernel", "intlinalg.right_kernel"),
    ("zonotope", "Zonotope", "zonotope.Zonotope"),
    ("zonotope", "Zonotope.pair_translations", "zonotope.pair_translations"),
    ("zonotope", "Zonotope.vertices", "zonotope.vertices"),
]

# FieldElement methods reported under one name; any other public method or
# dunder is reported under its own name and counts towards field.self_s.
FIELD_ALIASES = {
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
}
FIELD_SKIP = {"__init__", "__repr__", "__str__"}

FIELD_CALLS = ["add", "sub", "mul", "div", "inverse", "sign", "approx", "floor"]
FIELD_SELF = ["sub", "mul", "div", "inverse", "sign"]
PROBE_FIELDS = ["q", "q2", "q23", "q2357"]
PROBE_OPS = ["add", "mul", "sign", "inverse"]

# Every per-layer metric: name, unit, better.
LAYER_METRICS = (
    [(f"field.{op}.calls", "count", "lower") for op in FIELD_CALLS]
    + [("field.sign.irrational_calls", "count", "lower")]
    + [(f"field.{op}.self_s", "s", "lower") for op in FIELD_SELF]
    + [("field.self_s", "s", "lower"), ("field.share", "ratio", "lower")]
    + [(f"field.{f}.{op}_us", "us", "lower") for f in PROBE_FIELDS for op in PROBE_OPS]
    + [
        ("covering.verify_covering.calls", "count", "lower"),
        ("covering.verify_covering.self_s", "s", "lower"),
        ("covering.points_in.calls", "count", "lower"),
        ("covering.points_in.self_s", "s", "lower"),
        ("covering.translates", "count", "lower"),
        ("covering.segments", "count", "lower"),
        ("covering.locate.calls", "count", "lower"),
        ("covering.locate.self_s", "s", "lower"),
        ("covering.locate.inside_ratio", "ratio", "higher"),
        ("covering.lattice_points_in_box.self_s", "s", "lower"),
        ("covering.cells_checked", "count", "lower"),
        ("render.render_svg.calls", "count", "lower"),
        ("render.render_svg.self_s", "s", "lower"),
        ("render.faces", "count", "lower"),
        ("render.svg_bytes", "bytes", "lower"),
    ]
    + [(f"criteria.{n}.{s}", u, "lower")
       for n in ("decide_multitiling", "bolle_check", "canonical_lattice")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("criteria.decides_per_canon", "ratio", "lower")]
    + [(f"lattice.{n}.{s}", u, "lower")
       for n in ("PlaneLattice", "integer_span", "intersect", "line_meets_lattice",
                 "superlattice_meeting_line")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"intlinalg.{n}.{s}", u, "lower")
       for n in ("row_hnf", "right_kernel") for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"zonotope.{n}.self_s", "s", "lower") for n in ("Zonotope", "pair_translations", "vertices")]
    + [
        ("jsonio.decode.self_s", "s", "lower"),
        ("jsonio.encode.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _jsonio_group(name: str) -> str | None:
    if name == "load_document" or name.startswith(("decode_", "parse_")):
        return "jsonio.decode"
    if name == "dumps" or name.startswith("encode_"):
        return "jsonio.encode"
    return None


class Tracer:
    """Wraps the program's public names and accumulates counts and times."""

    def __init__(self, span_cap: int = 200_000):
        self.clock = time.perf_counter
        self.child = [0.0]          # durations of wrapped calls inside each open call
        self.opened = [-1]          # ids of open spans; -1 is the root
        self.fcur = [defaultdict(lambda: [0, 0.0, 0])]  # field totals of the enclosing span
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped = [0]
        self.ids = itertools.count()
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.field_by_span: dict[str, defaultdict] = {"(root)": self.fcur[0]}
        self.extra: dict[str, float] = defaultdict(float)
        self.distinct_pending = 0
        self.absent: dict[str, str] = {}
        self._restore: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def _field_wrapper(self, fn, key):
        clock, child, fcur = self.clock, self.child, self.fcur

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                st = fcur[-1][key]
                st[0] += 1
                st[1] += d - child.pop()
                child[-1] += d

        return wrapper

    def _sign_wrapper(self, fn):
        inner = self._field_wrapper(fn, "sign")
        fcur = self.fcur

        def wrapper(x):
            if any(x.coeffs[1:]):
                fcur[-1]["sign"][2] += 1
            return inner(x)

        return wrapper

    def _span_wrapper(self, fn, name, post=None):
        clock, child, fcur, opened = self.clock, self.child, self.fcur, self.opened
        spans, cap, dropped, ids = self.spans, self.span_cap, self.dropped, self.ids
        stat = self.stats[name]
        fstats = self.field_by_span.setdefault(name, defaultdict(lambda: [0, 0.0, 0]))

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = opened[-1]
            opened.append(sid)
            fcur.append(fstats)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d - child.pop()
                child[-1] += d
                fcur.pop()
                opened.pop()
                if parent < 0 or len(spans) < cap:
                    spans.append((sid, name, t0, t1, parent))
                else:
                    dropped[0] += 1
            if post is not None:
                post(result, args)
            return result

        return wrapper

    # -- hooks that count work items at a boundary ------------------------------

    def _after_locate(self, result, args):
        if result == 1:
            self.extra["covering.locate.inside"] += 1

    def _after_points_in(self, result, args):
        self.extra["covering.translates"] += len(result)
        self.distinct_pending += len({(p.x.coeffs, p.y.coeffs) for p, _ in result})

    def _after_arrangement(self, result, args):
        # the sweep builds one segment per polygon edge of each distinct
        # translate, plus the four edges of the region
        self.extra["covering.segments"] += self.distinct_pending * len(args[0].vertices) + 4
        self.distinct_pending = 0

    # -- install / uninstall ----------------------------------------------------

    def _replace_everywhere(self, orig, wrapper):
        for mod in [m for n, m in sys.modules.items() if n == "zonotile" or n.startswith("zonotile.")]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _replace_on_class(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, package: str = "zonotile") -> None:
        mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith(package + ".")}
        posts = {
            "covering.locate": self._after_locate,
            "covering.points_in": self._after_points_in,
            "covering.verify_covering": self._after_arrangement,
            "render.render_svg": self._after_arrangement,
        }
        targets = list(SPANS)
        jsonio = mods.get("jsonio")
        if jsonio is not None:
            for attr, value in vars(jsonio).items():
                group = _jsonio_group(attr)
                if group and inspect.isfunction(value) and value.__module__ == jsonio.__name__:
                    targets.append(("jsonio", attr, group))
        for modname, attr, name in targets:
            mod = mods.get(modname)
            owner, _, meth = attr.partition(".")
            obj = getattr(mod, owner, None) if mod is not None else None
            if obj is None:
                self.absent[name] = f"{modname}.{owner} not found in the program"
                continue
            if inspect.isclass(obj):
                meth = meth or "__init__"
                if not inspect.isfunction(obj.__dict__.get(meth)):
                    self.absent[name] = f"{modname}.{attr} not found in the program"
                    continue
                self._replace_on_class(obj, meth, self._span_wrapper(obj.__dict__[meth], name, posts.get(name)))
            else:
                self._replace_everywhere(obj, self._span_wrapper(obj, name, posts.get(name)))
        field = mods["field"]
        for cls in (field.FieldElement, field.Field):
            for attr, value in list(vars(cls).items()):
                if not inspect.isfunction(value) or attr in FIELD_SKIP:
                    continue
                if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                    continue
                if cls is field.Field:
                    key = "Field." + attr
                else:
                    key = FIELD_ALIASES.get(attr, attr.strip("_"))
                wrapper = self._sign_wrapper(value) if key == "sign" else self._field_wrapper(value, key)
                self._replace_on_class(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def field_totals(self) -> dict[str, list]:
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for per_key in self.field_by_span.values():
            for key, (calls, self_s, irr) in per_key.items():
                t = totals[key]
                t[0] += calls
                t[1] += self_s
                t[2] += irr
        return totals

    def self_total(self) -> float:
        return sum(s for _, s in self.stats.values()) + sum(t[1] for t in self.field_totals().values())

    def unattributed(self, start: float, end: float) -> float:
        """Time of the traced pass outside every root span, from the roots'
        own timestamps."""
        roots = sorted((t0, t1) for _, _, t0, t1, parent in self.spans if parent < 0)
        gap = 0.0
        cursor = start
        for t0, t1 in roots:
            gap += t0 - cursor
            cursor = t1
        return gap + (end - cursor)

    def layer_metrics(self, wall: float, unattributed: float) -> dict[str, float]:
        field = self.field_totals()
        stats = self.stats
        out: dict[str, float] = {}
        for op in FIELD_CALLS:
            out[f"field.{op}.calls"] = field[op][0]
        out["field.sign.irrational_calls"] = field["sign"][2]
        for op in FIELD_SELF:
            out[f"field.{op}.self_s"] = field[op][1]
        out["field.self_s"] = sum(t[1] for t in field.values())
        out["field.share"] = out["field.self_s"] / wall
        for name in ("covering.verify_covering", "covering.points_in", "covering.locate",
                     "render.render_svg", "criteria.decide_multitiling", "criteria.bolle_check",
                     "criteria.canonical_lattice", "lattice.PlaneLattice", "lattice.integer_span",
                     "lattice.intersect", "lattice.line_meets_lattice",
                     "lattice.superlattice_meeting_line", "intlinalg.row_hnf", "intlinalg.right_kernel"):
            out[f"{name}.calls"] = stats[name][0]
            out[f"{name}.self_s"] = stats[name][1]
        for name in ("covering.lattice_points_in_box", "zonotope.Zonotope", "zonotope.pair_translations",
                     "zonotope.vertices", "jsonio.decode", "jsonio.encode", "cli.main"):
            out[f"{name}.self_s"] = stats[name][1]
        out["covering.translates"] = self.extra["covering.translates"]
        out["covering.segments"] = self.extra["covering.segments"]
        locates = stats["covering.locate"][0]
        out["covering.locate.inside_ratio"] = self.extra["covering.locate.inside"] / locates if locates else 0.0
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = unattributed
        return out

    def dump(self, path: Path) -> None:
        """Write spans and per-span field totals for offline inspection."""
        doc = {
            "spans_fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "spans_dropped": self.dropped[0],
            "field_by_span": {k: dict(v) for k, v in self.field_by_span.items() if v},
            "absent": self.absent,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
