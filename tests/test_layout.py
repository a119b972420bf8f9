"""Package layout rules that no single behaviour test would catch."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zonotile
from zonotile import RATIONALS, PlaneLattice, Zonotope, jsonio, vector

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zonotile"


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not offenders, offenders


# standard modules the package has no use for and whose import alone costs
# start-up time; dataclasses also generates code for each class it decorates
_UNWANTED_IMPORTS = ("dataclasses", "inspect", "typing")


def test_no_module_imports_dataclasses_inspect_or_typing():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] in _UNWANTED_IMPORTS:
                    offenders.append(f"{path.name}:{node.lineno} imports {name}")
    assert not offenders, offenders


def test_importing_the_cli_loads_no_dataclasses_inspect_typing_argparse_or_gettext():
    """Without ``site``, importing ``zonotile.cli`` loads only what the
    package and the standard modules it uses need: the command line is
    read from the reader's own table, so argparse (and the gettext it
    imports) stays unloaded."""
    unwanted = (*_UNWANTED_IMPORTS, "argparse", "gettext")
    code = f"import sys, zonotile.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter without ``site``; returns the
    value of its last line of output, read as a Python literal, and the
    ``zonotile`` modules it has loaded by then."""
    script = f"{code}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('zonotile')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True)
    *_, value, modules = out.stdout.splitlines()
    return ast.literal_eval(value), set(ast.literal_eval(modules))


def _exit_codes(argvs) -> str:
    """Code that runs the CLI on each argv, output discarded, and prints the exit codes."""
    return (
        "import contextlib, io\n"
        "from zonotile.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes)"
    )


# the modules that sweep, locate and draw, and the reference checks
COVERING_LAYER = {"zonotile.arrangement", "zonotile.covering", "zonotile.oracles", "zonotile.render"}


def _octagon_files(tmp_path):
    """A zonotope document, Z^2 as a lattice document and the scene of
    the zonotope's translates by Z^2."""
    q = RATIONALS
    z = Zonotope([vector(q, 1, 0), vector(q, 1, 1), vector(q, 0, 1), vector(q, -1, 1)])
    lat = jsonio.encode_lattice(PlaneLattice(vector(q, 1, 0), vector(q, 0, 1)))
    docs = {
        "polygon": jsonio.encode_zonotope(z),
        "lattice": {"field": [], **lat},
        "scene": {"field": [], "polygon": {"generators": jsonio.encode_zonotope(z)["generators"]},
                  "lambda": {"periodic": [{"lattice": lat}]}},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(jsonio.dumps(doc), encoding="utf-8")
    return paths


def test_decision_commands_load_no_covering_layer(tmp_path):
    files = _octagon_files(tmp_path)
    argvs = [["decide", files["polygon"]], ["canon", files["polygon"]], ["check", files["polygon"], files["lattice"]]]
    codes, loaded = _fresh(_exit_codes(argvs))
    assert codes == [0, 0, 0]
    assert not loaded & COVERING_LAYER, sorted(loaded & COVERING_LAYER)


def test_verify_loads_no_oracles_or_renderer(tmp_path):
    codes, loaded = _fresh(_exit_codes([["verify", _octagon_files(tmp_path)["scene"]]]))
    assert codes == [0]
    assert {"zonotile.arrangement", "zonotile.covering"} <= loaded
    assert not loaded & {"zonotile.oracles", "zonotile.render"}, sorted(loaded)


def test_span_checks_load_no_covering_code():
    """The reference checks on spans, as a benchmark that imports the CLI
    and reads ``rational_rank`` from the package reaches them."""
    code = "import zonotile.cli, zonotile.jsonio, zonotile as z\nprint(z.rational_rank([z.vector(z.RATIONALS, 1, 2)]))"
    rank, loaded = _fresh(code)
    assert rank == 1
    assert "zonotile.oracles" in loaded
    assert not loaded & {"zonotile.arrangement", "zonotile.covering"}, sorted(loaded)


def test_every_export_resolves_and_is_listed():
    code = (
        "import zonotile\n"
        "listed = set(dir(zonotile))\n"
        "print([n for n in zonotile.__all__ if n not in listed or getattr(zonotile, n, None) is None])"
    )
    missing, _ = _fresh(code)
    assert missing == []
    for name, module in _export_table().items():
        assert getattr(zonotile, name) is getattr(importlib.import_module(f"zonotile.{module}"), name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        zonotile.no_such_name


def _defined_names(tree):
    """Every name a module binds: defs, classes, assignment targets
    (including attributes such as ``self._x = ...``) and import aliases."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
    return names


def test_no_module_reads_another_modules_private_attributes():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _defined_names(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and node.attr not in own
            ):
                offenders.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not offenders, offenders


def _pipeline_modules():
    """Every module but ``__init__``, which only re-exports, and
    ``oracles``, the reference checks."""
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("__init__.py", "oracles.py")]


def test_no_pipeline_module_imports_oracles():
    """Neither the module nor any name it defines, through the package or not."""
    tree = ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))
    banned = {"oracles", *(node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))}
    offenders = []
    for path in _pipeline_modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
                if any(name.split(".")[-1] in banned for name in names):
                    offenders.append(f"{path.name}:{node.lineno} imports from oracles")
    assert not offenders, offenders


def _pipeline_references():
    """For each name, the top-level definitions of the pipeline modules
    whose code references it (as a name or an attribute)."""
    refs = {}
    for path in _pipeline_modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    refs.setdefault(sub.id, set()).add((path.stem, owner))
                elif isinstance(sub, ast.Attribute):
                    refs.setdefault(sub.attr, set()).add((path.stem, owner))
    return refs


# The names the package exports.  The export table in ``__init__`` must
# list exactly these: a name joins or leaves the exports only with this set.
PUBLIC_NAMES = {
    "AccountingError", "BUILTIN_NAMES", "BollePair", "BolleReport", "BoundaryError", "Box", "CanonicalLattice",
    "Decision", "Field", "FieldElement", "FieldError", "GeometryError", "IncommensurableError", "InternalError",
    "LATTICE", "NOT_DISCRETE", "PlaneLattice", "PlaneVector", "Polygon", "RANK_DEFICIENT", "RATIONALS",
    "RationalityError", "SpanAnalysis", "SymmetryError", "TranslateSet", "VerifyReport", "WindowError",
    "ZonotileError", "Zonotope", "ZonotopeError", "bolle_check", "builtin_scene",
    "canonical_lattice", "covering_at", "covolume", "decide_multitiling", "integer_coords", "integer_span",
    "intersect", "lattice_coords", "lattice_multiplicity", "lattice_points_in_box", "line_meets_lattice", "locate",
    "pair_translations", "rational_rank", "right_kernel", "strip_profile", "sublattice_avoiding_coset",
    "superlattice_meeting_line", "vector", "verify_covering",
}


def test_no_module_but_patterns_references_a_tetromino_rule():
    """A windowed translate set is a weighted point list: the tetromino
    rules run only where ``patterns`` lists a builtin's points."""
    tree = ast.parse((PACKAGE / "patterns.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_TETROMINO_RULES"])
    rules = {"_TETROMINO_RULES", *(node.id for node in ast.walk(table) if isinstance(node, ast.Name))}
    assert len(rules) == 4, rules
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "patterns.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in rules:
                offenders.append(f"{path.name}:{node.lineno} references {name}")
    assert not offenders, offenders


def _export_table():
    """The exported names of ``__init__``'s ``_EXPORTS`` table, each
    mapped to the module that defines it."""
    for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]:
            return {name: module for module, names in ast.literal_eval(node.value).items() for name in names}
    raise AssertionError("__init__.py has no _EXPORTS table")


def test_every_public_name_has_a_caller_or_an_oracle_role():
    """A name the package exports is a reference check from ``oracles``,
    or pipeline code uses it outside its own definition; a use in
    ``oracles`` does not count."""
    exported = _export_table()
    assert set(exported) == set(zonotile.__all__) == PUBLIC_NAMES
    refs = _pipeline_references()
    offenders = [
        f"{module}.{name}"
        for name, module in sorted(exported.items())
        if module != "oracles" and not refs.get(name, set()) - {(module, name)}
    ]
    assert not offenders, offenders


def _class_members(tree, classes):
    """The public names the classes define in their bodies: methods,
    properties and ``__slots__`` entries."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.Assign) and [t.id for t in item.targets if isinstance(t, ast.Name)] == ["__slots__"]:
                    names.update(elt.value for elt in item.value.elts)
    return {name for name in names if not name.startswith("_")}


# The Field and FieldElement members that the modules using the field read
# as attributes.  It may shrink; a name added here widens the surface a
# second field kind would have to implement.  Operators are counted by the
# TestNoFieldArithmetic tests, and den, element, field, is_zero and nums
# are also other classes' names, so a read of those is not told apart.
FIELD_SURFACE = {
    "den", "divide", "element", "embed", "field", "floor", "from_integers", "is_rational", "is_zero",
    "mask_of_name", "names", "nums", "order_key", "product", "radicands", "rational", "rational_value", "root",
    "sign", "size", "union", "zero",
}


def test_pipeline_reads_no_new_field_member():
    members = _class_members(ast.parse((PACKAGE / "field.py").read_text(encoding="utf-8")), ("Field", "FieldElement"))
    read = {}
    for path in _pipeline_modules():
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in members:
                read.setdefault(node.attr, set()).add(f"{path.name}:{node.lineno}")
    assert set(read) <= FIELD_SURFACE, {name: read[name] for name in set(read) - FIELD_SURFACE}


def test_only_covering_builds_a_grid():
    """One grid per scene: ``covering`` puts each scene on its grid, and
    the sweep and the renderer read that grid."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "covering.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Grid":
                    offenders.append(f"{path.name}:{node.lineno} calls Grid(")
    assert not offenders, offenders


def test_only_field_compares_radicands_or_reads_products():
    """One ``Field`` per field: other modules compare fields with ``is``
    and take monomial names from ``Field.names``, so none compares
    ``.radicands`` or reads ``.products``."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    if isinstance(operand, ast.Attribute) and operand.attr == "radicands":
                        offenders.append(f"{path.name}:{node.lineno} compares .radicands")
            elif isinstance(node, ast.Attribute) and node.attr == "products":
                offenders.append(f"{path.name}:{node.lineno} reads .products")
    assert not offenders, offenders


def test_signs_and_floors_have_no_precision_schedule():
    """``Field.sign`` takes one enclosure and then the exact norm recursion,
    and ``Field.floor`` one enclosure at a precision read off its inputs,
    so neither they nor ``_enclosure`` loop over precisions, no roots are
    cached per precision, and no sign can fail to converge."""
    tree = ast.parse((PACKAGE / "field.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    field_class = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Field")
    functions.update((f"Field.{node.name}", node) for node in field_class.body if isinstance(node, ast.FunctionDef))
    offenders = []
    for name in ("Field.sign", "Field.floor", "_enclosure"):
        offenders += [f"{name}:{node.lineno} loops" for node in ast.walk(functions[name]) if isinstance(node, ast.While)]
    if "Field._roots" in functions:
        offenders.append("Field defines a _roots method")
    for node in ast.walk(tree):
        if "_root_cache" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)):
            offenders.append(f"field.py:{node.lineno} names _root_cache")
        if isinstance(node, ast.ImportFrom) and "InternalError" in [alias.name for alias in node.names]:
            offenders.append(f"field.py:{node.lineno} imports InternalError")
    assert not offenders, offenders


# Public names that no pipeline code calls, kept because the benchmark
# reads them: its tracer counts a scene's segments from
# ``Polygon.vertices``, and it writes its zonotope inputs with
# ``jsonio.encode_zonotope``.  Its generators read ``Zonotope.generators``
# (bench/workloads.py:188) and ``Zonotope.vertices`` (:198), and its scenes
# draw offsets with ``PlaneLattice.point`` (:276).
BENCH_READS = {
    "Polygon.vertices", "jsonio.encode_zonotope", "PlaneLattice.point", "Zonotope.generators", "Zonotope.vertices",
}


def test_every_jsonio_name_has_a_pipeline_caller():
    """Every name in ``jsonio.__all__`` is referenced by pipeline code
    outside its own definition, or is a benchmark read."""
    refs = _pipeline_references()
    uncalled = {f"jsonio.{name}" for name in jsonio.__all__ if not refs.get(name, set()) - {("jsonio", name)}}
    assert not uncalled - BENCH_READS, sorted(uncalled - BENCH_READS)


def _public_methods(classes):
    """Each public method, property and classmethod of ``classes``, by the
    code object it runs."""
    out = {}
    for cls in classes:
        for name, attr in vars(cls).items():
            func = getattr(attr, "fget", None) or getattr(attr, "__func__", None) or attr
            if not name.startswith("_") and hasattr(func, "__code__"):
                out[func.__code__] = f"{cls.__name__}.{name}"
    return out


def _covering_methods():
    """The public methods of the classes that ``covering`` and
    ``arrangement`` define."""
    from zonotile import arrangement, covering

    return _public_methods(
        cls for module in (arrangement, covering) for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    )


def _uncalled(methods, argvs):
    """Run the command line on each argv and return the exit codes and the
    names in ``methods`` that pipeline code did not call outside their own
    body.  Calls are recorded as they run, so a method reached only
    through another uncalled one, or only from ``oracles`` or the tests,
    has no caller."""
    from zonotile.cli import main

    pipeline = {str(path) for path in _pipeline_modules()}
    called = set()

    def record(frame, event, arg):
        caller = frame.f_back
        if event == "call" and frame.f_code in methods and caller is not None and caller.f_code is not frame.f_code:
            if caller.f_code.co_filename in pipeline:
                called.add(methods[frame.f_code])

    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    return codes, set(methods.values()) - called - BENCH_READS


def test_every_covering_method_has_a_pipeline_caller(tmp_path):
    """Every public method of a class in ``covering`` or ``arrangement`` is
    called by pipeline code outside its own body while the command line
    verifies and renders scenes: periodic and windowed, constant and not,
    from generators and from vertices."""
    q = RATIONALS
    files = _octagon_files(tmp_path)
    strips = jsonio.encode_lattice(PlaneLattice(vector(q, 1, 0), vector(q, 0, 2)))
    octagon = [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]
    docs = {
        "strips": {"field": [], "polygon": {"vertices": [jsonio.encode_vector(vector(q, x, y)) for x, y in octagon]},
                   "lambda": {"periodic": [{"lattice": strips}]}},
        "tetromino": jsonio.encode_scene_builtin("tetromino-union", None, None),
    }
    for name, doc in docs.items():
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(jsonio.dumps(doc), encoding="utf-8")
    argvs = [
        ["verify", files["scene"]], ["verify", files["strips"]], ["verify", files["tetromino"]],
        ["render", files["tetromino"], "-o", str(tmp_path / "out.svg"), "--window=-2,-2,2,2"],
    ]
    codes, uncalled = _uncalled(_covering_methods(), argvs)
    assert codes == [0, 1, 0, 0]
    assert not uncalled, sorted(uncalled)


def test_every_lattice_and_zonotope_method_has_a_pipeline_caller(tmp_path):
    """Every public method of ``PlaneLattice`` and ``Zonotope`` is called by
    pipeline code outside its own body while the command line decides,
    canonicalizes and checks zonotopes (odd, even, parallelogram and
    negative, from generators and from vertices; a Q(sqrt 2) zonotope
    against a Q(sqrt 2) lattice that holds no generator, so the
    multiplicity is read off the area, and against a Q lattice, which
    ``check`` embeds) and verifies a scene.  The vector and field value
    types stay outside this rule; ``FIELD_SURFACE`` bounds the field."""
    q, f2 = RATIONALS, zonotile.Field([2])
    r2 = f2.sqrt(2)
    files = _octagon_files(tmp_path)

    def generators(field, *vs):
        return jsonio.encode_zonotope(Zonotope([vector(field, x, y) for x, y in vs]))

    # e1, e2, e3 are rationally independent, and the pair translations
    # e2 + e3 and -(e1 + e2) span a lattice that passes the edge-pair test
    e = [(1, 0), (1, 1), (-1, r2)]
    docs = {
        "hexagon": generators(q, (1, 0), (1, 1), (0, 1)),
        "parallelogram": generators(q, (1, 0), (1, 2)),
        "negative": generators(f2, (1, 0), (r2, 1), (0, 1), (-1, r2)),
        "vertices": {"field": [], "vertices": [jsonio.encode_vector(v) for v in Zonotope(
            [vector(q, 2, 0), vector(q, 1, 1), vector(q, -1, 2)]).vertices()]},
        "irrational": generators(f2, *e),
        "irrational-lattice": {"field": [2], **jsonio.encode_lattice(PlaneLattice(
            vector(f2, 0, 1 + r2), vector(f2, -2, -1)))},
    }
    for name, doc in docs.items():
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(jsonio.dumps(doc), encoding="utf-8")
    argvs = [
        *(["decide", files[name]] for name in ("polygon", "hexagon", "parallelogram", "negative", "vertices")),
        *(["canon", files[name]] for name in ("polygon", "hexagon", "parallelogram")),
        ["check", files["irrational"], files["irrational-lattice"]], ["check", files["irrational"], files["lattice"]],
        ["check", files["polygon"], files["lattice"]], ["verify", files["scene"]],
    ]
    codes, uncalled = _uncalled(_public_methods([PlaneLattice, Zonotope]), argvs)
    assert codes == [0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0]
    assert not uncalled, sorted(uncalled)
