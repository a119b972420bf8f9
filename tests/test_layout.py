"""Package layout rules that no single behaviour test would catch."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    """Without ``site``, importing ``zonotile.cli`` loads only what the
    package and the standard modules it uses need."""
    code = f"import sys, zonotile.cli; print([m for m in {_UNWANTED_IMPORTS!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


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


def test_every_public_name_has_a_caller_or_an_oracle_role():
    """A name the package exports is a reference check from ``oracles``,
    or pipeline code uses it outside its own definition; a use in
    ``oracles`` does not count."""
    exported = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                exported[alias.asname or alias.name] = node.module
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
    "ceil", "den", "divide", "element", "embed", "field", "floor", "from_integers", "is_rational", "is_zero",
    "mask_of_name", "names", "nums", "order_key", "product", "radicands", "rational", "rational_value", "root",
    "sign", "size", "sqrt", "union", "zero",
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
