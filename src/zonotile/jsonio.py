"""Canonical JSON encodings for every value the CLI reads or writes.

Field elements serialize as arrays of monomial terms
``{"monomial": "1"|"r2"|"r6"|..., "num": "...", "den": "..."}``; the
monomial names come from the field (``Field.names``).
Documents that contain elements carry a top-level ``"field"`` key listing
the radicands, which makes decoding unambiguous.  Encoding is canonical:
lattices are in canonical basis form, keys are emitted sorted, and
round-tripping is bit-exact.  One term reader checks every element's
terms; vector lists go from their terms straight to integer rows, and
lattices, zonotopes and translate sets are built from those rows, with
no field element: a scene's part offsets are read in one pass, a missing
one as the zero vector.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm

from .criteria import BolleReport, CanonicalLattice, Decision
from .errors import FieldError, GeometryError, ZonotileError
from .field import Field, FieldElement, RATIONALS, int_str
from .lattice import LATTICE, PlaneLattice, PlaneVector, row_span
from .zonotope import Zonotope

__all__ = [
    "dumps",
    "encode_element",
    "decode_element",
    "encode_vector",
    "encode_lattice",
    "decode_lattice",
    "encode_zonotope",
    "decode_zonotope_document",
    "decode_lattice_document",
    "decode_scene_document",
    "encode_decision",
    "encode_bolle_report",
    "encode_verify_report",
    "encode_canonical_lattice",
    "parse_rational",
    "parse_element_text",
    "decode_window",
    "located",
]


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` for documents
    of str-keyed dicts, lists, str, int, True, False and None; any other
    type raises ``TypeError``.

    The stdlib only takes its C encoder without ``indent``, and its
    pure-Python one builds a cycle of closures per call that only the
    cyclic collector frees.  This writer is a plain recursion and leaves
    nothing behind."""
    out: list[str] = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(obj, newline: str, emit) -> None:
    """Emit obj's JSON text in pieces; ``newline`` is the line break plus
    the indent of obj's own line.  Containers write their str entries
    themselves, which spares a call on the most common leaf."""
    if isinstance(obj, str):
        emit(_quote(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int_str(obj))
    elif isinstance(obj, list):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            if isinstance(value, str):
                emit(sep + _quote(value))
            else:
                emit(sep)
                _write(value, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            if isinstance(value, str):
                emit(f"{sep}{_quote(key)}: {_quote(value)}")
            else:
                emit(f"{sep}{_quote(key)}: ")
                _write(value, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# -- scalars ------------------------------------------------------------------


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise GeometryError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not value.isascii():  # Fraction reads any Unicode decimal digit
            raise GeometryError(f"bad rational literal {value!r}: write it with ASCII digits")
        if "e" in value.lower():  # a short exponent can ask for any number of digits
            raise GeometryError(f"bad rational literal {value!r}: write it as p/q, with no exponent")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GeometryError(f"bad rational literal {value!r}") from exc
    raise GeometryError(f"expected a rational number, got {value!r}")


def parse_element_text(text: str, field: Field | None = None, where: str = "element text") -> FieldElement:
    """Parse a small sum like ``"1/2 + 3*sqrt(2) - sqrt(6)"`` exactly.

    The one reader of ``--beta`` and of a scene's ``lambda.beta`` text.
    Every radicand written is squarefree and has its root in the field
    (sqrt(15) in Q(sqrt6, sqrt10) is sqrt(60)/2): a given field must hold
    it, and with none the radicands are adjoined in increasing order, each
    unless the field built so far holds it.  The terms are summed
    into one rational per monomial and the element is built once.  Errors
    name ``where``, the text's source, and the bad term as written.
    Numbers are read in ASCII digits only; no term is empty or split by a space.
    """
    if not text.isascii():  # int, Fraction and str.isdecimal read any Unicode digit
        raise GeometryError(f"bad text {text!r} in {where}: write it with ASCII digits")
    if re.search(r"[\w.]\s+[\w.]", text):
        raise GeometryError(f"bad text {text!r} in {where}: a space splits a number or a name")
    # the terms between the '+' and '-' outside parentheses; a term keeps its '-'
    pieces = re.split(r"([+-])(?![^()+-]*\))", text)
    if not all(piece.strip() for piece in pieces[2::2] or pieces):
        raise GeometryError(f"bad text {text!r} in {where}: a term is empty")
    terms = [(sign.strip("+") + piece).strip() for sign, piece in zip(["", *pieces[1::2]], pieces[::2])]
    parsed: list[tuple[Fraction, int]] = []  # (c, n) for c*sqrt(n), n = 1 for a rational
    for term in filter(None, terms):  # the first is empty before a leading sign
        body = term.replace(" ", "")
        head, sqrt, tail = body.removeprefix("-").partition("sqrt(")
        try:
            if not sqrt:
                coef, rad = parse_rational(head), 1
            elif tail.endswith(")") and tail[:-1].isdecimal():
                coef, rad = (parse_rational(head.removesuffix("*")) if head else Fraction(1)), int(tail[:-1])
                if rad >= 2:  # refuse a bad radicand, or one the declared field lacks, with its term
                    Field([rad])
                    if field is not None and field.root(rad) is None:
                        raise FieldError(f"sqrt({rad}) is not a basis monomial of {field!r}")
            else:
                raise GeometryError("expected [c*]sqrt(n) with an integer n")
        except ValueError as exc:  # also an integer over the interpreter's digit limit
            raise GeometryError(f"bad term {term!r} in {where}: {exc}") from None
        parsed.append((-coef if body.startswith("-") else coef, rad))
    if field is None:
        field = RATIONALS
        for rad in sorted({rad for _, rad in parsed if rad >= 2}):
            if field.root(rad) is None:
                try:
                    field = Field([*field.radicands, rad])
                except FieldError as exc:
                    raise GeometryError(f"{where}: {exc}") from None
    coeffs = [0] * field.size
    for c, rad in parsed:
        if rad == 1:
            coeffs[0] += c
        elif rad:  # sqrt(0) adds nothing
            mask, factor = field.root(rad)
            coeffs[mask] += c * factor
    return FieldElement(field, coeffs)


# -- field elements ------------------------------------------------------------


def encode_element(x: FieldElement) -> list[dict]:
    return _encode_terms(x.field.names, x.nums, x.den)


def _encode_terms(names, nums, den: int) -> list[dict]:
    """The terms of sum(nums[m] * monomial m) / den, each in lowest terms."""
    out = []
    for mask, n in enumerate(nums):
        if not n:
            continue
        g = gcd(n, den)
        out.append({"monomial": names[mask], "num": int_str(n // g), "den": int_str(den // g)})
    return out


def _term_integer(term: dict, key: str) -> int:
    """term[key] as an int: a JSON int or an ASCII ``-?[0-9]+`` string."""
    value = term[key]
    if type(value) is int or (type(value) is str and value.isascii() and value.removeprefix("-").isdecimal()):
        try:
            return int(value)
        except ValueError:  # more digits than the interpreter converts
            raise GeometryError(
                f"term {term['monomial']!r}: {key!r} has {len(value.removeprefix('-'))} digits, "
                f"over the limit of {sys.get_int_max_str_digits()}"
            ) from None
    raise GeometryError(f"term {term!r} needs an integer or integer string as {key!r}")


def _read_terms(terms, field: Field, column: int, out: list) -> None:
    """Check one element's terms and append (column + mask, num, den) to
    ``out`` for each, mask being the monomial's index, in lowest terms
    with den > 0.  Errors do not name the element's location: callers
    prefix it."""
    if not isinstance(terms, list):
        raise GeometryError(f"element must be a list of terms, got {terms!r}")
    index, seen = field.mask_of_name, 0
    for term in terms:
        if not isinstance(term, dict):
            raise GeometryError(f"term {term!r} must be an object with 'monomial', 'num' and 'den'")
        try:
            name, num, den = term["monomial"], term["num"], term["den"]
        except KeyError:
            missing = next(key for key in ("monomial", "num", "den") if key not in term)
            raise GeometryError(f"term {term!r} lacks {missing!r}") from None
        mask = index.get(name) if type(name) is str else None
        if mask is None:
            raise GeometryError(f"term {term!r}: monomial {name!r} does not exist in field {list(field.radicands)}")
        if seen >> mask & 1:
            raise GeometryError(f"duplicate monomial {name!r}")
        seen |= 1 << mask
        den = _term_integer(term, "den")
        if not den:
            raise GeometryError(f"term {term!r} has a zero denominator")
        num = _term_integer(term, "num")
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        out.append((column + mask, num // g, den // g))


def _place(cells, den: int, width: int) -> list[int]:
    """The numerators over ``den`` of the (column, num, den) cells, a
    multiple of each cell's den, in a row of ``width`` columns."""
    row = [0] * width
    for column, n, d in cells:
        row[column] = n * (den // d)
    return row


def decode_element(terms, field: Field) -> FieldElement:
    cells: list = []
    _read_terms(terms, field, 0, cells)
    den = lcm(*(d for _, _, d in cells))
    return FieldElement.from_integers(field, _place(cells, den, field.size), den)


def encode_vector(v: PlaneVector) -> dict:
    return {"x": encode_element(v.x), "y": encode_element(v.y)}


def _read_rows(values: list, field: Field, name) -> tuple[list[list[int]], int]:
    """The {x, y} objects ``values`` as :func:`~zonotile.lattice.integer_rows`
    gives the vectors they name: integer rows over their least common
    denominator.  ``name(i)`` locates values[i] in errors."""
    size = field.size
    vectors = []
    for i, v in enumerate(values):
        if not isinstance(v, dict) or "x" not in v or "y" not in v:
            raise GeometryError(f"{name(i)} must be an object with 'x' and 'y', got {v!r}")
        cells: list = []
        for axis, column in (("x", 0), ("y", size)):
            try:
                _read_terms(v[axis], field, column, cells)
            except GeometryError as exc:
                raise GeometryError(f"{name(i)}.{axis}: {exc}") from None
        vectors.append(cells)
    den = lcm(*{d for cells in vectors for _, _, d in cells})
    return [_place(cells, den, 2 * size) for cells in vectors], den


# The most vectors a generators, vertices or basis list may hold, counted
# before any term is read.  decide grows linearly in m: 2,048 generators
# take about 0.02 s in process, and `decide` on such a document about
# 0.06 s with reading and writing (2-vCPU VM, Python 3.11); a vertex list
# of that length has half as many generators, and a scene as many parts.
MAX_VECTORS = 2048


def _decode_rows(doc: dict, key: str, field: Field, where: str = "") -> tuple[list[list[int]], int]:
    """The vectors under ``doc[key]`` as :func:`_read_rows` reads them;
    errors name the key and index.

    ``where`` locates ``doc`` inside a larger document and prefixes each name."""
    values = doc[key]
    if not isinstance(values, list):
        name = f"{where}.{key}" if where else repr(key)
        raise GeometryError(f"{name} must be a list of {{x, y}} objects, got {values!r}")
    prefix = f"{where}." if where else ""
    if len(values) > MAX_VECTORS:
        raise GeometryError(f"{prefix}{key} has {len(values)} vectors, over the budget of {MAX_VECTORS}")
    return _read_rows(values, field, lambda i: f"{prefix}{key}[{i}]")


# -- lattices and polygons -------------------------------------------------------


def _encode_rows(field: Field, rows, den: int) -> list[dict]:
    """The vectors whose flattened rows over ``den`` are ``rows``, as
    {x, y} objects; the inverse of :func:`_decode_rows`."""
    names, n = field.names, field.size
    return [{"x": _encode_terms(names, row[:n], den), "y": _encode_terms(names, row[n:], den)} for row in rows]


def encode_lattice(lat: PlaneLattice) -> dict:
    return {"basis": _encode_rows(lat.field, lat.rows, lat.den)}


def decode_lattice(doc, field: Field, where: str = "") -> PlaneLattice:
    """A lattice object; ``where`` names its location inside a larger document."""
    if not isinstance(doc, dict) or "basis" not in doc:
        raise GeometryError(f"{where or 'lattice'} must be an object with a 'basis', got {doc!r}")
    rows, den = _decode_rows(doc, "basis", field, where)
    if len(rows) != 2:
        raise GeometryError(f"{where or 'lattice'} basis must have exactly 2 vectors")
    span = row_span(field, rows, den)
    if span.verdict != LATTICE:
        raise GeometryError(f"{where}: lattice basis is degenerate" if where else "lattice basis is degenerate")
    return span.basis


def _decode_field(doc, field: Field | None = None) -> Field:
    rads = doc.get("field", [])
    if not isinstance(rads, list) or any(type(d) is not int for d in rads):
        raise GeometryError(f"'field' must be a list of integer radicands, got {rads!r}")
    try:
        return Field(rads) if field is None else field.union(Field(rads))
    except FieldError as exc:
        raise FieldError(f"field: {exc}") from None


def encode_zonotope(z: Zonotope) -> dict:
    return {"field": list(z.field.radicands), "generators": _encode_rows(z.field, z.rows, z.den)}


def located(where: str, build, *args):
    """``build(*args)``, with the message of a geometry error it raises
    prefixed by ``where``, the location (a JSON path or a flag) of the
    value it was read from."""
    try:
        return build(*args)
    except GeometryError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def decode_zonotope_document(doc, field: Field | None = None) -> Zonotope:
    field = _decode_field(doc, field)
    if "generators" in doc:
        return located("generators", Zonotope.from_rows, field, *_decode_rows(doc, "generators", field))
    if "vertices" in doc:
        return located("vertices", Zonotope.from_vertex_rows, field, *_decode_rows(doc, "vertices", field))
    raise GeometryError("zonotope document needs 'generators' or 'vertices'")


def decode_lattice_document(doc) -> PlaneLattice:
    return decode_lattice(doc, _decode_field(doc))


# -- scenes ---------------------------------------------------------------------


def decode_window(doc, where: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """A window [x0, y0, x1, y1] of rationals; ``where`` names its location."""
    if not isinstance(doc, list) or len(doc) != 4:
        raise GeometryError(f"{where} must be [x0, y0, x1, y1], got {doc!r}")
    return located(where, tuple, map(parse_rational, doc))


def _decode_beta(doc, field: Field | None) -> FieldElement | None:
    """lambda.beta: a text read as ``--beta`` reads it, a JSON integer as
    its text, or a term list; in ``field`` when the scene declares one."""
    if doc is None:
        return None
    if isinstance(doc, list):
        return located("lambda.beta", decode_element, doc, RATIONALS if field is None else field)
    if type(doc) is int:
        doc = int_str(doc)
    if not isinstance(doc, str):
        raise GeometryError(f"lambda.beta: expected a rational number, got {doc!r}")
    return parse_element_text(doc, field, "lambda.beta")


def decode_scene_document(doc) -> tuple[Polygon, TranslateSet, tuple | None]:
    """A scene: polygon, translate set and ``lambda.window`` (None when
    absent), which ``render`` draws unless ``--window`` is given.

    The optional ``"mode"`` key is accepted only as ``"exact"``, the one
    verification there is.  The covering layer is imported here, so the
    decision documents decode without it."""
    from .covering import Polygon, TranslateSet
    from .patterns import builtin_scene
    mode = doc.get("mode", "exact")
    if mode != "exact":
        raise GeometryError(f"scene 'mode' must be 'exact', got {mode!r}: sampled verification was removed")
    lam = doc.get("lambda")
    if lam is None:
        raise GeometryError("scene needs a 'lambda' entry")
    if not isinstance(lam, dict):
        raise GeometryError(f"scene 'lambda' must be an object, got {lam!r}")
    if "builtin" in lam:
        name = lam["builtin"]
        if not isinstance(name, str):
            raise GeometryError(f"lambda.builtin must be the name of a builtin scene, got {name!r}")
        window = decode_window(lam["window"], "lambda.window") if "window" in lam else None
        field = _decode_field(doc) if "field" in doc else None
        beta = _decode_beta(lam.get("beta"), field)
        return (*builtin_scene(name, window, beta, where=("lambda.window", "lambda.beta")), window)
    field = _decode_field(doc)
    window = decode_window(lam["window"], "lambda.window") if "window" in lam else None
    poly_doc = doc.get("polygon")
    if poly_doc is None:
        raise GeometryError("scene needs a 'polygon' entry")
    if not isinstance(poly_doc, dict):
        raise GeometryError(f"scene 'polygon' must be an object, got {poly_doc!r}")
    if "vertices" in poly_doc:
        rows, den = _decode_rows(poly_doc, "vertices", field, "polygon")
        poly = located("polygon.vertices", Polygon.from_rows, field, rows, den)
        if not poly.is_simple():
            raise GeometryError("polygon.vertices: two non-adjacent edges meet, so the polygon is not simple")
    elif "generators" in poly_doc:
        rows, den = _decode_rows(poly_doc, "generators", field, "polygon")
        poly = Polygon.from_zonotope(located("polygon.generators", Zonotope.from_rows, field, rows, den))
    else:
        raise GeometryError("scene polygon needs 'vertices' or 'generators'")
    parts = lam.get("periodic")
    if not parts:
        raise GeometryError("scene lambda needs 'periodic' parts or a 'builtin' name")
    if not isinstance(parts, list):
        raise GeometryError(f"lambda.periodic must be a list of parts, got {parts!r}")
    if len(parts) > MAX_VECTORS:
        raise GeometryError(f"lambda.periodic has {len(parts)} parts, over the budget of {MAX_VECTORS}")
    lattices = []
    for i, part in enumerate(parts):
        where = f"lambda.periodic[{i}]"
        if not isinstance(part, dict) or "lattice" not in part:
            raise GeometryError(f"{where} must be an object with a 'lattice', got {part!r}")
        lattices.append(decode_lattice(part["lattice"], field, f"{where}.lattice"))
    # a part without an offset sits at the origin, which has no term on either axis
    offsets = [part.get("offset", {"x": [], "y": []}) for part in parts]
    rows, den = _read_rows(offsets, field, lambda i: f"lambda.periodic[{i}].offset")
    return poly, TranslateSet.periodic(field, lattices, rows, den), window


def encode_scene_builtin(name: str, window, beta) -> dict:
    doc: dict = {"lambda": {"builtin": name}, "mode": "exact"}
    if window is not None:
        doc["lambda"]["window"] = [str(Fraction(w)) for w in window]
    if isinstance(beta, FieldElement) and beta.is_rational():
        beta = beta.rational_value()
    if isinstance(beta, FieldElement):
        doc["field"] = list(beta.field.radicands)
        doc["lambda"]["beta"] = encode_element(beta)
    elif beta is not None:
        doc["lambda"]["beta"] = str(Fraction(beta))
    return doc


# -- reports ---------------------------------------------------------------------


def encode_decision(dec: Decision, field: Field) -> dict:
    return {
        "field": list(field.radicands),
        "multi_tiles": dec.multi_tiles,
        "branch": dec.branch,
        "j0": dec.j0,
        "witness_lattice": encode_lattice(dec.witness_lattice) if dec.witness_lattice else None,
        "witness_multiplicity": dec.witness_multiplicity,
        "succeeded_j0": list(dec.succeeded_j0),
        "failure_reason": dec.failure_reason,
    }


def encode_bolle_report(report: BolleReport, field: Field) -> dict:
    return {
        "field": list(field.radicands),
        "verdict": report.verdict,
        "multiplicity": report.multiplicity,
        "pairs": [{"j": p.j, "cond1": p.cond1, "cond2": p.cond2} for p in report.pairs],
    }


def encode_verify_report(report: VerifyReport, field: Field) -> dict:
    ce = None
    if report.counterexample is not None:
        (p1, c1), (p2, c2) = report.counterexample
        ce = {"points": [encode_vector(p1), encode_vector(p2)], "counts": [c1, c2]}
    return {
        "field": list(field.radicands),
        "constant": report.constant,
        "multiplicity": report.multiplicity,
        "counterexample": ce,
        "cells_checked": report.cells_checked,
        "window_relative": report.window_relative,
    }


def encode_canonical_lattice(result: CanonicalLattice, field: Field) -> dict:
    return {
        "field": list(field.radicands),
        "lattice": encode_lattice(result.lattice),
        "source": result.source,
        "contributing_j": list(result.contributing_j),
    }


# The most levels of nested arrays and objects a document may have.  The
# deepest document json.loads reads differs between interpreters (about
# 1,000 levels less the caller's stack on 3.10 and 3.11, more from 3.12), so
# a stated budget below all of them makes the refusal the same everywhere.
MAX_JSON_DEPTH = 512


def _too_deep(doc) -> bool:
    """Whether the parsed value nests more than MAX_JSON_DEPTH levels of
    arrays and objects; walked with a stack, not recursion."""
    stack = [(doc, 1)]
    while stack:
        value, level = stack.pop()
        if isinstance(value, dict):
            value = value.values()
        elif not isinstance(value, list):
            continue
        if level > MAX_JSON_DEPTH:
            return True
        stack.extend((v, level + 1) for v in value)
    return False


def load_document(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")  # the bytes are freed before the parse
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ZonotileError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ZonotileError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # an integer longer than the interpreter converts
        raise ZonotileError(f"{path}: a JSON number is too long ({exc})") from exc
    except RecursionError:
        raise ZonotileError(f"{path}: JSON nested too deeply") from None
    # a document has at most as many levels as it has '[' and '{'
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH and _too_deep(doc):
        raise ZonotileError(f"{path}: JSON nested too deeply")
    if not isinstance(doc, dict):
        raise ZonotileError(f"{path}: top-level JSON value must be an object")
    return doc
