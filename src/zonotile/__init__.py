"""zonotile: exact multi-tiling decisions for planar zonotopes.

Decide whether a centrally symmetric convex polygon admits translational
multi-tilings, construct witness and canonical lattices, and certify
covering multiplicities with an independent exact brute-force verifier.
The reference checks the answers are held to live in
:mod:`zonotile.oracles`, which no other module imports.

Names are exported lazily (PEP 562): ``from zonotile import X`` imports
only the module that defines X, so the decision layer loads without the
covering layer.
"""

from importlib import import_module

# the module that defines each exported name
_EXPORTS = {
    "covering": ("Box", "Polygon", "TranslateSet", "VerifyReport", "verify_covering"),
    "criteria": (
        "BollePair", "BolleReport", "CanonicalLattice", "Decision", "bolle_check", "canonical_lattice",
        "decide_multitiling",
    ),
    "errors": (
        "FieldError", "GeometryError", "IncommensurableError", "InternalError", "SymmetryError", "WindowError",
        "ZonotileError", "ZonotopeError",
    ),
    "field": ("RATIONALS", "Field", "FieldElement"),
    "lattice": (
        "LATTICE", "NOT_DISCRETE", "RANK_DEFICIENT", "PlaneLattice", "PlaneVector", "SpanAnalysis", "intersect",
        "vector",
    ),
    "oracles": (
        "AccountingError", "BoundaryError", "RationalityError", "covering_at", "covolume", "integer_coords",
        "integer_span", "lattice_coords", "lattice_multiplicity", "lattice_points_in_box", "line_meets_lattice",
        "locate", "pair_translations", "rational_rank", "right_kernel", "strip_profile", "sublattice_avoiding_coset",
        "superlattice_meeting_line",
    ),
    "patterns": ("BUILTIN_NAMES", "builtin_scene"),
    "zonotope": ("Zonotope",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
