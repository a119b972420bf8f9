"""zonotile: exact multi-tiling decisions for planar zonotopes.

Decide whether a centrally symmetric convex polygon admits translational
multi-tilings, construct witness and canonical lattices, and certify
covering multiplicities with an independent exact brute-force verifier.
"""

from .covering import (
    Box,
    Polygon,
    TranslateSet,
    VerifyReport,
    WindowPattern,
    covering_at,
    lattice_points_in_box,
    strip_profile,
    verify_covering,
)
from .criteria import (
    BollePair,
    BolleReport,
    CanonicalLattice,
    Decision,
    bolle_check,
    canonical_lattice,
    decide_multitiling,
    lattice_multiplicity,
)
from .errors import (
    AccountingError,
    BoundaryError,
    FieldError,
    GeometryError,
    IncommensurableError,
    InternalError,
    RationalityError,
    SymmetryError,
    WindowError,
    ZonotileError,
    ZonotopeError,
)
from .field import RATIONALS, Field, FieldElement
from .lattice import (
    LATTICE,
    NOT_DISCRETE,
    RANK_DEFICIENT,
    PlaneLattice,
    PlaneVector,
    SpanAnalysis,
    integer_span,
    intersect,
    line_meets_lattice,
    rational_rank,
    sublattice_avoiding_coset,
    superlattice_meeting_line,
    vector,
)
from .patterns import BUILTIN_NAMES, builtin_scene
from .zonotope import Zonotope

__version__ = "0.1.0"
