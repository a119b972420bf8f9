"""zonotile: exact multi-tiling decisions for planar zonotopes.

Decide whether a centrally symmetric convex polygon admits translational
multi-tilings, construct witness and canonical lattices, and certify
covering multiplicities with an independent exact brute-force verifier.
The reference checks the answers are held to live in
:mod:`zonotile.oracles`, which no other module imports.
"""

from .covering import Box, Polygon, TranslateSet, VerifyReport, WindowPattern, verify_covering
from .criteria import (
    BollePair,
    BolleReport,
    CanonicalLattice,
    Decision,
    bolle_check,
    canonical_lattice,
    decide_multitiling,
)
from .errors import (
    FieldError,
    GeometryError,
    IncommensurableError,
    InternalError,
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
    intersect,
    vector,
)
from .oracles import (
    AccountingError,
    BoundaryError,
    RationalityError,
    covering_at,
    integer_span,
    lattice_multiplicity,
    lattice_points_in_box,
    line_meets_lattice,
    rational_rank,
    right_kernel,
    strip_profile,
    sublattice_avoiding_coset,
    superlattice_meeting_line,
)
from .patterns import BUILTIN_NAMES, builtin_scene
from .zonotope import Zonotope

__version__ = "0.1.0"
