"""Exception types of the pipeline; the reference checks' own are in :mod:`zonotile.oracles`."""


class ZonotileError(Exception):
    """Base class for all errors raised by this package."""


class FieldError(ZonotileError, ValueError):
    """Bad field descriptor, mixed-field operands, or unrepresentable input."""


class GeometryError(ZonotileError, ValueError):
    """A geometric precondition does not hold."""


class IncommensurableError(GeometryError):
    """Lattices share no full-rank superlattice; the operation is refused."""


class ZonotopeError(GeometryError):
    """Invalid generator list for a zonotope."""


class SymmetryError(ZonotopeError):
    """Vertex list is not a centrally symmetric convex polygon."""


class WindowError(GeometryError):
    """A verification window is empty or too small for the polygon."""


class InternalError(RuntimeError):
    """An internal invariant does not hold: a bug, not bad input.

    It is deliberately not a :class:`ZonotileError`, so the command line
    reports it as an internal error (exit 3), never as malformed input."""
