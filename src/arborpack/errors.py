"""Exception hierarchy shared across the package.

Input and parameter problems are the caller's fault and map to CLI exit
code 2; everything else signals a broken internal invariant or an
operation that could not complete, and maps to exit code 1.
"""


class ArborError(Exception):
    """Base class for all package errors."""


class InputError(ArborError):
    """Malformed graph input (bad ids, bad capacities, parse failures)."""


class ParameterError(ArborError):
    """A parameter is outside its documented domain."""


class ScaleError(ParameterError):
    """An exhaustive oracle was asked to enumerate beyond its size limit."""


class EmptySampleError(ParameterError):
    """Sampling was requested from an empty edge set."""


class UnsupportedGraphError(ParameterError):
    """The operation does not support this class of graph."""


class InternalError(ArborError):
    """An internal consistency check failed (a bug, not a user error)."""


class InvariantError(InternalError):
    """A maintained algorithm invariant was found violated at runtime."""


class HalvingViolation(InternalError):
    """Hierarchy construction exceeded its level budget."""


class PropertyOneError(InternalError):
    """A color class failed to span the graph during tree extraction."""


class RoutingError(ArborError):
    """A demand's root cannot reach one of its terminals inside its
    component."""
