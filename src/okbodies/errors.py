"""Exception classes shared across the package.

Empty systems, empty polyhedra and non-sections are *statuses*, not
exceptions; only genuine input or usage errors raise.
"""


class OkbodiesError(Exception):
    """Base class for all package errors."""


class UnknownVertex(OkbodiesError):
    pass


class Disconnected(OkbodiesError):
    pass


class DimensionMismatch(OkbodiesError):
    pass


class DimensionTooLarge(OkbodiesError):
    pass


class NonIntegerDivisor(OkbodiesError):
    pass


class NonPositiveDegree(OkbodiesError):
    pass


class EmptySystemError(OkbodiesError):
    """Raised only where an empty system cannot be reported as a value."""


class InfeasibleEverywhere(OkbodiesError):
    pass


class UnboundedValue(OkbodiesError):
    pass


class UnboundedGenericPolytope(OkbodiesError):
    pass


class OutsideGenericPolytope(OkbodiesError):
    pass


class NotABasis(OkbodiesError):
    pass


class FlagRayUnknown(OkbodiesError):
    pass


class InvalidToricModel(OkbodiesError):
    pass


class SchemaError(OkbodiesError):
    pass


class BadRational(OkbodiesError):
    pass


class WindowEmpty(OkbodiesError):
    pass


class ConsistencyError(OkbodiesError):
    """Two independent algorithms disagreed; always a bug, never user error."""
