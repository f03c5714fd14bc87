"""Exception hierarchy shared by all ordeq modules."""


class OrdeqError(Exception):
    """Base class for every error raised by this package."""


class DuplicateElement(OrdeqError):
    """An element identifier occurs more than once."""


class UnknownElement(OrdeqError):
    """An identifier does not name an element of the relevant poset or subset."""


class CycleDetected(OrdeqError):
    """The closed relation violates antisymmetry (a <= b and b <= a for a != b)."""


class EmptySubset(OrdeqError):
    """An operation that requires a nonempty subset received an empty one."""


class UtilityNotTotal(OrdeqError):
    """A scalar saddle check was requested but the utility poset is not a total order."""


class ZeroExtent(OrdeqError):
    """A grid dimension with extent < 1 was requested."""


class InvalidSpec(OrdeqError):
    """A generator specification is malformed or exceeds the configured caps."""


class FilterExhausted(OrdeqError):
    """Rejection sampling hit its retry cap without meeting the requested filter."""


class HypothesisFailed(OrdeqError):
    """Solver preconditions do not hold and the run was not forced."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoSolution(OrdeqError):
    """A forced solve found no solution in the requested region."""


class ParseError(OrdeqError):
    """An instance file could not be read as structured data."""


class ValidationError(OrdeqError):
    """Structured data was read but does not describe a valid object."""


class InvariantBreach(OrdeqError):
    """An internal invariant failed; always a bug, never a property of the input."""
