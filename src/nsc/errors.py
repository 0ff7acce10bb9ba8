"""Exception hierarchy shared across the package."""


class NscError(Exception):
    """Base class for all package errors."""


class ValidationError(NscError):
    """Malformed input data (curve specs, divisors, presentations)."""


class TruncationError(NscError):
    """A coefficient beyond the sound truncation window was requested."""


class CohomologyError(NscError):
    """A section solve failed because the relevant cohomology obstructs it."""


class InternalInconsistencyError(NscError):
    """An internal invariant was violated; indicates a bug, not bad input."""
