"""Exception types shared across the package.

Each error names the invariant it guards; raising sites attach the offending
values so failures in long runs are diagnosable from the message alone.
"""


class KrflowError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(KrflowError):
    """Malformed or out-of-range run configuration (bad key, value, or section)."""


class NonPositiveDensity(KrflowError):
    """A volume density that must be strictly positive is not."""


class SingularMetric(KrflowError):
    """A metric matrix field failed a positivity/invertibility check."""


class SingularFiberMetric(KrflowError):
    """The fiber block of an initial metric degenerates somewhere on the grid."""


class PositivityLost(KrflowError):
    """The evolving form left the positive cone (relative eigenvalue below threshold)."""


class NonFiniteValue(KrflowError):
    """NaN/Inf appeared in a field that must stay finite."""


class OutOfDomain(KrflowError):
    """A requested point lies outside the chart or grid it was addressed to."""


class InsufficientSamples(KrflowError):
    """A fit window contains too few monitor samples to regress."""


class SnapshotCorrupt(KrflowError):
    """A snapshot or monitor CSV failed its format checks (magic, size, header, cells)."""
