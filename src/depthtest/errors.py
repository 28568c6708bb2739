"""Exception hierarchy shared across the package."""


class DepthTestError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DepthTestError):
    """Two samples (or a query and a reference) disagree in column count."""


class SingularCovariance(DepthTestError):
    """Reference sample covariance is not positive definite."""


class DegenerateSample(DepthTestError):
    """Sample carries no usable spread for the requested depth."""


class SizeLimit(DepthTestError):
    """Input exceeds a hard cap: the brute-force oracles' 64 rows, or the element
    cap (energy's largest distance block, projection scores, a simulated sample)."""


class SingularScatter(DepthTestError):
    """Pooled within-group scatter matrix is not invertible."""


class DomainError(DepthTestError):
    """Argument outside the mathematical domain of the operation."""


class UnknownStatistic(DepthTestError):
    """Statistic name unknown, undefined at this group count, or repeated."""


class ParseError(DepthTestError):
    """Malformed input file; message carries row/column context."""


class MissingGroupColumn(ParseError):
    """The requested group column is absent from the file."""


class NonNumericCell(ParseError):
    """A data cell failed to parse as a decimal real."""
