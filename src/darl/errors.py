"""Exception hierarchy shared by all darl modules.

Everything raised on purpose derives from :class:`DarlError`, so callers
(and the CLI) can distinguish expected failures from bugs. Errors caused
by numerically meaningless inputs (zero variance, vanishing denominators,
sums that under- or overflow) derive from :class:`NumericalDegeneracy`;
the CLI maps that family to exit code 4 and every other DarlError to 2.
"""


class DarlError(Exception):
    """Base class for all errors raised by this package."""


class NumericalDegeneracy(DarlError):
    """Input is syntactically fine but numerically meaningless."""


class Singularity(NumericalDegeneracy):
    """A model denominator is exactly zero."""


class DivisionByZero(NumericalDegeneracy):
    """Relative error requested against a zero observed value."""


class UnsupportedSampleSize(DarlError):
    """Sample size outside the supported range of the normality test."""


class SchemaError(DarlError):
    """A document is missing required columns/fields or has unknown ones."""


class ValidationError(DarlError):
    """A value, size, bound or file that violates a constraint: an unreadable
    or oversized file, too few samples, mismatched lengths, bounds out of
    order, a missing reference, or a NaN or infinite number."""


class UnknownFixture(DarlError):
    """No built-in fixture with the requested name."""
