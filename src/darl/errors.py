"""Exception hierarchy shared by all darl modules.

Everything raised on purpose derives from :class:`DarlError`, so callers
(and the CLI) can distinguish expected failures from bugs. Errors caused
by numerically meaningless inputs (zero variance, vanishing denominators)
derive from :class:`NumericalDegeneracy`; the CLI maps that family to its
own exit code.
"""


class DarlError(Exception):
    """Base class for all errors raised by this package."""


class NumericalDegeneracy(DarlError):
    """Input is syntactically fine but numerically meaningless."""


class DegenerateAbscissa(NumericalDegeneracy):
    """All x values coincide; the regression slope is undefined."""


class DegenerateVariance(NumericalDegeneracy):
    """All values coincide; a variance-based statistic is undefined."""


class Singularity(NumericalDegeneracy):
    """A model denominator is exactly zero."""


class InvalidCoefficient(NumericalDegeneracy):
    """A coefficient of determination outside its admissible range."""


class DivisionByZero(NumericalDegeneracy):
    """Relative error requested against a zero observed value."""


class InsufficientSamples(DarlError):
    """Fewer samples than the operation can work with."""


class InvalidBounds(DarlError):
    """Lower bound exceeds upper bound."""


class UnsupportedSampleSize(DarlError):
    """Sample size outside the supported range of the normality test."""


class ShapeMismatch(DarlError):
    """Paired vectors have different lengths."""


class MissingReference(DarlError):
    """A prediction has no matching reference observation."""


class SchemaError(DarlError):
    """A document is missing required columns/fields or has unknown ones."""


class ValidationError(DarlError):
    """A semantic constraint on a configuration value is violated."""


class ParseError(DarlError):
    """A document cannot be parsed against its schema."""


class UnknownFixture(DarlError):
    """No built-in fixture with the requested name."""
