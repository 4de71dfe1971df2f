"""darl: deterministic random-length temperature model for buried heat exchangers.

Seeded synthetic temperature series, ordinary least squares over pipe
length, a closed-form air temperature predictor, and the validation
statistics used to judge it (Shapiro-Wilk, RMSE, relative error,
quartiles), with built-in experiment fixtures and a CLI.
"""

from .errors import (
    DarlError,
    DegenerateAbscissa,
    DegenerateVariance,
    DivisionByZero,
    InsufficientSamples,
    InvalidBounds,
    InvalidCoefficient,
    MissingReference,
    NumericalDegeneracy,
    ParseError,
    SchemaError,
    ShapeMismatch,
    Singularity,
    UnknownFixture,
    UnsupportedSampleSize,
    ValidationError,
)
from .ingest import FIXTURE_NAMES, Fixture, dump_config, load_config, load_fixture
from .model import (
    AS_PRINTED,
    DARL_MODES,
    SPAN_OVER_PHI_R2,
    ComparisonRecord,
    ExperimentConfig,
    PredictionRecord,
    build_series,
    compare_with_reference,
    darl_temperature,
    rank_seeds,
    run_configuration,
)
from .prng import (
    KNOWN_FERMAT_PRIMES,
    SORT_ORDERS,
    MersenneTwister,
    uniform_series,
)
from .regression import LinearFit, fit_ols, predict_at
from .stats import (
    NormalityResult,
    QuartileSummary,
    quartile_summary,
    relative_error,
    rmse,
    shapiro_wilk,
)

__version__ = "0.1.0"

