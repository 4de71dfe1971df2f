"""darl: deterministic random-length temperature model for buried heat exchangers.

Seeded synthetic temperature series, ordinary least squares over pipe
length, a closed-form air temperature predictor, and the validation
statistics used to judge it (Shapiro-Wilk, RMSE, relative error,
quartiles), with built-in experiment fixtures and a CLI.
"""

import os as _os
import sys as _sys

# numpy's OpenBLAS starts a worker pool that spins idle for ~0.1 s of CPU, and darl's BLAS calls are small 1-D dots:
# load numpy with one thread unless it is loaded or a count was chosen. OpenBLAS reads the variable only at load.
_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in _sys.modules and not _THREAD_VARS & set(_os.environ):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
from .ingest import FIXTURE_NAMES, Fixture, load_config, load_fixture
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

