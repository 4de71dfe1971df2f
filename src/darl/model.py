"""DARL model core: synthetic series, temperature predictor, experiment runs.

A run draws one sorted bounded series per seed over the full exchanger
length, fits a single regression line per (seed, configuration), evaluates
the fitted temperature at each target length, and feeds it through the
temperature predictor.

The predictor is evaluated exactly as published:

    T = [((t_max - t_min) / (t_phi - t_w)) * (1 / r_squared)] * t_w + t_phi

For realistic boundary temperatures this expression leaves the physical
bracket [min(t_min, t_w), t_max] by a wide margin, so every prediction
carries an out-of-range flag instead of being clamped or corrected.
:data:`DARL_MODES` is the tuple of reading names, in report order: the
printed one and, as the non-default mode ``span-over-phi-r2``, one that
divides the temperature span by t_phi * r_squared instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import DivisionByZero, NumericalDegeneracy, SchemaError, Singularity, ValidationError
from .prng import (KNOWN_FERMAT_PRIMES, MAX_SAMPLE_COUNT, SORT_ORDERS, TEMPERATURE_LIMIT_C,
                   uniform_series)
from .regression import LinearFit, fit_lines, predict_at
from .stats import relative_error, rmse

#: Longest pipe accepted, metres: MAX_SAMPLE_COUNT at one sample per centimetre.
MAX_TOTAL_LENGTH_M = MAX_SAMPLE_COUNT / 100.0

AS_PRINTED = "as-printed"
SPAN_OVER_PHI_R2 = "span-over-phi-r2"


#: Predictor readings, in report order.
DARL_MODES = (AS_PRINTED, SPAN_OVER_PHI_R2)


def darl_temperature(
    t_max: float,
    t_min: float,
    t_w: float,
    t_phi: float,
    r_squared: float,
    mode: str = AS_PRINTED,
) -> tuple[float, bool]:
    """Simulated air temperature and its out-of-physical-range flag.

    The flag is set when the result falls outside [min(t_min, t_w), t_max].
    Raises ValidationError for a NaN or infinite argument or r_squared
    above 1, NumericalDegeneracy for r_squared <= 0 or a result beyond the
    float range, and Singularity when the selected mode's denominator is
    exactly zero.
    """
    if not 0.0 < r_squared <= 1.0:  # also a NaN
        if r_squared <= 0.0:
            raise NumericalDegeneracy(f"r_squared must be positive, got {r_squared}")
        raise ValidationError(f"r_squared must lie in (0, 1], got {r_squared}")
    if mode not in DARL_MODES:
        raise ValidationError(f"unknown predictor mode {mode!r} (registered: {', '.join(DARL_MODES)})")
    span = float(t_max) - float(t_min)
    w, phi, r2 = float(t_w), float(t_phi), float(r_squared)
    if mode == AS_PRINTED:
        den = phi - w
        if den == 0.0:
            raise Singularity("t_phi equals t_w; the predictor denominator vanishes")
        t_sim = (span / den) * (1.0 / r2) * w + phi
    else:
        den = phi * r2
        if den == 0.0:
            raise Singularity("t_phi * r_squared vanishes; the variant denominator is zero")
        t_sim = (span / den) * w + phi
    if not math.isfinite(t_sim):  # a non-finite argument always makes it so; only then are they read
        if not all(map(math.isfinite, (t_max, t_min, t_w, t_phi))):
            raise ValidationError("predictor arguments must be finite numbers")
        raise NumericalDegeneracy(f"the predicted temperature overflows the float range (got {t_sim})")
    out_of_range = not (min(t_min, t_w) <= t_sim <= t_max)
    return t_sim, out_of_range


#: JSON reading of a config field annotation: the type's name and the Python types it admits.
_JSON_KINDS = {"float": ("a number", (int, float)), "int": ("an integer", int), "str": ("a string", str)}


def _json_value(key: str, value, annotation: str):
    """``value`` checked against the JSON type its field annotation names.

    ``float`` is a finite number, ``int`` an integer and ``str`` a string;
    ``bool`` is none of them. ``tuple[T, ...]`` is an array of T, stored as a
    tuple with its numbers as floats, and ``T | None`` also admits null.
    Raises SchemaError.
    """
    if annotation.endswith(" | None"):
        return None if value is None else _json_value(key, value, annotation[:-len(" | None")])
    if annotation.startswith("tuple["):
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"config key {key} must be an array, got {type(value).__name__}")
        item = annotation[len("tuple["):-len(", ...]")]
        items = [_json_value(key, v, item) for v in value]
        return tuple(map(float, items)) if item == "float" else tuple(items)
    kind, types = _JSON_KINDS[annotation]
    if isinstance(value, bool) or not isinstance(value, types):
        raise SchemaError(f"config key {key} must be {kind}, got {type(value).__name__}")
    # NaN, infinities and integers beyond the float range fail the comparison
    if annotation == "float" and not abs(value) <= sys.float_info.max:
        raise SchemaError(f"config key {key} must be a finite number")
    return value


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Boundary temperatures, geometry and run controls for one experiment.

    Field names carry their unit suffix and match the JSON config schema
    one to one; the field order is the order of the report's config echo,
    the fields without a default are the schema's required keys, and each
    annotation gives the key's JSON type. A config that exists is valid.
    """

    t_in_c: float                       # inlet air temperature (= t_max)
    t_end_c: float                      # terminal sensor temperature (= t_min)
    t_w_c: float                        # groundwater temperature
    t_w_uncertainty_c: float = 0.0
    total_length_m: float
    target_lengths_m: tuple[float, ...]
    seeds: tuple[int, ...] = KNOWN_FERMAT_PRIMES
    n_override: int | None = None
    sort_order: str = "descending"
    darl_mode: str = AS_PRINTED

    def __post_init__(self):
        """Each field against its annotation (SchemaError), then the invariants (ValidationError)."""
        for f in fields(self):
            object.__setattr__(self, f.name, _json_value(f.name, getattr(self, f.name), f.type))
        for key in ("t_in_c", "t_end_c", "t_w_c"):
            if not abs(getattr(self, key)) <= TEMPERATURE_LIMIT_C:
                raise ValidationError(f"{key} must lie within ±{TEMPERATURE_LIMIT_C:g} degrees C")
        if not self.total_length_m > 0.0:
            raise ValidationError(f"total_length_m must be positive, got {self.total_length_m}")
        if not self.t_in_c > self.t_end_c:
            raise ValidationError(
                f"t_in_c ({self.t_in_c}) must exceed t_end_c ({self.t_end_c}): "
                "the exchanger cools the air"
            )
        if not self.target_lengths_m:
            raise ValidationError("target length list must be nonempty")
        for x in self.target_lengths_m:
            if not 0.0 < x < self.total_length_m:
                raise ValidationError(f"target length {x} m outside (0, {self.total_length_m})")
        if not self.seeds:
            raise ValidationError("seed list must be nonempty")
        for s in self.seeds:
            if s not in KNOWN_FERMAT_PRIMES:
                raise ValidationError(f"seed {s} is not a known Fermat prime {KNOWN_FERMAT_PRIMES}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("seed list contains duplicates")
        if len(set(self.target_lengths_m)) != len(self.target_lengths_m):
            raise ValidationError("target length list contains duplicates")
        if self.t_w_uncertainty_c < 0.0:
            raise ValidationError("t_w_uncertainty_c must be nonnegative")
        if self.n_override is not None and self.n_override < 2:
            raise ValidationError(f"n_override must be at least 2, got {self.n_override}")
        if self.sample_count() < 2:  # sample_count raises beyond MAX_SAMPLE_COUNT
            raise ValidationError(f"total_length_m {self.total_length_m} gives fewer than 2 samples")
        if self.total_length_m > MAX_TOTAL_LENGTH_M:  # an n_override bounds n, not the grid
            raise ValidationError(
                f"total_length_m {self.total_length_m} exceeds the maximum of {MAX_TOTAL_LENGTH_M:g} m")
        if self.sort_order not in SORT_ORDERS:
            raise ValidationError(f"sort_order must be one of {SORT_ORDERS}")
        if self.darl_mode not in DARL_MODES:
            raise ValidationError(f"darl_mode {self.darl_mode!r} is not registered")

    def sample_count(self) -> int:
        """Series length: the override if given, else one value per centimetre.

        Bounded by MAX_SAMPLE_COUNT before int(), which overflows for 1e307 m.
        """
        n = self.n_override if self.n_override is not None else 100.0 * self.total_length_m
        if not n <= MAX_SAMPLE_COUNT:
            raise ValidationError(f"series length {n} exceeds the maximum of {MAX_SAMPLE_COUNT} samples")
        return int(round(n))


@dataclass(frozen=True)
class PredictionRecord:
    seed: int
    target_length_m: float
    t_phi_c: float        # regression prediction at the target length
    r_squared: float
    t_sim_c: float        # predictor output
    out_of_range: bool


@dataclass(frozen=True)
class ComparisonRecord:
    seed: int
    target_length_m: float
    t_sim_c: float
    t_obs_c: float
    delta_t_c: float           # |t_sim - t_obs|
    relative_error_pct: float


def build_series(config: ExperimentConfig, seed: int) -> np.ndarray:
    """The seed's synthetic series: a sorted bounded uniform sample between t_end and t_in."""
    return uniform_series(seed, config.sample_count(), config.t_end_c, config.t_in_c, config.sort_order)


@dataclass(frozen=True)
class SeedFit:
    """One seed's series values and its fit."""

    seed: int
    values: np.ndarray
    fit: LinearFit


def fit_seeds(config: ExperimentConfig) -> list[SeedFit]:
    """One series and one fit per seed, in seed order; a degenerate series raises.

    Every seed is fitted against one length grid, x_i = i*L/(n-1) over [0, L], in one fit_lines call.
    """
    n = config.sample_count()
    grid = np.arange(n, dtype=np.float64) * config.total_length_m / (n - 1)
    seeds = sorted(config.seeds)
    series = [build_series(config, seed) for seed in seeds]
    return [SeedFit(*item) for item in zip(seeds, series, fit_lines(grid, series))]


def predict(config: ExperimentConfig, fits: Iterable[SeedFit]) -> list[PredictionRecord]:
    """Predictions under ``config.darl_mode`` at every target length, per seed."""
    records: list[PredictionRecord] = []
    for sf in fits:
        for x in sorted(config.target_lengths_m):
            t_phi = predict_at(sf.fit, x)
            t_sim, flagged = darl_temperature(
                config.t_in_c, config.t_end_c, config.t_w_c,
                t_phi, sf.fit.r_squared, mode=config.darl_mode,
            )
            records.append(PredictionRecord(
                seed=sf.seed, target_length_m=x, t_phi_c=t_phi,
                r_squared=sf.fit.r_squared, t_sim_c=t_sim, out_of_range=flagged,
            ))
    return records


def compare_with_reference(
    records: Sequence[PredictionRecord],
    reference: Iterable[tuple[float, float]],
) -> list[ComparisonRecord]:
    """One comparison row per record, in record order.

    Raises ValidationError when a record's target length has no reference
    observation.
    """
    lookup = {float(length): float(t_obs) for length, t_obs in reference}
    comparisons: list[ComparisonRecord] = []
    for rec in records:
        if rec.target_length_m not in lookup:
            raise ValidationError(
                f"no reference observation at {rec.target_length_m} m"
            )
        t_obs = lookup[rec.target_length_m]
        comparisons.append(ComparisonRecord(
            seed=rec.seed,
            target_length_m=rec.target_length_m,
            t_sim_c=rec.t_sim_c,
            t_obs_c=t_obs,
            delta_t_c=abs(rec.t_sim_c - t_obs),
            relative_error_pct=relative_error(t_obs, rec.t_sim_c),
        ))
    return comparisons


def rank_seeds(comparisons: Iterable[ComparisonRecord]) -> list[tuple[float, int, float]]:
    """(mean relative error %, seed, RMSE degrees C) per seed, best first.

    Ties go to the smaller seed, so ``rank_seeds(c)[0][1]`` is the best seed.
    """
    by_seed: dict[int, list[ComparisonRecord]] = {}
    for c in comparisons:
        by_seed.setdefault(c.seed, []).append(c)
    if not by_seed:
        raise ValidationError("no comparison records to rank")
    ranking = []
    for seed, rows in by_seed.items():
        try:
            mean_err = math.fsum([c.relative_error_pct for c in rows]) / len(rows)  # statistics.fmean's computation
        except OverflowError:
            raise DivisionByZero("mean relative error overflows; an observed value is near zero") from None
        ranking.append((mean_err, seed, rmse([c.t_obs_c for c in rows], [c.t_sim_c for c in rows])))
    return sorted(ranking)
