"""Config files, built-in fixtures, and series and reference CSV files."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientSamples,
    ParseError,
    SchemaError,
    UnknownFixture,
    ValidationError,
)
from .model import ExperimentConfig
from .prng import TEMPERATURE_LIMIT_C

FIXTURE_NAMES = ("experiment-a", "experiment-b")

_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_CONFIG_REQUIRED = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


def _decode(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None


def _finite(cell: str, idx: int) -> float:
    """A finite CSV number within ±TEMPERATURE_LIMIT_C (lengths are far smaller)."""
    if "_" in cell or not cell.isascii():  # float() also reads "2_5" and non-ASCII digits
        raise ParseError(f"row {idx}: unparseable numeric value")
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"row {idx}: unparseable numeric value") from None
    if not math.isfinite(value):
        raise ParseError(f"row {idx}: non-finite value")
    if abs(value) > TEMPERATURE_LIMIT_C:
        raise ParseError(f"row {idx}: value {value:g} beyond ±{TEMPERATURE_LIMIT_C:g}")
    return value


def _config_from_mapping(doc: dict) -> ExperimentConfig:
    """Required and unknown keys checked here; the constructor checks the values."""
    if not isinstance(doc, dict):
        raise SchemaError(f"config document must be an object, got {type(doc).__name__}")
    for key in _CONFIG_REQUIRED:
        if key not in doc:
            raise SchemaError(f"config lacks required key {key}")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise SchemaError(f"config has unknown key {key}")
    return ExperimentConfig(**doc)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; SchemaError for a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"config repeats key {key}")
        doc[key] = value
    return doc


def load_config(data: bytes) -> ExperimentConfig:
    """Parse an experiment config from JSON bytes; ExperimentConfig checks it."""
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # also an integer literal beyond int's 4,300-digit parse limit
        raise ParseError(f"config is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("config is nested too deeply to parse") from None
    return _config_from_mapping(doc)


@dataclass(frozen=True)
class ReportedRow:
    """One published comparison row: seed, |ΔT| and relative error at a length."""

    target_length_m: float
    seed: int
    delta_t_c: float
    relative_error_pct: float


@dataclass(frozen=True)
class Fixture:
    """A built-in experiment: config, reference observations, published results."""

    name: str
    config: ExperimentConfig
    reference: tuple[tuple[float, float], ...]    # (length m, t_obs degrees C)
    reported_rows: tuple[ReportedRow, ...]
    reported_rmse_c: float


def load_fixture(name: str) -> Fixture:
    """Load a packaged fixture by name; UnknownFixture for anything else."""
    if name not in FIXTURE_NAMES:
        known = ", ".join(FIXTURE_NAMES)
        raise UnknownFixture(f"unknown fixture {name!r} (built-ins: {known})")
    doc = json.loads((Path(__file__).parent / "fixtures" / "v1" / f"{name}.json").read_bytes())
    config = _config_from_mapping(doc["config"])
    reference = tuple((float(x), float(t)) for x, t in doc["reference"])
    rows = tuple(
        ReportedRow(
            target_length_m=float(r["target_length_m"]),
            seed=int(r["seed"]),
            delta_t_c=float(r["delta_t_c"]),
            relative_error_pct=float(r["relative_error_pct"]),
        )
        for r in doc["reported"]["rows"]
    )
    return Fixture(
        name=name,
        config=config,
        reference=reference,
        reported_rows=rows,
        reported_rmse_c=float(doc["reported"]["rmse_c"]),
    )


def load_series_csv(data: bytes) -> np.ndarray:
    """Parse a single-column series CSV with an Ordered_Value header."""
    text = _decode(data, "series file")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaError("series file is empty; Ordered_Value header required")
    if lines[0].strip('"') != "Ordered_Value":
        raise SchemaError(f"series header must be Ordered_Value, got {lines[0]!r}")
    values = [_finite(line, idx) for idx, line in enumerate(lines[1:], start=1)]
    if not values:
        raise InsufficientSamples("series file has no values")
    return np.asarray(values, dtype=np.float64)


def load_reference_csv(data: bytes) -> list[tuple[float, float]]:
    """Parse reference observations from CSV with columns length_m,t_obs_c."""
    text = _decode(data, "reference file")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaError("reference file is empty; header row required")
    header = [cell.strip().strip('"') for cell in lines[0].split(",")]
    if header != ["length_m", "t_obs_c"]:
        raise SchemaError(f"reference header must be length_m,t_obs_c, got {header}")
    out: dict[float, float] = {}
    for idx, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(f"row {idx}: expected 2 cells, got {len(cells)}")
        length = _finite(cells[0], idx)
        if length in out:
            raise ParseError(f"row {idx}: duplicate length {length} m")
        out[length] = _finite(cells[1], idx)
    if not out:
        raise ValidationError("reference file has no observation rows")
    return list(out.items())
