"""Config round-trips, built-in fixtures, series and reference CSV files."""

import json
from dataclasses import fields

import pytest

from darl.errors import (
    InsufficientSamples,
    ParseError,
    SchemaError,
    UnknownFixture,
    ValidationError,
)
from darl.ingest import (
    _CONFIG_REQUIRED,
    FIXTURE_NAMES,
    load_config,
    load_fixture,
    load_reference_csv,
    load_series_csv,
)
from darl.model import ExperimentConfig
from darl.stats import relative_error


def config_doc(**overrides):
    doc = {
        "t_in_c": 31.01,
        "t_end_c": 25.81,
        "t_w_c": 24.28,
        "t_w_uncertainty_c": 0.09,
        "total_length_m": 5.4,
        "target_lengths_m": [2.5, 3.4, 4.4],
        "seeds": [3, 5, 17, 257, 65537],
        "sort_order": "descending",
        "darl_mode": "as-printed",
    }
    doc.update(overrides)
    return json.dumps(doc).encode("utf-8")


def test_load_config_experiment_a_document():
    config = load_config(config_doc())
    assert config.t_in_c == 31.01
    assert config.t_end_c == 25.81
    assert config.t_w_c == 24.28
    assert config.total_length_m == 5.4
    assert config.target_lengths_m == (2.5, 3.4, 4.4)
    assert config.seeds == (3, 5, 17, 257, 65537)
    assert config.n_override is None


def test_load_config_rejects_equal_boundaries():
    with pytest.raises(ValidationError):
        load_config(config_doc(t_end_c=31.01))


def test_load_config_rejects_target_beyond_length():
    with pytest.raises(ValidationError):
        load_config(config_doc(total_length_m=8.3, target_lengths_m=[9.0]))


def test_load_config_malformed_json():
    with pytest.raises(ParseError):
        load_config(b"{not json")


def test_load_config_missing_key():
    doc = json.loads(config_doc())
    del doc["t_w_c"]
    with pytest.raises(SchemaError, match="t_w_c"):
        load_config(json.dumps(doc).encode())


def test_load_config_unknown_key():
    doc = json.loads(config_doc())
    doc["t_in_f"] = 90.0
    with pytest.raises(SchemaError, match="t_in_f"):
        load_config(json.dumps(doc).encode())


def test_config_round_trip():
    cases = [
        load_config(config_doc()),
        load_config(config_doc(n_override=538, sort_order="ascending")),
        load_config(config_doc(seeds=[5, 17], darl_mode="span-over-phi-r2")),
    ]
    for config in cases:
        assert load_config(json.dumps(vars(config)).encode()) == config


def test_config_schema_declared_once():
    # the dataclass is the schema: key types, required keys and dump order follow it
    names = [f.name for f in fields(ExperimentConfig)]
    for f in fields(ExperimentConfig):
        with pytest.raises(SchemaError, match=f"config key {f.name} must be"):
            load_config(config_doc(**{f.name: "x" if f.type != "str" else 1}))
    assert _CONFIG_REQUIRED == ("t_in_c", "t_end_c", "t_w_c", "total_length_m", "target_lengths_m")
    config = load_config(config_doc(n_override=538))
    dumped = json.dumps(vars(config)).encode()
    assert list(json.loads(dumped)) == names
    assert load_config(dumped) == config


def test_round_trip_defaults_applied():
    doc = {
        "t_in_c": 31.01, "t_end_c": 25.81, "t_w_c": 24.28,
        "total_length_m": 5.4, "target_lengths_m": [2.5],
    }
    config = load_config(json.dumps(doc).encode())
    assert config.seeds == (3, 5, 17, 257, 65537)
    assert config.sort_order == "descending"
    assert load_config(json.dumps(vars(config)).encode()) == config


def test_load_fixture_experiment_a():
    fixture = load_fixture("experiment-a")
    config = fixture.config
    assert (config.t_in_c, config.t_end_c, config.t_w_c) == (31.01, 25.81, 24.28)
    assert config.total_length_m == 5.4
    assert config.target_lengths_m == (2.5, 3.4, 4.4)
    assert config.seeds == (3, 5, 17, 257, 65537)
    assert fixture.reference == ((2.5, 28.80), (3.4, 27.37), (4.4, 26.67))
    assert fixture.reported_rmse_c == 0.5096
    assert len(fixture.reported_rows) == 3


def test_load_fixture_experiment_b():
    fixture = load_fixture("experiment-b")
    assert fixture.config.t_end_c == 24.54
    assert fixture.config.total_length_m == 8.3
    assert fixture.config.target_lengths_m == (2.5, 3.4, 4.4, 5.4)
    assert fixture.reference == ((2.5, 28.66), (3.4, 27.48), (4.4, 26.58), (5.4, 25.74))
    assert fixture.reported_rmse_c == 1.3088
    assert {row.seed for row in fixture.reported_rows} == {5, 17}


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        load_fixture("experiment-c")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_self_consistency(name):
    # back-computed observations must reproduce the published error column
    fixture = load_fixture(name)
    observed = dict(fixture.reference)
    for row in fixture.reported_rows:
        t_obs = observed[row.target_length_m]
        for sim in (t_obs + row.delta_t_c, t_obs - row.delta_t_c):
            err = relative_error(t_obs, sim)
            assert abs(err - row.relative_error_pct) <= 0.01


def test_load_series_csv():
    values = load_series_csv(b"Ordered_Value\n1.5\n2.5\n")
    assert values.tolist() == [1.5, 2.5]
    with pytest.raises(SchemaError):
        load_series_csv(b"Wrong_Header\n1.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_series_csv(b"Ordered_Value\n1.0\nxyz\n")
    with pytest.raises(ParseError, match="row 2: non-finite"):
        load_series_csv(b"Ordered_Value\n1.0\n-inf\n")
    with pytest.raises(ParseError, match="not valid UTF-8"):
        load_series_csv(b"Ordered_Value\n1.0\n\xff\n")
    with pytest.raises(InsufficientSamples):
        load_series_csv(b"Ordered_Value\n")


def test_load_reference_csv():
    rows = load_reference_csv(b"length_m,t_obs_c\n2.5,28.8\n3.4,27.37\n")
    assert rows == [(2.5, 28.8), (3.4, 27.37)]
    with pytest.raises(SchemaError):
        load_reference_csv(b"length,t\n2.5,28.8\n")
    with pytest.raises(ParseError):
        load_reference_csv(b"length_m,t_obs_c\n2.5,bad\n")
    with pytest.raises(ParseError, match="row 1: non-finite"):
        load_reference_csv(b"length_m,t_obs_c\nnan,28.8\n")
    with pytest.raises(ParseError, match="not valid UTF-8"):
        load_reference_csv(b"length_m,t_obs_c\n2.5,\xfe28.8\n")
    with pytest.raises(ValidationError):
        load_reference_csv(b"length_m,t_obs_c\n")
    with pytest.raises(ParseError, match="row 3: duplicate length 2.5"):
        load_reference_csv(b"length_m,t_obs_c\n2.5,28.8\n3.4,27.37\n2.50,26.67\n")

