"""Predictor arithmetic, experiment configs, runs and seed selection."""

import math
import random

import numpy as np
import pytest

import darl.model
from darl.errors import (
    DegenerateVariance,
    DivisionByZero,
    InsufficientSamples,
    InvalidCoefficient,
    MissingReference,
    SchemaError,
    Singularity,
    ValidationError,
)
from darl.model import (
    AS_PRINTED,
    DARL_MODES,
    SPAN_OVER_PHI_R2,
    ComparisonRecord,
    ExperimentConfig,
    PredictionRecord,
    build_series,
    compare_with_reference,
    darl_temperature,
    fit_seeds,
    rank_seeds,
    run_configuration,
)
from darl.prng import MAX_SAMPLE_COUNT, uniform_series
from darl.regression import fit_lines, fit_ols


def config_a(**overrides):
    base = dict(
        t_in_c=31.01,
        t_end_c=25.81,
        t_w_c=24.28,
        t_w_uncertainty_c=0.09,
        total_length_m=5.4,
        target_lengths_m=(2.5, 3.4, 4.4),
        seeds=(3, 5, 17, 257, 65537),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def config_b(**overrides):
    return config_a(
        t_end_c=24.54, total_length_m=8.3, target_lengths_m=(2.5, 3.4, 4.4, 5.4),
        **overrides,
    )


def test_predictor_zero_span_collapses_to_t_phi():
    rng = random.Random(11)
    for _ in range(25):
        t = rng.uniform(10.0, 40.0)
        t_w = rng.uniform(5.0, 35.0)
        t_phi = rng.uniform(5.0, 45.0)
        if t_phi == t_w:
            continue
        r_squared = rng.uniform(0.05, 1.0)
        t_sim, _ = darl_temperature(t, t, t_w, t_phi, r_squared)
        assert t_sim == t_phi


def test_predictor_singularity():
    with pytest.raises(Singularity):
        darl_temperature(31.01, 25.81, 24.28, 24.28, 0.95)


def test_variant_predictor_singularity():
    with pytest.raises(Singularity, match="t_phi \\* r_squared vanishes"):
        darl_temperature(31.01, 25.81, 24.28, 0.0, 0.95, mode=SPAN_OVER_PHI_R2)


def test_predictor_invalid_coefficient():
    with pytest.raises(InvalidCoefficient):
        darl_temperature(31.01, 25.81, 24.28, 28.0, 0.0)
    with pytest.raises(InvalidCoefficient):
        darl_temperature(31.01, 25.81, 24.28, 28.0, -0.5)


def test_predictor_derived_case():
    # (5.20 / 3.72) * (1 / 0.95) * 24.28 + 28.00
    t_sim, flagged = darl_temperature(31.01, 25.81, 24.28, 28.00, 0.95)
    assert abs(t_sim - 63.726089417091146) < 1e-12
    assert abs(t_sim - 63.726) < 1e-3
    assert flagged


def test_predictor_in_range_case_not_flagged():
    t_sim, flagged = darl_temperature(31.01, 30.99, 24.28, 28.0, 0.95)
    assert 24.28 <= t_sim <= 31.01
    assert not flagged


def test_predictor_monotone_decreasing_in_r_squared():
    previous = None
    for r_squared in (0.2, 0.4, 0.6, 0.8, 1.0):
        t_sim, _ = darl_temperature(31.01, 25.81, 24.28, 28.0, r_squared)
        if previous is not None:
            assert t_sim < previous
        previous = t_sim


def test_variant_mode_arithmetic():
    t_sim, _ = darl_temperature(31.01, 25.81, 24.28, 28.0, 0.95, mode=SPAN_OVER_PHI_R2)
    expected = (31.01 - 25.81) / (28.0 * 0.95) * 24.28 + 28.0
    assert t_sim == expected


def test_unknown_mode_rejected():
    with pytest.raises(ValidationError):
        darl_temperature(31.01, 25.81, 24.28, 28.0, 0.95, mode="telepathy")
    with pytest.raises(ValidationError):
        darl_temperature(31.01, 25.81, 24.28, 28.0, 0.95, mode=["as-printed"])


def test_mode_registry_contents():
    assert AS_PRINTED in DARL_MODES
    assert SPAN_OVER_PHI_R2 in DARL_MODES


def test_config_validation_accepts_fixture_shapes():
    config_a()
    config_b()


@pytest.mark.parametrize("overrides", [
    {"t_end_c": 31.01},                     # t_in must exceed t_end
    {"t_end_c": 32.0},
    {"target_lengths_m": (0.0, 2.5)},       # target on the boundary
    {"target_lengths_m": (2.5, 5.4)},
    {"target_lengths_m": (9.0,)},
    {"total_length_m": 0.0},
    {"total_length_m": -1.0},
    {"seeds": ()},
    {"seeds": (3, 4)},                      # 4 is not a Fermat prime
    {"seeds": (5, 5)},
    {"t_w_uncertainty_c": -0.01},
    {"n_override": 1},
    {"sort_order": "sideways"},
    {"darl_mode": "telepathy"},
    {"t_in_c": 1e307},                      # beyond TEMPERATURE_LIMIT_C
    {"t_w_c": -2e6},
    {"total_length_m": 1e307},              # 100 * L overflows before any int()
    {"n_override": MAX_SAMPLE_COUNT + 1},
    {"total_length_m": 1e307, "n_override": 600},  # the grid would overflow
    {"total_length_m": 10_000.5, "n_override": 2},
    {"target_lengths_m": (2.5, 2.5, 3.4)},  # a repeated length would count twice
    {"target_lengths_m": ()},
])
def test_config_validation_rejections(overrides):
    with pytest.raises(ValidationError):
        config_a(**overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"seeds": ("3",)}, "seeds must be an integer, got str"),
    ({"seeds": (5.9,)}, "seeds must be an integer, got float"),
    ({"seeds": "3"}, "seeds must be an array, got str"),
    ({"target_lengths_m": (True,)}, "target_lengths_m must be a number, got bool"),
    ({"t_in_c": "31"}, "t_in_c must be a number, got str"),
    ({"t_w_c": math.nan}, "t_w_c must be a finite number"),
    ({"n_override": 2.5}, "n_override must be an integer, got float"),
])
def test_config_type_rejections(overrides, message):
    with pytest.raises(SchemaError, match=message):
        config_a(**overrides)


def test_sample_count_rule():
    assert config_a().sample_count() == 540
    assert config_b().sample_count() == 830
    assert config_a(n_override=538).sample_count() == 538


def test_build_series_grid_and_pairing(monkeypatch):
    config = config_a()
    series = build_series(config, 5)
    assert isinstance(series, np.ndarray) and len(series) == 540
    assert series.min() >= 25.81 and series.max() <= 31.01
    assert len(build_series(config_a(n_override=538), 5)) == 538
    # fit_seeds pairs every seed's series with one length grid over [0, L], in one fit_lines call
    batches = []

    def recording_fit(x, ys):
        batches.append((x, ys))
        return fit_lines(x, ys)

    monkeypatch.setattr(darl.model, "fit_lines", recording_fit)
    fits = fit_seeds(config)
    assert len(batches) == 1
    grid, series = batches[0]
    assert grid[0] == 0.0
    assert abs(grid[-1] - 5.4) < 1e-12
    assert np.all(np.diff(grid) > 0.0)
    for sf, values in zip(fits, series, strict=True):
        assert np.array_equal(values, build_series(config, sf.seed))


def test_flat_series_degenerates_downstream():
    grid = np.arange(540) * 5.4 / 539
    series = uniform_series(5, 540, 25.0, 25.0)
    assert np.all(series == 25.0)
    with pytest.raises(DegenerateVariance):
        fit_ols(zip(grid.tolist(), series.tolist()))


def test_run_configuration_single_seed():
    records = run_configuration(config_a(seeds=(5,)))
    assert len(records) == 3
    for record in records:
        assert record.seed == 5
        assert 25.81 <= record.t_phi_c <= 31.01
        assert 0.0 < record.r_squared <= 1.0


def test_run_configuration_deterministic():
    config = config_a()
    assert run_configuration(config) == run_configuration(config)


def test_run_configuration_count_and_order():
    records = run_configuration(config_b())
    assert len(records) == 20
    keys = [(r.seed, r.target_length_m) for r in records]
    assert keys == sorted(keys)


def test_run_configuration_order_independent_of_input_order():
    shuffled = config_a(seeds=(65537, 3, 257, 5, 17), target_lengths_m=(4.4, 2.5, 3.4))
    assert run_configuration(shuffled) == run_configuration(config_a())


def test_run_configuration_flag_agreement():
    for record in run_configuration(config_b()):
        inside = min(24.54, 24.28) <= record.t_sim_c <= 31.01
        assert record.out_of_range == (not inside)


def test_run_configuration_validates():
    with pytest.raises(ValidationError):
        run_configuration(config_a(t_end_c=31.01))


def make_records(t_sims, seed=5):
    lengths = (2.5, 3.4, 4.4)
    return [
        PredictionRecord(seed=seed, target_length_m=x, t_phi_c=28.0,
                         r_squared=0.99, t_sim_c=t, out_of_range=False)
        for x, t in zip(lengths, t_sims)
    ]


def test_compare_identical_values():
    reference = [(2.5, 28.80), (3.4, 27.37), (4.4, 26.67)]
    records = make_records([t for _, t in reference])
    comparisons = compare_with_reference(records, reference)
    assert all(c.delta_t_c == 0.0 for c in comparisons)
    assert all(c.relative_error_pct == 0.0 for c in comparisons)
    assert rank_seeds(comparisons) == [(0.0, 5, 0.0)]


def test_compare_published_row_arithmetic():
    reference = [(2.5, 28.80), (3.4, 27.37), (4.4, 26.67)]
    offsets = (0.36, 0.49, 0.64)
    records = make_records([t + d for (_, t), d in zip(reference, offsets)])
    comparisons = compare_with_reference(records, reference)
    expected = (1.25, 1.79, 2.40)
    for comparison, want in zip(comparisons, expected):
        assert abs(comparison.relative_error_pct - want) < 0.01


def test_compare_missing_reference():
    records = make_records([28.0, 27.0, 26.0])
    with pytest.raises(MissingReference):
        compare_with_reference(records, [(2.5, 28.80)])


def test_compare_rmse_per_seed():
    reference = [(2.5, 28.80), (3.4, 27.37), (4.4, 26.67)]
    records = make_records([28.80, 27.37, 26.67], seed=3)
    records += make_records([29.80, 28.37, 27.67], seed=5)
    ranking = rank_seeds(compare_with_reference(records, reference))
    assert [seed for _, seed, _ in ranking] == [3, 5]
    rmse_by_seed = {seed: rmse_c for _, seed, rmse_c in ranking}
    assert rmse_by_seed[3] == 0.0
    assert abs(rmse_by_seed[5] - 1.0) < 1e-12


def comparison(seed, err, length=2.5):
    return ComparisonRecord(seed=seed, target_length_m=length, t_sim_c=0.0,
                            t_obs_c=1.0, delta_t_c=0.0, relative_error_pct=err)


def test_select_best_seed_tie_break():
    comparisons = [comparison(seed, 2.0) for seed in (17, 3, 5)]
    assert rank_seeds(comparisons) == [(2.0, 3, 1.0), (2.0, 5, 1.0), (2.0, 17, 1.0)]


def test_select_best_seed_prefers_lowest_mean():
    comparisons = [
        comparison(3, 3.0), comparison(3, 5.0),
        comparison(5, 1.0), comparison(5, 2.0),
        comparison(17, 2.0), comparison(17, 6.0),
    ]
    assert rank_seeds(comparisons) == [(1.5, 5, 1.0), (4.0, 3, 1.0), (4.0, 17, 1.0)]


def test_select_best_seed_single_and_empty():
    assert rank_seeds([comparison(257, 9.0)]) == [(9.0, 257, 1.0)]
    with pytest.raises(InsufficientSamples):
        rank_seeds([])
    with pytest.raises(DivisionByZero, match="overflows"):
        rank_seeds([comparison(3, 1e308), comparison(3, 1e308, length=3.4)])


def test_degenerate_seed_fails_the_fit(monkeypatch):
    # force one seed's series flat: the run fails rather than report
    # the other four seeds without it
    import darl.model as model_module

    real = model_module.uniform_series

    def flatten_seed_5(seed, n, t_min, t_max, order):
        if seed == 5:
            return real(seed, n, 25.0, 25.0, order)
        return real(seed, n, t_min, t_max, order)

    monkeypatch.setattr(model_module, "uniform_series", flatten_seed_5)
    with pytest.raises(DegenerateVariance, match="all y values are identical"):
        fit_seeds(config_a())
