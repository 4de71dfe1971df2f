"""Validation statistics against reference oracles and hand arithmetic."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from darl.errors import (
    DegenerateVariance,
    DivisionByZero,
    InsufficientSamples,
    ShapeMismatch,
    UnsupportedSampleSize,
)
from darl.prng import KNOWN_FERMAT_PRIMES, MersenneTwister, uniform_series
from darl.stats import _G, _poly, _sw_weights, quartile_summary, relative_error, rmse, shapiro_wilk

from golden_data import SW_FIXTURE, SW_FIXTURE_P, SW_FIXTURE_W


def test_shapiro_wilk_matches_frozen_oracle():
    result = shapiro_wilk(SW_FIXTURE)
    assert abs(result.w_statistic - SW_FIXTURE_W) < 1e-3
    assert abs(result.p_value - SW_FIXTURE_P) < 1e-3
    assert result.n == 20
    assert not result.rejected


def test_shapiro_wilk_against_live_reference():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(31337)
    cases = []
    for n in (3, 4, 5, 7, 11, 12, 25, 100, 538, 1000):
        cases.append([rng.gauss(20.0, 3.0) for _ in range(n)])
        cases.append([rng.uniform(0.0, 1.0) for _ in range(n)])
        cases.append([rng.expovariate(1.0) for _ in range(n)])
    for sample in cases:
        mine = shapiro_wilk(sample)
        ref_w, ref_p = scipy_stats.shapiro(sample)
        assert abs(mine.w_statistic - ref_w) < 1e-3
        assert abs(mine.p_value - ref_p) < 1e-3


@pytest.mark.parametrize("seed", KNOWN_FERMAT_PRIMES)
def test_sorted_uniform_series_fail_normality(seed):
    series = uniform_series(seed, 538, 25.81, 31.01, "ascending")
    result = shapiro_wilk(series)
    assert result.p_value < 0.05
    assert result.rejected


def test_shapiro_wilk_sample_size_limits():
    with pytest.raises(UnsupportedSampleSize):
        shapiro_wilk([1.0, 2.0])
    with pytest.raises(UnsupportedSampleSize):
        shapiro_wilk(np.linspace(0.0, 1.0, 5001))
    shapiro_wilk([0.4, 1.3, 0.9])
    shapiro_wilk(np.linspace(0.0, 1.0, 5000))


class SizedOnly:
    """A sample with a length but no values: converting or sorting it fails."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        raise AssertionError("the sample was read")


@pytest.mark.parametrize("n", [0, 2, 5001, 10**6])
def test_shapiro_wilk_checks_the_size_before_reading_the_sample(n):
    with pytest.raises(UnsupportedSampleSize, match=f"sample size {n} outside"):
        shapiro_wilk(SizedOnly(n))


def test_log_one_minus_w_stays_below_gamma_for_small_n():
    # n-1 equal values and one outlier give the least W of any sample, n*a1^2/(n-1);
    # log(1 - W) below gamma(n) there means the p-value never needs a gamma cutoff
    rng = random.Random(4)
    for n in range(4, 12):
        least = shapiro_wilk([0.0] * (n - 1) + [1.0]).w_statistic
        assert math.log(1.0 - least) < _poly(_G, n)
        for _ in range(200):
            sample = [rng.choice((0.0, 1.0, rng.expovariate(0.1))) for _ in range(n)]
            if max(sample) > min(sample):
                assert shapiro_wilk(sample).w_statistic >= least - 1e-12


def test_shapiro_wilk_constant_sample():
    with pytest.raises(DegenerateVariance):
        shapiro_wilk([2.0, 2.0, 2.0, 2.0])


def test_shapiro_wilk_result_ranges():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(3, 200)
        sample = [rng.gauss(0.0, 1.0) for _ in range(n)]
        result = shapiro_wilk(sample)
        assert 0.0 < result.w_statistic <= 1.0
        assert 0.0 <= result.p_value <= 1.0


def test_pseudo_normal_samples_mostly_retained():
    # sums of 12 unit draws minus 6 are near-normal; expect >= 90/100 retained
    draws = MersenneTwister(42).draw_units(100 * 1000 * 12)
    samples = draws.reshape(100, 1000, 12).sum(axis=2) - 6.0
    retained = sum(1 for s in samples if shapiro_wilk(s).p_value >= 0.05)
    assert retained >= 90


def test_uniform_samples_mostly_rejected():
    draws = MersenneTwister(1234).draw_units(100 * 538)
    samples = draws.reshape(100, 538)
    rejected = sum(1 for s in samples if shapiro_wilk(s).p_value < 0.05)
    assert rejected >= 99


def test_rmse_examples():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert abs(rmse([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) - math.sqrt(4.0 / 3.0)) < 1e-12


def test_rmse_errors():
    with pytest.raises(ShapeMismatch):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(InsufficientSamples):
        rmse([], [])


def test_rmse_scale_property():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(1, 30)
        base = [rng.uniform(-10.0, 10.0) for _ in range(n)]
        residual = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        k = rng.choice((-4.0, -0.5, 0.25, 3.0))
        plain = rmse(base, [b + r for b, r in zip(base, residual)])
        scaled = rmse(base, [b + k * r for b, r in zip(base, residual)])
        assert abs(scaled - abs(k) * plain) < 1e-12 * max(1.0, plain)


def test_rmse_sign_symmetry():
    base = [5.0, 6.0, 7.0]
    residual = [0.3, -0.2, 0.5]
    up = rmse(base, [b + r for b, r in zip(base, residual)])
    down = rmse(base, [b - r for b, r in zip(base, residual)])
    assert up == down


def test_relative_error_examples():
    assert relative_error(10.0, 10.0) == 0.0
    assert abs(relative_error(28.80, 28.80 + 0.36) - 1.25) < 1e-12
    assert abs(relative_error(28.80, 28.80 - 0.36) - 1.25) < 1e-12
    # published row rounds to two decimals, so match within that budget
    assert abs(relative_error(25.74, 25.74 + 1.57) - 6.10) < 0.01


def test_relative_error_zero_observed():
    with pytest.raises(DivisionByZero):
        relative_error(0.0, 1.0)
    with pytest.raises(DivisionByZero, match="overflows"):
        relative_error(1e-310, 30.0)


def test_quartile_examples():
    q = quartile_summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q.q1, q.q2, q.q3, q.iqr) == (2.0, 3.0, 4.0, 2.0)
    q = quartile_summary([1.0, 2.0, 3.0, 4.0])
    assert (q.q1, q.q2, q.q3, q.iqr) == (1.75, 2.5, 3.25, 1.5)
    q = quartile_summary([7.0])
    assert (q.q1, q.q2, q.q3, q.iqr) == (7.0, 7.0, 7.0, 0.0)


def test_quartile_empty():
    with pytest.raises(InsufficientSamples):
        quartile_summary([])


def test_quartile_ordering_invariant():
    rng = random.Random(808)
    for _ in range(30):
        n = rng.randint(1, 60)
        sample = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        q = quartile_summary(sample)
        assert q.q1 <= q.q2 <= q.q3
        assert abs(q.iqr - (q.q3 - q.q1)) < 1e-15
        assert q.iqr >= 0.0


def test_quartile_matches_numpy_type7():
    rng = random.Random(606)
    for _ in range(20):
        sample = [rng.uniform(0.0, 50.0) for _ in range(rng.randint(2, 80))]
        q = quartile_summary(sample)
        ref = np.quantile(np.array(sample), [0.25, 0.5, 0.75])
        assert abs(q.q1 - ref[0]) < 1e-12
        assert abs(q.q2 - ref[1]) < 1e-12
        assert abs(q.q3 - ref[2]) < 1e-12


def test_quartile_summary_allocates_one_sorted_copy():
    # a Python list of the sample would take more than four times the array's bytes
    sample = np.random.default_rng(5).normal(size=200_000)
    tracemalloc.start()
    try:
        quartile_summary(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sample.nbytes


def test_sw_weights_cached_once_per_n_and_read_only():
    for n in (3, 4, 5, 6, 829, 830):
        first = _sw_weights(n)
        assert _sw_weights(n) is first
        weights, ssw = first
        assert len(weights) == n
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 0.0
        assert abs(weights.sum()) < 1e-12  # centered
        assert np.allclose(weights, -weights[::-1], rtol=0.0, atol=1e-15)
        assert ssw == float(np.dot(weights, weights))


def test_sample_shaped_like_the_weights_gives_p_one():
    # W rounds to 1 for many of these, where log(1 - W) is undefined
    unit = 0
    for n in range(4, 200):
        for scale, shift in ((1.0, 0.0), (3.0, 27.0), (0.01, -5.0), (100.0, 1000.0)):
            result = shapiro_wilk(_sw_weights(n)[0] * scale + shift)
            assert 0.999 < result.w_statistic <= 1.0
            if result.w_statistic == 1.0:
                unit += 1
                assert result.p_value == 1.0
    assert unit > 0
