"""Validation statistics against reference oracles and hand arithmetic."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darl.errors import (
    DegenerateVariance,
    DivisionByZero,
    InsufficientSamples,
    ShapeMismatch,
    UnsupportedSampleSize,
    ValidationError,
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


@pytest.mark.parametrize("sample, reference", [
    ([1e300, 2e300, 3.5e300, 4e300], [1.0, 2.0, 3.5, 4.0]),  # squares overflow
    ([-1e308, 0.0, 1e308, 5.0], [-1.0, 0.0, 1.0, 5e-308]),  # so do the differences from the mean
    ([1e-170, 2e-170, 3.5e-170, 4e-170], [1.0, 2.0, 3.5, 4.0]),  # the range is below 1e-19
], ids=["1e300", "1e308", "1e-170"])
def test_shapiro_wilk_finite_samples_at_extreme_scales(sample, reference):
    result, expected = shapiro_wilk(sample), shapiro_wilk(reference)
    assert 0.9 < result.w_statistic < 1.0 and 0.5 < result.p_value < 1.0
    assert result.w_statistic == pytest.approx(expected.w_statistic, rel=1e-14)
    assert result.p_value == pytest.approx(expected.p_value, rel=1e-12)


def test_quartiles_and_rmse_whose_differences_overflow_stay_finite():
    q = quartile_summary([-1e308, 1e308])
    assert (q.q1, q.q2, q.q3, q.iqr) == (-5e307, 0.0, 5e307, 1e308)
    assert rmse([1e308, 1e308], [-1e308, 1e308]) == math.sqrt(2.0) * 1e308
    assert rmse([1e200], [-1e200]) == 2e200  # its square overflows
    assert rmse([2e-160, 1e6], [0.0, 1e6]) == pytest.approx(2e-160 / math.sqrt(2.0), rel=1e-15)  # a subnormal square
    assert rmse([1e308], [-1e308]) == math.inf  # 2e308 is beyond the float range


# values m*2^(j-53), |m| < 2^53 and j in [-40, 123]: multiplied by 2^k for |k| <= 900 every one stays a
# normal float, down to 2^-993, and finite, up to 2^1023; every result of such a sample is 2^k times
# that of the sample, or the same for W and p
scalable = st.builds(lambda m, j: math.ldexp(m, j - 53), st.integers(-2**53 + 1, 2**53 - 1), st.integers(-40, 123))
powers = st.integers(-900, 900)


@settings(max_examples=200, deadline=None)
@given(sample=st.lists(scalable, min_size=3, max_size=60).filter(lambda xs: max(xs) > min(xs)), k=powers)
@example(sample=[1e300, 2e300, 3.5e300, 4e300], k=-900)
@example(sample=[-2.0**123, 0.0, 2.0**123], k=900)
def test_shapiro_wilk_and_quartiles_are_invariant_under_power_of_two_scaling(sample, k):
    scaled = [math.ldexp(x, k) for x in sample]
    assert shapiro_wilk(scaled) == shapiro_wilk(sample)
    q, q_scaled = quartile_summary(sample), quartile_summary(scaled)
    # the IQR of values near +-2^1023 may itself overflow, like the 2^k multiple of it
    assert vars(q_scaled) == {name: value * 2.0 ** k for name, value in vars(q).items()}


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(scalable, scalable), min_size=1, max_size=40), k=powers)
@example(pairs=[(2.0**123, -2.0**123)], k=900)
def test_rmse_is_scaled_by_a_power_of_two(pairs, k):
    observed, simulated = zip(*pairs)
    scaled = rmse([math.ldexp(x, k) for x in observed], [math.ldexp(x, k) for x in simulated])
    assert scaled == rmse(observed, simulated) * 2.0 ** k


NON_FINITE_SAMPLES = pytest.mark.parametrize("sample", [
    [1.0, 2.0, 3.5, math.nan],
    [math.nan, 1.0, 2.0, 3.5],
    [1.0, math.nan, 2.0, 3.5, 4.0],
    [1.0, 2.0, 3.5, math.inf],
    [-math.inf, 1.0, 2.0, 3.5],
    [-math.inf, 1.0, math.nan, math.inf],
    [2.0, 2.0, 2.0, math.nan],
    [math.nan] * 5,
    [-math.inf] * 3,
    np.array([25.0, 26.0, np.inf, 27.0]),
], ids=["nan-last", "nan-first", "nan-middle", "inf", "minus-inf", "all-kinds", "constant-and-nan",
        "all-nan", "all-minus-inf", "array-inf"])


@NON_FINITE_SAMPLES
def test_shapiro_wilk_refuses_non_finite_values(sample):
    # a NaN passes the zero-range check, since every comparison with it is false
    with pytest.raises(ValidationError, match="finite"):
        shapiro_wilk(sample)


@NON_FINITE_SAMPLES
def test_quartile_summary_refuses_non_finite_values(sample):
    with pytest.raises(ValidationError, match="finite"):
        quartile_summary(sample)


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


def test_sw_weights_bytes_pinned():
    # every n to 100 (one end weight to n = 5, two from n = 6) and every 41st to 5,000;
    # the digest of the weights' bytes and repr(ssw), taken before the two end-weight paths became one
    digest = hashlib.sha256()
    for n in [*range(3, 101), *range(101, 5000, 41), 5000]:
        weights, ssw = _sw_weights(n)
        digest.update(weights.tobytes() + repr(ssw).encode())
    assert digest.hexdigest() == "006087463e9bf6b7e36b286c76bff011ceb5963e0b08345064967a9c9f4def47"


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
