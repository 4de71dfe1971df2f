"""Least-squares fit against an exact rational-arithmetic oracle and a pure-Python fsum fit;
its exact sum against math.fsum."""

import math
import random
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import darl.regression
from darl.errors import DarlError, NumericalDegeneracy, ValidationError
from darl.ingest import load_fixture
from darl.model import ExperimentConfig, build_series, fit_seeds
from darl.prng import KNOWN_FERMAT_PRIMES, MAX_SAMPLE_COUNT, SORT_ORDERS
from darl.regression import LinearFit, _exact_sum, fit_lines, fit_ols, predict_at


def ols_fraction_oracle(points):
    """Closed-form OLS in exact rational arithmetic (independent route).

    Uses the naive uncentered sums, which are safe under Fraction because
    there is no rounding at all.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    alpha = (sy - beta * sx) / n
    sse = sum((y - (alpha + beta * x)) ** 2 for x, y in zip(xs, ys))
    sst = sum((y - sy / n) ** 2 for y in ys)
    r_squared = 1 - sse / sst
    return float(alpha), float(beta), float(r_squared)


def random_instance(rng):
    n = rng.randint(2, 50)
    while True:
        xs = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        ys = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        if len(set(xs)) > 1 and len(set(ys)) > 1:
            return list(zip(xs, ys))


def test_exact_line():
    fit = fit_ols((x, 2.0 * x + 1.0) for x in range(10))
    assert abs(fit.alpha - 1.0) < 1e-12
    assert abs(fit.beta - 2.0) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_three_point_hand_example():
    fit = fit_ols([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
    assert abs(fit.beta - 0.5) < 1e-12
    assert abs(fit.alpha - 7.0 / 6.0) < 1e-12
    assert abs(fit.r_squared - 0.75) < 1e-12


def test_degenerate_inputs():
    with pytest.raises(NumericalDegeneracy, match="all y values are identical"):
        fit_ols([(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)])
    with pytest.raises(NumericalDegeneracy, match="all x values are identical"):
        fit_ols([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValidationError, match="regression needs at least 2 points, got 1"):
        fit_ols([(0.0, 1.0)])
    with pytest.raises(ValidationError, match="regression needs at least 2 points, got 0"):
        fit_ols([])


def test_fit_ols_accepts_tuple_pairs():
    # a list of (x, y) tuples, the zip of two columns, and an (n, 2) array
    listed = fit_ols([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
    zipped = fit_ols(zip([0.0, 1.0, 2.0], [1.0, 2.0, 2.0]))
    stacked = fit_ols(np.column_stack(([0.0, 1.0, 2.0], [1.0, 2.0, 2.0])))
    assert listed == zipped == stacked
    assert abs(listed.beta - 0.5) < 1e-12


def centered_fsum_reference(xs, ys):
    """The fit in pure Python: centered two-pass sums, each by math.fsum."""
    n = len(xs)
    x_bar = math.fsum(xs) / n
    y_bar = math.fsum(ys) / n
    s_xx = math.fsum((x - x_bar) * (x - x_bar) for x in xs)
    s_xy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    s_st = math.fsum((y - y_bar) * (y - y_bar) for y in ys)
    beta = s_xy / s_xx
    alpha = y_bar - beta * x_bar
    sse = math.fsum((y - alpha - beta * x) * (y - alpha - beta * x) for x, y in zip(xs, ys))
    return LinearFit(alpha=alpha, beta=beta, r_squared=min(1.0, max(0.0, 1.0 - sse / s_st)))


@pytest.mark.parametrize("fixture", ["experiment-a", "experiment-b"])
def test_fixture_fits_equal_pure_python_reference_bit_for_bit(fixture):
    config = load_fixture(fixture).config
    fits = fit_seeds(config)
    assert len(fits) == 5
    n = config.sample_count()
    grid = [i * config.total_length_m / (n - 1) for i in range(n)]
    for seed_fit in fits:
        series = build_series(config, seed_fit.seed)
        assert seed_fit.fit == centered_fsum_reference(grid, series.tolist())


# sizes from 999 up to long-sweep's 10,000
@pytest.mark.parametrize("n", [999, 1000, 1001, 1199, 1200, 2000, 6000, 10000])
@pytest.mark.parametrize("order", SORT_ORDERS)
def test_large_fits_equal_pure_python_reference_bit_for_bit(n, order):
    config = ExperimentConfig(t_in_c=31.01, t_end_c=25.81, t_w_c=24.28, total_length_m=n / 100,
                              target_lengths_m=(2.5,), n_override=n, sort_order=order)
    fits = fit_seeds(config)
    assert [f.seed for f in fits] == sorted(KNOWN_FERMAT_PRIMES)
    grid = [i * config.total_length_m / (n - 1) for i in range(n)]
    for seed_fit in fits:
        assert seed_fit.fit == centered_fsum_reference(grid, seed_fit.values.tolist())


def exact_sum(a):
    """_exact_sum with a's own bound, max|a| (0 for an empty array)."""
    return _exact_sum(a, float(np.abs(a).max(initial=0.0)))


SPECIAL_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1.7e308, -1.7e308)


@st.composite
def sum_inputs(draw, lengths=st.integers(0, 999) | st.integers(1_000, 2_600)):
    """A 1-D float64 array: random values at one scale, with a few special values planted.

    Its length is drawn from lengths, by default 0 to 2,600 values; 8e270 stays just under
    extraction's 2^900 limit, and 1e298 and above go to fsum.
    """
    n = draw(lengths)
    scale = draw(st.sampled_from((0.0, 1e-310, 1e-300, 1e-20, 1.0, 31.01, 1e20, 8e270, 1e298, 1e300, 1e308)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = scale * rng.uniform(-1.0 if draw(st.booleans()) else 0.0, 1.0, n)
    if draw(st.booleans()):  # spread the values over some 60 binary exponents
        values *= 2.0 ** rng.integers(-60, 1, n)
    if n:
        planted = draw(arrays(np.float64, st.integers(0, 3), elements=st.sampled_from(SPECIAL_VALUES)))
        values[rng.integers(0, n, len(planted))] = planted
    if draw(st.booleans()):
        values = np.sort(values)
    if draw(st.booleans()):  # a strided column view, such as a column of fit_ols's (n, 2) points
        values = np.column_stack((values, np.ones(n)))[:, 0]
    return values


def fsum_outcome(sum_function, values):
    """The sum's repr (which tells -0.0 and nan apart), or the name of the exception it raised."""
    try:
        return repr(sum_function(values))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(values=sum_inputs())
@example(values=np.array([math.inf, -math.inf] + [1.0] * 1_500))  # fsum raises ValueError
@example(values=np.array([1e308, 1e308, -1e308, -1e308, 1.0] * 300))  # fsum overflows midway
def test_exact_sum_equals_fsum(values):
    assert fsum_outcome(exact_sum, values) == fsum_outcome(lambda a: math.fsum(a.tolist()), values)


# the short arrays, under 300 values, that sum_inputs() seldom draws: they go through the extraction
# and its certificate like any other, with no size at which fsum takes over
@settings(max_examples=300, deadline=None)
@given(values=sum_inputs(st.integers(0, 299)))
def test_exact_sum_equals_fsum_through_the_certificate_at_every_length(values):
    assert fsum_outcome(exact_sum, values) == fsum_outcome(lambda a: math.fsum(a.tolist()), values)


def exact_sum_edge_cases():
    """(id, array) pairs for the extraction's limits, each of at least 1,000 values."""
    rng = np.random.default_rng(2008)
    subnormals = rng.integers(-2**52, 2**52, 1_500) * 5e-324  # exact multiples of 2^-1074
    mixed = subnormals.copy()
    mixed[::7] = rng.uniform(-1.0, 1.0, len(mixed[::7]))
    spread = rng.uniform(-1.0, 1.0, 1_500) * 2.0 ** rng.integers(-60, 1, 1_500)
    below, above = math.nextafter(2.0**900, 0.0), 2.0**900
    return [
        ("negative-zeros", np.full(1_500, -0.0)),
        ("signed-zeros", np.array([0.0, -0.0] * 750)),
        ("subnormals", subnormals),
        ("subnormals-and-normals", mixed),
        ("just-under-2^900", np.concatenate(([below, -below, below], spread))),
        ("at-2^900", np.concatenate(([above, -above, above], spread))),
        # 2(n + 2)·max|a| = 3,072: sigma = 2^12 sums the head, about -1,534, exactly; with 2^10 it
        # would round there at a tie, which the 2^-60 decides
        ("level-sum-near-sigma", np.array([-(0.75 + 3 * 2.0**-43), 2.0**-60] + [-(0.75 + 2.0**-43)] * 2_044)),
        ("cancels-to-zero", np.concatenate((spread, -spread[::-1]))),
        ("n-2^20", rng.uniform(25.81, 31.01, 2**20) * 2.0 ** rng.integers(-30, 1, 2**20)),
        ("n-max-sample-count", rng.uniform(-2.6, 2.6, MAX_SAMPLE_COUNT) ** 2),
        # 1 + 2^-53 is a tie that rounds down to 1, and the 2^-400 beyond four pairs that cancel
        # rounds it up; the certificate declines the tie, so fsum sees the 2^-400
        ("beyond-level-cap", np.array([1.0, 2.0**-53, *(s * 2.0**-e for e in (120, 180, 240, 300) for s in (1, -1)),
                                       2.0**-400] + [0.0] * 1_200)),
        ("spread-beyond-level-cap", rng.uniform(-1.0, 1.0, 1_500) * 2.0 ** rng.integers(-1_000, 1, 1_500)),
    ]


@pytest.mark.parametrize("values", [pytest.param(a, id=name) for name, a in exact_sum_edge_cases()])
def test_exact_sum_equals_fsum_at_extraction_limits(values):
    assert fsum_outcome(exact_sum, values) == fsum_outcome(lambda a: math.fsum(a.tolist()), values)


@pytest.fixture
def fsum_calls(monkeypatch):
    """A list that grows by one for every math.fsum call that darl.regression makes."""
    calls = []

    def counting_fsum(values):
        calls.append(len(values))
        return math.fsum(values)

    monkeypatch.setattr(darl.regression, "math", types.SimpleNamespace(**{**vars(math), "fsum": counting_fsum}))
    return calls


def certificate_cases():
    """(id, array, whether the certificate must decline it) for _exact_sum's one-level path."""
    rng = np.random.default_rng(2008)
    spread = rng.uniform(-1.0, 1.0, 1_500)
    zeros = [0.0] * 1_200
    return [
        # 1 + 2^-53 is a tie: the TwoSum error, 2^-53, is half an ulp of 1, where a quarter is allowed
        ("tie", np.array([1.0, 2.0**-53] + zeros), True),
        # 2^-80 below the midpoint of 1.5 and its upper neighbour, well inside n²·2^(k-105) = 2^-72.5
        ("within-the-error-term-of-a-midpoint", np.array([1.5, 2.0**-53 - 2.0**-80] + zeros), True),
        # the tail rounds to -2^-54, so head + tail gives 1.0 with a TwoSum error of one quarter ulp; the
        # exact sum is 2^-108 below the midpoint 1 - 2^-54 and rounds to 1 - 2^-53
        ("power-of-two-from-below", np.array([1.0, -2.0**-54, -2.0**-108] + zeros), True),
        ("heavy-cancellation", np.concatenate((spread, -spread[::-1], [2.0**-70])), True),
        ("bound-at-2^900", np.concatenate(([2.0**900], 2.0**900 * spread)), True),
        ("bound-at-2^-900", np.concatenate(([2.0**-900], 2.0**-900 * spread)), True),
        ("bound-just-under-2^900", np.concatenate(([math.nextafter(2.0**900, 0.0)], 2.0**899 * spread)), False),
        ("bound-just-over-2^-900", np.concatenate(([math.nextafter(2.0**-900, 1.0)], 2.0**-900 * spread)), False),
        ("fixture-range", rng.uniform(25.81, 31.01, 1_500), False),
    ]


@pytest.mark.parametrize("values, declined", [pytest.param(a, d, id=name) for name, a, d in certificate_cases()])
def test_exact_sum_falls_back_to_fsum_only_where_the_certificate_declines(values, declined, fsum_calls):
    assert repr(exact_sum(values)) == repr(math.fsum(values.tolist()))
    assert fsum_calls == ([len(values)] if declined else [])


@pytest.mark.parametrize("values", [[31.01], [-2.0**-60], [1.0, 2.0**-53], [25.81, -31.01], [1e-300, 3e-300]],
                         ids=["one", "one-tiny", "two-tie", "two", "two-tiny"])
def test_exact_sum_of_one_or_two_values_equals_fsum(values):
    assert repr(exact_sum(np.array(values))) == repr(math.fsum(values))


def long_sweep_configs():
    """Eight configs like the benchmark's long sweep: one in each 10 m stratum of 20-100 m, all five seeds."""
    rng = random.Random(26)
    configs = []
    for stratum in range(8):
        t_in = round(rng.uniform(29.0, 33.0), 2)
        t_end = round(t_in - rng.uniform(4.0, 8.0), 2)
        configs.append(ExperimentConfig(
            t_in_c=t_in, t_end_c=t_end, t_w_c=round(t_end - rng.uniform(0.2, 2.0), 2),
            total_length_m=round(20.0 + 10.0 * (stratum + 0.4 + 0.2 * rng.random()), 2),
            target_lengths_m=(2.5,), sort_order=SORT_ORDERS[stratum % 2]))
    return configs


def test_fixture_and_long_sweep_sums_never_fall_back_to_fsum(fsum_calls):
    long = long_sweep_configs()
    assert sorted(config.sample_count() // 1_000 for config in long) == list(range(2, 10))
    for config in [load_fixture(name).config for name in ("experiment-a", "experiment-b")] + long:
        assert len(fit_seeds(config)) == 5
    assert fsum_calls == []


@st.composite
def shared_abscissa_series(draw):
    """An abscissa and 1-5 series over it, of 2 to 10,000 values, some as strided views.

    The series are sorted in the fixtures' range, straddle 0 degC, or are near flat (within 1e-12
    or 1e-9 of a level of 0, -3 or 28 degC, unsorted), so Σy and Σdx·dy cancel.
    """
    n = draw(st.integers(2, 299) | st.integers(300, 2_600) | st.integers(2_601, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # a length grid, as fit_seeds fits against
        x = np.arange(n, dtype=np.float64) * draw(st.sampled_from((5.4, 8.3, 100.0))) / (n - 1)
    else:
        x = rng.uniform(-100.0, 100.0, n)
    kind = draw(st.sampled_from(("fixture-range", "straddling-zero", "near-flat")))
    if kind == "near-flat":
        level, spread = draw(st.sampled_from((0.0, -3.0, 28.0))), draw(st.sampled_from((1e-12, 1e-9)))
        ys = [level + rng.uniform(-spread, spread, n) for _ in range(draw(st.integers(1, 5)))]
        assume(all(y.min() < y.max() for y in ys))
    else:
        lo, hi = (25.81, 31.01) if kind == "fixture-range" else (-draw(st.sampled_from((0.5, 20.0))), 20.0)
        ys = [np.sort(rng.uniform(lo, hi, n)) for _ in range(draw(st.integers(1, 5)))]
        if draw(st.sampled_from(SORT_ORDERS)) == "descending":
            ys = [np.ascontiguousarray(y[::-1]) for y in ys]
    if draw(st.booleans()):  # strided column views of one (n, k + 1) array
        columns = np.column_stack((x, *ys))
        x, ys = columns[:, 0], [columns[:, i] for i in range(1, len(ys) + 1)]
    return x, ys


@settings(max_examples=200, deadline=None)
@given(case=shared_abscissa_series())
# a 100 m grid under series that straddle 0 degC: products of up to 50 m by 20 degC, whose sum needs the
# product of the ranges as its bound
@example(case=(np.arange(10_000) * 100.0 / 9_999, [np.sort(np.random.default_rng(s).uniform(-20.0, 20.0, 10_000))
                                                   for s in range(4, 9)]))
def test_fit_lines_equals_reference_and_fit_ols_per_series(case):
    x, ys = case
    fits = fit_lines(x, ys)
    assert len(fits) == len(ys)
    for y, fit in zip(ys, fits, strict=True):
        assert fit == centered_fsum_reference(x.tolist(), y.tolist())
        assert fit == fit_ols(np.column_stack((x, y)))


def test_fit_lines_raises_in_fit_ols_order():
    rng = np.random.default_rng(20)
    x = np.arange(540) * 5.4 / 539
    ys = [np.sort(rng.uniform(25.81, 31.01, 540)) for _ in range(5)]
    flat, tiny = np.full(540, 25.0), np.arange(540) * 1e-310
    with_nan = ys[2].copy()
    with_nan[7] = math.nan
    # a non-finite value in series 3 of 5 comes first, even after a flat series
    with pytest.raises(ValidationError, match="finite"):
        fit_lines(x, [ys[0], ys[1], with_nan, ys[3], ys[4]])
    with pytest.raises(ValidationError, match="finite"):
        fit_lines(x, [ys[0], flat, with_nan, ys[3], ys[4]])
    with pytest.raises(ValidationError, match="regression needs at least 2 points, got 1"):
        fit_lines(x[:1], [flat[:1]])
    # a constant x comes before a flat series and before a series whose spread underflows
    with pytest.raises(NumericalDegeneracy, match="all x values are identical"):
        fit_lines(np.full(540, 2.5), [ys[0], flat, tiny])
    with pytest.raises(NumericalDegeneracy, match="the spread of x underflows to zero"):
        fit_lines(tiny, [ys[0], tiny])
    with pytest.raises(NumericalDegeneracy, match="all y values are identical"):
        fit_lines(x, [ys[0], ys[1], tiny, flat])
    with pytest.raises(NumericalDegeneracy, match="zero total variance in y"):
        fit_lines(x, [ys[0], ys[1], tiny])
    assert fit_lines(x, []) == []


# minus-inf-only: the maximum is finite, so both extremes must be checked
@pytest.mark.parametrize("y", [[math.nan, 2.0, 3.0], [math.inf, 2.0, -math.inf], [-math.inf, 1.0, 2.0]],
                         ids=["nan", "inf-and-minus-inf", "minus-inf-only"])
def test_fit_ols_rejects_non_finite_points(y):
    with pytest.raises(ValidationError, match="finite"):
        fit_ols(zip([0.0, 1.0, 2.0], y))


@pytest.mark.parametrize("points", [np.zeros((4, 3)), np.zeros(6), np.zeros((2, 2, 2)),
                                    np.array(1.0), [(0.0, 1.0, 2.0), (1.0, 2.0, 3.0)]],
                         ids=["three-columns", "flat", "three-dimensional", "scalar", "triples"])
def test_fit_ols_rejects_points_not_n_by_2(points):
    with pytest.raises(ValidationError, match=r"points must form an \(n, 2\) array"):
        fit_ols(points)


def test_abscissa_spread_underflow_is_degenerate():
    with pytest.raises(NumericalDegeneracy, match="the spread of x underflows to zero"):
        fit_ols([(0.0, 1.0), (1e-310, 2.0), (2e-310, 2.0)])


@pytest.mark.parametrize("points", [
    [(0.0, 1e300), (1e10, 2e300), (2e10, 3.5e300)],  # alpha and beta were -inf and inf
    [(0.0, 1e200), (1.0, 2e200), (2.0, 3.5e200)],  # SSE overflowed and r_squared read 0.0
    [(-1e308, 0.0), (1e308, 1.0), (0.0, 2.0)],  # s_xx overflowed and beta read 0.0
    [(1.5e308, 0.0), (1.6e308, 1.0), (1.7e308, 2.0)],  # fsum raised OverflowError
], ids=["coefficients", "sse", "abscissa-spread", "abscissa-sum"])
def test_overflowing_fit_is_degenerate(points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDegeneracy, match="overflows the float range"):
            fit_ols(points)


@settings(max_examples=500, deadline=None)
@given(points=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                 st.floats(allow_nan=False, allow_infinity=False)), min_size=2, max_size=8))
@example(points=[(0.0, 1e-160), (1e-160, 1e154), (2e-160, -1e154), (3e-160, 1e154)])  # beta overflows
def test_finite_points_give_a_finite_fit_or_a_darl_error(points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit = fit_ols(points)
        except DarlError:
            return
    assert math.isfinite(fit.alpha) and math.isfinite(fit.beta)
    assert 0.0 <= fit.r_squared <= 1.0


def test_predict_at_examples():
    fit = LinearFit(alpha=1.0, beta=2.0, r_squared=1.0)
    assert predict_at(fit, 3.0) == 7.0
    assert predict_at(fit, 0.0) == fit.alpha
    three_point = fit_ols([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
    assert abs(predict_at(three_point, 2.0) - 13.0 / 6.0) < 1e-12


def test_oracle_battery_100_instances():
    rng = random.Random(8675309)
    for _ in range(100):
        points = random_instance(rng)
        fit = fit_ols(points)
        alpha, beta, r_squared = ols_fraction_oracle(points)
        assert abs(fit.alpha - alpha) < 1e-9
        assert abs(fit.beta - beta) < 1e-9
        assert abs(fit.r_squared - r_squared) < 1e-9


def test_shift_invariance():
    rng = random.Random(1918)
    for _ in range(20):
        points = random_instance(rng)
        shift = rng.uniform(-50.0, 50.0)
        base = fit_ols(points)
        moved = fit_ols([(x, y + shift) for x, y in points])
        assert abs(moved.alpha - (base.alpha + shift)) < 1e-9
        assert abs(moved.beta - base.beta) < 1e-9
        assert abs(moved.r_squared - base.r_squared) < 1e-9


def test_scale_covariance():
    rng = random.Random(1776)
    for _ in range(20):
        points = random_instance(rng)
        k = rng.choice((-3.5, -1.0, 0.25, 2.0, 10.0))
        base = fit_ols(points)
        scaled = fit_ols([(x, k * y) for x, y in points])
        assert abs(scaled.alpha - k * base.alpha) < 1e-9 * max(1.0, abs(k))
        assert abs(scaled.beta - k * base.beta) < 1e-9 * max(1.0, abs(k))
        assert abs(scaled.r_squared - base.r_squared) < 1e-9


def test_r_squared_bounds():
    rng = random.Random(99)
    for _ in range(50):
        fit = fit_ols(random_instance(rng))
        assert 0.0 <= fit.r_squared <= 1.0


def test_residual_sum_identity():
    # SST = SSR + SSE up to rounding, the identity behind the R^2 definition
    rng = random.Random(555)
    for _ in range(20):
        points = random_instance(rng)
        fit = fit_ols(points)
        n = len(points)
        y_bar = sum(y for _, y in points) / n
        sst = sum((y - y_bar) ** 2 for _, y in points)
        sse = sum((y - predict_at(fit, x)) ** 2 for x, y in points)
        ssr = sum((predict_at(fit, x) - y_bar) ** 2 for x, _ in points)
        assert abs(sst - (ssr + sse)) < 1e-7 * max(1.0, sst)
