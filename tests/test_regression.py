"""Least-squares fit against an exact rational-arithmetic oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from darl.errors import DegenerateAbscissa, DegenerateVariance, InsufficientSamples, ShapeMismatch
from darl.ingest import load_fixture
from darl.model import build_series, fit_seeds
from darl.regression import LinearFit, fit_ols, predict_at


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
    assert fit.n == 10


def test_three_point_hand_example():
    fit = fit_ols([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
    assert abs(fit.beta - 0.5) < 1e-12
    assert abs(fit.alpha - 7.0 / 6.0) < 1e-12
    assert abs(fit.r_squared - 0.75) < 1e-12


def test_degenerate_inputs():
    with pytest.raises(DegenerateVariance):
        fit_ols([(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)])
    with pytest.raises(DegenerateAbscissa):
        fit_ols([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(InsufficientSamples):
        fit_ols([(0.0, 1.0)])
    with pytest.raises(InsufficientSamples):
        fit_ols([])


def test_fit_ols_accepts_tuple_pairs():
    # a list of (x, y) tuples, the zip of two columns, and the (n, 2) array fit_seeds passes
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
    return LinearFit(alpha=alpha, beta=beta, r_squared=min(1.0, max(0.0, 1.0 - sse / s_st)), n=n)


@pytest.mark.parametrize("fixture", ["experiment-a", "experiment-b"])
def test_fixture_fits_equal_pure_python_reference_bit_for_bit(fixture):
    config = load_fixture(fixture).config
    fits = fit_seeds(config)
    assert len(fits) == 5
    for seed_fit in fits:
        grid, series = build_series(config, seed_fit.seed)
        assert seed_fit.fit == centered_fsum_reference(grid.tolist(), series.tolist())


@pytest.mark.parametrize("points", [np.zeros((4, 3)), np.zeros(6), np.zeros((2, 2, 2)),
                                    np.array(1.0), [(0.0, 1.0, 2.0), (1.0, 2.0, 3.0)]],
                         ids=["three-columns", "flat", "three-dimensional", "scalar", "triples"])
def test_fit_ols_rejects_points_not_n_by_2(points):
    with pytest.raises(ShapeMismatch):
        fit_ols(points)


def test_abscissa_spread_underflow_is_degenerate():
    with pytest.raises(DegenerateAbscissa, match="underflows"):
        fit_ols([(0.0, 1.0), (1e-310, 2.0), (2e-310, 2.0)])


def test_predict_at_examples():
    fit = LinearFit(alpha=1.0, beta=2.0, r_squared=1.0, n=2)
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
