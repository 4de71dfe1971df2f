"""Ordinary least squares of temperature against pipe length.

The fit is the plain closed-form simple regression, computed with centered (two-pass) sums.
Sorted synthetic series are nearly collinear, and the centered form avoids the cancellation
that the naive sum-of-products formula suffers there. :func:`fit_lines` takes a run's
length-grid sums once and fits each seed's series against them; :func:`fit_ols` fits an
``(n, 2)`` float array of (x, y) rows or any iterable of (x, y) pairs. Each sum equals ``math.fsum``
of its terms: :func:`_exact_sum` returns head + tail of one level of error-free extraction when a
bound on the tail's rounding error certifies it (Rump, Ogita and Oishi, "Accurate floating-point
summation", parts I and II, SIAM J. Sci. Comput. 31(1) and 31(2), 2008), and fsum's sum otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateAbscissa, DegenerateVariance, InsufficientSamples, ShapeMismatch, ValidationError


_EXTRACT_FROM = 300  # fewer values go to math.fsum, as fast there: 5-7 us a sum either way


def _exact_sum(a: np.ndarray, bound: float | None = None) -> float:
    """``math.fsum(a)`` for a 1-D float64 array, without a Python float per value.

    One level: sigma = 2^k >= 2(n+2)·bound, where bound >= max|a| (``a``'s own when omitted), splits a
    exactly into t = (a + sigma) - sigma, multiples of 2^(k-53) that numpy sums exactly into head, and
    a - t, each at most 2^(k-53), that numpy sums in any order into tail with an error below
    n²·2^(k-106) (for n < 2^26; no larger n passes the test). With res = head + tail and e its TwoSum
    error, res is the nearest float to the sum when |e| + n²·2^(k-105) < ulp(res)/2, or ulp(res)/4
    when |res| is a power of two; the inequality is strict, so no tie passes. Otherwise math.fsum:
    below _EXTRACT_FROM values, for a bound outside (2^-900, 2^900) (a NaN, an infinity, or an error
    term that would underflow), or for a zero total or a failed certificate (a tie, a sum near a
    midpoint, heavy cancellation).
    """
    n = len(a)
    if n >= _EXTRACT_FROM:
        if bound is None:
            bound = float(np.abs(a).max())
        if 2.0**-900 < bound < 2.0**900:  # False for a NaN
            k = math.frexp(2 * (n + 2) * bound)[1]
            sigma = math.ldexp(1.0, k)
            t = np.add(a, sigma)
            t -= sigma
            head = float(t.sum())
            tail = float(np.subtract(a, t, out=t).sum())
            res = head + tail
            back = res - head
            e = (head - (res - back)) + (tail - back)
            spacing = math.ulp(res) / (4.0 if abs(math.frexp(res)[0]) == 0.5 else 2.0)
            if res and abs(e) + math.ldexp(n * n, k - 105) < spacing:
                return res
    return math.fsum(memoryview(a))


@dataclass(frozen=True)
class LinearFit:
    """Intercept/slope pair with its coefficient of determination."""

    alpha: float      # intercept, degC
    beta: float       # slope, degC per m
    r_squared: float  # in [0, 1]
    n: int


def fit_ols(points: np.ndarray | Iterable[tuple[float, float]]) -> LinearFit:
    """Least-squares line through (x, y) samples.

    beta = sum((x-xbar)(y-ybar)) / sum((x-xbar)^2), alpha = ybar - beta*xbar,
    r_squared = 1 - SSE/SST.

    Raises ShapeMismatch when the points do not form an (n, 2) array,
    ValidationError for a NaN or infinite coordinate, InsufficientSamples
    for fewer than two points, DegenerateAbscissa when every x coincides
    (or their spread underflows), and DegenerateVariance when every y
    coincides (the coefficient of determination is undefined there).
    """
    xy = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=np.float64)
    if xy.size and (xy.ndim != 2 or xy.shape[1] != 2):
        raise ShapeMismatch(f"points must form an (n, 2) array, got shape {xy.shape}")
    xy = xy.reshape(-1, 2)
    return fit_lines(xy[:, 0], [xy[:, 1]])[0]


def fit_lines(x: np.ndarray, ys: Iterable[np.ndarray]) -> list[LinearFit]:
    """:func:`fit_ols`'s line for each series in ``ys`` against one 1-D ``x`` of their length."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    ys = [np.ascontiguousarray(y, dtype=np.float64) for y in ys]
    n = len(x)
    # one min and max per array: fit_ols's checks in its order, then every sum's bound; rounding is
    # monotone, so the largest |x - x_bar| is x_bar - lo or hi - x_bar, and products of such maxima
    # bound the products' terms
    extremes = [(float(a.min()), float(a.max())) for a in (x, *ys)] if n else []
    if not all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in extremes):  # min/max keep a NaN
        raise ValidationError("points must be finite numbers")
    if n < 2:
        raise InsufficientSamples(f"regression needs at least 2 points, got {n}")
    (x_lo, x_hi), *y_extremes = extremes
    if x_lo == x_hi:
        raise DegenerateAbscissa("all x values are identical")
    if any(y_lo == y_hi for y_lo, y_hi in y_extremes):
        raise DegenerateVariance("all y values are identical")

    x_bar = _exact_sum(x, max(-x_lo, x_hi)) / n
    dx = x - x_bar
    x_dev = max(x_bar - x_lo, x_hi - x_bar)
    s_xx = _exact_sum(dx * dx, x_dev * x_dev)
    if s_xx == 0.0:
        raise DegenerateAbscissa("the spread of x underflows to zero")
    fits: list[LinearFit] = []
    for y, (lo, hi) in zip(ys, y_extremes):
        y_bar = _exact_sum(y, max(-lo, hi)) / n
        dy = y - y_bar
        y_dev = max(y_bar - lo, hi - y_bar)
        s_xy = _exact_sum(dx * dy, x_dev * y_dev)
        s_st = _exact_sum(dy * dy, y_dev * y_dev)
        if s_st == 0.0:
            raise DegenerateVariance("zero total variance in y")
        beta = s_xy / s_xx
        alpha = y_bar - beta * x_bar
        residual = y - alpha - beta * x
        residual *= residual
        sse = _exact_sum(residual, float(residual.max()))
        # roundoff can push 1 - SSE/SST a hair outside [0, 1]; pin it
        r_squared = min(1.0, max(0.0, 1.0 - sse / s_st))
        fits.append(LinearFit(alpha=alpha, beta=beta, r_squared=r_squared, n=n))
    return fits


def predict_at(fit: LinearFit, x: float) -> float:
    """Point prediction alpha + beta*x, unclamped."""
    return fit.alpha + fit.beta * x
