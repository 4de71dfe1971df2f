"""Ordinary least squares of temperature against pipe length.

The fit is the plain closed-form simple regression, computed with centered (two-pass) sums.
Sorted synthetic series are nearly collinear, and the centered form avoids the cancellation
that the naive sum-of-products formula suffers there. :func:`fit_lines` takes a run's
length-grid sums once and fits each seed's series against them; :func:`fit_ols` fits an
``(n, 2)`` float array of (x, y) rows or any iterable of (x, y) pairs. Each sum equals ``math.fsum``
of its terms, taken by error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008) in :func:`_exact_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateAbscissa, DegenerateVariance, InsufficientSamples, ShapeMismatch, ValidationError


def _exact_sum(a: np.ndarray) -> float:
    """``math.fsum(a)`` for a 1-D float64 array, without a Python float per value.

    Per level, sigma = 2^k >= 2(n+2)·max|p| splits p exactly into t = (p + sigma) - sigma, all
    multiples of 2^(k-53) whose partial sums stay below sigma (so numpy sums them exactly), and
    p - t, below 2^(k-53). What six levels leave joins the level sums; one fsum rounds them all.
    fsum sums alone below 1,000 values (extraction breaks even near 700, and the fixtures' 540 and
    830 keep fsum), and for a NaN, an infinity, a value of 2^900 or more, or a zero or non-finite total.
    """
    n = len(a)
    if n >= 1_000 and (bound := float(np.abs(a).max())) < 2.0**900:  # False for a NaN; p + sigma stays finite
        parts, p, t = [], a.copy(), np.empty(n)
        while bound and len(parts) < 6:
            sigma = math.ldexp(1.0, math.frexp(2 * (n + 2) * bound)[1])
            np.subtract(np.add(p, sigma, out=t), sigma, out=t)
            p -= t
            parts.append(float(t.sum()))
            bound = float(np.abs(p, out=t).max())
        total = math.fsum(parts + p[p != 0].tolist() if bound else parts)
        if total and math.isfinite(total):
            return total
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
    # fit_ols's checks in its order; the sums of x are then taken once for every series
    if not (np.isfinite(x).all() and all(np.isfinite(y).all() for y in ys)):
        raise ValidationError("points must be finite numbers")
    n = len(x)
    if n < 2:
        raise InsufficientSamples(f"regression needs at least 2 points, got {n}")
    if (x == x[0]).all():
        raise DegenerateAbscissa("all x values are identical")
    if any((y == y[0]).all() for y in ys):
        raise DegenerateVariance("all y values are identical")

    x_bar = _exact_sum(x) / n
    dx = x - x_bar
    s_xx = _exact_sum(dx * dx)
    if s_xx == 0.0:
        raise DegenerateAbscissa("the spread of x underflows to zero")
    fits: list[LinearFit] = []
    for y in ys:
        y_bar = _exact_sum(y) / n
        dy = y - y_bar
        s_xy = _exact_sum(dx * dy)
        s_st = _exact_sum(dy * dy)
        if s_st == 0.0:
            raise DegenerateVariance("zero total variance in y")
        beta = s_xy / s_xx
        alpha = y_bar - beta * x_bar
        residual = y - alpha - beta * x
        sse = _exact_sum(residual * residual)
        # roundoff can push 1 - SSE/SST a hair outside [0, 1]; pin it
        r_squared = min(1.0, max(0.0, 1.0 - sse / s_st))
        fits.append(LinearFit(alpha=alpha, beta=beta, r_squared=r_squared, n=n))
    return fits


def predict_at(fit: LinearFit, x: float) -> float:
    """Point prediction alpha + beta*x, unclamped."""
    return fit.alpha + fit.beta * x
