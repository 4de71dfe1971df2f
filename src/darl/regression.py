"""Ordinary least squares of temperature against pipe length.

The fit is the plain closed-form simple regression, computed with centered
(two-pass) sums accumulated by ``math.fsum``. Sorted synthetic series are
nearly collinear, and the centered form avoids the cancellation that the
naive sum-of-products formula suffers there.

:func:`fit_ols` takes an ``(n, 2)`` float array of (x, y) rows or any
iterable of (x, y) pairs. numpy forms each term; ``fsum`` is exactly
rounded, so the order in which the terms are added cannot change a sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateAbscissa, DegenerateVariance, InsufficientSamples, ShapeMismatch


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
    InsufficientSamples for fewer than two points, DegenerateAbscissa
    when every x coincides (or their spread underflows), and
    DegenerateVariance when every y coincides (the coefficient of
    determination is undefined there).
    """
    xy = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=np.float64)
    if xy.size and (xy.ndim != 2 or xy.shape[1] != 2):
        raise ShapeMismatch(f"points must form an (n, 2) array, got shape {xy.shape}")
    n = len(xy) if xy.size else 0
    if n < 2:
        raise InsufficientSamples(f"regression needs at least 2 points, got {n}")
    x, y = xy[:, 0], xy[:, 1]
    if (x == x[0]).all():
        raise DegenerateAbscissa("all x values are identical")
    if (y == y[0]).all():
        raise DegenerateVariance("all y values are identical")

    x_bar = math.fsum(x.tolist()) / n
    y_bar = math.fsum(y.tolist()) / n
    dx = x - x_bar
    dy = y - y_bar
    s_xx = math.fsum((dx * dx).tolist())
    s_xy = math.fsum((dx * dy).tolist())
    s_st = math.fsum((dy * dy).tolist())
    if s_xx == 0.0:
        raise DegenerateAbscissa("the spread of x underflows to zero")
    if s_st == 0.0:
        raise DegenerateVariance("zero total variance in y")

    beta = s_xy / s_xx
    alpha = y_bar - beta * x_bar
    residual = y - alpha - beta * x
    sse = math.fsum((residual * residual).tolist())
    # roundoff can push 1 - SSE/SST a hair outside [0, 1]; pin it
    r_squared = min(1.0, max(0.0, 1.0 - sse / s_st))
    return LinearFit(alpha=alpha, beta=beta, r_squared=r_squared, n=n)


def predict_at(fit: LinearFit, x: float) -> float:
    """Point prediction alpha + beta*x, unclamped."""
    return fit.alpha + fit.beta * x
