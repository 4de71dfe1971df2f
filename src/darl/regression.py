"""Ordinary least squares of temperature against pipe length.

The fit is the plain closed-form simple regression, computed with centered
(two-pass) sums accumulated by ``math.fsum``. Sorted synthetic series are
nearly collinear, and the centered form avoids the cancellation that the
naive sum-of-products formula suffers there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DegenerateAbscissa, DegenerateVariance, InsufficientSamples


@dataclass(frozen=True)
class LinearFit:
    """Intercept/slope pair with its coefficient of determination."""

    alpha: float      # intercept, degC
    beta: float       # slope, degC per m
    r_squared: float  # in [0, 1]
    n: int


def fit_ols(points: Iterable[tuple[float, float]]) -> LinearFit:
    """Least-squares line through (x, y) samples.

    beta = sum((x-xbar)(y-ybar)) / sum((x-xbar)^2), alpha = ybar - beta*xbar,
    r_squared = 1 - SSE/SST.

    Raises InsufficientSamples for fewer than two points, DegenerateAbscissa
    when every x coincides, and DegenerateVariance when every y coincides
    (the coefficient of determination is undefined there).
    """
    xs: list[float] = []
    ys: list[float] = []
    for x, y in points:
        xs.append(float(x))
        ys.append(float(y))
    n = len(xs)
    if n < 2:
        raise InsufficientSamples(f"regression needs at least 2 points, got {n}")
    if all(x == xs[0] for x in xs):
        raise DegenerateAbscissa("all x values are identical")
    if all(y == ys[0] for y in ys):
        raise DegenerateVariance("all y values are identical")

    x_bar = math.fsum(xs) / n
    y_bar = math.fsum(ys) / n
    s_xx = math.fsum((x - x_bar) ** 2 for x in xs)
    s_xy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    s_st = math.fsum((y - y_bar) ** 2 for y in ys)
    if s_st == 0.0:
        raise DegenerateVariance("zero total variance in y")

    beta = s_xy / s_xx
    alpha = y_bar - beta * x_bar
    sse = math.fsum((y - alpha - beta * x) ** 2 for x, y in zip(xs, ys))
    # roundoff can push 1 - SSE/SST a hair outside [0, 1]; pin it
    r_squared = min(1.0, max(0.0, 1.0 - sse / s_st))
    return LinearFit(alpha=alpha, beta=beta, r_squared=r_squared, n=n)


def predict_at(fit: LinearFit, x: float) -> float:
    """Point prediction alpha + beta*x, unclamped."""
    return fit.alpha + fit.beta * x
