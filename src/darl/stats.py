"""Validation statistics: Shapiro-Wilk, RMSE, relative error, quartiles.

The Shapiro-Wilk test is the 1995 polynomial refinement (valid for sample
sizes 3..5000): order-statistic weights from Blom scores normalised to unit
square sum, with the two extreme weights replaced by polynomial
approximations in n, and a log-normal approximation for the null
distribution of the statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import (DegenerateVariance, DivisionByZero, InsufficientSamples, ShapeMismatch, UnsupportedSampleSize,
                     ValidationError)

_NORMAL = NormalDist()

# Weight-correction and moment polynomials (ascending powers).
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)     # mean of log(1-W), n <= 11
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)   # log sd of log(1-W), n <= 11
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)  # mean, n >= 12 (in log n)
_C6 = (-0.4803, -0.082676, 0.0030302)            # log sd, n >= 12 (in log n)
_G = (-2.273, 0.459)                             # gamma bound, n <= 11

_MIN_N = 3
_MAX_N = 5000

#: Significance level at which Shapiro-Wilk rejects normality.
ALPHA = 0.05


def _poly(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class NormalityResult:
    w_statistic: float
    p_value: float
    n: int

    @property
    def rejected(self) -> bool:
        """True when normality is rejected at significance level ALPHA."""
        return self.p_value < ALPHA


@dataclass(frozen=True)
class QuartileSummary:
    q1: float
    q2: float
    q3: float
    iqr: float


@lru_cache(maxsize=8)
def _sw_weights(n: int) -> tuple[np.ndarray, float]:
    """Centered Shapiro-Wilk weights for sample size n >= 3 and their square sum; read-only, cached per n."""
    half = n // 2
    if n == 3:
        a = np.array([math.sqrt(0.5)])
    else:
        m = np.array([_NORMAL.inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, half + 1)])
        summ2 = 2.0 * float(np.sum(m * m))
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        ends, num, den = [], summ2, 1.0
        # one polynomial end weight up to n = 5, then two; each leaves both square sums in turn
        for coeffs, m_end in zip((_C1, _C2) if n > 5 else (_C1,), m):
            ends.append(_poly(coeffs, rsn) - m_end / ssumm2)
            num -= 2.0 * m_end ** 2
            den -= 2.0 * ends[-1] ** 2
        a = m / -math.sqrt(num / den)
        a[:len(ends)] = ends
    weights = np.zeros(n)
    weights[:half] = -a  # weights for the lower tail are negative
    weights[n - half:] = a[::-1]
    weights -= weights.mean()
    weights.setflags(write=False)
    return weights, float(np.dot(weights, weights))


def shapiro_wilk(values: Sequence[float]) -> NormalityResult:
    """Shapiro-Wilk normality test for 3 <= n <= 5000 samples.

    W is the squared correlation between the sorted sample and the
    normalised expected normal order statistics; the p-value comes from the
    log-normal approximation to 1 - W. Raises UnsupportedSampleSize outside
    the supported range, ValidationError for a NaN or infinite value and
    DegenerateVariance for constant input.
    """
    n = len(values)
    if n < _MIN_N or n > _MAX_N:
        raise UnsupportedSampleSize(f"sample size {n} outside supported range [{_MIN_N}, {_MAX_N}]")
    x = np.sort(np.asarray(values, dtype=float))
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):  # NaN sorts last, -inf first
        raise ValidationError("sample values must be finite numbers")
    # scaled by 2^-e to put max|x| in [0.5, 1): no sum of squares overflows, and W and p are those of x
    # (a power of two rounds nothing unless a value turns subnormal, and then it is lost in the mean)
    x = np.ldexp(x, -math.frexp(max(-x[0], x[-1]))[1])
    if x[-1] - x[0] < 1e-19:
        raise DegenerateVariance("sample has zero range")

    wc, ssw = _sw_weights(n)
    # squared correlation, evaluated via 1 - W to keep precision near W = 1
    xc = x - x.mean()
    ssx = float(np.dot(xc, xc))
    sax = float(np.dot(wc, xc))
    ssassx = math.sqrt(ssw * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssw * ssx)
    w = min(1.0 - w1, 1.0)

    if n == 3:
        pi6 = 6.0 / math.pi
        stqr = math.asin(math.sqrt(0.75))
        p = pi6 * (math.asin(math.sqrt(w)) - stqr)
    elif w1 <= 0.0:  # W rounds to 1: the p-value's limit as 1 - W -> 0
        p = 1.0
    else:
        y = math.log(w1)
        if n <= 11:
            # y < gamma: gamma > 0 from n = 5; at n = 4, W >= 4*a1^2/3 = 0.6298 puts y below -0.99
            y = -math.log(_poly(_G, n) - y)
            mu = _poly(_C3, n)
            sigma = math.exp(_poly(_C4, n))
        else:
            log_n = math.log(n)
            mu = _poly(_C5, log_n)
            sigma = math.exp(_poly(_C6, log_n))
        p = 1.0 - _NORMAL.cdf((y - mu) / sigma)
    return NormalityResult(w_statistic=w, p_value=min(1.0, max(0.0, p)), n=n)


def rmse(observed: Sequence[float], simulated: Sequence[float]) -> float:
    """Root mean square error sqrt(mean((obs - sim)^2))."""
    obs = [float(v) for v in observed]
    sim = [float(v) for v in simulated]
    if len(obs) != len(sim):
        raise ShapeMismatch(f"length mismatch: {len(obs)} observed vs {len(sim)} simulated")
    if not obs:
        raise InsufficientSamples("rmse of empty vectors is undefined")
    # halved so no difference overflows, then scaled by 2^-f so the largest is in [0.5, 1) and no square over- or
    # underflows needlessly; powers of two round nothing above 2^-1021, so only an RMSE beyond the float range
    # overflows (to inf, in the last doubling). d * d, unlike libm's pow(d, 2), is correctly rounded.
    halves = [0.5 * o - 0.5 * s for o, s in zip(obs, sim)]
    f = math.frexp(max(map(abs, halves)))[1]
    scaled = [math.ldexp(h, -f) for h in halves]
    return 2.0 * math.ldexp(math.sqrt(math.fsum(d * d for d in scaled) / len(scaled)), f)


def relative_error(observed: float, simulated: float) -> float:
    """Percent error 100*|observed - simulated| / |observed|.

    The denominator is the observed (experimental) value.
    """
    observed = float(observed)
    if observed == 0.0:
        raise DivisionByZero("relative error against a zero observed value")
    error = 100.0 * abs(observed - float(simulated)) / abs(observed)
    if not math.isfinite(error):
        raise DivisionByZero(f"relative error against observed value {observed!r} overflows")
    return error


def _quantile_type7(sorted_values: np.ndarray, p: float) -> float:
    # position h = (n-1)p on the sorted sample, linear interpolation in Python floats
    h = (len(sorted_values) - 1) * p
    lo = math.floor(h)
    frac = h - lo
    below = float(sorted_values[lo])
    if frac == 0.0:
        return below
    above = float(sorted_values[lo + 1])
    # scaled by 2^-e to put max(|below|, |above|) in [0.5, 1), so the difference cannot overflow; exact, since
    # a value that turns subnormal is one the other absorbs
    e = math.frexp(max(abs(below), abs(above)))[1]
    below, above = math.ldexp(below, -e), math.ldexp(above, -e)
    return math.ldexp(below + frac * (above - below), e)


def quartile_summary(values: Sequence[float]) -> QuartileSummary:
    """Quartiles by linear interpolation (the common "type 7" convention); a NaN or infinity is a ValidationError."""
    data = np.sort(np.asarray(values, dtype=float), kind="stable")
    if not data.size:
        raise InsufficientSamples("quartiles of an empty sample are undefined")
    if not (math.isfinite(data[0]) and math.isfinite(data[-1])):
        raise ValidationError("sample values must be finite numbers")
    q1 = _quantile_type7(data, 0.25)
    q2 = _quantile_type7(data, 0.50)
    q3 = _quantile_type7(data, 0.75)
    return QuartileSummary(q1=q1, q2=q2, q3=q3, iqr=q3 - q1)
