"""The series CSV's lines by numpy: the bytes of ``"%.15g\\n" % v`` per finite value, exactly.

``serialize.render_series_csv`` imports this module on first use, so a command that writes no series
never compiles it. CPython's ``%.15g`` takes its slow bignum path for every value, since its fast
path stops at 14 digits; here each value's 15 digits are found by float arithmetic whose rounding
is checked exactly (Dekker's TwoProduct, 1971).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .serialize import _FLOAT_SLOT

_CHUNK = 1 << 10  # values per numpy pass; every pass is full (see series_lines)
# A value's decimal exponent e, -4..14 where the layout writes it, is held as the float E = e + 5: the
# writer keeps to the float64 arithmetic and comparisons, copies and one uint8 multiply, as each numpy
# loop that the rest of a series-roundtrip op does not run cost 64-128 KiB of resident code.
_SCALE = np.array([float(10 ** (19 - E)) for E in range(20)] + [0.1])  # 10^(14-e), exact up to E = 19
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]  # e < 0: "0.", then a zero per decade below 0.1
_PREFIX_AT = np.array([[4.0], [4.0], [3.0], [2.0], [1.0]])  # the largest E that writes each byte
_ROW_E = np.arange(4.0, 20.0)[:, None]  # digit row j of the layout, as the E of a point after it
_GROUP_E = np.array([[4.0], [8.0], [12.0], [16.0]])  # _ROW_E of each 4-digit group's first row
_UNITS = np.array([[1e12], [1e8], [1e4], [1.0]])  # d over these, floored: its 3 + 4 + 4 + 4 digit groups


@lru_cache(maxsize=None)  # built on first use, not at import
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each of 0..9999: its four ASCII digits, seen as one uint32, and the index (0-3) of its
    last nonzero digit, -inf for 0."""
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    last = np.full((10, 10, 10, 10), -np.inf)
    for i in range(4):  # digit i varies along axis i; a later nonzero digit overwrites the index
        quads[..., i] = np.arange(48, 58, dtype=np.uint8).reshape([-1 if j == i else 1 for j in range(4)])
        last[(slice(None),) * i + (slice(1, None),)] = i
    return quads.view(np.uint32).ravel(), last.ravel()


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == v exactly, each with at most 26 significant bits."""
    t = 134217729.0 * v  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _round15(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y = fl(a * 10^(14-e)), and d, the exact product rounded half-even to an integer. d is y rounded
    unless y is a tie; there the product's error, by Dekker's TwoProduct, decides."""
    y = a * (p := _SCALE[E.astype(np.intp)])
    d = (y + 2.0 ** 52) - 2.0 ** 52  # y rounded half-even, for y < 2^52
    tie = np.flatnonzero(np.fabs(d - y) == 0.5)
    if tie.size:
        (ah, al), (ph, pl), yt = _split(a[tie]), _split(p[tie]), y[tie]
        err = ((ah * ph - yt) + ah * pl + al * ph) + al * pl  # a * p - y, exactly
        d[tie] = np.where(err > 0, yt + 0.5, np.where(err < 0, yt - 0.5, d[tie]))
    return y, d


def _series_lines(x: np.ndarray) -> str:
    """``"%.15g\\n" % v`` for each finite v in x, without formatting each value in Python.

    The 15 digits d in [1e14, 1e15) and the exponent come from ``_round15``; a log10 estimate of
    the exponent that is one off is redone once. Each line is a column of a (38, n) byte matrix:
    sign, the "0.000" prefix of e < 0, then each digit and a slot for the point after it (the last
    slot holds the newline); NUL cells are dropped by one translate. The exponent forms
    (0 < |v| < 1e-4, |v| >= 1e15) are left to ``%``."""
    n = x.size
    a = np.fabs(x)
    zero, tiny, huge = a == 0, a < 1e-4, a >= 1e15  # zero is written as d = 0 at e = 0: "0"
    fallback = tiny ^ zero ^ huge  # xor as or: huge and tiny are disjoint, and zero lies in tiny
    a[tiny ^ huge] = 1.0
    E = (np.clip(np.log10(a), -4, 14) + 5).astype(np.intp).astype(np.float64)  # floored: it is positive
    y, d = _round15(a, E)
    low, high = y < 1e14, y >= 1e15  # the estimate is one too high, or one too low
    np.subtract(E, 1.0, out=E, where=low)
    np.add(E, 1.0, out=E, where=high)
    redo = np.flatnonzero(low ^ high)
    if redo.size:
        d[redo] = _round15(a[redo], E[redo])[1]
    carry = d == 1e15  # rounded up to the next power of ten
    d[carry], d[zero] = 1e14, 0
    np.add(E, 1.0, out=E, where=carry)
    fallback ^= E > 19
    groups = (d / _UNITS).astype(np.intp)  # each quotient's floor is exact: d < 2^53
    groups[1:] -= 10000 * groups[:-1]
    quads, last_in_quad = _quad_tables()
    digits = np.take(quads, groups).view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1).reshape(16, n)
    last = (np.take(last_in_quad, groups) + _GROUP_E).max(axis=0)  # the _ROW_E of the last nonzero digit
    mat = np.empty((38, n), np.uint8)  # each cell: its byte times a 0/1 mask
    np.multiply(np.signbit(x).view(np.uint8), np.uint8(45), out=mat[0])
    np.multiply((E <= _PREFIX_AT).view(np.uint8), _PREFIX, out=mat[1:6])
    pairs = mat[6:].reshape(16, 2, n)  # row 0 is the 3-digit group's leading '0'
    keep = _ROW_E <= np.maximum(last, E)  # no trailing zero
    np.multiply(keep.view(np.uint8), digits, out=pairs[:, 0])
    point = _ROW_E == np.where(last > E, E, np.nan)  # no bare point
    np.multiply(point.view(np.uint8), np.uint8(46), out=pairs[:, 1])
    pairs[0] = 0
    pairs[15, 1] = 10
    rest = np.flatnonzero(fallback)
    mat[:-1, rest] = 0  # an empty line, filled by % below
    text = mat.T.tobytes().translate(None, b"\0").decode("ascii")
    if not rest.size:
        return text
    lines = text.split("\n")
    for i, value in zip(rest.tolist(), x[rest].tolist()):
        lines[i] = _FLOAT_SLOT % value
    return "\n".join(lines)


def series_lines(values: np.ndarray) -> list[str]:
    """The lines of finite float64 values, one string per pass of ``_CHUNK`` values (``_series_lines``).

    The last pass is padded with 1.0 to full size, so that every pass allocates blocks of the same
    sizes: glibc then reuses them, where passes of varying size grew the heap by fragments."""
    full = values.size - values.size % _CHUNK
    lines = [_series_lines(values[i:i + _CHUNK]) for i in range(0, full, _CHUNK)]
    if pad := -values.size % _CHUNK:  # each padding 1.0 writes "1\n"
        lines.append(_series_lines(np.concatenate([values[full:], np.ones(pad)]))[:-2 * pad])
    return lines
