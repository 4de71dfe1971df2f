"""Deterministic serialization: fixed-digit JSON and the CSV artifacts.

Every float is rendered at 15 significant digits, by one ``%`` format per
document, so identical inputs produce byte-identical files on any platform;
shortest-round-trip repr is never used for persisted output.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Iterable, Sequence

import numpy as np

FLOAT_DIGITS = 15
_FLOAT_SLOT = f"%.{FLOAT_DIGITS}g"  # the bytes of format(value, ".15g"): both use CPython's float formatter
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _finite(value) -> float:
    """value as a float for a FLOAT_DIGITS slot; ValueError for a NaN or an infinity."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return value


@lru_cache(maxsize=1024, typed=True)  # a report repeats its record keys; typed keeps 1 and True apart
def _key(key) -> str:
    if not isinstance(key, (str, int)):
        raise TypeError(f"JSON keys must be str or int, got {type(key).__name__}")
    return encode_basestring_ascii(str(key)).replace("%", "%%") + ": "


def _render(items, indent: str, out: list, floats: list) -> None:
    """Append each (prefix, value) item's text to out: scalars inline, containers by
    recursion at indent (a newline and spaces), and a float as a % slot whose value joins floats."""
    for prefix, value in items:
        out.append(prefix)
        if isinstance(value, float):
            out.append(_FLOAT_SLOT)
            floats.append(value if math.isfinite(value) else _finite(value))  # _finite raises
        elif value is None or isinstance(value, bool):
            out.append(_CONSTANTS[value])
        elif isinstance(value, int):
            out.append(str(value))
        elif isinstance(value, str):
            out.append(encode_basestring_ascii(value).replace("%", "%%"))
        elif isinstance(value, (dict, list, tuple)):
            is_dict = isinstance(value, dict)
            if is_dict or any(item is not None and not isinstance(item, (int, float, str)) for item in value):
                inner = indent + "  "  # one item per line
                seps, close = chain((inner,), repeat("," + inner)), indent if value else ""
            else:  # scalars only: one line
                inner, seps, close = indent, chain(("",), repeat(", ")), ""
            out.append("{" if is_dict else "[")
            _render(zip(map(add, seps, map(_key, value)), value.values()) if is_dict else zip(seps, value),
                    inner, out, floats)
            out.append(close + ("}" if is_dict else "]"))
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(obj) -> str:
    """Deterministic JSON text: 2-space indent, insertion-ordered keys, scalar-only arrays
    inlined, and floats at 15 significant digits, filled by one ``%`` format (``%`` as ``%%``)."""
    out, floats = [], []
    _render((("", obj),), "\n", out, floats)
    return "".join(out) % tuple(floats)


def render_series_csv(values: Sequence[float] | np.ndarray) -> str:
    """Single-column CSV with an unquoted Ordered_Value header, in one ``%`` format."""
    values = np.asarray(values, dtype=np.float64)
    # a NaN propagates into min and max, so both are finite only when every value is
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        list(map(_finite, values.tolist()))  # raises its error for the first non-finite value
    return "Ordered_Value\n" + (_FLOAT_SLOT + "\n") * values.size % tuple(values.tolist())


def render_plot_csv(rows: Iterable[tuple[float, float, float]]) -> str:
    """Figure-data CSV with columns length_m,t_sim_c,t_obs_c, in one ``%`` format."""
    cells = [_finite(v) for length, t_sim, t_obs in rows for v in (length, t_sim, t_obs)]
    row = f"{_FLOAT_SLOT},{_FLOAT_SLOT},{_FLOAT_SLOT}\n"
    return "length_m,t_sim_c,t_obs_c\n" + row * (len(cells) // 3) % tuple(cells)


def render_table(headers: Sequence[str], rows: Iterable[Iterable[object]]) -> str:
    """Aligned human-readable table: first column left, the rest right."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([c if isinstance(c, str) else format(c, ".4f") if isinstance(c, float) else str(c) for c in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out = []
    for r, row in enumerate(cells):
        line = "  ".join(
            row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
            for i in range(len(row))
        )
        out.append(line.rstrip())
        if r == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"
