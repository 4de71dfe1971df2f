"""Deterministic serialization: fixed-digit JSON and the CSV artifacts.

Every float is rendered at 15 significant digits so that identical inputs
produce byte-identical files on any platform; shortest-round-trip repr is
never used for persisted output.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

FLOAT_DIGITS = 15


def format_float(value: float) -> str:
    """Render a finite float at FLOAT_DIGITS significant digits."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, f".{FLOAT_DIGITS}g")


def _render(obj, level: int) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, (str, int)):
                raise TypeError(f"JSON keys must be str or int, got {type(key).__name__}")
            parts.append(f"{encode_basestring_ascii(str(key))}: {_render(value, level + 1)}")
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if all(item is None or isinstance(item, (int, float, str)) for item in obj):
            return "[" + ", ".join(_render(item, level) for item in obj) + "]"
        parts = [_render(item, level + 1) for item in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not parts:
        return brackets
    pad = "  " * (level + 1)
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(parts) + f"\n{'  ' * level}{brackets[1]}"


def render_json(obj) -> str:
    """Deterministic JSON text: 2-space indent, insertion-ordered keys,
    scalar-only arrays inlined, floats at 15 significant digits."""
    return _render(obj, 0)


def render_series_csv(values: Iterable[float]) -> str:
    """Single-column CSV with an unquoted Ordered_Value header."""
    lines = ["Ordered_Value"]
    lines.extend(format_float(v) for v in values)
    return "\n".join(lines) + "\n"


def render_plot_csv(rows: Iterable[tuple[float, float, float]]) -> str:
    """Figure-data CSV with columns length_m,t_sim_c,t_obs_c."""
    lines = ["length_m,t_sim_c,t_obs_c"]
    for length, t_sim, t_obs in rows:
        lines.append(",".join((format_float(length), format_float(t_sim), format_float(t_obs))))
    return "\n".join(lines) + "\n"


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
