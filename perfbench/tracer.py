"""Traced run: darl's public functions wrapped from outside, one span per call.

Each traced function is looked up in the module that defines it and then
rebound, by identity, at every place a ``darl.*`` module namespace holds it
(``darl.model.fit_ols`` and ``darl.regression.fit_ols`` are separate
bindings). No file of the program changes. Spans stay in memory and are
written out when the run ends. A function that no longer exists is recorded
as absent; it does not fail the run.

Run as a script, this module is the traced child of the ``cold-cli``
workload: ``python tracer.py SPANS_JSON ARG...`` runs ``python -m darl
ARG...`` with the wrappers installed and writes the spans to SPANS_JSON.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pickle
import sys
from time import perf_counter_ns

# (module under darl, function) pairs; the layer is the module.
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("model", "run_configuration"),
    ("model", "build_series"),
    ("model", "compare_with_reference"),
    ("model", "select_best_seed"),
    ("prng", "uniform_series"),
    ("regression", "fit_ols"),
    ("stats", "shapiro_wilk"),
    ("stats", "quartile_summary"),
    ("stats", "rmse"),
    ("serialize", "render_json"),
    ("serialize", "render_series_csv"),
    ("serialize", "render_plot_csv"),
    ("ingest", "load_fixture"),
    ("ingest", "load_config"),
    ("ingest", "load_series_csv"),
    ("ingest", "load_reference_csv"),
)

# Functions whose distinct inputs per op are counted (useful-work ratios).
_KEYED = {"prng.uniform_series": "series", "regression.fit_ols": "fit"}


def _key(arguments: tuple) -> object:
    try:
        return hash(arguments)
    except TypeError:
        return hashlib.sha256(pickle.dumps(arguments)).digest()


class Tracer:
    """Span recorder. A span is (name, start, call, ret, done, parent, op).

    ``call``..``ret`` is the wrapped function itself; ``start``..``done``
    also covers the wrapper's own bookkeeping, so a parent's self time
    excludes its children's tracing overhead as well as their work.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: list[dict] = []        # per-op counters
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self._current: dict | None = None

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded darl.* namespace."""
        for module_name, func in TRACED:
            name = f"{module_name}.{func}"
            try:
                original = getattr(importlib.import_module(f"darl.{module_name}"), func)
            except (ImportError, AttributeError):
                original = None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "darl" or mod_name.startswith("darl.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        keyed = _KEYED.get(name)
        signature = inspect.signature(fn) if keyed else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            counters = self._current
            if keyed is not None and counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for param, value in bound.arguments.items():
                    if hasattr(value, "__next__"):     # an iterator: consume it once, here
                        bound.arguments[param] = list(value)
                values = tuple(bound.arguments.values())
                args, kwargs = bound.args, bound.kwargs
                counters[keyed + "_keys"].add(_key(tuple(
                    tuple(v) if isinstance(v, list) else v for v in values
                )))
                if keyed == "series":
                    counters["values_drawn"] += int(bound.arguments.get("n", 0))
                elif values and hasattr(values[0], "__len__"):
                    counters["points_fitted"] += len(values[0])
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            call = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ret = perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, call, ret, ret, parent, len(self.ops))
            if counters is not None and isinstance(result, str) and name.startswith("serialize.render_"):
                counters["bytes_out"] += len(result.encode("utf-8"))
                self.spans[index] = (name, start, call, ret, perf_counter_ns(), parent, len(self.ops))
            return result

        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin_op(self) -> None:
        self._current = {"series_keys": set(), "fit_keys": set(),
                         "values_drawn": 0, "points_fitted": 0, "bytes_out": 0}

    def end_op(self) -> None:
        counters = self._current
        self._current = None
        self.ops.append({
            "series_distinct": len(counters.pop("series_keys")),
            "fit_distinct": len(counters.pop("fit_keys")),
            **counters,
        })

    def absorb(self, doc: dict) -> None:
        """Append the spans and ops of another tracer (a traced child process)."""
        offset, op_offset = len(self.spans), len(self.ops)
        for name, start, call, ret, done, parent, op in doc["spans"]:
            self.spans.append((name, start, call, ret, done,
                               parent + offset if parent >= 0 else -1, op + op_offset))
        self.ops.extend(doc["ops"])
        self.absent = sorted(set(self.absent) | set(doc["absent"]))

    # -- aggregation --------------------------------------------------------

    def per_op(self) -> dict[str, float]:
        """Per-op means: <fn>.calls/.ms/.self_ms for each traced function,
        the useful-work ratios and the layer counters."""
        ops = max(len(self.ops), 1)
        calls = {f"{m}.{f}": 0 for m, f in TRACED}
        inside = dict.fromkeys(calls, 0)
        covered = dict.fromkeys(calls, 0)       # time of direct children, incl. their wrappers
        for name, start, call, ret, done, parent, _ in self.spans:
            calls[name] += 1
            inside[name] += ret - call
            if parent >= 0:
                covered[self.spans[parent][0]] += done - start
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.ms"] = inside[name] / 1e6 / ops
            out[f"{name}.self_ms"] = (inside[name] - covered[name]) / 1e6 / ops
        total = {k: sum(op[k] for op in self.ops) for k in
                 ("series_distinct", "fit_distinct", "values_drawn", "points_fitted", "bytes_out")}
        series_calls = calls["prng.uniform_series"]
        fit_calls = calls["regression.fit_ols"]
        out["model.series_useful_ratio"] = total["series_distinct"] / series_calls if series_calls else 0.0
        out["model.fit_useful_ratio"] = total["fit_distinct"] / fit_calls if fit_calls else 0.0
        out["prng.values_drawn"] = total["values_drawn"] / ops
        out["regression.points_fitted"] = total["points_fitted"] / ops
        out["serialize.bytes_out"] = total["bytes_out"] / ops
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "ops": self.ops, "absent": self.absent}, fh)


def _child(out_path: str, argv: list[str]) -> int:
    import runpy

    import darl.cli  # noqa: F401  -- loads every darl module before wrapping

    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    sys.argv = ["darl", *argv]
    code = 0
    try:
        runpy.run_module("darl", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.end_op()
        tracer.write(out_path)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
