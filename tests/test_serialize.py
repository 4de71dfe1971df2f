"""Deterministic JSON and series CSV: edge cases and properties of the renderers."""

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darl.serialize import FLOAT_DIGITS, render_json, render_plot_csv, render_series_csv


def format_float(value):
    """One float at FLOAT_DIGITS significant digits, by format() rather than %."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, f".{FLOAT_DIGITS}g")


def recursive_render(obj, level=0):
    """Reference renderer: one recursive call per value and one format() per float."""
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
            parts.append(f"{encode_basestring_ascii(str(key))}: {recursive_render(value, level + 1)}")
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if all(item is None or isinstance(item, (int, float, str)) for item in obj):
            return "[" + ", ".join(recursive_render(item, level) for item in obj) + "]"
        parts = [recursive_render(item, level + 1) for item in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not parts:
        return brackets
    pad = "  " * (level + 1)
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(parts) + f"\n{'  ' * level}{brackets[1]}"


@pytest.mark.parametrize("doc, expected", [
    ({}, "{}"),
    ([], "[]"),
    ({"a": {}, "b": [], "c": ()}, '{\n  "a": {},\n  "b": [],\n  "c": []\n}'),
    ([float("nan")], (ValueError, "cannot serialize non-finite value nan")),
    ({"x": [1.0, float("-inf")]}, (ValueError, "cannot serialize non-finite value -inf")),
    ({"a": 1, 2.5: 0}, (TypeError, "JSON keys must be str or int, got float")),
    ({"x": [{1, 2}]}, (TypeError, "cannot serialize set")),
    # the first error in document order: the NaN, then the bad key
    ({"a": [1.0, float("nan")], 2.5: 0}, (ValueError, "cannot serialize non-finite value nan")),
    ({2.5: float("nan"), "a": 1}, (TypeError, "JSON keys must be str or int, got float")),
])
def test_render_json_edge_cases(doc, expected):
    if isinstance(expected, str):
        assert render_json(doc) == expected
    else:
        error, message = expected
        with pytest.raises(error, match=f"^{message}$"):
            render_json(doc)


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                    st.floats(allow_nan=False, allow_infinity=False))
documents = st.recursive(scalars, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), children, max_size=4),
), max_leaves=25)


def expected_pairs(doc):
    """``doc`` as json.loads reads it back: floats at FLOAT_DIGITS digits, tuples
    as lists, objects as (str key, value) pairs in insertion order."""
    if isinstance(doc, float):
        return float(format(doc, f".{FLOAT_DIGITS}g"))
    if isinstance(doc, (list, tuple)):
        return [expected_pairs(item) for item in doc]
    if isinstance(doc, dict):
        return [(str(key), expected_pairs(value)) for key, value in doc.items()]
    return doc


def containers(doc):
    if isinstance(doc, (list, tuple, dict)):
        yield doc
        for item in doc.values() if isinstance(doc, dict) else doc:
            yield from containers(item)


@settings(max_examples=100, deadline=None)
@given(doc=documents)
def test_render_json_round_trips(doc):
    text = render_json(doc)
    assert json.loads(text, object_pairs_hook=list) == expected_pairs(doc)
    for node in containers(doc):
        if isinstance(node, dict):
            assert ("\n" in render_json(node)) == bool(node)
        else:  # an array breaks onto lines only when it holds an array or object
            nested = any(isinstance(item, (list, tuple, dict)) for item in node)
            assert ("\n" in render_json(node)) == nested


def outcome(render, doc):
    """The rendered text, or the type and message of the error it raised."""
    try:
        return render(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# text built from % conversions, so a % the walk fails to escape shows as a format error or wrong bytes
percent_text = st.one_of(st.text(max_size=4),
                         st.lists(st.sampled_from(["%", "%s", "%%", "%d", "%.15g", "a", "é", '"']),
                                  max_size=4).map("".join),
                         st.sampled_from(["%", "%s", "%%", "100%"]))
edge_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e15]))
oracle_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), percent_text, edge_floats, edge_floats.map(np.float64),
    st.sampled_from([float("nan"), float("-inf"), {1}, np.int64(2)]),  # rare: each raises
)
oracle_documents = st.recursive(oracle_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.one_of(percent_text, st.integers(), st.booleans(), st.sampled_from([2.5, None])),
                    children, max_size=4),
), max_leaves=25)


@settings(max_examples=100, deadline=None)
@given(doc=oracle_documents)
@example({"%s": "%d%%", "100%": [np.float64(-0.0), 5e-324, -0.0], "x": {"%%": [np.float64(1e-310)]}})
@example({"a": [1.0, float("nan")], 2.5: 0})  # the NaN comes first
@example({2.5: float("nan"), "a": 1})  # the bad key comes first
def test_render_json_equals_recursive_oracle(doc):
    # byte for byte, or the same first error
    assert outcome(render_json, doc) == outcome(recursive_render, doc)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(edge_floats, edge_floats, st.one_of(edge_floats, st.just(float("inf")))),
                     max_size=6))
def test_render_plot_csv_matches_format_float(rows):
    # one % format over every cell writes format_float's bytes, or raises its error for the first bad cell
    expected = outcome(lambda r: "".join([
        "length_m,t_sim_c,t_obs_c\n", *(",".join(map(format_float, row)) + "\n" for row in r)]), rows)
    assert outcome(render_plot_csv, rows) == expected


# %g switches to an exponent below 1e-4 and from 1e15 (15 digits) on
SERIES_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.99999999999999e-05, 1e-4,
                999999999999999.0, 1e15, 1e16, 1e6, -1e6, 0.1, 24.28]
series_values = st.lists(st.one_of(st.floats(), st.sampled_from(SERIES_EDGES)), max_size=20)


@settings(max_examples=100, deadline=None)
@given(values=series_values)
@example([])
@example(SERIES_EDGES)
@example([1.0, float("nan"), float("inf")])
@example([float("-inf")])
def test_render_series_csv_matches_format_float(values):
    # one % format over the array writes format_float's bytes, or raises its error
    try:
        expected = "\n".join(["Ordered_Value", *map(format_float, values)]) + "\n"
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            render_series_csv(np.array(values, dtype=np.float64))
        assert str(info.value) == str(exc)
    else:
        assert render_series_csv(np.array(values, dtype=np.float64)) == expected
        assert render_series_csv(values) == expected
