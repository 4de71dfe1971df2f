"""Deterministic JSON and series CSV: edge cases and properties of the renderers."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darl.serialize import FLOAT_DIGITS, format_float, render_json, render_series_csv


@pytest.mark.parametrize("doc, expected", [
    ({}, "{}"),
    ([], "[]"),
    ({"a": {}, "b": [], "c": ()}, '{\n  "a": {},\n  "b": [],\n  "c": []\n}'),
    ([float("nan")], (ValueError, "cannot serialize non-finite value nan")),
    ({"x": [1.0, float("-inf")]}, (ValueError, "cannot serialize non-finite value -inf")),
    ({"a": 1, 2.5: 0}, (TypeError, "JSON keys must be str or int, got float")),
    ({"x": [{1, 2}]}, (TypeError, "cannot serialize set")),
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
