"""Deterministic JSON and series CSV: edge cases and properties of the renderers."""

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darl._series_csv import _CHUNK
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


def _powers_of_ten_and_neighbours():
    """Each power of ten from 1e-5 to 1e16 and the doubles up to 8 ulps either side: where a log10
    estimate of the exponent is one off, and where 15 digits carry into the next power."""
    out = [9.9999999999999995, 999999999999999.5]
    for power in (float(f"1e{k}") for k in range(-5, 17)):
        below = above = power
        out.append(power)
        for _ in range(8):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            out += [below, above]
    return np.array(out)


SERIES_POOLS = {
    "powers-of-ten": _powers_of_ten_and_neighbours(),
    "zero-subnormal-huge": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308]),
}


def _series_family(kind, rng, n):
    """n values of one kind, drawn with rng."""
    if kind in SERIES_POOLS:
        return rng.choice(SERIES_POOLS[kind], n)
    if kind == "generate-like":  # sorted uniform draws whose bounds straddle 0
        t_min, t_max = -rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)
        return np.sort(t_min + rng.random(n) * (t_max - t_min))
    if kind == "log-uniform":
        return 10.0 ** rng.uniform(-9.0, 17.0, n) * rng.choice([-1.0, 1.0], n)
    # exact ties at 15 digits: odd q / 2^k has the 16 significant digits of q * 5^k, the last a 5
    k = rng.integers(1, 23, n)
    low = -(-10 ** 15 // 5 ** k) | 1
    q = low + 2 * (rng.integers(0, 2 ** 62, n) % (((10 ** 16 - 1) // 5 ** k - low) // 2 + 1))
    ties = np.ldexp(q.astype(np.float64), -k)
    if kind == "exact-ties":
        return ties
    # near-ties: the nearest double to a 16-digit decimal ending in 5, so the scaled product's rounding
    # error decides a product that rounds to a tie
    digits = rng.integers(10 ** 14, 10 ** 15, n) * 10 + 5
    return np.array([float(f"{d}e{x}") for d, x in zip(digits.tolist(), rng.integers(-20, 2, n).tolist())])


SERIES_KINDS = ("generate-like", "log-uniform", "powers-of-ten", "exact-ties", "near-ties", "zero-subnormal-huge")


def test_exact_ties_have_sixteen_digits_ending_in_5():
    ties = _series_family("exact-ties", np.random.default_rng(0), 2000)
    for value in ties.tolist():
        text = format(value, ".15e")  # 16 significant digits hold it exactly
        assert float(text) == value and text.split("e")[0][-1] == "5"


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(0, 40_000), st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 32 * _CHUNK + 3])),
       seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.sets(st.sampled_from(SERIES_KINDS), min_size=1),
       bad=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                              st.sampled_from([float("nan"), float("inf"), float("-inf")])), max_size=2))
@example(n=40_000, seed=29, kinds=set(SERIES_KINDS), bad=[])
@example(n=2 * _CHUNK + 1, seed=7, kinds={"generate-like"}, bad=[(0.9, float("inf")), (0.2, float("nan"))])
def test_render_series_csv_matches_format_float_across_chunks(n, seed, kinds, bad):
    # the numpy writer's bytes are format_float's, value by value, up to 40,000 values (full chunks and a
    # padded partial one), or its error is the one for the first non-finite value
    rng = np.random.default_rng(seed)
    kinds = sorted(kinds)
    which = rng.integers(0, len(kinds), n)
    values = np.empty(n)
    for i, kind in enumerate(kinds):
        values[which == i] = _series_family(kind, rng, int(np.count_nonzero(which == i)))
    for at, value in bad if n else ():
        values[int(at * n)] = value
    assert outcome(render_series_csv, values) == outcome(
        lambda v: "".join(["Ordered_Value\n", *(format_float(x) + "\n" for x in v.tolist())]), values)
