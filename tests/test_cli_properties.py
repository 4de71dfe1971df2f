"""Property: any config document, reference or series bytes give exit 0, 2, 3 or 4.

``darl run``, ``sweep`` and ``validate --series`` either succeed and exit 0,
or print an ``error:`` line and exit 2, 3 or 4; an unexpected exception
escaping ``main`` fails the property, and so does a numpy RuntimeWarning (an
overflow or an invalid operation on some path; the suite makes every warning
an error). Each document starts from a
valid config and replaces a few keys with values of the key's JSON type,
including extremes: lengths such as 1e307 m, ``n_override`` beyond the sample
bound, finite temperatures whose span overflows, pipes too long or too short
for an ``n_override`` grid. It may also drop a key, or set one to a value of
any JSON type, or add an unknown key. Valid lengths stay short so that each
example runs in milliseconds.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from darl.cli import main
from darl.model import ExperimentConfig
from darl.prng import KNOWN_FERMAT_PRIMES, MAX_SAMPLE_COUNT

BASE = {
    "t_in_c": 31.01, "t_end_c": 25.81, "t_w_c": 24.28, "t_w_uncertainty_c": 0.09,
    "total_length_m": 5.4, "target_lengths_m": [2.5, 3.4, 4.4],
    "seeds": [3, 5, 17, 257, 65537], "n_override": None,
    "sort_order": "descending", "darl_mode": "as-printed",
}

EXTREMES = (0.0, 1e-310, -1e-310, 5e-305, 1e7, 1e200, 1e307, -1e307, 1e308, -1e308,
            1.7976931348623157e308, float("nan"), float("inf"), float("-inf"))

numbers = st.one_of(st.floats(-100.0, 100.0), st.sampled_from(EXTREMES), st.floats(),
                    st.integers(-300, 300))
any_json = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
                     st.lists(st.integers(0, 70000), max_size=3))

VALUES = {
    "t_in_c": numbers, "t_end_c": numbers, "t_w_c": numbers, "t_w_uncertainty_c": numbers,
    "total_length_m": st.one_of(st.floats(0.01, 6.0), st.sampled_from(
        (1e307, 1e9, (MAX_SAMPLE_COUNT + 1) / 100.0, 0.0, -1.0))),
    "target_lengths_m": st.lists(st.one_of(st.floats(0.0, 7.0), numbers), max_size=4),
    "seeds": st.lists(st.one_of(st.sampled_from(KNOWN_FERMAT_PRIMES), st.integers(-1, 2**33)),
                      max_size=5),
    "n_override": st.one_of(st.none(), st.integers(-1, 600),
                            st.sampled_from((MAX_SAMPLE_COUNT + 1, 10**30))),
    "sort_order": st.sampled_from(("ascending", "descending", "sideways")),
    "darl_mode": st.sampled_from(("as-printed", "span-over-phi-r2", "printed")),
}
assert list(VALUES) == [f.name for f in fields(ExperimentConfig)]

REPLACEMENTS = {key: values.map(lambda v, key=key: {key: v}) for key, values in VALUES.items()}
REPLACEMENTS["overflowing span"] = st.sampled_from((
    {"t_in_c": 1e308, "t_end_c": -1e308}, {"t_in_c": 1.7976931348623157e308, "t_end_c": -1e300}))
REPLACEMENTS["length against n_override"] = st.sampled_from((
    {"total_length_m": 1e307, "n_override": 600}, {"total_length_m": 1e200, "n_override": 2},
    {"total_length_m": 1e-310, "n_override": 600, "target_lengths_m": [5e-311]}))
replacement = st.sampled_from(sorted(REPLACEMENTS)).flatmap(REPLACEMENTS.__getitem__)


@st.composite
def config_docs(draw):
    doc = dict(BASE)
    for item in draw(st.lists(replacement, max_size=3)):
        doc.update(item)
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    doc.update(draw(st.dictionaries(st.sampled_from((*sorted(VALUES), "bogus")), any_json,
                                    max_size=1)))
    return doc


reference_rows = st.lists(st.one_of(st.floats(20.0, 30.0), numbers), min_size=3, max_size=3).map(
    lambda t_obs: ("length_m,t_obs_c\n" + "".join(
        f"{x!r},{t!r}\n" for x, t in zip((2.5, 3.4, 4.4), t_obs))).encode())
references = st.one_of(reference_rows, st.binary(max_size=40))
series_files = st.one_of(
    st.lists(st.one_of(st.floats(20.0, 30.0), numbers), max_size=8).map(
        lambda values: ("Ordered_Value\n" + "".join(f"{v!r}\n" for v in values)).encode()),
    st.binary(max_size=40))


def assert_exit_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        assert err.getvalue().splitlines()[-1].startswith("error: ")


def write_inputs(tmp, doc, reference):
    """Config and reference files in ``tmp``; the ``--config``/``--reference`` argv."""
    (tmp / "config.json").write_text(json.dumps(doc))
    argv = ["--config", str(tmp / "config.json"), "--out-dir", str(tmp / "out"), "--format", "json"]
    if reference is not None:
        (tmp / "reference.csv").write_bytes(reference)
        argv += ["--reference", str(tmp / "reference.csv")]
    return argv


@settings(max_examples=100, deadline=None)
@given(doc=config_docs(), reference=st.one_of(st.none(), references))
def test_run_any_config_exits_0_2_3_or_4(doc, reference):
    with tempfile.TemporaryDirectory() as tmp:
        assert_exit_contract(["run", *write_inputs(Path(tmp), doc, reference)])


@settings(max_examples=100, deadline=None)
@given(doc=config_docs(), reference=references)
def test_sweep_any_config_exits_0_2_3_or_4(doc, reference):
    with tempfile.TemporaryDirectory() as tmp:
        assert_exit_contract(["sweep", *write_inputs(Path(tmp), doc, reference)])


@settings(max_examples=100, deadline=None)
@given(data=series_files)
def test_validate_any_series_exits_0_2_3_or_4(data):
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        series.write_bytes(data)
        assert_exit_contract(["validate", "--series", str(series), "--format", "json"])
