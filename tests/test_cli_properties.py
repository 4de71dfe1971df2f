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

A fourth property runs ``darl run`` with a reference and a small
``--n-override`` on documents whose replacement values come only from
in-range pools, so that most examples make a report; where it exits 0, the
report must agree with oracles that share no code with the pipeline past the
series draw: the exact-rational OLS fit, ``scipy.stats.shapiro``,
``numpy.percentile`` and a numpy RMSE and mean relative error per seed.

A fifth property holds the ``--seeds`` parser, which reads each item with the
integer flags' rule, to the parser it replaced (``int()`` per item after an
ASCII and no-``_`` check on the whole text): the same tuple or the same error.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darl.cli import _parse_seeds, main
from darl.errors import ValidationError
from darl.model import ExperimentConfig, build_series
from darl.prng import KNOWN_FERMAT_PRIMES, MAX_SAMPLE_COUNT

from test_regression import ols_fraction_oracle

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


IN_RANGE = {
    "t_in_c": st.floats(26.0, 100.0), "t_end_c": st.floats(-100.0, 25.0),
    "t_w_c": st.floats(-100.0, 100.0), "t_w_uncertainty_c": st.floats(0.0, 10.0),
    "total_length_m": st.floats(4.5, 6.0),
    "target_lengths_m": st.lists(st.sampled_from((2.5, 3.4, 4.4)), min_size=1, max_size=3, unique=True),
    "seeds": st.lists(st.sampled_from(KNOWN_FERMAT_PRIMES), min_size=1, max_size=5, unique=True),
    "n_override": st.one_of(st.none(), st.integers(2, 600)),
    "sort_order": st.sampled_from(("ascending", "descending")),
    "darl_mode": st.sampled_from(("as-printed", "span-over-phi-r2")),
}
assert list(IN_RANGE) == list(VALUES)


@st.composite
def valid_config_docs(draw):
    """BASE with up to three keys replaced from the in-range pools: a loadable config."""
    doc = dict(BASE)
    for key in draw(st.sets(st.sampled_from(sorted(IN_RANGE)), max_size=3)):
        doc[key] = draw(IN_RANGE[key])
    return doc


def reference_file(t_obs):
    return ("length_m,t_obs_c\n" + "".join(
        f"{x!r},{t!r}\n" for x, t in zip((2.5, 3.4, 4.4), t_obs))).encode()


valid_reference_rows = st.lists(st.floats(20.0, 30.0), min_size=3, max_size=3).map(reference_file)
reference_rows = st.lists(st.one_of(st.floats(20.0, 30.0), numbers), min_size=3, max_size=3).map(
    reference_file)
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


def check_report_against_oracles(report, doc, reference, n):
    scipy_stats = pytest.importorskip("scipy.stats")
    config = ExperimentConfig(**{**doc, "n_override": n})
    scale = max(1.0, abs(config.t_in_c), abs(config.t_end_c))
    grid = [i * config.total_length_m / (n - 1) for i in range(n)]
    series = {seed: build_series(config, seed) for seed in config.seeds}

    # the fit: t_phi within 1e-9 (relative to the temperatures) of the exact-rational OLS line
    lines = {seed: ols_fraction_oracle(list(zip(grid, values.tolist()))) for seed, values in series.items()}
    for pred in report["predictions"]:
        alpha, beta, _ = lines[pred["seed"]]
        assert abs(pred["t_phi_c"] - (alpha + beta * pred["target_length_m"])) <= 1e-9 * scale, pred

    # Shapiro-Wilk within 1e-3 of scipy; quartiles within the report's 15 significant digits
    for row in report["series"]:
        values = series[row["seed"]]
        assert row["n"] == n
        if 3 <= n <= 5000:
            ref = scipy_stats.shapiro(values)
            assert abs(row["w_statistic"] - ref.statistic) < 1e-3
            assert abs(row["p_value"] - ref.pvalue) < 1e-3
        else:
            assert row["w_statistic"] is None and row["p_value"] is None
        quartiles = np.percentile(values, [25, 50, 75], method="linear")
        digits = 1e-14 * float(np.max(np.abs(values)))
        for key, want in zip(("q1", "median", "q3"), quartiles):
            assert abs(row[key] - want) <= digits, (key, row[key], want)

    # RMSE and mean relative error per seed, from the report's t_sim and the reference file
    t_obs = dict(tuple(map(float, line.split(","))) for line in reference.decode().splitlines()[1:])
    by_seed = {}
    for pred in report["predictions"]:
        by_seed.setdefault(pred["seed"], []).append((t_obs[pred["target_length_m"]], pred["t_sim_c"]))
    errors, slack = {}, 0.0
    for seed, pairs in by_seed.items():
        obs, sim = np.array(pairs).T
        want = float(np.sqrt(np.mean((obs - sim) ** 2)))
        rounding = 1e-14 * float(np.max(np.abs(sim)))  # t_sim as rendered at 15 digits
        assert abs(report["rmse_by_seed"][str(seed)] - want) <= 1e-12 * want + rounding
        errors[seed] = float(np.mean(100.0 * np.abs(obs - sim) / np.abs(obs)))
        slack = max(slack, 1e-12 * errors[seed] + 100.0 * float(np.max(rounding / np.abs(obs))))
    assert sorted(report["rmse_by_seed"]) == sorted(map(str, by_seed))
    best = min(errors, key=lambda seed: (errors[seed], seed))
    # the least mean relative error, ties to the smaller seed, up to the rounding of t_sim
    assert report["best_seed"] == best or errors[report["best_seed"]] - errors[best] <= 2.0 * slack


@settings(max_examples=100, deadline=None)
@given(doc=valid_config_docs(), reference=valid_reference_rows, n=st.integers(2, 100))
def test_run_report_agrees_with_independent_oracles(doc, reference, n):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", *write_inputs(Path(tmp), doc, reference), "--n-override", str(n)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    if rc == 0:
        check_report_against_oracles(json.loads(out.getvalue()), doc, reference, n)


def int_per_item_seeds(text, config_seeds):
    """The --seeds parser before it shared the integer flags' rule: the oracle."""
    try:
        if "_" in text or not text.isascii():  # int() also reads "1_7" and non-ASCII digits
            raise ValueError
        seeds = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"--seeds expects comma-separated integers, got {text!r}") from None
    if not set(seeds) <= set(config_seeds):
        raise ValidationError(f"--seeds {text} is not a subset of the config seeds {list(config_seeds)}")
    return seeds


def seeds_outcome(parse, text):
    try:
        return parse(text, KNOWN_FERMAT_PRIMES)
    except ValidationError as exc:
        return f"error: {exc}"


# digits, signs, separators, every whitespace int() strips or refuses, and non-ASCII digits
SEED_PIECES = (*"0123456789+-,_", *" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u2003\uff13\u0663",
               "3", "5", "17", "257", "65537", ",")


@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.sampled_from(SEED_PIECES), max_size=12).map("".join))
@example(text="1" * 5000)  # beyond int()'s 4,300-digit parse limit
@example(text="3, " + "1" * 5000)
def test_parse_seeds_matches_int_per_item_parser(text):
    assert seeds_outcome(_parse_seeds, text) == seeds_outcome(int_per_item_seeds, text)
