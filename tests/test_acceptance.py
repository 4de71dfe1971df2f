"""Acceptance gate: the eight release criteria, one test and one line each.

Every criterion is a single test that prints one PASS line (with the
pinned tolerance and the measured numbers) straight to the terminal when
it holds; a failing criterion shows up as the test's FAIL line. Criterion
6 is special by design: the published comparison numbers are RECORDED
next to the computed ones, never asserted, because the predictor
evaluated as printed leaves the physical temperature range for the
published constants (see README). The full-suite < 5 s budget of
criterion 8 is observable from the pytest run itself.
"""

import json
import math
import time

from darl.cli import main
from darl.ingest import load_fixture
from darl.model import darl_temperature
from darl.prng import KNOWN_FERMAT_PRIMES, MersenneTwister, uniform_series
from darl.regression import fit_ols, predict_at
from darl.stats import relative_error, rmse, shapiro_wilk

from golden_data import (
    GOLDEN_KEY,
    GOLDEN_KEY_WORDS,
    GOLDEN_WORDS,
    SW_FIXTURE,
    SW_FIXTURE_P,
    SW_FIXTURE_W,
)
from test_regression import ols_fraction_oracle, random_instance


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_rng_conformance(capsys):
    def golden_check():
        for seed, expected in GOLDEN_WORDS.items():
            assert tuple(MersenneTwister(seed).draw_words(10).tolist()) == expected
        key_gen = MersenneTwister.from_key(GOLDEN_KEY)
        assert tuple(key_gen.draw_words(10).tolist()) == GOLDEN_KEY_WORDS

    golden_check()  # warm-up; also the actual conformance assertion
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        golden_check()
        timings.append(time.perf_counter() - start)
    elapsed = min(timings)
    assert elapsed < 1e-3
    announce(capsys, f"PASS criterion 1: golden vectors exact for seeds "
                     f"{sorted(GOLDEN_WORDS)} and the array-seeded case; "
                     f"check runtime {elapsed * 1e3:.3f} ms < 1 ms")


def test_criterion_2_ols_oracle(capsys):
    import random

    rng = random.Random(8675309)
    worst = 0.0
    for _ in range(100):
        points = random_instance(rng)
        fit = fit_ols(points)
        alpha, beta, r_squared = ols_fraction_oracle(points)
        worst = max(worst, abs(fit.alpha - alpha), abs(fit.beta - beta),
                    abs(fit.r_squared - r_squared))
    assert worst < 1e-9

    line = fit_ols((x, 2.0 * x + 1.0) for x in range(10))
    assert abs(line.alpha - 1.0) < 1e-12
    assert abs(line.beta - 2.0) < 1e-12
    assert abs(line.r_squared - 1.0) < 1e-12
    three = fit_ols([(0.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
    assert abs(three.alpha - 7.0 / 6.0) < 1e-12
    assert abs(three.beta - 0.5) < 1e-12
    assert abs(three.r_squared - 0.75) < 1e-12
    assert abs(predict_at(three, 2.0) - 13.0 / 6.0) < 1e-12
    announce(capsys, f"PASS criterion 2: 100 random fits within 1e-9 of the "
                     f"exact-rational oracle (worst {worst:.2e}); worked "
                     f"examples within 1e-12")


def test_criterion_3_predictor_identities(capsys):
    import random

    import pytest

    from darl.errors import Singularity

    rng = random.Random(314159)
    for _ in range(50):
        t = rng.uniform(10.0, 40.0)
        t_w = rng.uniform(5.0, 35.0)
        t_phi = rng.uniform(5.0, 45.0)
        if t_phi == t_w:
            continue
        t_sim, _ = darl_temperature(t, t, t_w, t_phi, rng.uniform(0.05, 1.0))
        assert t_sim == t_phi

    with pytest.raises(Singularity):
        darl_temperature(31.01, 25.81, 24.28, 24.28, 0.95)

    t_sim, flagged = darl_temperature(31.01, 25.81, 24.28, 28.00, 0.95)
    assert abs(t_sim - 63.726) < 1e-3
    assert flagged
    announce(capsys, f"PASS criterion 3: zero-span identity exact, equal "
                     f"t_phi/t_w raises Singularity, derived case "
                     f"{t_sim:.6f} within 1e-3 of 63.726 and flagged "
                     f"out-of-range")


def test_criterion_4_normality_finding(capsys):
    p_values = {}
    for seed in KNOWN_FERMAT_PRIMES:
        series = uniform_series(seed, 538, 25.81, 31.01, "ascending")
        result = shapiro_wilk(series)
        assert result.rejected and result.p_value < 0.05
        p_values[seed] = result.p_value

    oracle = shapiro_wilk(SW_FIXTURE)
    dw = abs(oracle.w_statistic - SW_FIXTURE_W)
    dp = abs(oracle.p_value - SW_FIXTURE_P)
    assert dw < 1e-3 and dp < 1e-3
    worst_p = max(p_values.values())
    announce(capsys, f"PASS criterion 4: normality rejected for every Fermat "
                     f"seed at alpha=0.05 (largest p {worst_p:.2e}); 20-point "
                     f"oracle within 1e-3 (dW {dw:.2e}, dp {dp:.2e})")


def test_criterion_5_rmse_oracle(capsys):
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    deviation = abs(rmse([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) - math.sqrt(4.0 / 3.0))
    assert deviation < 1e-12
    announce(capsys, f"PASS criterion 5: rmse hand examples exact within "
                     f"1e-12 (sqrt(4/3) deviation {deviation:.2e})")


def test_criterion_6_reproduction_harness(capsys, tmp_path):
    recorded = []
    for name, rows_per_seed in (("experiment-a", 3), ("experiment-b", 4)):
        reports = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{name}-{attempt}"
            assert main(["run", "--fixture", name, "--out-dir", str(out_dir)]) == 0
            reports.append((out_dir / f"{name}-report.json").read_bytes())
        assert reports[0] == reports[1]  # determinism
        report = json.loads(reports[0])

        # structure: every seed contributes exactly rows_per_seed comparisons
        per_seed = {}
        for comp in report["comparisons"]:
            per_seed[comp["seed"]] = per_seed.get(comp["seed"], 0) + 1
        assert per_seed == {seed: rows_per_seed for seed in KNOWN_FERMAT_PRIMES}

        block = report["discrepancy_report"]
        fixture = load_fixture(name)
        published_errors = [row.relative_error_pct for row in fixture.reported_rows]
        assert [r["reported_relative_error_pct"] for r in block["published_protocol_rows"]] \
            == published_errors
        assert block["rmse"]["reported_c"] == fixture.reported_rmse_c
        for row in block["published_protocol_rows"]:
            assert set(row["computed"]) == {"as-printed", "span-over-phi-r2"}
            for mode_values in row["computed"].values():
                assert math.isfinite(mode_values["relative_error_pct"])
        computed = block["rmse"]["computed_c"]
        assert set(computed) == {"as-printed", "span-over-phi-r2"}
        recorded.append(
            f"  RECORDED {name}: reported rmse {block['rmse']['reported_c']} C "
            f"vs computed as-printed {computed['as-printed']:.4f} C, "
            f"span-over-phi-r2 {computed['span-over-phi-r2']:.4f} C; "
            f"reported errors {published_errors} % vs as-printed "
            f"{[round(r['computed']['as-printed']['relative_error_pct'], 2) for r in block['published_protocol_rows']]} %"
        )

    announce(capsys, "PASS criterion 6: harness structure and determinism "
                     "asserted for both fixtures; published values recorded "
                     "beside computed ones (not asserted), variant mode "
                     "exercised")
    for line in recorded:
        announce(capsys, line)


def test_criterion_7_fixture_self_consistency(capsys):
    worst = 0.0
    for name in ("experiment-a", "experiment-b"):
        fixture = load_fixture(name)
        observed = dict(fixture.reference)
        for row in fixture.reported_rows:
            t_obs = observed[row.target_length_m]
            for simulated in (t_obs + row.delta_t_c, t_obs - row.delta_t_c):
                gap = abs(relative_error(t_obs, simulated) - row.relative_error_pct)
                worst = max(worst, gap)
                assert gap <= 0.01
    announce(capsys, f"PASS criterion 7: back-computed references reproduce "
                     f"the published error columns within 0.01 pp (worst gap "
                     f"{worst:.4f} pp)")


def test_criterion_8_end_to_end_determinism(capsys, tmp_path):
    timings = []
    payloads = []
    for attempt in ("one", "two"):
        out_dir = tmp_path / attempt
        start = time.perf_counter()
        assert main(["run", "--fixture", "experiment-a", "--out-dir", str(out_dir)]) == 0
        timings.append(time.perf_counter() - start)
        payloads.append((out_dir / "experiment-a-report.json").read_bytes())
    assert payloads[0] == payloads[1]
    assert all(t < 0.1 for t in timings)
    announce(capsys, f"PASS criterion 8: byte-identical reports across runs; "
                     f"fixture runs took {[f'{t * 1e3:.1f} ms' for t in timings]} "
                     f"(< 100 ms each); suite wall time is visible in the "
                     f"pytest summary")
