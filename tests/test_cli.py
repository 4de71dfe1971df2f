"""Command-line behavior: artifacts, formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import darl.cli
import darl.model
from darl.cli import main
from darl.ingest import load_config, load_fixture
from darl.model import ExperimentConfig, run_configuration
from darl.prng import MAX_SAMPLE_COUNT, MersenneTwister
from darl.serialize import render_series_csv


def write_config(tmp_path, name="custom", **overrides):
    base = dict(
        t_in_c=31.01, t_end_c=25.81, t_w_c=24.28, t_w_uncertainty_c=0.09,
        total_length_m=5.4, target_lengths_m=(2.5, 3.4, 4.4),
        seeds=(3, 5, 17, 257, 65537),
    )
    base.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(vars(ExperimentConfig(**base))))
    return path


def test_generate_writes_sorted_csv(tmp_path):
    out = tmp_path / "series.csv"
    rc = main(["generate", "--seed", "3", "--n", "538", "--min", "25.81",
               "--max", "31.01", "--order", "asc", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "Ordered_Value"
    assert len(lines) == 539
    values = [float(v) for v in lines[1:]]
    assert values == sorted(values)
    assert min(values) >= 25.81 and max(values) <= 31.01


def test_generate_default_name_in_out_dir(tmp_path):
    rc = main(["generate", "--seed", "5", "--n", "10", "--min", "0", "--max", "1",
               "--out-dir", str(tmp_path / "fresh")])
    assert rc == 0
    assert (tmp_path / "fresh" / "series-seed5-n10-asc.csv").exists()


def test_generate_deterministic_bytes(tmp_path):
    args = ["generate", "--seed", "17", "--n", "200", "--min", "20", "--max", "30",
            "--order", "desc"]
    rc_a = main(args + ["--out", str(tmp_path / "a.csv")])
    rc_b = main(args + ["--out", str(tmp_path / "b.csv")])
    assert rc_a == rc_b == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_generate_invalid_bounds_exit_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    rc = main(["generate", "--seed", "3", "--n", "10", "--min", "31", "--max", "25",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_generate_unwritable_path_exit_3(tmp_path):
    rc = main(["generate", "--seed", "3", "--n", "10", "--min", "0", "--max", "1",
               "--out", str(tmp_path / "missing-dir" / "out.csv")])
    assert rc == 3


def test_run_fixture_seed_filter(tmp_path, capsys):
    rc = main(["run", "--fixture", "experiment-a", "--seeds", "5",
               "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["comparisons"]) == 3
    assert {c["seed"] for c in report["comparisons"]} == {5}
    assert report["best_seed"] == 5


def test_run_fixture_b_prediction_count(tmp_path, capsys):
    rc = main(["run", "--fixture", "experiment-b", "--out-dir", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["predictions"]) == 20
    assert len(report["comparisons"]) == 20
    assert report["sample_count"] == 830


def test_run_reports_are_byte_identical(tmp_path, capsys):
    for sub in ("one", "two"):
        assert main(["run", "--fixture", "experiment-a",
                     "--out-dir", str(tmp_path / sub)]) == 0
    capsys.readouterr()
    first = (tmp_path / "one" / "experiment-a-report.json").read_bytes()
    second = (tmp_path / "two" / "experiment-a-report.json").read_bytes()
    assert first == second
    assert b"wall_time" not in first


def test_run_wall_time_on_stderr_only(tmp_path, capsys):
    assert main(["run", "--fixture", "experiment-a", "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "wall_time_s=" in captured.err
    assert "wall_time_s=" not in captured.out


def test_run_plot_csv_columns(tmp_path, capsys):
    assert main(["run", "--fixture", "experiment-a", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "experiment-a-plot.csv").read_text().splitlines()
    assert lines[0] == "length_m,t_sim_c,t_obs_c"
    assert len(lines) == 4  # best seed only: one row per target length
    lengths = [float(line.split(",")[0]) for line in lines[1:]]
    assert lengths == [2.5, 3.4, 4.4]


def test_run_report_structure(tmp_path, capsys):
    rc = main(["run", "--fixture", "experiment-a", "--out-dir", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "darl"
    assert report["kind"] == "fixture"
    assert report["config"]["darl_mode"] == "as-printed"
    assert list(report["config"]) == [f.name for f in fields(ExperimentConfig)]
    assert len(report["series"]) == 5
    assert all(row["normality_rejected"] for row in report["series"])
    assert len(report["predictions"]) == 15
    assert all(p["out_of_range"] for p in report["predictions"])
    assert set(report["rmse_by_seed"]) == {"3", "5", "17", "257", "65537"}
    block = report["discrepancy_report"]
    assert len(block["published_protocol_rows"]) == 3
    for row in block["published_protocol_rows"]:
        assert set(row["computed"]) == {"as-printed", "span-over-phi-r2"}
    assert block["rmse"]["reported_c"] == 0.5096


def test_run_config_without_reference(tmp_path, capsys):
    config_path = write_config(tmp_path)
    rc = main(["run", "--config", str(config_path), "--out-dir", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "config"
    assert "comparisons" not in report
    assert "discrepancy_report" not in report
    assert len(report["predictions"]) == 15
    assert not (tmp_path / "custom-plot.csv").exists()


def test_run_config_with_reference(tmp_path, capsys):
    config_path = write_config(tmp_path)
    reference = tmp_path / "reference.csv"
    reference.write_text("length_m,t_obs_c\n2.5,28.8\n3.4,27.37\n4.4,26.67\n")
    rc = main(["run", "--config", str(config_path), "--reference", str(reference),
               "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["comparisons"]) == 15
    assert "best_seed" in report


def test_run_mode_and_overrides(tmp_path, capsys):
    rc = main(["run", "--fixture", "experiment-a", "--darl-mode", "span-over-phi-r2",
               "--n-override", "538", "--sort-order", "asc",
               "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["darl_mode"] == "span-over-phi-r2"
    assert report["config"]["n_override"] == 538
    assert report["config"]["sort_order"] == "ascending"
    assert report["sample_count"] == 538


def test_run_unknown_fixture_exit_2(tmp_path, capsys):
    rc = main(["run", "--fixture", "experiment-z", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_run_fixture_with_reference_flag_exit_2(tmp_path, capsys):
    rc = main(["run", "--fixture", "experiment-a", "--reference", "x.csv",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


def test_run_missing_config_file_exit_3(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 3


def test_run_bad_seed_filter_exit_2(tmp_path, capsys):
    rc = main(["run", "--fixture", "experiment-a", "--seeds", "9",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["run"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "3", "--n", "10", "--min", "0", "--max", "1", "--format", "json"],
    ["validate", "--fixture", "experiment-a", "--out-dir", "."],
    ["fixtures", "--out-dir", "."],
    ["validate", "--fixture", "experiment-a", "--sort-order", "asc"],
    ["validate", "--fixture", "experiment-a", "--darl-mode", "as-printed"],
    ["sweep", "--fixture", "experiment-a", "--format", "csv"],
    ["validate", "--fixture", "experiment-a", "--format", "csv"],
    ["fixtures", "--format", "csv"],
    ["generate", "--seed", "3", "--n", "10", "--min", "0", "--max", "1", "--out", "p.csv", "--out-dir", "d"],
], ids=["generate-format", "validate-out-dir", "fixtures-out-dir", "validate-sort-order",
        "validate-darl-mode", "sweep-csv", "validate-csv", "fixtures-csv", "generate-out-and-out-dir"])
def test_flag_that_changes_no_output_is_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_fixture_ranking(tmp_path, capsys):
    rc = main(["sweep", "--fixture", "experiment-a", "--out-dir", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert {row["seed"] for row in doc["ranking"]} == {3, 5, 17, 257, 65537}
    means = [row["mean_relative_error_pct"] for row in doc["ranking"]]
    assert means == sorted(means)
    assert doc["best_seed"] == doc["ranking"][0]["seed"]
    assert (tmp_path / "experiment-a-sweep.json").exists()


def test_sweep_requires_reference(tmp_path, capsys):
    config_path = write_config(tmp_path)
    rc = main(["sweep", "--config", str(config_path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "reference" in capsys.readouterr().err


def test_sweep_constructed_winner(tmp_path, capsys):
    # reference equal to seed 5's own simulated values makes 5 the sure winner
    config = ExperimentConfig(
        t_in_c=31.01, t_end_c=25.81, t_w_c=24.28, total_length_m=5.4,
        target_lengths_m=(2.5, 3.4, 4.4), seeds=(3, 5, 17),
    )
    seed_5 = {r.target_length_m: r.t_sim_c for r in run_configuration(config)
              if r.seed == 5}
    config_path = tmp_path / "constructed.json"
    config_path.write_text(json.dumps(vars(config)))
    reference = tmp_path / "reference.csv"
    reference.write_text(
        "length_m,t_obs_c\n"
        + "".join(f"{x},{seed_5[x]!r}\n" for x in (2.5, 3.4, 4.4))
    )
    rc = main(["sweep", "--config", str(config_path), "--reference", str(reference),
               "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_seed"] == 5
    assert doc["ranking"][0]["seed"] == 5
    assert doc["ranking"][0]["mean_relative_error_pct"] < 1e-12


def test_sweep_single_seed(tmp_path, capsys):
    config_path = write_config(tmp_path, seeds=(17,))
    reference = tmp_path / "reference.csv"
    reference.write_text("length_m,t_obs_c\n2.5,28.8\n3.4,27.37\n4.4,26.67\n")
    rc = main(["sweep", "--config", str(config_path), "--reference", str(reference),
               "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_seed"] == 17
    assert len(doc["ranking"]) == 1


def test_validate_fixture(tmp_path, capsys):
    rc = main(["validate", "--fixture", "experiment-a", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]) == 5
    assert all(row["normality_rejected"] for row in doc["results"])
    assert all(row["n"] == 540 for row in doc["results"])


def test_validate_series_file(tmp_path, capsys):
    series = tmp_path / "series.csv"
    assert main(["generate", "--seed", "5", "--n", "538", "--min", "25.81",
                 "--max", "31.01", "--out", str(series)]) == 0
    capsys.readouterr()
    rc = main(["validate", "--series", str(series), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["results"][0]
    assert row["n"] == 538
    assert row["normality_rejected"]
    assert row["p_value"] < 0.05


def test_validate_table_output_mentions_rejection(capsys):
    rc = main(["validate", "--fixture", "experiment-a"])
    assert rc == 0
    assert "rejected" in capsys.readouterr().out


def test_validate_pseudo_normal_series_retained(tmp_path, capsys):
    # sums of 12 unit draws minus 6 pass the normality test for this seed
    draws = MersenneTwister(42).draw_units(2400).reshape(200, 12)
    values = 27.0 + draws.sum(axis=1) - 6.0
    series = tmp_path / "normal.csv"
    series.write_text(render_series_csv(values))
    rc = main(["validate", "--series", str(series), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["results"][0]
    assert not row["normality_rejected"]
    assert row["p_value"] >= 0.05


def test_validate_series_whose_w_rounds_to_one(tmp_path, capsys):
    # the n = 4 Shapiro-Wilk weights themselves: 1 - W rounds to zero or below
    series = tmp_path / "unit-w.csv"
    series.write_text("Ordered_Value\n-0.687264285908471\n-0.166336410069231\n"
                      "0.166336410069231\n0.687264285908471\n")
    assert main(["validate", "--series", str(series), "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert (row["w_statistic"], row["p_value"], row["normality_rejected"]) == (1.0, 1.0, False)
    assert main(["validate", "--series", str(series)]) == 0
    captured = capsys.readouterr()
    assert "not rejected" in captured.out and captured.err == ""


def test_validate_short_series_exit_2(tmp_path, capsys):
    series = tmp_path / "short.csv"
    series.write_text("Ordered_Value\n1.0\n2.0\n")
    rc = main(["validate", "--series", str(series)])
    assert rc == 2
    capsys.readouterr()


def test_validate_constant_series_exit_4(tmp_path, capsys):
    series = tmp_path / "flat.csv"
    series.write_text("Ordered_Value\n" + "25.0\n" * 10)
    rc = main(["validate", "--series", str(series)])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_fixtures_listing(capsys):
    rc = main(["fixtures"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "experiment-a" in out and "experiment-b" in out
    rc = main(["fixtures", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    names = [e["name"] for e in doc["fixtures"]]
    assert names == ["experiment-a", "experiment-b"]
    assert doc["fixtures"][0]["sample_count"] == 540
    assert doc["fixtures"][1]["sample_count"] == 830
    for entry in doc["fixtures"]:
        echo = json.loads(json.dumps(vars(load_fixture(entry["name"]).config)))
        assert list(entry) == ["name", *echo, "sample_count", "reference_points", "reported_rmse_c"]
        assert {key: entry[key] for key in echo} == echo


def test_config_dump_load_through_cli_artifacts(tmp_path, capsys):
    # the config echoed in a report is itself a loadable config document
    config_path = write_config(tmp_path, n_override=538)
    rc = main(["run", "--config", str(config_path), "--out-dir", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    echoed = json.dumps(report["config"]).encode()
    assert load_config(echoed) == load_config(config_path.read_bytes())


def test_entry_point_subprocess(tmp_path):
    version = subprocess.run(
        [sys.executable, "-m", "darl", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert version.returncode == 0
    assert version.stdout.strip().startswith("darl ")

    run = subprocess.run(
        [sys.executable, "-m", "darl", "run", "--fixture", "experiment-a",
         "--out-dir", str(tmp_path), "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0
    report = json.loads(run.stdout)
    assert report["source"] == "experiment-a"
    assert "wall_time_s=" in run.stderr
    assert (tmp_path / "experiment-a-report.json").exists()


def test_cli_import_loads_no_unneeded_modules():
    # nothing logs, and the draws use random.Random, not numpy.random
    probe = subprocess.run(
        [sys.executable, "-c",
         "import darl.cli, sys; print(sorted({'logging', 'numpy.random'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "[]\n"


def test_cli_import_without_site_loads_no_resource_machinery():
    # run without site, whose .pth hooks may load importlib.resources themselves
    paths = (Path(darl.__file__).parents[1], Path(np.__file__).parents[1])
    probe = subprocess.run(
        [sys.executable, "-S", "-c",
         "import darl.cli, sys; print(sorted({'importlib.resources', 'tempfile'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))},
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "[]\n"


def test_subprocess_usage_error_exit_2():
    result = subprocess.run(
        [sys.executable, "-m", "darl", "run"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2


def write_raw_config(tmp_path, **overrides):
    doc = json.loads(write_config(tmp_path).read_bytes())
    doc.update(overrides)
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(doc))
    return path


def assert_one_error_line(capsys, reason):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0], err


BAD_CELLS = pytest.mark.parametrize("cell, reason", [
    (b"28.8\xff", "not valid UTF-8"),
    (b"nan", "non-finite"),
    (b"1e200", "value 1e+200 beyond"),
    (b"2_8.80", "unparseable numeric value"),
    ("\u0662\u0668.8".encode(), "unparseable numeric value"),
], ids=["non-utf8", "nan", "huge", "digit-separator", "arabic-indic-digits"])


@BAD_CELLS
def test_validate_bad_series_file_exit_2(tmp_path, capsys, cell, reason):
    series = tmp_path / "bad.csv"
    series.write_bytes(b"Ordered_Value\n25.0\n" + cell + b"\n26.0\n")
    assert main(["validate", "--series", str(series), "--format", "json"]) == 2
    assert_one_error_line(capsys, reason)


@BAD_CELLS
def test_run_bad_reference_file_exit_2(tmp_path, capsys, cell, reason):
    config_path = write_config(tmp_path)
    reference = tmp_path / "reference.csv"
    reference.write_bytes(b"length_m,t_obs_c\n2.5," + cell + b"\n3.4,27.37\n4.4,26.67\n")
    rc = main(["run", "--config", str(config_path), "--reference", str(reference),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert_one_error_line(capsys, reason)


INPUT_FILES = pytest.mark.parametrize("argv, path", [
    (["run", "--config", "custom.json"], "custom.json"),
    (["run", "--config", "custom.json", "--reference", "reference.csv"], "reference.csv"),
    (["validate", "--series", "series.csv"], "series.csv"),
], ids=["config", "reference", "series"])


@INPUT_FILES
def test_input_file_one_byte_over_the_size_limit_exit_2(tmp_path, capsys, monkeypatch, argv, path):
    write_config(tmp_path)
    (tmp_path / "reference.csv").write_text("length_m,t_obs_c\n2.5,28.8\n3.4,27.37\n4.4,26.67\n")
    (tmp_path / "series.csv").write_text("Ordered_Value\n25.0\n26.5\n27.0\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(darl.cli, "MAX_INPUT_BYTES", 1000)
    padded = tmp_path / path
    padded.write_bytes(padded.read_bytes().ljust(1000, b"\n"))  # blank lines: the same document
    assert main(argv) == 0
    for report in tmp_path.glob("*-report.json"):
        report.unlink()
    capsys.readouterr()
    padded.write_bytes(padded.read_bytes() + b"\n")
    assert main(argv) == 2
    assert_one_error_line(capsys, f"{path} is larger than the input limit of 1000 bytes")
    assert not list(tmp_path.glob("*-report.json"))


def test_reading_a_small_input_allocates_far_less_than_the_size_limit(tmp_path):
    config_path = write_config(tmp_path)
    tracemalloc.start()
    try:
        data = darl.cli._read_input(str(config_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == config_path.read_bytes()
    assert peak < darl.cli.MAX_INPUT_BYTES / 100


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs an endless /dev/zero device")
@INPUT_FILES
def test_endless_input_file_exit_2(tmp_path, capsys, monkeypatch, argv, path):
    write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([arg if arg != path else "/dev/zero" for arg in argv]) == 2
    assert_one_error_line(capsys, f"/dev/zero is larger than the input limit of {32 * MAX_SAMPLE_COUNT} bytes")
    assert list(tmp_path.iterdir()) == [tmp_path / "custom.json"]


@pytest.mark.parametrize("overrides", [{"seeds": "35"}, {"target_lengths_m": 1.0}])
def test_run_config_list_keys_must_be_arrays_exit_2(tmp_path, capsys, overrides):
    config_path = write_raw_config(tmp_path, **overrides)
    assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 2
    assert_one_error_line(capsys, "must be an array")
    assert not (tmp_path / "raw-report.json").exists()


# sha256 of (report JSON, plot CSV) per (fixture, mode); the same values are
# pinned by the benchmark's output checks.
PINNED_ARTIFACTS = {
    ("experiment-a", "as-printed"): (
        "499d3bd815900fca87246d86124c11cc4d61f8a844182faa267efd645cf8f31c",
        "6d08e4bbc479443cd98e39c9790ff494f839ef11783c6afeefe370e8ff4a38de"),
    ("experiment-a", "span-over-phi-r2"): (
        "09250184cb82b388cce3663ab39b3951da6623692426786dd535aa78719a2d82",
        "159c2b03dd0500f5427965da6fb0fdceb3124d7ab18da5549431036939ae7ff0"),
    ("experiment-b", "as-printed"): (
        "4bdec23f8033368a76c4c019bc3f560e8dd47c7f6544ca162f83098fc81996b5",
        "7879bde4b4448eab6b712d4e86569380eecc11a078d1ef35268d3cb92ac7fb90"),
    ("experiment-b", "span-over-phi-r2"): (
        "dffa4f395522ef82b31d25a5848018f8c6a13702578eee89ef448ed458283c04",
        "29d3ae75ad51911d5f1492b09eb64564da82bb6f4ed844ce3a2561db418b7f97"),
}


@pytest.mark.parametrize("fixture, mode", sorted(PINNED_ARTIFACTS))
def test_run_fixture_artifacts_match_pinned_hashes(tmp_path, capsys, fixture, mode):
    assert main(["run", "--fixture", fixture, "--darl-mode", mode, "--format", "json",
                 "--out-dir", str(tmp_path)]) == 0
    report = (tmp_path / f"{fixture}-report.json").read_bytes()
    plot = (tmp_path / f"{fixture}-plot.csv").read_bytes()
    assert capsys.readouterr().out.encode() == report
    digests = (hashlib.sha256(report).hexdigest(), hashlib.sha256(plot).hexdigest())
    assert digests == PINNED_ARTIFACTS[(fixture, mode)]


def counting(monkeypatch, name):
    calls = []
    original = getattr(darl.model, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(darl.model, name, wrapper)
    return calls


def test_run_draws_and_fits_each_seed_once(tmp_path, capsys, monkeypatch):
    series_calls = counting(monkeypatch, "uniform_series")
    fit_calls = counting(monkeypatch, "fit_ols")
    assert main(["run", "--fixture", "experiment-b", "--format", "json",
                 "--out-dir", str(tmp_path)]) == 0
    seeds = json.loads(capsys.readouterr().out)["config"]["seeds"]
    assert len(series_calls) == len(fit_calls) == len(seeds) == 5


@pytest.mark.parametrize("override", [["--n-override", "600"], ["--seeds", "3,5"]])
@pytest.mark.parametrize("fixture", ["experiment-a", "experiment-b"])
def test_run_override_keeps_pristine_discrepancy_report(tmp_path, capsys, fixture, override):
    # experiment-b publishes a seed-17 row, which a --seeds 3,5 run never fits
    def discrepancy(*extra):
        assert main(["run", "--fixture", fixture, "--format", "json",
                     "--out-dir", str(tmp_path), *extra]) == 0
        return json.loads(capsys.readouterr().out)["discrepancy_report"]

    assert discrepancy(*override) == discrepancy()


@pytest.mark.parametrize("overrides, reason", [
    ({"t_w_c": math.nan}, "t_w_c must be a finite number"),
    ({"total_length_m": math.inf}, "total_length_m must be a finite number"),
    ({"target_lengths_m": [2.5, -math.inf]}, "target_lengths_m must be a finite number"),
    ({"t_in_c": "31"}, "t_in_c must be a number, got str"),
    ({"seeds": ["3"]}, "seeds must be an integer, got str"),
    ({"n_override": 2.5}, "n_override must be an integer, got float"),
    ({"t_in_c": 1e307}, "t_in_c must lie within"),
    ({"total_length_m": 1e307}, "series length inf exceeds the maximum of 1000000 samples"),
    ({"n_override": MAX_SAMPLE_COUNT + 1}, "series length 1000001 exceeds the maximum"),
    ({"total_length_m": 1e307, "n_override": 600}, "total_length_m 1e+307 exceeds the maximum of 10000 m"),
    ({"target_lengths_m": [2.5, 2.5, 3.4]}, "target length list contains duplicates"),
    ({"target_lengths_m": []}, "target length list must be nonempty"),
    ({"total_length_m": 0.01171875, "target_lengths_m": [5e-311]}, "gives fewer than 2 samples"),
], ids=["nan", "infinity", "infinite-target", "string-temperature", "string-seed",
        "fractional-n-override", "huge-temperature", "huge-length", "n-override-beyond-bound",
        "huge-length-with-n-override", "duplicate-target-length", "empty-target-lengths",
        "one-sample-pipe"])
def test_run_config_bad_value_exit_2(tmp_path, capsys, overrides, reason):
    config_path = write_raw_config(tmp_path, **overrides)
    assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 2
    assert_one_error_line(capsys, reason)
    assert not (tmp_path / "raw-report.json").exists()


@pytest.mark.parametrize("document, reason", [
    (b"[" * 100_000, "config is nested too deeply to parse"),
    (b'{"seeds": ' + b"[" * 100_000, "config is nested too deeply to parse"),
    (b'{"t_w_c": 2' + b"0" * 5_000 + b"}", "Exceeds the limit (4300 digits) for integer string conversion"),
    (b"[]", "config document must be an object, got list"),
    (b"3", "config document must be an object, got int"),
    (b'"x"', "config document must be an object, got str"),
], ids=["top-level", "key-value", "huge-integer", "array", "number", "string"])
@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
def test_deeply_nested_config_exit_2(tmp_path, capsys, monkeypatch, command, document, reason):
    (tmp_path / "deep.json").write_bytes(document)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", "deep.json"]) == 2
    assert_one_error_line(capsys, reason)
    assert list(tmp_path.iterdir()) == [tmp_path / "deep.json"]


def test_run_config_repeated_key_exit_2(tmp_path, capsys):
    doc = write_config(tmp_path).read_text().rstrip().removesuffix("}")
    config_path = tmp_path / "raw.json"
    config_path.write_text(doc + ',\n  "t_in_c": 99.0\n}\n')
    assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 2
    assert_one_error_line(capsys, "config repeats key t_in_c")
    assert not (tmp_path / "raw-report.json").exists()


@pytest.mark.parametrize("argv, total_length_m, target_m", [
    (["run"], 60.0, 30.0),
    (["run", "--reference", "reference.csv"], 60.0, 30.0),
    (["sweep", "--reference", "reference.csv"], 60.0, 30.0),
    (["run"], 5.4, 3.0),
], ids=["run-60m", "run-60m-reference", "sweep-60m-reference", "run-5.4m"])
def test_run_underflowing_series_spread_exit_4(tmp_path, capsys, monkeypatch, argv, total_length_m, target_m):
    # a 1e-300 degree span underflows the y variance of every seed's fit
    config_path = write_config(tmp_path, t_in_c=1e-300, t_end_c=0.0, t_w_c=0.0,
                               total_length_m=total_length_m, target_lengths_m=(target_m,))
    (tmp_path / "reference.csv").write_text("length_m,t_obs_c\n30.0,1.0\n")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--config", str(config_path), "--out-dir", "out"]) == 4
    assert capsys.readouterr().err == "error: zero total variance in y\n"
    assert not (tmp_path / "out").exists()


def test_run_underflowing_length_spread_exit_4(tmp_path, capsys):
    # every grid step squares to zero, so the fit has no abscissa spread
    config_path = write_raw_config(tmp_path, total_length_m=1e-310, target_lengths_m=[5e-311],
                                   n_override=600)
    assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 4
    assert_one_error_line(capsys, "the spread of x underflows to zero")


@pytest.mark.parametrize("row, count", [("2.5", 1), ("2.5,28.8,1", 3)])
def test_run_reference_row_with_wrong_cell_count_exit_2(tmp_path, capsys, row, count):
    config_path = write_config(tmp_path)
    reference = tmp_path / "reference.csv"
    reference.write_text(f"length_m,t_obs_c\n{row}\n3.4,27.37\n4.4,26.67\n")
    rc = main(["run", "--config", str(config_path), "--reference", str(reference),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_error_line(capsys, f"row 1: expected 2 cells, got {count}")
    assert not (tmp_path / "out").exists()


def test_run_duplicate_reference_length_exit_2(tmp_path, capsys):
    config_path = write_config(tmp_path)
    reference = tmp_path / "reference.csv"
    reference.write_text("length_m,t_obs_c\n2.5,28.8\n3.4,27.37\n2.5,26.67\n")
    rc = main(["run", "--config", str(config_path), "--reference", str(reference),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert_one_error_line(capsys, "row 3: duplicate length 2.5 m")


@pytest.mark.parametrize("bounds", [["--min", "nan", "--max", "1"], ["--min", "0", "--max", "inf"],
                                    ["--min=-1e308", "--max=1e308"]],
                         ids=["nan-min", "inf-max", "overflowing-span"])
def test_generate_non_finite_bounds_exit_2(tmp_path, capsys, bounds):
    out = tmp_path / "never.csv"
    assert main(["generate", "--seed", "3", "--n", "10", *bounds, "--out", str(out)]) == 2
    assert_one_error_line(capsys, "bounds must be finite")
    assert not out.exists()


def test_generate_bounds_beyond_temperature_limit_exit_2(tmp_path, capsys):
    # validate --series refuses such values, so generate must not write them
    out = tmp_path / "never.csv"
    assert main(["generate", "--seed", "3", "--n", "5", "--min=-2e6", "--max", "0",
                 "--out", str(out)]) == 2
    assert_one_error_line(capsys, "within ±1e+06")
    assert not out.exists()


@pytest.mark.parametrize("overrides, n", [
    ({"total_length_m": 60.0, "target_lengths_m": (10.0, 30.0, 55.0)}, 6000),
    ({"n_override": 2}, 2),
], ids=["60m", "n-override-2"])
def test_run_normality_not_applicable_outside_test_range(tmp_path, capsys, overrides, n):
    config_path = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 0
    assert "n/a" in capsys.readouterr().out
    report = json.loads((tmp_path / "custom-report.json").read_bytes())
    assert len(report["series"]) == 5
    for row in report["series"]:
        assert row["n"] == n
        assert row["w_statistic"] is None and row["p_value"] is None
        assert row["normality_rejected"] is None
        assert row["q1"] <= row["median"] <= row["q3"]
        assert row["iqr"] == pytest.approx(row["q3"] - row["q1"])
    assert len(report["predictions"]) == 15


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "3", "--n", str(MAX_SAMPLE_COUNT + 1), "--min", "0", "--max", "1"],
    ["run", "--fixture", "experiment-a", "--n-override", str(MAX_SAMPLE_COUNT + 1)],
    ["validate", "--fixture", "experiment-a", "--n-override", str(MAX_SAMPLE_COUNT + 1)],
], ids=["generate-n", "run-n-override", "validate-n-override"])
def test_series_length_beyond_bound_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert_one_error_line(capsys, "exceeds the maximum of 1000000 samples")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("rows", [
    "2.5,1e-310\n3.4,27.37\n4.4,26.67\n",      # one relative error overflows
    "2.5,5e-305\n3.4,5e-305\n4.4,26.67\n",     # finite errors whose mean overflows
], ids=["relative-error", "mean-relative-error"])
def test_run_reference_near_zero_exit_4(tmp_path, capsys, rows):
    config_path = write_config(tmp_path)
    reference = tmp_path / "reference.csv"
    reference.write_text("length_m,t_obs_c\n" + rows)
    rc = main(["run", "--config", str(config_path), "--reference", str(reference),
               "--out-dir", str(tmp_path)])
    assert rc == 4
    assert_one_error_line(capsys, "overflows")
    assert not (tmp_path / "custom-report.json").exists()


@pytest.mark.parametrize("argv, code, reason", [
    (["run", "--fixture", "experiment-a", "--seeds", ""], 2, "--seeds expects comma-separated integers"),
    (["run", "--fixture", "experiment-a", "--reference", ""], 2, "--reference applies to --config runs"),
    (["run", "--config", "custom.json", "--reference", ""], 3, "Is a directory"),
], ids=["fixture-empty-seeds", "fixture-empty-reference", "config-empty-reference"])
def test_run_empty_seeds_or_reference_is_an_error(tmp_path, capsys, monkeypatch, argv, code, reason):
    write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert_one_error_line(capsys, reason)
    assert not list(tmp_path.glob("*-report.json"))


def test_run_seeds_outside_config_exit_2(tmp_path, capsys):
    config_path = write_config(tmp_path, seeds=(3, 5))
    rc = main(["run", "--config", str(config_path), "--seeds", "17", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert_one_error_line(capsys, "--seeds 17 is not a subset of the config seeds [3, 5]")
    assert not (tmp_path / "custom-report.json").exists()


def test_validate_series_with_n_override_exit_2(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text(render_series_csv([25.0, 26.5, 27.0, 29.5]))
    assert main(["validate", "--series", str(series), "--n-override", "7"]) == 2
    assert_one_error_line(capsys, "--n-override does not apply to a --series file")


def series_table_rows(text, label_words):
    """(label, n, W, p, verdict, q1, median, q3, iqr) per data row of a series table."""
    rows = []
    for line in text.splitlines():
        cells = line.split()
        label, rest = " ".join(cells[:label_words]), cells[label_words:]
        rows.append((label, *rest[:3], " ".join(rest[3:-4]), *rest[-4:]))
    return rows


def test_run_and_validate_series_tables_share_stats_cells(tmp_path, capsys):
    assert main(["run", "--fixture", "experiment-a", "--out-dir", str(tmp_path)]) == 0
    run_out = capsys.readouterr().out
    run_table = run_out.split("\nseries\n")[1].split("\npredictions\n")[0]
    assert main(["validate", "--fixture", "experiment-a"]) == 0
    validate_table = capsys.readouterr().out.split("\n", 1)[1]
    run_rows = series_table_rows(run_table, 1)[2:]
    validate_rows = series_table_rows(validate_table, 2)[2:]
    assert len(run_rows) == len(validate_rows) == 5
    for run_row, validate_row in zip(run_rows, validate_rows):
        assert validate_row[0] == f"seed {run_row[0]}"
        assert validate_row[1:4] == run_row[1:4] and validate_row[5:] == run_row[5:]
        assert run_row[4] in ("rejected", "retained")
        assert validate_row[4] == ("rejected" if run_row[4] == "rejected" else "not rejected")


# sha256 of stdout per command; each command reads the files that
# pinned_inputs writes into the working directory.
STDOUT_PINS = {
    "run-a-as-printed-table": (["run", "--fixture", "experiment-a", "--darl-mode", "as-printed"],
        "44287318da960607064f646b2364e614af39f019ea04500b800048e62e709654"),
    "run-a-span-table": (["run", "--fixture", "experiment-a", "--darl-mode", "span-over-phi-r2"],
        "c49a8db76584dcca97b9aac6615ddc646aa138faffb7c7b9ee08f834d39a0370"),
    "run-b-as-printed-table": (["run", "--fixture", "experiment-b", "--darl-mode", "as-printed"],
        "efad7d8f7a81dbf6220aea23457ca9834ea0c42bcae039e2cc3657e54cc12fb0"),
    "run-b-span-table": (["run", "--fixture", "experiment-b", "--darl-mode", "span-over-phi-r2"],
        "baac17111d1b5783a04b9e91232661b263f4395883c96cbccaf5a1575a00abd5"),
    "run-a-csv": (["run", "--fixture", "experiment-a", "--format", "csv"],
        "6d08e4bbc479443cd98e39c9790ff494f839ef11783c6afeefe370e8ff4a38de"),
    "run-a-n-override-2": (["run", "--fixture", "experiment-a", "--n-override", "2"],
        "21ccbf68a5152f9a73759058081b60a704ed8d351f1bd6c3d0be729621b5e966"),
    "run-config-reference-json": (["run", "--config", "custom.json", "--reference", "reference.csv",
                                   "--format", "json"],
        "02fa93deaa365cfb6767937f531dc894af807eaf74977e3dddd75ec96df16b72"),
    "sweep-a-json": (["sweep", "--fixture", "experiment-a", "--format", "json"],
        "ec58e9fccf4701792735c7629709d6200616845c6a36cc0a348bd5db10e745b0"),
    "sweep-a-table": (["sweep", "--fixture", "experiment-a"],
        "c41554f8f813398a7d342cbeb141c0dc1966a0b47834e9f0a3f17bd70bb07448"),
    "sweep-b-json": (["sweep", "--fixture", "experiment-b", "--format", "json"],
        "6889def3e96dc97d82d48858eed6a2b3fbde00bdee1c435e77aa8e61f5c79c27"),
    "sweep-b-table": (["sweep", "--fixture", "experiment-b"],
        "6c91a53d1cbe20a02e39898c8cdafc8ba10e229815394ef3862bcd8be5c122d9"),
    "validate-a-json": (["validate", "--fixture", "experiment-a", "--format", "json"],
        "46e397aab2956cbdaff30e83130032bf29f6f9e194030d43a11ebb769a45719e"),
    "validate-a-table": (["validate", "--fixture", "experiment-a"],
        "e3c459c1957722bf0252e8ad92113f358899bb0e9a65a1cfedef5c7f901179d0"),
    "validate-b-json": (["validate", "--fixture", "experiment-b", "--format", "json"],
        "e9f4b35e8ba526b6e61c06ae72ceebe6326854e155ec31831af25afa9e0116c3"),
    "validate-b-table": (["validate", "--fixture", "experiment-b"],
        "9f6cbf291c151ffda3abc774f1080a72dfd19a1769fbcc54d58fabe096e428b7"),
    "validate-series-json": (["validate", "--series", "series.csv", "--format", "json"],
        "15a3394bcc8fef452c7c6f9b45d85ed2e46e074b4c6ea9fe722dca925ffe3a19"),
    "fixtures-json": (["fixtures", "--format", "json"],
        "f59795a725259fb18c3ee0f2cfd956aecfb7566d8e6d9a8ef6ae1c68264b57da"),
    "fixtures-table": (["fixtures"],
        "c28a68596b0164d2c072daea0e84fe95d00768212d7269d77fd14dee11f9e6c7"),
    "run-config-table": (["run", "--config", "custom.json"],
        "e0f395fffeac01db466fe2ad362bb9e4edbff5b908ec06741809468249443ade"),
    "run-config-reference-table": (["run", "--config", "custom.json", "--reference", "reference.csv"],
        "e67edb743698ea05c09a4dd3ebe671461f38d604c96892ae823c506620c52bdc"),
    "validate-series-table": (["validate", "--series", "series.csv"],
        "eb8e7cf4f05306f0be3f3c42d8aeaa407a274e5b2e06ba51ed7f3e46ce86d3fb"),
}
GENERATED_CSV_SHA256 = "abb4ed42d9d7c44956e8b729fb660332a2b0509514d8b5da8d582285f6bb1e97"


@pytest.fixture
def pinned_inputs(tmp_path, capsys, monkeypatch):
    write_config(tmp_path)
    (tmp_path / "reference.csv").write_text("length_m,t_obs_c\n2.5,28.8\n3.4,27.37\n4.4,26.67\n")
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--seed", "5", "--n", "538", "--min", "25.81", "--max", "31.01",
                 "--out", "series.csv"]) == 0
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("argv, digest", list(STDOUT_PINS.values()), ids=list(STDOUT_PINS))
def test_stdout_matches_pinned_hash(pinned_inputs, capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_generated_csv_matches_pinned_hash(pinned_inputs):
    assert hashlib.sha256((pinned_inputs / "series.csv").read_bytes()).hexdigest() == GENERATED_CSV_SHA256
