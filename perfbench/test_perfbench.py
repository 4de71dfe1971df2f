"""Tests of the benchmark itself: ``python -m pytest perfbench -q`` (about a minute)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, tracer
from perfbench.workloads import WORKLOADS, fold_importtime

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", "_ratio", ".values_drawn", ".points_fitted", ".bytes_out")


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _inputs(workload: str, seed: int, ops: int = 64) -> bytes:
    """Canonical bytes of a workload's inputs."""
    if workload == "fixture-run":
        doc = inputs.fixture_run_cycle(seed)
    elif workload == "cold-cli":
        doc = inputs.cold_cli_cycle(seed)
    elif workload == "long-sweep":
        doc = [[s.config.decode(), s.reference.decode(), s.n] for s in inputs.sweep_inputs(seed)]
    else:
        doc = [list(vars(inputs.roundtrip_input(seed, i)).values()) for i in range(ops)]
    return json.dumps(doc).encode()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_errors_and_every_end_to_end_metric(workload):
    code, stdout = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _result(stdout)
    assert code == 0, stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_traced_runs_give_identical_counts(workload):
    runs = []
    for _ in range(2):
        code, stdout = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert code == 0, stdout
        runs.append(_result(stdout)["metrics"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(runs[0])
    counts = [{k: v["value"] for k, v in r.items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["prng.uniform_series.calls"] > 0
    if workload in ("fixture-run", "cold-cli"):
        assert counts[0]["model.series_useful_ratio"] == 0.25


def test_without_a_source_tree_it_fails_without_a_result():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, stdout = _run("--workload", "fixture-run", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0
    assert '"correct"' not in stdout


def test_fixture_check_rejects_a_changed_report():
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"check-{os.getpid()}"
    workload = WORKLOADS["fixture-run"](ROOT, work, 1)
    try:
        workload.setup()
        assert workload.run(0).failure is None
        fixture, mode = workload.cycle[0]
        report = work / "fixture-run" / f"{fixture}-{mode}" / f"{fixture}-report.json"
        report.write_bytes(report.read_bytes().replace(b"darl", b"DARL", 1))
        assert "pinned hash" in workload.check(0, [report.read_text()])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_importtime_folding():
    stderr = "\n".join((
        "import time: self [us] | cumulative | imported package",
        "import time:      2000 |      90000 | site",
        "import time:      1500 |       1500 |       darl.errors",
        "import time:      2600 |     115000 |     numpy",
        "import time:      1000 |     191000 | darl",
    ))
    assert fold_importtime(stderr) == {
        "import.numpy_ms": 115.0, "import.darl_ms": 2.5, "import.site_ms": 90.0,
    }


def test_tracer_rebinds_every_binding_and_reports_a_missing_function_as_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import darl.cli
    import darl.model
    import darl.regression

    original = darl.regression.fit_ols
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (("model", "no_such_function"),))
    t = tracer.Tracer()
    t.install()
    try:
        assert darl.model.fit_ols is darl.regression.fit_ols is not original
        t.begin_op()
        darl.cli.main(["fixtures", "--format", "json"])
        t.end_op()
    finally:
        t.uninstall()
    assert darl.model.fit_ols is darl.regression.fit_ols is original
    assert t.absent == ["model.no_such_function"]
    per_op = t.per_op()
    assert per_op["cli.main.calls"] == 1 and per_op["ingest.load_fixture.calls"] == 2
    assert per_op["model.no_such_function.calls"] == 0
