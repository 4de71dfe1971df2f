"""The four workloads: what one op feeds the program, how it runs, how its output is checked.

An op is one ``darl.cli.main`` call in this process (two for
``series-roundtrip``: generate, then validate) or one ``python -m darl``
child process (``cold-cli``). Output checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from . import inputs

TRACER_SCRIPT = Path(__file__).resolve().with_name("tracer.py")
CHILD_TIMEOUT_S = 120

# sha256 of (report JSON, plot CSV) per (fixture, mode), pinned at the commit
# that added this benchmark: the byte-identical artifact contract.
PINNED = {
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

SWEEP_RTOL = 1e-11         # numpy oracle vs the sweep's fsum pipeline: 5.5e-15 seen at this commit
SHAPIRO_TOL = 1e-3         # acceptance criterion 4: agreement with scipy.stats.shapiro


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    samples: int
    failure: str | None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_fixture_outputs(out_dir: Path, fixture: str, mode: str, stdout: str) -> str | None:
    """Report and plot CSV must match the pinned hashes; stdout must be the report."""
    report = out_dir / f"{fixture}-report.json"
    plot = out_dir / f"{fixture}-plot.csv"
    if not report.is_file() or not plot.is_file():
        return f"{fixture}/{mode}: report or plot CSV missing"
    want_report, want_plot = PINNED[(fixture, mode)]
    if _sha256(report) != want_report:
        return f"{fixture}/{mode}: report sha256 differs from the pinned hash"
    if _sha256(plot) != want_plot:
        return f"{fixture}/{mode}: plot CSV sha256 differs from the pinned hash"
    if stdout.encode("utf-8") != report.read_bytes():
        return f"{fixture}/{mode}: stdout differs from the report file"
    return None


class Workload:
    """One workload: inputs generated from ``seed`` under the work directory."""

    name = ""
    in_process = True
    trace_ops = 0          # size of the traced pass: whole input cycles, so counts repeat exactly

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self._cli = None

    def setup(self) -> None:
        """Write the inputs and import the program; the caller runs the warm-up op."""
        self.work.mkdir(parents=True, exist_ok=True)
        if self.in_process:
            import darl.cli
            self._cli = darl.cli      # looked up per call, so the traced run sees the wrapper

    def argvs(self, index: int) -> list[list[str]]:
        raise NotImplementedError

    def samples(self, index: int) -> int:
        raise NotImplementedError

    def check(self, index: int, outputs: list[str]) -> str | None:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        """Checks deferred until after the timed loop; returns failures."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run(self, index: int, tracer=None) -> Outcome:
        argvs = self.argvs(index)
        outputs: list[str] = []
        failure = None
        if tracer is not None:
            tracer.begin_op()
        wall0, cpu0 = perf_counter(), process_time()
        try:
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = self._cli.main(argv)
                if code != 0 or "Traceback" in err.getvalue():
                    failure = f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"
                    break
                outputs.append(out.getvalue())
        except SystemExit as exc:
            failure = f"{argvs[0][0]}: SystemExit({exc.code})"
        except Exception:
            failure = traceback.format_exc(limit=3)
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        if tracer is not None:
            tracer.end_op()
        if failure is None:
            failure = self.check(index, outputs)
        return Outcome(wall, cpu, self.samples(index), failure)


class FixtureRun(Workload):
    """The paper's protocol: both fixtures under both predictor readings."""

    name = "fixture-run"
    trace_ops = 16

    def setup(self) -> None:
        super().setup()
        self.cycle = inputs.fixture_run_cycle(self.seed)

    def _pair(self, index):
        return self.cycle[index % len(self.cycle)]

    def _out_dir(self, fixture, mode) -> Path:
        return self.work / "fixture-run" / f"{fixture}-{mode}"

    def argvs(self, index):
        fixture, mode = self._pair(index)
        return [["run", "--fixture", fixture, "--darl-mode", mode, "--format", "json",
                 "--out-dir", str(self._out_dir(fixture, mode))]]

    def samples(self, index):
        return inputs.FIXTURE_N[self._pair(index)[0]] * len(inputs.FERMAT_SEEDS)

    def check(self, index, outputs):
        fixture, mode = self._pair(index)
        return check_fixture_outputs(self._out_dir(fixture, mode), fixture, mode, outputs[0])


def sweep_expected(config: dict, reference: dict[float, float]) -> dict[int, tuple[float, float]]:
    """Independent oracle for ``darl sweep``: seed -> (mean relative error %, RMSE).

    Rebuilds every series with numpy's MT19937 (the same stream as darl's
    generator), fits OLS with numpy sums and applies both predictor readings
    as published; it shares no code with the program.
    """
    import numpy as np

    length = float(config["total_length_m"])
    t_max, t_min, t_w = float(config["t_in_c"]), float(config["t_end_c"]), float(config["t_w_c"])
    n = int(round(100.0 * length))
    x = np.arange(n, dtype=np.float64) * length / (n - 1)
    out = {}
    for seed in config["seeds"]:
        y = t_min + np.random.RandomState(seed).random_sample(n) * (t_max - t_min)
        np.clip(y, t_min, t_max, out=y)
        y.sort()
        if config["sort_order"] == "descending":
            y = y[::-1]
        xc, yc = x - x.mean(), y - y.mean()
        beta = float(np.dot(xc, yc) / np.dot(xc, xc))
        alpha = float(y.mean() - beta * x.mean())
        r2 = min(1.0, max(0.0, 1.0 - float(np.sum((y - alpha - beta * x) ** 2)) / float(np.dot(yc, yc))))
        errors, squares = [], []
        for target in config["target_lengths_m"]:
            t_phi = alpha + beta * target
            if config["darl_mode"] == "as-printed":
                t_sim = (t_max - t_min) / (t_phi - t_w) / r2 * t_w + t_phi
            else:
                t_sim = (t_max - t_min) / (t_phi * r2) * t_w + t_phi
            t_obs = reference[float(target)]
            errors.append(100.0 * abs(t_obs - t_sim) / abs(t_obs))
            squares.append((t_obs - t_sim) ** 2)
        out[seed] = (sum(errors) / len(errors), math.sqrt(sum(squares) / len(squares)))
    return out


class LongSweep(Workload):
    """sweep over generated 20-100 m pipes: draws, sorting and fits scale with n."""

    name = "long-sweep"
    trace_ops = inputs.SWEEP_CONFIGS

    def setup(self) -> None:
        super().setup()
        self.items = inputs.sweep_inputs(self.seed)
        self.dir = self.work / "long-sweep"
        self.dir.mkdir(parents=True, exist_ok=True)
        for j, item in enumerate(self.items):
            (self.dir / f"config-{j}.json").write_bytes(item.config)
            (self.dir / f"reference-{j}.csv").write_bytes(item.reference)
        self._expected: dict[int, dict] = {}

    def argvs(self, index):
        j = index % len(self.items)
        return [["sweep", "--config", str(self.dir / f"config-{j}.json"),
                 "--reference", str(self.dir / f"reference-{j}.csv"),
                 "--format", "json", "--out-dir", str(self.dir / "out")]]

    def samples(self, index):
        return self.items[index % len(self.items)].n * len(inputs.FERMAT_SEEDS)

    def check(self, index, outputs):
        j = index % len(self.items)
        if j not in self._expected:
            item = self.items[j]
            rows = item.reference.decode().split()[1:]
            reference = {float(a): float(b) for a, b in (row.split(",") for row in rows)}
            self._expected[j] = sweep_expected(json.loads(item.config), reference)
        expected = self._expected[j]
        doc = json.loads(outputs[0])
        ranking = doc["ranking"]
        if sorted(r["seed"] for r in ranking) != sorted(expected):
            return f"config {j}: ranking seeds {[r['seed'] for r in ranking]}"
        best = min(ranking, key=lambda r: (r["mean_relative_error_pct"], r["seed"]))["seed"]
        if doc["best_seed"] != best:
            return f"config {j}: best_seed {doc['best_seed']} is not the ranking's argmin {best}"
        for row in ranking:
            mean_err, rmse_c = expected[row["seed"]]
            if not (math.isclose(row["rmse_c"], rmse_c, rel_tol=SWEEP_RTOL)
                    and math.isclose(row["mean_relative_error_pct"], mean_err, rel_tol=SWEEP_RTOL)):
                return (f"config {j} seed {row['seed']}: rmse_c {row['rmse_c']} / mean error "
                        f"{row['mean_relative_error_pct']} differ from the oracle {rmse_c} / {mean_err}")
        if (self.dir / "out" / f"config-{j}-sweep.json").read_text() != outputs[0]:
            return f"config {j}: sweep file differs from stdout"
        return None


class SeriesRoundtrip(Workload):
    """generate writes a CSV at a fresh random seed, validate reads it back."""

    name = "series-roundtrip"
    trace_ops = 2 * inputs.ROUNDTRIP_BLOCK

    def setup(self) -> None:
        super().setup()
        self.dir = self.work / "series-roundtrip"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._pending: list[tuple[int, str]] = []

    def _csv(self, index) -> Path:
        return self.dir / f"op{index}.csv"

    def argvs(self, index):
        item = inputs.roundtrip_input(self.seed, index)
        path = str(self._csv(index))
        return [
            ["generate", "--seed", str(item.seed), "--n", str(item.n), "--min", item.t_min,
             "--max", item.t_max, "--order", item.order, "--out", path],
            ["validate", "--series", path, "--format", "json"],
        ]

    def samples(self, index):
        return inputs.roundtrip_input(self.seed, index).n

    def check(self, index, outputs):
        # scipy is imported only after the timed loop, so it stays out of peak RSS;
        # the warm-up op (index -1) is not one of the measured ops
        if index >= 0:
            self._pending.append((index, outputs[1]))
        return None

    def final_check(self) -> list[str]:
        failures = []
        for index, validate_out in self._pending:
            item = inputs.roundtrip_input(self.seed, index)
            path = self._csv(index)
            failure = _check_roundtrip(item, path.read_text(), json.loads(validate_out))
            if failure:
                failures.append(f"op {index}: {failure}")
            path.unlink()
        return failures


def _check_roundtrip(item, csv_text: str, doc: dict) -> str | None:
    import numpy as np
    from scipy.stats import shapiro

    lines = csv_text.split()
    if lines[0] != "Ordered_Value" or len(lines) != item.n + 1:
        return f"generated CSV has header {lines[0]!r} and {len(lines) - 1} values, want {item.n}"
    values = np.array(lines[1:], dtype=np.float64)
    t_min, t_max = float(item.t_min), float(item.t_max)
    expected = t_min + np.random.RandomState(item.seed).random_sample(item.n) * (t_max - t_min)
    np.clip(expected, t_min, t_max, out=expected)
    expected.sort()
    if item.order == "desc":
        expected = expected[::-1]
    # 15 significant digits: each value within 5e-15 of an independent MT19937 draw
    if not np.allclose(values, expected, rtol=1e-14, atol=0.0):
        return "generated values differ from an independent MT19937 draw"
    row = doc["results"][0]
    if row["n"] != item.n:
        return f"validate n {row['n']} != generated n {item.n}"
    if not t_min <= row["q1"] <= row["median"] <= row["q3"] <= t_max:
        return f"quartiles {row['q1']}, {row['median']}, {row['q3']} out of order or bounds"
    ref = shapiro(values)
    if abs(ref.statistic - row["w_statistic"]) > SHAPIRO_TOL or abs(ref.pvalue - row["p_value"]) > SHAPIRO_TOL:
        return f"W, p = {row['w_statistic']}, {row['p_value']} vs scipy {ref.statistic}, {ref.pvalue}"
    return None


class ColdCli(Workload):
    """``python -m darl run --fixture F``: one child process per op."""

    name = "cold-cli"
    in_process = False
    trace_ops = 8

    def setup(self) -> None:
        super().setup()
        self.cycle = inputs.cold_cli_cycle(self.seed)
        src = str(self.root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def _fixture(self, index):
        return self.cycle[index % len(self.cycle)]

    def argvs(self, index):
        fixture = self._fixture(index)
        return [["run", "--fixture", fixture, "--format", "json",
                 "--out-dir", str(self.work / "cold-cli" / fixture)]]

    def samples(self, index):
        return inputs.FIXTURE_N[self._fixture(index)] * len(inputs.FERMAT_SEEDS)

    def check(self, index, outputs):
        fixture = self._fixture(index)
        return check_fixture_outputs(self.work / "cold-cli" / fixture, fixture, "as-printed", outputs[0])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def child(self, prefix: list[str], argv: list[str]) -> tuple[float, float, int | None, str, str]:
        """Run ``python PREFIX ARGV`` to completion: wall s, CPU s, exit code, stdout, stderr."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall0 = perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, *prefix, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        wall = perf_counter() - wall0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return wall, cpu, code, out_path.read_text(), err_path.read_text()

    def run(self, index, tracer=None) -> Outcome:
        argv = self.argvs(index)[0]
        spans = self.work / "child-spans.json"
        prefix = [str(TRACER_SCRIPT), str(spans)] if tracer is not None else ["-m", "darl"]
        wall, cpu, code, out, err = self.child(prefix, argv)
        failure = None
        if code != 0 or "Traceback" in err:
            failure = f"child exited {code}: {err.strip()[-300:]}"
        if tracer is not None and spans.is_file():
            tracer.absorb(json.loads(spans.read_text()))
            spans.unlink()
        if failure is None:
            failure = self.check(index, [out])
        return Outcome(wall, cpu, self.samples(index), failure)

    def import_breakdown(self, runs: int) -> dict[str, float]:
        """``-X importtime`` of the first ``runs`` ops, folded into numpy,
        darl (self) and site ms; the median of each over the runs."""
        folded = []
        for index in range(runs):
            _, _, code, _, err = self.child(["-X", "importtime", "-m", "darl"], self.argvs(index)[0])
            if code != 0:
                raise RuntimeError(f"importtime child exited {code}")
            folded.append(fold_importtime(err))
        return {key: median(f[key] for f in folded) for key in folded[0]}


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| +(\S+)\s*$")


def fold_importtime(stderr: str) -> dict[str, float]:
    """numpy: cumulative ms of its top import; darl: self ms summed over darl and
    darl.*; site: cumulative ms of the interpreter's site import."""
    numpy_us = darl_us = site_us = 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, cumulative_us, name = int(match[1]), int(match[2]), match[3]
        if name == "numpy":
            numpy_us = max(numpy_us, cumulative_us)
        elif name == "site":
            site_us = max(site_us, cumulative_us)
        if name == "darl" or name.startswith("darl."):
            darl_us += self_us
    return {"import.numpy_ms": numpy_us / 1e3, "import.darl_ms": darl_us / 1e3,
            "import.site_ms": site_us / 1e3}


WORKLOADS = {cls.name: cls for cls in (FixtureRun, LongSweep, SeriesRoundtrip, ColdCli)}
