"""darl benchmark: one workload, one seed, untraced (end-to-end) or traced (per-layer).

    python3 perfbench/run.py --workload fixture-run --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports ``darl`` from ``src/``.
One client runs ops back to back (a closed loop). Every op's output is
checked outside the timed region. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of BENCHMARK.json (``end_to_end`` untraced, ``per_layer``
traced). The exit code is 1 when any check fails, 2 on a usage error or when
there is no ``src/darl`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from itertools import count
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5           # setup_s is the median of this many fresh benchmark processes
IMPORT_PROBES = 3          # -X importtime children per traced cold-cli run
MIN_BASELINE_SHARE = 0.3   # traced run: least share of --seconds for the untraced baseline
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (inputs are a function of it)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(workload, indices, seconds: float) -> list:
    """Closed loop: run ops until ``seconds`` have passed (at least one op)."""
    outcomes = []
    deadline = perf_counter() + seconds
    for index in indices:
        outcomes.append(workload.run(index))
        if perf_counter() >= deadline:
            break
    return outcomes


def _cpu_seconds() -> float:
    """CPU time (user + sys) of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def setup_seconds(args) -> list[tuple[float, float]]:
    """(wall s, CPU s) from process start to ready-for-the-first-timed-op,
    in fresh benchmark processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - started
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, _, cpu = line.decode().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.decode(errors='replace').strip()[-300:]}")
        times.append((elapsed, float(cpu)))
    return times


def p90(values: list[float]) -> float:
    return quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# Every end-to-end metric an untraced run prints. The result line carries
# only those BENCHMARK.json names: the ones that stay steady on a shared box.
END_TO_END_UNITS = {
    "latency_ms_p50": "ms", "latency_ms_p90": "ms", "cpu_ms_p50": "ms",
    "ops_per_s": "1/s", "samples_per_s": "1/s", "error_rate": "ratio",
    "setup_s": "s", "setup_wall_s": "s", "peak_rss_mb": "MiB",
}


def end_to_end(outcomes, failed: int, rss_mb: float, setup: list[tuple[float, float]]) -> dict[str, float]:
    walls = [o.wall_s * 1e3 for o in outcomes]
    busy_s = sum(o.wall_s for o in outcomes)
    return {
        "latency_ms_p50": median(walls),
        "latency_ms_p90": p90(walls),
        "cpu_ms_p50": median(o.cpu_s * 1e3 for o in outcomes),
        "ops_per_s": len(outcomes) / busy_s,
        "samples_per_s": sum(o.samples for o in outcomes) / busy_s,
        "error_rate": failed / len(outcomes),
        "setup_s": median(cpu for _, cpu in setup),
        "setup_wall_s": median(wall for wall, _ in setup),
        "peak_rss_mb": rss_mb,
    }


def traced_run(workload, args, notes: list[str]):
    """Fixed-size traced pass (whole input cycles, so counts repeat exactly),
    then an untraced baseline for the rest of the time; returns outcomes and
    per-layer metrics."""
    started = perf_counter()
    tracer = Tracer()
    imports = None
    if workload.in_process:
        tracer.install()
        try:
            traced = [workload.run(i, tracer) for i in range(workload.trace_ops)]
        finally:
            tracer.uninstall()
        notes.append("import.* not measured: in-process workload (see cold-cli)")
    else:
        traced = [workload.run(i, tracer) for i in range(workload.trace_ops)]
        imports = workload.import_breakdown(IMPORT_PROBES)
    remaining = max(args.seconds - (perf_counter() - started), MIN_BASELINE_SHARE * args.seconds)
    baseline = measure(workload, count(workload.trace_ops), remaining)
    layer = tracer.per_op()
    layer.update(imports or dict.fromkeys(("import.numpy_ms", "import.darl_ms", "import.site_ms"), 0.0))
    layer["trace.overhead_cpu_ms"] = (median(o.cpu_s for o in traced)
                                      - median(o.cpu_s for o in baseline)) * 1e3
    if tracer.absent:
        notes.append("absent (reported as 0): " + ", ".join(tracer.absent))
    notes.append(f"traced ops={len(traced)} untraced baseline ops={len(baseline)}")
    trace_file = ROOT / ".perfbench_work" / f"trace-{args.workload}-s{args.seed}.json"
    tracer.write(trace_file)
    notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return traced + baseline, layer


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "darl" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("error: run from a checkout of the repository: src/darl or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    try:
        workload.setup()
        darl = sys.modules.get("darl")
        if darl is not None and not Path(darl.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: darl imported from {darl.__file__}, not from {src}", file=sys.stderr)
            return 2
        warm_up = workload.run(-1)
        if warm_up.failure:
            print(f"error: warm-up op failed: {warm_up.failure}", file=sys.stderr)
            return 1
        if args.setup_probe:
            print(f"ready {_cpu_seconds()!r}", flush=True)
            return 0
        notes: list[str] = []
        if args.trace:
            outcomes, values = traced_run(workload, args, notes)
            declared = spec["per_layer"]
        else:
            outcomes = measure(workload, count(0), args.seconds)
            rss_mb = workload.peak_rss_mb()      # before the deferred checks import scipy
            declared = spec["end_to_end"]
        failures = [o.failure for o in outcomes if o.failure] + workload.final_check()
        if not args.trace:
            values = end_to_end(outcomes, len(failures), rss_mb, setup_seconds(args))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for item in declared:
        value = values.get(item["name"])
        if value is None:
            notes.append(f"{item['name']}: not produced by this benchmark version, reported as 0")
            value = 0.0
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}

    walls = sorted(o.wall_s for o in outcomes)
    beyond_p90 = sum(w > p90(walls) for w in walls)
    print(f"darl benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"  ops={len(outcomes)} ({beyond_p90} beyond p90) failed={len(failures)}")
    units = {item["name"]: item["unit"] for item in declared}
    if not args.trace:
        units = END_TO_END_UNITS
        notes.append("in the result line (BENCHMARK.json): " + ", ".join(metrics))
    for name, unit in units.items():
        print(f"  {name:34s} {values.get(name, 0.0):14.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
