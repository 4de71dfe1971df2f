"""Command-line surface: generate | run | sweep | validate | fixtures.

Exit codes: 0 success, 2 usage or validation error, 3 I/O error,
4 numerical degeneracy. All primary outputs (report JSON, series CSV,
plot CSV) are byte-deterministic for fixed inputs; wall time is reported
on stderr only so it never perturbs the artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import DarlError, NumericalDegeneracy, UnsupportedSampleSize, ValidationError
from .ingest import (
    FIXTURE_NAMES,
    Fixture,
    load_config,
    load_fixture,
    load_reference_csv,
    load_series_csv,
    plain_number,
)
from .model import (
    DARL_MODES,
    ExperimentConfig,
    SeedFit,
    build_series,
    compare_with_reference,
    fit_seeds,
    predict,
    rank_seeds,
)
from .prng import MAX_SAMPLE_COUNT, uniform_series
from .serialize import (
    render_json,
    render_plot_csv,
    render_series_csv,
    render_table,
)
from .stats import ALPHA, quartile_summary, rmse, shapiro_wilk

_ORDER_FLAGS = {"asc": "ascending", "desc": "descending"}

#: Largest input file read, bytes: 32 per value of the longest series (generate writes at most 23).
MAX_INPUT_BYTES = 32 * MAX_SAMPLE_COUNT


def _write_artifact(out_dir: str | None, filename: str, text: str) -> str:
    """Write text to filename in out_dir (created if missing; None: as given), in place: without
    O_TRUNC, whose flush of a file that held data cost several writes on ext4 mounted with ``discard``
    (a temporary file and a rename cost as much), and cut after the write. A run killed mid-write can
    leave new bytes followed by the old tail, where O_TRUNC would leave a short file; neither is atomic."""
    if out_dir is not None:
        if not out_dir:  # Path("") is the current directory
            raise ValidationError("--out-dir must not be empty")
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise NotADirectoryError(f"--out-dir {out_dir} is not a directory") from None
        filename = os.path.join(out_dir, filename)
    with open(os.open(filename, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        # the size is the old file's or, past the buffer, at least the new; a device or pipe reads 0
        if handle.write(text.encode("utf-8")) < os.fstat(handle.fileno()).st_size:
            handle.truncate()
    return filename


def _header(source: str) -> dict:
    return {"tool": "darl", "version": __version__, "source": source}


def _read_input(path: str) -> bytes:
    """A file's bytes up to the cap, in 64 KiB reads (read(n) allocates n bytes); /dev/zero ends too."""
    data = bytearray()
    with open(path or ".", "rb") as handle:  # Path("") was the current directory: the same error
        while len(data) <= MAX_INPUT_BYTES and (chunk := handle.read(1 << 16)):
            data += chunk
    if len(data) > MAX_INPUT_BYTES:
        raise ValidationError(f"{path} is larger than the input limit of {MAX_INPUT_BYTES} bytes")
    return bytes(data)


def _integer(text: str) -> int:
    """An integer flag's value: ASCII digits with an optional sign (int() also reads "1_7" and "３")."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expects an integer in ASCII digits, got {text!r}")
    return int(text)


def _bound(text: str) -> float:
    """A --min/--max value under the CSV cells' decimal rule, refused in argparse's words for float."""
    try:
        return plain_number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _parse_seeds(text: str, config_seeds: tuple[int, ...]) -> tuple[int, ...]:
    """The --seeds subset; each seed must be one of the config's."""
    try:  # the ASCII whitespace int() strips; NBSP, em space and \x1c-\x1f stay refused
        seeds = tuple(_integer(part.strip(" \t\n\r\v\f")) for part in text.split(","))
    except (argparse.ArgumentTypeError, ValueError):  # ValueError: int()'s 4,300-digit limit
        raise ValidationError(f"--seeds expects comma-separated integers, got {text!r}") from None
    if not set(seeds) <= set(config_seeds):
        raise ValidationError(f"--seeds {text} is not a subset of the config seeds {list(config_seeds)}")
    return seeds


def _resolve_inputs(args) -> tuple[str, ExperimentConfig, list[tuple[float, float]] | None, Fixture | None]:
    """Source name, config with the overrides (replace() checks them), reference and fixture (if any)."""
    reference_path = getattr(args, "reference", None)
    if args.fixture is not None:
        if reference_path is not None:
            raise ValidationError("--reference applies to --config runs; fixtures ship their own")
        fixture = load_fixture(args.fixture)
        name, config, reference = fixture.name, fixture.config, list(fixture.reference)
    else:
        fixture = None
        name, config, reference = Path(args.config).stem, load_config(_read_input(args.config)), None
        if reference_path is not None:
            reference = load_reference_csv(_read_input(reference_path))
    changes = {}
    if getattr(args, "n_override", None) is not None:
        changes["n_override"] = args.n_override
    if getattr(args, "sort_order", None) is not None:
        changes["sort_order"] = _ORDER_FLAGS[args.sort_order]
    if getattr(args, "darl_mode", None) is not None:
        changes["darl_mode"] = args.darl_mode
    if getattr(args, "seeds", None) is not None:
        changes["seeds"] = _parse_seeds(args.seeds, config.seeds)
    return name, replace(config, **changes) if changes else config, reference, fixture


def _distribution_stats(values, strict: bool = True) -> dict:
    """Shapiro-Wilk and quartile summary of one series, in report key order.

    Unless ``strict``, a sample size outside the test's range gives
    null W, p and verdict instead of an UnsupportedSampleSize error.
    """
    try:
        norm = shapiro_wilk(values)
        w, p, rejected = norm.w_statistic, norm.p_value, norm.rejected
    except UnsupportedSampleSize:
        if strict:
            raise
        w = p = rejected = None
    quart = quartile_summary(values)
    return {
        "n": len(values),
        "w_statistic": w,
        "p_value": p,
        "normality_rejected": rejected,
        "q1": quart.q1,
        "median": quart.q2,
        "q3": quart.q3,
        "iqr": quart.iqr,
    }


def _stats_cells(label, stats: dict, retained_word: str) -> tuple:
    """One series table row from a _distribution_stats row; n/a when W is null."""
    if stats["w_statistic"] is None:
        test = ("n/a", "n/a", "n/a")
    else:
        test = (stats["w_statistic"], format(stats["p_value"], ".3e"),
                "rejected" if stats["normality_rejected"] else retained_word)
    return (label, stats["n"], *test, stats["q1"], stats["median"], stats["q3"], stats["iqr"])


def _discrepancy_block(fixture: Fixture, config: ExperimentConfig, fits: list[SeedFit]) -> dict:
    """Published comparison rows beside this artifact's values, every mode.

    Always evaluated on the pristine fixture config (the published
    protocol), regardless of run-time overrides, so the recorded
    discrepancy is stable. Only the published rows' seeds are evaluated:
    from the run's fits when no override but the mode and the seeds
    changed them, and the block fits whichever seeds are still missing.
    """
    pristine, published = fixture.config, {pub.seed for pub in fixture.reported_rows}
    lends = {**vars(config), "darl_mode": pristine.darl_mode, "seeds": pristine.seeds} == vars(pristine)
    fits = [sf for sf in fits if lends and sf.seed in published]
    if rest := tuple(published.difference(sf.seed for sf in fits)):
        fits += fit_seeds(replace(pristine, seeds=rest))
    by_mode = {}  # mode -> its comparison at each published row
    for mode in DARL_MODES:
        mode_config = pristine if mode == pristine.darl_mode else replace(pristine, darl_mode=mode)
        comps = compare_with_reference(predict(mode_config, fits), fixture.reference)
        by_row = {(c.seed, c.target_length_m): c for c in comps}
        by_mode[mode] = [by_row[pub.seed, pub.target_length_m] for pub in fixture.reported_rows]
    rows = [
        {
            "target_length_m": pub.target_length_m,
            "seed": pub.seed,
            "reported_delta_t_c": pub.delta_t_c,
            "reported_relative_error_pct": pub.relative_error_pct,
            "computed": {
                mode: {"t_sim_c": c.t_sim_c, "delta_t_c": c.delta_t_c, "relative_error_pct": c.relative_error_pct}
                for mode, c in zip(by_mode, comps)
            },
        }
        for pub, *comps in zip(fixture.reported_rows, *by_mode.values())
    ]
    computed_rmse = {mode: rmse([c.t_obs_c for c in cs], [c.t_sim_c for c in cs]) for mode, cs in by_mode.items()}
    return {
        "note": (
            "Recorded, not asserted: the predictor evaluated as printed "
            "leaves the physical temperature range for every row of this "
            "fixture, so the published relative errors are not reproduced "
            "by any registered reading of the formula. Computed values are "
            "reported beside the published ones for inspection."
        ),
        "published_protocol_rows": rows,
        "rmse": {"reported_c": fixture.reported_rmse_c, "computed_c": computed_rmse},
    }


def _build_report(
    name: str,
    config: ExperimentConfig,
    reference: list[tuple[float, float]] | None,
    fixture: Fixture | None,
) -> dict:
    fits = fit_seeds(config)
    records = predict(config, fits)
    report = {
        **_header(name),
        "kind": "fixture" if fixture is not None else "config",
        "config": vars(config),
        "sample_count": config.sample_count(),
        "series": [
            {"seed": sf.seed, **_distribution_stats(sf.values, strict=False)}
            for sf in fits
        ],
        "predictions": [dict(vars(r)) for r in records],
    }
    if reference is not None:
        comparisons = compare_with_reference(records, reference)
        ranking = rank_seeds(comparisons)
        report["comparisons"] = [dict(vars(c)) for c in comparisons]
        report["rmse_by_seed"] = dict(sorted((seed, rmse_c) for _, seed, rmse_c in ranking))
        report["best_seed"] = ranking[0][1]
    if fixture is not None:
        report["discrepancy_report"] = _discrepancy_block(fixture, config, fits)
    return report


def _run_tables(report: dict) -> str:
    cfg = report["config"]
    parts = [
        f"darl {report['version']}  source={report['source']}  "
        f"mode={cfg['darl_mode']}  sort={cfg['sort_order']}  n={report['sample_count']}",
        "",
        "series",
        render_table(
            ("seed", "n", "W", "p", "normal", "q1", "median", "q3", "iqr"),
            [_stats_cells(s["seed"], s, "retained") for s in report["series"]],
        ),
        "predictions",
        render_table(
            ("seed", "length_m", "t_phi_c", "r_squared", "t_sim_c", "in_range"),
            [(*list(p.values())[:-1], "no" if p["out_of_range"] else "yes") for p in report["predictions"]],
        ),
    ]
    if "comparisons" in report:
        parts.append("comparisons")
        parts.append(render_table(
            ("seed", "length_m", "t_sim_c", "t_obs_c", "delta_t_c", "rel_err_pct"),
            [c.values() for c in report["comparisons"]],
        ))
        parts.append("rmse by seed")
        parts.append(render_table(("seed", "rmse_c"), report["rmse_by_seed"].items()))
        parts.append(f"best seed: {report['best_seed']}")
    if "discrepancy_report" in report:
        block = report["discrepancy_report"]
        parts.append("")
        parts.append("published vs computed (published protocol rows)")
        headers = ["length_m", "seed", "rep_dT", "rep_err%"]
        for mode in block["rmse"]["computed_c"]:
            headers.extend((f"{mode} dT", f"{mode} err%"))
        rows = []
        for row in block["published_protocol_rows"]:
            *published, computed = row.values()
            mode_cells = (v for c in computed.values() for v in (c["delta_t_c"], c["relative_error_pct"]))
            rows.append((*published, *mode_cells))
        parts.append(render_table(headers, rows))
        rmse_cells = [f"reported={block['rmse']['reported_c']:.4f}"]
        rmse_cells.extend(f"{mode}={v:.4f}" for mode, v in block["rmse"]["computed_c"].items())
        parts.append("rmse_c: " + "  ".join(rmse_cells))
        parts.append("note: " + block["note"])
    return "\n".join(parts) + "\n"


def cmd_generate(args) -> int:
    if args.out == "":  # os.open("") fails with a raw errno; refused before any draw
        raise ValidationError("--out must not be empty")
    order = _ORDER_FLAGS[args.order]
    values = uniform_series(args.seed, args.n, args.min, args.max, order)
    name = args.out or f"series-seed{args.seed}-n{args.n}-{args.order}.csv"
    path = _write_artifact(None if args.out else args.out_dir, name, render_series_csv(values))
    print(f"wrote {path} ({len(values)} values, {order})")
    return 0


def _emit(args, doc: dict, table, artifact: str | None = None, *after: tuple[str, str]) -> None:
    """Print doc as args.format asks: its JSON, or else table(doc). The JSON is rendered at most once,
    only when printed or written to args.out_dir as artifact; the (filename, text) files in after follow it."""
    text = render_json(doc) + "\n" if artifact or args.format == "json" else ""
    for filename, content in ((artifact, text), *after) if artifact else ():
        _write_artifact(args.out_dir, filename, content)
    sys.stdout.write(text if args.format == "json" else table(doc))


def cmd_run(args) -> int:
    started = time.perf_counter()
    name, config, reference, fixture = _resolve_inputs(args)
    report = _build_report(name, config, reference, fixture)
    # the best seed's rows, in predict's ascending length order; without a reference, the header alone
    comparisons = report.get("comparisons", [])
    plot_text = render_plot_csv(
        (c["target_length_m"], c["t_sim_c"], c["t_obs_c"])
        for c in comparisons if c["seed"] == report["best_seed"]
    )
    plot = [(f"{name}-plot.csv", plot_text)] if comparisons else []
    table = _run_tables if args.format == "table" else lambda _: plot_text
    _emit(args, report, table, f"{name}-report.json", *plot)
    print(f"wall_time_s={time.perf_counter() - started:.6f}", file=sys.stderr)
    return 0


def _sweep_table(doc: dict) -> str:
    table = render_table(
        ("seed", "mean_rel_err_pct", "rmse_c"),
        [r.values() for r in doc["ranking"]],
    )
    return f"sweep: {doc['source']}  mode={doc['mode']}\n{table}best seed: {doc['best_seed']}\n"


def cmd_sweep(args) -> int:
    name, config, reference, fixture = _resolve_inputs(args)
    if reference is None:
        raise ValidationError("sweep needs reference observations: use a fixture or --reference")
    ranking = rank_seeds(compare_with_reference(predict(config, fit_seeds(config)), reference))
    doc = {
        **_header(name),
        "mode": config.darl_mode,
        "ranking": [
            {
                "seed": seed,
                "mean_relative_error_pct": mean_err,
                "rmse_c": rmse_c,
            }
            for mean_err, seed, rmse_c in ranking
        ],
        "best_seed": ranking[0][1],
    }
    _emit(args, doc, _sweep_table, f"{name}-sweep.json")
    return 0


def _validate_table(doc: dict) -> str:
    table = render_table(
        ("source", "n", "W", "p", "normality", "q1", "median", "q3", "iqr"),
        [_stats_cells(r["source"], r, "not rejected") for r in doc["results"]],
    )
    return f"validate: {doc['source']}  alpha={doc['alpha']}\n{table}"


def cmd_validate(args) -> int:
    if args.series is not None:
        if args.n_override is not None:
            raise ValidationError("--n-override does not apply to a --series file")
        values = load_series_csv(_read_input(args.series))
        source = os.path.basename(args.series)
        rows = [{"source": source, **_distribution_stats(values)}]
    else:
        source, config, _, _ = _resolve_inputs(args)
        rows = [
            {"source": f"seed {seed}", **_distribution_stats(build_series(config, seed))}
            for seed in sorted(config.seeds)
        ]
    _emit(args, {**_header(source), "alpha": ALPHA, "results": rows}, _validate_table)
    return 0


def _fixtures_table(doc: dict) -> str:
    return render_table(
        ("name", "t_in_c", "t_end_c", "t_w_c", "length_m", "targets", "n"),
        [
            (
                e["name"], e["t_in_c"], e["t_end_c"], e["t_w_c"],
                e["total_length_m"], len(e["target_lengths_m"]), e["sample_count"],
            )
            for e in doc["fixtures"]
        ],
    )


def cmd_fixtures(args) -> int:
    entries = []
    for name in FIXTURE_NAMES:
        fixture = load_fixture(name)
        entries.append({
            "name": name,
            **vars(fixture.config),
            "sample_count": fixture.config.sample_count(),
            "reference_points": len(fixture.reference),
            "reported_rmse_c": fixture.reported_rmse_c,
        })
    _emit(args, {"fixtures": entries}, _fixtures_table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darl",
        description="Deterministic random-length temperature model: "
                    "synthetic series, regression-driven predictions, validation reports.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # Each subcommand takes only the flags that change its output.
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default=".", help="directory for emitted files (created if missing)")

    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("json", "table"), default="table",
                         help="stdout format (default: table)")

    length = argparse.ArgumentParser(add_help=False)
    length.add_argument("--n-override", type=_integer, default=None,
                        help="series length override (defaults to one value per centimetre)")

    experiment = argparse.ArgumentParser(add_help=False)
    group = experiment.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", help="built-in fixture name (see the fixtures command)")
    group.add_argument("--config", help="path to a config JSON document")
    experiment.add_argument("--reference", default=None,
                            help="CSV of observations (length_m,t_obs_c) for --config runs")
    experiment.add_argument("--sort-order", choices=tuple(_ORDER_FLAGS), default=None,
                            help="series sort direction override")
    experiment.add_argument("--darl-mode", choices=DARL_MODES, default=None,
                            help="predictor reading override")

    p = sub.add_parser("generate", help="emit one sorted bounded series as a single-column CSV")
    p.add_argument("--seed", type=_integer, required=True, help="32-bit generator seed")
    p.add_argument("--n", type=_integer, required=True, help="number of values")
    p.add_argument("--min", type=_bound, required=True, help="lower bound, degrees C")
    p.add_argument("--max", type=_bound, required=True, help="upper bound, degrees C")
    p.add_argument("--order", choices=tuple(_ORDER_FLAGS), default="asc",
                   help="sort direction (default: asc)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--out", default=None, help="output path (default: derived name in --out-dir)")
    group.add_argument("--out-dir", default=".", help="directory for the derived name (created if missing)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", parents=[out_dir, length, experiment],
                       help="run an experiment and write report JSON plus plot CSV")
    p.add_argument("--format", choices=("json", "table", "csv"), default="table",
                   help="stdout format; csv prints the plot CSV (default: table)")
    p.add_argument("--seeds", default=None, help="comma-separated subset of the config seeds")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[out_dir, formats, length, experiment],
                       help="rank every seed by mean relative error")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", parents=[formats, length],
                       help="normality and quartile report for a series or fixture")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", help="built-in fixture name")
    group.add_argument("--config", help="path to a config JSON document")
    group.add_argument("--series", help="CSV series file with an Ordered_Value column")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fixtures", parents=[formats], help="list built-in fixtures")
    p.set_defaults(func=cmd_fixtures)
    return parser


# Built once: in-process callers run main many times, and the tree holds ten parsers.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (DarlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NumericalDegeneracy):  # a DarlError, so tested first
            return 4
        return 2 if isinstance(exc, DarlError) else 3
