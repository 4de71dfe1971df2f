"""A seeded corpus of ``darl`` commands and their pinned outcomes: the one place a command's bytes are pinned.

Each corpus entry runs its commands in process, one after another, in an empty
directory that holds only its input files. It is reduced to one sha256 over each
command's exit code, stdout and stderr without the ``wall_time_s=`` line, then
every file in the directory afterwards. ``cli_corpus.json`` pins one digest per
entry; ``test_cli_corpus.py`` replays them. All five subcommands are covered:
40 random configs through ``run`` and ``sweep`` (n from 500 to 10,000), both
predictor modes and sort orders, ``--seeds`` subsets, the two fixtures, inputs
that end in exit 2, 3 and 4, and the hand-written ``generate``, ``validate``,
``fixtures``, ``run`` and ``sweep`` commands whose stdout the fixture reports,
the tables and the 60 m pipe used to pin one by one.

Regenerating the manifest is the one re-pin step after a change that moves
output bytes on purpose:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from darl.cli import main
from darl.prng import KNOWN_FERMAT_PRIMES

MANIFEST = Path(__file__).with_name("cli_corpus.json")
# (name, the argv of each command run in turn, input files by name)
Entry = tuple[str, list[list[str]], dict[str, str]]
CORPUS_SEED = 2008
CONFIG_COUNT = 40


def _random_config(rng: random.Random, index: int) -> tuple[dict, str | None]:
    """A valid config document and, for most configs, a reference CSV over its targets."""
    # a third from 500 to 1,199 values, the size of the fixtures' series, the rest up to 10,000
    n = rng.randint(500, 1_199) if index % 3 == 0 else rng.randint(1_200, 10_000)
    t_end = round(rng.uniform(18.0, 28.0), 2)
    t_in = round(t_end + rng.uniform(1.0, 8.0), 2)
    if rng.random() < 0.5:  # one value per centimetre
        length, n_override = n / 100, None
    else:
        length, n_override = round(rng.uniform(5.0, 100.0), 2), n
    targets = sorted({round(length * rng.uniform(0.05, 0.95), 2) for _ in range(rng.randint(1, 4))})
    config = {
        "t_in_c": t_in,
        "t_end_c": t_end,
        "t_w_c": round(t_end - rng.uniform(0.5, 3.0), 2),
        "t_w_uncertainty_c": round(rng.uniform(0.0, 0.2), 2),
        "total_length_m": length,
        "target_lengths_m": targets,
        "seeds": rng.sample(KNOWN_FERMAT_PRIMES, rng.randint(1, 5)),
        "n_override": n_override,
        "sort_order": rng.choice(("ascending", "descending")),
        "darl_mode": rng.choice(("as-printed", "span-over-phi-r2")),
    }
    if rng.random() < 0.2:
        return config, None
    rows = "".join(f"{x},{round(rng.uniform(t_end, t_in), 2)}\n" for x in targets)
    return config, "length_m,t_obs_c\n" + rows


def _config_commands(rng: random.Random, index: int) -> list[Entry]:
    config, reference = _random_config(rng, index)
    name = f"c{index:02d}"
    files = {f"{name}.json": json.dumps(config)}
    base = ["--config", f"{name}.json", "--out-dir", "out"]
    if reference is not None:
        files[f"{name}-ref.csv"] = reference
        base += ["--reference", f"{name}-ref.csv"]
    subset = ",".join(map(str, rng.sample(config["seeds"], rng.randint(1, len(config["seeds"])))))
    other_order = "desc" if config["sort_order"] == "ascending" else "asc"
    other_mode = "span-over-phi-r2" if config["darl_mode"] == "as-printed" else "as-printed"
    commands = [
        ("run-json", ["run", *base, "--format", "json"]),
        ("run-seeds", ["run", *base, "--format", rng.choice(("table", "csv")), "--seeds", subset]),
        ("run-order-mode", ["run", *base, "--format", "json", "--sort-order", other_order,
                            "--darl-mode", other_mode]),
    ]
    mode_flag = rng.choice(([], ["--darl-mode", other_mode]))
    if reference is not None:
        commands.append(("sweep", ["sweep", *base, "--format", rng.choice(("json", "table")), *mode_flag]))
    else:
        commands.append(("run-table", ["run", *base, *mode_flag]))
    return [(f"{name}-{label}", [argv], files) for label, argv in commands]


def _fixture_commands(rng: random.Random) -> list[Entry]:
    commands = []
    for fixture in ("experiment-a", "experiment-b"):
        tag = fixture[-1]
        base = ["--fixture", fixture, "--out-dir", "out"]
        for mode in ("as-printed", "span-over-phi-r2"):
            for fmt in ("json", "table", "csv"):
                commands.append((f"{tag}-run-{mode}-{fmt}", ["run", *base, "--darl-mode", mode, "--format", fmt]))
            commands.append((f"{tag}-sweep-{mode}", ["sweep", *base, "--darl-mode", mode, "--format", "json"]))
        subset = ",".join(map(str, rng.sample(KNOWN_FERMAT_PRIMES, 2)))
        commands += [
            (f"{tag}-run-seeds", ["run", *base, "--seeds", subset, "--format", "json"]),
            (f"{tag}-run-asc", ["run", *base, "--sort-order", "asc", "--format", "json"]),
            (f"{tag}-run-n-1100", ["run", *base, "--n-override", "1100", "--format", "json"]),
            (f"{tag}-run-n-4000", ["run", *base, "--n-override", "4000", "--format", "csv"]),
            (f"{tag}-sweep-n-2500-asc", ["sweep", *base, "--n-override", "2500", "--sort-order", "asc"]),
        ]
    return [(f"fixture-{label}", [argv], {}) for label, argv in commands]


def _refused_commands() -> list[Entry]:
    """Inputs that end in exit 2 (usage or validation), 3 (I/O) and 4 (numerical degeneracy)."""
    valid = {"t_in_c": 31.01, "t_end_c": 25.81, "t_w_c": 24.28, "total_length_m": 60.0,
             "target_lengths_m": [10.0, 30.0]}
    reference = "length_m,t_obs_c\n10.0,28.8\n30.0,27.37\n"

    def config(**changes) -> dict[str, str]:
        return {"c.json": json.dumps({**valid, **changes}), "ref.csv": reference}

    run = ["run", "--config", "c.json", "--out-dir", "out"]
    commands = [
        ("exit2-seeds-not-subset", [*run, "--seeds", "3,4"], config(seeds=[3, 5])),
        ("exit2-seeds-separator", [*run, "--seeds", "1_7"], config()),
        ("exit2-bounds-reversed", run, config(t_in_c=20.0)),
        ("exit2-target-outside", run, config(target_lengths_m=[70.0])),
        ("exit2-n-override-1", [*run, "--n-override", "1"], config()),
        ("exit2-missing-reference-row", [*run, "--reference", "ref.csv"],
         config(target_lengths_m=[10.0, 20.0])),
        ("exit2-sweep-without-reference", ["sweep", "--config", "c.json", "--out-dir", "out"], config()),
        ("exit2-unknown-fixture", ["run", "--fixture", "experiment-c", "--out-dir", "out"], {}),
        ("exit3-missing-config", ["run", "--config", "absent.json", "--out-dir", "out"], {}),
        ("exit3-missing-reference", [*run, "--reference", "absent.csv"], config()),
        ("exit3-out-dir-is-a-file", run, {**config(), "out": "a file\n"}),
        # a 1e-300 degree span: every seed's y variance underflows, in the exact sums of 6,000 terms
        ("exit4-flat-series", run, config(t_in_c=1e-300, t_end_c=0.0, t_w_c=0.0)),
        ("exit4-flat-series-sweep", ["sweep", "--config", "c.json", "--reference", "ref.csv",
                                     "--out-dir", "out"], config(t_in_c=1e-300, t_end_c=0.0, t_w_c=0.0)),
        ("exit4-near-zero-observation", [*run, "--reference", "ref.csv"],
         {**config(), "ref.csv": "length_m,t_obs_c\n10.0,1e-310\n30.0,27.37\n"}),
    ]
    return [(f"refused-{label}", [argv], files) for label, argv, files in commands]


def _hand_written_commands() -> list[Entry]:
    """``generate``, ``validate``, ``fixtures``, and the fixture and config commands that print tables.

    Without ``--out-dir`` a command writes its artifacts beside its inputs. A config's stem is
    its report's ``source``, and a series file's name is in ``validate``'s output.
    """
    config = {"t_in_c": 31.01, "t_end_c": 25.81, "t_w_c": 24.28, "t_w_uncertainty_c": 0.09,
              "total_length_m": 5.4, "target_lengths_m": [2.5, 3.4, 4.4], "seeds": [3, 5, 17, 257, 65537],
              "n_override": None, "sort_order": "descending", "darl_mode": "as-printed"}
    reference = "length_m,t_obs_c\n2.5,28.8\n3.4,27.37\n4.4,26.67\n"
    custom = {"custom.json": json.dumps(config), "reference.csv": reference}
    # a 60 m pipe, n = 6,000 per seed: the fit's exact sums take one certified extraction level
    long = {"long.json": json.dumps({**config, "total_length_m": 60.0}), "reference.csv": reference}
    series = ["generate", "--seed", "5", "--n", "538", "--min", "25.81", "--max", "31.01", "--out", "series.csv"]
    # the n = 5,000 series at the benchmark's scale, read back in one batch
    series5000 = ["generate", "--seed", "3", "--n", "5000", "--min", "24", "--max", "31", "--order", "desc",
                  "--out", "series5000.csv"]
    commands = [
        ("run-a-n-override-2", [["run", "--fixture", "experiment-a", "--n-override", "2"]], {}),
        ("sweep-a-table", [["sweep", "--fixture", "experiment-a"]], {}),
        ("sweep-b-table", [["sweep", "--fixture", "experiment-b"]], {}),
        ("run-config-table", [["run", "--config", "custom.json"]], custom),
        ("run-config-reference-json",
         [["run", "--config", "custom.json", "--reference", "reference.csv", "--format", "json"]], custom),
        ("run-config-reference-table", [["run", "--config", "custom.json", "--reference", "reference.csv"]], custom),
        ("sweep-config-60m-json",
         [["sweep", "--config", "long.json", "--reference", "reference.csv", "--format", "json"]], long),
        ("run-config-60m-json", [["run", "--config", "long.json", "--format", "json"]], long),
        ("generate-series", [series], {}),
        ("generate-series-5000", [series5000], {}),
        # the n = 4 Shapiro-Wilk weights themselves: W = 1, the one series here whose normality is not rejected
        ("validate-w-one-table", [["validate", "--series", "w-one.csv"]], {"w-one.csv": "Ordered_Value\n"
         "-0.687264285908471\n-0.166336410069231\n0.166336410069231\n0.687264285908471\n"}),
    ]
    for fmt, flag in (("json", ["--format", "json"]), ("table", [])):
        commands += [
            *[(f"validate-{fixture[-1]}-{fmt}", [["validate", "--fixture", fixture, *flag]], {})
              for fixture in ("experiment-a", "experiment-b")],
            (f"validate-series-{fmt}", [series, ["validate", "--series", "series.csv", *flag]], {}),
            (f"validate-series-5000-{fmt}", [series5000, ["validate", "--series", "series5000.csv", *flag]], {}),
            (f"fixtures-{fmt}", [["fixtures", *flag]], {}),
        ]
    return commands


def corpus_commands() -> list[Entry]:
    """One entry per pinned outcome, the same on every call; the random draws come first."""
    rng = random.Random(CORPUS_SEED)
    commands = [c for index in range(CONFIG_COUNT) for c in _config_commands(rng, index)]
    return commands + _fixture_commands(rng) + _refused_commands() + _hand_written_commands()


def outcome_parts(argvs: list[list[str]], files: dict[str, str], directory: Path) -> list[tuple[str, bytes]]:
    """Run ``main`` on each argv in ``directory`` after writing ``files`` there; what they did, part by part."""
    for name, text in files.items():
        (directory / name).write_text(text)
    parts = []
    previous = os.getcwd()
    os.chdir(directory)
    try:
        for argv in argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = "".join(line for line in stderr.getvalue().splitlines(keepends=True)
                          if not line.startswith("wall_time_s="))
            parts += [("exit", str(code).encode()), ("stdout", stdout.getvalue().encode()),
                      ("stderr", err.encode())]
    finally:
        os.chdir(previous)
    return parts + sorted((path.relative_to(directory).as_posix(), path.read_bytes())
                          for path in directory.rglob("*") if path.is_file())


def parts_digest(parts: list[tuple[str, bytes]]) -> str:
    digest = hashlib.sha256()
    for label, data in parts:
        digest.update(f"{label} {len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


def outcome_digest(argvs: list[list[str]], files: dict[str, str], directory: Path) -> str:
    """The sha256 of what ``outcome_parts`` ran."""
    return parts_digest(outcome_parts(argvs, files, directory))


def regenerate() -> None:
    """Replay every entry in a fresh directory and rewrite the manifest."""
    digests = {}
    with tempfile.TemporaryDirectory() as root:
        for number, (name, argvs, files) in enumerate(corpus_commands()):
            directory = Path(root, str(number))
            directory.mkdir()
            digests[name] = outcome_digest(argvs, files, directory)
    MANIFEST.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {MANIFEST.name}: {len(digests)} entries", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
