"""Workload inputs, generated from the workload seed.

Everything the program sees (argv, config and reference files) is a pure
function of ``(workload, seed)``. The workloads place the files under the
run's work directory, so the same seed gives byte-identical inputs in any
checkout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

FIXTURES = ("experiment-a", "experiment-b")
MODES = ("as-printed", "span-over-phi-r2")
FERMAT_SEEDS = (3, 5, 17, 257, 65537)

# Fixture series lengths (one value per centimetre of pipe); the stated input
# size of a fixture op is n x 5 seeds.
FIXTURE_N = {"experiment-a": 540, "experiment-b": 830}

SWEEP_CONFIGS = 8          # long-sweep cycle length, stratified over pipe length
SWEEP_LENGTH_M = (20.0, 100.0)
ROUNDTRIP_BLOCK = 16       # series-roundtrip ops per stratified block of n
ROUNDTRIP_N = (1000, 5000)


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(part) for part in (workload, seed, *salt)))


def fixture_run_cycle(seed: int) -> list[tuple[str, str]]:
    """The four (fixture, mode) pairs of the paper's protocol, each twice, seed-shuffled."""
    pairs = [(f, m) for f in FIXTURES for m in MODES] * 2
    _rng("fixture-run", seed).shuffle(pairs)
    return pairs


def cold_cli_cycle(seed: int) -> list[str]:
    """Each fixture four times, seed-shuffled."""
    names = list(FIXTURES) * 4
    _rng("cold-cli", seed).shuffle(names)
    return names


@dataclass(frozen=True)
class SweepInput:
    config: bytes       # config JSON document
    reference: bytes    # length_m,t_obs_c CSV
    n: int              # series length per seed


def sweep_inputs(seed: int) -> list[SweepInput]:
    """Long-pipe configs: one near the middle of each length stratum of
    20-100 m, seed-shuffled, so the cost mix is nearly the same for every seed.

    Every config uses all five Fermat seeds, 3-6 targets on a 0.1 m grid and
    boundary temperatures in the range of the two fixtures.
    """
    rng = _rng("long-sweep", seed)
    lo, hi = SWEEP_LENGTH_M
    width = (hi - lo) / SWEEP_CONFIGS
    strata = list(range(SWEEP_CONFIGS))
    rng.shuffle(strata)
    out = []
    for k in strata:
        length = round(lo + width * (k + 0.4 + 0.2 * rng.random()), 2)
        t_in = round(rng.uniform(29.0, 33.0), 2)
        t_end = round(t_in - rng.uniform(4.0, 8.0), 2)
        t_w = round(t_end - rng.uniform(0.2, 2.0), 2)
        decimetres = sorted(rng.sample(range(1, int(length * 10)), rng.randint(3, 6)))
        targets = [d / 10 for d in decimetres]
        config = {
            "t_in_c": t_in,
            "t_end_c": t_end,
            "t_w_c": t_w,
            "t_w_uncertainty_c": 0.09,
            "total_length_m": length,
            "target_lengths_m": targets,
            "seeds": list(FERMAT_SEEDS),
            "sort_order": rng.choice(("ascending", "descending")),
            "darl_mode": rng.choice(MODES),
        }
        rows = ["length_m,t_obs_c"]
        for x in targets:
            t_obs = t_in - (t_in - t_end) * x / length + rng.uniform(-0.3, 0.3)
            rows.append(f"{x},{t_obs:.2f}")
        out.append(SweepInput(
            config=(json.dumps(config, indent=2) + "\n").encode(),
            reference=("\n".join(rows) + "\n").encode(),
            n=int(round(100.0 * length)),
        ))
    return out


@dataclass(frozen=True)
class RoundtripInput:
    seed: int
    n: int
    t_min: str
    t_max: str
    order: str          # CLI flag value: asc or desc


def roundtrip_input(seed: int, index: int) -> RoundtripInput:
    """Op ``index`` of the series-roundtrip stream.

    Each block of ROUNDTRIP_BLOCK ops covers the n range in equal strata (in
    seed-shuffled order), so the op mix is the same for every seed. Generator
    seeds are fresh random 32-bit values, so they miss the seeded-state memo.
    """
    block, slot = divmod(index, ROUNDTRIP_BLOCK)
    strata = list(range(ROUNDTRIP_BLOCK))
    _rng("series-roundtrip", seed, block).shuffle(strata)
    rng = _rng("series-roundtrip", seed, block, slot)
    lo, hi = ROUNDTRIP_N
    width = (hi - lo) / ROUNDTRIP_BLOCK
    n = int(lo + width * (strata[slot] + rng.random()))
    t_min = rng.uniform(-10.0, 30.0)
    t_max = t_min + rng.uniform(0.5, 30.0)
    return RoundtripInput(
        seed=rng.getrandbits(32),
        n=n,
        t_min=f"{t_min:.3f}",
        t_max=f"{t_max:.3f}",
        order=rng.choice(("asc", "desc")),
    )
