#!/usr/bin/env python3
"""Print the sha256 of every replay log in a fixed matrix, one line per replay.

    python3 scripts/replay_digests.py > digests.txt

Each line reads `<workload> <generator seed> <run seed> <mode> <log sha256>`
(the generator seed is `-` for the shipped restaurant_41).  The matrix is
restaurant_41 at run seeds 0 and 3, and busy_floor and banquet from
`bench/gen.py` at generator seeds 0, 3, 11 and 42, each at run seeds 0 and 3,
every replay in both pipeline modes: 36 lines.  The program is imported from
the `src/` beside this script, so running the script in two checkouts and
diffing the output tells whether a change kept every replay log byte-identical.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
from waiterbot.formats import load_scenario  # noqa: E402
from waiterbot.sim import RunConfig, Simulation  # noqa: E402

GENERATOR_SEEDS = (0, 3, 11, 42)
RUN_SEEDS = (0, 3)
MODES = ("parallel", "sequential")


def digest(scenario_path: Path, run_seed: int, mode: str) -> str:
    _, log = Simulation(load_scenario(scenario_path), RunConfig(mode=mode, seed=run_seed)).run()
    return hashlib.sha256(("\n".join(log) + "\n").encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = [("restaurant_41", "-", ROOT / "scenarios" / "restaurant_41.json")]
        for workload in ("busy_floor", "banquet"):
            for seed in GENERATOR_SEEDS:
                path = gen.write(gen.GENERATORS[workload](seed), Path(tmp) / f"{workload}_{seed}")
                scenarios.append((workload, str(seed), path))
        for workload, gen_seed, path in scenarios:
            for run_seed in RUN_SEEDS:
                for mode in MODES:
                    print(workload, gen_seed, run_seed, mode, digest(path, run_seed, mode), flush=True)


if __name__ == "__main__":
    main()
