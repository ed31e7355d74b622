#!/usr/bin/env python3
"""Run the shipped 41-order restaurant workload and print the metrics block.

Equivalent to:  waiterbot run --scenario scenarios/restaurant_41.json
"""

import argparse
import time
from pathlib import Path

from waiterbot.sim import RunConfig, Simulation, load_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("parallel", "sequential"), default="parallel")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--log", default=None, help="write the event log here")
    args = parser.parse_args()

    scenario = load_scenario(REPO_ROOT / "scenarios" / "restaurant_41.json")
    t0 = time.perf_counter()
    metrics, log = Simulation(scenario, RunConfig(mode=args.mode, seed=args.seed)).run()
    elapsed = time.perf_counter() - t0
    if args.log:
        Path(args.log).write_text("\n".join(log) + "\n")
    print(metrics.render())
    print(f"runtime          {elapsed:.2f}s")


if __name__ == "__main__":
    main()
