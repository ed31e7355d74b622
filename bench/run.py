#!/usr/bin/env python3
"""waiterbot benchmark: replays a workload through `waiterbot.sim` and reports
call-level metrics, or per-layer metrics with `--trace 1`.

    python3 bench/run.py --workload restaurant_41 --seed 0 --seconds 35 --trace 0

Run it from a checkout: it imports the program from the checkout's `src/`.
The load is a closed loop with one caller: each replay feeds the scenario's
events to `Simulation.run()` as fast as the host allows, and replays repeat
until `--seconds` have passed.  Host times are rescaled to a reference host
speed by probes run between the calls (see bench/pace.py).  Before timing,
one warm-up replay runs and is checked against the workload's scripted
aggregates; every timed replay must then produce the same log bytes.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUPS_PER_REPLAY = 3
# call_tail_ms: the highest of these percentiles with TAIL_BEYOND samples above it
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
E2E_UNITS = {"setup_s": "s", "calls_per_s": "1/s", "call_p50_ms": "ms", "call_tail_ms": "ms",
             "peak_rss_mb": "MB", "served_accuracy": "ratio", "travel_steps_per_call": "steps"}
LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_ms": "ms", "matched_ratio": "ratio",
               "no_goal": "count", "steps": "steps", "unreachable": "count", "log_bytes": "bytes",
               "points": "count", "inlier_ratio": "ratio", "no_space": "count", "recoveries": "count"}

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402

RESTAURANT_41 = {
    "calls": 44,
    "tasks": None,
    "metrics": {"orders_total": 41, "served_correct": 37, "served_incorrect": 4,
                "assisted": 7, "collisions": 0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # pipeline mode

    def prepare(self, seed: int, tmp: Path) -> tuple[Path, dict]:
        """Scenario path and the aggregates its replay must report."""
        if self.name == "restaurant_41":
            return ROOT / "scenarios" / "restaurant_41.json", RESTAURANT_41
        generated = gen.GENERATORS[self.name](seed)
        return gen.write(generated, tmp), generated.expect


# why each workload is there: see BENCHMARK.json and bench/README.md
WORKLOADS = {w.name: w for w in (
    Workload("restaurant_41", "parallel"),
    Workload("busy_floor", "parallel"),
    Workload("banquet", "sequential"),
)}


class CallLog(list):
    """Replay log that timestamps the records bounding each customer call.

    `call` is appended just before the approach navigate starts; `task_done`,
    `call_abandoned` or `no_utterance` just after the call's last step ends.
    With a pacer, a probe runs before each start and after each end, outside
    the call.
    """

    START = '{"event": "call", '
    ENDS = ('{"event": "task_done", ', '{"event": "call_abandoned", ', '{"event": "no_utterance", ')

    def __init__(self, recorder: spans.Recorder | None = None, pacer: pace.Pacer | None = None) -> None:
        super().__init__()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.recorder = recorder
        self.pacer = pacer

    def append(self, line: str) -> None:
        super().append(line)
        if line.startswith(self.START):
            if self.pacer is not None:
                self.pacer.probe()
            self.starts.append(perf_counter())
            if self.recorder is not None:
                self.recorder.call = len(self.starts)
        elif line.startswith(self.ENDS):
            self.ends.append(perf_counter())
            if self.pacer is not None:
                self.pacer.probe()
            if self.recorder is not None:
                self.recorder.call = None


@dataclass
class Replay:
    seconds: float  # host seconds of run(); at reference speed when paced
    latencies: list[float]  # per call, likewise
    host_seconds: float
    host_latencies: list[float]
    log_bytes: bytes
    metrics: dict
    calls: int
    failed: int
    tasks: list[str]
    steps: int


def replay(sim_mod, scenario, workload: Workload, recorder: spans.Recorder | None = None,
           pacer: pace.Pacer | None = None) -> Replay:
    sim = sim_mod.Simulation(scenario, sim_mod.RunConfig(mode=workload.mode, seed=0))
    log = sim.log = CallLog(recorder, pacer)
    gc.collect()
    t0 = perf_counter()
    metrics, lines = sim.run()
    t1 = perf_counter()
    records = [json.loads(line) for line in lines]
    events = [r["event"] for r in records]
    calls = events.count("call")
    failed = (events.count("call_abandoned") + events.count("no_utterance")
              + sum(1 for r in records if r["event"] == "task_done" and r["outcome"] == "FAILED"))
    if not (len(log.starts) == len(log.ends) == calls):
        raise RuntimeError(f"call boundaries: {len(log.starts)} starts, {len(log.ends)} ends, {calls} calls")
    intervals = list(zip(log.starts, log.ends))
    host_latencies = [e - s for s, e in intervals]
    # the probes are benchmark work: host_seconds leaves them out too
    probe_s = sum(d for s, d in zip(pacer.starts, pacer.durations) if t0 <= s < t1) if pacer else 0.0
    return Replay(
        seconds=pacer.scale_span(t0, t1) if pacer else t1 - t0,
        latencies=[pacer.scale(s, e) for s, e in intervals] if pacer else host_latencies,
        host_seconds=t1 - t0 - probe_s,
        host_latencies=host_latencies,
        log_bytes=("\n".join(lines) + "\n").encode(),
        metrics={k: getattr(metrics, k) for k in RESTAURANT_41["metrics"]},
        calls=calls,
        failed=failed,
        tasks=[r["task"] for r in records if r["event"] == "handled"],
        steps=sum(r["steps"] for r in records if r["event"] == "navigate"),
    )


def calls_per_s(replays: list[Replay], host: bool = False) -> float:
    """Completed calls per second of Simulation.run(), pooled over replays."""
    seconds = sum(r.host_seconds if host else r.seconds for r in replays)
    return sum(r.calls - r.failed for r in replays) / seconds


def check(first: Replay, expect: dict) -> list[str]:
    """Differences between a replay and the scripted aggregates."""
    problems = []
    if first.metrics != expect["metrics"]:
        problems.append(f"metrics {first.metrics} != scripted {expect['metrics']}")
    if first.calls != expect["calls"]:
        problems.append(f"{first.calls} calls, scripted {expect['calls']}")
    if first.failed:
        problems.append(f"{first.failed} calls failed")
    if expect["tasks"] is not None and first.tasks != expect["tasks"]:
        problems.append("understood tasks differ from the script")
    return problems


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES whose nearest-rank
    value has at least `beyond` samples above its rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= beyond:
            return pct, ordered[rank - 1]
    raise ValueError(f"{n} samples leave fewer than {beyond} beyond every percentile")


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def time_setup(sim_mod, scenario_path: Path, workload: Workload,
               recorder: spans.Recorder | None = None, pacer: pace.Pacer | None = None) -> tuple[float, float]:
    """Seconds for load_scenario plus Simulation construction, as (reported,
    host): at reference speed when paced.  Traced into `recorder`."""
    hooks = spans.install(recorder) if recorder is not None else None
    gc.collect()
    try:
        if pacer is not None:
            pacer.probe()
        t0 = perf_counter()
        scenario = sim_mod.load_scenario(scenario_path)
        sim_mod.Simulation(scenario, sim_mod.RunConfig(mode=workload.mode, seed=0))
        t1 = perf_counter()
        if pacer is None:
            return t1 - t0, t1 - t0
        pacer.probe()
        return pacer.scale(t0, t1), t1 - t0
    finally:
        if hooks is not None:
            hooks.uninstall()


def traced_replay(sim_mod, scenario, workload: Workload) -> tuple[Replay, list[spans.Span], list[str]]:
    """A replay with every layer hook installed: (replay, spans, missing layers)."""
    recorder = spans.Recorder()
    hooks = spans.install(recorder)
    try:
        return replay(sim_mod, scenario, workload, recorder), recorder.spans, hooks.missing
    finally:
        hooks.uninstall()


def import_program():
    """`waiterbot.sim` from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "waiterbot" / "sim.py").is_file():
        print(f"error: {SRC / 'waiterbot' / 'sim.py'} not found; run from a waiterbot checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import waiterbot.sim as sim_mod

    if Path(sim_mod.__file__).resolve().parent != (SRC / "waiterbot").resolve():
        print(f"error: imported {sim_mod.__file__}, not the checkout's", file=sys.stderr)
        sys.exit(2)
    return sim_mod


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    sim_mod = import_program()

    WORK_DIR.mkdir(exist_ok=True)
    setups: list[float] = []
    host_setups: list[float] = []
    pacer = None if args.trace else pace.Pacer()
    setup_stats: list[dict[str, spans.LayerStats]] = []
    untraced: list[Replay] = []
    traced: list[tuple[Replay, list[spans.Span]]] = []
    missing: list[str] = []
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        scenario_path, expect = workload.prepare(args.seed, Path(tmp))
        scenario = sim_mod.load_scenario(scenario_path)
        reference = replay(sim_mod, scenario, workload)  # warm-up; every replay must repeat its log
        problems = check(reference, expect)
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or len(untraced) + len(traced) < 2:
            # set-ups are spread over the run so that their median sees the
            # same host conditions as the replays
            for _ in range(SETUPS_PER_REPLAY):
                recorder = spans.Recorder() if args.trace else None
                setup, host_setup = time_setup(sim_mod, scenario_path, workload, recorder, pacer)
                setups.append(setup)
                host_setups.append(host_setup)
                if recorder is not None:
                    setup_stats.append(spans.summarize(recorder.spans))
            if args.trace and len(traced) <= len(untraced):
                r, replay_spans, missing = traced_replay(sim_mod, scenario, workload)
                traced.append((r, replay_spans))
            else:
                r = replay(sim_mod, scenario, workload, pacer=pacer)
                untraced.append(r)
            if r.log_bytes != reference.log_bytes:
                problems.append(f"replay {len(untraced) + len(traced)} log differs from the first")

    correct = not problems
    timed = untraced or [r for r, _ in traced]
    attempted = sum(r.calls for r in timed)
    failed = attempted if not correct else sum(r.failed for r in timed)
    info = {
        "workload": workload.name,
        "mode": workload.mode,
        "seed": args.seed,
        "replays": len(timed),
        "log_sha256": hashlib.sha256(reference.log_bytes).hexdigest(),
        "call_fail_ratio": failed / attempted,
        "problems": problems,
        "env": environment(),
    }
    if args.trace:
        metrics, units = trace_metrics(workload, args.seed, setup_stats, traced, untraced, missing, info)
    else:
        latencies = [x for r in untraced for x in r.latencies]
        pct, tail_value = tail(latencies)
        host_latencies = [x for r in untraced for x in r.host_latencies]
        info.update(call_samples=len(latencies), call_tail_percentile=round(pct, 3),
                    reference_probe_s=pace.REFERENCE_S, probe_median_s=statistics.median(pacer.durations),
                    host={"setup_s": statistics.median(host_setups),
                          "calls_per_s": calls_per_s(untraced, host=True),
                          "call_p50_ms": statistics.median(host_latencies) * 1e3,
                          "call_tail_ms": tail(host_latencies)[1] * 1e3})
        metrics = {
            "setup_s": statistics.median(setups),
            "calls_per_s": calls_per_s(untraced),
            "call_p50_ms": statistics.median(latencies) * 1e3,
            "call_tail_ms": tail_value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "served_accuracy": reference.metrics["served_correct"] / reference.metrics["orders_total"],
            "travel_steps_per_call": reference.steps / reference.calls,
        }
        units = E2E_UNITS

    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def trace_metrics(workload: Workload, seed: int, setup_stats: list,
                  traced: list, untraced: list[Replay], missing: list[str], info: dict):
    """Per-layer metrics from the traced replays, plus the tracing slowdown."""
    replay_stats = [spans.summarize(s) for _, s in traced]
    metrics = spans.layer_metrics(setup_stats, replay_stats, missing)
    units = {k: LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
    traced_cps = calls_per_s([r for r, _ in traced])
    untraced_cps = calls_per_s(untraced) if untraced else traced_cps
    metrics["trace.slowdown"] = untraced_cps / traced_cps
    units["trace.slowdown"] = "ratio"
    # self times of all spans of a replay, as a share of its run() span
    coverage = []
    for _, replay_spans in traced:
        selfs = spans.self_times(replay_spans)
        run_span = [s for s in replay_spans if s.name == "sim.run"]
        if run_span:
            coverage.append(sum(selfs.values()) / (run_span[0].end - run_span[0].start))
    out = WORK_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    spans.write_jsonl(out, [s for _, s in traced])
    info.update(traced_replays=len(traced), untraced_replays=len(untraced),
                traced_calls_per_s=traced_cps, untraced_calls_per_s=untraced_cps,
                self_time_coverage=[round(c, 6) for c in coverage], missing_layers=missing,
                spans_jsonl=str(out.relative_to(ROOT)))
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())
