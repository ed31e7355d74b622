"""Span recorder and layer hooks for the traced benchmark run.

The hooks wrap public functions and methods of the `waiterbot` modules from
outside the program: a wrapped call opens a span (name, start, end, parent,
call id, counters) and closes it when the call returns or raises.  Spans stay
in memory; `write_jsonl` dumps them when the run ends.  A hook whose target no
longer exists is reported as missing instead of failing the run, and
`uninstall` puts every original back, so untraced replays run unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

PACKAGE = "waiterbot"
SKILL_KINDS = ("navigate", "detect", "grasp", "hand_over", "find_placement", "place", "speak")


@dataclass
class Span:
    id: int
    parent: int | None
    call: int | None
    name: str
    start: float
    end: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Collects spans from every thread; one recorder per traced replay.

    A span opened in a thread with no open span of its own (the pipeline's
    worker threads) takes the innermost open span of the creating thread as
    its parent: that thread is blocked in the call that started the workers.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call: int | None = None  # id of the customer call in progress
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent_stack = stack or self._owner_stack
        parent = parent_stack[-1].id if parent_stack else None
        with self._lock:
            span = Span(next(self._ids), parent, self.call, name, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()


# --- counters read at the layer boundary --------------------------------------
# Each takes (args, result, exception) and returns the counters of one call.

def _raised(name: str, counter: str):
    def read(args, result, exc) -> dict[str, int]:
        return {counter: int(exc is not None and type(exc).__name__ == name)}
    return read


def _track_frame(args, result, exc) -> dict[str, int]:
    if exc is not None:
        return {"detections": len(args[1]), "matched": 0}
    matched = sum(1 for _, status in result if getattr(status, "name", "") == "MATCHED")
    return {"detections": len(result), "matched": matched}


def _plan_path(args, result, exc) -> dict[str, int]:
    if exc is not None:
        return {"steps": 0, "unreachable": int(type(exc).__name__ == "PathError")}
    return {"steps": len(result) - 1, "unreachable": 0}


def _ransac(args, result, exc) -> dict[str, int]:
    return {"points": len(args[0]), "inliers": 0 if exc is not None else len(result[1])}


def _execute(args, result, exc) -> dict[str, int]:
    return {"recoveries": 0 if exc is not None else len(result.help_messages)}


def _run(args, result, exc) -> dict[str, int]:
    if exc is not None:
        return {"log_bytes": 0}
    return {"log_bytes": sum(len(line.encode()) + 1 for line in result[1])}


def _skill_kind(args) -> str:
    return getattr(args[1], "kind", "unknown")


@dataclass(frozen=True)
class Hook:
    """One wrapped public name: `module.attr` or `module.Class.method`."""

    layer: str  # span name and metric prefix
    module: str
    attr: str
    counters: Callable | None = None
    suffix: Callable | None = None  # appends a per-call part to the span name


HOOKS = (
    Hook("grid.load_grid", "grid", "load_grid"),
    Hook("grid.inflate", "grid", "inflate"),
    Hook("furniture.track_frame", "furniture", "FurnitureLayer.track_frame", _track_frame),
    Hook("furniture.virtual_obstacles", "furniture", "FurnitureLayer.virtual_obstacles"),
    Hook("navgoal.select_goal", "navgoal", "select_goal", _raised("NoGoalError", "no_goal")),
    Hook("sim.plan_path", "sim", "plan_path", _plan_path),
    Hook("sim.Simulation.simulate_skill", "sim", "Simulation.simulate_skill", suffix=_skill_kind),
    Hook("sim.run", "sim", "Simulation.run", _run),
    Hook("placement.ransac_plane", "placement", "ransac_plane", _ransac),
    Hook("placement.find_placement", "placement", "find_placement",
         _raised("NoSpaceError", "no_space")),
    Hook("tasks.Pipeline.handle", "tasks", "Pipeline.handle"),
    Hook("tasks.execute", "tasks", "execute", _execute),
    Hook("llm.RuleBackend.understand", "llm", "RuleBackend.understand"),
    Hook("llm.RuleBackend.respond", "llm", "RuleBackend.respond"),
    Hook("semantic.HumanLayer.upsert", "semantic", "HumanLayer.upsert"),
)


def _wrap(recorder: Recorder, hook: Hook, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = hook.layer if hook.suffix is None else f"{hook.layer}.{hook.suffix(args)}"
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            recorder.close(span)
            if hook.counters is not None:
                span.counters = hook.counters(args, None, exc)
            raise
        recorder.close(span)
        if hook.counters is not None:
            span.counters = hook.counters(args, result, None)
        return result
    return traced


class Installed:
    """Hooks in place; `uninstall` restores every patched attribute."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def install(recorder: Recorder, hooks=HOOKS) -> Installed:
    """Wrap every hook target; absent targets are listed in `.missing`."""
    done = Installed()
    for hook in hooks:
        try:
            module = importlib.import_module(f"{PACKAGE}.{hook.module}")
        except ImportError:
            done.missing.append(hook.layer)
            continue
        owner_name, _, attr = hook.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            done.missing.append(hook.layer)
            continue
        wrapper = _wrap(recorder, hook, original)
        done._patch(owner, attr, wrapper)
        if owner is module:
            # `from .grid import inflate` binds the function in other modules too
            for mod_name, mod in list(sys.modules.items()):
                if mod is module or not mod_name.startswith(PACKAGE + "."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        done._patch(mod, name, wrapper)
    return done


# --- analysis -----------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c.end, s.end))
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: call count, summed self time, durations, summed counters."""
    selfs = self_times(spans)
    out: dict[str, LayerStats] = {}
    for s in spans:
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.self_s += selfs[s.id]
        st.durations.append(s.end - s.start)
        for k, v in s.counters.items():
            st.counters[k] = st.counters.get(k, 0) + v
    return out


def _timing(layer: str, runs: list[dict[str, LayerStats]], self_name: str = "s") -> dict[str, float]:
    """calls, self time and p50 duration of one layer; medians over runs."""
    stats = [r.get(layer, LayerStats()) for r in runs]
    durations = [d for st in stats for d in st.durations]
    return {
        f"{layer}.calls": statistics.median(st.calls for st in stats),
        f"{layer}.{self_name}": statistics.median(st.self_s for st in stats),
        f"{layer}.p50_ms": statistics.median(durations) * 1e3 if durations else 0.0,
    }


def _counter(layer: str, name: str, runs: list[dict[str, LayerStats]]) -> float:
    return statistics.median(r.get(layer, LayerStats()).counters.get(name, 0) for r in runs)


def _ratio(layer: str, num: str, den: str, runs: list[dict[str, LayerStats]]) -> float:
    n = sum(r.get(layer, LayerStats()).counters.get(num, 0) for r in runs)
    d = sum(r.get(layer, LayerStats()).counters.get(den, 0) for r in runs)
    return n / d if d else 0.0


def layer_metrics(setups: list[dict[str, LayerStats]], replays: list[dict[str, LayerStats]],
                  missing: list[str]) -> dict[str, float]:
    """Every per-layer metric, as name -> value; layers in `missing` are left out.

    `setups` summarize traced set-ups (grid parsing happens there), `replays`
    traced replays.  Times and counts are per set-up or per replay (median).
    """
    m: dict[str, float] = {}
    m.update(_timing("grid.load_grid", setups))
    m.update(_timing("grid.inflate", replays))
    m.update(_timing("furniture.track_frame", replays))
    m["furniture.track_frame.matched_ratio"] = _ratio(
        "furniture.track_frame", "matched", "detections", replays)
    m.update(_timing("furniture.virtual_obstacles", replays))
    m.update(_timing("navgoal.select_goal", replays))
    m["navgoal.select_goal.no_goal"] = _counter("navgoal.select_goal", "no_goal", replays)
    m.update(_timing("sim.plan_path", replays))
    m["sim.plan_path.steps"] = _counter("sim.plan_path", "steps", replays)
    m["sim.plan_path.unreachable"] = _counter("sim.plan_path", "unreachable", replays)
    for kind in SKILL_KINDS:
        m.update(_timing(f"sim.Simulation.simulate_skill.{kind}", replays))
    m["sim.run.self_s"] = statistics.median(r.get("sim.run", LayerStats()).self_s for r in replays)
    m["sim.run.log_bytes"] = _counter("sim.run", "log_bytes", replays)
    m.update(_timing("placement.ransac_plane", replays))
    m["placement.ransac_plane.points"] = _counter("placement.ransac_plane", "points", replays)
    m["placement.ransac_plane.inlier_ratio"] = _ratio(
        "placement.ransac_plane", "inliers", "points", replays)
    m.update(_timing("placement.find_placement", replays))
    m["placement.find_placement.no_space"] = _counter("placement.find_placement", "no_space", replays)
    m.update(_timing("tasks.Pipeline.handle", replays))
    execute = _timing("tasks.execute", replays, self_name="self_s")
    m["tasks.execute.self_s"] = execute["tasks.execute.self_s"]
    m["tasks.execute.recoveries"] = _counter("tasks.execute", "recoveries", replays)
    m.update(_timing("llm.RuleBackend.understand", replays))
    m.update(_timing("llm.RuleBackend.respond", replays))
    m.update(_timing("semantic.HumanLayer.upsert", replays))
    return {k: v for k, v in m.items() if not any(k.startswith(layer + ".") for layer in missing)}


def write_jsonl(path, replays: list[list[Span]]) -> None:
    """One JSON object per span; `replay` numbers the traced replay it came from."""
    with open(path, "w") as f:
        for i, spans in enumerate(replays):
            for s in spans:
                f.write(json.dumps({
                    "replay": i, "id": s.id, "parent": s.parent, "call": s.call, "name": s.name,
                    "start": s.start, "end": s.end, "counters": s.counters,
                }, sort_keys=True) + "\n")
