"""Discrete-event restaurant simulator.

Replays a scripted event stream (furniture detections, human observations,
table calls, utterances, skill faults) through the full stack: layered map,
risk-field navigation goals, grid path planning, the understand/respond
pipeline and the task executor with simulated skills.  Runs are fully
deterministic for a fixed seed; the emitted line log is byte-stable so two
replays can be diffed directly.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .furniture import FurnitureInstance, FurnitureLayer, FurnitureNotFound, detections_from_json
from .geometry import Pose2D
from .grid import (RISK_MAX, BoundsError, CellIndex, GridFormatError, GridMap, RiskField, inflate,
                   load_grid, world_to_cell)
from .llm import Menu, RuleBackend
from .navgoal import NavGoalParams, NoGoalError, select_goal
from .placement import PlacementError, RansacParams, find_placement, ransac_plane
from .semantic import ACTIONS, HumanObservation, HumanLayer, Zone
from .tasks import (
    OK,
    SKILL_KINDS,
    Outcome,
    ParsedTask,
    Pipeline,
    Registry,
    SkillInvocation,
    SkillResult,
    default_registry,
    execute,
    failed,
)

SQRT2 = math.sqrt(2.0)

EVENT_TYPES = ("detections", "human", "call", "utterance", "fault")


class ScenarioError(Exception):
    pass


class PathError(Exception):
    """Start/goal inadmissible or no traversable path."""


@dataclass(frozen=True)
class RunConfig:
    mode: str = "parallel"  # pipeline mode
    seed: int = 0


@dataclass
class Metrics:
    orders_total: int = 0
    served_correct: int = 0
    served_incorrect: int = 0
    assisted: int = 0
    collisions: int = 0

    @property
    def accuracy(self) -> Fraction:
        if self.orders_total == 0:
            return Fraction(0)
        return Fraction(self.served_correct, self.orders_total)

    def to_dict(self) -> dict:
        return {
            "orders_total": self.orders_total,
            "served_correct": self.served_correct,
            "served_incorrect": self.served_incorrect,
            "assisted": self.assisted,
            "collisions": self.collisions,
            "accuracy": f"{self.accuracy.numerator}/{self.accuracy.denominator}",
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Metrics":
        return cls(
            orders_total=doc["orders_total"],
            served_correct=doc["served_correct"],
            served_incorrect=doc["served_incorrect"],
            assisted=doc["assisted"],
            collisions=doc["collisions"],
        )

    def render(self) -> str:
        acc = float(self.accuracy)
        return "\n".join(
            [
                f"orders_total     {self.orders_total}",
                f"served_correct   {self.served_correct}",
                f"served_incorrect {self.served_incorrect}",
                f"assisted         {self.assisted}",
                f"collisions       {self.collisions}",
                f"accuracy         {self.served_correct}/{self.orders_total} ({acc:.4f})",
            ]
        )


@dataclass
class Scenario:
    grid: GridMap
    zones: list[Zone]
    menu: Menu
    kitchen_table: str
    robot_start: Pose2D
    stock: dict[str, int]
    nav_params: NavGoalParams
    ransac: RansacParams
    events: list[dict]


def _require(event: dict, index: int, key: str):
    if key not in event:
        raise ScenarioError(f"event {index}: missing field {key!r}")
    return event[key]


def _require_count(event: dict, index: int, key: str) -> None:
    value = _require(event, index, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ScenarioError(f"event {index}: {key} must be a non-negative integer, got {value!r}")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _finite3(value) -> bool:
    # one isfinite over the sum: a NaN or inf anywhere makes it non-finite
    try:
        return len(value) == 3 and math.isfinite(value[0] + value[1] + value[2])
    except (TypeError, KeyError, OverflowError):
        return False


def _world(world: dict, key: str, build, *default):
    """`build(world[key])`, or `build(*default)` when the key is absent; a
    failure is a ScenarioError naming `world.<key>`."""
    if key not in world and not default:
        raise ScenarioError(f"world.{key}: missing")
    try:
        return build(world.get(key, *default))
    except (KeyError, TypeError, ValueError, OSError, GridFormatError) as e:
        raise ScenarioError(f"world.{key}: {type(e).__name__}: {e}") from None


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _robot_start(grid: GridMap, rs) -> Pose2D:
    if not (isinstance(rs, list) and len(rs) in (2, 3) and all(map(_finite, rs))):
        raise ValueError(f"must be 2 or 3 finite numbers, got {rs!r}")
    try:
        world_to_cell(grid, (rs[0], rs[1]))
    except BoundsError:
        raise ValueError(f"{rs!r} lies outside the grid") from None
    return Pose2D(*rs)


def _stock(doc) -> dict[str, int]:
    stock = dict(doc)
    for item, count in stock.items():
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"{item!r} count must be a non-negative integer, got {count!r}")
    return stock


def parse_scenario(doc: dict, base_dir: Path) -> Scenario:
    world = doc.get("world") if isinstance(doc, dict) else None
    if not isinstance(world, dict):
        raise ScenarioError("world: missing or not an object")
    grid = _world(world, "grid_file", lambda f: load_grid((base_dir / f).read_text()))
    menu = _world(world, "menu", Menu.from_json)
    zones = _world(world, "zones", lambda zs: [Zone(z["name"], tuple(z["p1"]), tuple(z["p2"])) for z in zs], [])
    kitchen = _world(world, "kitchen_table", _string)
    robot_start = _world(world, "robot_start", lambda rs: _robot_start(grid, rs))
    stock = _world(world, "stock", _stock, {})
    nav_params = _world(world, "nav_params", lambda kw: NavGoalParams(**kw), {})
    ransac = _world(world, "ransac", lambda kw: RansacParams(**kw), {})

    events = doc.get("events", [])
    last_t = -math.inf
    last_detection_frame = last_human_frame = -1
    for i, ev in enumerate(events):
        t = _require(ev, i, "t")
        if not _finite(t):
            raise ScenarioError(f"event {i}: t must be a finite number, got {t!r}")
        if t < last_t:
            raise ScenarioError(f"event {i}: timestamps must be non-decreasing")
        last_t = t
        kind = _require(ev, i, "type")
        if kind not in EVENT_TYPES:
            raise ScenarioError(f"event {i}: unknown type {kind!r}")
        if kind == "detections":
            _require_count(ev, i, "frame")
            if ev["frame"] <= last_detection_frame:
                raise ScenarioError(f"event {i}: detection frame {ev['frame']} not newer "
                                    f"than {last_detection_frame}")
            last_detection_frame = ev["frame"]
            for b in _require(ev, i, "boxes"):
                for key in ("class", "center", "dims"):
                    if key not in b:
                        raise ScenarioError(f"event {i}: box missing {key!r}")
                if not (_finite3(b["center"]) and _finite3(b["dims"]) and _finite(b.get("yaw", 0.0))):
                    raise ScenarioError(f"event {i}: box center, dims need 3 finite numbers, yaw one")
                if min(b["dims"]) <= 0:
                    raise ScenarioError(f"event {i}: box dims must be positive, got {b['dims']!r}")
        elif kind == "human":
            _require_count(ev, i, "frame")
            if ev["frame"] < last_human_frame:
                raise ScenarioError(f"event {i}: human frame {ev['frame']} older than {last_human_frame}")
            last_human_frame = ev["frame"]
            if not _finite3(_require(ev, i, "position")):
                raise ScenarioError(f"event {i}: human position must be three finite numbers")
            if ev.get("action", "unknown") not in ACTIONS:
                raise ScenarioError(f"event {i}: unknown human action {ev['action']!r}")
        elif kind in ("call", "utterance"):
            if not isinstance(_require(ev, i, "table"), str):
                raise ScenarioError(f"event {i}: table must be a string id, got {ev['table']!r}")
            if kind == "utterance" and not isinstance(_require(ev, i, "text"), str):
                raise ScenarioError(f"event {i}: utterance text must be a string")
        elif kind == "fault":
            if _require(ev, i, "skill") not in SKILL_KINDS:
                raise ScenarioError(f"event {i}: unknown fault skill {ev['skill']!r}")
            _require_count(ev, i, "trigger")
            mode = ev.get("mode", "fail")
            if mode not in ("fail", "wrong_item"):
                raise ScenarioError(f"event {i}: unknown fault mode {mode!r}")
    return Scenario(
        grid=grid,
        zones=zones,
        menu=menu,
        kitchen_table=kitchen,
        robot_start=robot_start,
        stock=stock,
        nav_params=nav_params,
        ransac=ransac,
        events=list(events),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path} is not valid JSON: {e}") from None
    return parse_scenario(doc, path.parent)


def plan_path(risk: RiskField, start: CellIndex, goal: CellIndex) -> list[CellIndex]:
    """Shortest 8-connected path over cells with risk < 100 (A*, octile heuristic)."""
    if risk.at(start) >= RISK_MAX or risk.at(goal) >= RISK_MAX:
        raise PathError("start or goal cell is inside the risk region")
    if start == goal:
        return [start]
    w, h = risk.width, risk.height
    r = risk.risk

    def heuristic(col: int, row: int) -> float:
        dx, dy = abs(col - goal.col), abs(row - goal.row)
        return (dx + dy) + (SQRT2 - 2.0) * min(dx, dy)

    start_idx = start.row * w + start.col
    goal_idx = goal.row * w + goal.col
    dist = {start_idx: 0.0}
    parent: dict[int, int] = {}
    heap = [(heuristic(start.col, start.row), start_idx)]
    done = set()
    while heap:
        f, idx = heapq.heappop(heap)
        if idx in done:
            continue
        if idx == goal_idx:
            break
        done.add(idx)
        row, col = divmod(idx, w)
        g = dist[idx]
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                if dc == 0 and dr == 0:
                    continue
                nc, nr_ = col + dc, row + dr
                if not (0 <= nc < w and 0 <= nr_ < h):
                    continue
                if r[nr_, nc] >= RISK_MAX:
                    continue
                nidx = nr_ * w + nc
                ng = g + (SQRT2 if dc and dr else 1.0)
                if ng < dist.get(nidx, math.inf):
                    dist[nidx] = ng
                    parent[nidx] = idx
                    heapq.heappush(heap, (ng + heuristic(nc, nr_), nidx))
    if goal_idx not in dist:
        raise PathError(f"goal {goal} unreachable from {start}")
    path_idx = [goal_idx]
    while path_idx[-1] != start_idx:
        path_idx.append(parent[path_idx[-1]])
    path_idx.reverse()
    return [CellIndex(i % w, i // w) for i in path_idx]


def tabletop_cloud(table: FurnitureInstance, n_items: int) -> np.ndarray:
    """Synthetic exact tabletop grid plus a 3 x 3 point cluster per item on the table.

    Points come i-major (then j), then item by item; the float expressions are
    those of the per-point loop in `tests/oracles.py`, so the cloud is bit-equal.
    """
    w, d, h = table.dims
    top_z = table.base_z + h
    c, s = math.cos(table.pose.theta), math.sin(table.pose.theta)

    def world(lx, ly, z):
        x = table.pose.x + c * lx - s * ly
        y = table.pose.y + s * lx + c * ly
        return np.column_stack([x.ravel(), y.ravel(), np.full(x.size, z)])

    nx = max(4, int(w / 0.05))
    ny = max(4, int(d / 0.05))
    lx, ly = np.meshgrid(-w / 2 + (np.arange(nx) + 0.5) * w / nx,
                         -d / 2 + (np.arange(ny) + 0.5) * d / ny, indexing="ij")
    k = np.arange(n_items)[:, None, None]
    step = 0.02 * np.arange(3)
    item_lx = (-w / 2 + 0.12 + 0.18 * (k % 4)) + step[None, :, None]
    item_ly = (-d / 2 + 0.12 + 0.18 * (k // 4)) + step[None, None, :]
    item_lx, item_ly = np.broadcast_arrays(item_lx, item_ly)
    return np.vstack([world(lx, ly, top_z), world(item_lx, item_ly, top_z + 0.06)])


class Simulation:
    """World state plus the skill machinery; one instance per run."""

    def __init__(self, scenario: Scenario, config: RunConfig,
                 registry: Registry | None = None, backend=None):
        self.scenario = scenario
        self.config = config
        self.registry = registry if registry is not None else default_registry()
        backend = backend if backend is not None else RuleBackend(self.registry, scenario.menu)
        self.pipeline = Pipeline(self.registry, scenario.menu, backend, mode=config.mode)

        self.layer = FurnitureLayer()
        self.humans = HumanLayer()
        self.metrics = Metrics()
        self.log: list[str] = []
        self.transcript: list[str] = []

        self.robot_pose = scenario.robot_start
        self.robot_cell = world_to_cell(scenario.grid, (scenario.robot_start.x, scenario.robot_start.y))
        self.location: str | None = None  # furniture id the robot is at
        self.carried: str | None = None
        self.perceived: str | None = None
        self.kitchen_stock = dict(scenario.stock)
        self.table_items: dict[str, list[str]] = {}

        self.caller: str | None = None
        self.current_task: ParsedTask | None = None
        self.current_response: str = ""
        self.placed_at_caller: str | None = None

        self.skill_counts: dict[str, int] = {}
        self.faults: list[dict] = []
        self.t = 0.0
        self._risk: RiskField | None = None
        self._placement_count = 0

    # --- logging ---------------------------------------------------------

    def _log(self, kind: str, **payload) -> None:
        record = {"t": self.t, "event": kind, **payload}
        self.log.append(json.dumps(record, sort_keys=True))

    # --- map bookkeeping --------------------------------------------------

    def _ensure_risk(self) -> RiskField:
        if self._risk is None:
            self._risk = inflate(self.layer.virtual_obstacles(self.scenario.grid),
                                 self.scenario.nav_params.robot_radius)
        return self._risk

    def _apply_detections(self, ev: dict) -> None:
        frame = ev["frame"]
        results = self.layer.track_frame(detections_from_json(frame, ev["boxes"]))
        if self.layer.kitchen_id is None:
            try:
                self.layer.set_kitchen(self.scenario.kitchen_table)
            except FurnitureNotFound:
                pass
        self._risk = None
        self._log(
            "detections",
            frame=frame,
            tracks=[[iid, status.value] for iid, status in results],
            kitchen=self.layer.kitchen_id,
        )

    def _apply_human(self, ev: dict) -> None:
        obs = HumanObservation(
            position=tuple(ev["position"]),
            frame_id=ev["frame"],
            action=ev.get("action", "unknown"),
            name=ev.get("name"),
            attributes=dict(ev.get("attributes", {})),
        )
        hid = self.humans.upsert(obs)
        self._log("human", id=hid, action=obs.action)

    def warm_up(self) -> None:
        """Apply every detection and human event of the scenario; serve no call."""
        for ev in self.scenario.events:
            if ev["type"] == "detections":
                self._apply_detections(ev)
            elif ev["type"] == "human":
                self._apply_human(ev)

    # --- faults -----------------------------------------------------------

    def _arm_fault(self, ev: dict) -> None:
        fault = {
            "skill": ev["skill"],
            "trigger": ev["trigger"],
            "mode": ev.get("mode", "fail"),
            "fired": False,
        }
        self.faults.append(fault)
        self._log("fault_armed", skill=fault["skill"], trigger=fault["trigger"], mode=fault["mode"])

    def _match_fault(self, kind: str, count: int) -> dict | None:
        for fault in self.faults:
            if not fault["fired"] and fault["skill"] == kind and fault["trigger"] == count:
                fault["fired"] = True
                return fault
        return None

    # --- skills -----------------------------------------------------------

    def simulate_skill(self, inv: SkillInvocation) -> SkillResult:
        count = self.skill_counts.get(inv.kind, 0)
        self.skill_counts[inv.kind] = count + 1
        fault = self._match_fault(inv.kind, count)
        handler = getattr(self, f"_skill_{inv.kind}")
        result = handler(inv, fault)
        self._log("skill", skill=inv.render(), result=result.render())
        return result

    def _resolve_table(self, arg: str | None) -> str | None:
        if arg == "kitchen_table":
            return self.layer.kitchen_id
        if arg == "caller_table":
            return self.caller
        return arg

    def _skill_navigate(self, inv: SkillInvocation, fault: dict | None) -> SkillResult:
        if fault:
            return failed("navigation fault")
        table_id = self._resolve_table(inv.arg)
        if table_id is None:
            return failed(f"no table bound for {inv.arg!r}")
        try:
            target = self.layer.get(table_id)
        except FurnitureNotFound:
            return failed(f"unknown table {table_id!r}")
        risk = self._ensure_risk()
        try:
            goal = select_goal(risk, target, self.robot_pose, self.scenario.nav_params)
            path = plan_path(risk, self.robot_cell, goal.cell)
        except (NoGoalError, PathError) as e:
            return failed(str(e))
        violations = sum(1 for c in path if risk.at(c) >= RISK_MAX)
        self.metrics.collisions += violations
        self.robot_cell = goal.cell
        self.robot_pose = goal.pose
        self.location = table_id
        self._log(
            "navigate",
            table=table_id,
            cell=[goal.cell.col, goal.cell.row],
            cost=goal.cost,
            steps=len(path) - 1,
        )
        return OK

    def _items_here(self) -> list[str]:
        if self.location is None:
            return []
        if self.location == self.layer.kitchen_id:
            return sorted(k for k, v in self.kitchen_stock.items() if v > 0)
        return list(self.table_items.get(self.location, []))

    def _skill_detect(self, inv: SkillInvocation, fault: dict | None) -> SkillResult:
        if fault and fault["mode"] == "fail":
            return failed("not found")
        wanted = inv.arg or ""
        if fault and fault["mode"] == "wrong_item":
            names = self.scenario.menu.names()
            pool = [n for n in names if n != wanted] or names
            idx = names.index(wanted) if wanted in names else 0
            self.perceived = pool[idx % len(pool)]
            return OK
        here = self._items_here()
        if wanted == "dish":
            if here:
                self.perceived = here[0]
                return OK
            return failed("not found")
        if wanted in here:
            self.perceived = wanted
            return OK
        return failed("not found")

    def _skill_grasp(self, inv: SkillInvocation, fault: dict | None) -> SkillResult:
        if fault:
            return failed("grasp fault")
        if self.carried is not None:
            # a hand-over may already have put the requested item in the gripper
            if inv.arg in (self.carried, "dish"):
                return OK
            return failed("gripper full")
        if self.perceived is None:
            return failed("nothing detected")
        result = self._take(self.perceived)
        if result.ok:
            self.perceived = None
        return result

    def _skill_hand_over(self, inv: SkillInvocation, fault: dict | None) -> SkillResult:
        if fault:
            return failed("hand-over fault")
        if self.carried is not None:
            return failed("gripper full")
        return self._take(inv.arg or "")

    def _take(self, item: str) -> SkillResult:
        """Move one `item` from the kitchen stock or the current table into the gripper."""
        if self.location == self.layer.kitchen_id:
            if self.kitchen_stock.get(item, 0) <= 0:
                return failed("out of stock")
            self.kitchen_stock[item] -= 1
        elif self.location is not None and item in self.table_items.get(self.location, []):
            self.table_items[self.location].remove(item)
        else:
            return failed("item not here")
        self.carried = item
        return OK

    def _skill_find_placement(self, inv: SkillInvocation, fault: dict | None) -> SkillResult:
        if fault:
            return failed("no space")
        if self.location is None:
            return failed("nowhere to place")
        try:
            table = self.layer.get(self.location)
        except FurnitureNotFound:
            return failed("nowhere to place")
        cloud = tabletop_cloud(table, len(self.table_items.get(table.id, [])))
        seed = self.config.seed * 1_000_003 + self._placement_count
        self._placement_count += 1
        try:
            plane, inliers = ransac_plane(cloud, replace(self.scenario.ransac, seed=seed))
            spot = find_placement(cloud, plane, inliers, object_radius=0.05)
        except PlacementError as e:
            return failed(str(e))
        self._log("placement", table=self.location, point=[round(v, 4) for v in spot])
        return OK

    def _skill_place(self, inv: SkillInvocation, fault: dict | None) -> SkillResult:
        if fault:
            return failed("place fault")
        if self.carried is None:
            return failed("empty gripper")
        if self.location is None:
            return failed("nowhere to place")
        item = self.carried
        if self.location == self.layer.kitchen_id:
            self.kitchen_stock[item] = self.kitchen_stock.get(item, 0) + 1
        else:
            self.table_items.setdefault(self.location, []).append(item)
            if self.location == self.caller:
                self.placed_at_caller = item
        self.carried = None
        return OK

    def _skill_speak(self, inv: SkillInvocation, fault: dict | None) -> SkillResult:
        if fault:
            return failed("speech fault")
        arg = inv.arg or ""
        if arg == "confirmation":
            item = (self.current_task.slots.get("item") if self.current_task else None) or "order"
            text = f"Here is your {item}."
        elif arg == "menu_description":
            text = self.scenario.menu.description_text()
        elif arg == "generated_response":
            text = self.current_response
        else:
            text = arg
        self.transcript.append(text)
        self._log("speak", text=text)
        return OK

    # --- event loop -------------------------------------------------------

    def _next_utterance(self, table_id: str, after: int, consumed: set[int]) -> tuple[int, str] | None:
        for j in range(after + 1, len(self.scenario.events)):
            ev = self.scenario.events[j]
            if ev["type"] == "utterance" and ev["table"] == table_id and j not in consumed:
                return j, ev["text"]
        return None

    def _serve_call(self, table_id: str, index: int, consumed: set[int]) -> None:
        if table_id not in {i.id for i in self.layer.instances()}:
            raise ScenarioError(f"event {index}: call references unknown table {table_id!r}")
        if self.layer.kitchen_id is None:
            raise ScenarioError(f"event {index}: world.kitchen_table "
                                f"{self.scenario.kitchen_table!r} is not a tracked instance")
        self.caller = table_id
        self._log("call", table=table_id)
        approach = self.simulate_skill(SkillInvocation("navigate", "caller_table"))
        if not approach.ok:
            self._log("call_abandoned", table=table_id, reason=approach.reason)
            return
        found = self._next_utterance(table_id, index, consumed)
        if found is None:
            self._log("no_utterance", table=table_id)
            return
        j, text = found
        consumed.add(j)
        parsed, response = self.pipeline.handle(text)
        self.current_task = parsed
        self.current_response = response
        self.transcript.append(response)
        self._log(
            "handled",
            utterance=text,
            task=parsed.name,
            slots={k: parsed.slots[k] for k in sorted(parsed.slots)},
            response=response,
        )
        is_order = parsed.name == "serve_order"
        if is_order:
            self.metrics.orders_total += 1
            self.placed_at_caller = None
        outcome = execute(parsed, self.registry, self.simulate_skill)
        if is_order and outcome.state is not Outcome.FAILED:
            if self.placed_at_caller == parsed.slots["item"]:
                self.metrics.served_correct += 1
            else:
                self.metrics.served_incorrect += 1
        if outcome.state is Outcome.COMPLETED_WITH_ASSIST:
            self.metrics.assisted += 1
        self._log(
            "task_done",
            task=parsed.name,
            outcome=outcome.state.value,
            help=list(outcome.help_messages),
            ordered=parsed.slots.get("item") if is_order else None,
            served=self.placed_at_caller if is_order else None,
        )

    def run(self) -> tuple[Metrics, list[str]]:
        self._log("run_start", mode=self.config.mode, seed=self.config.seed)
        consumed: set[int] = set()
        for i, ev in enumerate(self.scenario.events):
            self.t = float(ev["t"])
            kind = ev["type"]
            if kind == "detections":
                self._apply_detections(ev)
            elif kind == "human":
                self._apply_human(ev)
            elif kind == "fault":
                self._arm_fault(ev)
            elif kind == "call":
                self._serve_call(ev["table"], i, consumed)
            elif kind == "utterance":
                if i not in consumed:
                    self._log("utterance_ignored", table=ev["table"])
        self._log("run_end", **self.metrics.to_dict())
        return self.metrics, self.log


def run(scenario: Scenario, config: RunConfig | None = None,
        registry: Registry | None = None, backend=None) -> tuple[Metrics, list[str]]:
    sim = Simulation(scenario, config or RunConfig(), registry=registry, backend=backend)
    return sim.run()
