"""Discrete-event restaurant simulator.

Replays a scripted event stream (furniture detections, human observations,
table calls, utterances, skill faults) through the full stack: layered map,
risk-field navigation goals, grid path planning, the understand/respond
pipeline and the task executor with simulated skills.  Runs are fully
deterministic for a fixed seed; the emitted line log is byte-stable so two
replays can be diffed directly.

`load_scenario` builds every event once into an immutable record whose
constructor checks it (`DetectionFrame` of `Detection3D`s, `HumanObservation`,
`Fault`, `Call`, `Utterance`), so one parsed `Scenario` can be replayed any
number of times and `Simulation` never reads raw JSON.
"""

from __future__ import annotations

import heapq
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .furniture import Detection3D, FurnitureInstance, FurnitureLayer, FurnitureNotFound, detections_from_json
from .geometry import Pose2D, check_count, check_string, finite_tuple, is_finite
from .grid import (RISK_MAX, BoundsError, CellIndex, GridFormatError, GridMap, RiskField, cell_risk,
                   inflate, load_grid, world_to_cell)
from .llm import Menu, RuleBackend
from .navgoal import NavGoal, NavGoalParams, NoGoalError, candidate_points, select_candidate, select_goal
from .placement import PlacementError, find_placement, ransac_plane
from .semantic import HumanLayer, HumanObservation, zone_from_json
from .tasks import (
    OK,
    SKILL_KINDS,
    Outcome,
    ParsedTask,
    Pipeline,
    SkillInvocation,
    SkillResult,
    TaskOutcome,
    execute,
    failed,
)

FAULT_MODES = ("fail", "wrong_item")
# the reason a skill gives when a `fail` fault fires on it
FAULT_REASONS = MappingProxyType({"navigate": "navigation fault", "detect": "not found", "grasp": "grasp fault",
                                  "place": "place fault", "find_placement": "no space", "speak": "speech fault",
                                  "hand_over": "hand-over fault"})
# `json.dumps(record, sort_keys=True)` without building an encoder per record
_encode = json.JSONEncoder(sort_keys=True).encode


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
        """The counts, and accuracy as `served_correct/orders_total`, unreduced."""
        return {
            "orders_total": self.orders_total,
            "served_correct": self.served_correct,
            "served_incorrect": self.served_incorrect,
            "assisted": self.assisted,
            "collisions": self.collisions,
            "accuracy": f"{self.served_correct}/{self.orders_total}",
        }

    def render(self) -> str:
        acc = float(self.accuracy)
        return "\n".join(
            [
                f"orders_total     {self.orders_total}",
                f"served_correct   {self.served_correct}",
                f"served_incorrect {self.served_incorrect}",
                f"assisted         {self.assisted}",
                f"collisions       {self.collisions}",
                f"accuracy         {self.to_dict()['accuracy']} ({acc:.4f})",
            ]
        )


@dataclass(frozen=True)
class DetectionFrame:
    """A `detections` event: one frame of boxes."""

    frame: int
    boxes: tuple[Detection3D, ...]

    def __post_init__(self) -> None:
        check_count(self.frame, "frame")


@dataclass(frozen=True)
class Fault:
    """A `fault` event: force the `trigger`-th `skill` invocation to misbehave.

    `fail` makes any skill fail with its kind's reason; `wrong_item` makes
    detect perceive another menu item, and applies to detect only."""

    skill: str
    trigger: int
    mode: str = "fail"

    def __post_init__(self) -> None:
        if self.skill not in SKILL_KINDS:
            raise ValueError(f"unknown fault skill {self.skill!r}")
        check_count(self.trigger, "trigger")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.mode == "wrong_item" and self.skill != "detect":
            raise ValueError(f"fault mode 'wrong_item' applies to detect only, not {self.skill!r}")


@dataclass(frozen=True)
class Call:
    table: str

    def __post_init__(self) -> None:
        check_string(self.table, "table")


@dataclass(frozen=True)
class Utterance:
    table: str
    text: str

    def __post_init__(self) -> None:
        check_string(self.table, "table")
        check_string(self.text, "text")


Record = DetectionFrame | HumanObservation | Fault | Call | Utterance

# one builder per event type; each takes its keys out of a copy of the event, and
# each record's constructor checks its own fields
EVENT_BUILDERS = {
    "detections": lambda ev: DetectionFrame(ev.pop("frame"), detections_from_json(ev.pop("boxes"))),
    "human": lambda ev: HumanObservation(ev.pop("position"), ev.pop("frame"), ev.pop("action", "unknown"),
                                         ev.pop("name", None), ev.pop("attributes", {})),
    "fault": lambda ev: Fault(ev.pop("skill"), ev.pop("trigger"), ev.pop("mode", "fail")),
    "call": lambda ev: Call(ev.pop("table")),
    "utterance": lambda ev: Utterance(ev.pop("table"), ev.pop("text")),
}


@dataclass(frozen=True)
class Scenario:
    grid: GridMap
    menu: Menu
    kitchen_table: str
    robot_start: Pose2D
    stock: Mapping[str, int]
    nav_params: NavGoalParams
    events: tuple[tuple[float, Record], ...]  # (t, record), t non-decreasing


def _world(world: dict, key: str, build, *default):
    """`build(world[key])`, or `build(*default)` when the key is absent; the key
    is taken out of `world`.  A failure is a ScenarioError naming `world.<key>`."""
    if key not in world and not default:
        raise ScenarioError(f"world.{key}: missing")
    try:
        return build(world.pop(key, *default))
    except (KeyError, TypeError, ValueError, OSError, GridFormatError) as e:
        raise ScenarioError(f"world.{key}: {type(e).__name__}: {e}") from None


def _robot_start(grid: GridMap, rs) -> Pose2D:
    if not (isinstance(rs, list) and len(rs) in (2, 3)):
        raise ValueError(f"must be 2 or 3 finite numbers, got {rs!r}")
    pose = Pose2D(*finite_tuple(rs, len(rs), "robot_start"))
    try:
        world_to_cell(grid, (pose.x, pose.y))
    except BoundsError:
        raise ValueError(f"{rs!r} lies outside the grid") from None
    return pose


def _stock(doc) -> Mapping[str, int]:
    stock = dict(doc)
    for item, count in stock.items():
        check_count(count, f"{item!r} count")
    return MappingProxyType(stock)


def _events(events) -> tuple[tuple[float, Record], ...]:
    """Each event built once into its record, plus the checks that span events."""
    if not isinstance(events, list):
        raise ScenarioError(f"events: must be a list, got {events!r}")
    out = []
    last_t = -math.inf
    last_detection_frame = last_human_frame = -1
    for i, ev in enumerate(events):
        try:
            if not isinstance(ev, dict):
                raise ValueError(f"must be an object, got {ev!r}")
            ev = dict(ev)  # the builder takes out the keys it reads; any left are unknown
            t, kind = ev.pop("t"), ev.pop("type")
            if not is_finite(t):
                raise ValueError(f"t must be a finite number, got {t!r}")
            if t < last_t:
                raise ValueError("timestamps must be non-decreasing")
            if kind not in EVENT_BUILDERS:
                raise ValueError(f"unknown type {kind!r}")
            record = EVENT_BUILDERS[kind](ev)
            if ev:
                raise ValueError(f"unknown key {next(iter(ev))!r}")
            if kind == "detections":
                if record.frame <= last_detection_frame:
                    raise ValueError(f"detection frame {record.frame} not newer than {last_detection_frame}")
                last_detection_frame = record.frame
            elif kind == "human":
                if record.frame_id < last_human_frame:
                    raise ValueError(f"human frame {record.frame_id} older than {last_human_frame}")
                last_human_frame = record.frame_id
        except (KeyError, TypeError, ValueError) as e:
            raise ScenarioError(f"event {i}: {type(e).__name__}: {e}") from None
        last_t = t
        out.append((float(t), record))
    return tuple(out)


def parse_scenario(doc: dict, base_dir: Path) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object")
    doc = dict(doc)  # the keys are taken out as they are read; any left are unknown
    world, events = doc.pop("world", None), doc.pop("events", [])
    if doc:
        raise ScenarioError(f"{next(iter(doc))}: unknown key")
    if not isinstance(world, dict):
        raise ScenarioError("world: missing or not an object")
    world = dict(world)  # `_world` takes out each key it reads; any left are unknown
    grid = _world(world, "grid_file", lambda f: load_grid((base_dir / f).read_text()))
    menu = _world(world, "menu", Menu.from_json)
    _world(world, "zones", lambda zs: tuple(map(zone_from_json, zs)), [])  # checked; no decision reads zones
    settings = dict(
        grid=grid,
        menu=menu,
        kitchen_table=_world(world, "kitchen_table", lambda v: check_string(v, "kitchen_table")),
        robot_start=_world(world, "robot_start", lambda rs: _robot_start(grid, rs)),
        stock=_world(world, "stock", _stock, {}),
        nav_params=_world(world, "nav_params", lambda kw: NavGoalParams(**kw), {}),
    )
    if world:
        raise ScenarioError(f"world.{next(iter(world))}: unknown key")
    # a start inside the static risk region would abandon every call; only the
    # disc around the start cell is read, not a whole inflated map
    start, radius = settings["robot_start"], settings["nav_params"].robot_radius
    if cell_risk(grid, world_to_cell(grid, (start.x, start.y)), radius):
        raise ScenarioError(f"world.robot_start: ({start.x!r}, {start.y!r}) lies within "
                            f"robot_radius {radius!r} m of a cell that is not free")
    return Scenario(**settings, events=_events(events))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path} is not valid JSON: {e}") from None
    return parse_scenario(doc, path.parent)


def _step_costs(cells: int) -> tuple[int, int]:
    """Integer (straight, diagonal) step costs of `plan_path` on a grid of `cells`."""
    step = 20 * cells * cells
    return step, math.isqrt(2 * step * step)


def plan_path(risk: RiskField, start: CellIndex, goal: CellIndex) -> list[CellIndex]:
    """Shortest 8-connected path over cells with risk < 100 (A*, octile heuristic).

    A straight step costs 1 and a diagonal sqrt(2); a diagonal may pass between
    two blocked orthogonal neighbours.  The search runs on integers
    (`_step_costs`): a straight step costs `step` = 20 * cells**2, a diagonal
    `diag` = isqrt(2 * step**2), and the heuristic is the octile distance in
    those costs.  The heuristic is consistent, since it is the exact path cost
    on the same grid without obstacles.

    The integer costs order every pair of values as the real costs do.  Every
    g, h and f value is the cost of m straight and k diagonal steps with
    m + k <= K = 2 * cells: a tree path has fewer than `cells` steps and the
    heuristic at most max(w, h).  Two different real values m + k*sqrt(2)
    differ by at least 1 / ((1 + sqrt(2)) * K), because
    |dm + dk*sqrt(2)| = |dm**2 - 2*dk**2| / |dm - dk*sqrt(2)|, the numerator
    is a non-zero integer and the denominator is at most (1 + sqrt(2)) * K.
    Each integer cost is step * (m + k*sqrt(2)) less a rounding error in
    [0, k), so two integer costs keep the real order whenever
    step > 2 * (1 + sqrt(2)) * K**2 = 8 * (1 + sqrt(2)) * cells**2, which
    20 * cells**2 exceeds.  Equal real values have equal (m, k), since sqrt(2)
    is irrational, and so equal integer costs: every tie stays a tie.  Hence
    the path is optimal in the real costs, and every optimal path has the same
    numbers of straight and diagonal steps, whichever one the search returns.

    Among open cells of equal f the one nearest the goal (least h) is expanded
    first, then the lower cell index.  The free mask is built once per call as
    bytes with a blocked one-cell border, so the neighbour loop needs no bounds
    checks and reads no numpy scalars.
    """
    if risk.at(start) >= RISK_MAX or risk.at(goal) >= RISK_MAX:
        raise PathError("start or goal cell is inside the risk region")
    if start == goal:
        return [start]
    w, h = risk.width, risk.height
    step, diag = _step_costs(w * h)
    pw = w + 2  # row stride of the padded mask
    padded = np.zeros((h + 2, pw), dtype=bool)
    padded[1:-1, 1:-1] = risk.risk < RISK_MAX
    free = padded.tobytes()
    moves = [(dr * pw + dc, diag if dc and dr else step)
             for dc in (-1, 0, 1) for dr in (-1, 0, 1) if dc or dr]
    goal_col, goal_row = goal.col + 1, goal.row + 1

    def heuristic(idx: int) -> int:
        row, col = divmod(idx, pw)
        dx, dy = abs(col - goal_col), abs(row - goal_row)
        return (dy - dx) * step + dx * diag if dx < dy else (dx - dy) * step + dy * diag

    start_idx = (start.row + 1) * pw + start.col + 1
    goal_idx = goal_row * pw + goal_col
    dist = {start_idx: 0}
    parent: dict[int, int] = {}
    h0 = heuristic(start_idx)
    heap = [(h0, h0, start_idx)]
    while heap:
        f, hx, idx = heapq.heappop(heap)
        g = f - hx
        if g > dist[idx]:
            continue  # superseded by a cheaper entry
        if idx == goal_idx:
            break
        for offset, cost in moves:
            nidx = idx + offset
            if not free[nidx]:
                continue
            ng = g + cost
            old = dist.get(nidx)
            if old is None or ng < old:
                dist[nidx] = ng
                parent[nidx] = idx
                nh = heuristic(nidx)
                heapq.heappush(heap, (ng + nh, nh, nidx))
    if goal_idx not in dist:
        raise PathError(f"goal {goal} unreachable from {start}")
    path_idx = [goal_idx]
    while path_idx[-1] != start_idx:
        path_idx.append(parent[path_idx[-1]])
    path_idx.reverse()
    return [CellIndex(i % pw - 1, i // pw - 1) for i in path_idx]


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
    """World state plus the skill machinery; one instance per run.

    Navigation makes one goal search per table side and map (`_goal`) and one
    A* run per endpoint pair and map (`_plan`).  Both stores hold results
    computed on the current risk field only: a detection frame, the one event
    that changes the map, empties them.
    """

    def __init__(self, scenario: Scenario, config: RunConfig, backend=None):
        self.scenario = scenario
        self.config = config
        backend = backend if backend is not None else RuleBackend(scenario.menu)
        self.pipeline = Pipeline(scenario.menu, backend, mode=config.mode)

        self.layer = FurnitureLayer()
        self.humans = HumanLayer()
        self.metrics = Metrics()
        self.log: list[str] = []

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
        self.faults: list[Fault] = []  # armed and not yet fired
        self.t = 0.0
        self._risk: RiskField | None = None
        self._paths: dict[tuple[CellIndex, CellIndex], list[CellIndex]] = {}  # planned on `_risk`
        self._goals: dict[tuple[str, tuple[float, float]], NavGoal] = {}  # selected on `_risk`
        self._placement_count = 0

    # --- logging ---------------------------------------------------------

    def _log(self, kind: str, **payload) -> None:
        record = {"t": self.t, "event": kind, **payload}
        self.log.append(_encode(record))

    # --- map bookkeeping --------------------------------------------------

    def _ensure_risk(self) -> RiskField:
        if self._risk is None:
            self._risk = inflate(self.layer.virtual_obstacles(self.scenario.grid),
                                 self.scenario.nav_params.robot_radius)
        return self._risk

    def _goal(self, risk: RiskField, target: FurnitureInstance) -> NavGoal:
        """`select_goal(risk, target, robot_pose, nav_params)`, run once per table
        side and map.

        The store is keyed on the table and the candidate point that
        `select_candidate` picks for the robot pose.  It is exact because the
        pose enters `select_goal` only through that candidate: the rest it reads
        (the risk field, the table's instance and `nav_params`) is fixed until
        the next detection frame, which empties the store.  A `NoGoalError` is
        raised again on every try, never stored.  A new map layer that
        `select_goal` comes to read (human costs, say) must empty the store
        whenever that layer changes.
        """
        params = self.scenario.nav_params
        key = (target.id, select_candidate(candidate_points(target, params), self.robot_pose))
        goal = self._goals.get(key)
        if goal is None:
            goal = self._goals[key] = select_goal(risk, target, self.robot_pose, params)
        return goal

    def _plan(self, risk: RiskField, start: CellIndex, goal: CellIndex) -> list[CellIndex]:
        """`plan_path(risk, start, goal)`, run once per endpoint pair and map.

        A pair planned on this map returns its stored path, and its reverse
        pair that path reversed.  Moves and costs are symmetric (a diagonal
        needs only its target cell free), so the reverse of an optimal path is
        optimal, and every optimal path has the same straight and diagonal step
        counts (see `plan_path`): the logged steps cannot change.  Like the goal
        store of `_goal`, the path store is emptied by a detection frame.
        """
        path = self._paths.get((start, goal))
        if path is None:
            back = self._paths.get((goal, start))
            path = back[::-1] if back is not None else plan_path(risk, start, goal)
            self._paths[start, goal] = path
        return path

    def _apply_detections(self, ev: DetectionFrame) -> None:
        results = self.layer.track_frame(ev.boxes, ev.frame)
        if self.layer.kitchen_id is None:
            try:
                self.layer.set_kitchen(self.scenario.kitchen_table)
            except FurnitureNotFound:
                pass
        self._risk = None
        self._paths.clear()
        self._goals.clear()
        self._log(
            "detections",
            frame=ev.frame,
            tracks=[[iid, status.value] for iid, status in results],
            kitchen=self.layer.kitchen_id,
        )

    def _apply_human(self, obs: HumanObservation) -> None:
        hid = self.humans.upsert(obs)
        self._log("human", id=hid, action=obs.action)

    def warm_up(self) -> None:
        """Apply every detection and human event of the scenario; serve no call."""
        for _, ev in self.scenario.events:
            if isinstance(ev, DetectionFrame):
                self._apply_detections(ev)
            elif isinstance(ev, HumanObservation):
                self._apply_human(ev)

    # --- faults -----------------------------------------------------------

    def _arm_fault(self, fault: Fault) -> None:
        self.faults.append(fault)
        self._log("fault_armed", skill=fault.skill, trigger=fault.trigger, mode=fault.mode)

    def _match_fault(self, kind: str, count: int) -> Fault | None:
        for k, fault in enumerate(self.faults):
            if fault.skill == kind and fault.trigger == count:
                return self.faults.pop(k)
        return None

    # --- skills -----------------------------------------------------------

    def simulate_skill(self, inv: SkillInvocation) -> SkillResult:
        count = self.skill_counts.get(inv.kind, 0)
        self.skill_counts[inv.kind] = count + 1
        fault = self._match_fault(inv.kind, count)
        if fault is None:
            result = getattr(self, f"_skill_{inv.kind}")(inv)
        elif fault.mode == "fail":
            result = failed(FAULT_REASONS[inv.kind])
        else:  # wrong_item, which `Fault` allows on detect only
            result = self._perceive_wrong_item(inv.arg or "")
        self._log("skill", skill=inv.render(), result=result.render())
        return result

    def _resolve_table(self, arg: str | None) -> str | None:
        if arg == "kitchen_table":
            return self.layer.kitchen_id
        if arg == "caller_table":
            return self.caller
        return arg

    def _skill_navigate(self, inv: SkillInvocation) -> SkillResult:
        table_id = self._resolve_table(inv.arg)
        if table_id is None:
            return failed(f"no table bound for {inv.arg!r}")
        try:
            target = self.layer.get(table_id)
        except FurnitureNotFound:
            return failed(f"unknown table {table_id!r}")
        risk = self._ensure_risk()
        try:
            goal = self._goal(risk, target)
            path = self._plan(risk, self.robot_cell, goal.cell)
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

    def _perceive_wrong_item(self, wanted: str) -> SkillResult:
        """Detect under a `wrong_item` fault: perceive another menu item than `wanted`."""
        names = self.scenario.menu.names()
        pool = [n for n in names if n != wanted] or names
        idx = names.index(wanted) if wanted in names else 0
        self.perceived = pool[idx % len(pool)]
        return OK

    def _skill_detect(self, inv: SkillInvocation) -> SkillResult:
        wanted = inv.arg or ""
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

    def _skill_grasp(self, inv: SkillInvocation) -> SkillResult:
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

    def _skill_hand_over(self, inv: SkillInvocation) -> SkillResult:
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

    def _skill_find_placement(self, inv: SkillInvocation) -> SkillResult:
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
            plane, inliers = ransac_plane(cloud, seed)
            spot = find_placement(cloud, plane, inliers, object_radius=0.05)
        except PlacementError as e:
            return failed(str(e))
        self._log("placement", table=self.location, point=[round(v, 4) for v in spot])
        return OK

    def _skill_place(self, inv: SkillInvocation) -> SkillResult:
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

    def _skill_speak(self, inv: SkillInvocation) -> SkillResult:
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
        self._log("speak", text=text)
        return OK

    # --- event loop -------------------------------------------------------

    def _next_utterance(self, table_id: str, after: int, consumed: set[int]) -> tuple[int, str] | None:
        for j in range(after + 1, len(self.scenario.events)):
            ev = self.scenario.events[j][1]
            if isinstance(ev, Utterance) and ev.table == table_id and j not in consumed:
                return j, ev.text
        return None

    def _serve_call(self, table_id: str, index: int, consumed: set[int]) -> None:
        try:
            self.layer.get(table_id)
        except FurnitureNotFound:
            raise ScenarioError(f"event {index}: call references unknown table {table_id!r}") from None
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
        self.handle_utterance(text)

    def handle_utterance(self, text: str) -> tuple[ParsedTask, str, TaskOutcome]:
        """Understand and answer `text` for the current caller, run its task, and log and
        count both; the one utterance path of replays and the REPL."""
        parsed, response = self.pipeline.handle(text)
        self.current_task = parsed
        self.current_response = response
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
        outcome = execute(parsed, self.simulate_skill)
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
        return parsed, response, outcome

    def run(self) -> tuple[Metrics, list[str]]:
        self._log("run_start", mode=self.config.mode, seed=self.config.seed)
        consumed: set[int] = set()
        try:
            for i, (t, ev) in enumerate(self.scenario.events):
                self.t = t
                if isinstance(ev, DetectionFrame):
                    self._apply_detections(ev)
                elif isinstance(ev, HumanObservation):
                    self._apply_human(ev)
                elif isinstance(ev, Fault):
                    self._arm_fault(ev)
                elif isinstance(ev, Call):
                    self._serve_call(ev.table, i, consumed)
                elif i not in consumed:
                    self._log("utterance_ignored", table=ev.table)
        finally:
            self.pipeline.close()
        self._log("run_end", **self.metrics.to_dict())
        return self.metrics, self.log
