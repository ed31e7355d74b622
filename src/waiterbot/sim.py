"""Discrete-event restaurant simulator: skill simulation and metrics.

Replays a scripted event stream (furniture detections, human observations,
table calls, utterances, skill faults) through the full stack: layered map,
risk-field navigation goals, grid path planning, the understand/respond
pipeline and the task executor with simulated skills.  Runs are fully
deterministic for a fixed seed; the emitted line log is byte-stable so two
replays can be diffed directly.  The events come as the checked records of a
`Scenario` from `formats.load_scenario`, never as raw JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .formats import Call, DetectionFrame, Fault, Scenario, ScenarioError, Utterance
from .formats import load_scenario  # noqa: F401  (the benchmark reads it as `sim.load_scenario`)
from .furniture import FurnitureInstance, FurnitureLayer, FurnitureNotFound
from .geometry import Pose2D
from .grid import RISK_MAX, CellIndex, GridMap, RiskField, inflate, world_to_cell
from .llm import RuleBackend
from .navgoal import ROBOT_RADIUS_M, NavGoal, NoGoalError, candidate_points, select_candidate, select_goal
from .placement import GRID_PITCH_M, MAX_RASTER_CELLS, NoSpaceError, PlacementError, find_placement, ransac_plane
from .planner import PathError, plan_path
from .semantic import HumanLayer, HumanObservation
from .tasks import OK, Outcome, ParsedTask, Pipeline, SkillInvocation, SkillResult, TaskOutcome, execute, failed

# the reason a skill gives when a `fail` fault fires on it
FAULT_REASONS = MappingProxyType({"navigate": "navigation fault", "detect": "not found", "grasp": "grasp fault",
                                  "place": "place fault", "find_placement": "no space", "speak": "speech fault",
                                  "hand_over": "hand-over fault"})
# `json.dumps(record, sort_keys=True)` without building an encoder per record
_encode = json.JSONEncoder(sort_keys=True).encode


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
        lines = [f"{key:<16} {value}" for key, value in self.to_dict().items()]
        lines[-1] += f" ({float(self.accuracy):.4f})"  # accuracy comes last
        return "\n".join(lines)


class TableTop:
    """A table top's entry in a `MapView`'s placement store: its points (the
    sample grid, i-major then j, then a 3 x 3 cluster per item slot, added a
    row of 4 slots at a time when an item needs one) and the stores its clouds
    share.  The cloud of n items is the read-only prefix of the first G + 9n
    points, G the grid's size, bit-equal to the per-point loop in
    `tests/oracles.py`.  A top whose samples, or whose 2 cm raster, would
    exceed `MAX_RASTER_CELLS` raises NoSpaceError before any point is drawn."""

    def __init__(self, table: FurnitureInstance):
        w, d, h = self.dims = table.dims
        nx, ny = max(4, int(w / 0.05)), max(4, int(d / 0.05))
        # the inlier hull spans the sample centres; at any yaw its raster holds at least this many cells
        rows, cols = math.ceil((d - d / ny) / GRID_PITCH_M), math.ceil((w - w / nx) / GRID_PITCH_M)
        if max(nx * ny, rows * cols) > MAX_RASTER_CELLS:
            raise NoSpaceError(f"tabletop of {nx} x {ny} samples and {rows} x {cols} cells "
                               f"exceeds the {MAX_RASTER_CELLS}-cell budget")
        self.pose, self.top_z, self.grid_size, self.slots = table.pose, table.base_z + h, nx * ny, 0
        self.refits, self.surfaces = {}, {}  # the two stores of `ransac_plane` and `find_placement`
        lx, ly = np.meshgrid(-w / 2 + (np.arange(nx) + 0.5) * w / nx,
                             -d / 2 + (np.arange(ny) + 0.5) * d / ny, indexing="ij")
        self.points = self._world(lx, ly, self.top_z)

    def _world(self, lx: np.ndarray, ly: np.ndarray, z: float) -> np.ndarray:
        c, s = math.cos(self.pose.theta), math.sin(self.pose.theta)
        x = self.pose.x + c * lx - s * ly
        y = self.pose.y + s * lx + c * ly
        return np.column_stack([x.ravel(), y.ravel(), np.full(x.size, z)])

    def cloud(self, n_items: int) -> np.ndarray:
        if n_items > self.slots:
            w, d, _ = self.dims
            k = np.arange(self.slots, -(-n_items // 4) * 4)[:, None, None]
            step = 0.02 * np.arange(3)
            item_lx = (-w / 2 + 0.12 + 0.18 * (k % 4)) + step[None, :, None]
            item_ly = (-d / 2 + 0.12 + 0.18 * (k // 4)) + step[None, None, :]
            clusters = self._world(*np.broadcast_arrays(item_lx, item_ly), self.top_z + 0.06)
            self.points, self.slots = np.vstack([self.points, clusters]), self.slots + len(k)
        view = self.points[: self.grid_size + 9 * n_items]
        view.setflags(write=False)
        return view


class MapView:
    """One map's grid and furniture layer, and all derived from them: the
    risk field and the goal, path and table-top stores.  `Simulation` drops
    its view on each detection frame, the one event that changes the map, so
    no result outlives its map; a layer added later must drop it on each
    change.  A top's refits and surfaces are keyed on the inlier index set,
    which fixes the inlier points: point i is the same in each of its clouds."""

    def __init__(self, grid: GridMap, layer: FurnitureLayer):
        self.grid, self.layer = grid, layer
        self._goals: dict[tuple[str, tuple[float, float]], NavGoal] = {}
        self._paths: dict[tuple[CellIndex, CellIndex], tuple[list[CellIndex], int]] = {}  # path, lethal cells
        self._tops: dict[str, TableTop] = {}

    @cached_property
    def risk(self) -> RiskField:
        """The layers combined: the grid with every furniture footprint marked,
        inflated by the robot radius, on first read (a map no call reads costs none)."""
        return inflate(self.layer.virtual_obstacles(self.grid), ROBOT_RADIUS_M)

    def goal(self, target: FurnitureInstance, pose: Pose2D) -> NavGoal:
        """`select_goal` from the candidate point that `select_candidate`
        picks for the robot pose, run once per table side: the store is keyed
        on the table and that point, and a table id names one instance within
        a view.  A `NoGoalError` is raised again on every try, never stored.
        """
        key = (target.id, select_candidate(candidate_points(target), pose))
        goal = self._goals.get(key)
        if goal is None:
            goal = self._goals[key] = select_goal(self.risk, target, key[1])
        return goal

    def path(self, start: CellIndex, goal: CellIndex) -> tuple[list[CellIndex], int]:
        """`plan_path(risk, start, goal)`, run once per endpoint pair, with the
        count of its cells at `RISK_MAX`, taken once when it is planned.

        A pair planned on this view returns its stored path, and its reverse
        pair that path reversed.  Moves and costs are symmetric (a diagonal
        needs only its target cell free), so the reverse of an optimal path is
        optimal, and every optimal path has the same straight and diagonal step
        counts (see `plan_path`): the logged steps cannot change.  This holds
        for either route of `plan_path`.  The reverse of an octile-length path
        has octile length, so a pair the DP answered has its reverse answered
        by the DP too; a pair A* answered has no octile-length path either way,
        so A* would answer its reverse as well.  The reverse holds the same
        cells, so it keeps the count.
        """
        route = self._paths.get((start, goal))
        if route is None:
            back = self._paths.get((goal, start))
            if back is not None:
                route = (back[0][::-1], back[1])
            else:
                risk = self.risk
                path = plan_path(risk, start, goal)
                cols, rows = zip(*path)
                route = (path, int(np.count_nonzero(risk.risk[rows, cols] >= RISK_MAX)))
            self._paths[start, goal] = route
        return route

    def top(self, table: FurnitureInstance) -> TableTop:
        """`table`'s `TableTop`, made on first use; within a view an id names one instance."""
        top = self._tops.get(table.id)
        if top is None:
            top = self._tops[table.id] = TableTop(table)
        return top


class Simulation:
    """World state plus the skill machinery; one instance per run."""

    def __init__(self, scenario: Scenario, config: RunConfig, backend=None):
        self.scenario = scenario
        self.config = config
        backend = backend if backend is not None else RuleBackend(scenario.menu)
        self.pipeline = Pipeline(backend, mode=config.mode)

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
        self._view: MapView | None = None
        self._placement_count = 0

    # --- logging ---------------------------------------------------------

    def _log(self, kind: str, **payload) -> None:
        record = {"t": self.t, "event": kind, **payload}
        self.log.append(_encode(record))

    # --- map bookkeeping --------------------------------------------------

    @property
    def view(self) -> MapView:
        """The current map's `MapView`, made on first read after each detection frame."""
        if self._view is None:
            self._view = MapView(self.scenario.grid, self.layer)
        return self._view

    def _apply_detections(self, ev: DetectionFrame) -> None:
        results = self.layer.track_frame(ev.boxes, ev.frame)
        if self.layer.kitchen_id is None:
            try:
                self.layer.set_kitchen(self.scenario.kitchen_table)
            except FurnitureNotFound:
                pass
        self._view = None
        self._log("detections", frame=ev.frame, tracks=[[iid, status.value] for iid, status in results],
                  kitchen=self.layer.kitchen_id)

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
        try:
            goal = self.view.goal(target, self.robot_pose)
            path, collisions = self.view.path(self.robot_cell, goal.cell)
        except (NoGoalError, PathError) as e:
            return failed(str(e))
        self.metrics.collisions += collisions
        self.robot_cell = goal.cell
        self.robot_pose = goal.pose
        self.location = table_id
        self._log("navigate", table=table_id, cell=[goal.cell.col, goal.cell.row], cost=goal.cost,
                  steps=len(path) - 1)
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
        try:
            table = self.layer.get(self.location)  # no table at a location of None either
        except FurnitureNotFound:
            return failed("nowhere to place")
        seed = self.config.seed * 1_000_003 + self._placement_count
        self._placement_count += 1
        try:
            top = self.view.top(table)
            cloud = top.cloud(len(self.table_items.get(table.id, [])))
            plane, inliers = ransac_plane(cloud, seed, top.refits)
            spot = find_placement(cloud, plane, inliers, object_radius=0.05, surfaces=top.surfaces)
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

    def check_caller(self, table_id: str) -> None:
        """The one rule of a caller: a tracked table other than the kitchen.  A
        ValueError names the fault."""
        try:
            self.layer.get(table_id)
        except FurnitureNotFound:
            raise ValueError(f"{table_id!r} is not a tracked table") from None
        if table_id == self.layer.kitchen_id:
            raise ValueError(f"{table_id!r} is the kitchen table")

    def _serve_call(self, table_id: str, index: int, consumed: set[int]) -> None:
        try:
            self.check_caller(table_id)
        except ValueError as e:
            raise ScenarioError(f"event {index}: call table {e}") from None
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
        if is_order and self.placed_at_caller is not None:  # served, whatever failed after the place
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
        self._log("run_end", **self.metrics.to_dict())
        return self.metrics, self.log
