import hashlib
import json
import math
import re
import subprocess
import sys
import threading
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import gen, table, tabletops
from oracles import all_cells, path_cost, relaxation_path_cost
from waiterbot import placement as placement_module
from waiterbot import sim as sim_module
from waiterbot.cli import dispatch
from waiterbot.formats import DetectionFrame, ScenarioError, detections_from_json, load_scenario, parse_scenario
from waiterbot.geometry import Pose2D
from waiterbot.grid import RISK_MAX, CellIndex, CellState, GridMap, RiskField, inflate, world_to_cell
from waiterbot.navgoal import candidate_points, select_candidate, select_goal
from waiterbot.planner import PathError, _astar, _octile_path, _step_costs, plan_path
from waiterbot.placement import NoSpaceError
from waiterbot.sim import MapView, Metrics, RunConfig, Simulation, TableTop
from waiterbot.tasks import SkillInvocation

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_PATH = REPO_ROOT / "scenarios" / "restaurant_41.json"
GOLDEN = Path(__file__).parent / "golden"


def risk_free(w, h, res=0.1):
    grid = GridMap(res, (0.0, 0.0), np.zeros((h, w), dtype=np.uint8))
    return grid, inflate(grid, 0.0)


class TestPlanPath:
    def test_straight_corridor(self):
        grid, risk = risk_free(10, 3)
        path = plan_path(risk, CellIndex(0, 1), CellIndex(9, 1))
        assert path[0] == CellIndex(0, 1) and path[-1] == CellIndex(9, 1)
        assert path_cost(path) == pytest.approx(9.0)

    def test_start_equals_goal(self):
        grid, risk = risk_free(5, 5)
        assert plan_path(risk, CellIndex(2, 2), CellIndex(2, 2)) == [CellIndex(2, 2)]

    def test_walled_off_goal_unreachable(self):
        cells = np.zeros((7, 7), dtype=np.uint8)
        cells[:, 3] = CellState.OCCUPIED
        grid = GridMap(0.1, (0.0, 0.0), cells)
        risk = inflate(grid, 0.0)
        with pytest.raises(PathError):
            plan_path(risk, CellIndex(0, 0), CellIndex(6, 6))

    def test_inadmissible_endpoint_rejected(self):
        cells = np.zeros((5, 5), dtype=np.uint8)
        cells[0, 0] = CellState.OCCUPIED
        grid = GridMap(0.1, (0.0, 0.0), cells)
        risk = inflate(grid, 0.0)
        with pytest.raises(PathError):
            plan_path(risk, CellIndex(0, 0), CellIndex(4, 4))

    @pytest.mark.parametrize("start, goal, outside", [
        (CellIndex(-1, 0), CellIndex(3, 3), "start CellIndex(col=-1, row=0)"),
        (CellIndex(0, 0), CellIndex(6, 2), "goal CellIndex(col=6, row=2)"),
        (CellIndex(0, 0), CellIndex(2, -1), "goal CellIndex(col=2, row=-1)"),
    ], ids=["start col -1", "goal col 6", "goal row -1"])
    def test_endpoint_off_the_grid_rejected(self, start, goal, outside):
        grid, risk = risk_free(6, 5)
        with pytest.raises(PathError, match=re.escape(f"{outside} lies outside the 6 x 5 grid")):
            plan_path(risk, start, goal)

    @pytest.mark.parametrize("dx, dy", [(5, 2), (2, 5), (-5, 2), (-2, 5), (5, -2), (2, -5), (-5, -2), (-2, -5),
                                        (6, 0), (-6, 0), (0, 6), (0, -6), (4, 4), (-4, 4), (4, -4), (-4, -4)])
    def test_octile_route_answers_every_octant(self, dx, dy):
        """Either axis major, both signs, pure straight and pure diagonal legs.
        Where a leg has both kinds of step, its diagonal first step is blocked."""
        cells = np.zeros((13, 13), dtype=np.uint8)
        start, goal = CellIndex(6, 6), CellIndex(6 + dx, 6 + dy)
        if 0 not in octile_split(start, goal):
            cells[6 + np.sign(dy), 6 + np.sign(dx)] = CellState.OCCUPIED
        risk = inflate(GridMap(0.1, (0.0, 0.0), cells), 0.0)
        path = _octile_path(risk, start, goal)
        assert path is not None
        check_path(risk, path, start, goal)
        assert step_split(path) == octile_split(start, goal)
        assert plan_path(risk, start, goal) == path

    def test_one_cell_wall_forces_the_search(self):
        cells = np.zeros((5, 7), dtype=np.uint8)
        cells[2, 3] = CellState.OCCUPIED
        risk = inflate(GridMap(0.1, (0.0, 0.0), cells), 0.0)
        start, goal = CellIndex(0, 2), CellIndex(6, 2)
        assert _octile_path(risk, start, goal) is None
        path = plan_path(risk, start, goal)
        check_path(risk, path, start, goal)
        assert step_split(path) == (4, 2)
        assert path == _astar(risk, start, goal)

    def test_diagonal_costs_sqrt2(self):
        grid, risk = risk_free(6, 6)
        path = plan_path(risk, CellIndex(0, 0), CellIndex(5, 5))
        assert path_cost(path) == pytest.approx(5 * math.sqrt(2))

    def test_path_cells_stay_admissible(self):
        rng = np.random.default_rng(3)
        cells = (rng.random((20, 20)) < 0.25).astype(np.uint8)
        cells[0, 0] = 0
        cells[19, 19] = 0
        grid = GridMap(0.1, (0.0, 0.0), cells)
        risk = inflate(grid, 0.0)
        try:
            path = plan_path(risk, CellIndex(0, 0), CellIndex(19, 19))
        except PathError:
            return
        assert all(risk.at(c) < RISK_MAX for c in path)

    def test_cost_matches_relaxation_oracle_exhaustively(self):
        rng = np.random.default_rng(9)
        for trial in range(12):
            size = int(rng.integers(5, 13))
            cells = (rng.random((size, size)) < 0.25).astype(np.uint8)
            grid = GridMap(0.1, (0.0, 0.0), cells)
            risk = inflate(grid, 0.0)
            free = [c for c in all_cells(grid) if risk.at(c) < RISK_MAX]
            if len(free) < 2:
                continue
            picks = rng.choice(len(free), size=min(6, len(free)), replace=False)
            for a_idx in picks:
                for b_idx in picks:
                    a, b = free[a_idx], free[b_idx]
                    expected = relaxation_path_cost(risk.risk, a, b)
                    try:
                        got = path_cost(plan_path(risk, a, b))
                    except PathError:
                        got = None
                    if expected is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(expected, abs=1e-9)


def check_path(risk, path, start, goal):
    """Endpoints, 8-adjacent steps and admissible cells."""
    assert path[0] == start and path[-1] == goal
    for a, b in zip(path, path[1:]):
        assert max(abs(a.col - b.col), abs(a.row - b.row)) == 1
    assert all(risk.at(c) < RISK_MAX for c in path)


@pytest.mark.parametrize("density", [0.0, 0.04, 0.1, 0.3])
def test_plan_path_is_optimal_on_random_grids(density):
    """Optimal against the relaxation oracle up to 60 x 60; sparse grids have dense f-ties."""
    rng = np.random.default_rng(round(density * 100) + 17)
    for w, h in [(60, 60), (60, 23), (17, 45), (8, 5)]:
        cells = (rng.random((h, w)) < density).astype(np.uint8) * CellState.OCCUPIED
        risk = inflate(GridMap(0.1, (0.0, 0.0), cells), 0.0)
        free = np.argwhere(risk.risk < RISK_MAX)
        for _ in range(2):
            (r0, c0), (r1, c1) = free[rng.choice(len(free), size=2, replace=False)]
            start, goal = CellIndex(int(c0), int(r0)), CellIndex(int(c1), int(r1))
            expected = relaxation_path_cost(risk.risk, start, goal)
            # plan_path, and A* alone: at density 0 every leg has octile length,
            # so plan_path never reaches the search there
            for plan in (plan_path, _astar):
                if expected is None:
                    with pytest.raises(PathError):
                        plan(risk, start, goal)
                    continue
                path = plan(risk, start, goal)
                check_path(risk, path, start, goal)
                assert path_cost(path) == pytest.approx(expected, abs=1e-9)


def step_split(path):
    """(straight, diagonal) step counts of a cell path."""
    diagonal = sum(1 for a, b in zip(path, path[1:]) if a.col != b.col and a.row != b.row)
    return len(path) - 1 - diagonal, diagonal


def octile_split(a, b):
    """(straight, diagonal) step counts of a path of octile length from a to b."""
    dx, dy = abs(b.col - a.col), abs(b.row - a.row)
    return max(dx, dy) - min(dx, dy), min(dx, dy)


@st.composite
def grid_and_endpoints(draw):
    w, h = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    draws = draw(st.lists(st.integers(0, 3), min_size=w * h, max_size=w * h))
    cells = (np.array(draws).reshape(h, w) == 0).astype(np.uint8) * CellState.OCCUPIED  # about 1 in 4
    a, b = (CellIndex(draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))) for _ in range(2))
    cells[a.row, a.col] = cells[b.row, b.col] = CellState.FREE
    return inflate(GridMap(0.1, (0.0, 0.0), cells), 0.0), a, b


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grid_and_endpoints())
def test_reversed_path_is_an_optimal_path_back(case):
    """What the simulator's route store relies on: from b to a the search finds the
    same straight and diagonal counts as from a to b, and the reverse of the a-to-b
    path is a valid b-to-a path."""
    risk, a, b = case
    for plan in (plan_path, _astar):
        try:
            there = plan(risk, a, b)
        except PathError:
            with pytest.raises(PathError):
                plan(risk, b, a)
            continue
        back = plan(risk, b, a)
        assert step_split(back) == step_split(there)
        check_path(risk, there[::-1], b, a)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(grid_and_endpoints())
def test_octile_route_answers_exactly_the_octile_length_legs(case):
    """The DP finds a path exactly when A*'s path has octile length; its path is
    free, 8-connected, and has A*'s straight and diagonal counts."""
    risk, a, b = case
    try:
        searched = step_split(_astar(risk, a, b))
    except PathError:
        searched = None
    path = _octile_path(risk, a, b)
    assert (path is not None) == (searched == octile_split(a, b))
    if path is not None:
        check_path(risk, path, a, b)
        assert step_split(path) == searched


# the largest grid the bound is checked for: 360 x 240 cells, f-values of at most
# 2 * cells steps.  PELL holds (p, q) with p**2 - 2 * q**2 = +-1, the closest
# approaches of p straight steps to q diagonal ones.
CELLS = 360 * 240
BOUND = 2 * CELLS
PELL = [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (239, 169), (577, 408),
        (1393, 985), (3363, 2378), (8119, 5741), (19601, 13860), (47321, 33461), (114243, 80782)]


@st.composite
def step_counts(draw):
    m = draw(st.integers(0, BOUND))
    return m, draw(st.integers(0, BOUND - m))


@st.composite
def near_ties(draw):
    p, q = draw(st.sampled_from(PELL))
    m0 = draw(st.integers(0, BOUND - p))
    k0 = draw(st.integers(0, BOUND - p - m0))
    return (m0 + p, k0), (m0, k0 + q)


def exact_sign(dm: int, dk: int) -> int:
    """Sign of dm + dk * sqrt(2), in integers."""
    if dm >= 0 and dk >= 0 or dm <= 0 and dk <= 0:
        return (dm + dk > 0) - (dm + dk < 0)
    # opposite signs: compare dm**2 with 2 * dk**2
    larger = dm * dm > 2 * dk * dk
    return (1 if larger else -1) * (1 if dm > 0 else -1)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(st.tuples(step_counts(), step_counts()), near_ties()))
def test_integer_step_costs_keep_the_exact_order(pair):
    (m1, k1), (m2, k2) = pair
    step, diag = _step_costs(CELLS)
    diff = (m1 * step + k1 * diag) - (m2 * step + k2 * diag)
    assert (diff > 0) - (diff < 0) == exact_sign(m1 - m2, k1 - k2)


class TestScenarioLoading:
    def test_shipped_scenario_loads(self):
        scenario = load_scenario(SCENARIO_PATH)
        assert scenario.kitchen_table == "table_5"
        assert len(scenario.menu.items) == 6

    @pytest.mark.parametrize("nav_params", [
        {"window_half_width": 1.5, "alpha": 10.0, "clearance": 0.2, "robot_radius": 0.25},
        {"robot_radius": 0.25, "clearance": 0.2, "alpha": 10, "window_half_width": 1.5},
        None,
    ], ids=["reordered", "integer alpha", "absent"])
    def test_nav_params_stating_the_fixed_settings_load(self, nav_params):
        doc = json.loads(SCENARIO_PATH.read_text())
        if nav_params is None:
            del doc["world"]["nav_params"]
        else:
            doc["world"]["nav_params"] = nav_params
        parse_scenario(doc, SCENARIO_PATH.parent)  # a refused key raises ScenarioError

    def test_decreasing_timestamps_rejected(self):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["events"][1]["t"] = -1.0
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc, SCENARIO_PATH.parent)
        assert "event 1" in str(err.value)

    def test_unknown_event_type_rejected(self):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["events"].append({"t": 1e9, "type": "earthquake"})
        with pytest.raises(ScenarioError):
            parse_scenario(doc, SCENARIO_PATH.parent)

    def test_missing_field_names_event_index(self):
        doc = json.loads(SCENARIO_PATH.read_text())
        del doc["events"][0]["frame"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc, SCENARIO_PATH.parent)
        assert "event 0" in str(err.value)

    def test_call_to_unknown_table_fails_at_that_event(self):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["events"] = [e for e in doc["events"] if e["type"] in ("detections",)]
        doc["events"].append({"t": 99.0, "type": "call", "table": "table_99"})
        scenario = parse_scenario(doc, SCENARIO_PATH.parent)
        with pytest.raises(ScenarioError):
            Simulation(scenario, RunConfig()).run()

    def test_empty_scenario_yields_zero_metrics(self):
        doc = json.loads(SCENARIO_PATH.read_text())
        doc["events"] = []
        scenario = parse_scenario(doc, SCENARIO_PATH.parent)
        metrics, log = Simulation(scenario, RunConfig()).run()
        assert metrics == Metrics()


@pytest.fixture(scope="module")
def ready_sim():
    scenario = load_scenario(SCENARIO_PATH)
    sim = Simulation(scenario, RunConfig())
    sim.warm_up()
    return sim


class TestSimulatedSkills:
    def test_detect_present_item(self, ready_sim):
        sim = ready_sim
        sim.location = sim.layer.kitchen_id
        result = sim.simulate_skill(SkillInvocation("detect", "cola"))
        assert result.ok
        assert sim.perceived == "cola"

    def test_detect_missing_item(self, ready_sim):
        sim = ready_sim
        sim.location = "table_0"
        sim.table_items.pop("table_0", None)
        assert not sim.simulate_skill(SkillInvocation("detect", "cola")).ok

    def test_place_without_item_fails(self, ready_sim):
        sim = ready_sim
        sim.carried = None
        result = sim.simulate_skill(SkillInvocation("place", "cola"))
        assert not result.ok and result.reason == "empty gripper"

    def test_grasp_place_moves_item(self, ready_sim):
        sim = ready_sim
        sim.location = sim.layer.kitchen_id
        before = sim.kitchen_stock["green tea"]
        assert sim.simulate_skill(SkillInvocation("detect", "green tea")).ok
        assert sim.simulate_skill(SkillInvocation("grasp", "green tea")).ok
        assert sim.kitchen_stock["green tea"] == before - 1
        assert sim.carried == "green tea"
        sim.location = "table_1"
        sim.caller = "table_1"
        assert sim.simulate_skill(SkillInvocation("place", "green tea")).ok
        assert sim.table_items["table_1"] == ["green tea"]
        assert sim.carried is None


def test_a_table_beyond_the_raster_budget_fails_before_the_fit(monkeypatch):
    def fit(cloud, seed, refits):
        raise AssertionError("ransac_plane ran")

    monkeypatch.setattr(sim_module, "ransac_plane", fit)
    sim = Simulation(load_scenario(SCENARIO_PATH), RunConfig())
    sim.layer.restore(table("hall_0", (30.0, 30.0, 0.36), (24.0, 24.0, 0.72)))  # 1198 x 1198 cells at 2 cm
    sim.location = "hall_0"
    result = sim.simulate_skill(SkillInvocation("find_placement"))
    assert result.reason == "tabletop of 480 x 480 samples and 1198 x 1198 cells exceeds the 250000-cell budget"


def first_order(*faults):
    """restaurant_41's map and its first order (an orange juice to table_0),
    with a `fail` fault armed per (skill, trigger) in `faults`."""
    doc = json.loads(SCENARIO_PATH.read_text())
    events = doc["events"]
    call = next(i for i, ev in enumerate(events) if ev["type"] == "call")
    doc["events"] = [ev for ev in events if ev["type"] == "detections"]
    doc["events"] += [{"t": 1.0, "type": "fault", "skill": skill, "trigger": trigger, "mode": "fail"}
                      for skill, trigger in faults]
    doc["events"] += events[call:call + 2]
    return parse_scenario(doc, SCENARIO_PATH.parent)


@pytest.mark.parametrize("faults,failures,counts", [
    # navigate 0 is the approach to the caller; navigate 1 is the order's first skill
    ([("navigate", 1)], ["navigate(kitchen_table) FAILED(navigation fault)"], (1, 0, 0)),
    ([("grasp", 0)], ["grasp(orange juice) FAILED(grasp fault)"], (1, 0, 0)),
    # only the detect recovery hands over
    ([("detect", 0), ("hand_over", 0)], ["detect(orange juice) FAILED(not found)",
                                         "hand_over(orange juice) FAILED(hand-over fault)"], (1, 0, 0)),
    ([("find_placement", 0)], ["find_placement() FAILED(no space)"], (1, 0, 0)),
    ([("place", 0)], ["place(orange juice) FAILED(place fault)"], (1, 0, 0)),
    # the confirmation fails after the item was placed: the order is served
    ([("speak", 0)], ["speak(confirmation) FAILED(speech fault)"], (1, 1, 0)),
], ids=["navigate", "grasp", "hand_over", "find_placement", "place", "speak"])
def test_fail_fault_on_each_skill_kind(faults, failures, counts):
    metrics, log = Simulation(first_order(*faults), RunConfig(mode="sequential")).run()
    records = [json.loads(line) for line in log]
    skills = [f"{r['skill']} {r['result']}" for r in records if r["event"] == "skill"]
    assert [s for s in skills if not s.endswith(" OK")] == failures
    assert skills[-1] == failures[-1]  # no recovery: the task stops at the fault
    done, = (r for r in records if r["event"] == "task_done")
    assert done["outcome"] == "FAILED"
    assert (metrics.orders_total, metrics.served_correct, metrics.served_incorrect) == counts
    unserved = sum(r["event"] == "task_done" and r["task"] == "serve_order" and r["served"] is None for r in records)
    assert metrics.orders_total == metrics.served_correct + metrics.served_incorrect + unserved


def first_frame():
    doc = json.loads(SCENARIO_PATH.read_text())
    return next(ev["boxes"] for ev in doc["events"] if ev["type"] == "detections")


class TestRouteStore:
    """`Simulation` runs `plan_path` once per endpoint pair and map."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def plan(risk, start, goal):
            calls.append((start, goal))
            return plan_path(risk, start, goal)

        monkeypatch.setattr(sim_module, "plan_path", plan)
        sim = Simulation(load_scenario(SCENARIO_PATH), RunConfig(mode="sequential"))
        sim._apply_detections(DetectionFrame(0, detections_from_json(first_frame())))
        return sim, calls

    @staticmethod
    def navigate(sim, table):
        assert sim.simulate_skill(SkillInvocation("navigate", table)).ok
        return json.loads(sim.log[-2])  # the navigate record, before the skill record

    def test_return_leg_reuses_the_outward_path(self, counted):
        sim, calls = counted
        at_a = self.navigate(sim, "table_1")
        calls.clear()
        out = self.navigate(sim, "table_4")
        back = self.navigate(sim, "table_1")
        assert back["cell"] == at_a["cell"]
        assert len(calls) == 1
        assert back["steps"] == out["steps"] > 0
        # no log line shows a path's direction, so read the stored return leg's ends
        there, here = CellIndex(*out["cell"]), CellIndex(*at_a["cell"])
        path, _ = sim.view.path(there, here)
        assert (path[0], path[-1]) == (there, here) and len(calls) == 1

    def test_a_new_frame_empties_the_store(self, counted):
        sim, calls = counted
        self.navigate(sim, "table_1")
        before = self.navigate(sim, "table_4")
        self.navigate(sim, "table_1")
        # a small table pushed into the straight corridor between the two goals
        boxes = first_frame() + [{"class": "table", "center": [5.0, 3.7, 0.36], "dims": [0.8, 0.6, 0.72]}]
        sim._apply_detections(DetectionFrame(1, detections_from_json(boxes)))
        calls.clear()
        after = self.navigate(sim, "table_4")
        assert len(calls) == 1
        assert after["cell"] == before["cell"]
        assert after["steps"] > before["steps"]


class TestGoalStore:
    """`Simulation` runs `select_goal` once per table side and map."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def select(risk, target, candidate):
            calls.append(target.id)
            return select_goal(risk, target, candidate)

        monkeypatch.setattr(sim_module, "select_goal", select)
        sim = Simulation(load_scenario(SCENARIO_PATH), RunConfig(mode="sequential"))
        sim._apply_detections(DetectionFrame(0, detections_from_json(first_frame())))
        return sim, calls

    navigate = staticmethod(TestRouteStore.navigate)

    def test_return_leg_reuses_the_outward_goal(self, counted):
        sim, calls = counted
        at_a = self.navigate(sim, "table_1")
        self.navigate(sim, "table_4")
        back = self.navigate(sim, "table_1")
        assert calls == ["table_1", "table_4"]
        assert back["cell"] == at_a["cell"] and back["cost"] == at_a["cost"]

    def test_another_side_of_the_table_searches_again(self, counted):
        sim, calls = counted
        first = self.navigate(sim, "table_1")
        target = sim.layer.get("table_1")
        points = candidate_points(target)
        side = select_candidate(points, sim.robot_pose)
        other = next(p for p in points if p != side)
        sim.robot_pose = Pose2D(*other, 0.0)
        sim.robot_cell = world_to_cell(sim.scenario.grid, other)
        calls.clear()
        again = self.navigate(sim, "table_1")
        assert calls == ["table_1"]
        assert again["cell"] != first["cell"]

    def test_a_new_frame_empties_the_store(self, counted):
        sim, calls = counted
        before = self.navigate(sim, "table_1")
        sim._apply_detections(DetectionFrame(1, detections_from_json(first_frame())))
        calls.clear()
        after = self.navigate(sim, "table_1")
        assert calls == ["table_1"]
        assert after["cell"] == before["cell"]

    def test_no_goal_is_never_stored(self, counted):
        sim, calls = counted
        # a table off the map: its candidate windows miss the grid
        boxes = first_frame() + [{"class": "table", "center": [-5.0, -5.0, 0.36], "dims": [0.8, 0.6, 0.72]}]
        sim._apply_detections(DetectionFrame(1, detections_from_json(boxes)))
        calls.clear()
        logged = len(sim.log)
        for _ in range(2):
            result = sim.simulate_skill(SkillInvocation("navigate", "table_6"))
            assert result.reason == "candidate window misses the map"
        assert calls == ["table_6", "table_6"]
        assert not any('"event": "navigate"' in line for line in sim.log[logged:])


class TestSurfaceStore:
    """A map's view keeps one `TableTop` per table: its points, then the refit
    of each inlier set and the basis, hull and hull raster of each fitted
    surface, each made once."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Per kind, the entries the placements added."""
        added = {"tops": 0, "refits": 0, "surfaces": 0}
        refit, build = placement_module._refit, placement_module._build_surface

        class CountedTop(TableTop):
            def __init__(self, table_):
                super().__init__(table_)
                added["tops"] += 1

        def counted_refit(points):
            added["refits"] += 1
            return refit(points)

        def counted_build(basis, s_in, t_in):
            added["surfaces"] += 1
            return build(basis, s_in, t_in)

        monkeypatch.setattr(sim_module, "TableTop", CountedTop)
        monkeypatch.setattr(placement_module, "_refit", counted_refit)
        monkeypatch.setattr(placement_module, "_build_surface", counted_build)
        return added

    @pytest.mark.parametrize("workload,mode,surfaces,placements", [
        ("restaurant_41", "parallel", 5, 41),
        ("banquet", "sequential", 4, 16),
        ("busy_floor", "parallel", 5, 5),
    ])
    def test_one_replay_builds_one_surface_per_top_and_map(self, built, monkeypatch, tmp_path,
                                                           workload, mode, surfaces, placements):
        # the benchmark's workloads at generator seed 3: the share of placements
        # that repeat a top is what the store saves
        if workload == "restaurant_41":
            path = SCENARIO_PATH
        else:
            path = gen.write(gen.GENERATORS[workload](3), tmp_path)
        calls = []
        place = sim_module.find_placement
        monkeypatch.setattr(sim_module, "find_placement", lambda *a, **kw: calls.append(1) or place(*a, **kw))
        Simulation(load_scenario(path), RunConfig(mode=mode)).run()
        assert len(calls) == placements
        # one top, one refit and one surface per fitted surface
        assert built == {"tops": surfaces, "refits": surfaces, "surfaces": surfaces}

    def test_a_new_frame_replaces_the_view(self, built):
        sim = Simulation(load_scenario(SCENARIO_PATH), RunConfig(mode="sequential"))
        sim._apply_detections(DetectionFrame(0, detections_from_json(first_frame())))
        sim.location = "table_1"
        for _ in range(2):
            assert sim.simulate_skill(SkillInvocation("find_placement")).ok
        view = sim.view
        top = view.top(sim.layer.get("table_1"))
        assert (len(top.refits), len(top.surfaces)) == (1, 1)
        assert built == {"tops": 1, "refits": 1, "surfaces": 1}
        first, again = (r["point"] for r in map(json.loads, sim.log) if r["event"] == "placement")
        assert first == again
        sim._apply_detections(DetectionFrame(1, detections_from_json(first_frame())))
        assert sim.view is not view
        assert sim.simulate_skill(SkillInvocation("find_placement")).ok
        assert built == {"tops": 2, "refits": 2, "surfaces": 2}

    def test_tabletop_cloud_with_its_store_matches_the_loop(self):
        # each cloud is a prefix of its top's points, also after they grow by a slot row or more
        tables = [table_ for table_, _ in tabletops()]  # 18 tables of two sizes, rotated
        for counts in ((*range(18), 5, 0, 17), tuple(range(17, -1, -1)), (0, 4, 5, 9, 16, 3)):
            for table_ in tables:
                top = TableTop(table_)
                grid = len(oracles.loop_tabletop_cloud(table_, 0))
                assert top.points.shape == (grid, 3)  # no item slot before a cloud asks for one
                slots = 0
                for n_items in counts:
                    fast = top.cloud(n_items)
                    slow = oracles.loop_tabletop_cloud(table_, n_items)
                    assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes()
                    assert not fast.flags.writeable and fast.base is top.points
                    slots = max(slots, -(-n_items // 4) * 4)  # up to the end of the next full row of 4
                    assert top.points.shape == (grid + 9 * slots, 3)

    def test_an_over_budget_top_raises_on_every_call_and_stores_nothing(self):
        # a stored top would be returned by the second call, not raised again
        view = Simulation(load_scenario(SCENARIO_PATH), RunConfig()).view
        hall = table("hall_0", (30.0, 30.0, 0.36), (24.0, 24.0, 0.72))
        for _ in range(2):
            with pytest.raises(NoSpaceError, match="exceeds the 250000-cell budget"):
                view.top(hall)


def test_collisions_count_on_every_walk_of_a_path_but_are_read_once(monkeypatch):
    """A path through the lethal region adds its collisions on each walk, the
    reversed and the stored walks too; its cells are read once, when planned."""
    sim = Simulation(load_scenario(SCENARIO_PATH), RunConfig(mode="sequential"))
    sim._apply_detections(DetectionFrame(0, detections_from_json(first_frame())))
    risk = sim.view.risk
    lethal = next(c for c in all_cells(sim.scenario.grid) if risk.at(c) >= RISK_MAX)
    planned = []
    monkeypatch.setattr(sim_module, "plan_path",
                        lambda risk, start, goal: planned.append(start) or [start, lethal, lethal, goal])
    walks = []
    for table_id in ("table_1", "table_4", "table_1", "table_4"):  # planned, planned, reversed, stored
        assert sim.simulate_skill(SkillInvocation("navigate", table_id)).ok
        walks.append(sim.metrics.collisions)
    assert walks == [2, 4, 6, 8]
    assert len(planned) == 2  # the count is taken on the two planned paths only


def test_a_planned_path_counts_the_cells_that_a_per_cell_read_counts(monkeypatch):
    """`MapView.path` counts a path's lethal cells in one array read; on random
    paths, repeats and single cells too, it gives the per-cell count."""
    sim = Simulation(load_scenario(SCENARIO_PATH), RunConfig(mode="sequential"))
    sim.warm_up()
    risk = sim.view.risk
    rng = np.random.default_rng(7)
    cells = list(all_cells(sim.scenario.grid))
    lethal = [c for c in cells if risk.at(c) >= RISK_MAX]
    assert 0 < len(lethal) < len(cells)
    for trial in range(200):
        pool = lethal if trial % 4 == 0 else cells
        path = [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(1, 60)))]
        monkeypatch.setattr(sim_module, "plan_path", lambda risk, start, goal: path)
        view = MapView(sim.scenario.grid, sim.layer)  # one with no stored path
        assert view.path(path[0], path[-1]) == (path, sum(1 for c in path if risk.at(c) >= RISK_MAX))


@pytest.fixture(scope="module")
def restaurant_risk():
    """The restaurant_41 map after every detection frame, and its risk field."""
    sim = Simulation(load_scenario(SCENARIO_PATH), RunConfig())
    sim.warm_up()
    return sim, sim.view.risk


def test_the_view_risk_field_is_one_byte_per_cell(restaurant_risk):
    sim, risk = restaurant_risk
    grid = sim.scenario.grid
    assert risk.risk.dtype == np.uint8 and risk.risk.nbytes == grid.width * grid.height
    assert set(np.unique(risk.risk).tolist()) == {0, RISK_MAX}


@pytest.fixture(scope="module")
def outcome():
    return Simulation(load_scenario(SCENARIO_PATH), RunConfig(mode="parallel", seed=0)).run()


class TestFullRun:
    def test_matches_scripted_aggregates(self, outcome):
        metrics, _ = outcome
        assert metrics.orders_total == 41
        assert metrics.served_correct == 37
        assert metrics.served_incorrect == 4
        assert metrics.assisted == 7
        assert metrics.collisions == 0

    def test_six_tables_one_kitchen(self, outcome):
        scenario = load_scenario(SCENARIO_PATH)
        sim = Simulation(scenario, RunConfig())
        sim.warm_up()
        assert not any('"event": "call"' in line for line in sim.log)
        ids = [i.id for i in sim.layer.instances()]
        assert ids == [f"table_{k}" for k in range(6)]
        assert sim.layer.kitchen_id == "table_5"

    def test_replay_is_log_identical(self, outcome):
        metrics2, log2 = Simulation(load_scenario(SCENARIO_PATH), RunConfig(mode="parallel", seed=0)).run()
        assert outcome[0] == metrics2
        assert outcome[1] == log2

    def test_item_conservation(self, outcome):
        scenario = load_scenario(SCENARIO_PATH)
        sim = Simulation(scenario, RunConfig())
        sim.run()
        for item in scenario.stock:
            total = sim.kitchen_stock.get(item, 0)
            total += sum(items.count(item) for items in sim.table_items.values())
            total += 1 if sim.carried == item else 0
            assert total == scenario.stock[item]

    def test_trajectories_stay_off_risk(self, outcome):
        # navigation logs carry goal cells; the collision counter is the
        # aggregate assertion, and it must be exactly zero
        metrics, log = outcome
        assert metrics.collisions == 0
        assert sum(1 for line in log if '"event": "navigate"' in line) > 80

    def test_wrong_item_orders_served_anyway(self, outcome):
        metrics, log = outcome
        records = [json.loads(line) for line in log]
        wrong = [
            r for r in records
            if r["event"] == "task_done" and r["task"] == "serve_order"
            and r["served"] is not None and r["served"] != r["ordered"]
        ]
        assert len(wrong) == 4
        assert all(r["outcome"] == "COMPLETED" for r in wrong)  # served, not aborted
        assert metrics.served_incorrect == 4

    def test_assists_emit_hand_over_help(self, outcome):
        _, log = outcome
        helps = [line for line in log if "Could you place it in my hand" in line]
        assert len(helps) >= 7


def test_metrics_round_trip():
    m = Metrics(41, 37, 4, 7, 0)
    doc = m.to_dict()
    assert json.loads(json.dumps(doc)) == doc == {
        "orders_total": 41, "served_correct": 37, "served_incorrect": 4,
        "assisted": 7, "collisions": 0, "accuracy": "37/41",
    }


def test_metrics_accuracy_empty():
    assert Metrics().accuracy == 0


@pytest.mark.parametrize("metrics,accuracy", [
    (Metrics(16, 14, 2, 3, 0), "14/16"),  # a banquet run: 14 of 16 orders
    (Metrics(5, 5, 0, 0, 0), "5/5"),
    (Metrics(), "0/0"),
])
def test_metrics_dict_keeps_the_denominator(metrics, accuracy):
    assert metrics.to_dict()["accuracy"] == accuracy
    assert metrics.render().splitlines()[-1].split()[1] == accuracy


def pinned_log_digest(workload: str, generator_seed: str, run_seed: int, mode: str) -> str:
    """The log sha256 that `tests/golden/replay_digests.txt` pins for one replay."""
    for line in (GOLDEN / "replay_digests.txt").read_text().splitlines():
        *replay, digest = line.split()
        if replay == [workload, generator_seed, str(run_seed), mode]:
            return digest
    raise KeyError(f"{workload} {generator_seed} {run_seed} {mode} is not pinned")


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_replay_log_bytes_are_pinned(mode, tmp_path, capsys):
    # a refactor must leave the `run --log` bytes for seed 0 exactly as they are
    log = tmp_path / "run.log"
    args = ["run", "--scenario", str(SCENARIO_PATH), "--mode", mode, "--seed", "0", "--log", str(log)]
    assert dispatch(args) == 0
    assert hashlib.sha256(log.read_bytes()).hexdigest() == pinned_log_digest("restaurant_41", "-", 0, mode)


def test_parallel_replay_with_the_rule_backend_starts_no_thread(monkeypatch):
    # the rule backend does not block, so parallel mode answers on the caller's thread
    before = set(threading.enumerate())
    seen = []
    simulation = Simulation(load_scenario(SCENARIO_PATH), RunConfig(mode="parallel", seed=3))
    skill = simulation.simulate_skill
    monkeypatch.setattr(simulation, "simulate_skill",
                        lambda inv: seen.append(set(threading.enumerate())) or skill(inv))
    metrics, _ = simulation.run()
    assert metrics.orders_total == 41 and seen
    assert all(threads == before for threads in seen)
    assert set(threading.enumerate()) == before


def test_the_replay_digest_matrix_is_pinned():
    # every log of `scripts/replay_digests.py`'s 36 replays (restaurant_41 and two
    # generated workloads at several generator and run seeds, both modes) keeps its bytes
    script = REPO_ROOT / "scripts" / "replay_digests.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == (GOLDEN / "replay_digests.txt").read_text().splitlines()


class Forgetful(dict):
    """A store that never keeps an entry."""

    def __setitem__(self, key, value):
        pass


class ForgetfulView(MapView):
    """A `MapView` that keeps nothing: it builds its risk field again on every
    read, from the layer as it is then, its goal and path stores keep no entry,
    and each placement gets a fresh `TableTop`."""

    risk = property(MapView.risk.func)

    def __init__(self, *args):
        super().__init__(*args)
        self._goals, self._paths, self._tops = Forgetful(), Forgetful(), Forgetful()


def storeless_log(scenario, config: RunConfig, monkeypatch) -> list[str]:
    """The replay log of `scenario` with a `ForgetfulView` for every map."""
    with monkeypatch.context() as patch:
        patch.setattr(sim_module, "MapView", ForgetfulView)
        return Simulation(scenario, config).run()[1]


def run_with_and_without_stores(scenario: Path, mode: str, seed: int, out: Path):
    """`waiterbot run` on `scenario` with its views, then with a `ForgetfulView`
    for every map (as in `storeless_log`): each side's exit code and log bytes."""
    sides = []
    for side, view in (("stored", MapView), ("storeless", ForgetfulView)):
        log = out / f"{side}.log"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim_module, "MapView", view)
            code = dispatch(["run", "--scenario", str(scenario), "--mode", mode, "--seed", str(seed),
                             "--log", str(log)])
        sides.append((code, log.read_bytes() if log.exists() else None))
    return sides


def restaurant_with_a_crate():
    """restaurant_41 with a crate set down at (8, 3) in a frame between its fifth
    and sixth call: that frame changes goals and paths the replay has stored."""
    doc = json.loads(SCENARIO_PATH.read_text())
    events = doc["events"]
    boxes = [*events[1]["boxes"], {"class": "crate", "center": [8.0, 3.0, 0.25], "dims": [0.4, 0.4, 0.5]}]
    sixth = [i for i, ev in enumerate(events) if ev["type"] == "call"][5]
    events.insert(sixth, {"t": events[sixth]["t"] - 1.0, "type": "detections", "frame": 2, "boxes": boxes})
    return parse_scenario(doc, SCENARIO_PATH.parent)


def restaurant_with_a_cleared_table():
    """restaurant_41 with table_0's seventh and eighth utterances asking to
    clear the table: its top, grown to two rows of item slots for six items,
    then serves the cloud of four."""
    doc = json.loads(SCENARIO_PATH.read_text())
    asked = [ev for ev in doc["events"] if ev["type"] == "utterance" and ev["table"] == "table_0"]
    for ev in asked[6:8]:
        ev["text"] = "Please clear the table."
    return parse_scenario(doc, SCENARIO_PATH.parent)


def test_no_store_changes_a_replay_log(monkeypatch, tmp_path):
    # each store is exact: restaurant_41, the two generated workloads, a world
    # whose map changes under stored goals and paths and one whose table loses
    # items replay to the same bytes with a view that keeps nothing (16 replays
    # each way, about 2.6 s)
    replays = [(load_scenario(SCENARIO_PATH), RunConfig(mode="parallel", seed=seed)) for seed in (0, 3)]
    replays += [(restaurant_with_a_crate(), RunConfig(mode="parallel")),
                (restaurant_with_a_cleared_table(), RunConfig(mode="parallel"))]
    for workload, mode in (("busy_floor", "parallel"), ("banquet", "sequential")):
        for seed in range(4):
            path = gen.write(gen.GENERATORS[workload](seed), tmp_path / f"{workload}_{seed}")
            replays.append((load_scenario(path), RunConfig(mode=mode, seed=0)))
    for scenario, config in replays:
        assert storeless_log(scenario, config, monkeypatch) == Simulation(scenario, config).run()[1]


GENERATED_MODES = {"busy_floor": "parallel", "banquet": "sequential"}


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(workload=st.sampled_from(sorted(GENERATED_MODES)), generator_seed=st.integers(0, 999),
       run_seed=st.integers(0, 99))
def test_no_store_changes_a_generated_replay_at_any_seed(workload, generator_seed, run_seed):
    # the generated workloads beyond the fixed seeds above, through `waiterbot run`
    # (8 examples, about 1.3 s)
    with TemporaryDirectory() as tmp:
        path = gen.write(gen.GENERATORS[workload](generator_seed), Path(tmp))
        (code, log), storeless = run_with_and_without_stores(path, GENERATED_MODES[workload], run_seed, Path(tmp))
    assert code in (0, 2) and (code, log) == storeless


def restaurant_doc() -> dict:
    """restaurant_41's document, its grid named by an absolute path."""
    doc = json.loads(SCENARIO_PATH.read_text())
    doc["world"]["grid_file"] = str(SCENARIO_PATH.parent / doc["world"]["grid_file"])
    return doc


def call_indices(events: list[dict]) -> list[int]:
    return [i for i, ev in enumerate(events) if ev["type"] == "call"]


def perturbed_restaurant(turn: bool, table_: int, first: int, gap: int) -> dict:
    """restaurant_41 with two more detection frames: before its `first` call,
    table `table_` moved by one ulp in x (`turn` False) or turned by pi (`turn`
    True); `gap` calls later, if there are that many, back as it was.  Both
    change no cell of the map, so a stored goal or path stays right after
    them only if its key is exact."""
    doc = restaurant_doc()
    events = doc["events"]
    boxes = events[1]["boxes"]
    box = dict(boxes[table_])
    if turn:
        box["yaw"] = box["yaw"] + math.pi
    else:
        box["center"] = [math.nextafter(box["center"][0], math.inf), *box["center"][1:]]
    calls = call_indices(events)
    if first + gap < len(calls):
        at = calls[first + gap]
        events.insert(at, {"t": events[at]["t"], "type": "detections", "frame": 3, "boxes": boxes})
    at = calls[first]
    moved = [*boxes[:table_], box, *boxes[table_ + 1:]]
    events.insert(at, {"t": events[at]["t"], "type": "detections", "frame": 2, "boxes": moved})
    return doc


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(turn=st.booleans(), table_=st.integers(0, 5), first=st.integers(0, 43), gap=st.integers(1, 20),
       run_seed=st.integers(0, 99))
def test_no_store_changes_the_replay_of_a_perturbed_world(turn, table_, first, gap, run_seed):
    # a table moved by one ulp, or turned by pi, between two frames (10 examples, about 2 s)
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(perturbed_restaurant(turn, table_, first, gap)))
        (code, log), storeless = run_with_and_without_stores(path, "parallel", run_seed, Path(tmp))
    assert code in (0, 2) and (code, log) == storeless


def restaurant_with_a_twin(table_: int, first: int, served: int) -> dict:
    """restaurant_41 with a frame before its `first` call that sees table
    `table_` twice at one pose.  The twin is tracked as `table_6`, and the
    `served` calls from the `first` on go to it.  The two stand at one pose,
    while their ids, their tops and their items differ."""
    doc = restaurant_doc()
    events = doc["events"]
    calls = call_indices(events)
    for i in calls[first : first + served]:
        events[i]["table"] = events[i + 1]["table"] = "table_6"  # the call and its utterance
    boxes = events[1]["boxes"]
    at = calls[first]
    events.insert(at, {"t": events[at]["t"], "type": "detections", "frame": 2, "boxes": [*boxes, boxes[table_]]})
    return doc


# a 1.2 x 0.8 m table's approach points, E W N S: half the table plus robot_radius + clearance out
APPROACHES = ((1.05, 0.0), (-1.05, 0.0), (0.0, 0.85), (0.0, -0.85))


def restaurant_with_a_frame_inside_a_call(call: int, table_: int, side: int) -> dict:
    """restaurant_41 with a frame between its `call`-th call and that call's
    utterance, which sets a crate down on approach point `side` of table
    `table_`.  A call takes its utterance when it is served, so the frame comes
    after the whole task and changes the map under the goals and paths the
    task stored."""
    doc = restaurant_doc()
    events = doc["events"]
    x, y, _ = events[1]["boxes"][table_]["center"]
    dx, dy = APPROACHES[side]
    crate = {"class": "crate", "center": [x + dx, y + dy, 0.25], "dims": [0.4, 0.4, 0.5]}
    boxes = [*events[1]["boxes"], crate]
    at = call_indices(events)[call] + 1
    events.insert(at, {"t": events[at]["t"], "type": "detections", "frame": 2, "boxes": boxes})
    return doc


WORLDS = st.one_of(
    st.builds(restaurant_with_a_twin, table_=st.integers(0, 5), first=st.integers(0, 43),
              served=st.integers(1, 10)),
    st.builds(restaurant_with_a_frame_inside_a_call, call=st.integers(0, 43), table_=st.integers(0, 5),
              side=st.integers(0, 3)),
)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(doc=WORLDS, run_seed=st.integers(0, 99))
def test_no_store_changes_the_replay_of_a_twin_or_a_frame_inside_a_call(doc, run_seed):
    # two equal tables at one pose, or a crate set down between a call and its
    # utterance (12 examples, about 2.4 s)
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        (code, log), storeless = run_with_and_without_stores(path, "parallel", run_seed, Path(tmp))
    assert code in (0, 2) and (code, log) == storeless


@pytest.mark.parametrize("metrics,line", [
    (Metrics(41, 41, 0, 0, 0), "accuracy         41/41 (1.0000)"),
    (Metrics(41, 0, 41, 0, 0), "accuracy         0/41 (0.0000)"),
    (Metrics(), "accuracy         0/0 (0.0000)"),
])
def test_metrics_render_keeps_the_denominator(metrics, line):
    assert metrics.render().splitlines()[-1] == line
