import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_cells, path_cost, relaxation_path_cost
from waiterbot.cli import dispatch
from waiterbot.grid import RISK_MAX, CellIndex, CellState, GridMap, inflate
from waiterbot.sim import (
    Metrics,
    PathError,
    RunConfig,
    ScenarioError,
    Simulation,
    _step_costs,
    load_scenario,
    parse_scenario,
    plan_path,
)
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
            if expected is None:
                with pytest.raises(PathError):
                    plan_path(risk, start, goal)
                continue
            path = plan_path(risk, start, goal)
            check_path(risk, path, start, goal)
            assert path_cost(path) == pytest.approx(expected, abs=1e-9)


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


def pinned_log_digests() -> dict[str, str]:
    lines = (GOLDEN / "restaurant_41_log.sha256").read_text().splitlines()
    return dict(line.split() for line in lines)


@pytest.mark.parametrize("mode", ["parallel", "sequential"])
def test_replay_log_bytes_are_pinned(mode, tmp_path, capsys):
    # a refactor must leave the `run --log` bytes for seed 0 exactly as they are
    log = tmp_path / "run.log"
    args = ["run", "--scenario", str(SCENARIO_PATH), "--mode", mode, "--seed", "0", "--log", str(log)]
    assert dispatch(args) == 0
    assert hashlib.sha256(log.read_bytes()).hexdigest() == pinned_log_digests()[mode]


# the sha256 that `bench/run.py --seed 3` prints for the generated workloads,
# replayed in the pipeline mode the benchmark gives each of them
GENERATED_LOG_SHA256 = {
    ("busy_floor", "parallel"): "457fef3c3b07c1f087207a66eca2ad7b19ea5acc5fb972c03ed7f554c06484d2",
    ("banquet", "sequential"): "ee473792072c8281ba1d1d61109f719d1d520e90c6bb454a62d5663d6cbd1d1b",
}


@pytest.mark.parametrize("workload,mode", sorted(GENERATED_LOG_SHA256))
def test_generated_workload_log_bytes_are_pinned(workload, mode, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_gen", REPO_ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look the module up
    spec.loader.exec_module(gen)
    scenario = load_scenario(gen.write(gen.GENERATORS[workload](3), tmp_path))
    _, log = Simulation(scenario, RunConfig(mode=mode, seed=0)).run()
    digest = hashlib.sha256(("\n".join(log) + "\n").encode()).hexdigest()
    assert digest == GENERATED_LOG_SHA256[workload, mode]


@pytest.mark.parametrize("metrics,line", [
    (Metrics(41, 41, 0, 0, 0), "accuracy         41/41 (1.0000)"),
    (Metrics(41, 0, 41, 0, 0), "accuracy         0/41 (0.0000)"),
    (Metrics(), "accuracy         0/0 (0.0000)"),
])
def test_metrics_render_keeps_the_denominator(metrics, line):
    assert metrics.render().splitlines()[-1] == line
