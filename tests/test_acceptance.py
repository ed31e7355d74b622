"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see them).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import io
import json
import math
import threading
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

from helpers import save_cloud, table
from oracles import brute_force_goal, exact_iou_3d, naive_inflate
from waiterbot.cli import dispatch
from waiterbot.formats import dump_layers, load_layers, load_scenario
from waiterbot.furniture import Detection3D, FurnitureLayer, TrackStatus
from waiterbot.geometry import Pose2D, iou_3d
from waiterbot.grid import GridMap, inflate, load_grid, save_grid
from waiterbot.llm import Menu, MenuItem
from waiterbot.navgoal import NavGoalParams, NoGoalError, select_goal
from waiterbot.placement import load_cloud, ransac_plane
from waiterbot.sim import Metrics, RunConfig, Simulation
from waiterbot.tasks import OK, Outcome, ParsedTask, Pipeline, execute, failed, render_trace

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO = REPO_ROOT / "scenarios" / "restaurant_41.json"
GOLDEN = Path(__file__).parent / "golden"


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_experiment_reproduction(capsys):
    t0 = time.time()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(["run", "--scenario", str(SCENARIO)])
    elapsed = time.time() - t0
    metrics, _ = Simulation(load_scenario(SCENARIO), RunConfig()).run()
    ok = (
        code == 0
        and metrics.orders_total == 41
        and metrics.served_incorrect == 4
        and metrics.served_correct == 37
        and metrics.accuracy == Fraction(37, 41)
        and metrics.collisions == 0
        and elapsed < 5.0
        and "accuracy         37/41" in buf.getvalue()
    )
    with capsys.disabled():
        report("criterion 1: 41-order run reproduces 37/4/0 in <5s", ok,
               f"{elapsed:.2f}s, accuracy {metrics.accuracy}")


def test_criterion_2_six_table_map(capsys):
    frames = json.loads((REPO_ROOT / "scenarios" / "six_tables.json").read_text())
    layer = FurnitureLayer()
    for entry in frames:
        dets = [
            Detection3D(b["class"], tuple(b["center"]), tuple(b["dims"]), b.get("yaw", 0.0))
            for b in entry["boxes"]
        ]
        layer.track_frame(dets, entry["frame"])
    layer.set_kitchen("table_5")
    ids = [inst.id for inst in layer.instances()]
    kitchens = [iid for iid in ids if iid == layer.kitchen_id]
    ok = ids == [f"table_{k}" for k in range(6)] and kitchens == ["table_5"]
    with capsys.disabled():
        report("criterion 2: detection log yields tables 0..5 with one kitchen", ok,
               ",".join(ids))


def _random_nav_instance(rng):
    w = int(rng.integers(15, 41))
    h = int(rng.integers(15, 41))
    res = 0.1
    cells = (rng.random((h, w)) < float(rng.uniform(0.02, 0.12))).astype(np.uint8)
    grid = GridMap(res, (0.0, 0.0), cells)
    layer = FurnitureLayer()
    cx = float(rng.uniform(0.75, w * res - 0.75))
    cy = float(rng.uniform(0.75, h * res - 0.75))
    dims = (float(rng.uniform(0.6, 1.3)), float(rng.uniform(0.5, 1.0)), 0.72)
    layer.restore(table("t", (cx, cy, 0.36), dims, float(rng.uniform(-math.pi, math.pi))))
    combined = layer.virtual_obstacles(grid)
    risk = inflate(combined, 0.2)
    robot = Pose2D(float(rng.uniform(0, w * res)), float(rng.uniform(0, h * res)))
    params = NavGoalParams(
        robot_radius=0.2,
        clearance=float(rng.uniform(0.0, 0.3)),
        alpha=float(rng.uniform(0.0, 20.0)),
        window_half_width=float(rng.uniform(0.5, 1.2)),
    )
    return combined, risk, layer, robot, params


def _goals_agree(grid, risk, layer, robot, params) -> bool:
    target = layer.get("t")
    try:
        fast = select_goal(risk, target, robot, params)
    except NoGoalError:
        try:
            brute_force_goal(risk, target, robot, params)
            return False
        except NoGoalError:
            return True
    slow = brute_force_goal(risk, target, robot, params)
    return fast.cell == slow.cell and fast.cost == slow.cost


def test_criterion_3_nav_goal_oracle_equivalence(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    agreements = 0
    total = 0
    for _ in range(200):
        grid, risk, layer, robot, params = _random_nav_instance(rng)
        total += 1
        agreements += _goals_agree(grid, risk, layer, robot, params)

    # exhaustive sweep: every free cell as a robot position on a 12x12 map
    cells = (np.random.default_rng(7).random((12, 12)) < 0.1).astype(np.uint8)
    grid12 = GridMap(0.1, (0.0, 0.0), cells)
    layer12 = FurnitureLayer()
    layer12.restore(table("t", (0.6, 0.6, 0.36), (0.6, 0.5, 0.72), 0.3))
    combined12 = layer12.virtual_obstacles(grid12)
    risk12 = inflate(combined12, 0.1)
    params12 = NavGoalParams(robot_radius=0.1, clearance=0.1, alpha=7.0, window_half_width=0.5)
    for row in range(12):
        for col in range(12):
            robot = Pose2D(0.05 + 0.1 * col, 0.05 + 0.1 * row)
            total += 1
            agreements += _goals_agree(combined12, risk12, layer12, robot, params12)
    elapsed = time.time() - t0
    ok = agreements == total and elapsed < 30.0
    with capsys.disabled():
        report("criterion 3: select_goal == brute_force_goal (cell & cost)", ok,
               f"{agreements}/{total} in {elapsed:.1f}s")


def test_criterion_4_risk_field_correctness(capsys):
    rng = np.random.default_rng(5)
    cases = [
        GridMap(0.05, (0, 0), np.zeros((8, 8), dtype=np.uint8)),
        GridMap(0.05, (0, 0), np.ones((8, 8), dtype=np.uint8)),
        GridMap(0.05, (0, 0), (rng.random((8, 8)) < 0.3).astype(np.uint8)),
        GridMap(0.05, (0, 0), (rng.random((16, 16)) < 0.15).astype(np.uint8)),
        GridMap(0.05, (0, 0), (rng.random((32, 32)) < 0.08).astype(np.uint8)),
    ]
    single = np.zeros((9, 9), dtype=np.uint8)
    single[4, 4] = 1
    cases.append(GridMap(0.05, (0, 0), single))

    mismatches = 0
    for grid in cases:
        for cells in range(5):
            radius = cells * grid.resolution
            if not np.array_equal(inflate(grid, radius).risk, naive_inflate(grid, radius)):
                mismatches += 1

    # returned goals and executed trajectories never touch risk 100
    metrics, log = Simulation(load_scenario(SCENARIO), RunConfig()).run()
    goal_ok = metrics.collisions == 0
    ok = mismatches == 0 and goal_ok
    with capsys.disabled():
        report("criterion 4: inflate == naive all-pairs; zero risk-100 contacts", ok,
               f"{len(cases) * 5} grid/radius cases, collisions={metrics.collisions}")


def test_criterion_5_tracking_stability(capsys):
    rng = np.random.default_rng(77)
    retained = 0
    for _ in range(100):
        layer = FurnitureLayer()
        x, y = 0.0, 0.0
        first = layer.track_frame([Detection3D("table", (x, y, 0.5), (1, 1, 1), 0.0)], 0)[0][0]
        kept = True
        for frame in range(1, 11):
            # footprint IoU for a 1x1 box shifted by s is (1-s)/(1+s); 0.25 keeps it >= 0.3
            x += float(rng.uniform(-0.25, 0.25))
            y = 0.0
            (iid, _), = layer.track_frame([Detection3D("table", (x, y, 0.5), (1, 1, 1), 0.0)], frame)
            kept &= iid == first
        retained += kept

    fresh = 0
    for _ in range(100):
        layer = FurnitureLayer()
        seen = set()
        ok = True
        for frame in range(5):
            (iid, status), = layer.track_frame(
                [Detection3D("table", (10.0 * frame, 0, 0.5), (1, 1, 1), 0.0)], frame
            )
            ok &= status is TrackStatus.NEW and iid not in seen
            seen.add(iid)
        fresh += ok

    try:  # optional extra cross-check; the exact oracle alone decides the result
        from shapely.geometry import Polygon
    except ImportError:
        Polygon = None
    rng2 = np.random.default_rng(78)
    worst = shapely_worst = 0.0
    for _ in range(1000):
        boxes = []
        for _ in range(2):
            boxes.append(
                Detection3D(
                    "box",
                    tuple(rng2.uniform(-1, 1, 3).tolist()),
                    tuple(rng2.uniform(0.2, 2.0, 3).tolist()),
                    float(rng2.uniform(-math.pi, math.pi)),
                )
            )
        a, b = boxes
        mine = iou_3d(a, b)
        worst = max(worst, abs(mine - float(exact_iou_3d(a, b))))
        if Polygon is not None:
            pa, pb = Polygon(a.footprint), Polygon(b.footprint)
            dz = max(0.0, min(a.z_interval[1], b.z_interval[1]) - max(a.z_interval[0], b.z_interval[0]))
            inter = pa.intersection(pb).area * dz
            union = pa.area * a.dims[2] + pb.area * b.dims[2] - inter
            shapely_worst = max(shapely_worst, abs(mine - (inter / union if inter > 0 else 0.0)))

    # a rotated table seen twice where it stands far from the origin keeps its id
    far = []
    for shift in (1e5, 1e15, 1e17):
        layer = FurnitureLayer()
        box = Detection3D("table", (shift, 2.0, 0.36), (1.2, 0.8, 0.72), 0.3)
        layer.track_frame([box], 0)
        far.append(layer.track_frame([box], 1) == [("table_0", TrackStatus.MATCHED)])

    ok = retained == 100 and fresh == 100 and worst <= 1e-9 and all(far)
    shapely_note = f"shapely dev {shapely_worst:.2e}" if Polygon is not None else "shapely not installed"
    with capsys.disabled():
        report("criterion 5: ID retention/freshness 100%, also far from the origin; IoU vs exact clipping "
               "oracle <=1e-9", ok, f"retained {retained}/100, fresh {fresh}/100, far self-matches "
               f"{sum(far)}/3, worst dev {worst:.2e}, {shapely_note}")


def test_criterion_6_ransac_quality(capsys):
    t0 = time.time()
    within = 0
    recall_ok = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        n_in, n_out = 420, 180
        xy = rng.uniform(-0.6, 0.6, (n_in, 2))
        inliers = np.column_stack([xy, 0.74 + rng.normal(0, 0.002, n_in)])
        outliers = np.column_stack(
            [rng.uniform(-1, 1, n_out), rng.uniform(-1, 1, n_out), rng.uniform(0, 1, n_out)]
        )
        cloud = np.vstack([inliers, outliers])
        plane, got = ransac_plane(cloud, trial, {})
        angle = math.degrees(math.acos(min(1.0, abs(plane.normal[2]))))
        within += angle <= 2.0
        recall = len(set(got.tolist()) & set(range(n_in))) / n_in
        recall_ok += recall >= 0.95
    a = ransac_plane(cloud, 99, {})
    b = ransac_plane(cloud, 99, {})
    deterministic = a[0] == b[0] and np.array_equal(a[1], b[1])
    elapsed = time.time() - t0
    ok = within >= 99 and recall_ok == 100 and deterministic and elapsed < 10.0
    with capsys.disabled():
        report("criterion 6: RANSAC 2-degree/95%-recall over 100 seeded trials", ok,
               f"within {within}/100, recall_ok {recall_ok}/100, {elapsed:.1f}s")


class _LatchBackend:
    def __init__(self):
        self.latch = threading.Event()
        self.respond_done = threading.Event()
        self.order = []

    def understand(self, utterance):
        self.latch.wait(timeout=10)
        self.order.append("understand")
        return "task=casual_chat; slots="

    def respond(self, utterance, parsed=None):
        self.order.append(("respond", None if parsed is None else parsed.name))
        self.respond_done.set()
        return "right away"


def test_criterion_7_parallel_pipeline_contract(capsys):
    menu = Menu([MenuItem("cola", "a chilled cola")])
    parallel_ok = 0
    for _ in range(100):
        backend = _LatchBackend()
        pipe = Pipeline(menu, backend, mode="parallel")
        out = {}
        worker = threading.Thread(target=lambda: out.setdefault("r", pipe.handle("hi")))
        worker.start()
        responded = backend.respond_done.wait(timeout=10)
        still_held = not backend.latch.is_set()
        backend.latch.set()
        worker.join(timeout=10)
        record = backend.order[0]
        parallel_ok += (
            responded and still_held and record == ("respond", None) and "r" in out
        )

    sequential_ok = 0
    for _ in range(100):
        backend = _LatchBackend()
        backend.latch.set()
        pipe = Pipeline(menu, backend, mode="sequential")
        pipe.handle("bring me a cola")
        sequential_ok += backend.order == ["understand", ("respond", "casual_chat")]

    ok = parallel_ok == 100 and sequential_ok == 100
    with capsys.disabled():
        report("criterion 7: parallel/sequential ordering contract 100/100", ok,
               f"parallel {parallel_ok}/100, sequential {sequential_ok}/100")


def test_criterion_8_bypass_recovery_golden_trace(capsys):
    def runner(inv):
        if inv.kind == "detect":
            return failed("not found")
        return OK

    outcome = execute(ParsedTask("serve_order", {"item": "orange juice"}, 1.0), runner)
    text = render_trace(outcome) + "\n"
    expected = (GOLDEN / "bypass_trace.txt").read_text()
    hand_over_line = "help: I could not find the orange juice. Could you place it in my hand?"
    ok = (
        outcome.state is Outcome.COMPLETED_WITH_ASSIST
        and text == expected
        and hand_over_line in text
    )
    with capsys.disabled():
        report("criterion 8: detect-failure recovery emits hand-over help, exact trace", ok)


def test_criterion_9_determinism_and_formats(capsys, tmp_path):
    # grid round trip
    rng = np.random.default_rng(17)
    grid = GridMap(0.05, (-1.0, 2.0), rng.integers(0, 3, (40, 30)).astype(np.uint8))
    grid_ok = save_grid(load_grid(save_grid(grid))) == save_grid(grid)

    # layer dump round trip
    layer = FurnitureLayer()
    layer.track_frame([Detection3D("table", (1, 1, 0.36), (1.2, 0.8, 0.72), 0.2)], 0)
    dump = dump_layers(layer)
    dump_ok = dump_layers(load_layers(dump)) == dump

    # cloud round trip
    cloud = rng.uniform(-1, 1, (30, 3))
    cloud_ok = np.array_equal(load_cloud(save_cloud(cloud)), cloud)

    # full-run replay: byte-identical logs through the CLI, and the metrics
    # file it writes reads back as the scripted aggregates
    log_a, log_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    metrics_file = tmp_path / "m.json"
    buf = io.StringIO()
    with redirect_stdout(buf):
        dispatch(["run", "--scenario", str(SCENARIO), "--seed", "3", "--log", str(log_a),
                  "--metrics-out", str(metrics_file)])
        dispatch(["run", "--scenario", str(SCENARIO), "--seed", "3", "--log", str(log_b)])
    replay_ok = log_a.read_text() == log_b.read_text() and log_a.read_text()
    metrics_ok = json.loads(metrics_file.read_text()) == Metrics(41, 37, 4, 7, 0).to_dict()

    ok = bool(grid_ok and dump_ok and cloud_ok and metrics_ok and replay_ok)
    with capsys.disabled():
        report("criterion 9: byte-identical round trips and replays", ok)
