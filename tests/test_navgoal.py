import math

import numpy as np
import pytest

from helpers import table
from oracles import brute_force_goal
from waiterbot.furniture import FurnitureLayer
from waiterbot.geometry import Pose2D, point_in_convex_polygon
from waiterbot.grid import RISK_MAX, GridMap, inflate
from waiterbot.navgoal import (
    NavGoalParams,
    NoGoalError,
    candidate_points,
    select_candidate,
    select_goal,
)


def table_layer(cx=1.0, cy=1.0, dims=(1.0, 1.0, 0.7), yaw=0.0):
    layer = FurnitureLayer()
    layer.restore(table("t", (cx, cy, dims[2] / 2), dims, yaw))
    return layer


def world(w=20, h=20, res=0.1, layer=None, radius=0.25):
    grid = GridMap(res, (0.0, 0.0), np.zeros((h, w), dtype=np.uint8))
    if layer is not None:
        grid = layer.virtual_obstacles(grid)
    return grid, inflate(grid, radius)


class TestParams:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            NavGoalParams(robot_radius=-0.1)

    @pytest.mark.parametrize("field", ["robot_radius", "clearance", "alpha", "window_half_width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            NavGoalParams(**{field: value})

    def test_window_must_cover_robot(self):
        with pytest.raises(ValueError):
            NavGoalParams(robot_radius=0.5, window_half_width=0.3)

    def test_neighborhood_defaults_from_resolution(self):
        assert NavGoalParams(robot_radius=0.25).cell_neighborhood(0.1) == 3


class TestCandidatePoints:
    def test_axis_aligned_midpoints_with_offset(self):
        layer = table_layer(0.0, 0.0)
        pts = candidate_points(layer.get("t"), NavGoalParams(robot_radius=0.1, clearance=0.2))
        assert pts == [(0.8, 0.0), (-0.8, 0.0), (0.0, 0.8), (0.0, -0.8)]

    def test_square_rotated_90_same_point_set(self):
        params = NavGoalParams(robot_radius=0.1, clearance=0.2)
        flat = candidate_points(table_layer(0.0, 0.0).get("t"), params)
        rotated = candidate_points(table_layer(0.0, 0.0, yaw=math.pi / 2).get("t"), params)
        round3 = lambda pts: {(round(x, 9), round(y, 9)) for x, y in pts}
        assert round3(flat) == round3(rotated)

    def test_zero_offset_gives_edge_midpoints(self):
        layer = table_layer(2.0, 3.0, dims=(1.2, 0.8, 0.7))
        pts = candidate_points(layer.get("t"), NavGoalParams(robot_radius=0.0, clearance=0.0,
                                                             window_half_width=1.0))
        assert pts == [(2.6, 3.0), (1.4, 3.0), (2.0, 3.4), (2.0, 2.6)]


class TestSelectCandidate:
    POINTS = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]

    def test_closest_wins(self):
        assert select_candidate(self.POINTS, Pose2D(-5, 0)) == (-1.0, 0.0)

    def test_tie_breaks_by_declared_order(self):
        # equidistant from east and north points
        assert select_candidate(self.POINTS, Pose2D(0.5, 0.5)) == (1.0, 0.0)

    def test_robot_on_candidate(self):
        assert select_candidate(self.POINTS, Pose2D(0.0, -1.0)) == (0.0, -1.0)


class TestSelectGoal:
    def params(self, **kw):
        defaults = dict(robot_radius=0.25, clearance=0.2, alpha=10.0, window_half_width=1.0)
        defaults.update(kw)
        return NavGoalParams(**defaults)

    def test_goal_west_of_table_for_west_robot(self):
        layer = table_layer(1.0, 1.0)
        grid, risk = world(layer=layer)
        robot = Pose2D(0.2, 1.0)
        goal = select_goal(risk, layer.get("t"), robot, self.params())
        oracle = brute_force_goal(risk, layer.get("t"), robot, self.params())
        assert goal.cell == oracle.cell and goal.cost == oracle.cost
        assert goal.pose.x < 1.0 - 0.5  # on the robot's side of the table
        assert risk.at(goal.cell) < RISK_MAX
        assert not point_in_convex_polygon((goal.pose.x, goal.pose.y),
                                           layer.get("t").footprint)

    def test_alpha_zero_ties_break_toward_candidate(self):
        layer = table_layer(1.0, 1.0)
        grid, risk = world(layer=None)  # obstacle-free: all costs equal at alpha=0
        robot = Pose2D(0.0, 1.0)
        params = self.params(alpha=0.0)
        goal = select_goal(risk, layer.get("t"), robot, params)
        px, py = (1.0 - 0.5 - 0.45, 1.0)  # west candidate point
        best = min(
            (math.dist((c.pose.x, c.pose.y), (px, py)) for c in [goal]),
        )
        # distance from chosen cell center to the candidate is half a diagonal at most
        assert best <= math.sqrt(2) * grid.resolution / 2 + 1e-9

    def test_walled_in_raises_no_goal(self):
        layer = table_layer(1.0, 1.0)
        cells = np.ones((20, 20), dtype=np.uint8)  # risk 100 everywhere in the window
        grid = GridMap(0.1, (0.0, 0.0), cells)
        risk = inflate(grid, 0.25)
        with pytest.raises(NoGoalError):
            select_goal(risk, layer.get("t"), Pose2D(0.1, 0.1), self.params())

    def test_heading_points_at_furniture(self):
        layer = table_layer(1.0, 1.0)
        grid, risk = world(layer=layer)
        goal = select_goal(risk, layer.get("t"), Pose2D(0.2, 1.0), self.params())
        expected = math.atan2(1.0 - goal.pose.y, 1.0 - goal.pose.x)
        assert goal.pose.theta == pytest.approx(expected)

    def test_determinism(self):
        layer = table_layer(1.0, 1.2)
        grid, risk = world(layer=layer)
        args = (risk, layer.get("t"), Pose2D(1.9, 0.3, 0.5), self.params())
        assert select_goal(*args) == select_goal(*args)


class TestBruteForceContract:
    def test_empty_map_distance_term_dominates(self):
        layer = table_layer(1.0, 1.0)
        grid, risk = world(layer=None)
        params = NavGoalParams(robot_radius=0.25, clearance=0.2, alpha=5.0, window_half_width=0.8)
        goal = brute_force_goal(risk, layer.get("t"), Pose2D(0.0, 1.0), params)
        # candidate point is (0.05, 1.0); the containing cell wins
        assert goal.cell.col == 0 and goal.cell.row in (9, 10)

    def test_single_admissible_cell(self):
        layer = table_layer(1.0, 1.0)
        cells = np.ones((20, 20), dtype=np.uint8)
        cells[10, 1] = 0
        grid = GridMap(0.1, (0.0, 0.0), cells)
        risk = inflate(grid, 0.0)
        params = NavGoalParams(robot_radius=0.0, clearance=0.35, alpha=10.0,
                               window_half_width=0.5)
        goal = brute_force_goal(risk, layer.get("t"), Pose2D(0.15, 1.05), params)
        assert (goal.cell.col, goal.cell.row) == (1, 10)

    def test_alpha_scaling_preserves_argmin_on_zero_risk(self):
        layer = table_layer(1.0, 1.0)
        grid, risk = world(layer=None)
        robot = Pose2D(0.3, 0.4)
        base = NavGoalParams(robot_radius=0.2, clearance=0.2, alpha=4.0, window_half_width=0.9)
        scaled = NavGoalParams(robot_radius=0.2, clearance=0.2, alpha=12.0, window_half_width=0.9)
        g1 = select_goal(risk, layer.get("t"), robot, base)
        g2 = select_goal(risk, layer.get("t"), robot, scaled)
        assert g1.cell == g2.cell


def random_instance(rng):
    w = int(rng.integers(15, 41))
    h = int(rng.integers(15, 41))
    res = 0.1
    cells = (rng.random((h, w)) < float(rng.uniform(0.02, 0.12))).astype(np.uint8)
    grid = GridMap(res, (0.0, 0.0), cells)
    layer = FurnitureLayer()
    margin = 0.75
    cx = float(rng.uniform(margin, w * res - margin))
    cy = float(rng.uniform(margin, h * res - margin))
    dims = (float(rng.uniform(0.6, 1.3)), float(rng.uniform(0.5, 1.0)), 0.72)
    yaw = float(rng.uniform(-math.pi, math.pi))
    layer.restore(table("t", (cx, cy, 0.36), dims, yaw))
    combined = layer.virtual_obstacles(grid)
    risk = inflate(combined, 0.2)
    robot = Pose2D(float(rng.uniform(0, w * res)), float(rng.uniform(0, h * res)),
                   float(rng.uniform(-math.pi, math.pi)))
    params = NavGoalParams(
        robot_radius=0.2,
        clearance=float(rng.uniform(0.0, 0.3)),
        alpha=float(rng.uniform(0.0, 20.0)),
        window_half_width=float(rng.uniform(0.5, 1.2)),
    )
    return combined, risk, layer, robot, params


def test_fast_path_equals_brute_force_on_random_instances():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        grid, risk, layer, robot, params = random_instance(rng)
        target = layer.get("t")
        try:
            fast = select_goal(risk, target, robot, params)
        except NoGoalError:
            with pytest.raises(NoGoalError):
                brute_force_goal(risk, target, robot, params)
            continue
        slow = brute_force_goal(risk, target, robot, params)
        assert fast.cell == slow.cell
        assert fast.cost == slow.cost
        checked += 1
    assert checked > 150


def random_multi_table_layout(rng, radius):
    """2-6 rotated tables in a 3 m x 3 m room; risk from virtual_obstacles + inflate."""
    res = 0.1
    grid = GridMap(res, (0.0, 0.0), np.zeros((30, 30), dtype=np.uint8))
    layer = FurnitureLayer()
    for k in range(int(rng.integers(2, 7))):
        dims = (float(rng.uniform(0.4, 1.0)), float(rng.uniform(0.4, 0.8)), 0.72)
        center = (float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5)), 0.36)
        yaw = float(rng.uniform(-math.pi, math.pi))
        layer.restore(table(f"t{k}", center, dims, yaw))
    combined = layer.virtual_obstacles(grid)
    robot = Pose2D(float(rng.uniform(0, 3.0)), float(rng.uniform(0, 3.0)))
    params = NavGoalParams(
        robot_radius=0.2,
        clearance=float(rng.uniform(0.0, 0.3)),
        alpha=float(rng.uniform(0.0, 20.0)),
        window_half_width=float(rng.uniform(0.5, 1.2)),
    )
    return combined, inflate(combined, radius), layer, robot, params


@pytest.mark.parametrize("radius", [0.0, 0.2])
def test_goals_stay_off_every_footprint_in_multi_table_layouts(radius):
    # the risk field alone keeps goals out of every table, the target's and its neighbours'
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(25):
        grid, risk, layer, robot, params = random_multi_table_layout(rng, radius)
        footprints = [inst.footprint for inst in layer.instances()]
        for target in layer.instances():
            try:
                fast = select_goal(risk, target, robot, params)
            except NoGoalError:
                with pytest.raises(NoGoalError):
                    brute_force_goal(risk, target, robot, params)
                continue
            slow = brute_force_goal(risk, target, robot, params)
            assert (fast.cell, fast.cost) == (slow.cell, slow.cost)
            center = (fast.pose.x, fast.pose.y)
            assert not any(point_in_convex_polygon(center, fp) for fp in footprints)
            checked += 1
    assert checked > 50
