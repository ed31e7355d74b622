import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import table
from oracles import axis_indices, brute_force_goal
from waiterbot.furniture import FurnitureLayer
from waiterbot.geometry import Pose2D, point_in_convex_polygon
from waiterbot.grid import RISK_MAX, GridMap, inflate
from waiterbot.navgoal import (
    NavGoalParams,
    NoGoalError,
    _axis_range,
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

    def test_a_robot_wider_than_the_map_is_refused(self):
        grid = GridMap(0.1, (0.0, 0.0), np.zeros((10, 20), dtype=np.uint8))  # 2 x 1 m
        NavGoalParams(robot_radius=0.5, window_half_width=0.5).check_map(grid)
        with pytest.raises(ValueError, match="robot_radius 0.5000001 m does not fit the 2 x 1 m map"):
            NavGoalParams(robot_radius=0.5000001, window_half_width=0.6).check_map(grid)

    def test_the_largest_accepted_alpha_gives_the_brute_force_cost(self):
        # bisect for the last alpha `check_map` accepts: goals with it cost
        # within a factor of 16 of 2**63, and the int64 sums still match the
        # oracle's Python integers; twice that alpha is refused
        grid = GridMap(0.1, (0.0, 0.0), np.zeros((30, 30), dtype=np.uint8))
        lo, hi = 1.0, 1e30
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            try:
                NavGoalParams(alpha=mid, window_half_width=1.0).check_map(grid)
                lo = mid
            except ValueError:
                hi = mid
        with pytest.raises(ValueError, match="lets a goal's cost overflow 64-bit integers"):
            NavGoalParams(alpha=2 * lo, window_half_width=1.0).check_map(grid)
        params = NavGoalParams(alpha=lo, window_half_width=1.0)
        risk = inflate(grid, params.robot_radius)
        rng = np.random.default_rng(4)
        costs = []
        for _ in range(20):
            layer = table_layer(float(rng.uniform(-0.5, 3.5)), float(rng.uniform(-0.5, 3.5)),
                                yaw=float(rng.uniform(-math.pi, math.pi)))
            robot = Pose2D(float(rng.uniform(-1.0, 4.0)), float(rng.uniform(-1.0, 4.0)))
            goal = assert_same_goal(risk, layer.get("t"), robot, params)
            if goal is not None:
                costs.append(goal.cost)
        assert len(costs) >= 10 and 0 < min(costs) and max(costs) > 2**59


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


def assert_same_goal(risk, target, robot, params):
    """`select_goal` and `brute_force_goal` agree: both raise NoGoalError, or
    return the same cell, pose and cost; returns the goal or None."""
    try:
        fast = select_goal(risk, target, robot, params)
    except NoGoalError:
        with pytest.raises(NoGoalError):
            brute_force_goal(risk, target, robot, params)
        return None
    slow = brute_force_goal(risk, target, robot, params)
    assert (fast.cell, fast.pose, fast.cost) == (slow.cell, slow.pose, slow.cost)
    assert type(fast.cost) is int
    return fast


def clipped_sides(point, half_width, risk) -> set[str]:
    """The map edges past which the window around `point` would hold a cell
    center: the index just off the map passes the window test."""
    (px, py), (ox, oy), res = point, risk.origin, risk.resolution

    def inside(o, i, c):
        return abs(o + (i + 0.5) * res - c) <= half_width

    beyond = {"W": inside(ox, -1, px), "E": inside(ox, risk.width, px),
              "S": inside(oy, -1, py), "N": inside(oy, risk.height, py)}
    return {side for side, past in beyond.items() if past}


EDGES = {"W": (-1, 0), "E": (1, 0), "S": (0, -1), "N": (0, 1),
         "SW": (-1, -1), "SE": (1, -1), "NW": (-1, 1), "NE": (1, 1)}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_windows_clipped_by_each_edge_and_corner_equal_brute_force(edge):
    # a table near the edge (or both edges of the corner), the robot far beyond
    # it, so the candidate window reaches past the map there
    sx, sy = EDGES[edge]
    rng = np.random.default_rng(sorted(EDGES).index(edge))
    side, res = 3.0, 0.1

    def near(s):
        return float(rng.uniform(0.2, 0.9)) if s < 0 else side - float(rng.uniform(0.2, 0.9)) if s > 0 \
            else float(rng.uniform(1.0, 2.0))

    clipped = 0
    for _ in range(12):
        grid = GridMap(res, (0.0, 0.0), (rng.random((30, 30)) < 0.08).astype(np.uint8))
        layer = FurnitureLayer()
        dims = (float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.5, 1.0)), 0.72)
        cx, cy = near(sx), near(sy)
        layer.restore(table("t", (cx, cy, 0.36), dims, float(rng.uniform(-0.3, 0.3))))
        risk = inflate(layer.virtual_obstacles(grid), 0.2)
        params = NavGoalParams(robot_radius=0.2, clearance=float(rng.uniform(0.0, 0.3)),
                               alpha=float(rng.uniform(0.0, 20.0)), window_half_width=float(rng.uniform(0.5, 1.5)))
        target, robot = layer.get("t"), Pose2D(cx + 10.0 * sx, cy + 10.0 * sy)
        point = select_candidate(candidate_points(target, params), robot)
        sides = clipped_sides(point, params.window_half_width, risk)
        clipped += set(edge) <= sides
        assert_same_goal(risk, target, robot, params)
    assert clipped >= 6


def test_a_window_off_the_map_and_one_with_no_admissible_cell_raise_no_goal():
    params = NavGoalParams(robot_radius=0.2, clearance=0.2, alpha=10.0, window_half_width=0.5)
    far = table_layer(9.0, 1.0)  # its nearest candidate lies 6.4 m east of a 2 m map
    grid, risk = world(layer=None)
    with pytest.raises(NoGoalError, match="^candidate window misses the map$"):
        select_goal(risk, far.get("t"), Pose2D(1.0, 1.0), params)
    with pytest.raises(NoGoalError):
        brute_force_goal(risk, far.get("t"), Pose2D(1.0, 1.0), params)
    # every window cell is occupied, while the margin around it and the rest of the map are free
    near = table_layer(1.0, 1.0)
    cells = np.zeros((20, 20), dtype=np.uint8)
    point = select_candidate(candidate_points(near.get("t"), params), Pose2D(0.0, 1.0))
    c0, c1 = _axis_range(point[0], 0.5, 0.0, 0.1, 20)
    r0, r1 = _axis_range(point[1], 0.5, 0.0, 0.1, 20)
    cells[r0 : r1 + 1, c0 : c1 + 1] = 1
    risk = inflate(GridMap(0.1, (0.0, 0.0), cells), 0.0)
    assert risk.risk.min() == 0
    with pytest.raises(NoGoalError, match="^no admissible cell in the candidate window$"):
        select_goal(risk, near.get("t"), Pose2D(0.0, 1.0), params)
    assert_same_goal(risk, near.get("t"), Pose2D(0.0, 1.0), params)


@pytest.mark.parametrize("x", [1e308, -1.7e308, 1.7976931348623157e308])
def test_a_table_at_the_end_of_the_float_range_misses_the_map(x):
    # the window's quotient is inf there; it is clipped before the floor, which would overflow
    params = NavGoalParams()
    far = table_layer(x, 1.0)
    _, risk = world(layer=None)
    with pytest.raises(NoGoalError, match="^candidate window misses the map$"):
        select_goal(risk, far.get("t"), Pose2D(1.0, 1.0), params)
    lo, hi = _axis_range(x, params.window_half_width, 0.0, 0.1, 20)
    assert lo > hi


@pytest.mark.parametrize("candidate,cell", [
    ((1.0, 1.0), (3, 3)),    # on a cell corner: four cells at one distance, the lowest row then column wins
    ((1.0, 1.125), (3, 4)),  # on a vertical cell edge: two cells in one row, the lower column wins
    ((1.125, 1.0), (4, 3)),  # on a horizontal cell edge: two cells in one column, the lower row wins
])
def test_at_alpha_zero_with_cost_and_distance_tied_the_least_index_wins(candidate, cell):
    # a free map and alpha 0: every cost is 0, and the candidate point sits
    # exactly between cell centers (all values binary fractions, so the ties are exact)
    px, py = candidate
    params = NavGoalParams(robot_radius=0.25, clearance=0.25, alpha=0.0, window_half_width=0.75)
    layer = table_layer(px + 1.0, py, dims=(1.0, 1.0, 0.7))  # west candidate = (px, py)
    risk = inflate(GridMap(0.25, (0.0, 0.0), np.zeros((12, 12), dtype=np.uint8)), 0.25)
    robot = Pose2D(0.0, py)
    assert select_candidate(candidate_points(layer.get("t"), params), robot) == candidate
    goal = assert_same_goal(risk, layer.get("t"), robot, params)
    assert (goal.cell.col, goal.cell.row) == cell and goal.cost == 0


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    resolution=st.sampled_from([1 / 3, 0.07, 0.1, 0.05, 0.25, 1.0]) | st.floats(0.001, 2.0),
    origin=st.sampled_from([0.0, -1.5, 0.1]) | st.floats(-50.0, 50.0),
    center_cells=st.integers(-40, 340),
    center_jitter=st.sampled_from([0.0, 0.5]) | st.floats(-1.0, 1.0),
    half_width_cells=st.integers(0, 30),
    half_width_jitter=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
    size=st.integers(1, 300),
)
def test_axis_range_is_the_run_the_per_index_test_keeps(resolution, origin, center_cells, center_jitter,
                                                       half_width_cells, half_width_jitter, size):
    # centers on cell centers and boundaries, half-widths whole multiples of the
    # resolution: the window test then meets its bound exactly, or within rounding
    center = origin + (center_cells + center_jitter) * resolution
    half_width = (half_width_cells + half_width_jitter) * resolution
    lo, hi = _axis_range(center, half_width, origin, resolution, size)
    assert list(range(lo, hi + 1)) == axis_indices(center, half_width, origin, resolution, size)
