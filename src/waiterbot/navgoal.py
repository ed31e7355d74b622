"""Navigation-goal selection next to a piece of furniture.

Procedure: take the four points around the furniture footprint (edge
midpoints pushed out by robot radius + clearance), keep the one closest to
the robot, then search the grid window around it.  Each cell's risk is
augmented with a distance weight toward the candidate point, the weighted
values are summed over a square neighborhood per cell, and the admissible
cell (risk < 100) with the lowest sum wins; ties go to the cell closer to the
candidate point, then to the lower row-major index.

The risk field is the only map read and the only admissibility rule.
Precondition: `risk` is `sim.MapView.risk`, the grid with every footprint
marked by `virtual_obstacles`, inflated by a radius r >= 0.  A cell whose
center (`origin + (i + 0.5) * res`) passes the closed footprint test is then
at risk 100, so no goal can land inside a piece of furniture.

`select_goal` scores the whole window at once.  The window is one run of
rows by one run of columns, and its weighted values, zero-padded by the
neighborhood margin, have one summed-area table (Crow 1984): every clipped
neighborhood sum is four slices of it, since a cell off the map adds 0.
The goal is the lexicographic minimum over the admissible cells of (cost,
distance, row-major index).  The test suite checks it exhaustively against a
plain nested-loop oracle (`tests/oracles.py`); keep the float expressions
(`sqrt(dx*dx + dy*dy)`, half-even rounding) in sync with it.
`check_map` refuses a map on which a window sum could overflow int64, and
one narrower than the robot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .furniture import FurnitureInstance
from .geometry import Pose2D
from .grid import RISK_MAX, CellIndex, GridMap, RiskField, window_sums


class NoGoalError(Exception):
    """No admissible cell in the candidate window."""


ROBOT_RADIUS_M = 0.25
CLEARANCE_M = 0.2  # kept between the robot and the furniture edge at a candidate point
ALPHA = 10.0  # risk units added per meter of distance to the candidate
WINDOW_HALF_WIDTH_M = 1.5


def cell_neighborhood(resolution: float) -> int:
    return math.ceil(ROBOT_RADIUS_M / resolution)


def check_map(grid: GridMap) -> None:
    """Refuse a map narrower than the robot, which also bounds the inflation
    disc by the map, and one on which a window sum could overflow int64.
    Every cell a window sum reads lies within WINDOW_HALF_WIDTH_M + nr cells
    of the candidate point on each axis, up to the rounding of cell centers,
    so its distance is below twice that."""
    res, (w, h) = grid.resolution, (grid.width, grid.height)
    if 2 * ROBOT_RADIUS_M > min(w, h) * res:
        raise ValueError(f"the robot's {ROBOT_RADIUS_M:g} m radius does not fit "
                         f"the {w * res:g} x {h * res:g} m map")
    nr = cell_neighborhood(res)
    centers = abs(grid.origin[0]) + abs(grid.origin[1]) + (w + h) * res
    reach = WINDOW_HALF_WIDTH_M + nr * res + 4 * math.ulp(centers)
    if (2 * nr + 1) ** 2 * (RISK_MAX + ALPHA * 2 * reach) >= 2.0**63:
        raise ValueError(f"cells of {res:g} m let a goal's cost overflow 64-bit integers")


@dataclass(frozen=True)
class NavGoal:
    cell: CellIndex
    pose: Pose2D
    cost: int


def candidate_points(instance: FurnitureInstance) -> list[tuple[float, float]]:
    """Four approach points (E, W, N, S edge midpoints pushed out by radius+clearance)."""
    off = ROBOT_RADIUS_M + CLEARANCE_M
    w, d = instance.dims[0], instance.dims[1]
    c, s = math.cos(instance.pose.theta), math.sin(instance.pose.theta)
    out = []
    for lx, ly in ((w / 2 + off, 0.0), (-w / 2 - off, 0.0), (0.0, d / 2 + off), (0.0, -d / 2 - off)):
        out.append((instance.pose.x + c * lx - s * ly, instance.pose.y + s * lx + c * ly))
    return out


def select_candidate(points: list[tuple[float, float]], robot_pose: Pose2D) -> tuple[float, float]:
    """Closest point to the robot; ties keep the earlier point (E, W, N, S order)."""
    best = points[0]
    best_d = math.dist(best, (robot_pose.x, robot_pose.y))
    for p in points[1:]:
        d = math.dist(p, (robot_pose.x, robot_pose.y))
        if d < best_d:
            best, best_d = p, d
    return best


def _axis_range(center: float, half_width: float, origin: float, resolution: float,
                size: int) -> tuple[int, int]:
    """First and last index along one axis whose cell center lies within
    +-half_width of center (first > last when none does).  Cell centers rise
    with the index, so those indices are one run: the floor estimate is
    trimmed at both ends with the per-cell test.  Each quotient is clipped to
    just beyond the map first, so a center any distance away cannot overflow
    the floor."""
    def inside(i: int) -> bool:
        return abs(origin + (i + 0.5) * resolution - center) <= half_width

    lo = max(0, math.floor(min(max((center - half_width - origin) / resolution, -2.0), size + 1)) - 1)
    hi = min(size - 1, math.floor(min(max((center + half_width - origin) / resolution, -2.0), size + 1)) + 1)
    while lo <= hi and not inside(lo):
        lo += 1
    while hi >= lo and not inside(hi):
        hi -= 1
    return lo, hi


def select_goal(risk: RiskField, target: FurnitureInstance, candidate: tuple[float, float]) -> NavGoal:
    """Lowest-cost cell with risk < 100 near the candidate point (one of
    `candidate_points(target)`): the least (cost, distance, row-major index)
    over the admissible cells of the window, each cost four slices of one
    zero-padded summed-area table.

    `risk` must be a `MapView`'s, where every footprint cell is at risk 100 (see above).
    """
    px, py = candidate
    nr = cell_neighborhood(risk.resolution)
    whw = WINDOW_HALF_WIDTH_M
    res = risk.resolution
    ox, oy = risk.origin

    c0, c1 = _axis_range(px, whw, ox, res, risk.width)
    r0, r1 = _axis_range(py, whw, oy, res, risk.height)
    if c0 > c1 or r0 > r1:
        raise NoGoalError("candidate window misses the map")

    # the window's totals with a margin of nr cells, 0 off the map: on it, columns a0..a1, rows b0..b1
    a0, a1 = max(0, c0 - nr), min(risk.width - 1, c1 + nr)
    b0, b1 = max(0, r0 - nr), min(risk.height - 1, r1 + nr)
    xs = ox + (np.arange(a0, a1 + 1) + 0.5) * res
    ys = oy + (np.arange(b0, b1 + 1) + 0.5) * res
    dx = xs[None, :] - px
    dy = ys[:, None] - py
    dists = np.sqrt(dx * dx + dy * dy)
    padded = np.zeros((r1 - r0 + 1 + 2 * nr, c1 - c0 + 1 + 2 * nr), dtype=np.int64)
    pr, pc = b0 - r0 + nr, a0 - c0 + nr
    padded[pr : pr + b1 - b0 + 1, pc : pc + a1 - a0 + 1] = (
        risk.risk[b0 : b1 + 1, a0 : a1 + 1] + np.rint(ALPHA * dists).astype(np.int64))
    costs = window_sums(padded, nr)

    ok = risk.risk[r0 : r1 + 1, c0 : c1 + 1] < RISK_MAX
    if not ok.any():
        raise NoGoalError("no admissible cell in the candidate window")
    # masking keeps row-major order, so the first of equal keys has the least index
    costs = costs[ok]
    dist = dists[r0 - b0 : r1 - b0 + 1, c0 - a0 : c1 - a0 + 1][ok]
    tied = np.flatnonzero(costs == costs.min())
    dr, dc = divmod(int(np.flatnonzero(ok)[tied[np.argmin(dist[tied])]]), c1 - c0 + 1)
    row, col = r0 + dr, c0 + dc
    cx, cy = float(xs[col - a0]), float(ys[row - b0])
    heading = math.atan2(target.pose.y - cy, target.pose.x - cx)
    return NavGoal(CellIndex(col, row), Pose2D(cx, cy, heading), int(costs[tied[0]]))
