"""Navigation-goal selection next to a piece of furniture.

Procedure: take the four points around the furniture footprint (edge
midpoints pushed out by robot radius + clearance), keep the one closest to
the robot, then search the grid window around it.  Each cell's risk is
augmented with a distance weight toward the candidate point, the weighted
values are summed over a square neighborhood per cell, and the admissible
cell (risk < 100) with the lowest sum wins; ties go to the cell closer to the
candidate point, then to the lower row-major index.

The risk field is the only map read and the only admissibility rule.
Precondition: `risk` is `inflate(layer.virtual_obstacles(grid), r)`, r >= 0.
`virtual_obstacles` marks OCCUPIED every cell whose center (`origin + (i +
0.5) * res`) passes the closed footprint test, so those cells hold risk 100
and no goal can land inside a piece of furniture.

`select_goal` scores the whole window at once: one summed-area table of the
weighted values gives every clipped neighborhood sum (Crow 1984), and one
`lexsort` over (cost, distance, index) picks the goal.  The test suite checks
it exhaustively against a plain nested-loop oracle (`tests/oracles.py`); keep
the float expressions (`sqrt(dx*dx + dy*dy)`, half-even rounding) in sync
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .furniture import FurnitureInstance
from .geometry import Pose2D, is_finite
from .grid import RISK_MAX, CellIndex, RiskField, integral_image, window_sum


class NoGoalError(Exception):
    """No admissible cell in the candidate window."""


@dataclass(frozen=True)
class NavGoalParams:
    robot_radius: float = 0.25
    clearance: float = 0.2
    alpha: float = 10.0  # risk units added per meter of distance to the candidate
    window_half_width: float = 1.5

    def __post_init__(self) -> None:
        if not all(map(is_finite, (self.robot_radius, self.clearance, self.alpha,
                                   self.window_half_width))):
            raise ValueError("parameters must be finite numbers")
        if min(self.robot_radius, self.clearance, self.alpha, self.window_half_width) < 0:
            raise ValueError("parameters must be non-negative")
        if self.window_half_width < self.robot_radius:
            raise ValueError("window_half_width must cover the robot radius")

    def cell_neighborhood(self, resolution: float) -> int:
        return math.ceil(self.robot_radius / resolution)


@dataclass(frozen=True)
class NavGoal:
    cell: CellIndex
    pose: Pose2D
    cost: int


def candidate_points(instance: FurnitureInstance, params: NavGoalParams) -> list[tuple[float, float]]:
    """Four approach points (E, W, N, S edge midpoints pushed out by radius+clearance)."""
    off = params.robot_radius + params.clearance
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


def _axis_indices(center: float, half_width: float, origin: float, resolution: float,
                  size: int) -> list[int]:
    """Indices along one axis whose cell center lies within +-half_width of center."""
    lo = max(0, math.floor((center - half_width - origin) / resolution) - 1)
    hi = min(size - 1, math.floor((center + half_width - origin) / resolution) + 1)
    return [i for i in range(lo, hi + 1) if abs(origin + (i + 0.5) * resolution - center) <= half_width]


def select_goal(
    risk: RiskField,
    target: FurnitureInstance,
    robot_pose: Pose2D,
    params: NavGoalParams,
) -> NavGoal:
    """Lowest-cost cell with risk < 100 near the candidate point (summed-area fast path).

    `risk` must be `inflate(layer.virtual_obstacles(grid), r)` (see the module
    docstring): cells inside any furniture footprint are then at risk 100.
    """
    px, py = select_candidate(candidate_points(target, params), robot_pose)
    nr = params.cell_neighborhood(risk.resolution)
    whw = params.window_half_width
    res = risk.resolution
    ox, oy = risk.origin

    cols = _axis_indices(px, whw, ox, res, risk.width)
    rows = _axis_indices(py, whw, oy, res, risk.height)
    if not cols or not rows:
        raise NoGoalError("candidate window misses the map")

    # weighted totals over the window plus the neighborhood margin
    r0, r1 = max(0, rows[0] - nr), min(risk.height - 1, rows[-1] + nr)
    c0, c1 = max(0, cols[0] - nr), min(risk.width - 1, cols[-1] + nr)
    xs = ox + (np.arange(c0, c1 + 1) + 0.5) * res
    ys = oy + (np.arange(r0, r1 + 1) + 0.5) * res
    dx = xs[None, :] - px
    dy = ys[:, None] - py
    dists = np.sqrt(dx * dx + dy * dy)
    totals = risk.risk[r0 : r1 + 1, c0 : c1 + 1] + np.rint(params.alpha * dists).astype(np.int64)
    sat = integral_image(totals)

    # every window cell at once: (m, 1) rows against (1, n) columns
    wr = np.asarray(rows)[:, None]
    wc = np.asarray(cols)[None, :]
    costs = window_sum(sat, wc - c0, wr - r0, nr)
    dist = dists[wr - r0, wc - c0]
    idx = wr * risk.width + wc
    ok = risk.risk[wr, wc] < RISK_MAX
    if not ok.any():
        raise NoGoalError("no admissible cell in the candidate window")
    costs, dist, idx = costs[ok], dist[ok], idx[ok]
    best = np.lexsort((idx, dist, costs))[0]
    row, col = divmod(int(idx[best]), risk.width)
    cx, cy = float(xs[col - c0]), float(ys[row - r0])
    heading = math.atan2(target.pose.y - cy, target.pose.x - cx)
    return NavGoal(CellIndex(col, row), Pose2D(cx, cy, heading), int(costs[best]))
