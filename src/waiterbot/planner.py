"""Shortest 8-connected paths over a risk field.

`plan_path` first looks for a free path of octile length with a bitset DP
over the start-to-goal bounding box, and runs A* only when there is none.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .grid import RISK_MAX, CellIndex, RiskField


class PathError(Exception):
    """Start/goal inadmissible or no traversable path."""


def _step_costs(cells: int) -> tuple[int, int]:
    """Integer (straight, diagonal) step costs of `plan_path` on a grid of `cells`."""
    step = 20 * cells * cells
    return step, math.isqrt(2 * step * step)


def plan_path(risk: RiskField, start: CellIndex, goal: CellIndex) -> list[CellIndex]:
    """Shortest 8-connected path over cells with risk < 100.

    A straight step costs 1 and a diagonal sqrt(2); a diagonal may pass between
    two blocked orthogonal neighbours.  An endpoint outside the grid or inside
    the risk region is a PathError.  The path comes from `_octile_path` when a
    free path of octile length exists, and from `_astar` otherwise.

    A* runs on integers (`_step_costs`): a straight step costs `step` =
    20 * cells**2, a diagonal `diag` = isqrt(2 * step**2), and the heuristic is
    the octile distance in those costs.  The heuristic is consistent, since it
    is the exact path cost on the same grid without obstacles.

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

    The octile route is exact too.  Let D = max(|dx|, |dy|) and
    d = min(|dx|, |dy|).  The octile distance (D - d) + d*sqrt(2) is a lower
    bound on every path's cost, so a path of that cost is optimal.  A path of
    m straight and k diagonal steps costs that much only if m = D - d and
    k = d, since sqrt(2) is irrational.  Such a path has D steps, so each step
    advances the major axis by one towards the goal, and its d diagonals each
    move the minor axis by one towards the goal: the DP over the bounding box
    enumerates every path of octile length.  When one exists, A*'s optimum is
    the octile distance, and by the proof above A*'s path has the same
    straight and diagonal counts as the DP's, even where the cells differ.
    When none exists, A* finds the optimum.  The reverse of an octile path is
    an octile path from goal to start.
    """
    for name, c in (("start", start), ("goal", goal)):
        if not (0 <= c.col < risk.width and 0 <= c.row < risk.height):
            raise PathError(f"{name} {c} lies outside the {risk.width} x {risk.height} grid")
    if risk.at(start) >= RISK_MAX or risk.at(goal) >= RISK_MAX:
        raise PathError("start or goal cell is inside the risk region")
    if start == goal:
        return [start]
    path = _octile_path(risk, start, goal)
    return path if path is not None else _astar(risk, start, goal)


def _toward(a: int, b: int) -> slice:
    """Indices a..b inclusive, stepping from a towards b."""
    return slice(a, b + 1) if a <= b else slice(a, b - 1 if b else None, -1)


def _octile_path(risk: RiskField, start: CellIndex, goal: CellIndex) -> list[CellIndex] | None:
    """A free path of octile length from `start` (free) to `goal`, or None.

    The bounding box is sliced so that indices grow from start towards goal,
    and turned so that axis 0 is the major axis.  Row i of the box, packed
    into a Python int, holds bit j when the cell i steps along the major axis
    and j along the minor one is free.  `reach[i]` holds the cells of row i
    that a path with one major step per row reaches from the start; a step
    keeps the minor offset or, diagonally, adds one to it, and a diagonal
    needs only its target cell free.  The path is read back from the goal
    bit, keeping the minor offset wherever the row before reaches it.
    """
    box = risk.risk[_toward(start.row, goal.row), _toward(start.col, goal.col)] < RISK_MAX
    col_major = box.shape[1] >= box.shape[0]
    if col_major:
        box = box.T
    bits = np.packbits(box, axis=1, bitorder="little")
    data, width = bits.tobytes(), bits.shape[1]
    reach = [1]
    for i in range(width, len(data), width):
        r = reach[-1]
        r = (r | r << 1) & int.from_bytes(data[i : i + width], "little")
        if not r:
            return None
        reach.append(r)
    j = box.shape[1] - 1
    if not reach[-1] >> j & 1:
        return None
    minor = [j]
    for r in reversed(reach[:-1]):
        if not r >> j & 1:
            j -= 1
        minor.append(j)
    minor.reverse()
    sc, sr = (1 if goal.col >= start.col else -1), (1 if goal.row >= start.row else -1)
    if col_major:
        return [CellIndex(start.col + sc * i, start.row + sr * j) for i, j in enumerate(minor)]
    return [CellIndex(start.col + sc * j, start.row + sr * i) for i, j in enumerate(minor)]


def _astar(risk: RiskField, start: CellIndex, goal: CellIndex) -> list[CellIndex]:
    """Shortest path from `start` to `goal`, both free, by A* with the octile
    heuristic in the integer costs of `_step_costs` (see `plan_path`).

    Among open cells of equal f the one nearest the goal (least h) is expanded
    first, then the lower cell index.  The free mask is built once per call as
    bytes with a blocked one-cell border, so the neighbour loop needs no bounds
    checks and reads no numpy scalars.
    """
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
