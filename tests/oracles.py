"""Reference implementations used to cross-check the fast paths.

Everything in here is deliberately naive (plain loops, no acceleration
structures, no scipy) so the production code is validated against an
independent route.
"""

import math
from fractions import Fraction

import numpy as np

from waiterbot import placement
from waiterbot.furniture import IOU_MATCH_THRESHOLD
from waiterbot.geometry import Pose2D, iou_3d
from waiterbot.grid import RISK_MAX, BoundsError, CellIndex, CellState
from waiterbot.navgoal import NavGoal, NoGoalError, candidate_points, select_candidate
from waiterbot.placement import (
    HYPOTHESIS_BLOCK,
    RANSAC_CONFIDENCE,
    InsufficientSupportError,
    Plane,
    PlaneFitError,
    _refit,
    sample_triples,
)


def cell_to_world(grid, c: CellIndex) -> tuple[float, float]:
    """Center of cell c in world coordinates."""
    if not grid.in_bounds(c):
        raise BoundsError(f"cell {c} outside {grid.width}x{grid.height} map")
    return (
        grid.origin[0] + (c.col + 0.5) * grid.resolution,
        grid.origin[1] + (c.row + 0.5) * grid.resolution,
    )


def inside_convex(p: tuple[float, float], poly) -> bool:
    """Closed containment in a CCW convex polygon, one float point, one edge at a time."""
    n = len(poly)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0.0:
            return False
    return True


def loop_virtual_obstacles(layer, grid):
    """`FurnitureLayer.virtual_obstacles` cell by cell over each footprint's window."""
    cells = grid.cells.copy()
    for inst in layer.instances():
        poly = inst.footprint
        xs = [p[0] for p in poly]
        ys = [p[1] for p in poly]
        c0 = max(0, math.floor((min(xs) - grid.origin[0]) / grid.resolution) - 1)
        r0 = max(0, math.floor((min(ys) - grid.origin[1]) / grid.resolution) - 1)
        c1 = min(grid.width - 1, math.floor((max(xs) - grid.origin[0]) / grid.resolution) + 1)
        r1 = min(grid.height - 1, math.floor((max(ys) - grid.origin[1]) / grid.resolution) + 1)
        for row in range(r0, r1 + 1):
            for col in range(c0, c1 + 1):
                if inside_convex(cell_to_world(grid, CellIndex(col, row)), poly):
                    cells[row, col] = CellState.OCCUPIED
    return grid.with_cells(cells)


def loop_match_pairs(boxes, instances) -> list[tuple[float, int, str]]:
    """`furniture.match_pairs` with the exact IoU on every same-class pair; the
    boxes may be detections or the instances tracking makes of them."""
    pairs = []
    for di, box in enumerate(boxes):
        for inst in instances:
            if inst.class_name != box.class_name:
                continue
            v = iou_3d(box, inst)
            if v >= IOU_MATCH_THRESHOLD:
                pairs.append((-v, di, inst.id))
    return sorted(pairs)


def disc_pairs(boxes, instances) -> int:
    """How many same-class pairs the scalar disc test keeps: `math.hypot` of the
    centre offset at most the sum of the discs' radii (half each footprint
    diagonal)."""
    return sum(
        1
        for box in boxes
        for inst in instances
        if inst.class_name == box.class_name
        and math.hypot(box.center[0] - inst.center[0], box.center[1] - inst.center[1])
        <= 0.5 * math.hypot(*box.dims[:2]) + 0.5 * math.hypot(*inst.dims[:2])
    )


def naive_inflate(grid, radius: float) -> np.ndarray:
    """All-pairs distance check between cell centers."""
    h, w = grid.cells.shape
    seeds = [
        (col, row)
        for row in range(h)
        for col in range(w)
        if grid.cells[row, col] != CellState.FREE
    ]
    risk = np.zeros((h, w), dtype=np.int64)
    res = grid.resolution
    for row in range(h):
        for col in range(w):
            for scol, srow in seeds:
                d = math.sqrt(((col - scol) * res) ** 2 + ((row - srow) * res) ** 2)
                if d <= radius:
                    risk[row, col] = RISK_MAX
                    break
    return risk


def naive_window_sum(values: np.ndarray, col: int, row: int, r: int) -> int:
    h, w = values.shape
    total = 0
    for nrow in range(max(0, row - r), min(h - 1, row + r) + 1):
        for ncol in range(max(0, col - r), min(w - 1, col + r) + 1):
            total += int(values[nrow, ncol])
    return total


def _exact(points) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(x), Fraction(y)) for x, y in points]


def exact_clip(subject, clip) -> list[tuple[Fraction, Fraction]]:
    """Sutherland-Hodgman clip (Sutherland & Hodgman 1974) against a convex CCW
    polygon, in exact rational arithmetic on the float vertices."""
    out = _exact(subject)
    clip = _exact(clip)
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        ex, ey = bx - ax, by - ay

        def side(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax)

        inp, out = out, []
        for prev, cur in zip(inp[-1:] + inp[:-1], inp):
            sp, sc = side(prev), side(cur)
            if (sp >= 0) != (sc >= 0):
                t = sp / (sp - sc)
                out.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if sc >= 0:
                out.append(cur)
    return out


def exact_area(poly) -> Fraction:
    """Shoelace area (absolute value), exact."""
    pts = _exact(poly)
    return abs(sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))) / 2


def exact_point_in_convex_polygon(p, poly) -> bool:
    """Closed containment in a CCW convex polygon, exact."""
    (px, py), = _exact([p])
    pts = _exact(poly)
    return all((bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0
               for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]))


def exact_iou_3d(a, b) -> Fraction:
    """3D IoU of two yaw-oriented boxes, taken as their float footprint corners
    and float z intervals, with no rounding after that."""
    (alo, ahi), (blo, bhi) = _exact([a.z_interval, b.z_interval])
    dz = min(ahi, bhi) - max(alo, blo)
    if dz <= 0:
        return Fraction(0)
    inter = exact_area(exact_clip(a.footprint, b.footprint)) * dz
    if inter == 0:
        return Fraction(0)
    return inter / (exact_area(a.footprint) * (ahi - alo) + exact_area(b.footprint) * (bhi - blo) - inter)


def all_cells(grid) -> list[CellIndex]:
    """Every cell index of the grid, row-major."""
    return [CellIndex(col, row) for row in range(grid.height) for col in range(grid.width)]


def path_cost(path: list[CellIndex]) -> float:
    """Length of an 8-connected cell path: 1 per straight step, sqrt(2) per diagonal."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += math.sqrt(2.0) if (a.col != b.col and a.row != b.row) else 1.0
    return total


def relaxation_path_cost(risk: np.ndarray, start, goal) -> float | None:
    """Fixpoint relaxation over the 8-connected traversable graph."""
    h, w = risk.shape
    if risk[start[1], start[0]] >= RISK_MAX or risk[goal[1], goal[0]] >= RISK_MAX:
        return None
    dist = {(start[0], start[1]): 0.0}
    changed = True
    while changed:
        changed = False
        for (col, row), g in sorted(dist.items()):
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    if dc == 0 and dr == 0:
                        continue
                    nc, nr = col + dc, row + dr
                    if not (0 <= nc < w and 0 <= nr < h):
                        continue
                    if risk[nr, nc] >= RISK_MAX:
                        continue
                    ng = g + (math.sqrt(2.0) if dc and dr else 1.0)
                    if ng < dist.get((nc, nr), math.inf):
                        dist[(nc, nr)] = ng
                        changed = True
    return dist.get((goal[0], goal[1]))


def naive_clearance(occupied: np.ndarray, hull, pitch: float, s_lo: float, t_lo: float) -> np.ndarray:
    """Per-cell min distance to any occupied cell center or hull edge; -1 outside."""
    n_rows, n_cols = occupied.shape
    occ_centers = [
        (s_lo + (col + 0.5) * pitch, t_lo + (row + 0.5) * pitch)
        for row in range(n_rows)
        for col in range(n_cols)
        if occupied[row, col]
    ]
    out = np.full((n_rows, n_cols), -1.0)
    for row in range(n_rows):
        for col in range(n_cols):
            if occupied[row, col]:
                continue
            cs = s_lo + (col + 0.5) * pitch
            ct = t_lo + (row + 0.5) * pitch
            if not inside_convex((cs, ct), hull):
                continue
            best = point_polygon_edge_distance((cs, ct), hull)
            for os_, ot in occ_centers:
                d = math.sqrt((cs - os_) ** 2 + (ct - ot) ** 2)
                if d < best:
                    best = d
            out[row, col] = best
    return out


def point_segment_distance(p: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.sqrt((p[0] - ax) ** 2 + (p[1] - ay) ** 2)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / seg2
    t = max(0.0, min(1.0, t))
    qx, qy = ax + t * dx, ay + t * dy
    return math.sqrt((p[0] - qx) ** 2 + (p[1] - qy) ** 2)


def point_polygon_edge_distance(p: tuple[float, float], poly: list[tuple[float, float]]) -> float:
    """Distance from a point to the boundary of a polygon."""
    n = len(poly)
    return min(point_segment_distance(p, poly[i], poly[(i + 1) % n]) for i in range(n))


def scalar_raster(hull, s_occ, t_occ, pitch: float):
    """Per-point and per-cell loop giving (s_lo, t_lo, occupied, in_hull,
    edge_dist): the frame of `placement._hull_raster` and the cells of
    `placement._occupancy`, except that `edge_dist` is the point-segment
    distance to the boundary (0.0 outside), which `line_dist` equals inside
    the hull."""
    s_lo, t_lo = min(p[0] for p in hull), min(p[1] for p in hull)
    n_cols = max(1, math.ceil((max(p[0] for p in hull) - s_lo) / pitch))
    n_rows = max(1, math.ceil((max(p[1] for p in hull) - t_lo) / pitch))

    occupied = np.zeros((n_rows, n_cols), dtype=bool)
    for si, ti in zip(s_occ, t_occ):
        col = math.floor((si - s_lo) / pitch)
        row = math.floor((ti - t_lo) / pitch)
        if 0 <= col < n_cols and 0 <= row < n_rows:
            occupied[row, col] = True

    in_hull = np.zeros((n_rows, n_cols), dtype=bool)
    edge_dist = np.zeros((n_rows, n_cols), dtype=np.float64)
    for row in range(n_rows):
        for col in range(n_cols):
            cs = s_lo + (col + 0.5) * pitch
            ct = t_lo + (row + 0.5) * pitch
            if inside_convex((cs, ct), hull):
                in_hull[row, col] = True
                edge_dist[row, col] = point_polygon_edge_distance((cs, ct), hull)
    return s_lo, t_lo, occupied, in_hull, edge_dist


def loop_ransac_plane(cloud, seed):
    """`ransac_plane` with one hypothesis scored at a time, on the same draw,
    stopping at the first block boundary with enough hypotheses scored.  The
    settings are read from `placement` on each call, so a test that patches
    `placement.RANSAC_ITERATIONS` patches both."""
    pts = np.asarray(cloud, dtype=np.float64)
    n_pts = len(pts)
    triples = sample_triples(n_pts, placement.RANSAC_ITERATIONS, np.random.default_rng(seed))
    best = (-1, -math.inf)
    best_inliers = None
    for scored, idx in enumerate(triples, start=1):
        a, b, c = pts[idx]
        n = np.cross(b - a, c - a)
        norm = np.linalg.norm(n)
        if norm >= 1e-12:
            n = n / norm
            if (n[2], n[1], n[0]) < (0, 0, 0):  # n_z >= 0, as `placement._orient`
                n = -n
            d = -n @ a
            inliers = np.abs(pts @ n + d) <= placement.INLIER_EPS_M
            key = (int(inliers.sum()), float(d))  # most inliers, then the lowest plane
            if key > best:
                best = key
                best_inliers = inliers
        if scored % HYPOTHESIS_BLOCK == 0 and best[0] > 0:
            w = best[0] / n_pts  # N = log(1 - p) / log(1 - w^3) hypotheses are enough
            if w == 1.0 or scored >= math.log(1.0 - RANSAC_CONFIDENCE) / math.log1p(-(w**3)):
                break
    if best_inliers is None:
        raise PlaneFitError("every sampled triple was degenerate")
    if best[0] < placement.MIN_INLIER_FRACTION * n_pts:
        raise InsufficientSupportError(f"{best[0]}/{n_pts} inliers")
    inlier_idx = np.flatnonzero(best_inliers)
    n, d = _refit(pts[inlier_idx])
    return Plane((float(n[0]), float(n[1]), float(n[2])), d), inlier_idx


def loop_tabletop_cloud(table, n_items: int) -> np.ndarray:
    """A cloud of `sim.TableTop`, point by point."""
    w, d, h = table.dims
    top_z = table.base_z + h
    c, s = math.cos(table.pose.theta), math.sin(table.pose.theta)
    points = []
    nx = max(4, int(w / 0.05))
    ny = max(4, int(d / 0.05))
    for i in range(nx):
        for j in range(ny):
            lx = -w / 2 + (i + 0.5) * w / nx
            ly = -d / 2 + (j + 0.5) * d / ny
            points.append((table.pose.x + c * lx - s * ly, table.pose.y + s * lx + c * ly, top_z))
    for k in range(n_items):
        lx = -w / 2 + 0.12 + 0.18 * (k % 4)
        ly = -d / 2 + 0.12 + 0.18 * (k // 4)
        for di in range(3):
            for dj in range(3):
                points.append(
                    (
                        table.pose.x + c * (lx + 0.02 * di) - s * (ly + 0.02 * dj),
                        table.pose.y + s * (lx + 0.02 * di) + c * (ly + 0.02 * dj),
                        top_z + 0.06,
                    )
                )
    return np.asarray(points, dtype=np.float64)


def axis_indices(center: float, half_width: float, origin: float, resolution: float, size: int) -> list[int]:
    """Every index along one axis whose cell center lies within +-half_width
    of center, tested cell by cell over the whole axis."""
    return [i for i in range(size) if abs(origin + (i + 0.5) * resolution - center) <= half_width]


def brute_force_goal(risk, target, robot_pose, params) -> NavGoal:
    """`select_goal`'s contract as plain nested loops over the whole map.

    Same precondition: `risk` must be `inflate(layer.virtual_obstacles(grid), r)`.
    """
    px, py = select_candidate(candidate_points(target, params), robot_pose)
    nr = params.cell_neighborhood(risk.resolution)
    whw = params.window_half_width
    res = risk.resolution
    ox, oy = risk.origin

    def total(col: int, row: int) -> int:
        cx = ox + (col + 0.5) * res
        cy = oy + (row + 0.5) * res
        dx, dy = cx - px, cy - py
        return int(risk.risk[row, col]) + round(params.alpha * math.sqrt(dx * dx + dy * dy))

    best = None
    best_cell = best_center = None
    for row in range(risk.height):
        cy = oy + (row + 0.5) * res
        if abs(cy - py) > whw:
            continue
        for col in range(risk.width):
            cx = ox + (col + 0.5) * res
            if abs(cx - px) > whw:
                continue
            if int(risk.risk[row, col]) >= RISK_MAX:
                continue
            cost = 0
            for nrow in range(max(0, row - nr), min(risk.height - 1, row + nr) + 1):
                for ncol in range(max(0, col - nr), min(risk.width - 1, col + nr) + 1):
                    cost += total(ncol, nrow)
            dx, dy = cx - px, cy - py
            key = (cost, math.sqrt(dx * dx + dy * dy), row * risk.width + col)
            if best is None or key < best:
                best = key
                best_cell, best_center = CellIndex(col, row), (cx, cy)
    if best_cell is None:
        raise NoGoalError("no admissible cell in the candidate window")
    cx, cy = best_center
    heading = math.atan2(target.pose.y - cy, target.pose.x - cx)
    return NavGoal(best_cell, Pose2D(cx, cy, heading), best[0])
