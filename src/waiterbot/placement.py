"""Placement-area detection: RANSAC plane fit, then a clearance search.

The plane is fit from 3-point hypotheses scored by inlier count and refined
by a least-squares eigen refit over the winning inlier set.  All triples are
drawn first, in the same `rng.choice` order as a per-hypothesis loop would,
then scored in blocks of `HYPOTHESIS_BLOCK` with one distance matrix per block
(batch scoring as in Nister 2005, *Preemptive RANSAC*).  The first hypothesis
with the highest count wins: `argmax` inside a block, strict `>` across blocks.

Placement then rasterizes the inlier hull at 2 cm, marks cells occupied where
off-plane points project from the band above the surface, and picks the free
cell with the largest distance to the nearest occupied cell or hull edge.  The
raster is array code: `point_in_convex_polygon` and one point-segment
distance per hull edge, broadcast over all cell centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import convex_hull, point_in_convex_polygon

OCCUPANCY_BAND_M = 0.30
GRID_PITCH_M = 0.02
CLEARANCE_MARGIN_M = 0.02
# hypotheses scored per distance matrix: (n_pts x 32) floats keeps peak memory
# low while amortizing the per-call overhead over the block
HYPOTHESIS_BLOCK = 32


class PlacementError(Exception):
    pass


class PlaneFitError(PlacementError):
    """Too few points or every sampled triple degenerate."""


class InsufficientSupportError(PlacementError):
    """Best hypothesis explains too small a fraction of the cloud."""


class NoSpaceError(PlacementError):
    """No free cell offers the required clearance."""


@dataclass(frozen=True)
class Plane:
    """Unit normal (n_z >= 0 by convention) and offset d with n.p + d = 0."""

    normal: tuple[float, float, float]
    d: float

    def __post_init__(self) -> None:
        norm = math.sqrt(sum(v * v for v in self.normal))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"normal must be unit length, |n| = {norm}")


@dataclass(frozen=True)
class RansacParams:
    iterations: int = 200
    inlier_eps: float = 0.01
    min_inlier_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.iterations, int) or isinstance(self.iterations, bool):
            raise ValueError(f"iterations must be an integer, got {self.iterations!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.inlier_eps > 0:  # false for NaN too
            raise ValueError(f"inlier_eps must be positive, got {self.inlier_eps!r}")
        if not 0.0 <= self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in [0, 1]")


def load_cloud(text: str) -> np.ndarray:
    """Parse `x y z` triples, one per line; returns an (n, 3) float array."""
    points = []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise PlacementError(f"line {i}: expected 3 values, got {len(parts)}")
        try:
            points.append([float(v) for v in parts])
        except ValueError:
            raise PlacementError(f"line {i}: non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, points[-1])):
            raise PlacementError(f"line {i}: non-finite value in {line!r}")
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


def _orient(n: np.ndarray) -> np.ndarray:
    if n[2] < 0 or (n[2] == 0 and (n[1] < 0 or (n[1] == 0 and n[0] < 0))):
        n = -n
    return n + 0.0  # fold -0.0 into 0.0


def _refit(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane through points: smallest eigenvector of the covariance."""
    centroid = points.mean(axis=0)
    shifted = points - centroid
    cov = shifted.T @ shifted
    _, vecs = np.linalg.eigh(cov)
    n = _orient(vecs[:, 0])
    return n, float(-n @ centroid)


def ransac_plane(cloud: np.ndarray, params: RansacParams) -> tuple[Plane, np.ndarray]:
    """Best-of-N plane and its inlier indices; deterministic for a fixed seed."""
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("cloud must be an (n, 3) array")
    n_pts = len(pts)
    if n_pts < 3:
        raise PlaneFitError(f"need at least 3 points, got {n_pts}")

    rng = np.random.default_rng(params.seed)
    triples = np.array([rng.choice(n_pts, size=3, replace=False) for _ in range(params.iterations)])
    best_count = -1
    best_inliers: np.ndarray | None = None
    for start in range(0, len(triples), HYPOTHESIS_BLOCK):
        a, b, c = (pts[triples[start : start + HYPOTHESIS_BLOCK, k]] for k in range(3))
        n = np.cross(b - a, c - a)
        norm = np.linalg.norm(n, axis=1)
        degenerate = norm < 1e-12
        n = n / np.where(degenerate, 1.0, norm)[:, None]
        d = -np.einsum("ij,ij->i", n, a)
        dists = pts @ n.T  # (n_pts, block), reused in place to keep the peak small
        dists += d
        inliers = np.abs(dists, out=dists) <= params.inlier_eps
        counts = np.where(degenerate, -1, inliers.sum(axis=0))
        j = int(np.argmax(counts))  # first best inside the block
        if counts[j] > best_count:  # strict: an earlier block keeps a tie
            best_count = int(counts[j])
            best_inliers = inliers[:, j]
    if best_inliers is None:
        raise PlaneFitError("every sampled triple was degenerate")
    if best_count < params.min_inlier_fraction * n_pts:
        raise InsufficientSupportError(
            f"best hypothesis explains {best_count}/{n_pts} points, "
            f"below fraction {params.min_inlier_fraction}"
        )
    inlier_idx = np.flatnonzero(best_inliers)
    n, d = _refit(pts[inlier_idx])
    return Plane((float(n[0]), float(n[1]), float(n[2])), d), inlier_idx


def plane_basis(plane: Plane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic orthonormal (u, v, n) frame with u, v spanning the plane."""
    n = np.asarray(plane.normal)
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = seed - (seed @ n) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v, n


def _raster(
    hull: list[tuple[float, float]], s_occ: np.ndarray, t_occ: np.ndarray, pitch: float
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """Cells of size `pitch` over the hull's bounding box, row = t, col = s.

    Returns (s_lo, t_lo, occupied, in_hull, edge_dist): `occupied` marks cells
    holding any (s_occ, t_occ) point, `in_hull` cell centers inside the closed
    CCW hull, and `edge_dist` their distance to the nearest hull edge (0.0
    outside).  Every array expression keeps the operand order of the scalar
    formulas, so the masks match a per-cell loop exactly.  Squares are `d * d`:
    Python's `d ** 2` goes through libm `pow`, which can be 1 ulp off the
    product, so the distances may differ from a `** 2` loop in the last bit.
    """
    s_lo, t_lo = min(p[0] for p in hull), min(p[1] for p in hull)
    n_cols = max(1, math.ceil((max(p[0] for p in hull) - s_lo) / pitch))
    n_rows = max(1, math.ceil((max(p[1] for p in hull) - t_lo) / pitch))

    occupied = np.zeros((n_rows, n_cols), dtype=bool)
    cols = np.floor((s_occ - s_lo) / pitch)
    rows = np.floor((t_occ - t_lo) / pitch)
    keep = (cols >= 0) & (cols < n_cols) & (rows >= 0) & (rows < n_rows)
    occupied[rows[keep].astype(np.intp), cols[keep].astype(np.intp)] = True

    cs = (s_lo + (np.arange(n_cols) + 0.5) * pitch)[None, :]  # cell-center s, one row
    ct = (t_lo + (np.arange(n_rows) + 0.5) * pitch)[:, None]  # cell-center t, one column
    in_hull = point_in_convex_polygon((cs, ct), hull)
    edge_dist = np.full((n_rows, n_cols), np.inf)
    for i, (ax, ay) in enumerate(hull):
        bx, by = hull[(i + 1) % len(hull)]
        dx, dy = bx - ax, by - ay
        seg2 = dx * dx + dy * dy
        tt = np.clip(((cs - ax) * dx + (ct - ay) * dy) / seg2, 0.0, 1.0)  # hull vertices are distinct
        ex = cs - (ax + tt * dx)
        ey = ct - (ay + tt * dy)
        np.minimum(edge_dist, np.sqrt(ex * ex + ey * ey), out=edge_dist)
    edge_dist[~in_hull] = 0.0
    return s_lo, t_lo, occupied, in_hull, edge_dist


def find_placement(
    cloud: np.ndarray, plane: Plane, inliers: np.ndarray, object_radius: float
) -> tuple[float, float, float]:
    """Free point on the plane with the largest clearance (>= radius + margin)."""
    if not object_radius > 0:  # false for NaN too
        raise ValueError(f"object_radius must be positive, got {object_radius!r}")
    pts = np.asarray(cloud, dtype=np.float64)
    u, v, n = plane_basis(plane)
    origin3 = -plane.d * n  # a point on the plane

    rel = pts - origin3
    s = rel @ u
    t = rel @ v
    h = pts @ n + plane.d

    inlier_mask = np.zeros(len(pts), dtype=bool)
    inlier_mask[np.asarray(inliers, dtype=int)] = True
    hull_pts = [(float(a), float(b)) for a, b in zip(s[inlier_mask], t[inlier_mask])]
    hull = convex_hull(hull_pts)
    if len(hull) < 3:
        raise NoSpaceError("inlier hull is degenerate")

    above = ~inlier_mask & (h > 0) & (h <= OCCUPANCY_BAND_M)
    s_lo, t_lo, occupied, in_hull, edge_dist = _raster(hull, s[above], t[above], GRID_PITCH_M)

    if occupied.any():
        obstacle_dist = ndimage.distance_transform_edt(~occupied) * GRID_PITCH_M
    else:
        obstacle_dist = np.full(occupied.shape, np.inf)
    clearance = np.minimum(obstacle_dist, edge_dist)
    clearance[~in_hull | occupied] = -1.0

    flat = int(np.argmax(clearance))  # row-major argmax = row-major tie-break
    row, col = divmod(flat, occupied.shape[1])
    required = object_radius + CLEARANCE_MARGIN_M
    if clearance[row, col] < required:
        raise NoSpaceError(f"best clearance {clearance[row, col]:.3f} m below required {required:.3f} m")
    cs = s_lo + (col + 0.5) * GRID_PITCH_M
    ct = t_lo + (row + 0.5) * GRID_PITCH_M
    p = origin3 + cs * u + ct * v
    return (float(p[0]), float(p[1]), float(p[2]))
