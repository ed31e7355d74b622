"""Placement-area detection: RANSAC plane fit, then a clearance search.

The plane is fit from 3-point hypotheses scored by inlier count and refined
by a least-squares eigen refit over the winning inlier set.  All triples come
from one batched draw (`sample_triples`), then are scored in blocks of
`HYPOTHESIS_BLOCK` with one distance matrix per block (batch scoring as in
Nister 2005, *Preemptive RANSAC*).  Scoring stops early, after the first block
at which the number scored reaches N = log(1 - p) / log(1 - w**3), with w the
best inlier ratio so far and p = `RANSAC_CONFIDENCE` (the adaptive stop of
Hartley & Zisserman 2004, sec. 4.7.1); `RANSAC_ITERATIONS` is the cap.
Tie rule: among the hypotheses scored with the highest count, the lowest
plane wins -- the largest `d` once the normal is oriented to `n_z >= 0` -- so
points above an equally supported surface count as clutter on it; only a full
tie goes to the earliest draw.

Placement then rasterizes the inlier hull at 2 cm, marks cells occupied where
off-plane points project from the band above the surface, and picks the free
cell of largest clearance in one pass over the raster (`_best_cell`).  The
hull is taken only over the inliers an Akl-Toussaint extreme-point test cannot
rule out (`_hull_candidates`), which gives the same hull.

Every result that depends only on the table top, not on the items on it, is
kept in a store the caller owns and passes in.  A store may only be shared by
clouds that agree on every point index both of them hold, as the clouds of one
simulated top do; then the inlier index set fixes the inlier points, and both
stores key on it (`_index_key`).  `ransac_plane` keeps the least-squares refit
(`refits`); the seeded draw, the block scoring and the support check run on
every call.  `find_placement` keeps the `Surface` (`surfaces`), keyed also on
the bytes of the plane's four floats, not on `Plane` equality, under which
`-0.0 == 0.0`.  Each key holds all that its entry is computed from, so a stored
entry equals a recomputed one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import convex_hull, point_in_convex_polygon

OCCUPANCY_BAND_M = 0.30
GRID_PITCH_M = 0.02
CLEARANCE_MARGIN_M = 0.02
# the fit's fixed settings, sized for the simulated tabletops: a 200-draw cap,
# a 1 cm inlier band, and at least 30 % of the cloud on the surface
RANSAC_ITERATIONS = 200
INLIER_EPS_M = 0.01
MIN_INLIER_FRACTION = 0.3
# hypotheses scored per distance matrix: (n_pts x 32) floats keeps peak memory
# low while amortizing the per-call overhead over the block
HYPOTHESIS_BLOCK = 32
# probability that the hypotheses scored include one drawn from inliers only,
# at the best inlier ratio seen so far (see `hypotheses_needed`)
RANSAC_CONFIDENCE = 0.99
# inliers deeper than this fraction of the cloud's extent inside the eight
# extreme points' polygon are dropped before the hull (see `_hull_candidates`)
HULL_PREFILTER_MARGIN = 1e-6
# cells a clearance raster (and samples a simulated tabletop) may hold, checked before
# allocating: a 10 m square at 2 cm; the largest simulated table is about 120 x 70
MAX_RASTER_CELLS = 250_000
# largest coordinate magnitude the fit takes, far beyond any surface that budget holds
# (5 km a side at most): a normal's squared sum is then at most 192 * 1e300, finite
MAX_CLOUD_EXTENT_M = 1e75


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


def _flip(n: np.ndarray) -> np.ndarray:
    """Where a normal, or each row of normals, must be negated to orient it:
    n_z < 0, or n_z = 0 and n_y < 0, or n_z = n_y = 0 and n_x < 0."""
    nx, ny, nz = n.T
    return (nz < 0) | ((nz == 0) & ((ny < 0) | ((ny == 0) & (nx < 0))))


def _orient(n: np.ndarray) -> np.ndarray:
    return (-n if _flip(n) else n) + 0.0  # fold -0.0 into 0.0


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, each component as a1*b2 - a2*b1: the
    per-component order of `np.cross`, with no fused multiply-add, so the
    result equals it bit for bit in under half its time on a small block."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _refit(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane through points: smallest eigenvector of the covariance."""
    centroid = points.mean(axis=0)
    shifted = points - centroid
    cov = shifted.T @ shifted
    _, vecs = np.linalg.eigh(cov)
    n = _orient(vecs[:, 0])
    return n, float(-n @ centroid)


def sample_triples(n_pts: int, iterations: int, rng: np.random.Generator) -> np.ndarray:
    """`iterations` rows of three distinct indices in [0, n_pts), uniform over
    ordered triples, from three vector draws with no rejection loop: `b` is
    shifted past `a`, then `c` past the smaller and the larger of the two."""
    a = rng.integers(0, n_pts, iterations)
    b = rng.integers(0, n_pts - 1, iterations)
    c = rng.integers(0, n_pts - 2, iterations)
    b += b >= a
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    return np.column_stack([a, b, c])


def hypotheses_needed(best_count: int, n_pts: int) -> float:
    """Hypotheses to score before stopping: N = log(1 - p) / log(1 - w**3),
    w = best_count / n_pts, p = `RANSAC_CONFIDENCE`; 0 at w = 1, inf at w <= 0."""
    w = best_count / n_pts
    if w >= 1.0:
        return 0.0
    if w <= 0.0:
        return math.inf
    return math.log(1.0 - RANSAC_CONFIDENCE) / math.log1p(-(w**3))


def _index_key(mask: np.ndarray) -> bytes:
    """`mask` cut after its last set bit and packed 8 to a byte, which is the packed
    mask without its trailing zero bytes: one key per index set."""
    return np.packbits(mask).tobytes().rstrip(b"\0")


def ransac_plane(cloud: np.ndarray, seed: int, refits: dict[bytes, Plane]) -> tuple[Plane, np.ndarray]:
    """Best plane and its inlier indices, by the draw, stop and tie rule of the
    module docstring; deterministic for a fixed seed.

    `refits` stores the least-squares refit of each inlier set; it may only be
    shared by clouds that agree on every point index both of them hold.  A
    PlaneFitError or InsufficientSupportError comes before the store and is
    raised on every try.
    """
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("cloud must be an (n, 3) array")
    n_pts = len(pts)
    if n_pts < 3:
        raise PlaneFitError(f"need at least 3 points, got {n_pts}")
    extent = float(np.abs(pts).max())
    if extent > MAX_CLOUD_EXTENT_M:
        raise PlaneFitError(f"cloud extent {extent:.3g} m exceeds {MAX_CLOUD_EXTENT_M:.0e} m")

    triples = sample_triples(n_pts, RANSAC_ITERATIONS, np.random.default_rng(seed))
    best = (-1, -math.inf)  # (count, d) of the best hypothesis so far
    best_inliers: np.ndarray | None = None
    for start in range(0, len(triples), HYPOTHESIS_BLOCK):
        a, b, c = (pts[triples[start : start + HYPOTHESIS_BLOCK, k]] for k in range(3))
        n = _cross(b - a, c - a)
        norm = np.linalg.norm(n, axis=1)
        degenerate = norm < 1e-12
        n = n / np.where(degenerate, 1.0, norm)[:, None]
        d = -np.einsum("ij,ij->i", n, a)
        dists = pts @ n.T  # (n_pts, block), reused in place to keep the peak small
        dists += d
        inliers = np.abs(dists, out=dists) <= INLIER_EPS_M
        counts = np.where(degenerate, -1, inliers.sum(axis=0))
        d = np.where(_flip(n), -d, d)
        j = int(np.argmax(np.where(counts == counts.max(), d, -np.inf)))  # first lowest of the best
        if counts[j] >= 0 and (int(counts[j]), float(d[j])) > best:  # strict: an earlier block keeps a tie
            best = (int(counts[j]), float(d[j]))
            best_inliers = inliers[:, j]
        if start + HYPOTHESIS_BLOCK >= hypotheses_needed(best[0], n_pts):
            break
    if best_inliers is None:
        raise PlaneFitError("every sampled triple was degenerate")
    best_count, _ = best
    if best_count < MIN_INLIER_FRACTION * n_pts:
        raise InsufficientSupportError(
            f"best hypothesis explains {best_count}/{n_pts} points, "
            f"below fraction {MIN_INLIER_FRACTION}"
        )
    inlier_idx = np.flatnonzero(best_inliers)
    key = _index_key(best_inliers)
    plane = refits.get(key)
    if plane is None:
        n, d = _refit(pts[inlier_idx])
        plane = refits[key] = Plane((float(n[0]), float(n[1]), float(n[2])), d)
    return plane, inlier_idx


def plane_basis(plane: Plane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic orthonormal (u, v, n) frame with u, v spanning the plane."""
    n = np.asarray(plane.normal)
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = seed - (seed @ n) * n
    u = u / np.linalg.norm(u)
    v = _cross(n, u)
    return u, v, n


def _hull_raster(hull: list[tuple[float, float]], pitch: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Cells of size `pitch` over the hull's bounding box, row = t, col = s.

    Returns (s_lo, t_lo, in_hull, line_dist): `in_hull` marks cell centers
    inside the closed CCW hull, and `line_dist` holds the least signed
    distance from a cell center to an edge's supporting line, positive inside.
    The masks keep the operand order of the scalar formulas, so they match a
    per-cell loop exactly.
    """
    s_lo, t_lo = min(p[0] for p in hull), min(p[1] for p in hull)
    n_cols = max(1, math.ceil((max(p[0] for p in hull) - s_lo) / pitch))
    n_rows = max(1, math.ceil((max(p[1] for p in hull) - t_lo) / pitch))
    if n_rows * n_cols > MAX_RASTER_CELLS:
        raise NoSpaceError(f"surface of {n_rows} x {n_cols} cells exceeds the {MAX_RASTER_CELLS}-cell budget")

    cs = s_lo + (np.arange(n_cols) + 0.5) * pitch  # cell-center s of each column
    ct = t_lo + (np.arange(n_rows) + 0.5) * pitch  # cell-center t of each row
    in_hull = point_in_convex_polygon((cs[None, :], ct[:, None]), hull)
    a = np.asarray(hull)
    e = np.roll(a, -1, axis=0) - a
    length = np.hypot(e[:, 0], e[:, 1])  # hull vertices are distinct
    nx, ny = -e[:, 1] / length, e[:, 0] / length  # unit normals pointing into the CCW hull
    row_part = ny[:, None] * ct - (nx * a[:, 0] + ny * a[:, 1])[:, None]  # (edges, rows)
    col_part = nx[:, None] * cs  # (edges, cols)
    line_dist = row_part[0][:, None] + col_part[0]
    edge_dist = np.empty_like(line_dist)  # a running minimum keeps memory at two rasters
    for r, c in zip(row_part[1:], col_part[1:]):
        np.minimum(line_dist, np.add(r[:, None], c, out=edge_dist), out=line_dist)
    return s_lo, t_lo, in_hull, line_dist


def _occupancy(
    s_lo: float, t_lo: float, shape: tuple[int, int], s_occ: np.ndarray, t_occ: np.ndarray, pitch: float
) -> np.ndarray:
    """Cells of the raster frame at (s_lo, t_lo) of `shape` that hold any
    (s_occ, t_occ) point; points outside the frame are dropped."""
    n_rows, n_cols = shape
    occupied = np.zeros(shape, dtype=bool)
    cols = np.floor((s_occ - s_lo) / pitch)
    rows = np.floor((t_occ - t_lo) / pitch)
    keep = (cols >= 0) & (cols < n_cols) & (rows >= 0) & (rows < n_rows)
    occupied[rows[keep].astype(np.intp), cols[keep].astype(np.intp)] = True
    return occupied


def _gaps2(occ: np.ndarray) -> np.ndarray:
    """Squared distance, along each row of `occ`, from each cell to the
    nearest True cell of its row; every row must hold one."""
    n = occ.shape[1]
    i = np.arange(n)
    # the fill values -n and 2 * n lie farther than any column, so each row's
    # nearest True cell, before or after, gives the gap
    before = np.maximum.accumulate(np.where(occ, i, -n), axis=1)
    after = np.minimum.accumulate(np.where(occ, i, 2 * n)[:, ::-1], axis=1)[:, ::-1]
    return np.minimum(i - before, after - i) ** 2


def _distance_transform(occupied: np.ndarray) -> np.ndarray:
    """Euclidean distance, in cells, from each cell to the nearest occupied
    one; `occupied` must hold at least one.

    The exact separable transform (Saito & Toriwaki 1994; Felzenszwalb &
    Huttenlocher 2012), run over the axis with fewer occupied lines: per
    occupied column, the vertical distance g from each cell to the column's
    nearest occupied cell, then the least g**2 + (column offset)**2 over those
    columns, kept as a running minimum over one raster; per occupied row the
    same with the axes swapped.  The raster is written in (rows, columns)
    order either way.  The squares are integers, so the result equals
    `scipy.ndimage.distance_transform_edt` of the free cells bit for bit.
    """
    n_rows, n_cols = occupied.shape
    rows, cols = np.flatnonzero(occupied.any(axis=1)), np.flatnonzero(occupied.any(axis=0))
    # per occupied line: the squared vertical part of the distance of each row, and horizontal of each column
    if len(rows) < len(cols):
        vert, horiz = (np.arange(n_rows) - rows[:, None]) ** 2, _gaps2(occupied[rows])
    else:
        vert, horiz = _gaps2(occupied[:, cols].T), (np.arange(n_cols) - cols[:, None]) ** 2
    sq = vert[0][:, None] + horiz[0]
    step = np.empty_like(sq)
    for v, h in zip(vert[1:], horiz[1:]):
        np.minimum(sq, np.add(v[:, None], h, out=step), out=sq)
    return np.sqrt(sq)


def _best_cell(surface: Surface, s_occ: np.ndarray, t_occ: np.ndarray) -> tuple[float, float, float]:
    """Center (s, t) and clearance of the first cell, in row-major order, with
    the largest clearance over the surface's raster frame, once the
    (s_occ, t_occ) points mark their cells occupied.

    A free cell inside the hull has clearance min(obstacle distance,
    `line_dist`); every other cell has -1, so on a raster with no free cell
    inside the hull the first cell wins with -1.  Inside a convex polygon the
    distance to the boundary equals the least distance to an edge's supporting
    line: a disc that clears every line lies in every half-plane.
    """
    pitch = GRID_PITCH_M
    occupied = _occupancy(surface.s_lo, surface.t_lo, surface.in_hull.shape, s_occ, t_occ, pitch)
    if occupied.any():
        obstacle_dist = _distance_transform(occupied) * pitch
    else:
        obstacle_dist = np.full(occupied.shape, np.inf)
    clearance = np.minimum(obstacle_dist, surface.line_dist)
    clearance[~surface.in_hull | occupied] = -1.0
    row, col = divmod(int(np.argmax(clearance)), occupied.shape[1])  # first maximum
    return surface.s_lo + (col + 0.5) * pitch, surface.t_lo + (row + 0.5) * pitch, float(clearance[row, col])


def _hull_candidates(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask of the points `convex_hull` may keep (Akl & Toussaint 1978).

    The points extreme in the eight directions +-s, +-t, +-(s+t), +-(s-t),
    taken in CCW order of direction, bound a polygon inside the hull.  A point
    left of every non-empty edge of it by more than `HULL_PREFILTER_MARGIN`
    times the cloud's extent D is dropped: it lies at least that far inside
    the hull, since a point strictly left of every edge of a closed polygon is
    wound around by it.  The float monotone chain cannot keep such a point
    either.  Its orientation test, a difference of two products of
    coordinate differences, is off by less than 8u|a-o||b-o| (u = 2**-53), so
    it can misjudge a point only within 8uD of the line through the other
    two.  Only such near-collinear calls let the chain stray from the exact
    hull, by at most 8uD each, so by less than the margin (about 9e9 uD) for
    any cloud of fewer than 10**8 points; the mask's own rounding is of the
    same 8uD size.  A dropped point thus takes no part in any call the chain
    gets wrong, and is popped as the exact chain pops it.
    """
    if len(s) == 0:
        return np.zeros(0, dtype=bool)
    ext = np.stack([s, s + t, t, t - s, -s, -s - t, -t, s - t]).argmax(axis=1)
    ax, ay = s[ext], t[ext]
    ex, ey = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    length = np.hypot(ex, ey)
    edge = length > 0  # repeated extreme points give empty edges
    if not edge.any():
        return np.ones(len(s), dtype=bool)
    ax, ay, ex, ey, length = ax[edge, None], ay[edge, None], ex[edge, None], ey[edge, None], length[edge, None]
    margin = HULL_PREFILTER_MARGIN * max(float(np.ptp(s)), float(np.ptp(t)))
    depth = ex * (t - ay) - ey * (s - ax)  # (edges, points): |edge| times the distance left of it
    return ~(depth > margin * length).all(axis=0)


@dataclass(frozen=True)
class Surface:
    """A fitted top's plane basis, inlier hull and the hull's raster frame (see
    `_hull_raster`): all of a placement that the items on the table do not
    change.  The arrays are read-only, since a run shares them."""

    basis: tuple[np.ndarray, np.ndarray, np.ndarray]
    hull: tuple[tuple[float, float], ...]
    s_lo: float
    t_lo: float
    in_hull: np.ndarray
    line_dist: np.ndarray


def _build_surface(basis: tuple[np.ndarray, np.ndarray, np.ndarray], s_in: np.ndarray, t_in: np.ndarray) -> Surface:
    """The `Surface` of the inliers projected on `basis` to (s_in, t_in);
    NoSpaceError for a degenerate hull or a frame over `MAX_RASTER_CELLS`."""
    keep = _hull_candidates(s_in, t_in)
    hull = convex_hull(list(zip(s_in[keep].tolist(), t_in[keep].tolist())))
    if len(hull) < 3:
        raise NoSpaceError("inlier hull is degenerate")
    s_lo, t_lo, in_hull, line_dist = _hull_raster(hull, GRID_PITCH_M)
    for array in (*basis, in_hull, line_dist):
        array.setflags(write=False)
    return Surface(basis, tuple(hull), s_lo, t_lo, in_hull, line_dist)


def find_placement(cloud: np.ndarray, plane: Plane, inliers: np.ndarray, object_radius: float,
                   surfaces: dict[tuple[bytes, bytes], Surface]) -> tuple[float, float, float]:
    """Free point on the plane with the largest clearance (>= radius + margin).

    `surfaces` stores the `Surface` of each plane and inlier set; it may only
    be shared by clouds that agree on every point index both of them hold.  A
    NoSpaceError from the build is raised again on every try, never stored.
    """
    if not object_radius > 0:  # false for NaN too
        raise ValueError(f"object_radius must be positive, got {object_radius!r}")
    pts = np.asarray(cloud, dtype=np.float64)
    inlier_mask = np.zeros(len(pts), dtype=bool)
    inlier_mask[np.asarray(inliers, dtype=int)] = True
    key = (np.array([*plane.normal, plane.d]).tobytes(), _index_key(inlier_mask))
    surface = surfaces.get(key)
    u, v, n = basis = plane_basis(plane) if surface is None else surface.basis
    origin3 = -plane.d * n  # a point on the plane

    rel = pts - origin3
    s = rel @ u
    t = rel @ v
    h = pts @ n + plane.d
    if surface is None:
        surface = surfaces[key] = _build_surface(basis, s[inlier_mask], t[inlier_mask])

    above = ~inlier_mask & (h > 0) & (h <= OCCUPANCY_BAND_M)
    cs, ct, clearance = _best_cell(surface, s[above], t[above])
    required = object_radius + CLEARANCE_MARGIN_M
    if clearance < required:
        raise NoSpaceError(f"best clearance {clearance:.3f} m below required {required:.3f} m")
    p = origin3 + cs * u + ct * v
    return (float(p[0]), float(p[1]), float(p[2]))
