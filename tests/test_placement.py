import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import oracles
from helpers import save_cloud, table, tabletops
from oracles import naive_clearance
from waiterbot import placement
from waiterbot.geometry import convex_hull
from waiterbot.placement import (
    InsufficientSupportError,
    NoSpaceError,
    PlacementError,
    Plane,
    PlaneFitError,
    find_placement,
    load_cloud,
    plane_basis,
    ransac_plane,
)
from waiterbot.sim import TableTop


def flat_cloud(z=1.0, nx=22, ny=18, half_w=0.55, half_d=0.45):
    xs = np.linspace(-half_w, half_w, nx)
    ys = np.linspace(-half_d, half_d, ny)
    return np.array([[x, y, z] for x in xs for y in ys])


def noisy_scene(seed: int, n_in=420, n_out=180, z=0.74, sigma=0.002):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-0.6, 0.6, (n_in, 2))
    inliers = np.column_stack([xy, z + rng.normal(0.0, sigma, n_in)])
    outliers = np.column_stack(
        [
            rng.uniform(-1.0, 1.0, n_out),
            rng.uniform(-1.0, 1.0, n_out),
            rng.uniform(0.0, 1.0, n_out),
        ]
    )
    return np.vstack([inliers, outliers]), n_in


class TestRansac:
    def test_noiseless_plane_exact(self):
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.uniform(-1, 1, 500), rng.uniform(-0.5, 0.5, 500), np.ones(500)])
        plane, inliers = ransac_plane(pts, 7, {})
        assert plane.normal == (0.0, 0.0, 1.0)
        assert plane.d == -1.0
        assert len(inliers) == 500  # inlier set equals exact plane membership

    def test_noisy_scene_recovers_plane(self):
        cloud, n_in = noisy_scene(900)
        plane, inliers = ransac_plane(cloud, 3, {})
        angle = math.degrees(math.acos(min(1.0, abs(plane.normal[2]))))
        assert angle <= 2.0
        recall = len(set(inliers.tolist()) & set(range(n_in))) / n_in
        assert recall >= 0.95

    def test_two_points_rejected(self):
        with pytest.raises(PlaneFitError):
            ransac_plane(np.array([[0, 0, 0], [1, 0, 0]]), 0, {})

    def test_collinear_cloud_rejected(self):
        pts = np.array([[float(i), 0.0, 0.0] for i in range(10)])
        with pytest.raises(PlaneFitError):
            ransac_plane(pts, 0, {})

    def test_insufficient_support(self):
        rng = np.random.default_rng(2)
        scatter = rng.uniform(-1, 1, (200, 3))
        with pytest.raises(InsufficientSupportError):
            ransac_plane(scatter, 0, {})

    @pytest.mark.parametrize("flat", [True, False])
    def test_cloud_at_the_extent_bound_fits_without_overflow(self, flat):
        # the corners of the bound's cube (or square) and a seeded fill: the
        # largest differences, cross products and squared sums the fit can meet
        e = placement.MAX_CLOUD_EXTENT_M
        corners = np.array(list(itertools.product((-e, e), repeat=3)))
        cloud = np.vstack([corners, np.random.default_rng(4).uniform(-e, e, (200, 3))])
        if flat:
            cloud[:, 2] = 0.0
        with pytest.raises(NoSpaceError if flat else InsufficientSupportError):
            plane, inliers = ransac_plane(cloud, 0, {})  # a RuntimeWarning fails the test
            find_placement(cloud, plane, inliers, object_radius=0.05, surfaces={})

    def test_cloud_beyond_the_extent_bound_rejected(self):
        cloud = flat_cloud()
        cloud[0, 0] = -2 * placement.MAX_CLOUD_EXTENT_M
        with pytest.raises(PlaneFitError, match="cloud extent 2e"):
            ransac_plane(cloud, 0, {})

    def test_fixed_seed_bit_identical(self):
        cloud, _ = noisy_scene(31)
        a = ransac_plane(cloud, 12, {})
        b = ransac_plane(cloud, 12, {})
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_refit_never_worse_than_hypothesis(self):
        for seed in range(10):
            cloud, _ = noisy_scene(400 + seed)
            pts = np.asarray(cloud)
            best = None
            for idx in placement.sample_triples(len(pts), 200, np.random.default_rng(seed)):
                a, b, c = pts[idx]
                n = np.cross(b - a, c - a)
                norm = np.linalg.norm(n)
                if norm < 1e-12:
                    continue
                n = n / norm
                d = -n @ a
                dists = np.abs(pts @ n + d)
                count = int((dists <= 0.01).sum())
                if best is None or count > best[0]:
                    best = (count, n, d, dists <= 0.01)
            _, n, d, mask = best
            hyp_rms = float(np.sqrt(np.mean((pts[mask] @ n + d) ** 2)))
            plane, inliers = ransac_plane(cloud, seed, {})
            nn = np.asarray(plane.normal)
            refit_rms = float(np.sqrt(np.mean((pts[inliers] @ nn + plane.d) ** 2)))
            assert refit_rms <= hyp_rms + 1e-12

    def test_normal_orientation_convention(self):
        pts = flat_cloud(z=0.5)
        plane, _ = ransac_plane(pts, 4, {})
        assert plane.normal[2] >= 0

    def test_plane_normal_must_be_unit(self):
        with pytest.raises(ValueError):
            Plane((0, 0, 2), 0.0)


class TestFindPlacement:
    def test_point_lies_on_plane_with_clearance(self):
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, 0, {})
        p = find_placement(cloud, plane, inliers, object_radius=0.05, surfaces={})
        assert abs(np.dot(plane.normal, p) + plane.d) <= 1e-6

    def test_empty_table_matches_naive_clearance_oracle(self):
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, 0, {})
        p = find_placement(cloud, plane, inliers, object_radius=0.05, surfaces={})

        u, v, _ = plane_basis(plane)
        origin3 = -plane.d * np.asarray(plane.normal)
        rel = cloud - origin3
        hull = convex_hull([(float(a), float(b)) for a, b in zip(rel @ u, rel @ v)])
        pitch = 0.02
        s_lo = min(q[0] for q in hull)
        t_lo = min(q[1] for q in hull)
        n_cols = max(1, math.ceil((max(q[0] for q in hull) - s_lo) / pitch))
        n_rows = max(1, math.ceil((max(q[1] for q in hull) - t_lo) / pitch))
        clearance = naive_clearance(np.zeros((n_rows, n_cols), dtype=bool), hull, pitch, s_lo, t_lo)
        row, col = np.unravel_index(int(np.argmax(clearance)), clearance.shape)
        expected = origin3 + (s_lo + (col + 0.5) * pitch) * u + (t_lo + (row + 0.5) * pitch) * v
        assert p == pytest.approx(tuple(expected), abs=1e-9)

    def test_object_cluster_pushes_spot_to_free_half(self):
        surface = flat_cloud(z=1.0)
        blob = np.array(
            [[x, y, 1.06] for x in np.arange(0.1, 0.5, 0.03) for y in np.arange(-0.4, 0.41, 0.03)]
        )
        cloud = np.vstack([surface, blob])
        plane, inliers = ransac_plane(cloud, 0, {})
        p = find_placement(cloud, plane, inliers, object_radius=0.05, surfaces={})
        assert p[0] < 0.0  # west half
        # verify the promised clearance against the blob and the hull edge
        d_blob = min(math.dist(p[:2], q[:2]) for q in blob)
        assert d_blob >= 0.05 + 0.02 - 0.02 * math.sqrt(2)  # cell-center quantization slack

    def test_fully_covered_table_raises_no_space(self):
        surface = flat_cloud(z=1.0, nx=12, ny=12, half_w=0.2, half_d=0.2)
        # clutter above every part of the surface, sparse enough that the
        # surface plane still wins the hypothesis vote
        lid = surface[::2] + np.array([0.0, 0.0, 0.05])
        cloud = np.vstack([surface, lid])
        plane, inliers = ransac_plane(cloud, 0, {})
        assert abs(plane.d + 1.0) < 0.01  # fitted the table surface, not the lid
        with pytest.raises(NoSpaceError):
            find_placement(cloud, plane, inliers, object_radius=0.05, surfaces={})

    def test_points_below_plane_do_not_occupy(self):
        surface = flat_cloud(z=1.0)
        under = np.array([[0.0, 0.0, 0.5], [0.1, 0.1, 0.2]])  # table legs etc.
        cloud = np.vstack([surface, under])
        plane, inliers = ransac_plane(cloud, 0, {})
        spot_with = find_placement(cloud, plane, inliers, object_radius=0.05, surfaces={})
        plane2, inliers2 = ransac_plane(surface, 0, {})
        spot_without = find_placement(surface, plane2, inliers2, object_radius=0.05, surfaces={})
        assert spot_with == pytest.approx(spot_without, abs=1e-9)

    def test_invalid_radius(self):
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, 0, {})
        with pytest.raises(ValueError):
            find_placement(cloud, plane, inliers, object_radius=0.0, surfaces={})

    def test_nan_radius_rejected(self):
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, 0, {})
        with pytest.raises(ValueError, match="object_radius"):
            find_placement(cloud, plane, inliers, object_radius=float("nan"), surfaces={})


@st.composite
def hull_clouds(draw):
    """(s, t) clouds: uniform random, rotated tabletop grids, near-collinear
    sets, each with some points repeated; sizes from 0 up."""
    kind = draw(st.sampled_from(["random", "grid", "collinear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        s, t = rng.uniform(-1.0, 1.0, (2, draw(st.integers(0, 60))))
    elif kind == "grid":
        nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 30))
        ls, lt = np.meshgrid((np.arange(nx) + 0.5) * 0.05, (np.arange(ny) + 0.5) * 0.05)
        yaw = draw(st.sampled_from([0.0, 1e-9, -1e-4, 0.01, 0.3, math.pi / 4, float(rng.uniform(-math.pi, math.pi))]))
        cx, cy = rng.uniform(-10.0, 10.0, 2)
        c, sn = math.cos(yaw), math.sin(yaw)
        s, t = cx + c * ls.ravel() - sn * lt.ravel(), cy + sn * ls.ravel() + c * lt.ravel()
    else:
        n = draw(st.integers(2, 40))
        along = rng.uniform(0.0, 2.0, n)
        off = rng.normal(0.0, draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-8])), n)
        yaw = float(rng.uniform(-math.pi, math.pi))
        s, t = along * math.cos(yaw) - off * math.sin(yaw), along * math.sin(yaw) + off * math.cos(yaw)
        extra = rng.uniform(0.0, 1.0, (2, draw(st.integers(0, 5))))  # a few points off the line
        s, t = np.append(s, extra[0]), np.append(t, extra[1])
    repeat = rng.integers(0, len(s), draw(st.integers(0, 8))) if len(s) else np.zeros(0, dtype=int)
    return np.append(s, s[repeat]), np.append(t, t[repeat])


class TestHullPrefilter:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(hull_clouds())
    def test_same_hull_as_all_points(self, cloud):
        s, t = cloud
        keep = placement._hull_candidates(s, t)
        assert convex_hull(list(zip(s[keep].tolist(), t[keep].tolist()))) == convex_hull(
            list(zip(s.tolist(), t.tolist())))

    def test_drops_the_interior_of_a_banquet_table(self):
        table_, _ = next(tabletops())
        cloud = TableTop(table_).cloud(0)
        keep = placement._hull_candidates(cloud[:, 0], cloud[:, 1])
        assert len(cloud) > 1000 and keep.sum() < len(cloud) // 5  # the boundary rows stay


class TestCloudIO:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, (40, 3))
        again = load_cloud(save_cloud(pts))
        assert np.array_equal(pts, again)

    def test_bad_line_reports_number(self):
        with pytest.raises(PlacementError) as err:
            load_cloud("0 0 0\n1 2\n")
        assert "line 2" in str(err.value)

    def test_non_numeric_reports_number(self):
        with pytest.raises(PlacementError) as err:
            load_cloud("0 0 zero\n")
        assert "line 1" in str(err.value)


def placement_cases():
    """(cloud, object radius, seed): the `tabletops()` clouds, then a seeded
    sweep of small tilted, cluttered surfaces, some with no space (a large
    object radius) and some with every cell occupied (a lid over the top)."""
    for table_, n_items in tabletops():
        yield TableTop(table_).cloud(n_items), 0.05, n_items
    rng = np.random.default_rng(13)
    for n_items in range(24):  # a square table at 45 degrees to the raster: exact clearance ties
        center = (float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)), 0.36)
        yield TableTop(table("t", center, (0.6, 0.6, 0.72), math.pi / 4)).cloud(n_items % 12), 0.05, n_items
    for i in range(120):
        w, d = rng.uniform(0.2, 1.0, 2)
        n = int(rng.integers(30, 600))
        top = np.column_stack([rng.uniform(-w / 2, w / 2, n), rng.uniform(-d / 2, d / 2, n), np.zeros(n)])
        if i % 4 == 3:  # lid: a 1.2 cm grid puts a point in every 2 cm cell; the top has more points
            w, d = w / 2, d / 2
            g = np.mgrid[-w / 2 - 0.02 : w / 2 + 0.02 : 0.012, -d / 2 - 0.02 : d / 2 + 0.02 : 0.012].reshape(2, -1).T
            top = np.column_stack([rng.uniform(-w / 2, w / 2, (2 * len(g), 2)), np.zeros(2 * len(g))])
            clutter = np.column_stack([g, np.full(len(g), 0.05)])
        else:
            k = int(rng.integers(0, n // 2 + 1))
            center = rng.uniform(-w / 2, w / 2), rng.uniform(-d / 2, d / 2)
            clutter = np.column_stack([rng.normal(center[0], 0.05, k), rng.normal(center[1], 0.05, k),
                                       rng.uniform(0.01, 0.3, k)])
        pts = np.vstack([top, clutter])
        yaw, tilt = rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 0.4)
        cy, sy, cx, sx = math.cos(yaw), math.sin(yaw), math.cos(tilt), math.sin(tilt)
        rot_z = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
        rot_x = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
        yield pts @ (rot_z @ rot_x).T + rng.uniform(-10, 10, 3), (0.05 if i % 3 else 0.2), i


def placed(cloud, plane, inliers, radius):
    """`find_placement`'s point, or its `NoSpaceError` message."""
    try:
        return find_placement(cloud, plane, inliers, object_radius=radius, surfaces={})
    except NoSpaceError as e:
        return str(e)


def criterion_6_cloud(trial):
    """The noisy plane-plus-clutter cloud of acceptance criterion 6."""
    rng = np.random.default_rng(5000 + trial)
    xy = rng.uniform(-0.6, 0.6, (420, 2))
    inliers = np.column_stack([xy, 0.74 + rng.normal(0, 0.002, 420)])
    outliers = np.column_stack([rng.uniform(-1, 1, 180), rng.uniform(-1, 1, 180), rng.uniform(0, 1, 180)])
    return np.vstack([inliers, outliers])


class TestArrayCodeMatchesLoops:
    """The array code in placement and sim against the per-cell loops in oracles."""

    def test_tabletop_cloud_bit_identical(self):
        for table, n_items in tabletops():
            fast = TableTop(table).cloud(n_items)
            slow = oracles.loop_tabletop_cloud(table, n_items)
            assert fast.shape == slow.shape
            assert fast.tobytes() == slow.tobytes()

    def test_raster_and_point_match_scalar_loop(self, monkeypatch):
        marked, one_pass = placement._occupancy, placement._best_cell
        pitch = placement.GRID_PITCH_M
        cells = 0
        slow = None

        def checked(s_lo, t_lo, shape, s_occ, t_occ, pitch):
            fast = marked(s_lo, t_lo, shape, s_occ, t_occ, pitch)
            assert np.array_equal(fast, slow[2])  # occupied, over the frame's cells
            return fast

        def best_is_largest(surface, s_occ, t_occ):
            # the surface's frame, from `_hull_raster`, matches the loop; then the
            # chosen cell's clearance, with the point-segment distance, is within
            # rounding of the largest over all free cells in the hull
            nonlocal cells, slow
            slow = oracles.scalar_raster(list(surface.hull), s_occ, t_occ, pitch)
            assert (surface.s_lo, surface.t_lo) == slow[:2]
            assert np.array_equal(surface.in_hull, slow[3])
            assert (np.abs(surface.line_dist - slow[4])[surface.in_hull] <= 1e-12).all()  # line = edge distance
            cells += surface.in_hull.size
            cs, ct, clearance = one_pass(surface, s_occ, t_occ)
            s_lo, t_lo, occupied, in_hull, edge_dist = slow
            if occupied.any():
                exact = np.minimum(ndimage.distance_transform_edt(~occupied) * pitch, edge_dist)
            else:
                exact = edge_dist.copy()
            exact[~in_hull | occupied] = -1.0
            n_rows, n_cols = occupied.shape
            (col,) = np.flatnonzero(s_lo + (np.arange(n_cols) + 0.5) * pitch == cs)
            (row,) = np.flatnonzero(t_lo + (np.arange(n_rows) + 0.5) * pitch == ct)
            assert abs(clearance - exact[row, col]) <= 1e-12
            assert exact[row, col] >= exact.max() - 1e-12
            return cs, ct, clearance

        outcomes = Counter()
        for cloud, radius, seed in placement_cases():
            plane, inliers = ransac_plane(cloud, seed, {})
            monkeypatch.setattr(placement, "_occupancy", checked)
            monkeypatch.setattr(placement, "_best_cell", best_is_largest)
            result = placed(cloud, plane, inliers, radius)
            monkeypatch.undo()
            outcomes[result if isinstance(result, str) and "-1.000" in result else type(result).__name__] += 1
        assert cells > 100_000
        assert outcomes["tuple"] > 50 and outcomes["str"] > 10
        assert outcomes["best clearance -1.000 m below required 0.070 m"] > 10

    def test_line_dist_is_the_least_over_edges_in_two_rasters(self):
        def polygon(n, r):
            k = np.arange(n) * 2 * math.pi / n
            return convex_hull(list(zip((r * np.cos(k)).tolist(), (r * np.sin(k)).tolist())))

        # bit-equal to the (edges x rows x cols) block it replaces, here 60 x 60 x 60 cells
        hull = polygon(60, 0.6)
        _, _, in_hull, line_dist = placement._hull_raster(hull, 0.02)
        a = np.asarray(hull)
        e = np.roll(a, -1, axis=0) - a
        nx, ny = -e[:, 1] / np.hypot(e[:, 0], e[:, 1]), e[:, 0] / np.hypot(e[:, 0], e[:, 1])
        cs = a[:, 0].min() + (np.arange(in_hull.shape[1]) + 0.5) * 0.02
        ct = a[:, 1].min() + (np.arange(in_hull.shape[0]) + 0.5) * 0.02
        row_part = ny[:, None] * ct - (nx * a[:, 0] + ny * a[:, 1])[:, None]
        block = row_part[:, :, None] + (nx[:, None] * cs)[:, None, :]
        assert line_dist.tobytes() == block.min(axis=0).tobytes()
        # a 400-gon over 200 x 200 cells: the block would take 400 rasters
        hull = polygon(400, 2.0)
        tracemalloc.start()
        _, _, in_hull, _ = placement._hull_raster(hull, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(hull) == 400 and in_hull.size >= 199 * 199
        assert peak < 8 * in_hull.size * 8  # a few float rasters

    def test_raster_marks_occupied_cells_and_drops_outside_points(self):
        hull = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        s_occ = np.array([0.05, 0.5, -0.3, 1.5, 0.999])
        t_occ = np.array([0.05, 0.5, 0.5, 0.5, 0.999])
        s_lo, t_lo, in_hull, _ = placement._hull_raster(hull, 0.1)
        fast = placement._occupancy(s_lo, t_lo, in_hull.shape, s_occ, t_occ, 0.1)
        slow = oracles.scalar_raster(hull, s_occ, t_occ, 0.1)
        assert np.array_equal(fast, slow[2])
        assert np.flatnonzero(fast).tolist() == [0, 55, 99]

    def test_cross_is_bit_equal_to_numpy_on_every_scored_block(self, monkeypatch):
        cross = placement._cross
        shapes = Counter()

        def checked(a, b):
            fast = cross(a, b)
            assert fast.shape == np.cross(a, b).shape and fast.tobytes() == np.cross(a, b).tobytes()
            shapes[fast.shape] += 1
            return fast

        monkeypatch.setattr(placement, "_cross", checked)
        clouds = [(criterion_6_cloud(trial), trial) for trial in range(100)]
        clouds += [(TableTop(table).cloud(n), n) for table, n in tabletops()]
        for cloud, seed in clouds:
            plane, _ = ransac_plane(cloud, seed, {})
            plane_basis(plane)
        # each fit stops after one block at these inlier ratios, and makes one basis
        assert shapes == {(placement.HYPOTHESIS_BLOCK, 3): len(clouds), (3,): len(clouds)}

    def test_ransac_same_plane_and_inliers_as_loop(self):
        clouds = [(criterion_6_cloud(trial), trial) for trial in range(100)]
        clouds += [(TableTop(table).cloud(n), n) for table, n in tabletops()]
        for cloud, seed in clouds:
            plane, inliers = ransac_plane(cloud, seed, {})
            loop_plane, loop_inliers = oracles.loop_ransac_plane(cloud, seed)
            assert plane == loop_plane
            assert np.array_equal(inliers, loop_inliers)

    def test_stop_scores_blocks_until_enough_hypotheses(self, monkeypatch):
        needed = placement.hypotheses_needed
        best_counts = []  # one entry per block scored

        def counted(best_count, n_pts):
            best_counts.append(best_count)
            return needed(best_count, n_pts)

        monkeypatch.setattr(placement, "hypotheses_needed", counted)
        # 30 % of the points on z = 0, the rest far above: N = 168.3 at w = 0.3
        rng = np.random.default_rng(0)
        table_top = np.column_stack([rng.uniform(-1, 1, (300, 2)), np.zeros(300)])
        clutter = np.column_stack([rng.uniform(-1, 1, (700, 2)), rng.uniform(0.5, 1.5, 700)])
        cloud = np.vstack([table_top, clutter])
        for iterations, blocks in ((160, 5), (200, 6)):  # every block under the cap; 192 >= 168.3
            monkeypatch.setattr(placement, "RANSAC_ITERATIONS", iterations)
            best_counts.clear()
            plane, inliers = ransac_plane(cloud, 1, {})
            assert inliers.tolist() == list(range(300))
            assert len(best_counts) == blocks and best_counts[-1] == 300
        assert 160 < needed(300, 1000) < 192

        best_counts.clear()
        ransac_plane(flat_cloud(), 0, {})  # w = 1: one block
        assert best_counts == [len(flat_cloud())]
        assert needed(5, 5) == 0.0 and needed(-1, 5) == math.inf

    @pytest.mark.parametrize("iterations", [1, 31, 32, 33, 200])
    def test_ransac_lowest_plane_tie_break(self, monkeypatch, iterations):
        # two parallel planes with equal point counts: every hypothesis drawn
        # from one plane ties, so whenever both planes are drawn the lower wins
        lower = flat_cloud(z=0.0, nx=10, ny=10)
        cloud = np.vstack([lower, lower + np.array([0.0, 0.0, 1.0])])
        monkeypatch.setattr(placement, "RANSAC_ITERATIONS", iterations)
        drawn_both = 0
        for seed in range(20):
            triples = placement.sample_triples(len(cloud), iterations, np.random.default_rng(seed))
            upper_rows = (triples >= len(lower)).sum(axis=1)
            try:
                loop = oracles.loop_ransac_plane(cloud, seed)
            except PlacementError as e:
                with pytest.raises(type(e)):
                    ransac_plane(cloud, seed, {})
                continue
            plane, inliers = ransac_plane(cloud, seed, {})
            assert plane == loop[0]
            assert np.array_equal(inliers, loop[1])
            if (upper_rows == 0).any():
                drawn_both += bool((upper_rows == 3).any())
                assert plane.normal == (0.0, 0.0, 1.0) and abs(plane.d) < 1e-12
                assert inliers.tolist() == list(range(len(lower)))
            else:
                assert abs(plane.d + 1.0) < 1e-12
        assert drawn_both > 0 or iterations == 1


def scipy_edt(occupied):
    return ndimage.distance_transform_edt(~occupied)


def single_column(n_rows, n_cols, col):
    mask = np.zeros((n_rows, n_cols), dtype=bool)
    mask[:, col] = True
    return mask


class TestDistanceTransform:
    """`_distance_transform` against scipy's exact EDT, bit for bit."""

    def test_random_masks_match_scipy(self):
        rng = np.random.default_rng(26)
        transposed = 0
        for _ in range(2000):
            n_rows, n_cols = rng.integers(1, 90, size=2)
            occupancy = 10 ** rng.uniform(-3, math.log10(0.9))  # 0.1 % to 90 %
            occupied = rng.random((n_rows, n_cols)) < occupancy
            occupied[rng.integers(n_rows), rng.integers(n_cols)] = True
            transposed += occupied.any(axis=1).sum() < occupied.any(axis=0).sum()
            assert np.array_equal(placement._distance_transform(occupied), scipy_edt(occupied))
        assert 500 < transposed < 1500  # both axes are exercised

    @pytest.mark.parametrize("occupied", [
        np.ones((1, 1), dtype=bool),
        np.eye(1, 40, 17, dtype=bool),  # 1 x n
        np.eye(40, 1, -23, dtype=bool),  # n x 1
        np.pad(np.ones((1, 1), dtype=bool), ((13, 6), (4, 21))),  # one occupied cell
        np.ones((7, 9), dtype=bool),  # fully occupied
        single_column(60, 25, 24),  # more occupied rows than columns
        single_column(60, 25, 0).T,  # more occupied columns than rows
    ], ids=["1x1", "1xn", "nx1", "one cell", "full", "one column", "one row"])
    def test_edge_masks_match_scipy(self, occupied):
        dist = placement._distance_transform(occupied)
        assert np.array_equal(dist, scipy_edt(occupied))
        assert dist.flags.c_contiguous  # in the raster's own order, also when run over the rows


class TestSampleTriples:
    @pytest.mark.parametrize("n_pts", [3, 4, 5, 17, 1000])
    def test_rows_are_distinct_in_range_indices(self, n_pts):
        for seed in range(5):
            triples = placement.sample_triples(n_pts, 500, np.random.default_rng(seed))
            assert triples.shape == (500, 3)
            assert triples.min() >= 0 and triples.max() < n_pts
            a, b, c = triples.T
            assert ((a != b) & (a != c) & (b != c)).all()

    def test_every_ordered_triple_of_four_occurs(self):
        triples = placement.sample_triples(4, 2000, np.random.default_rng(0))
        counts = Counter(map(tuple, triples.tolist()))
        assert set(counts) == set(itertools.permutations(range(4), 3))
        assert min(counts.values()) > 2000 / 24 / 2  # about 83 each if uniform


class TestSurfaceStore:
    """`ransac_plane` refits each inlier set and `find_placement` builds each
    fitted top's basis, hull and hull raster once per store; every key is the
    exact bytes of what its entry is computed from, among clouds that agree on
    every point index both of them hold."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The number of points behind each refit and each surface build."""
        calls = {"refit": [], "surface": []}
        refit, build = placement._refit, placement._build_surface

        def counted_refit(points):
            calls["refit"].append(len(points))
            return refit(points)

        def counted_build(basis, s_in, t_in):
            calls["surface"].append(len(s_in))
            return build(basis, s_in, t_in)

        monkeypatch.setattr(placement, "_refit", counted_refit)
        monkeypatch.setattr(placement, "_build_surface", counted_build)
        return calls

    @staticmethod
    def plane_bytes(plane):
        return np.array([*plane.normal, plane.d]).tobytes()

    def fit_and_place(self, cloud, seed, refits, surfaces):
        """(plane bytes, inliers, spot or NoSpaceError message) over the given stores."""
        plane, inliers = ransac_plane(cloud, seed, refits)
        try:
            spot = find_placement(cloud, plane, inliers, object_radius=0.05, surfaces=surfaces)
        except NoSpaceError as e:
            spot = str(e)
        return self.plane_bytes(plane), inliers.tolist(), spot

    def test_a_shared_store_gives_the_spots_of_a_fresh_one(self, built):
        # and the same plane and inliers, from the stores one top shares over its clouds of 0-8 items
        for table_, _ in tabletops():
            top = TableTop(table_)
            for n_items in range(9):
                cloud = top.cloud(n_items)
                for seed in range(4):  # each seed draws other triples and lands on the stored entries
                    shared = self.fit_and_place(cloud, 100 * seed + n_items, top.refits, top.surfaces)
                    assert shared == self.fit_and_place(cloud, 100 * seed + n_items, {}, {})
            # the items stand above the top, so every cloud of it has the grid as its inliers
            assert len(top.refits) == len(top.surfaces) == 1
        # the 18 tops' entries, then a fresh refit and build on each of the 18 x 9 x 4 fresh calls
        assert len(built["refit"]) == len(built["surface"]) == 18 + 18 * 9 * 4

    def test_index_sets_that_differ_past_the_shorter_sets_last_point_get_other_keys(self, built):
        rng = np.random.default_rng(3)
        for n in (*range(1, 20), *rng.integers(20, 700, 40)):
            mask = rng.random(n) < 0.7
            for tail in (0, 1, 7, 8, 9, 100):  # the same set in a longer cloud has the same key
                assert placement._index_key(np.concatenate([mask, np.zeros(tail, bool)])) == placement._index_key(mask)
            last = int(np.flatnonzero(mask)[-1]) if mask.any() else -1
            for extra in {last + 1, last + 2, last + 8, last + 9, n + 5}:
                longer = np.concatenate([mask, np.zeros(n + 10 - len(mask), bool)])
                longer[extra] = True
                assert placement._index_key(longer) != placement._index_key(mask)
        # in a fit: a point on the plane after a flat cloud's last one joins the inliers, and misses
        cloud = flat_cloud()
        on_plane = np.vstack([cloud, [[0.01, 0.02, 1.0]]])
        refits, surfaces = {}, {}
        for k, points in enumerate((cloud, on_plane), start=1):
            assert self.fit_and_place(points, 0, refits, surfaces) == self.fit_and_place(points, 0, {}, {})
            assert len(refits) == len(surfaces) == k
        assert built["refit"] == [len(cloud), len(cloud), len(on_plane), len(on_plane)]

    def test_a_plane_with_a_signed_zero_d_misses_the_store(self):
        # a plane equal to another under `==` but with d = -0.0 is another surface
        cloud = flat_cloud(z=0.0, nx=23)
        plane, inliers = ransac_plane(cloud, 0, {})
        zero_d = Plane((0.0, 0.0, 1.0), 0.0)
        minus_d = Plane((0.0, 0.0, 1.0), -0.0)
        assert zero_d == minus_d and self.plane_bytes(zero_d) != self.plane_bytes(minus_d)
        surfaces = {}
        for k, plane in enumerate((zero_d, minus_d, zero_d), start=1):
            spot = find_placement(cloud, plane, inliers, object_radius=0.05, surfaces=surfaces)
            assert spot == find_placement(cloud, plane, inliers, object_radius=0.05, surfaces={})
            assert len(surfaces) == min(k, 2)

    def test_stored_arrays_are_read_only(self):
        surfaces = {}
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, 0, {})
        find_placement(cloud, plane, inliers, object_radius=0.05, surfaces=surfaces)
        (surface,) = surfaces.values()
        for array in (*surface.basis, surface.in_hull, surface.line_dist):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0

    @pytest.mark.parametrize("cloud,error,message", [
        (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), PlaneFitError, "need at least 3 points"),
        (np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]), PlaneFitError, "degenerate"),
        (np.random.default_rng(2).uniform(-1, 1, (200, 3)), InsufficientSupportError, "below fraction"),
    ], ids=["too few points", "collinear", "scatter"])
    def test_a_fit_that_fails_is_never_stored(self, built, cloud, error, message):
        refits = {}
        for _ in range(2):
            with pytest.raises(error, match=message):
                ransac_plane(cloud, 0, refits)
        assert refits == {} and built["refit"] == []

    @pytest.mark.parametrize("cloud,message", [
        (np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1.0, 1.0, 0.0]]), "inlier hull is degenerate"),
        (np.array([[0.0, 0.0, 0.0], [20.0, 0.0, 0.0], [20.0, 20.0, 0.0], [0.0, 20.0, 0.0]]),
         "exceeds the 250000-cell budget"),
    ], ids=["degenerate hull", "over budget"])
    def test_a_surface_that_fails_is_never_stored(self, built, cloud, message):
        surfaces = {}
        plane = Plane((0.0, 0.0, 1.0), 0.0)
        for _ in range(2):
            with pytest.raises(NoSpaceError, match=message):
                find_placement(cloud, plane, np.arange(len(cloud)), object_radius=0.05, surfaces=surfaces)
        assert surfaces == {} and built["surface"] == [len(cloud)] * 2
