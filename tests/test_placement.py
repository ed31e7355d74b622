import math

import numpy as np
import pytest

import oracles
from helpers import save_cloud, table
from oracles import naive_clearance
from waiterbot import placement
from waiterbot.geometry import convex_hull
from waiterbot.placement import (
    InsufficientSupportError,
    NoSpaceError,
    PlacementError,
    Plane,
    PlaneFitError,
    RansacParams,
    find_placement,
    load_cloud,
    plane_basis,
    ransac_plane,
)
from waiterbot.sim import tabletop_cloud


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
        plane, inliers = ransac_plane(pts, RansacParams(seed=7, inlier_eps=0.01))
        assert plane.normal == (0.0, 0.0, 1.0)
        assert plane.d == -1.0
        assert len(inliers) == 500  # inlier set equals exact plane membership

    def test_noisy_scene_recovers_plane(self):
        cloud, n_in = noisy_scene(900)
        plane, inliers = ransac_plane(cloud, RansacParams(seed=3))
        angle = math.degrees(math.acos(min(1.0, abs(plane.normal[2]))))
        assert angle <= 2.0
        recall = len(set(inliers.tolist()) & set(range(n_in))) / n_in
        assert recall >= 0.95

    def test_two_points_rejected(self):
        with pytest.raises(PlaneFitError):
            ransac_plane(np.array([[0, 0, 0], [1, 0, 0]]), RansacParams())

    def test_collinear_cloud_rejected(self):
        pts = np.array([[float(i), 0.0, 0.0] for i in range(10)])
        with pytest.raises(PlaneFitError):
            ransac_plane(pts, RansacParams(iterations=50, seed=0))

    def test_insufficient_support(self):
        rng = np.random.default_rng(2)
        scatter = rng.uniform(-1, 1, (200, 3))
        with pytest.raises(InsufficientSupportError):
            ransac_plane(scatter, RansacParams(seed=0, inlier_eps=0.001, min_inlier_fraction=0.5))

    def test_fixed_seed_bit_identical(self):
        cloud, _ = noisy_scene(31)
        a = ransac_plane(cloud, RansacParams(seed=12))
        b = ransac_plane(cloud, RansacParams(seed=12))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_refit_never_worse_than_hypothesis(self):
        for seed in range(10):
            cloud, _ = noisy_scene(400 + seed)
            pts = np.asarray(cloud)
            rng = np.random.default_rng(seed)
            best = None
            for _ in range(200):
                idx = rng.choice(len(pts), size=3, replace=False)
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
            plane, inliers = ransac_plane(cloud, RansacParams(seed=seed))
            nn = np.asarray(plane.normal)
            refit_rms = float(np.sqrt(np.mean((pts[inliers] @ nn + plane.d) ** 2)))
            assert refit_rms <= hyp_rms + 1e-12

    def test_normal_orientation_convention(self):
        pts = flat_cloud(z=0.5)
        plane, _ = ransac_plane(pts, RansacParams(seed=4))
        assert plane.normal[2] >= 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RansacParams(iterations=0)
        with pytest.raises(ValueError):
            RansacParams(inlier_eps=0.0)
        with pytest.raises(ValueError):
            Plane((0, 0, 2), 0.0)


class TestFindPlacement:
    def test_point_lies_on_plane_with_clearance(self):
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, RansacParams(seed=0))
        p = find_placement(cloud, plane, inliers, object_radius=0.05)
        assert abs(np.dot(plane.normal, p) + plane.d) <= 1e-6

    def test_empty_table_matches_naive_clearance_oracle(self):
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, RansacParams(seed=0))
        p = find_placement(cloud, plane, inliers, object_radius=0.05)

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
        plane, inliers = ransac_plane(cloud, RansacParams(seed=0))
        p = find_placement(cloud, plane, inliers, object_radius=0.05)
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
        plane, inliers = ransac_plane(cloud, RansacParams(seed=0, min_inlier_fraction=0.3))
        assert abs(plane.d + 1.0) < 0.01  # fitted the table surface, not the lid
        with pytest.raises(NoSpaceError):
            find_placement(cloud, plane, inliers, object_radius=0.05)

    def test_points_below_plane_do_not_occupy(self):
        surface = flat_cloud(z=1.0)
        under = np.array([[0.0, 0.0, 0.5], [0.1, 0.1, 0.2]])  # table legs etc.
        cloud = np.vstack([surface, under])
        plane, inliers = ransac_plane(cloud, RansacParams(seed=0))
        spot_with = find_placement(cloud, plane, inliers, object_radius=0.05)
        plane2, inliers2 = ransac_plane(surface, RansacParams(seed=0))
        spot_without = find_placement(surface, plane2, inliers2, object_radius=0.05)
        assert spot_with == pytest.approx(spot_without, abs=1e-9)

    def test_invalid_radius(self):
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, RansacParams(seed=0))
        with pytest.raises(ValueError):
            find_placement(cloud, plane, inliers, object_radius=0.0)

    def test_nan_radius_rejected(self):
        cloud = flat_cloud()
        plane, inliers = ransac_plane(cloud, RansacParams(seed=0))
        with pytest.raises(ValueError, match="object_radius"):
            find_placement(cloud, plane, inliers, object_radius=float("nan"))


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


def tabletops():
    """(table, n_items): banquet-size and restaurant-size tables, rotated, 0-8 items."""
    rng = np.random.default_rng(11)
    for dims in ((2.4, 1.4, 0.72), (1.2, 0.8, 0.72)):
        for n_items in range(9):
            center = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)), dims[2] / 2)
            yaw = float(rng.uniform(-math.pi, math.pi))
            yield table("t", center, dims, yaw), n_items


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
            fast = tabletop_cloud(table, n_items)
            slow = oracles.loop_tabletop_cloud(table, n_items)
            assert fast.shape == slow.shape
            assert fast.tobytes() == slow.tobytes()

    def test_raster_and_point_match_scalar_loop(self, monkeypatch):
        vectorised = placement._raster
        cells = 0

        def checked(hull, s_occ, t_occ, pitch):
            nonlocal cells
            fast = vectorised(hull, s_occ, t_occ, pitch)
            slow = oracles.scalar_raster(hull, s_occ, t_occ, pitch)
            assert fast[:2] == slow[:2]
            assert np.array_equal(fast[2], slow[2])  # occupied
            assert np.array_equal(fast[3], slow[3])  # in_hull
            assert np.abs(fast[4] - slow[4]).max() <= 1e-12
            cells += fast[2].size
            return fast

        for table, n_items in tabletops():
            cloud = tabletop_cloud(table, n_items)
            plane, inliers = ransac_plane(cloud, RansacParams(seed=n_items))
            monkeypatch.setattr(placement, "_raster", checked)
            point = find_placement(cloud, plane, inliers, object_radius=0.05)
            monkeypatch.setattr(placement, "_raster", oracles.scalar_raster)
            assert find_placement(cloud, plane, inliers, object_radius=0.05) == point
        assert cells > 100_000

    def test_raster_marks_occupied_cells_and_drops_outside_points(self):
        hull = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        s_occ = np.array([0.05, 0.5, -0.3, 1.5, 0.999])
        t_occ = np.array([0.05, 0.5, 0.5, 0.5, 0.999])
        fast = placement._raster(hull, s_occ, t_occ, 0.1)
        slow = oracles.scalar_raster(hull, s_occ, t_occ, 0.1)
        assert np.array_equal(fast[2], slow[2])
        assert np.flatnonzero(fast[2]).tolist() == [0, 55, 99]

    def test_ransac_same_plane_and_inliers_as_loop(self):
        clouds = [(criterion_6_cloud(trial), RansacParams(seed=trial)) for trial in range(100)]
        clouds += [(tabletop_cloud(table, n), RansacParams(seed=n)) for table, n in tabletops()]
        for cloud, params in clouds:
            plane, inliers = ransac_plane(cloud, params)
            loop_plane, loop_inliers = oracles.loop_ransac_plane(cloud, params)
            assert plane == loop_plane
            assert np.array_equal(inliers, loop_inliers)

    @pytest.mark.parametrize("iterations", [1, 31, 32, 33, 200])
    def test_ransac_first_best_tie_break(self, iterations):
        # two parallel planes with equal point counts: every hypothesis drawn
        # from one plane ties, so the plane of the first such draw must win
        lower = flat_cloud(z=0.0, nx=10, ny=10)
        cloud = np.vstack([lower, lower + np.array([0.0, 0.0, 1.0])])
        params_list = [RansacParams(iterations=iterations, seed=s, min_inlier_fraction=0.4)
                       for s in range(20)]
        for params in params_list:
            try:
                loop = oracles.loop_ransac_plane(cloud, params)
            except PlacementError as e:
                with pytest.raises(type(e)):
                    ransac_plane(cloud, params)
                continue
            plane, inliers = ransac_plane(cloud, params)
            assert plane == loop[0]
            assert np.array_equal(inliers, loop[1])
