import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_iou_3d, exact_point_in_convex_polygon, inside_convex, point_polygon_edge_distance
from test_fuzz import POOL
from waiterbot.furniture import Detection3D
from waiterbot.geometry import (
    Pose2D,
    clip_polygon,
    convex_hull,
    iou_3d,
    is_finite,
    normalize_angle,
    point_in_convex_polygon,
    polygon_area,
    rect_corners,
)


def test_is_finite_plain_float_path_keeps_the_rule():
    def rule(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max

    big = sys.float_info.max
    values = [*POOL, np.float64(2.5), np.float64(math.inf), np.float64(math.nan), True, False, 0, -0.0, 5e-324,
              math.nan, math.inf, -math.inf, big, -big, 10**400, -10**400, int(big)]
    for value in values:
        assert is_finite(value) == rule(value), value


def test_normalize_angle_range():
    for theta in (-7.0, -math.pi, 0.0, math.pi, 9.42, 100.0):
        r = normalize_angle(theta)
        assert -math.pi < r <= math.pi


def test_normalize_angle_keeps_pi():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


def test_pose_normalizes_theta():
    assert Pose2D(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)


def test_rect_corners_axis_aligned():
    corners = rect_corners(0.0, 0.0, 2.0, 1.0, 0.0)
    assert set(corners) == {(1.0, 0.5), (-1.0, 0.5), (-1.0, -0.5), (1.0, -0.5)}
    assert polygon_area(corners) == pytest.approx(2.0)


def test_point_in_polygon_boundary_is_inside():
    square = rect_corners(0.0, 0.0, 2.0, 2.0, 0.0)
    assert point_in_convex_polygon((1.0, 0.0), square)
    assert point_in_convex_polygon((0.0, 0.0), square)
    assert not point_in_convex_polygon((1.01, 0.0), square)


def test_point_in_polygon_arrays_match_scalar_calls():
    rng = np.random.default_rng(13)
    for _ in range(200):
        poly = rect_corners(*(float(v) for v in rng.uniform(-1, 1, 2)),
                            *(float(v) for v in rng.uniform(0.1, 2.0, 2)),
                            float(rng.uniform(-math.pi, math.pi)))
        # random points plus the corners and edge midpoints, on or within an ulp of the boundary
        mids = [((ax + bx) / 2, (ay + by) / 2) for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1])]
        xs = np.concatenate([rng.uniform(-2.5, 2.5, 60), [p[0] for p in poly + mids]])
        ys = np.concatenate([rng.uniform(-2.5, 2.5, 60), [p[1] for p in poly + mids]])
        scalar = [inside_convex((x, y), poly) for x, y in zip(xs.tolist(), ys.tolist())]
        assert scalar == [point_in_convex_polygon((x, y), poly) for x, y in zip(xs.tolist(), ys.tolist())]
        assert point_in_convex_polygon((xs, ys), poly).tolist() == scalar
        block = point_in_convex_polygon((xs[None, :], ys[:40, None]), poly)
        assert block.tolist() == [[inside_convex((x, y), poly) for x in xs.tolist()] for y in ys[:40].tolist()]


def test_intersection_area_disjoint_and_nested():
    a = rect_corners(0, 0, 1, 1, 0)
    b = rect_corners(5, 5, 1, 1, 0)
    assert polygon_area(clip_polygon(a, b)) == 0.0
    inner = rect_corners(0, 0, 0.5, 0.5, 0.3)
    assert polygon_area(clip_polygon(a, inner)) == pytest.approx(0.25)


def _random_box(rng) -> Detection3D:
    return Detection3D(
        "box",
        center=tuple(rng.uniform(-1, 1, 3).tolist()),
        dims=tuple(rng.uniform(0.2, 2.0, 3).tolist()),
        yaw=float(rng.uniform(-math.pi, math.pi)),
    )


def test_iou_identity_is_exactly_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        box = _random_box(rng)
        assert iou_3d(box, box) == 1.0


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b = _random_box(rng), _random_box(rng)
        v = iou_3d(a, b)
        assert 0.0 <= v <= 1.0
        assert iou_3d(b, a) == pytest.approx(v, abs=1e-9)


def test_exact_oracles_on_hand_computed_cases():
    a = Detection3D("box", (0.0, 0.0, 0.5), (1.0, 1.0, 1.0), 0.0)
    half = Detection3D("box", (0.5, 0.0, 0.5), (1.0, 1.0, 1.0), 0.0)
    low = Detection3D("box", (0.0, 0.0, 0.25), (1.0, 1.0, 0.5), 0.0)
    far = Detection3D("box", (3.0, 0.0, 0.5), (1.0, 1.0, 1.0), 0.0)
    assert exact_iou_3d(a, a) == 1
    assert exact_iou_3d(a, half) == Fraction(1, 3)
    assert exact_iou_3d(a, low) == Fraction(1, 2)
    assert exact_iou_3d(a, far) == 0
    square = rect_corners(0.0, 0.0, 2.0, 2.0, 0.0)
    assert exact_point_in_convex_polygon((1.0, 1.0), square)  # corner: closed test
    assert not exact_point_in_convex_polygon((1.0, 1.0 + 2**-40), square)


def test_iou_agrees_with_exact_oracle_on_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a, b = _random_box(rng), _random_box(rng)
        assert iou_3d(a, b) == pytest.approx(float(exact_iou_3d(a, b)), abs=1e-9)


@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=3, max_size=40))
@settings(max_examples=200)
def test_convex_hull_contains_all_points(points):
    hull = convex_hull(points)
    if len(hull) < 3:
        return
    for p in points:
        # near-collinear inputs can land an ulp outside the float hull
        assert point_in_convex_polygon(p, hull) or point_polygon_edge_distance(p, hull) <= 1e-9


def test_edge_distance_square():
    square = rect_corners(0, 0, 2, 2, 0)
    assert point_polygon_edge_distance((0, 0), square) == pytest.approx(1.0)
    assert point_polygon_edge_distance((0.5, 0), square) == pytest.approx(0.5)
