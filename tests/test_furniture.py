import json
import math
import warnings

import numpy as np
import pytest

from helpers import gen, table
from oracles import (all_cells, cell_to_world, disc_pairs, exact_iou_3d, exact_point_in_convex_polygon,
                     loop_match_pairs, loop_virtual_obstacles)
from waiterbot import furniture as furniture_module
from waiterbot.formats import LayerFormatError, detections_from_json, load_layers
from waiterbot.furniture import (
    Detection3D,
    FrameOrderError,
    FurnitureError,
    FurnitureLayer,
    FurnitureNotFound,
    TrackStatus,
    match_pairs,
    tracked,
)
from waiterbot.geometry import iou_3d
from waiterbot.grid import CellState, GridMap


def det(cx, cy, cls="table", dims=(1.2, 0.8, 0.72), yaw=0.0):
    return Detection3D(cls, (cx, cy, dims[2] / 2), dims, yaw)


def empty_grid(w=40, h=40, res=0.1):
    return GridMap(res, (0.0, 0.0), np.zeros((h, w), dtype=np.uint8))


class TestTracking:
    def test_identical_box_matches(self):
        layer = FurnitureLayer()
        layer.track_frame([det(1, 1)], 0)
        result = layer.track_frame([det(1, 1)], 1)
        assert result == [("table_0", TrackStatus.MATCHED)]

    def test_two_disjoint_tables_get_sequential_ids(self):
        layer = FurnitureLayer()
        result = layer.track_frame([det(1, 1), det(5, 1)], 0)
        assert [r[0] for r in result] == ["table_0", "table_1"]
        assert [r[1] for r in result] == [TrackStatus.NEW, TrackStatus.NEW]

    def test_shifted_box_within_threshold_matches(self):
        layer = FurnitureLayer()
        layer.track_frame([det(0, 0, dims=(1, 1, 1))], 0)
        result = layer.track_frame([det(0.3, 0, dims=(1, 1, 1))], 1)
        assert result == [("table_0", TrackStatus.MATCHED)]

    def test_far_box_gets_new_id(self):
        layer = FurnitureLayer()
        layer.track_frame([det(0, 0)], 0)
        result = layer.track_frame([det(6, 6)], 1)
        assert result == [("table_1", TrackStatus.NEW)]

    def test_stale_frame_rejected(self):
        layer = FurnitureLayer()
        layer.track_frame([det(0, 0)], 3)
        with pytest.raises(FrameOrderError):
            layer.track_frame([det(0, 0)], 3)

    def test_empty_frame_advances_last_frame(self):
        layer = FurnitureLayer()
        layer.track_frame([det(0, 0)], 1)
        assert layer.track_frame([], 4) == []
        assert layer.last_frame == 4
        with pytest.raises(FrameOrderError):
            layer.track_frame([det(0, 0)], 4)
        with pytest.raises(FrameOrderError):
            layer.track_frame([], 2)
        assert layer.get("table_0").last_seen == 1

    def test_class_scoped_matching(self):
        layer = FurnitureLayer()
        layer.track_frame([det(0, 0, cls="table")], 0)
        result = layer.track_frame([det(0, 0, cls="chair", dims=(0.5, 0.5, 0.9))], 1)
        assert result == [("chair_0", TrackStatus.NEW)]

    def test_drift_sequences_keep_ids(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            layer = FurnitureLayer()
            x, y = 0.0, 0.0
            first = layer.track_frame([det(x, y, dims=(1, 1, 1))], 0)[0][0]
            for frame in range(1, 10):
                x += float(rng.uniform(-0.2, 0.2))
                y += float(rng.uniform(-0.2, 0.2))
                (iid, status), = layer.track_frame([det(x, y, dims=(1, 1, 1))], frame)
                assert iid == first
                assert status is TrackStatus.MATCHED

    def test_teleports_issue_fresh_ids(self):
        layer = FurnitureLayer()
        seen = set()
        for frame in range(10):
            (iid, status), = layer.track_frame([det(5.0 * frame, 0, dims=(1, 1, 1))], frame)
            assert status is TrackStatus.NEW
            assert iid not in seen
            seen.add(iid)

    def test_explicit_id_supported_and_protected(self):
        layer = FurnitureLayer()
        layer.restore(table("counter", (0, 0, 0.36), (1.2, 0.8, 0.72)))
        with pytest.raises(FurnitureError):
            layer.restore(table("counter", (3, 3, 0.36), (1.2, 0.8, 0.72)))
        assert layer.get("counter").class_name == "table"

    def test_auto_ids_skip_explicit_collisions(self):
        layer = FurnitureLayer()
        layer.restore(table("table_0", (0, 0, 0.36), (1.2, 0.8, 0.72)))
        result = layer.track_frame([det(6, 6)], 1)
        assert result == [("table_1", TrackStatus.NEW)]

    def test_box_seen_again_with_its_yaw_turned_keeps_its_id(self):
        # a rectangle's yaw is ambiguous by pi, a square's by pi/2, so a detector may
        # report either; an edge of the new footprint then lies along an edge of the
        # old one within rounding, and with the first yaw two such edges come out exactly
        # parallel in floats
        rng = np.random.default_rng(28)
        yaws = [-2.4791993075071974, *rng.uniform(-math.pi, math.pi, 2000).tolist()]
        rectangle, square = (1.2, 0.8, 0.72), (0.8, 0.8, 0.72)
        for yaw in yaws:
            for dims, turn in ((rectangle, math.pi), (rectangle, -math.pi), (square, math.pi / 2)):
                layer = FurnitureLayer()
                layer.track_frame([Detection3D("table", (2.0, 2.0, 0.36), dims, yaw)], 0)
                seen, again = layer.get("table_0"), Detection3D("table", (2.0, 2.0, 0.36), dims, yaw + turn)
                assert layer.track_frame([again], 1) == [("table_0", TrackStatus.MATCHED)]
                assert iou_3d(again, seen) == pytest.approx(float(exact_iou_3d(again, seen)), abs=1e-9)

    def test_boxes_at_opposite_ends_of_the_float_range_track_silently(self):
        # their centres differ by more than the largest float: the pair gate sees inf
        layer = FurnitureLayer()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            layer.track_frame([det(1.5e308, 2.0)], 0)
            assert layer.track_frame([det(-1.5e308, 2.0)], 1) == [("table_1", TrackStatus.NEW)]

    @pytest.mark.parametrize("center,dims,refused", [
        ((1.7e308, 2.0, 0.36), (1.7e308, 0.8, 0.72), "footprint corners"),
        ((2.0, -1.7e308, 0.36), (1.2, 1.7e308, 0.72), "footprint corners"),
        ((2.0, 2.0, -1.7e308), (1.2, 0.8, 1.7e308), "height interval"),
        ((2.0, 2.0, 1.7e308), (1.2, 0.8, 1.7e308), "height interval"),
        ((1.5e308, 2.0, 0.36), (1.2, 0.8, 0.72), None),  # past the bound, yet all finite
        ((1e308, -1e308, 1e308), (1e307, 1e307, 1e307), None),
    ])
    def test_a_box_is_refused_exactly_when_its_corners_or_height_overflow(self, center, dims, refused):
        # a detection, and an instance as a layer dump gives it: its centre base_z + h/2 is finite, and its top
        # overflows where the detection's height interval does
        base_z = 1e307 if refused == "height interval" else 0.0
        entry = {"id": "t", "class": "table", "pose": {"x": center[0], "y": center[1], "theta": 0.3},
                 "base_z": base_z, "dims": dict(zip("wdh", dims)), "last_seen": 0}
        dump = json.dumps({"furniture": [entry], "kitchen": None})
        for build, error in ((lambda: Detection3D("table", center, dims, 0.3), ValueError),
                             (lambda: load_layers(dump).get("t"), LayerFormatError)):
            if refused is None:
                box = build()
                assert all(map(math.isfinite, (*sum(box.footprint, ()), *box.z_interval)))
            else:
                with pytest.raises(error, match=f"{refused} must be finite"):
                    build()

    def test_a_box_whose_tracked_instance_would_overflow_is_refused(self):
        # its height interval about the centre, cz -+ h/2, is finite; the one through base_z = cz - h/2,
        # which the instance tracking makes of it keeps, is not
        center, dims = (1.0, 1.0, 1.753827608035712e308), (1.0, 1.0, 8.773105365320726e306)
        assert all(map(math.isfinite, (center[2] - dims[2] / 2, center[2] + dims[2] / 2)))
        with pytest.raises(ValueError, match="height interval must be finite"):
            Detection3D("table", center, dims, 0.0)

    def test_below_the_bound_every_corner_and_end_is_finite(self):
        # the boxes whose |x| + |y| + |z| + w + d + h is at most half the float range skip the exact check
        rng = np.random.default_rng(5)
        for _ in range(2000):
            parts = rng.dirichlet(np.ones(6)) * furniture_module._HALF_FLOAT_MAX
            center = tuple((parts[:3] * rng.choice([-1.0, 1.0], 3)).tolist())
            box = Detection3D("table", center, tuple(parts[3:].tolist()), float(rng.uniform(-math.pi, math.pi)))
            assert all(map(math.isfinite, (*sum(box.footprint, ()), *box.z_interval)))


class TestMatchPairs:
    """The centre gate leaves the pair list of the all-pairs loop unchanged."""

    @staticmethod
    def instance(iid, cls, x, y, yaw, base_z, dims):
        return tracked(Detection3D(cls, (x, y, base_z + dims[2] / 2), dims, yaw), iid, 0, base_z)

    def test_random_rotated_layouts(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            instances = [
                self.instance(f"{cls}_{k}", str(cls), float(rng.uniform(0, 4)), float(rng.uniform(0, 3)),
                              float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.0, 0.3)),
                              (float(rng.uniform(0.2, 1.6)), float(rng.uniform(0.2, 1.2)), 0.72))
                for k, cls in enumerate(rng.choice(["table", "chair"], size=int(rng.integers(0, 12))))
            ]
            detections = [
                Detection3D(str(cls), (float(rng.uniform(0, 4)), float(rng.uniform(0, 3)), 0.4),
                            (float(rng.uniform(0.2, 1.6)), float(rng.uniform(0.2, 1.2)), 0.72),
                            float(rng.uniform(-math.pi, math.pi)))
                for cls in rng.choice(["table", "chair"], size=int(rng.integers(0, 12)))
            ]
            assert match_pairs(detections, instances) == loop_match_pairs(detections, instances)

    def test_touching_boxes_and_touching_discs(self):
        side = 0.8
        for shift in (0.0, 1e3, 1e5):  # the same layout moved by `shift` m, where corners round more coarsely
            x, y = 1.0 + shift, 1.0 + shift
            instances = [
                table("a", (x, y, 0.36), (side, side, 0.72)),
                # a square turned 45 degrees has its corners on the axes through its centre,
                # so two such squares whose discs touch along an axis touch at one corner
                table("b", (x + 3.0, y, 0.36), (side, side, 0.72), math.pi / 4),
            ]
            detections = [
                det(x, y, dims=(side, side, 0.72)),  # IoU 1
                det(x + side, y, dims=(side, side, 0.72)),  # shares an edge with a
                det(x + side / 2, y + side, dims=(side, side, 0.72)),  # shares half an edge
                det(x + 3.0 + side * math.sqrt(2), y, dims=(side, side, 0.72), yaw=math.pi / 4),
                det(x + 3.0, y - side * math.sqrt(2), dims=(side, side, 0.72), yaw=-math.pi / 4),
                det(x + 3.0 + side / 2, y, dims=(side, side, 0.72), yaw=math.pi / 4),  # overlaps b
            ]
            got = match_pairs(detections, instances)
            assert got == loop_match_pairs(detections, instances)
            assert [(di, iid) for _, di, iid in got] == [(0, "a"), (5, "b")]


def busy_floor_frames(seed):
    """(frame id, detections) of each detection frame of `bench/gen.py`'s busy_floor."""
    events = gen.busy_floor(seed).scenario["events"]
    return [(ev["frame"], detections_from_json(ev["boxes"])) for ev in events if ev["type"] == "detections"]


class TestFrameWork:
    """A busy_floor replay's frames (40 tables, 17 frames) are tracked with each
    box's corners computed once and the exact IoU only where the discs meet."""

    SEEDS = [0, 3, 11, 42]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pairs_equal_the_all_pairs_loop_on_every_frame(self, seed):
        layer = FurnitureLayer()
        for frame, detections in busy_floor_frames(seed):
            instances = layer.instances()
            assert match_pairs(detections, instances) == loop_match_pairs(detections, instances)
            layer.track_frame(detections, frame)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corners_once_per_box_and_none_for_the_obstacles(self, monkeypatch, seed):
        calls = []
        corners = furniture_module.rect_corners
        monkeypatch.setattr(furniture_module, "rect_corners", lambda *a: calls.append(a) or corners(*a))
        grid = GridMap(0.1, (0.0, 0.0), np.zeros((240, 360), dtype=np.uint8))  # the 36 x 24 m hall
        layer = FurnitureLayer()
        boxes = []  # every box made, held so that no object id is reused
        for frame, detections in busy_floor_frames(seed):
            layer.track_frame(detections, frame)
            boxes += [*detections, *layer.instances()]
            made = len(calls)
            layer.virtual_obstacles(grid)
            assert len(calls) == made
        assert 0 < len(calls) <= len({id(box) for box in boxes})

    def test_a_second_run_over_the_same_detections_does_the_same_work(self, monkeypatch):
        # a parsed scenario's detections are replayed as they are, so tracking keeps
        # nothing on them that would spare a later run its work
        calls = []
        corners = furniture_module.rect_corners
        monkeypatch.setattr(furniture_module, "rect_corners", lambda *a: calls.append(a) or corners(*a))
        frames = busy_floor_frames(3)
        made = []
        for _ in range(2):
            layer = FurnitureLayer()
            for frame, detections in frames:
                layer.track_frame(detections, frame)
            made.append(len(calls))
        assert made[1] == 2 * made[0]
        assert all(vars(d).keys() == {"class_name", "center", "dims", "yaw"} for _, ds in frames for d in ds)

    def test_tracking_checks_no_field_again(self, monkeypatch):
        # a box's fields are checked when its detection is made; the instances made of it check none again
        frames = busy_floor_frames(3)
        calls = []
        for name in ("check_string", "finite_tuple", "is_finite"):
            check = getattr(furniture_module, name)
            monkeypatch.setattr(furniture_module, name, lambda *a, check=check: calls.append(a) or check(*a))
        layer = FurnitureLayer()
        for frame, detections in frames:
            layer.track_frame(detections, frame)
        assert calls == [] and len(layer.instances()) == 40

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_iou_runs_on_no_more_pairs_than_the_disc_test(self, monkeypatch, seed):
        calls = []
        iou = furniture_module.iou_3d
        monkeypatch.setattr(furniture_module, "iou_3d", lambda a, b: calls.append(1) or iou(a, b))
        layer = FurnitureLayer()
        discs = 0
        for frame, detections in busy_floor_frames(seed):
            discs += disc_pairs(detections, layer.instances())
            layer.track_frame(detections, frame)
        assert len(calls) <= discs
        if seed == 3:
            assert len(calls) == 640  # 16 frames after the first, each table only against itself


class TestQueries:
    def test_get_after_register(self):
        layer = FurnitureLayer()
        layer.track_frame([det(1, 2)], 0)
        inst = layer.get("table_0")
        assert inst.pose.x == 1 and inst.pose.y == 2

    def test_get_unknown_id(self):
        layer = FurnitureLayer()
        with pytest.raises(FurnitureNotFound):
            layer.get("sofa_9")

    def test_list_sorted_after_six_tables(self):
        layer = FurnitureLayer()
        layer.track_frame([det(2.0 * k, 0) for k in range(6)], 0)
        ids = [i.id for i in layer.instances()]
        assert ids == [f"table_{k}" for k in range(6)]


class TestVirtualObstacles:
    def test_empty_layer_leaves_map_unchanged(self):
        layer = FurnitureLayer()
        grid = empty_grid()
        assert layer.virtual_obstacles(grid) == grid

    def test_axis_aligned_block(self):
        layer = FurnitureLayer()
        layer.track_frame([Detection3D("table", (2.0, 2.0, 0.5), (1.0, 1.0, 1.0), 0.0)], 0)
        out = layer.virtual_obstacles(empty_grid())
        occ = np.argwhere(out.cells == CellState.OCCUPIED)
        assert len(occ) == 100  # 10 x 10 block at 0.1 m resolution
        rows = occ[:, 0]
        cols = occ[:, 1]
        assert cols.min() == 15 and cols.max() == 24
        assert rows.min() == 15 and rows.max() == 24

    def test_rotated_footprint_matches_point_in_polygon_oracle(self):
        layer = FurnitureLayer()
        layer.track_frame([Detection3D("table", (2.03, 2.01, 0.5), (1.0, 1.0, 1.0), math.pi / 4)], 0)
        grid = empty_grid()
        out = layer.virtual_obstacles(grid)
        footprint = layer.get("table_0").footprint
        for c in all_cells(grid):
            expected = exact_point_in_convex_polygon(cell_to_world(grid, c), footprint)
            assert (out.cells[c.row, c.col] == CellState.OCCUPIED) == expected

    def test_equals_cell_loop_for_rotated_tables_clipped_at_the_edge(self):
        rng = np.random.default_rng(29)
        grid = GridMap(0.05, (-0.3, 0.2), (rng.random((60, 80)) < 0.05).astype(np.uint8))
        for _ in range(60):
            layer = FurnitureLayer()
            for k in range(int(rng.integers(1, 6))):
                # the map spans x -0.3..3.7, y 0.2..3.2: some tables are clipped, some miss it
                center = (float(rng.uniform(-1.2, 5.2)), float(rng.uniform(-1.0, 4.4)), 0.36)
                dims = (float(rng.uniform(0.3, 1.6)), float(rng.uniform(0.3, 1.2)), 0.72)
                yaw = float(rng.uniform(-math.pi, math.pi))
                layer.restore(table(f"t{k}", center, dims, yaw))
            assert layer.virtual_obstacles(grid) == loop_virtual_obstacles(layer, grid)

    @pytest.mark.parametrize("center, dims, yaw", [
        ((2.0, 2.0, 0.5), (1e19, 0.8, 1.0), 0.0),
        ((2.0, 2.0, 0.5), (1e19, 0.8, 1.0), 0.4),
        ((1e19, 2.0, 0.36), (1.2, 0.8, 0.72), 0.0),
        ((10**20, 2, 0.36), (1.2, 0.8, 0.72), 0.3),  # a JSON integer past the int64 range
    ], ids=["wide", "wide and turned", "far away", "far away at an integer centre"])
    def test_footprint_far_beyond_the_map_equals_cell_loop(self, center, dims, yaw):
        # a window bound past ~9.2e17 m at 0.1 m cells once overflowed its int64 cast
        layer = FurnitureLayer()
        layer.restore(table("counter", center, dims, yaw))
        grid = empty_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = layer.virtual_obstacles(grid)
        assert out == loop_virtual_obstacles(layer, grid)

    @pytest.mark.parametrize("x", [1e308, -1.7e308])
    def test_footprint_at_the_end_of_the_float_range_marks_nothing(self, x):
        # its window bounds divide to inf, which is clipped like any far bound, with no overflow warning
        layer = FurnitureLayer()
        layer.restore(table("counter", (x, 2.0, 0.36), (1.2, 0.8, 0.72), 0.3))
        grid = empty_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert layer.virtual_obstacles(grid) == grid

    def test_idempotent_and_monotone(self):
        layer = FurnitureLayer()
        layer.track_frame([det(1.5, 1.5)], 0)
        grid = empty_grid()
        once = layer.virtual_obstacles(grid)
        assert layer.virtual_obstacles(once) == once
        layer.restore(table("extra", (3.0, 3.0, 0.36), (1.2, 0.8, 0.72)))
        more = layer.virtual_obstacles(grid)
        freed = (once.cells == CellState.OCCUPIED) & (more.cells != CellState.OCCUPIED)
        assert not freed.any()
