import math

import numpy as np
import pytest

from helpers import table
from oracles import (all_cells, cell_to_world, exact_point_in_convex_polygon, loop_match_pairs,
                     loop_virtual_obstacles)
from waiterbot.furniture import (
    Detection3D,
    FrameOrderError,
    FurnitureError,
    FurnitureInstance,
    FurnitureLayer,
    FurnitureNotFound,
    TrackStatus,
    match_pairs,
)
from waiterbot.geometry import Pose2D
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


class TestMatchPairs:
    """The disc broad phase leaves the pair list of the all-pairs loop unchanged."""

    def test_random_rotated_layouts(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            instances = [
                FurnitureInstance(f"{cls}_{k}", cls,
                                  Pose2D(float(rng.uniform(0, 4)), float(rng.uniform(0, 3)),
                                         float(rng.uniform(-math.pi, math.pi))),
                                  float(rng.uniform(0.0, 0.3)),
                                  (float(rng.uniform(0.2, 1.6)), float(rng.uniform(0.2, 1.2)), 0.72), 0)
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
        instances = [
            table("a", (1.0, 1.0, 0.36), (side, side, 0.72)),
            # a square turned 45 degrees has its corners on the axes through its centre,
            # so two such squares whose discs touch along an axis touch at one corner
            table("b", (4.0, 1.0, 0.36), (side, side, 0.72), math.pi / 4),
        ]
        detections = [
            det(1.0, 1.0, dims=(side, side, 0.72)),  # IoU 1
            det(1.0 + side, 1.0, dims=(side, side, 0.72)),  # shares an edge with a
            det(1.0 + side / 2, 1.0 + side, dims=(side, side, 0.72)),  # shares half an edge
            det(4.0 + side * math.sqrt(2), 1.0, dims=(side, side, 0.72), yaw=math.pi / 4),
            det(4.0, 1.0 - side * math.sqrt(2), dims=(side, side, 0.72), yaw=-math.pi / 4),
            det(4.0 + side / 2, 1.0, dims=(side, side, 0.72), yaw=math.pi / 4),  # overlaps b
        ]
        got = match_pairs(detections, instances)
        assert got == loop_match_pairs(detections, instances)
        assert [(di, iid) for _, di, iid in got] == [(0, "a"), (5, "b")]


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
        footprint = layer.get("table_0").footprint()
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
