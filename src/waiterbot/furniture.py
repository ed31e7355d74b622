"""Semi-dynamic furniture layer: boxes tracked by 3D IoU, read as plan-view footprints.

Detections carry a class label, a 3D center, dims and yaw; the frame id is
the frame's.  `track_frame(detections, frame)` takes every frame, an empty one
too, each newer than the last, and associates its detections to existing
instances greedily by descending 3D IoU (threshold 0.1); unmatched detections
get fresh `<class>_<k>` ids.  Instances are never removed, so an id names one
piece of furniture for the whole run.
Navigation reads the layer only through `virtual_obstacles`, which marks the
grid cells under each footprint occupied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    Pose2D,
    check_count,
    check_string,
    finite_tuple,
    iou_3d,
    is_finite,
    normalize_angle,
    point_in_convex_polygon,
    rect_corners,
    shown,
)
from .grid import CellState, GridMap

IOU_MATCH_THRESHOLD = 0.1


class FurnitureError(Exception):
    pass


class FurnitureNotFound(FurnitureError, LookupError):
    pass


class FrameOrderError(FurnitureError):
    """Detections arrived with a frame id not newer than the layer's."""


class TrackStatus(Enum):
    MATCHED = "matched"
    NEW = "new"


@dataclass(frozen=True)
class Detection3D:
    """One detected box; the only place its fields are checked."""

    class_name: str
    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float

    def __post_init__(self) -> None:
        check_string(self.class_name, "class")
        object.__setattr__(self, "center", finite_tuple(self.center, 3, "center"))
        object.__setattr__(self, "dims", _positive_dims(self.dims))
        if not is_finite(self.yaw):
            raise ValueError(f"yaw must be a finite number, got {shown(self.yaw)}")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    def footprint(self) -> list[tuple[float, float]]:
        return rect_corners(self.center[0], self.center[1], self.dims[0], self.dims[1], self.yaw)

    @property
    def z_interval(self) -> tuple[float, float]:
        half = self.dims[2] / 2.0
        return (self.center[2] - half, self.center[2] + half)


def _positive_dims(dims) -> tuple[float, float, float]:
    dims = finite_tuple(dims, 3, "dims")
    if min(dims) <= 0:
        raise ValueError(f"dims must be positive, got {dims}")
    return dims


@dataclass(frozen=True)
class FurnitureInstance:
    """A tracked piece of furniture; the only place its fields are checked."""

    id: str
    class_name: str
    pose: Pose2D
    base_z: float
    dims: tuple[float, float, float]
    last_seen: int

    def __post_init__(self) -> None:
        check_string(self.id, "id")
        check_string(self.class_name, "class")
        finite_tuple((self.pose.x, self.pose.y, self.pose.theta, self.base_z), 4, "pose and base_z")
        object.__setattr__(self, "dims", _positive_dims(self.dims))
        check_count(self.last_seen, "last_seen")

    def footprint(self) -> list[tuple[float, float]]:
        """Full plan-view rectangle (w x d at the instance pose)."""
        return rect_corners(self.pose.x, self.pose.y, self.dims[0], self.dims[1], self.pose.theta)

    @property
    def z_interval(self) -> tuple[float, float]:
        # through the box centre, as for a detection: (base_z, base_z + h) can differ by an ulp
        cz = self.base_z + self.dims[2] / 2.0
        return (cz - self.dims[2] / 2.0, cz + self.dims[2] / 2.0)


def _instance_from(detection: Detection3D, instance_id: str, frame: int) -> FurnitureInstance:
    return FurnitureInstance(
        id=instance_id,
        class_name=detection.class_name,
        pose=Pose2D(detection.center[0], detection.center[1], detection.yaw),
        base_z=detection.center[2] - detection.dims[2] / 2.0,
        dims=detection.dims,
        last_seen=frame,
    )


def match_pairs(detections: Sequence[Detection3D],
                instances: Iterable[FurnitureInstance]) -> list[tuple[float, int, str]]:
    """Every same-class (-IoU, detection index, instance id) with IoU >= 0.1, sorted.

    Sorted ascending, the list is the greedy matching order: descending IoU,
    then detection index, then id.  A pair whose plan-view discs (centred on
    each box, radius half the footprint diagonal) are disjoint has disjoint
    footprints and so IoU 0; the exact `iou_3d` runs only on the other pairs.
    """
    by_class: dict[str, list] = {}
    for inst in instances:
        by_class.setdefault(inst.class_name, []).append((inst, inst.pose.x, inst.pose.y, _disc_radius(inst.dims)))
    pairs = []
    for di, det in enumerate(detections):
        x, y = det.center[:2]
        r = _disc_radius(det.dims)
        for inst, ix, iy, ir in by_class.get(det.class_name, ()):
            if math.hypot(x - ix, y - iy) > r + ir:
                continue
            v = iou_3d(det, inst)
            if v >= IOU_MATCH_THRESHOLD:
                pairs.append((-v, di, inst.id))
    pairs.sort()
    return pairs


def _disc_radius(dims: tuple[float, float, float]) -> float:
    return 0.5 * math.hypot(dims[0], dims[1])


class FurnitureLayer:
    """Single-writer store of tracked furniture; reads hand out frozen instances."""

    def __init__(self) -> None:
        self._instances: dict[str, FurnitureInstance] = {}
        self._class_counts: dict[str, int] = {}
        self.last_frame = -1
        self.kitchen_id: str | None = None

    def _auto_id(self, class_name: str) -> str:
        k = self._class_counts.get(class_name, 0)
        candidate = f"{class_name}_{k}"
        while candidate in self._instances:
            k += 1
            candidate = f"{class_name}_{k}"
        self._class_counts[class_name] = k + 1
        return candidate

    def restore(self, instance: FurnitureInstance) -> None:
        """Add an instance under its own id, e.g. one read back from a layer dump."""
        if instance.id in self._instances:
            raise FurnitureError(f"id {instance.id!r} already used")
        self._instances[instance.id] = instance
        self.last_frame = max(self.last_frame, instance.last_seen)

    def track_frame(self, detections: Sequence[Detection3D], frame: int) -> list[tuple[str, TrackStatus]]:
        """Associate frame `frame`'s detections; returns (id, MATCHED|NEW) per detection.

        Every frame, an empty one too, must be newer than the last one tracked.
        """
        if frame <= self.last_frame:
            raise FrameOrderError(f"frame {frame} not newer than {self.last_frame}")

        # greedy by descending IoU: each pair takes a still-free detection and instance
        assigned: dict[int, str] = {}
        taken: set[str] = set()
        for _, di, iid in match_pairs(detections, self._instances.values()):
            if di in assigned or iid in taken:
                continue
            assigned[di] = iid
            taken.add(iid)

        results: list[tuple[str, TrackStatus]] = []
        for di, det in enumerate(detections):
            iid = assigned.get(di)
            if iid is None:
                iid = self._auto_id(det.class_name)
                results.append((iid, TrackStatus.NEW))
            else:
                results.append((iid, TrackStatus.MATCHED))
            self._instances[iid] = _instance_from(det, iid, frame)
        self.last_frame = frame
        return results

    def get(self, instance_id: str) -> FurnitureInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise FurnitureNotFound(instance_id) from None

    def instances(self) -> list[FurnitureInstance]:
        return [self._instances[k] for k in sorted(self._instances)]

    def set_kitchen(self, instance_id: str) -> None:
        self.get(instance_id)
        self.kitchen_id = instance_id

    def virtual_obstacles(self, grid: GridMap) -> GridMap:
        """Copy of `grid` with every cell center inside a footprint set OCCUPIED.

        Each footprint is tested over the cells of its bounding window, widened
        by one cell and clipped to the map.  All windows are padded to the
        largest one and tested in one broadcast, each against its own polygon;
        the padding, and a window that misses the map, mark nothing.  Window
        bounds are clipped to just beyond the map before the integer cast, so
        a corner any distance away cannot overflow it.
        """
        cells = grid.cells.copy()
        res, (ox, oy) = grid.resolution, grid.origin
        corners = np.array([inst.footprint() for inst in self.instances()]).reshape(-1, 4, 2)
        edge = max(grid.width, grid.height) + 1
        lo = np.clip(np.floor((corners.min(axis=1) - (ox, oy)) / res), -2, edge).astype(np.int64) - 1
        hi = np.clip(np.floor((corners.max(axis=1) - (ox, oy)) / res), -2, edge).astype(np.int64) + 1
        c0, r0 = np.maximum(lo, 0).T[:, :, None, None]
        c1, r1 = np.minimum(hi, (grid.width - 1, grid.height - 1)).T[:, :, None, None]
        cols = c0 + np.arange(np.max(c1 - c0, initial=-1) + 1)  # (n, 1, window width)
        rows = r0 + np.arange(np.max(r1 - r0, initial=-1) + 1)[:, None]  # (n, window height, 1)
        poly = [(corners[:, k, 0, None, None], corners[:, k, 1, None, None]) for k in range(4)]
        inside = point_in_convex_polygon((ox + (cols + 0.5) * res, oy + (rows + 0.5) * res), poly)
        inside &= (cols <= c1) & (rows <= r1)
        cells.reshape(-1)[(rows * grid.width + cols)[inside]] = CellState.OCCUPIED
        return grid.with_cells(cells)
