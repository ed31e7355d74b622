"""Semi-dynamic furniture layer: boxes tracked by 3D IoU, read as plan-view footprints.

Detections carry a class label, a 3D center, dims and yaw; the frame id is
the frame's.  `track_frame(detections, frame)` takes every frame, an empty one
too, each newer than the last, and associates its detections to existing
instances greedily by descending 3D IoU (threshold 0.1); unmatched detections
get fresh `<class>_<k>` ids.  Instances are never removed, so an id names one
piece of furniture for the whole run.

Each instance computes its footprint corners, their shoelace area and its
height interval when it is made and keeps them; a detection keeps nothing,
and `match_pairs` computes each gated detection's once per frame.
A frame's pairs pass one gate first: a same-class pair whose centres lie
farther apart along x or along y than the sum of the boxes' disc radii (half
the footprint diagonal) has disjoint discs, hence disjoint footprints and IoU
0.  The gate may keep a pair whose discs are disjoint, never one whose discs
meet; the exact `iou_3d` decides every pair it keeps, so the matches are
those of an exact IoU on every pair.
Navigation reads the layer only through `virtual_obstacles`, which marks the
grid cells under each footprint occupied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

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
    polygon_area,
    rect_corners,
    shown,
)
from .grid import CellState, GridMap

IOU_MATCH_THRESHOLD = 0.1
_HALF_FLOAT_MAX = 2.0**1023  # half the float range


class FurnitureError(Exception):
    pass


class FurnitureNotFound(FurnitureError, LookupError):
    pass


class FrameOrderError(FurnitureError):
    """Detections arrived with a frame id not newer than the layer's."""


class TrackStatus(Enum):
    MATCHED = "matched"
    NEW = "new"


Corners = tuple[tuple[float, float], ...]


class Box(NamedTuple):
    """A box as `iou_3d` reads it: CCW footprint corners, their shoelace area
    and its height interval."""

    footprint: Corners
    area: float
    z_interval: tuple[float, float]


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
        (x, y, z), (w, d, h) = self.center, self.dims
        if abs(x) + abs(y) + abs(z) + w + d + h > _HALF_FLOAT_MAX:
            _check_extent(self, x, y, z)
            _instance_from(self, "tracked", 0)  # and so must the instance tracking makes of it

    @property
    def footprint(self) -> Corners:
        return tuple(rect_corners(self.center[0], self.center[1], self.dims[0], self.dims[1], self.yaw))

    @property
    def area(self) -> float:
        return polygon_area(self.footprint)

    @property
    def z_interval(self) -> tuple[float, float]:
        half = self.dims[2] / 2.0
        return (self.center[2] - half, self.center[2] + half)


def _check_extent(box, x: float, y: float, z: float) -> None:
    """ValueError naming the box's place (x, y, z) and dims unless its footprint
    corners and height interval are finite.  A record calls it only when
    |x| + |y| + |z| + w + d + h exceeds half the float range: below that bound
    each corner coordinate and each end is finite with room for rounding."""
    for what, ends in ("footprint corners", sum(box.footprint, ())), ("height interval", box.z_interval):
        if not all(map(math.isfinite, ends)):
            raise ValueError(f"{what} must be finite, got a box at {shown((x, y, z))} of dims {shown(box.dims)}")


def _positive_dims(dims) -> tuple[float, float, float]:
    dims = finite_tuple(dims, 3, "dims")
    if min(dims) <= 0:
        raise ValueError(f"dims must be positive, got {dims}")
    return dims


@dataclass(frozen=True)
class FurnitureInstance:
    """A tracked piece of furniture; the only place its fields are checked.

    Its footprint corners (w x d at its pose), their shoelace area and its
    height interval are computed when it is made, since the next frame's
    gated pairs and every virtual-obstacle map read them.
    """

    id: str
    class_name: str
    pose: Pose2D
    base_z: float
    dims: tuple[float, float, float]
    last_seen: int
    footprint: Corners = field(init=False, repr=False, compare=False)
    area: float = field(init=False, repr=False, compare=False)
    z_interval: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_string(self.id, "id")
        check_string(self.class_name, "class")
        finite_tuple((self.pose.x, self.pose.y, self.pose.theta, self.base_z), 4, "pose and base_z")
        object.__setattr__(self, "dims", _positive_dims(self.dims))
        check_count(self.last_seen, "last_seen")
        w, d, h = self.dims
        footprint = tuple(rect_corners(self.pose.x, self.pose.y, w, d, self.pose.theta))
        object.__setattr__(self, "footprint", footprint)
        object.__setattr__(self, "area", polygon_area(footprint))
        # through the box centre, as for a detection: (base_z, base_z + h) can differ by an ulp
        cz = self.base_z + h / 2.0
        object.__setattr__(self, "z_interval", (cz - h / 2.0, cz + h / 2.0))
        if abs(self.pose.x) + abs(self.pose.y) + abs(self.base_z) + w + d + h > _HALF_FLOAT_MAX:
            _check_extent(self, self.pose.x, self.pose.y, self.base_z)


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
    then detection index, then id.  One array pass gates every detection
    against every instance: a same-class pair is kept when neither centre
    offset, |dx| nor |dy|, exceeds the sum r of the two disc radii.  A pair
    whose discs meet by the scalar test `math.hypot(dx, dy) <= r` is always
    kept: `math.hypot` errs by under an ulp, so it never returns less than
    max(|dx|, |dy|).  A pair whose discs are disjoint has disjoint footprints
    and IoU 0, so dropping it changes no match.  The exact `iou_3d` runs only
    on the kept pairs, with each kept detection's corners computed once here.
    """
    instances = list(instances)
    if not detections or not instances:
        return []
    classes: dict[str, int] = {}
    det = np.array([(d.center[0], d.center[1], _disc_radius(d.dims), classes.setdefault(d.class_name, len(classes)))
                    for d in detections])
    inst = np.array([(i.pose.x, i.pose.y, _disc_radius(i.dims), classes.get(i.class_name, -1)) for i in instances])
    # an offset beyond the float range is inf, which fails the gate unless r is inf too, as in the scalar test
    with np.errstate(over="ignore"):
        reach = det[:, 2, None] + inst[:, 2]
        near = (np.abs(det[:, 0, None] - inst[:, 0]) <= reach) & (np.abs(det[:, 1, None] - inst[:, 1]) <= reach)
    near &= det[:, 3, None] == inst[:, 3]
    pairs = []
    boxes: dict[int, Box] = {}
    for di, ii in np.argwhere(near).tolist():
        box = boxes.get(di)
        if box is None:
            footprint = detections[di].footprint
            box = boxes[di] = Box(footprint, polygon_area(footprint), detections[di].z_interval)
        v = iou_3d(box, instances[ii])
        if v >= IOU_MATCH_THRESHOLD:
            pairs.append((-v, di, instances[ii].id))
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
        corners = np.array([inst.footprint for inst in self.instances()]).reshape(-1, 4, 2)
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
