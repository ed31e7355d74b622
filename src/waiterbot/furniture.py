"""Semi-dynamic furniture layer: boxes tracked by 3D IoU, read as plan-view footprints.

A box has one record, `Detection3D`, the one place a box's fields are
checked; scenario boxes, detection logs and layer dumps all come through it.
A `FurnitureInstance` is a checked detection under an id, last seen in a
frame, with no checks of its own.

`track_frame(detections, frame)` takes every frame, an empty one too, each
newer than the last, and associates its detections to existing instances
greedily by descending 3D IoU (threshold 0.1); unmatched detections get fresh
`<class>_<k>` ids.  Instances are never removed, so an id names one piece of
furniture for the whole run.  A detection keeps nothing derived: tracking
computes each one's corners about its centre, their area and its height
interval once per frame, and the instance made of it keeps them.  A frame's
pairs pass one array gate on their centres (`match_pairs`) before the exact
`iou_3d`, which decides every pair the gate keeps.
Navigation reads the layer only through `virtual_obstacles`, which marks the
grid cells under each footprint occupied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    Pose2D,
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


def _height(base_z: float, h: float) -> tuple[float, float]:
    """The height interval of a box of height h on base_z, through its centre base_z + h/2."""
    cz = base_z + h / 2.0
    return (cz - h / 2.0, cz + h / 2.0)


def _placed(corners: Corners, center) -> Corners:
    """Corners about a box's centre, moved to its plan-view `center`."""
    return tuple((center[0] + x, center[1] + y) for x, y in corners)


@dataclass(frozen=True)
class Detection3D:
    """One box, and the one place a box's fields are checked.  It keeps nothing
    derived: its CCW footprint corners about its centre, their shoelace area,
    its base z - h/2 and its height interval through that base are computed on
    each read."""

    class_name: str
    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float

    def __post_init__(self) -> None:
        check_string(self.class_name, "class")
        dims = finite_tuple(self.dims, 3, "dims")  # before the centre: a dump's centre z is derived from h
        if min(dims) <= 0:
            raise ValueError(f"dims must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "center", finite_tuple(self.center, 3, "center"))
        if not is_finite(self.yaw):
            raise ValueError(f"yaw must be a finite number, got {shown(self.yaw)}")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))
        # Below this bound each corner coordinate and each end is finite with room for
        # rounding.  Above it the corners are checked, and both height intervals an
        # instance may keep: through the base, as tracking makes it, and about the
        # centre z, as a dump's base_z + h/2 gives it.
        (x, y, z), (w, d, h) = self.center, dims
        if abs(x) + abs(y) + abs(z) + w + d + h > _HALF_FLOAT_MAX:
            for what, ends in (("footprint corners", sum(self.footprint, ())),
                               ("height interval", (*self.z_interval, z - h / 2.0, z + h / 2.0))):
                if not all(map(math.isfinite, ends)):
                    raise ValueError(f"{what} must be finite, got a box at {shown(self.center)} "
                                     f"of dims {shown(dims)}")

    corners = property(lambda self: tuple(rect_corners(0.0, 0.0, self.dims[0], self.dims[1], self.yaw)))
    area = property(lambda self: polygon_area(self.corners))
    base_z = property(lambda self: self.center[2] - self.dims[2] / 2.0)
    z_interval = property(lambda self: _height(self.base_z, self.dims[2]))
    footprint = property(lambda self: _placed(self.corners, self.center))


@dataclass(frozen=True)
class FurnitureInstance:
    """A tracked piece of furniture: a checked `detection` under an `id` (None
    while `track_frame` still matches it), last seen in frame `last_seen`.  It
    checks nothing itself.

    `base_z` is the detection's base, or the one a layer dump stored, from
    which the dump reader derived the detection's centre z; it is kept as it
    came, since deriving it back can move it by an ulp.  The corners about the
    centre, their area and the height interval (through `base_z`) are computed
    once, when the instance is made.
    """

    id: str | None
    detection: Detection3D
    last_seen: int
    base_z: float
    corners: Corners = field(repr=False, compare=False)
    area: float = field(repr=False, compare=False)
    z_interval: tuple[float, float] = field(repr=False, compare=False)

    class_name = property(lambda self: self.detection.class_name)
    center = property(lambda self: self.detection.center)
    dims = property(lambda self: self.detection.dims)
    footprint = property(lambda self: _placed(self.corners, self.detection.center))

    @cached_property
    def pose(self) -> Pose2D:
        return Pose2D(self.detection.center[0], self.detection.center[1], self.detection.yaw)


def tracked(detection: Detection3D, instance_id: str | None, frame: int,
            base_z: float | None = None) -> FurnitureInstance:
    """`detection` as an instance under `instance_id`, last seen in `frame`,
    on `base_z` (by default the detection's own base)."""
    corners, base_z = detection.corners, detection.base_z if base_z is None else base_z
    return FurnitureInstance(instance_id, detection, frame, base_z, corners, polygon_area(corners),
                             _height(base_z, detection.dims[2]))


def match_pairs(boxes: Sequence, instances: Iterable[FurnitureInstance]) -> list[tuple[float, int, str]]:
    """Every same-class (-IoU, box index, instance id) with IoU >= 0.1, sorted.

    `boxes` are a frame's detections, or the instances tracking makes of them.
    Sorted ascending, the list is the greedy matching order: descending IoU,
    then box index, then id.  One array pass gates every box against every
    instance: a same-class pair is kept when neither centre offset, |dx| nor
    |dy|, exceeds the sum r of the two disc radii.  A pair whose discs meet by
    the scalar test `math.hypot(dx, dy) <= r` is always kept: `math.hypot`
    errs by under an ulp, so it never returns less than max(|dx|, |dy|).  A
    pair whose discs are disjoint has disjoint footprints and IoU 0, so
    dropping it changes no match.  The exact `iou_3d` runs only on the kept
    pairs.
    """
    instances = list(instances)
    if not boxes or not instances:
        return []
    classes: dict[str, int] = {}
    det = np.array([(b.center[0], b.center[1], _disc_radius(b.dims), classes.setdefault(b.class_name, len(classes)))
                    for b in boxes])
    inst = np.array([(i.center[0], i.center[1], _disc_radius(i.dims), classes.get(i.class_name, -1))
                     for i in instances])
    # an offset beyond the float range is inf, which fails the gate unless r is inf too, as in the scalar test
    with np.errstate(over="ignore"):
        reach = det[:, 2, None] + inst[:, 2]
        near = (np.abs(det[:, 0, None] - inst[:, 0]) <= reach) & (np.abs(det[:, 1, None] - inst[:, 1]) <= reach)
    near &= det[:, 3, None] == inst[:, 3]
    pairs = []
    for di, ii in np.argwhere(near).tolist():
        v = iou_3d(boxes[di], instances[ii])
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

        # each box's corners, area and height interval, once, on a record with no id
        # yet; greedy by descending IoU, each pair takes a still-free box and instance
        seen = [tracked(det, None, frame) for det in detections]
        assigned: dict[int, str] = {}
        taken: set[str] = set()
        for _, di, iid in match_pairs(seen, self._instances.values()):
            if di in assigned or iid in taken:
                continue
            assigned[di] = iid
            taken.add(iid)

        results: list[tuple[str, TrackStatus]] = []
        for di, (det, box) in enumerate(zip(detections, seen)):
            iid = assigned.get(di)
            if iid is None:
                iid = self._auto_id(det.class_name)
                results.append((iid, TrackStatus.NEW))
            else:
                results.append((iid, TrackStatus.MATCHED))
            self._instances[iid] = FurnitureInstance(iid, det, frame, box.base_z, box.corners, box.area, box.z_interval)
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
        a corner any distance away cannot overflow it; a quotient that
        overflows is inf, and clipped the same way.
        """
        cells = grid.cells.copy()
        res, (ox, oy) = grid.resolution, grid.origin
        instances = self.instances()
        # corners about each centre, moved there: bit-equal to each `footprint`, also for an int centre
        flat = chain.from_iterable(chain.from_iterable(inst.corners for inst in instances))
        corners = (np.fromiter(flat, dtype=np.float64, count=8 * len(instances)).reshape(-1, 4, 2)
                   + np.array([inst.center[:2] for inst in instances], dtype=np.float64).reshape(-1, 1, 2))
        edge = max(grid.width, grid.height) + 1
        with np.errstate(over="ignore"):  # a quotient past the float range is inf, which the clip bounds
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
