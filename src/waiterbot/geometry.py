"""Plan-view geometry helpers: poses, rectangles, convex polygon math, box IoU.

Everything here is pure and deterministic; the tracker, the grid projection
and the navigation-goal search all share these primitives.  The field checks
at the top (finite numbers, counts, strings) are the ones every input record
uses in its constructor; `shown` caps the value an input error echoes.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections.abc import Sequence
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
_FLOAT_MAX = sys.float_info.max


def is_finite(x) -> bool:
    """A finite int or float; a bool is not a number here.  The bound compares
    exactly, so an int too large for a float (JSON integers are unbounded) is
    not finite, and NaN fails it like inf.  A plain float, the common case,
    takes the same bound without the type checks."""
    if type(x) is float:
        return -_FLOAT_MAX <= x <= _FLOAT_MAX
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


def shown(value) -> str:
    """`value` as an error message echoes it: `reprlib.repr`, which shortens
    long strings, numbers and containers, cut to at most 60 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def finite_tuple(value, n: int, name: str) -> tuple:
    """`value` as a tuple of `n` finite numbers; ValueError naming `name` otherwise."""
    v = tuple(value) if isinstance(value, (list, tuple)) else ()
    if len(v) != n or not all(map(is_finite, v)):
        raise ValueError(f"{name} must be {n} finite numbers, got {shown(value)}")
    return v


def check_count(value, name: str) -> None:
    """ValueError naming `name` unless `value` is a non-negative integer (not a bool)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {shown(value)}")


def check_string(value, name: str) -> str:
    """`value` itself; ValueError naming `name` unless it is a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {shown(value)}")
    return value


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = theta % TWO_PI
    if r > math.pi:
        r -= TWO_PI
    return r


@dataclass(frozen=True)
class Pose2D:
    """Planar pose in meters/radians; theta is normalized to (-pi, pi]."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", normalize_angle(self.theta))


def rect_corners(cx: float, cy: float, w: float, d: float, yaw: float) -> list[tuple[float, float]]:
    """CCW corners of a w x d rectangle centered at (cx, cy), rotated by yaw."""
    c, s = math.cos(yaw), math.sin(yaw)
    hw, hd = w / 2.0, d / 2.0
    out = []
    for lx, ly in ((hw, hd), (-hw, hd), (-hw, -hd), (hw, -hd)):
        out.append((cx + c * lx - s * ly, cy + s * lx + c * ly))
    return out


def polygon_area(pts: Sequence[tuple[float, float]]) -> float:
    """Shoelace area (absolute value)."""
    n = len(pts)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return abs(acc) / 2.0


def clip_polygon(subject: Sequence[tuple[float, float]],
                 clip: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a polygon against a convex CCW clip polygon.

    Each vertex's side of a clip edge (its cross product with the edge, >= 0
    inside) is evaluated once.  An edge of the subject that crosses the clip
    edge is cut at t = s_prev / (s_prev - s_cur) of its length: the two side
    values differ in sign, so the denominator is never 0, even where the
    subject edge runs parallel to the clip edge within rounding.
    """
    out = list(subject)
    n = len(clip)
    for i in range(n):
        if not out:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inp, out = out, []
        px, py = inp[-1]
        s_prev = ex * (py - ay) - ey * (px - ax)
        for cur in inp:
            cx, cy = cur
            s_cur = ex * (cy - ay) - ey * (cx - ax)
            if (s_cur >= 0.0) != (s_prev >= 0.0):
                t = s_prev / (s_prev - s_cur)
                out.append((px + t * (cx - px), py + t * (cy - py)))
            if s_cur >= 0.0:
                out.append(cur)
            px, py, s_prev = cx, cy, s_cur
    return out


def point_in_convex_polygon(p, poly: list[tuple[float, float]]):
    """Closed containment test for a CCW convex polygon; `p` is an (x, y) pair of
    floats (gives a bool) or of broadcasting numpy arrays (gives a bool array)."""
    x, y = p
    inside = True
    for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
        inside &= (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0
    return inside


def iou_3d(a, b) -> float:
    """3D IoU of two yaw-oriented boxes, each a record with `center` (plan-view
    centre first), `corners` (CCW footprint corners about that centre), `area`
    (their shoelace area) and `z_interval`: a detection or a tracked instance.
    Clipped footprint area x vertical overlap, clipped near the origin (a's
    corners against b's moved by the offset of b's centre from a's), so a box
    however far from the origin keeps its corners' bits and matches itself."""
    alo, ahi = a.z_interval
    blo, bhi = b.z_interval
    dz = min(ahi, bhi) - max(alo, blo)
    if dz <= 0.0:
        return 0.0
    dx, dy = b.center[0] - a.center[0], b.center[1] - a.center[1]
    inter = polygon_area(clip_polygon(a.corners, [(x + dx, y + dy) for x, y in b.corners])) * dz
    if inter <= 0.0:
        return 0.0
    # shoelace areas and interval-difference heights, so that identical boxes (a
    # zero offset) give bit-equal intersection and union volumes (IoU == 1.0 exactly)
    union = a.area * (ahi - alo) + b.area * (bhi - blo) - inter
    return inter / union


def convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain convex hull, CCW, no repeated endpoint."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
