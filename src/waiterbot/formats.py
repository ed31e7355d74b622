"""The JSON input documents: scenarios, detection logs and layer dumps.

The one module that knows their keys.  Every object in them is a closed key
set: a reader pops each key it reads from a copy (`take_keys`), and a key left
over is named as unknown.  The records' constructors hold every validity rule,
but for the dump fields no box has (`_furniture`).
`load_scenario` builds each event once into an immutable record (`DetectionFrame`,
`HumanObservation`, `Fault`, `Call`, `Utterance`), so one `Scenario` can be
replayed any number of times; a detection-log entry is a `detections` event
without `t` and `type`.  Layer dumps have a fixed key order, so they are
byte-stable golden files and `load_layers(dump_layers(...))` round-trips exactly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any

from .furniture import Detection3D, FurnitureError, FurnitureInstance, FurnitureLayer, tracked
from .geometry import Pose2D, check_count, check_string, finite_tuple, is_finite, shown
from .grid import BoundsError, GridFormatError, GridMap, cell_risk, load_grid, world_to_cell
from .llm import Menu, MenuItem
from .navgoal import NavGoalParams
from .semantic import HumanObservation
from .tasks import SKILL_KINDS

FAULT_MODES = ("fail", "wrong_item")


def take_keys(entry, build):
    """`build(rest)` on a copy `rest` of the JSON object `entry`, from which
    `build` takes out (pops) each key it reads; a key left over is unknown
    and a ValueError names it."""
    if not isinstance(entry, dict):
        raise ValueError(f"must be an object, got {shown(entry)}")
    rest = dict(entry)
    value = build(rest)
    if rest:
        raise ValueError(f"unknown key {shown(next(iter(rest)))}")
    return value


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class DetectionFrame:
    """A `detections` event: one frame of boxes."""

    frame: int
    boxes: tuple[Detection3D, ...]

    def __post_init__(self) -> None:
        check_count(self.frame, "frame")


@dataclass(frozen=True)
class Fault:
    """A `fault` event: force the `trigger`-th `skill` invocation to misbehave.

    `fail` makes any skill fail with its kind's reason; `wrong_item` makes
    detect perceive another menu item, and applies to detect only."""

    skill: str
    trigger: int
    mode: str = "fail"

    def __post_init__(self) -> None:
        if self.skill not in SKILL_KINDS:
            raise ValueError(f"unknown fault skill {shown(self.skill)}")
        check_count(self.trigger, "trigger")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {shown(self.mode)}")
        if self.mode == "wrong_item" and self.skill != "detect":
            raise ValueError(f"fault mode 'wrong_item' applies to detect only, not {shown(self.skill)}")


@dataclass(frozen=True)
class Call:
    table: str

    def __post_init__(self) -> None:
        check_string(self.table, "table")


@dataclass(frozen=True)
class Utterance:
    table: str
    text: str

    def __post_init__(self) -> None:
        check_string(self.table, "table")
        check_string(self.text, "text")


Record = DetectionFrame | HumanObservation | Fault | Call | Utterance


def detections_from_json(boxes: list[dict]) -> tuple[Detection3D, ...]:
    """One frame of JSON boxes (`class`, `center`, `dims`, optional `yaw`) as detections."""
    if not isinstance(boxes, list):
        raise ValueError(f"boxes must be a list, got {shown(boxes)}")
    return tuple(take_keys(box, lambda b: Detection3D(b.pop("class"), b.pop("center"), b.pop("dims"),
                                                      b.pop("yaw", 0.0))) for box in boxes)


# one builder per event type; each takes its keys out of a copy of the event, and
# each record's constructor checks its own fields
EVENT_BUILDERS = {
    "detections": lambda ev: DetectionFrame(ev.pop("frame"), detections_from_json(ev.pop("boxes"))),
    "human": lambda ev: HumanObservation(ev.pop("position"), ev.pop("frame"), ev.pop("action", "unknown"),
                                         ev.pop("name", None), ev.pop("attributes", {})),
    "fault": lambda ev: Fault(ev.pop("skill"), ev.pop("trigger"), ev.pop("mode", "fail")),
    "call": lambda ev: Call(ev.pop("table")),
    "utterance": lambda ev: Utterance(ev.pop("table"), ev.pop("text")),
}


def detection_entry(entry) -> DetectionFrame:
    """One `map build` detection-log entry (`frame`, `boxes`) as its record."""
    return take_keys(entry, EVENT_BUILDERS["detections"])


@dataclass(frozen=True)
class Scenario:
    grid: GridMap
    menu: Menu
    kitchen_table: str
    robot_start: Pose2D
    stock: Mapping[str, int]
    nav_params: NavGoalParams
    events: tuple[tuple[float, Record], ...]  # (t, record), t non-decreasing


def _world(world: dict, key: str, build, *default):
    """`build(world[key])`, or `build(*default)` when the key is absent; the key
    is taken out of `world`.  A failure is a ScenarioError naming `world.<key>`."""
    if key not in world and not default:
        raise ScenarioError(f"world.{key}: missing")
    try:
        return build(world.pop(key, *default))
    except (KeyError, TypeError, ValueError, OSError, GridFormatError) as e:
        raise ScenarioError(f"world.{key}: {type(e).__name__}: {e}") from None


def _menu(entries) -> Menu:
    return Menu([take_keys(e, lambda m: MenuItem(m.pop("name"), m.pop("description", ""))) for e in entries])


def _check_zone(entry: dict) -> None:
    """A `world.zones` entry: a named rectangle from two diagonal corners (any
    corner pair).  No decision reads zones, so a valid one is dropped."""
    name, p1, p2 = entry.pop("name"), entry.pop("p1"), entry.pop("p2")
    check_string(name, "zone name")
    p1 = finite_tuple(p1, 2, f"zone {shown(name)} corner")
    p2 = finite_tuple(p2, 2, f"zone {shown(name)} corner")
    if p1[0] == p2[0] or p1[1] == p2[1]:
        raise ValueError(f"zone {shown(name)} has zero area")


def _robot_start(grid: GridMap, rs) -> Pose2D:
    if not (isinstance(rs, list) and len(rs) in (2, 3)):
        raise ValueError(f"must be 2 or 3 finite numbers, got {shown(rs)}")
    pose = Pose2D(*finite_tuple(rs, len(rs), "robot_start"))
    try:
        world_to_cell(grid, (pose.x, pose.y))
    except BoundsError:
        raise ValueError(f"{shown(rs)} lies outside the grid") from None
    return pose


def _nav_params(grid: GridMap, kw) -> NavGoalParams:
    params = NavGoalParams(**kw)
    params.check_map(grid)  # before any disc or window is built from it
    return params


def _stock(menu: Menu, doc) -> Mapping[str, int]:
    """A JSON object from menu item names to counts."""
    if not isinstance(doc, dict):
        raise ValueError(f"must be an object, got {shown(doc)}")
    names = set(menu.names())
    for item, count in doc.items():
        if item not in names:
            raise ValueError(f"{shown(item)} is not a menu item")
        check_count(count, f"{shown(item)} count")
    return MappingProxyType(dict(doc))


def _events(events) -> tuple[tuple[float, Record], ...]:
    """Each event built once into its record, plus the checks that span events."""
    if not isinstance(events, list):
        raise ScenarioError(f"events: must be a list, got {shown(events)}")
    out = []
    last_t = -math.inf
    last_detection_frame = last_human_frame = -1
    for i, ev in enumerate(events):
        try:
            if not isinstance(ev, dict):
                raise ValueError(f"must be an object, got {shown(ev)}")
            ev = dict(ev)  # the builder takes out the keys it reads; any left are unknown
            t, kind = ev.pop("t"), ev.pop("type")
            if not is_finite(t):
                raise ValueError(f"t must be a finite number, got {shown(t)}")
            if t < last_t:
                raise ValueError("timestamps must be non-decreasing")
            if kind not in EVENT_BUILDERS:
                raise ValueError(f"unknown type {shown(kind)}")
            record = EVENT_BUILDERS[kind](ev)
            if ev:
                raise ValueError(f"unknown key {shown(next(iter(ev)))}")
            if kind == "detections":
                if record.frame <= last_detection_frame:
                    raise ValueError(f"detection frame {record.frame} not newer than {last_detection_frame}")
                last_detection_frame = record.frame
            elif kind == "human":
                if record.frame_id < last_human_frame:
                    raise ValueError(f"human frame {record.frame_id} older than {last_human_frame}")
                last_human_frame = record.frame_id
        except (KeyError, TypeError, ValueError) as e:
            raise ScenarioError(f"event {i}: {type(e).__name__}: {e}") from None
        last_t = t
        out.append((float(t), record))
    return tuple(out)


def parse_scenario(doc: dict, base_dir: Path) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object")
    doc = dict(doc)  # the keys are taken out as they are read; any left are unknown
    world, events = doc.pop("world", None), doc.pop("events", [])
    if doc:
        raise ScenarioError(f"{next(iter(doc))}: unknown key")
    if not isinstance(world, dict):
        raise ScenarioError("world: missing or not an object")
    world = dict(world)  # `_world` takes out each key it reads; any left are unknown
    grid = _world(world, "grid_file", lambda f: load_grid((base_dir / f).read_text()))
    menu = _world(world, "menu", _menu)
    _world(world, "zones", lambda zs: [take_keys(z, _check_zone) for z in zs], [])
    settings = dict(
        grid=grid,
        menu=menu,
        kitchen_table=_world(world, "kitchen_table", lambda v: check_string(v, "kitchen_table")),
        robot_start=_world(world, "robot_start", lambda rs: _robot_start(grid, rs)),
        stock=_world(world, "stock", lambda doc: _stock(menu, doc), {}),
        nav_params=_world(world, "nav_params", lambda kw: _nav_params(grid, kw), {}),
    )
    if world:
        raise ScenarioError(f"world.{next(iter(world))}: unknown key")
    # a start inside the static risk region would abandon every call; only the
    # disc around the start cell is read, not a whole inflated map
    start, radius = settings["robot_start"], settings["nav_params"].robot_radius
    if cell_risk(grid, world_to_cell(grid, (start.x, start.y)), radius):
        raise ScenarioError(f"world.robot_start: ({start.x!r}, {start.y!r}) lies within "
                            f"robot_radius {radius!r} m of a cell that is not free")
    return Scenario(**settings, events=_events(events))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"cannot read {path}: {e}") from None
    except ValueError as e:  # a JSONDecodeError, or an integer of more digits than int() takes
        raise ScenarioError(f"{path} is not valid JSON: {e}") from None
    return parse_scenario(doc, path.parent)


class LayerFormatError(Exception):
    pass


def _furniture_entry(inst) -> dict[str, Any]:
    return {
        "id": inst.id,
        "class": inst.class_name,
        "pose": {"x": inst.pose.x, "y": inst.pose.y, "theta": inst.pose.theta},
        "base_z": inst.base_z,
        "dims": {"w": inst.dims[0], "d": inst.dims[1], "h": inst.dims[2]},
        "last_seen": inst.last_seen,
    }


def dump_layers(furniture: FurnitureLayer) -> str:
    doc = {"furniture": [_furniture_entry(i) for i in furniture.instances()], "kitchen": furniture.kitchen_id}
    return json.dumps(doc, indent=2) + "\n"


def _furniture(entry) -> FurnitureInstance:
    """A dump entry as the instance of a detection centred at base_z + h/2,
    so the entry is checked by a box's rules; `id`, `base_z` and `last_seen`,
    which a box has not, are checked here."""
    def build(e):
        iid, base_z, last_seen = check_string(e.pop("id"), "id"), e.pop("base_z"), e.pop("last_seen", 0)
        if not is_finite(base_z):
            raise ValueError(f"base_z must be a finite number, got {shown(base_z)}")
        check_count(last_seen, "last_seen")
        x, y, theta = take_keys(e.pop("pose"), lambda p: (p.pop("x"), p.pop("y"), p.pop("theta")))
        dims = take_keys(e.pop("dims"), lambda d: (d.pop("w"), d.pop("d"), d.pop("h")))
        h = dims[2]
        # a bad h leaves the centre z unset; the detection names it, since it checks dims first
        detection = Detection3D(e.pop("class"), (x, y, base_z + h / 2.0 if is_finite(h) else None), dims, theta)
        return tracked(detection, iid, last_seen, base_z)
    return take_keys(entry, build)


def load_layers(text: str) -> FurnitureLayer:
    """Rebuild the furniture layer from a dump document."""
    try:
        doc = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer of more digits than int() takes
        raise LayerFormatError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise LayerFormatError("top level must be an object")
    doc = dict(doc)  # the keys are taken out as they are read; any left are unknown

    layer = FurnitureLayer()
    entries = doc.pop("furniture", [])
    if not isinstance(entries, list):
        raise LayerFormatError(f"furniture must be a list, got {shown(entries)}")
    for i, entry in enumerate(entries):
        try:
            layer.restore(_furniture(entry))
        except (KeyError, TypeError, ValueError, FurnitureError) as e:
            name = shown(entry.get("id")) if isinstance(entry, dict) else "-"
            raise LayerFormatError(f"bad furniture entry {i} (id {name}): {e}") from None
    kitchen = doc.pop("kitchen", None)
    if kitchen is not None:
        try:
            layer.set_kitchen(kitchen)
        except (FurnitureError, TypeError):
            raise LayerFormatError(f"kitchen {shown(kitchen)} is not among the furniture entries") from None
    if doc:
        raise LayerFormatError(f"{next(iter(doc))}: unknown key")
    return layer
