"""Combined layer dump: furniture, zones and humans in one JSON document.

The document uses a fixed key order so dumps are byte-stable and usable as
golden files; `load_layers(dump_layers(...))` round-trips exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .furniture import FurnitureError, FurnitureInstance, FurnitureLayer
from .geometry import Pose2D, take_keys
from .semantic import HumanEntity, HumanLayer, Zone, zone_from_json


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


def dump_layers(furniture: FurnitureLayer, zones: list[Zone] | None = None,
                humans: HumanLayer | None = None) -> str:
    doc: dict[str, Any] = {
        "furniture": [_furniture_entry(i) for i in furniture.instances()],
        "kitchen": furniture.kitchen_id,
        "zones": [
            {"name": z.name, "p1": list(z.p1), "p2": list(z.p2)}
            for z in (zones or [])
        ],
        "humans": [
            {
                "id": h.id,
                "name": h.name,
                "position": list(h.position),
                "action": h.action,
                "attributes": {k: h.attributes[k] for k in sorted(h.attributes)},
                "last_seen": h.last_seen,
            }
            for h in (humans.humans() if humans is not None else [])
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _furniture(entry) -> FurnitureInstance:
    def build(e):
        pose = take_keys(e.pop("pose"), lambda p: Pose2D(p.pop("x"), p.pop("y"), p.pop("theta")))
        dims = take_keys(e.pop("dims"), lambda d: (d.pop("w"), d.pop("d"), d.pop("h")))
        return FurnitureInstance(e.pop("id"), e.pop("class"), pose, e.pop("base_z"), dims, e.pop("last_seen", 0))
    return take_keys(entry, build)


def _human(entry) -> HumanEntity:
    return take_keys(entry, lambda e: HumanEntity(e.pop("id"), e.pop("position"), e.pop("action", "unknown"),
                                                  e.pop("name", None), e.pop("attributes", {}),
                                                  e.pop("last_seen", 0)))


def _each(doc: dict, key: str, kind: str, build) -> list:
    """`build(entry)` for every entry of `doc[key]`, which is taken out of `doc`;
    a failure names the entry."""
    entries = doc.pop(key, [])
    if not isinstance(entries, list):
        raise LayerFormatError(f"{key} must be a list, got {entries!r}")
    out = []
    for entry in entries:
        try:
            out.append(build(entry))
        except (KeyError, TypeError, ValueError, FurnitureError) as e:
            raise LayerFormatError(f"bad {kind} entry {entry!r}: {e}") from None
    return out


def load_layers(text: str) -> tuple[FurnitureLayer, list[Zone], HumanLayer]:
    """Rebuild the three layers from a dump document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise LayerFormatError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise LayerFormatError("top level must be an object")
    doc = dict(doc)  # the keys are taken out as they are read; any left are unknown

    layer = FurnitureLayer()
    _each(doc, "furniture", "furniture", lambda e: layer.restore(_furniture(e)))
    kitchen = doc.pop("kitchen", None)
    if kitchen is not None:
        try:
            layer.set_kitchen(kitchen)
        except (FurnitureError, TypeError):
            raise LayerFormatError(f"kitchen {kitchen!r} is not among the furniture entries") from None
    zones = _each(doc, "zones", "zone", zone_from_json)
    humans = HumanLayer()
    _each(doc, "humans", "human", lambda e: humans.restore(_human(e)))
    if doc:
        raise LayerFormatError(f"{next(iter(doc))}: unknown key")
    return layer, zones, humans
