"""Combined layer dump: furniture, zones and humans in one JSON document.

The document uses a fixed key order so dumps are byte-stable and usable as
golden files; `load_layers(dump_layers(...))` round-trips exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .furniture import FurnitureError, FurnitureInstance, FurnitureLayer
from .geometry import Pose2D
from .semantic import HumanEntity, HumanLayer, Zone


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


def load_layers(text: str) -> tuple[FurnitureLayer, list[Zone], HumanLayer]:
    """Rebuild the three layers from a dump document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise LayerFormatError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise LayerFormatError("top level must be an object")

    layer = FurnitureLayer()
    for entry in doc.get("furniture", []):
        try:
            dims = (entry["dims"]["w"], entry["dims"]["d"], entry["dims"]["h"])
            last_seen = entry.get("last_seen", 0)
            if min(dims) <= 0 or last_seen < 0:
                raise ValueError("dims must be positive and last_seen non-negative")
            pose = entry["pose"]
            layer.restore(FurnitureInstance(
                id=entry["id"],
                class_name=entry["class"],
                pose=Pose2D(pose["x"], pose["y"], pose["theta"]),
                base_z=entry["base_z"],
                dims=dims,
                last_seen=last_seen,
            ))
        except (KeyError, TypeError, ValueError, FurnitureError) as e:
            raise LayerFormatError(f"bad furniture entry {entry!r}: {e}") from None
    kitchen = doc.get("kitchen")
    if kitchen is not None:
        try:
            layer.set_kitchen(kitchen)
        except (FurnitureError, TypeError):
            raise LayerFormatError(f"kitchen {kitchen!r} is not among the furniture entries") from None

    zones = []
    for entry in doc.get("zones", []):
        try:
            zones.append(Zone(entry["name"], tuple(entry["p1"]), tuple(entry["p2"])))
        except (KeyError, TypeError, ValueError) as e:
            raise LayerFormatError(f"bad zone entry {entry!r}: {e}") from None

    humans = HumanLayer()
    for entry in doc.get("humans", []):
        try:
            h = HumanEntity(
                id=entry["id"],
                position=tuple(entry["position"]),
                action=entry.get("action", "unknown"),
                name=entry.get("name"),
                attributes=dict(entry.get("attributes", {})),
                last_seen=entry.get("last_seen", 0),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise LayerFormatError(f"bad human entry {entry!r}: {e}") from None
        humans.restore(h)
    return layer, zones, humans
