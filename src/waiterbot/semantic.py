"""The dynamic human layer, and the zone record that checks scenario input.

Humans are associated to existing records by a 0.5 m nearest-neighbor gate.
Zones are named rectangles given by two diagonal corners; they are no layer of
the map: a scenario's `world.zones` is checked and then dropped, since no
decision reads it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .geometry import check_count, check_string, finite_tuple, take_keys

ACTIONS = ("sitting", "standing", "walking", "waving", "unknown")
ASSOCIATION_GATE_M = 0.5


@dataclass(frozen=True)
class Zone:
    """Named rectangle from two diagonal corners (any corner pair)."""

    name: str
    p1: tuple[float, float]
    p2: tuple[float, float]

    def __post_init__(self) -> None:
        check_string(self.name, "zone name")
        object.__setattr__(self, "p1", finite_tuple(self.p1, 2, f"zone {self.name!r} corner"))
        object.__setattr__(self, "p2", finite_tuple(self.p2, 2, f"zone {self.name!r} corner"))
        if self.p1[0] == self.p2[0] or self.p1[1] == self.p2[1]:
            raise ValueError(f"zone {self.name!r} has zero area")


def zone_from_json(entry) -> Zone:
    return take_keys(entry, lambda z: Zone(z.pop("name"), z.pop("p1"), z.pop("p2")))


def _check_human(h) -> None:
    """The one validity rule of a human record, observed or tracked."""
    object.__setattr__(h, "position", finite_tuple(h.position, 3, "position"))
    if h.action not in ACTIONS:
        raise ValueError(f"unknown action {h.action!r}")
    if h.name is not None:
        check_string(h.name, "name")
    if not (isinstance(h.attributes, Mapping)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in h.attributes.items())):
        raise ValueError(f"attributes must be an object of strings, got {h.attributes!r}")


@dataclass
class HumanEntity:
    id: str
    position: tuple[float, float, float]
    action: str = "unknown"
    name: str | None = None
    attributes: dict[str, str] = field(default_factory=dict)
    last_seen: int = 0

    def __post_init__(self) -> None:
        check_string(self.id, "id")
        _check_human(self)
        check_count(self.last_seen, "last_seen")


@dataclass(frozen=True)
class HumanObservation:
    position: tuple[float, float, float]
    frame_id: int
    action: str = "unknown"
    name: str | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_human(self)
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))
        check_count(self.frame_id, "frame")


class HumanLayer:
    """Single-writer store of tracked people."""

    def __init__(self) -> None:
        self._humans: dict[str, HumanEntity] = {}
        self._next = 0
        self.last_frame = -1

    def upsert(self, obs: HumanObservation) -> str:
        """Update the nearest record within the gate, or create person_<k>."""
        if obs.frame_id < self.last_frame:
            raise ValueError(f"frame {obs.frame_id} older than {self.last_frame}")
        best_id, best_dist = None, ASSOCIATION_GATE_M
        for h in self._humans.values():
            d = math.dist(h.position, obs.position)
            if d <= best_dist:
                best_id, best_dist = h.id, d
        if best_id is None:
            best_id = f"person_{self._next}"
            self._next += 1
            self._humans[best_id] = HumanEntity(best_id, obs.position)
        h = self._humans[best_id]
        h.position = obs.position
        h.action = obs.action
        h.last_seen = obs.frame_id
        if obs.name is not None:
            h.name = obs.name
        h.attributes.update(obs.attributes)
        self.last_frame = max(self.last_frame, obs.frame_id)
        return best_id

    def restore(self, entity: HumanEntity) -> None:
        """Put back a dumped record; later auto ids never reuse its person_<k>."""
        if entity.id in self._humans:
            raise ValueError(f"id {entity.id!r} already used")
        self._humans[entity.id] = entity
        self.last_frame = max(self.last_frame, entity.last_seen)
        if entity.id.startswith("person_"):
            try:
                self._next = max(self._next, int(entity.id.split("_", 1)[1]) + 1)
            except ValueError:
                pass

    def humans(self) -> list[HumanEntity]:
        return [self._humans[k] for k in sorted(self._humans)]
