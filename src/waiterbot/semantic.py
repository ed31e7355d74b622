"""The dynamic human layer.

Humans are associated to existing records by a 0.5 m nearest-neighbor gate.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .geometry import check_count, check_string, finite_tuple, shown

ACTIONS = ("sitting", "standing", "walking", "waving", "unknown")
ASSOCIATION_GATE_M = 0.5


@dataclass
class HumanEntity:
    """A tracked person; built and updated only by `HumanLayer.upsert`."""

    id: str
    position: tuple[float, float, float]
    action: str = "unknown"
    name: str | None = None
    attributes: dict[str, str] = field(default_factory=dict)
    last_seen: int = 0


@dataclass(frozen=True)
class HumanObservation:
    """One sighting of a person; holds the validity rules of every human field."""

    position: tuple[float, float, float]
    frame_id: int
    action: str = "unknown"
    name: str | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", finite_tuple(self.position, 3, "position"))
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {shown(self.action)}")
        if self.name is not None:
            check_string(self.name, "name")
        if not (isinstance(self.attributes, Mapping)
                and all(isinstance(k, str) and isinstance(v, str) for k, v in self.attributes.items())):
            raise ValueError(f"attributes must be an object of strings, got {shown(self.attributes)}")
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))
        check_count(self.frame_id, "frame")


class HumanLayer:
    """Single-writer store of tracked people."""

    def __init__(self) -> None:
        self._humans: dict[str, HumanEntity] = {}
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
            best_id = f"person_{len(self._humans)}"  # records are never removed
            self._humans[best_id] = HumanEntity(best_id, obs.position)
        h = self._humans[best_id]
        h.position = obs.position
        h.action = obs.action
        h.last_seen = obs.frame_id
        if obs.name is not None:
            h.name = obs.name
        h.attributes.update(obs.attributes)
        self.last_frame = obs.frame_id
        return best_id

    def humans(self) -> list[HumanEntity]:
        return [self._humans[k] for k in sorted(self._humans)]
