"""The dynamic human layer: the last position of each person, under an id.

Humans are associated to existing records by a 0.5 m nearest-neighbor gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import check_count, finite_tuple, shown

ACTIONS = ("sitting", "standing", "walking", "waving", "unknown")
ASSOCIATION_GATE_M = 0.5


@dataclass(frozen=True)
class HumanObservation:
    """One sighting of a person; holds the validity rules of every human field."""

    position: tuple[float, float, float]
    frame_id: int
    action: str = "unknown"

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", finite_tuple(self.position, 3, "position"))
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {shown(self.action)}")
        check_count(self.frame_id, "frame")


class HumanLayer:
    """Single-writer store of each tracked person's last position, by id."""

    def __init__(self) -> None:
        self._positions: dict[str, tuple[float, float, float]] = {}
        self.last_frame = -1

    def upsert(self, obs: HumanObservation) -> str:
        """Move the nearest record within the gate to the observation, or create
        person_<k>; at equal distance the later record wins."""
        if obs.frame_id < self.last_frame:
            raise ValueError(f"frame {obs.frame_id} older than {self.last_frame}")
        best_id, best_dist = f"person_{len(self._positions)}", ASSOCIATION_GATE_M  # records are never removed
        for hid, position in self._positions.items():
            d = math.dist(position, obs.position)
            if d <= best_dist:
                best_id, best_dist = hid, d
        self._positions[best_id] = obs.position
        self.last_frame = obs.frame_id
        return best_id
