"""Test doubles and fixtures-as-functions that the program itself never needs."""

import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from waiterbot.furniture import Detection3D, FurnitureInstance, tracked
from waiterbot.llm import TransportError

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "bench"))
import gen  # noqa: E402,F401  bench/gen.py, the one scenario writer


class StubTransport:
    """Scripted transport: pops canned bodies (or exceptions) and records requests."""

    def __init__(self, script: list[Any]):
        self.script = list(script)
        self.requests: list[dict[str, Any]] = []

    def post(self, url, headers, body, timeout):
        self.requests.append({"url": url, "headers": headers, "body": body})
        if not self.script:
            raise TransportError("script exhausted")
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    @staticmethod
    def reply(content: str) -> dict[str, Any]:
        return {"choices": [{"message": {"content": content}}]}


def save_cloud(points: np.ndarray) -> str:
    """The text form `placement.load_cloud` reads, with every float written exactly."""
    return "".join(
        f"{float(x)!r} {float(y)!r} {float(z)!r}\n"
        for x, y, z in np.asarray(points, dtype=np.float64)
    )


def table(instance_id: str, center, dims, yaw: float = 0.0) -> FurnitureInstance:
    """A table under an explicit id, as tracking makes it of a box detected at `center`."""
    return tracked(Detection3D("table", center, dims, yaw), instance_id, 0)


def tabletops():
    """(table, n_items): banquet-size and restaurant-size tables, rotated, 0-8 items."""
    rng = np.random.default_rng(11)
    for dims in ((2.4, 1.4, 0.72), (1.2, 0.8, 0.72)):
        for n_items in range(9):
            center = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)), dims[2] / 2)
            yaw = float(rng.uniform(-math.pi, math.pi))
            yield table("t", center, dims, yaw), n_items

