#!/usr/bin/env python3
"""Scenario generator for the benchmark's generated workloads.

Each workload is built from its seed alone, so the same seed always gives the
same scenario and grid bytes.  The seed moves table positions and rotations,
detection jitter, people, menu items, wording and which orders are hit by
faults.  The kinds of calls and of faults, and their counts,
are fixed per workload, so work per call and the scripted aggregates stay the
same from seed to seed.

    python3 bench/gen.py --workload busy_floor --seed 3 --out DIR

writes DIR/scenario.json and DIR/floor.grid and prints the expected
aggregates.  The simulator only ever receives those two files.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

RES = 0.1
TABLE_H = 0.72

MENU = [
    {"name": "orange juice", "description": "freshly squeezed juice"},
    {"name": "cola", "description": "a chilled cola"},
    {"name": "green tea", "description": "hot and fragrant tea"},
    {"name": "coffee", "description": "a strong espresso"},
    {"name": "sandwich", "description": "ham and cheese on rye"},
    {"name": "pancake", "description": "with maple syrup"},
]
ORDER_PHRASES = (
    "Could you bring me {item}?",
    "Can I have {item}, please?",
    "I'd like {item}.",
    "Please serve me {item}.",
)
UTTERANCES = {
    "clean_table": ("Could you clean our table?", "Please clear the table.",
                    "Can you take away the dishes?"),
    "describe_menu": ("What do you have on the menu?", "What would you recommend?"),
    "casual_chat": ("You are doing a great job today!", "Nice weather, isn't it?"),
}
NAV_PARAMS = {"robot_radius": 0.25, "clearance": 0.2, "alpha": 10.0, "window_half_width": 1.5}

# busy_floor's calls: (kind, caller's lattice slot).  Orders are a minority,
# cleanings and menu questions the bulk, so map updates and navigation
# dominate.  The tour is fixed so that travel per call does not hang on the
# seed; a cleaning (slot None) goes to the oldest table still holding a dish.
BUSY_FLOOR_LATTICE = (8, 5)
BUSY_FLOOR_KITCHEN_SLOT = (7, 2)
BUSY_FLOOR_SCRIPT = (
    ("serve_order", (0, 0)), ("describe_menu", (3, 4)), ("clean_table", None),
    ("serve_order", (6, 1)), ("casual_chat", (1, 3)), ("describe_menu", (5, 0)),
    ("serve_order", (2, 2)), ("clean_table", None), ("describe_menu", (7, 4)),
    ("serve_order", (4, 3)), ("clean_table", None), ("casual_chat", (0, 4)),
    ("describe_menu", (6, 3)), ("serve_order", (3, 0)), ("clean_table", None),
    ("describe_menu", (1, 1)),
)
# banquet: orders only, with detect faults, so placement and the recovery
# splices dominate.  Callers follow a fixed round over the four tables.
BANQUET_ORDERS = 16
BANQUET_CALLERS = (0, 2, 1, 3, 2, 0, 3, 1)
BANQUET_FAULTS = {"fail": 3, "wrong_item": 2}


@dataclass(frozen=True)
class Generated:
    scenario: dict
    grid_text: str
    expect: dict


@dataclass(frozen=True)
class Table:
    x: float
    y: float
    yaw: float
    dims: tuple[float, float, float]


def grid_text(width_m: float, height_m: float) -> str:
    """Walled empty room in the `gridmap v1` text format."""
    w, h = round(width_m / RES), round(height_m / RES)
    wall = "#" * w
    inner = "#" + "." * (w - 2) + "#"
    rows = [wall] + [inner] * (h - 2) + [wall]
    return "\n".join([f"gridmap v1 {w} {h} {RES!r} 0.0 0.0", *rows]) + "\n"


def boxes(tables: list[Table], rng: random.Random | None) -> list[dict]:
    """One detection frame; with `rng`, each box is jittered a little."""
    out = []
    for t in tables:
        dx = dy = dyaw = 0.0
        if rng is not None:
            dx, dy = rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)
            dyaw = rng.uniform(-0.01, 0.01)
        out.append({
            "class": "table",
            "center": [round(t.x + dx, 3), round(t.y + dy, 3), t.dims[2] / 2],
            "dims": list(t.dims),
            "yaw": round(t.yaw + dyaw, 4),
        })
    return out


def order_text(rng: random.Random, item: str) -> str:
    article = "an" if item[0] in "aeiou" else "a"
    return rng.choice(ORDER_PHRASES).format(item=f"{article} {item}")


def world(grid_file: str, kitchen: str, start: tuple[float, float], zones: list[dict],
          stock: int) -> dict:
    return {
        "grid_file": grid_file,
        "zones": zones,
        "menu": MENU,
        "kitchen_table": kitchen,
        "robot_start": [start[0], start[1], 0.0],
        "stock": {entry["name"]: stock for entry in MENU},
        "nav_params": NAV_PARAMS,
    }


def script_calls(rng: random.Random, calls: list[tuple[str, int]], t0: float,
                 frame_events=None) -> list[dict]:
    """Call/utterance events for (kind, table index) pairs.

    `frame_events(k, t)` may put events before call k (used by busy_floor for
    its per-call map and human frames).
    """
    events: list[dict] = []
    t = t0
    for k, (kind, ti) in enumerate(calls):
        if frame_events is not None:
            events.extend(frame_events(k, t))
        if kind == "serve_order":
            text = order_text(rng, rng.choice(MENU)["name"])
        else:
            text = rng.choice(UTTERANCES[kind])
        events.append({"t": round(t + 0.2, 1), "type": "call", "table": f"table_{ti}"})
        events.append({"t": round(t + 0.3, 1), "type": "utterance", "table": f"table_{ti}", "text": text})
        t += 2.0
    return events


def fault_events(triggers: dict[int, str]) -> list[dict]:
    return [
        {"t": round(1.0 + 0.1 * i, 1), "type": "fault", "skill": "detect", "trigger": k, "mode": mode}
        for i, (k, mode) in enumerate(sorted(triggers.items()))
    ]


def expectations(kinds: list[str], faults: dict[int, str]) -> dict:
    """Aggregates the replay must report, derived from the script alone."""
    orders = kinds.count("serve_order")
    wrong = sum(1 for mode in faults.values() if mode == "wrong_item")
    fail = sum(1 for mode in faults.values() if mode == "fail")
    return {
        "calls": len(kinds),
        "tasks": list(kinds),
        "metrics": {
            "orders_total": orders,
            "served_correct": orders - wrong,
            "served_incorrect": wrong,
            "assisted": fail,
            "collisions": 0,
        },
    }


def busy_floor(seed: int) -> Generated:
    """36 x 24 m hall, 39 customer tables (a third rotated) plus a kitchen counter.

    A jittered detection frame and a human observation come before every call,
    so the map is rewritten (track, virtual obstacles, inflation) on each call.
    """
    rng = random.Random(seed)
    hall_w, hall_h = 36.0, 24.0
    cols, rows = BUSY_FLOOR_LATTICE
    slots = [(i, j) for j in range(rows) for i in range(cols) if (i, j) != BUSY_FLOOR_KITCHEN_SLOT]
    tables = [Table(3.0 + 4.2 * i + rng.uniform(-0.3, 0.3), 3.0 + 4.5 * j + rng.uniform(-0.3, 0.3),
                    0.0, (1.2, 0.8, TABLE_H)) for i, j in slots]
    for k in rng.sample(range(len(tables)), len(tables) // 3):
        t = tables[k]
        tables[k] = Table(t.x, t.y, rng.choice((math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)), t.dims)
    kitchen = len(tables)
    tables.append(Table(34.6, 12.0, math.pi / 2, (1.2, 0.8, TABLE_H)))

    calls: list[tuple[str, int]] = []
    served: list[int] = []  # tables holding a dish, oldest first
    for kind, slot in BUSY_FLOOR_SCRIPT:
        ti = served.pop(0) if kind == "clean_table" else slots.index(slot)
        if kind == "serve_order":
            served.append(ti)
        calls.append((kind, ti))

    def frame_events(k: int, t: float) -> list[dict]:
        return [
            {"t": round(t, 1), "type": "detections", "frame": k + 1, "boxes": boxes(tables, rng)},
            {"t": round(t + 0.1, 1), "type": "human", "frame": k,
             "position": [round(rng.uniform(1.0, hall_w - 1.0), 2),
                          round(rng.uniform(1.0, hall_h - 1.0), 2), 0.0],
             "action": rng.choice(("sitting", "standing", "walking", "waving"))},
        ]

    events = [{"t": 0.0, "type": "detections", "frame": 0, "boxes": boxes(tables, None)},
              *script_calls(rng, calls, 10.0, frame_events)]
    doc = {
        "world": world("floor.grid", f"table_{kitchen}", (18.0, 12.0),
                       [{"name": "dining area", "p1": [0.5, 0.5], "p2": [33.0, 23.5]},
                        {"name": "kitchen", "p1": [33.0, 9.0], "p2": [35.5, 15.0]}],
                       stock=len(calls) + 5),
        "events": events,
    }
    return Generated(doc, grid_text(hall_w, hall_h), expectations([kind for kind, _ in calls], {}))


def banquet(seed: int) -> Generated:
    """11 x 7 m room, four 2.4 x 1.4 m tables and a kitchen counter; orders only.

    The map is built once.  Detect faults make the recovery splice (help
    request plus hand-over) and wrong-item serves run.
    """
    rng = random.Random(seed)
    room_w, room_h = 11.0, 7.0
    tables = [Table(x + rng.uniform(-0.1, 0.1), y + rng.uniform(-0.1, 0.1), 0.0, (2.4, 1.4, TABLE_H))
              for y in (2.0, 5.0) for x in (2.6, 6.6)]
    kitchen = len(tables)
    tables.append(Table(9.8, 3.5, math.pi / 2, (1.2, 0.8, TABLE_H)))

    callers = [BANQUET_CALLERS[k % len(BANQUET_CALLERS)] for k in range(BANQUET_ORDERS)]
    hit = rng.sample(range(BANQUET_ORDERS), sum(BANQUET_FAULTS.values()))
    faults: dict[int, str] = {}
    for mode, n in BANQUET_FAULTS.items():
        for k in hit[:n]:
            faults[k] = mode  # every call is an order, so detect k is order k
        hit = hit[n:]

    events = [
        {"t": 0.0, "type": "detections", "frame": 0, "boxes": boxes(tables, None)},
        {"t": 0.5, "type": "detections", "frame": 1, "boxes": boxes(tables, rng)},
        *fault_events(faults),
        *script_calls(rng, [("serve_order", ti) for ti in callers], 10.0),
    ]
    doc = {
        "world": world("floor.grid", f"table_{kitchen}", (5.0, 3.5),
                       [{"name": "banquet hall", "p1": [0.5, 0.5], "p2": [8.8, 6.5]},
                        {"name": "kitchen", "p1": [8.8, 0.5], "p2": [10.5, 6.5]}],
                       stock=BANQUET_ORDERS + 5),
        "events": events,
    }
    return Generated(doc, grid_text(room_w, room_h), expectations(["serve_order"] * BANQUET_ORDERS, faults))


GENERATORS = {"busy_floor": busy_floor, "banquet": banquet}


def write(gen: Generated, out_dir: Path) -> Path:
    """Write the scenario and its grid into `out_dir`; returns the scenario path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / gen.scenario["world"]["grid_file"]).write_text(gen.grid_text)
    path = out_dir / "scenario.json"
    path.write_text(json.dumps(gen.scenario, indent=1) + "\n")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    gen = GENERATORS[args.workload](args.seed)
    print(write(gen, args.out))
    print(json.dumps(gen.expect["metrics"], sort_keys=True))


if __name__ == "__main__":
    main()
