#!/usr/bin/env python3
"""Regenerate the shipped demo assets under scenarios/.

The restaurant workload is scripted to fixed aggregates: 41 orders, 4 of them
forced to a wrong-item detection (served anyway), 7 forced detect failures
recovered by a hand-over, everything else clean.  Running it must yield
orders_total=41, served_correct=37, served_incorrect=4, assisted=7,
collisions=0.  Regeneration is deterministic, so the written files are
byte-stable and safe to diff in tests.

The menu, order phrases, grid, box and `world` writers are the benchmark
generator's (`bench/gen.py`); this script keeps only what restaurant_41 alone
has: its tables, kitchen, faults, call script and demo cloud.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = REPO_ROOT / "scenarios"
sys.path.insert(0, str(REPO_ROOT / "bench"))
import gen  # noqa: E402

# six tables; the last one doubles as the kitchen pick-up table
TABLE_CENTERS = [
    (2.0, 2.0),
    (5.0, 2.0),
    (8.0, 2.0),
    (2.0, 5.5),
    (5.0, 5.5),
    (10.0, 6.0),
]
KITCHEN_ID = "table_5"
ZONES = [
    {"name": "dining area", "p1": [0.5, 0.5], "p2": [8.9, 7.5]},
    {"name": "kitchen", "p1": [8.9, 4.5], "p2": [11.5, 7.5]},
]

# 0-based order indices forced to a fault (one detect per order)
WRONG_ITEM_ORDERS = (4, 12, 20, 32)
DETECT_FAIL_ORDERS = (2, 8, 14, 21, 27, 34, 39)


def build_grid_text() -> str:
    return gen.grid_text(12.0, 8.0)


def table_boxes(jitter: float = 0.0) -> list[dict]:
    """One detection frame: every table, moved by `jitter` in x and y."""
    return gen.boxes([gen.Table(cx + jitter, cy + jitter, 0.0, (1.2, 0.8, gen.TABLE_H))
                      for cx, cy in TABLE_CENTERS], None)


def build_detection_log() -> list[dict]:
    return [
        {"frame": 0, "boxes": table_boxes()},
        {"frame": 1, "boxes": table_boxes(jitter=0.02)},
    ]


def build_scenario() -> dict:
    events = [
        {"t": 0.0, "type": "detections", "frame": 0, "boxes": table_boxes()},
        {"t": 0.5, "type": "detections", "frame": 1, "boxes": table_boxes(jitter=0.02)},
    ]
    t = 1.0
    for k in WRONG_ITEM_ORDERS:
        events.append({"t": t, "type": "fault", "skill": "detect", "trigger": k, "mode": "wrong_item"})
        t += 0.1
    for k in DETECT_FAIL_ORDERS:
        events.append({"t": t, "type": "fault", "skill": "detect", "trigger": k, "mode": "fail"})
        t += 0.1
    events.append(
        {
            "t": round(t, 1),
            "type": "human",
            "frame": 2,
            "position": [2.8, 2.6, 0.0],
            "action": "sitting",
            "attributes": {"clothing": "T-shirt", "gender": "male"},
            "name": "Smith",
        }
    )
    events.append(
        {
            "t": round(t + 0.1, 1),
            "type": "human",
            "frame": 3,
            "position": [5.8, 5.9, 0.0],
            "action": "waving",
            "attributes": {"clothing": "red sweater"},
        }
    )

    customer_tables = ["table_0", "table_1", "table_2", "table_3", "table_4"]
    t = 10.0
    order = 0
    interactions = 0
    while order < 41:
        table = customer_tables[order % len(customer_tables)]
        # sprinkle two menu questions and one bit of small talk between orders
        if interactions in (6, 23):
            events.append({"t": t, "type": "call", "table": table})
            events.append({"t": t + 0.5, "type": "utterance", "table": table,
                           "text": "What do you have on the menu?"})
            t += 2.0
            interactions += 1
            continue
        if interactions == 15:
            events.append({"t": t, "type": "call", "table": table})
            events.append({"t": t + 0.5, "type": "utterance", "table": table,
                           "text": "You are doing a great job today!"})
            t += 2.0
            interactions += 1
            continue
        item = gen.MENU[order % len(gen.MENU)]["name"]
        article = "an" if item[0] in "aeiou" else "a"
        phrase = gen.ORDER_PHRASES[order % len(gen.ORDER_PHRASES)].format(item=f"{article} {item}")
        events.append({"t": t, "type": "call", "table": table})
        events.append({"t": t + 0.5, "type": "utterance", "table": table, "text": phrase})
        t += 2.0
        order += 1
        interactions += 1

    return {"world": gen.world("restaurant.grid", KITCHEN_ID, (6.0, 4.0), ZONES, 12), "events": events}


def build_cloud_text() -> str:
    """Small demo tabletop cloud: exact plane at z=0.72 plus one mug-sized blob."""
    lines = []
    for i in range(24):
        for j in range(16):
            x = -0.6 + (i + 0.5) * 1.2 / 24
            y = -0.4 + (j + 0.5) * 0.8 / 16
            lines.append(f"{round(x, 4)} {round(y, 4)} 0.72")
    for i in range(3):
        for j in range(3):
            lines.append(f"{round(0.3 + 0.02 * i, 4)} {round(0.1 + 0.02 * j, 4)} 0.8")
    return "\n".join(lines) + "\n"


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "restaurant.grid").write_text(build_grid_text())
    (OUT_DIR / "six_tables.json").write_text(json.dumps(build_detection_log(), indent=2) + "\n")
    (OUT_DIR / "restaurant_41.json").write_text(json.dumps(build_scenario(), indent=2) + "\n")
    (OUT_DIR / "tabletop_cloud.txt").write_text(build_cloud_text())
    print(f"wrote assets to {OUT_DIR}")


if __name__ == "__main__":
    main()
