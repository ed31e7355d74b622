import json
from pathlib import Path

import numpy as np
import pytest

from helpers import gen
from waiterbot.formats import LayerFormatError, detection_entry, detections_from_json, dump_layers, load_layers
from waiterbot.furniture import Detection3D, FurnitureLayer

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def populated_layers():
    furniture = FurnitureLayer()
    furniture.track_frame(
        [
            Detection3D("table", (1.0, 2.0, 0.36), (1.2, 0.8, 0.72), 0.1),
            Detection3D("chair", (2.5, 2.0, 0.45), (0.5, 0.5, 0.9), -0.4),
        ],
        0,
    )
    furniture.set_kitchen("table_0")
    return furniture


def test_dump_load_dump_byte_identical():
    furniture = populated_layers()
    text = dump_layers(furniture)
    again = dump_layers(load_layers(text))
    assert again == text


def test_hand_written_base_z_and_height_survive_load():
    # base_z + h / 2 - h / 2 is not base_z for many pairs, e.g. 1.49 and 1.87
    furniture = populated_layers()
    doc = json.loads(dump_layers(furniture))
    for base_z in [k / 100 for k in range(0, 200, 3)]:
        for h in [k / 100 for k in range(10, 250, 7)]:
            doc["furniture"][1]["base_z"] = base_z
            doc["furniture"][1]["dims"]["h"] = h
            text = json.dumps(doc, indent=2) + "\n"
            assert dump_layers(load_layers(text)) == text


def tracked_layers():
    """The layers tracked from six_tables' detection log and from busy_floor's
    frames (generator seed 3: 40 tables, 17 frames)."""
    six = FurnitureLayer()
    for entry in json.loads((SCENARIOS / "six_tables.json").read_text()):
        frame = detection_entry(entry)
        six.track_frame(frame.boxes, frame.frame)
    busy = FurnitureLayer()
    for ev in gen.busy_floor(3).scenario["events"]:
        if ev["type"] == "detections":
            busy.track_frame(detections_from_json(ev["boxes"]), ev["frame"])
    return six, busy


def test_a_layer_read_back_keeps_every_instances_geometry_bit_for_bit():
    # corners, area and height interval, which matching reads, are those of the live layer
    def bits(values):
        return np.array(values, dtype=np.float64).tobytes()

    for layer in tracked_layers():
        live, loaded = layer.instances(), load_layers(dump_layers(layer)).instances()
        assert [i.id for i in loaded] == [i.id for i in live] and len(live) in (6, 40)
        for a, b in zip(live, loaded):
            assert bits(a.footprint) == bits(b.footprint)
            assert bits(a.area) == bits(b.area)
            assert bits(a.z_interval) == bits(b.z_interval)


def test_sections_present_and_ordered():
    furniture = populated_layers()
    text = dump_layers(furniture)
    assert list(json.loads(text)) == ["furniture", "kitchen"]
    assert '"kitchen": "table_0"' in text


def test_loaded_layer_preserves_ids_and_kitchen():
    furniture = populated_layers()
    loaded = load_layers(dump_layers(furniture))
    assert [i.id for i in loaded.instances()] == ["chair_0", "table_0"]
    assert loaded.kitchen_id == "table_0"


def test_not_json_raises():
    with pytest.raises(LayerFormatError):
        load_layers("this is not json")


def test_bad_entry_raises():
    with pytest.raises(LayerFormatError):
        load_layers('{"furniture": [{"id": "x"}]}')
