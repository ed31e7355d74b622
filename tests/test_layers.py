import json

import pytest

from waiterbot.formats import LayerFormatError, dump_layers, load_layers
from waiterbot.furniture import Detection3D, FurnitureLayer


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
