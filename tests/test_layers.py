import json

import pytest

from waiterbot.furniture import Detection3D, FurnitureLayer
from waiterbot.layers import LayerFormatError, dump_layers, load_layers
from waiterbot.semantic import HumanLayer, HumanObservation


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
    humans = HumanLayer()
    humans.upsert(HumanObservation((1.5, 1.5, 0.0), 0, action="sitting",
                                   attributes={"clothing": "T-shirt"}))
    return furniture, humans


def test_dump_load_dump_byte_identical():
    furniture, humans = populated_layers()
    text = dump_layers(furniture, humans)
    again = dump_layers(*load_layers(text))
    assert again == text


def test_hand_written_base_z_and_height_survive_load():
    # base_z + h / 2 - h / 2 is not base_z for many pairs, e.g. 1.49 and 1.87
    furniture, humans = populated_layers()
    doc = json.loads(dump_layers(furniture, humans))
    for base_z in [k / 100 for k in range(0, 200, 3)]:
        for h in [k / 100 for k in range(10, 250, 7)]:
            doc["furniture"][1]["base_z"] = base_z
            doc["furniture"][1]["dims"]["h"] = h
            text = json.dumps(doc, indent=2) + "\n"
            assert dump_layers(*load_layers(text)) == text


def test_sections_present_and_ordered():
    furniture, humans = populated_layers()
    text = dump_layers(furniture, humans)
    assert list(json.loads(text)) == ["furniture", "kitchen", "humans"]
    assert '"kitchen": "table_0"' in text


def test_loaded_layer_preserves_ids_and_kitchen():
    furniture, humans = populated_layers()
    loaded, loaded_humans = load_layers(dump_layers(furniture, humans))
    assert [i.id for i in loaded.instances()] == ["chair_0", "table_0"]
    assert loaded.kitchen_id == "table_0"
    assert [(h.id, h.action) for h in loaded_humans.humans()] == [("person_0", "sitting")]


def test_loaded_human_counter_continues():
    furniture, humans = populated_layers()
    _, loaded_humans = load_layers(dump_layers(furniture, humans))
    new_id = loaded_humans.upsert(HumanObservation((9.0, 9.0, 0.0), 5))
    assert new_id == "person_1"


def test_not_json_raises():
    with pytest.raises(LayerFormatError):
        load_layers("this is not json")


def test_bad_entry_raises():
    with pytest.raises(LayerFormatError):
        load_layers('{"furniture": [{"id": "x"}]}')
