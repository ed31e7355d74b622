import numpy as np
import pytest

from waiterbot.furniture import Detection3D, FurnitureLayer
from waiterbot.semantic import (
    HumanEntity,
    HumanLayer,
    HumanObservation,
    Zone,
    describe,
    zone_at,
)


@pytest.fixture
def zones():
    return [
        Zone("living room", (0.0, 0.0), (4.0, 4.0)),
        Zone("kitchen", (4.0, 0.0), (8.0, 4.0)),
    ]


class TestZones:
    def test_inside(self, zones):
        assert zone_at(zones, (1.0, 1.0)) == "living room"

    def test_outside_all(self, zones):
        assert zone_at(zones, (9.0, 9.0)) is None

    def test_boundary_belongs_to_zone(self, zones):
        assert zone_at(zones, (0.0, 2.0)) == "living room"

    def test_overlap_resolved_by_insertion_order(self):
        overlapping = [Zone("first", (0, 0), (2, 2)), Zone("second", (1, 1), (3, 3))]
        assert zone_at(overlapping, (1.5, 1.5)) == "first"

    def test_corners_may_come_in_any_order(self):
        z = Zone("flipped", (4.0, 4.0), (0.0, 0.0))
        assert z.contains((2.0, 2.0))

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            Zone("line", (0, 0), (0, 3))


class TestHumanTracking:
    def test_first_observation_creates_person_0(self):
        layer = HumanLayer()
        assert layer.upsert(HumanObservation((1, 1, 0), 0)) == "person_0"

    def test_nearby_observation_updates(self):
        layer = HumanLayer()
        layer.upsert(HumanObservation((1.0, 1.0, 0), 0))
        hid = layer.upsert(HumanObservation((1.1, 1.0, 0), 1, action="sitting"))
        assert hid == "person_0"
        assert layer.get("person_0").action == "sitting"

    def test_far_observation_creates_new_person(self):
        layer = HumanLayer()
        layer.upsert(HumanObservation((1, 1, 0), 0))
        assert layer.upsert(HumanObservation((4, 1, 0), 1)) == "person_1"

    def test_ids_stable_on_synthetic_walk(self):
        rng = np.random.default_rng(17)
        layer = HumanLayer()
        x, y = 2.0, 2.0
        layer.upsert(HumanObservation((x, y, 0), 0))
        for frame in range(1, 30):
            step = rng.uniform(-0.3, 0.3, 2)
            x, y = x + float(step[0]), y + float(step[1])
            assert layer.upsert(HumanObservation((x, y, 0), frame)) == "person_0"

    def test_old_frame_rejected(self):
        layer = HumanLayer()
        layer.upsert(HumanObservation((1, 1, 0), 5))
        with pytest.raises(ValueError):
            layer.upsert(HumanObservation((1, 1, 0), 4))

    def test_unknown_action_rejected_and_record_untouched(self):
        layer = HumanLayer()
        layer.upsert(HumanObservation((1.0, 1.0, 0), 0, action="sitting"))
        with pytest.raises(ValueError):
            layer.upsert(HumanObservation((1.0, 1.0, 0), 1, action="dancing"))
        assert layer.get("person_0").action == "sitting"
        assert layer.last_frame == 0

    def test_restore_keeps_auto_ids_and_frame_order(self):
        layer = HumanLayer()
        layer.restore(HumanEntity("person_4", (1.0, 1.0, 0.0), last_seen=7))
        layer.restore(HumanEntity("guest", (5.0, 5.0, 0.0), last_seen=3))
        assert layer.get("person_4").position == (1.0, 1.0, 0.0)
        assert layer.upsert(HumanObservation((9, 9, 0), 7)) == "person_5"
        with pytest.raises(ValueError):
            layer.upsert(HumanObservation((9, 9, 0), 6))


class TestDescribe:
    def test_paper_style_full_sentence(self, zones):
        furniture = FurnitureLayer()
        furniture.track_frame([Detection3D("chair", (1.2, 1.0, 0.45), (0.5, 0.5, 0.9), 0.0, 0)])
        human = HumanEntity(
            id="person_0",
            position=(1.0, 1.0, 0.0),
            action="sitting",
            name="Smith",
            attributes={"clothing": "T-shirt", "gesture": "waving", "gender": "male"},
        )
        assert describe(human, zones, furniture) == (
            "Mr. Smith is sitting on the chair in the living room, "
            "wearing a T-shirt and waving his hand"
        )

    def test_bare_record(self, zones):
        human = HumanEntity(id="person_0", position=(5.0, 1.0, 0.0))
        assert describe(human, zones) == "person_0 is in the kitchen"

    def test_no_zone_clause_outside_zones(self):
        human = HumanEntity(id="person_0", position=(20.0, 20.0, 0.0), action="standing")
        assert describe(human, []) == "person_0 is standing"

    def test_far_furniture_is_omitted(self, zones):
        furniture = FurnitureLayer()
        furniture.track_frame([Detection3D("chair", (3.9, 3.9, 0.45), (0.5, 0.5, 0.9), 0.0, 0)])
        human = HumanEntity(id="person_0", position=(1.0, 1.0, 0.0), action="standing")
        assert "chair" not in describe(human, zones, furniture)

    def test_clothing_article_kept_when_present(self, zones):
        human = HumanEntity(
            id="person_0", position=(1, 1, 0), attributes={"clothing": "an apron"}
        )
        sentence = describe(human, zones)
        assert "wearing an apron" in sentence
        assert "a an" not in sentence

    def test_gesture_without_gender_uses_neutral_possessive(self, zones):
        human = HumanEntity(
            id="person_0", position=(1, 1, 0), attributes={"gesture": "waving"}
        )
        assert describe(human, zones).endswith("waving their hand")

    def test_never_emits_placeholders(self, zones):
        human = HumanEntity(id="person_0", position=(1, 1, 0), action="walking")
        sentence = describe(human, zones)
        assert "{" not in sentence and "}" not in sentence
