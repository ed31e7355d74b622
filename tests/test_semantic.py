import numpy as np
import pytest

from waiterbot.semantic import HumanLayer, HumanObservation


class TestHumanTracking:
    def test_first_observation_creates_person_0(self):
        layer = HumanLayer()
        assert layer.upsert(HumanObservation((1, 1, 0), 0)) == "person_0"

    def test_nearby_observation_updates(self):
        layer = HumanLayer()
        layer.upsert(HumanObservation((1.0, 1.0, 0), 0))
        hid = layer.upsert(HumanObservation((1.1, 1.0, 0), 1, action="sitting"))
        assert hid == "person_0"
        assert [(h.id, h.action) for h in layer.humans()] == [("person_0", "sitting")]

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
        assert [(h.id, h.action) for h in layer.humans()] == [("person_0", "sitting")]
        assert layer.last_frame == 0
