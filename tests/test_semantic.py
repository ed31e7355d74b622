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
        assert layer.upsert(HumanObservation((1.1, 1.0, 0), 1, action="sitting")) == "person_0"
        # 0.45 m from the moved record, 0.55 m from where it was
        assert layer.upsert(HumanObservation((1.55, 1.0, 0), 2)) == "person_0"

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
        assert layer.last_frame == 0
        assert layer.upsert(HumanObservation((1.0, 1.0, 0), 1)) == "person_0"

    def test_gate_boundary_matches_and_a_tie_goes_to_the_later_record(self):
        layer = HumanLayer()
        layer.upsert(HumanObservation((0.0, 0.0, 0), 0))
        assert layer.upsert(HumanObservation((0.5, 0.0, 0), 1)) == "person_0"  # exactly at the gate
        layer = HumanLayer()
        layer.upsert(HumanObservation((0.0, 0.0, 0), 0))
        assert layer.upsert(HumanObservation((1.0, 0.0, 0), 0)) == "person_1"
        # 0.5 m from both records: the log's ids depend on which one wins
        assert layer.upsert(HumanObservation((0.5, 0.0, 0), 1)) == "person_1"
