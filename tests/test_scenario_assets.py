"""The shipped scenario assets must match what the generator script produces."""

import importlib.util
import json
from pathlib import Path

import pytest

from helpers import gen

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = REPO_ROOT / "scenarios"
# every order text: one of the generator's phrases filled with an article and a menu item
ORDERS = {phrase.format(item=f"{article} {entry['name']}")
          for phrase in gen.ORDER_PHRASES for article in ("a", "an") for entry in gen.MENU}


@pytest.fixture(scope="module")
def script():
    path = REPO_ROOT / "scripts" / "gen_restaurant_scenario.py"
    spec = importlib.util.spec_from_file_location("gen_restaurant_scenario", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_matches_generator(script):
    assert (SCENARIOS / "restaurant.grid").read_text() == script.build_grid_text()


def test_detection_log_matches_generator(script):
    expected = json.dumps(script.build_detection_log(), indent=2) + "\n"
    assert (SCENARIOS / "six_tables.json").read_text() == expected


def test_scenario_matches_generator(script):
    expected = json.dumps(script.build_scenario(), indent=2) + "\n"
    assert (SCENARIOS / "restaurant_41.json").read_text() == expected


def test_cloud_matches_generator(script):
    assert (SCENARIOS / "tabletop_cloud.txt").read_text() == script.build_cloud_text()


def test_scripted_fault_budget(script):
    doc = script.build_scenario()
    faults = [e for e in doc["events"] if e["type"] == "fault"]
    assert sum(1 for f in faults if f["mode"] == "wrong_item") == 4
    assert sum(1 for f in faults if f["mode"] == "fail") == 7
    assert sum(1 for e in doc["events"] if e["type"] == "utterance" and e["text"] in ORDERS) == 41
