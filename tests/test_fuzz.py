"""One-node mutations of the shipped inputs through `run`, `map build` and `map dump`.

Each example replaces one JSON node (any object member or list element, not
only leaves) with a value from a fixed pool, or deletes it.  Whatever the
input, the command must exit 0 or 2, raise nothing, and print nothing to
stdout when it exits 2.
"""

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

from hypothesis import given, settings
from hypothesis import strategies as st

from waiterbot.cli import dispatch

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = REPO_ROOT / "scenarios"
GOLDEN = Path(__file__).parent / "golden"

POOL = (None, True, -1, 2.5, math.nan, math.inf, -math.inf, 10**400, "", "x", [], [1, 2], {})
DELETE = object()
FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def node_paths(node, prefix=()):
    """Key/index paths of every member and element below `node`."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def mutation(doc):
    """Strategy: (path, value) pairs; value DELETE removes the node."""
    return st.tuples(st.sampled_from(list(node_paths(doc))), st.sampled_from(POOL + (DELETE,)))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def check_exit(doc, argv_for):
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch([str(a) for a in argv_for(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


def trimmed_restaurant():
    """restaurant_41 cut to its detection and human events, the first fault
    that fires within three orders, and the first three call/utterance pairs."""
    doc = json.loads((SCENARIOS / "restaurant_41.json").read_text())
    doc["world"]["grid_file"] = str(SCENARIOS / doc["world"]["grid_file"])
    events = doc["events"]
    keep = {i for i, e in enumerate(events) if e["type"] in ("detections", "human")}
    keep.add(next(i for i, e in enumerate(events) if e["type"] == "fault" and e["trigger"] < 3))
    for i in [i for i, e in enumerate(events) if e["type"] == "call"][:3]:
        assert events[i + 1]["type"] == "utterance"
        keep.update((i, i + 1))
    doc["events"] = [events[i] for i in sorted(keep)]
    return doc


RESTAURANT = trimmed_restaurant()
DETECTION_LOG = json.loads((SCENARIOS / "six_tables.json").read_text())
LAYERS = json.loads((GOLDEN / "six_tables_layers.json").read_text())


def test_trimmed_scenario_serves_all_three_orders(capsys):
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(RESTAURANT))
        assert dispatch(["run", "--scenario", str(path)]) == 0
    assert "accuracy         3/3" in capsys.readouterr().out


@FUZZ
@given(mutation(RESTAURANT))
def test_run_survives_one_node_mutations(change):
    check_exit(mutated(RESTAURANT, *change), lambda p: ["run", "--scenario", p])


@FUZZ
@given(mutation(DETECTION_LOG))
def test_map_build_survives_one_node_mutations(change):
    check_exit(mutated(DETECTION_LOG, *change),
               lambda p: ["map", "build", "--grid", SCENARIOS / "restaurant.grid", "--detections", p])


@FUZZ
@given(mutation(LAYERS))
def test_map_dump_survives_one_node_mutations(change):
    check_exit(mutated(LAYERS, *change), lambda p: ["map", "dump", "--layers", p])
