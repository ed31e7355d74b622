import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from waiterbot import llm
from waiterbot.cli import dispatch

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = REPO_ROOT / "scenarios"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = dispatch([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMapCommands:
    def test_build_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["map", "build", "--grid", SCENARIOS / "restaurant.grid",
             "--detections", SCENARIOS / "six_tables.json", "--kitchen", "table_5"],
        )
        assert code == 0
        assert out == (GOLDEN / "six_tables_layers.json").read_text()

    def test_build_writes_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "layers.json"
        code, out, _ = run_cli(
            capsys,
            ["map", "build", "--grid", SCENARIOS / "restaurant.grid",
             "--detections", SCENARIOS / "six_tables.json", "--out", out_file],
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert [e["id"] for e in doc["furniture"]] == [f"table_{k}" for k in range(6)]

    def test_dump_keeps_hand_written_base_z(self, capsys, tmp_path):
        doc = json.loads((GOLDEN / "six_tables_layers.json").read_text())
        doc["furniture"][0]["base_z"] = 1.49  # 1.49 + 1.87 / 2 - 1.87 / 2 != 1.49 in floats
        doc["furniture"][0]["dims"]["h"] = 1.87
        layers = tmp_path / "layers.json"
        layers.write_text(json.dumps(doc, indent=2) + "\n")
        code, out, _ = run_cli(capsys, ["map", "dump", "--layers", layers])
        assert code == 0
        assert out == layers.read_text()

    def test_dump_round_trips(self, capsys, tmp_path):
        layers = tmp_path / "layers.json"
        layers.write_text((GOLDEN / "six_tables_layers.json").read_text())
        code, out, _ = run_cli(capsys, ["map", "dump", "--layers", layers])
        assert code == 0
        assert out == layers.read_text()

    def test_build_bad_grid_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.grid"
        bad.write_text("not a grid\n")
        code, _, err = run_cli(
            capsys,
            ["map", "build", "--grid", bad, "--detections", SCENARIOS / "six_tables.json"],
        )
        assert code == 2
        assert "bad grid" in err

    def test_build_non_utf8_grid_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.grid"
        bad.write_bytes(b"gridmap v1 2 1 0.1 0 0\n\xff.\n")
        code, out, err = run_cli(
            capsys,
            ["map", "build", "--grid", bad, "--detections", SCENARIOS / "six_tables.json"],
        )
        assert code == 2
        assert f"cannot read grid {bad}" in err and out == ""

    @pytest.mark.parametrize("command", ["run", "repl"])
    def test_non_utf8_scenario_exits_2(self, capsys, monkeypatch, tmp_path, command):
        bad = tmp_path / "s.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, [command, "--scenario", bad], stdin_text=":quit\n", monkeypatch=monkeypatch)
        assert code == 2
        assert err.startswith(f"error: cannot read {bad}: ") and out == ""


class TestNavGoalCommand:
    def test_matches_golden(self, capsys, tmp_path):
        layers = tmp_path / "layers.json"
        layers.write_text((GOLDEN / "six_tables_layers.json").read_text())
        code, out, _ = run_cli(
            capsys,
            ["nav-goal", "--map", SCENARIOS / "restaurant.grid", "--layers", layers,
             "--furniture", "table_0", "--robot", "0.8,2.0,0.0"],
        )
        assert code == 0
        assert out == (GOLDEN / "nav_goal.txt").read_text()

    def test_unknown_furniture_exits_1(self, capsys, tmp_path):
        layers = tmp_path / "layers.json"
        layers.write_text((GOLDEN / "six_tables_layers.json").read_text())
        code, _, err = run_cli(
            capsys,
            ["nav-goal", "--map", SCENARIOS / "restaurant.grid", "--layers", layers,
             "--furniture", "sofa_9", "--robot", "0.8,2.0,0.0"],
        )
        assert code == 1
        assert "sofa_9" in err

    def test_bad_pose_exits_2(self, capsys, tmp_path):
        layers = tmp_path / "layers.json"
        layers.write_text((GOLDEN / "six_tables_layers.json").read_text())
        code, _, _ = run_cli(
            capsys,
            ["nav-goal", "--map", SCENARIOS / "restaurant.grid", "--layers", layers,
             "--furniture", "table_0", "--robot", "nope"],
        )
        assert code == 2

    def test_non_finite_pose_exits_2(self, capsys, tmp_path):
        layers = tmp_path / "layers.json"
        layers.write_text((GOLDEN / "six_tables_layers.json").read_text())
        code, out, err = run_cli(
            capsys,
            ["nav-goal", "--map", SCENARIOS / "restaurant.grid", "--layers", layers,
             "--furniture", "table_0", "--robot", "nan,2.0,0.0"],
        )
        assert code == 2
        assert "'nan,2.0,0.0'" in err and out == ""

    def test_footprint_far_beyond_the_map_exits_0(self, capsys, tmp_path):
        doc = json.loads((GOLDEN / "six_tables_layers.json").read_text())
        doc["furniture"].append({"id": "counter_0", "class": "counter",
                                 "pose": {"x": 6.0, "y": 7.5, "theta": 0.0}, "base_z": 0.0,
                                 "dims": {"w": 1e19, "d": 0.4, "h": 1.0}, "last_seen": 0})
        layers = tmp_path / "layers.json"
        layers.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys,
            ["nav-goal", "--map", SCENARIOS / "restaurant.grid", "--layers", layers,
             "--furniture", "table_0", "--robot", "0.8,2.0,0.0"],
        )
        assert code == 0, err
        assert out.startswith("cell: ")


class TestPlaceCommand:
    def test_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, ["place", "--cloud", SCENARIOS / "tabletop_cloud.txt", "--radius", "0.05"]
        )
        assert code == 0
        assert out == (GOLDEN / "place.txt").read_text()

    def test_covered_surface_exits_1(self, capsys, tmp_path):
        lines = []
        for i in range(10):
            for j in range(10):
                x, y = i * 0.02, j * 0.02
                lines.append(f"{x} {y} 0.5")
                lines.append(f"{x} {y} 0.55")
        cloud = tmp_path / "cloud.txt"
        cloud.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, ["place", "--cloud", cloud, "--radius", "0.05"])
        assert code == 1

    def test_surface_beyond_the_raster_budget_exits_1(self, capsys, tmp_path):
        rng = random.Random(0)  # a flat cloud 1e19 m long
        cloud = tmp_path / "cloud.txt"
        cloud.write_text("".join(f"{rng.uniform(0, 1e19)!r} {rng.uniform(0, 1)!r} 0.0\n" for _ in range(400)))
        code, out, err = run_cli(capsys, ["place", "--cloud", cloud, "--radius", "0.05"])
        assert code == 1
        assert err.startswith("error: no space: ") and "budget" in err and out == ""

    @pytest.mark.parametrize("x,y", [(8e307, 1.0), (1e160, 1.0), (1e100, 1e100)])
    def test_cloud_beyond_the_fit_extent_exits_1(self, capsys, tmp_path, x, y):
        rng = random.Random(0)  # 400 points on z = 0, spread over [-x, x] x [-y, y]
        cloud = tmp_path / "cloud.txt"
        cloud.write_text("".join(f"{rng.uniform(-x, x)!r} {rng.uniform(-y, y)!r} 0.0\n" for _ in range(400)))
        code, out, err = run_cli(capsys, ["place", "--cloud", cloud, "--radius", "0.05"])
        assert code == 1  # an overflow's RuntimeWarning would have failed the test
        assert err.startswith("error: plane fit failed: cloud extent ") and out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_exits_2(self, capsys, tmp_path, value):
        cloud = tmp_path / "cloud.txt"
        lines = (SCENARIOS / "tabletop_cloud.txt").read_text().splitlines()
        lines[4] = f"1.0 {value} 0.7"
        cloud.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, ["place", "--cloud", cloud, "--radius", "0.05"])
        assert code == 2
        assert "line 5" in err and out == ""

    def test_seed_changes_nothing_on_clean_data(self, capsys):
        _, out_a, _ = run_cli(
            capsys,
            ["place", "--cloud", SCENARIOS / "tabletop_cloud.txt", "--radius", "0.05", "--seed", "1"],
        )
        _, out_b, _ = run_cli(
            capsys,
            ["place", "--cloud", SCENARIOS / "tabletop_cloud.txt", "--radius", "0.05", "--seed", "1"],
        )
        assert out_a == out_b


class TestRunCommand:
    def test_metrics_block_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, ["run", "--scenario", SCENARIOS / "restaurant_41.json"]
        )
        assert code == 0
        assert out == (GOLDEN / "run_metrics.txt").read_text()

    def test_log_and_metrics_files(self, capsys, tmp_path):
        log_a = tmp_path / "a.jsonl"
        log_b = tmp_path / "b.jsonl"
        metrics_path = tmp_path / "m.json"
        run_cli(capsys, ["run", "--scenario", SCENARIOS / "restaurant_41.json",
                         "--log", log_a, "--metrics-out", metrics_path])
        run_cli(capsys, ["run", "--scenario", SCENARIOS / "restaurant_41.json", "--log", log_b])
        assert log_a.read_text() == log_b.read_text()
        doc = json.loads(metrics_path.read_text())
        assert doc["orders_total"] == 41
        assert doc["accuracy"] == "37/41"

    def test_missing_scenario_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["run", "--scenario", "no_such.json"])
        assert code == 2

    def _run_mutated(self, capsys, tmp_path, mutate, *options):
        doc = json.loads((SCENARIOS / "restaurant_41.json").read_text())
        doc["world"]["grid_file"] = str(SCENARIOS / doc["world"]["grid_file"])
        index = mutate(doc["events"])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["run", "--scenario", path, *options])
        return code, out, err, index

    def test_footprint_far_beyond_the_map_exits_0(self, capsys, tmp_path):
        def mutate(events):
            index = next(i for i, ev in enumerate(events) if ev["type"] == "detections")
            events[index]["boxes"].append({"class": "counter", "center": [6.0, 7.5, 0.5],
                                           "dims": [1e19, 0.4, 1.0], "yaw": 0.0})
            return index

        code, out, err, _ = self._run_mutated(capsys, tmp_path, mutate)
        assert code == 0, err
        assert "orders_total" in out

    def test_table_beyond_the_raster_budget_fails_its_placement(self, capsys, tmp_path):
        def mutate(events):
            index = next(i for i, ev in enumerate(events) if ev["type"] == "detections")
            events[index]["boxes"][0]["dims"][0] = 1e19  # table_0
            return index

        log = tmp_path / "run.jsonl"
        code, out, err, _ = self._run_mutated(capsys, tmp_path, mutate, "--log", log)
        assert code == 0, err
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert any(r["event"] == "skill" and r["skill"] == "find_placement()" and "budget" in r["result"]
                   for r in records)

    def test_nan_timestamp_exits_2(self, capsys, tmp_path):
        def mutate(events):
            events[3]["t"] = float("nan")  # written as NaN, which json.loads accepts
            return 3

        code, out, err, index = self._run_mutated(capsys, tmp_path, mutate)
        assert code == 2
        assert f"event {index}" in err and out == ""

    def test_string_fault_trigger_exits_2(self, capsys, tmp_path):
        def mutate(events):
            index = next(i for i, ev in enumerate(events) if ev["type"] == "fault")
            events[index]["trigger"] = str(events[index]["trigger"])
            return index

        code, out, err, index = self._run_mutated(capsys, tmp_path, mutate)
        assert code == 2
        assert f"event {index}" in err and out == ""

    def test_unknown_flag_exits_2(self, capsys):
        code = dispatch(["run", "--scenario", str(SCENARIOS / "restaurant_41.json"), "--warp"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("given", [["--endpoint", "http://llm.local"], ["--model", "demo"]])
    def test_remote_backend_without_endpoint_or_model_exits_2(self, capsys, monkeypatch, given):
        posts = []
        monkeypatch.setattr(llm, "urlopen", lambda *args, **kwargs: posts.append(args))
        code, out, err = run_cli(
            capsys, ["run", "--scenario", SCENARIOS / "restaurant_41.json", "--backend", "remote", *given])
        assert code == 2
        assert "the remote backend requires endpoint and model" in err and out == ""
        assert posts == []


class TestReplCommand:
    def test_session_matches_golden(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["repl", "--scenario", SCENARIOS / "restaurant_41.json", "--table", "table_0"],
            stdin_text="bring me a cola\nwhat do you have?\n\n:quit\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == (GOLDEN / "repl_session.txt").read_text()

    def test_eof_ends_session(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["repl", "--scenario", SCENARIOS / "restaurant_41.json"],
            stdin_text="",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.startswith("serving table: table_0")

    @pytest.mark.parametrize("table,named", [("sofa_9", "'sofa_9' is not a tracked table"),
                                             ("table_5", "'table_5' is the kitchen table")],
                             ids=["unknown", "kitchen"])
    def test_table_that_cannot_call_exits_2(self, capsys, monkeypatch, table, named):
        code, out, err = run_cli(
            capsys,
            ["repl", "--scenario", SCENARIOS / "restaurant_41.json", "--table", table],
            stdin_text="bring me a cola\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert err == f"error: --table: {named}\n" and out == ""


class TestMetricsDiff:
    def test_identical_files(self, capsys, tmp_path):
        doc = {"orders_total": 41, "served_correct": 37}
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["metrics", "diff", a, b])
        assert code == 0
        assert "identical" in out

    def test_differing_files_exit_1(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"served_correct": 37}))
        b.write_text(json.dumps({"served_correct": 36}))
        code, out, _ = run_cli(capsys, ["metrics", "diff", a, b])
        assert code == 1
        assert "served_correct: 37 != 36" in out

    @pytest.mark.parametrize("text", ["[1]", '"abc"'])
    def test_non_object_file_exits_2_naming_it(self, capsys, tmp_path, text):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"served_correct": 37}))
        b.write_text(text)
        code, out, err = run_cli(capsys, ["metrics", "diff", a, b])
        assert code == 2
        assert str(b) in err and out == ""
        assert "Traceback" not in err


BAD_OPTION_VALUES = {
    "run with a negative seed": ["run", "--scenario", SCENARIOS / "restaurant_41.json", "--seed", "-1"],
    "repl with a negative seed": ["repl", "--scenario", SCENARIOS / "restaurant_41.json", "--seed", "-1"],
    "place with a negative seed": ["place", "--cloud", SCENARIOS / "tabletop_cloud.txt", "--radius", "0.05",
                                   "--seed", "-1"],
    "place with a zero radius": ["place", "--cloud", SCENARIOS / "tabletop_cloud.txt", "--radius", "0"],
    "place with a NaN radius": ["place", "--cloud", SCENARIOS / "tabletop_cloud.txt", "--radius", "nan"],
}


@pytest.mark.parametrize("case", sorted(BAD_OPTION_VALUES))
def test_bad_option_value_exits_2_naming_the_option(capsys, monkeypatch, case):
    """A seed below 0 or a radius that is not a finite number above 0 is
    refused while the arguments are parsed, before any work starts."""
    argv = BAD_OPTION_VALUES[case]
    code, out, err = run_cli(capsys, argv, stdin_text=":quit\n", monkeypatch=monkeypatch)
    assert code == 2
    assert f"argument {argv[-2]}: " in err and repr(argv[-1]) in err
    assert out == ""
    assert "Traceback" not in err


def _first(events, kind):
    return next(i for i, ev in enumerate(events) if ev["type"] == kind)


def _box(field, value):
    def mutate(doc):
        doc["events"][0]["boxes"][1][field] = value
        return "event 0"
    return mutate


def _box_extent(center, dims, named):
    # the box's x and z and its width and height; the others stay restaurant_41's
    def mutate(doc):
        box = doc["events"][0]["boxes"][1]
        box["center"] = [center[0], box["center"][1], center[2]]
        box["dims"] = [dims[0], box["dims"][1], dims[2]]
        return f"event 0: ValueError: {named}"
    return mutate


def _event(kind, field, value):
    def mutate(doc):
        i = _first(doc["events"], kind)
        doc["events"][i][field] = value
        return f"event {i}"
    return mutate


def _second_frame(kind, frame):
    def mutate(doc):
        i = [j for j, ev in enumerate(doc["events"]) if ev["type"] == kind][1]
        doc["events"][i]["frame"] = frame
        return f"event {i}"
    return mutate


def _world_at(*path, value):
    def mutate(doc):
        node = doc["world"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return f"world.{path[0]}"
    return mutate


def _nav_radius(radius):
    def mutate(doc):
        doc["world"]["nav_params"].update(robot_radius=radius, window_half_width=radius)
        return "world.nav_params: ValueError: robot_radius"
    return mutate


def _robot_start(doc):
    doc["world"]["robot_start"] = [60.0, 4.0, 0.0]  # the grid is 12 m wide
    return "world.robot_start"


def _grid_header(field, value):
    # the shipped grid with header field `field` (4 resolution, 5 and 6 origin) set to `value`
    def mutate(lines):
        head = lines[0].split(" ")
        head[field] = value
        lines[0] = " ".join(head)
        return "line 1"
    return mutate


def _coarse_grid(lines):
    # a 4 x 4 map of 1e300 m cells, where a goal's distance term overflows int64:
    # `nav-goal` once warned twice and then found an arbitrary "no admissible cell"
    lines[:] = ["gridmap v1 4 4 1e300 0.0 0.0", *["...."] * 4]
    return "alpha 10.0"


def _far_grid(lines):
    # origin y = 1.7e308, where one ulp is about 2e292 m, so no two cell centres
    # are distinct floats: `run` and `nav-goal` once blamed `alpha` for it
    _grid_header(6, "1.7e308")(lines)
    return "line 1: resolution 0.1 is not above 16 ulps of the map's largest coordinate"


def _run_over_grid(grid):
    # restaurant_41 over the grid at `grid`
    doc = json.loads((SCENARIOS / "restaurant_41.json").read_text())
    doc["world"]["grid_file"] = grid.name
    scenario = grid.with_name("scenario.json")
    scenario.write_text(json.dumps(doc))
    return ["run", "--scenario", scenario]


# a command that reads a grid -> its command line over the grid at a path
GRID_READERS = {
    "run over grid": _run_over_grid,
    "build over grid": lambda grid: ["map", "build", "--grid", grid, "--detections", SCENARIOS / "six_tables.json"],
    "nav-goal over grid": lambda grid: ["nav-goal", "--map", grid, "--layers", GOLDEN / "six_tables_layers.json",
                                        "--furniture", "table_0", "--robot", "6,4,0"],
}


def _unknown_kitchen(doc):
    # parses; the run stops at the first call, which has no kitchen to fetch from
    doc["world"]["kitchen_table"] = "sofa_9"
    return f"event {_first(doc['events'], 'call')}: world.kitchen_table 'sofa_9'"


def _zero_area_zone(doc):
    zone = doc["world"]["zones"][0]
    zone["p2"] = [zone["p1"][0], zone["p2"][1]]
    return f"world.zones: ValueError: zone {zone['name']!r} has zero area"


def _layer_dims(doc):
    doc["furniture"][1]["dims"]["w"] = 0.0
    return "'table_1'"


def _layer_extent(doc):
    doc["furniture"][1]["pose"]["x"] = 1.7e308
    doc["furniture"][1]["dims"]["w"] = 1.7e308
    return "'table_1'"


def _layer_height(doc):
    # its centre base_z + h/2 is finite, its top is not
    doc["furniture"][1]["base_z"] = 1e307
    doc["furniture"][1]["dims"]["h"] = 1.7e308
    return "'table_1'"


def _layer_duplicate_id(doc):
    doc["furniture"][1]["id"] = "table_0"
    return "id 'table_0' already used"


def _layer_kitchen(doc):
    doc["kitchen"] = "sofa_9"
    return "kitchen 'sofa_9'"


def _layer_zones(doc):
    # well formed, yet unknown: zones are no layer of the map
    doc["zones"] = [{"name": "bar", "p1": [1.0, 1.0], "p2": [2.0, 2.0]}]
    return "zones: unknown key"


def _layer_humans(*entries):
    # `map build` writes no human section, so the key is refused before any
    # entry in it, well formed or not, is read
    def mutate(doc):
        doc["humans"] = list(entries)
        return "humans: unknown key"
    return mutate


def _misspelt_stock_item(doc):
    doc["world"]["stock"]["colaa"] = doc["world"]["stock"].pop("cola")
    return "world.stock: ValueError: 'colaa' is not a menu item"


def _kitchen_call(doc):
    i = _first(doc["events"], "call")
    kitchen = doc["events"][i]["table"] = doc["world"]["kitchen_table"]
    return f"event {i}: call table {kitchen!r} is the kitchen table"


def _layer_furniture(*path, value, named="'table_1'"):
    def mutate(doc):
        node = doc["furniture"][1]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return named
    return mutate


def _log_repeated_frame(doc):
    doc[1]["frame"] = doc[0]["frame"]
    return "entry 1"


def _log_empty_entry(frame):
    # an entry with no boxes after the log's last one, which has frame 1
    def mutate(doc):
        doc.append({"frame": frame, "boxes": []})
        return f"entry {len(doc) - 1}"
    return mutate


def _non_object_event(doc):
    doc["events"] = ["t"]
    return "event 0"


def _misspelt_world_key(doc):
    doc["world"]["stok"] = doc["world"].pop("stock")
    return "world.stok: unknown key"


def _misspelt_fault_mode(doc):
    # the first "wrong_item" fault, which a dropped mode would turn into "fail"
    i = next(j for j, ev in enumerate(doc["events"]) if ev.get("mode") == "wrong_item")
    doc["events"][i]["mdoe"] = doc["events"][i].pop("mode")
    return f"event {i}: ValueError: unknown key 'mdoe'"


def _unknown_key(*path, key, named):
    # an extra `key` in the object at `path` of the input document
    def mutate(doc):
        node = doc
        for step in path:
            node = node[step]
        node[key] = "x"
        return named
    return mutate


def _log_box(field, value):
    # the second box of the detection log's second entry
    def mutate(doc):
        doc[1]["boxes"][1][field] = value
        return "entry 1"
    return mutate


MALFORMED_INPUTS = {
    "box center with two values": ("run", _box("center", [5.0, 2.0])),
    "box center with NaN": ("run", _box("center", [float("nan"), 2.0, 0.36])),
    "box dims of zero": ("run", _box("dims", [1.2, 0.0, 0.72])),
    "string box yaw": ("run", _box("yaw", "north")),
    "box whose height interval overflows": ("run", _box_extent((5.0, 2.0, -1.7e308), (1.2, 0.8, 1.7e308),
                                                               "height interval must be finite")),
    "box whose footprint overflows": ("run", _box_extent((1.7e308, 2.0, 0.36), (1.7e308, 0.8, 0.72),
                                                         "footprint corners must be finite")),
    "string detection frame": ("run", _event("detections", "frame", "0")),
    "unknown human action": ("run", _event("human", "action", "dancing")),
    "human position with two values": ("run", _event("human", "position", [2.8, 2.6])),
    "integer utterance text": ("run", _event("utterance", "text", 42)),
    "robot start outside the grid": ("run", _robot_start),
    # its cell's quotient is inf, which the floor would not take
    "robot start at the end of the float range": ("run", _world_at("robot_start", value=[1e308, 4.0, 0.0])),
    # once a run that abandoned every call
    "grid of infinite resolution": ("run over grid", _grid_header(4, "inf")),
    "grid of NaN resolution": ("run over grid", _grid_header(4, "nan")),
    "grid of NaN origin": ("run over grid", _grid_header(5, "nan")),
    "grid of infinite origin": ("run over grid", _grid_header(6, "inf")),
    "grid whose far corner overflows": ("run over grid", _grid_header(4, "1e307")),
    "nav-goal grid of NaN resolution": ("nav-goal over grid", _grid_header(4, "nan")),
    "nav-goal grid of infinite origin": ("nav-goal over grid", _grid_header(5, "-inf")),
    "nav-goal grid whose far corner overflows": ("nav-goal over grid", _grid_header(4, "3e306")),
    "nav-goal grid too coarse for the goal costs": ("nav-goal over grid", _coarse_grid),
    "grid too far out for distinct cell centres": ("run over grid", _far_grid),
    "nav-goal grid too far out for distinct cell centres": ("nav-goal over grid", _far_grid),
    "map build grid too far out for distinct cell centres": ("build over grid", _far_grid),
    "map build grid of infinite resolution": ("build over grid", _grid_header(4, "inf")),
    "map build grid of NaN origin": ("build over grid", _grid_header(6, "nan")),
    "repeated detection frame": ("run", _second_frame("detections", 0)),
    "human frame older than the previous one": ("run", _second_frame("human", 1)),
    "list call table": ("run", _event("call", "table", ["table_0"])),
    "list utterance table": ("run", _event("utterance", "table", ["table_0"])),
    "unknown fault skill": ("run", _event("fault", "skill", "fly")),
    # restaurant_41's first fault is a wrong_item on detect, the one skill that mode applies to
    "wrong_item fault on grasp": ("run", _event("fault", "skill", "grasp")),
    "call to an untracked table": ("run", _event("call", "table", "table_99")),
    "call from the kitchen table": ("run", _kitchen_call),
    "non-numeric zone corner": ("run", _world_at("zones", 0, "p1", value=["a", 1])),
    "zero-area zone": ("run", _zero_area_zone),
    "string stock count": ("run", _world_at("stock", "cola", value="x")),
    "negative stock count": ("run", _world_at("stock", "cola", value=-3)),
    "stock item not on the menu": ("run", _misspelt_stock_item),
    "list stock": ("run", _world_at("stock", value=[["cola", 3]])),
    "integer menu name": ("run", _world_at("menu", 0, "name", value=7)),
    "integer menu description": ("run", _world_at("menu", 0, "description", value=5)),
    "null menu description": ("run", _world_at("menu", 0, "description", value=None)),
    "blank menu name": ("run", _world_at("menu", 0, "name", value=" ")),
    "comma in menu name": ("run", _world_at("menu", 0, "name", value="fish, chips")),
    "line break in menu name": ("run", _world_at("menu", 0, "name", value="fish\nchips")),
    "long menu name with a comma": ("run", _world_at("menu", 0, "name", value="fish, " + "chips " * 100)),
    "robot start on a wall": ("run", _world_at("robot_start", value=[0.02, 0.02])),
    "robot start within robot_radius of a wall": ("run", _world_at("robot_start", value=[0.15, 0.15])),
    "single-value robot start": ("run", _world_at("robot_start", value=[6.0])),
    "NaN robot radius": ("run", _world_at("nav_params", "robot_radius", value=float("nan"))),
    "boolean clearance": ("run", _world_at("nav_params", "clearance", value=True)),
    # int64 window sums would wrap to a negative cost, or the cast from float be invalid
    "nav_params alpha whose goal cost overflows": ("run", _world_at("nav_params", "alpha", value=1e17)),
    "nav_params alpha far past the int64 range": ("run", _world_at("nav_params", "alpha", value=1e300)),
    # the 12 x 8 m map cannot hold it, and its inflation disc would not fit in memory
    "nav_params robot_radius wider than the map": ("run", _nav_radius(300.0)),
    "fractional RANSAC iterations": ("run", _world_at("ransac", value={"iterations": 2.5})),
    "list kitchen table": ("run", _world_at("kitchen_table", value=["table_5"])),
    "untracked kitchen table": ("run", _unknown_kitchen),
    "NaN RANSAC inlier_eps": ("run", _world_at("ransac", value={"inlier_eps": float("nan")})),
    "RANSAC seed": ("run", _world_at("ransac", value={"seed": 12345})),
    "integer human attributes": ("run", _event("human", "attributes", 5)),
    "long non-string human attributes": ("run", _event("human", "attributes",
                                                       {"note": 1, **{f"k{n}": "x" * 50 for n in range(20)}})),
    "list box class": ("run", _box("class", ["table"])),
    "integer human name": ("run", _event("human", "name", 7)),
    "non-object event": ("run", _non_object_event),
    "empty menu": ("run", _world_at("menu", value=[])),
    "misspelt world key": ("run", _misspelt_world_key),
    "misspelt fault mode key": ("run", _misspelt_fault_mode),
    "unknown box key": ("run", _box("score", 0.9)),
    "integer too large for a float in an event time": ("run", _event("call", "t", 10**400)),
    "integer too large for a float in a box center": ("run", _box("center", [10**400, 2.0, 0.36])),
    "integer too large for a float in robot_start": ("run", _world_at("robot_start", value=[10**400, 4.0, 0.0])),
    "integer too large for a float in nav_params.alpha": ("run", _world_at("nav_params", "alpha", value=10**400)),
    "log unknown box key": ("build", _log_box("score", 0.9)),
    "log integer too large for a float in box dims": ("build", _log_box("dims", [10**400, 0.8, 0.72])),
    "log box center with NaN": ("build", _log_box("center", [float("nan"), 2.0, 0.36])),
    "log box center with two values": ("build", _log_box("center", [5.0, 2.0])),
    "log list box class": ("build", _log_box("class", ["table"])),
    "log repeated frame": ("build", _log_repeated_frame),
    "log older frame with no boxes": ("build", _log_empty_entry(0)),
    "log string frame with no boxes": ("build", _log_empty_entry("abc")),
    "log negative frame with no boxes": ("build", _log_empty_entry(-7)),
    "layer NaN pose x": ("layers", _layer_furniture("pose", "x", value=float("nan"))),
    "layer integer too large for a float in pose x": ("layers", _layer_furniture("pose", "x", value=10**400)),
    "layer integer too large for a float in pose theta": ("layers", _layer_furniture("pose", "theta", value=10**400)),
    "layer NaN dims w": ("layers", _layer_furniture("dims", "w", value=float("nan"))),
    "layer footprint that overflows": ("layers", _layer_extent),
    "layer height interval that overflows": ("layers", _layer_height),
    "layer string base_z": ("layers", _layer_furniture("base_z", value="0.0")),
    "layer boolean last_seen": ("layers", _layer_furniture("last_seen", value=True)),
    "layer negative last_seen": ("layers", _layer_furniture("last_seen", value=-1)),
    "layer string dims h": ("layers", _layer_furniture("dims", "h", value="0.72")),
    "layer integer furniture id": ("layers", _layer_furniture("id", value=7,
                                                             named="id must be a non-empty string, got 7")),
    "layer furniture dims of zero": ("layers", _layer_dims),
    "layer duplicate furniture id": ("layers", _layer_duplicate_id),
    "layer kitchen not in furniture": ("layers", _layer_kitchen),
    "layer zones key": ("layers", _layer_zones),
    "layer humans key": ("layers", _layer_humans({"id": "person_0", "name": None, "position": [1.0, 1.0, 0.0],
                                                  "action": "sitting", "attributes": {}, "last_seen": 0})),
    "layer NaN human position": ("layers", _layer_humans({"id": "person_0", "position": [float("nan"), 1.0, 0.0]})),
    "layer duplicate human id": ("layers", _layer_humans({"id": "person_0", "position": [1.0, 1.0, 0.0]},
                                                          {"id": "person_0", "position": [5.0, 5.0, 0.0]})),
    "layer unknown human action": ("layers", _layer_humans({"id": "person_0", "position": [1.0, 1.0, 0.0],
                                                            "action": "dancing"})),
    "layer unknown human key": ("layers", _layer_humans({"id": "person_0", "position": [1.0, 1.0, 0.0],
                                                         "mood": "x"})),
    "unknown top-level key": ("run", _unknown_key(key="description", named="description: unknown key")),
    "unknown zone key": ("run", _unknown_key("world", "zones", 0, key="p3",
                                             named="world.zones: ValueError: unknown key 'p3'")),
    "unknown menu key": ("run", _unknown_key("world", "menu", 2, key="price",
                                             named="world.menu: ValueError: unknown key 'price'")),
    "log unknown entry key": ("build", _unknown_key(1, key="source",
                                                    named="entry 1: ValueError: unknown key 'source'")),
    "layer unknown furniture key": ("layers", _unknown_key("furniture", 1, key="color",
                                                           named="unknown key 'color'")),
    "layer unknown pose key": ("layers", _unknown_key("furniture", 1, "pose", key="z",
                                                      named="unknown key 'z'")),
    "layer unknown top-level key": ("layers", _unknown_key(key="comment", named="comment: unknown key")),
}


def write_malformed(case, path):
    """Write the `MALFORMED_INPUTS` row `case` to `path` (a grid row's grid,
    beside the scenario that reads it); returns the command line that reads it
    and the text its error must contain."""
    target, mutate = MALFORMED_INPUTS[case]
    if target in GRID_READERS:
        lines = (SCENARIOS / "restaurant.grid").read_text().splitlines()
        named = mutate(lines)
        path.write_text("\n".join(lines) + "\n")
        return GRID_READERS[target](path), named
    if target == "run":
        doc = json.loads((SCENARIOS / "restaurant_41.json").read_text())
        doc["world"]["grid_file"] = str(SCENARIOS / doc["world"]["grid_file"])
        argv = ["run", "--scenario", path]
    elif target == "build":
        doc = json.loads((SCENARIOS / "six_tables.json").read_text())
        argv = ["map", "build", "--grid", SCENARIOS / "restaurant.grid", "--detections", path]
    else:
        doc = json.loads((GOLDEN / "six_tables_layers.json").read_text())
        argv = ["map", "dump", "--layers", path]
    named = mutate(doc)
    path.write_text(json.dumps(doc))
    return argv, named


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_naming_its_source(capsys, tmp_path, case):
    """Each malformed scenario, detection log, layer dump or grid ends with exit 2,
    names the bad event or entry, and prints no traceback."""
    argv, named = write_malformed(case, tmp_path / "input.json")
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert named in err
    assert out == ""
    assert "Traceback" not in out + err


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_error_is_one_short_line(capsys, tmp_path, monkeypatch, case):
    """Echoed values are capped (`reprlib.repr`), so even a 401-digit integer
    gives an error line of at most 200 characters that still names its field.
    The input is read by a relative name, so the bound does not hang on the
    length of the test's temporary directory."""
    monkeypatch.chdir(tmp_path)
    argv, named = write_malformed(case, Path("input.json"))
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    line, = err.splitlines()
    assert len(line) <= 200 and named in line


@pytest.mark.parametrize("command", ["run", "map build"])
def test_table_seen_again_with_its_yaw_turned_by_pi_exits_0(capsys, tmp_path, command):
    """A rectangle's yaw is ambiguous by pi, so a detector may report a table
    seen again that way; here an edge of its new footprint lies along an edge
    of the old one within rounding, which once divided by zero in the clip."""
    doc = json.loads((SCENARIOS / "restaurant_41.json").read_text())
    doc["world"]["grid_file"] = str(SCENARIOS / doc["world"]["grid_file"])
    frames = [ev for ev in doc["events"] if ev["type"] == "detections"]
    for ev, yaw in zip(frames, (-2.4791993075071974, 0.6623933460825957)):
        ev["boxes"][0].update(center=[2.0, 2.0, 0.36], yaw=yaw)  # table_0, 1.2 x 0.8 x 0.72 m
    path = tmp_path / "input.json"
    if command == "run":
        path.write_text(json.dumps(doc))
        argv = ["run", "--scenario", path]
    else:
        path.write_text(json.dumps([{"frame": ev["frame"], "boxes": ev["boxes"]} for ev in frames]))
        argv = ["map", "build", "--grid", SCENARIOS / "restaurant.grid", "--detections", path]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    if command == "run":
        assert "orders_total" in out
    else:
        assert [e["id"] for e in json.loads(out)["furniture"]] == [f"table_{k}" for k in range(len(frames[0]["boxes"]))]


def test_a_table_at_the_end_of_the_float_range_abandons_its_calls(capsys, tmp_path):
    """table_4 is detected at x = 1e308 in both frames: its goal window's
    quotient is inf, so each of its calls is abandoned, and the rest are served."""
    doc = json.loads((SCENARIOS / "restaurant_41.json").read_text())
    doc["world"]["grid_file"] = str(SCENARIOS / doc["world"]["grid_file"])
    for ev in doc["events"]:
        if ev["type"] == "detections":
            ev["boxes"][4]["center"][0] = 1e308
    path, log = tmp_path / "input.json", tmp_path / "run.log"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["run", "--scenario", path, "--log", log])
    assert code == 0, err
    abandoned = [json.loads(line) for line in log.read_text().splitlines() if "call_abandoned" in line]
    calls = sum(1 for ev in doc["events"] if ev["type"] == "call" and ev["table"] == "table_4")
    assert calls == len(abandoned) == 9
    assert all(rec["table"] == "table_4" and rec["reason"] == "candidate window misses the map"
               for rec in abandoned)
    assert out.splitlines()[-1] == "accuracy         29/33 (0.8788)"


@pytest.mark.parametrize("command,kind", [
    (["run", "--scenario"], "not valid JSON"),
    (["map", "build", "--grid", SCENARIOS / "restaurant.grid", "--detections"], "bad detection log"),
    (["map", "dump", "--layers"], "bad layer dump"),
    (["nav-goal", "--map", SCENARIOS / "restaurant.grid", "--furniture", "table_0", "--robot", "6,4,0",
      "--layers"], "bad layer dump"),
    (["metrics", "diff", SCENARIOS / "restaurant_41.json"], "bad metrics file"),
], ids=["run", "map build", "map dump", "nav-goal", "metrics diff"])
def test_integer_of_too_many_digits_exits_2(capsys, tmp_path, command, kind):
    """JSON integers are unbounded, yet `int()` refuses more than
    `sys.get_int_max_str_digits()` digits with a ValueError that is no
    JSONDecodeError: every JSON reader must still exit 2 naming the file."""
    path = tmp_path / "input.json"
    path.write_text('{"t": 1' + "0" * 5000 + "}")
    code, out, err = run_cli(capsys, [*command, path])
    assert code == 2
    assert kind in err and str(path) in err and out == ""


@pytest.mark.parametrize("argv,kind", [
    (["run", "--scenario", SCENARIOS / "restaurant_41.json", "--log"], "log"),
    (["run", "--scenario", SCENARIOS / "restaurant_41.json", "--metrics-out"], "metrics file"),
    (["map", "build", "--grid", SCENARIOS / "restaurant.grid",
      "--detections", SCENARIOS / "six_tables.json", "--out"], "layer dump"),
], ids=["run --log", "run --metrics-out", "map build --out"])
def test_unwritable_output_exits_2_naming_it(capsys, tmp_path, argv, kind):
    target = tmp_path / "no_such_dir" / "out.txt"
    code, out, err = run_cli(capsys, [*argv, target])
    assert code == 2
    assert err.startswith(f"error: cannot write {kind} {target}: ")
    assert not target.parent.exists()


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "waiterbot", "run", "--scenario",
         str(SCENARIOS / "restaurant_41.json")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert result.returncode == 0
    assert "accuracy         37/41" in result.stdout
