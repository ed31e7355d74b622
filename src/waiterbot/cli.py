"""Command-line surface.

Subcommands: `map build`, `map dump`, `nav-goal`, `place`, `run`, `repl`,
`metrics diff`.  Exit codes: 0 success, 1 domain errors (no goal, no space,
unreachable, metrics mismatch), 2 usage, input-parse or output-write errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .furniture import FrameOrderError, FurnitureError, FurnitureLayer, FurnitureNotFound
from .formats import LayerFormatError, ScenarioError, detection_entry, dump_layers, load_layers, load_scenario
from .geometry import Pose2D, finite_tuple
from .grid import GridFormatError, load_grid
from .llm import RemoteBackend
from .navgoal import NoGoalError, check_map
from .placement import NoSpaceError, PlacementError, find_placement, load_cloud, ransac_plane
from .planner import PathError
from .sim import MapView, RunConfig, Simulation
from .tasks import render_trace

USAGE_EXIT = 2
DOMAIN_EXIT = 1


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str, kind: str, parse, error: type[Exception]):
    """`parse` of the text at `path`; a read or parse failure exits 2 naming the file."""
    try:
        return parse(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {kind} {path}: {e}", USAGE_EXIT) from None
    except error as e:
        raise CliError(f"bad {kind} {path}: {e}", USAGE_EXIT) from None


def _write(path: str, kind: str, text: str) -> None:
    """Write `text` to `path`; a write failure exits 2 naming the file."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CliError(f"cannot write {kind} {path}: {e}", USAGE_EXIT) from None


def cmd_map_build(args) -> int:
    _load(args.grid, "grid", load_grid, GridFormatError)  # validates geometry early
    log = _load(args.detections, "detection log", json.loads, ValueError)
    if not isinstance(log, list):
        raise CliError(f"bad detection log {args.detections}: top level must be a list", USAGE_EXIT)
    layer = FurnitureLayer()
    for i, entry in enumerate(log):
        try:
            record = detection_entry(entry)
            layer.track_frame(record.boxes, record.frame)
        except (KeyError, TypeError, ValueError, FrameOrderError) as e:
            raise CliError(f"bad detection log {args.detections}: entry {i}: {type(e).__name__}: {e}",
                           USAGE_EXIT) from None
    if args.kitchen is not None:
        try:
            layer.set_kitchen(args.kitchen)
        except FurnitureNotFound:
            raise CliError(f"kitchen id {args.kitchen!r} not in the layer", DOMAIN_EXIT) from None
    text = dump_layers(layer)
    if args.out:
        _write(args.out, "layer dump", text)
        print(f"wrote {args.out} ({len(layer.instances())} instances)")
    else:
        print(text, end="")
    return 0


def cmd_map_dump(args) -> int:
    print(dump_layers(_load(args.layers, "layer dump", load_layers, LayerFormatError)), end="")
    return 0


def _parse_pose(text: str) -> Pose2D:
    try:
        return Pose2D(*finite_tuple([float(p) for p in text.split(",")], 3, "pose"))
    except ValueError:
        raise CliError(f"pose must be three finite numbers x,y,theta — got {text!r}", USAGE_EXIT) from None


def cmd_nav_goal(args) -> int:
    grid = _load(args.map, "grid", load_grid, GridFormatError)
    layer = _load(args.layers, "layer dump", load_layers, LayerFormatError)
    robot = _parse_pose(args.robot)
    try:
        target = layer.get(args.furniture)
    except FurnitureNotFound:
        raise CliError(f"unknown furniture id {args.furniture!r}", DOMAIN_EXIT) from None
    try:
        check_map(grid)  # before any disc or window is built from it
    except ValueError as e:
        raise CliError(f"bad grid {args.map}: {e}", USAGE_EXIT) from None
    try:
        goal = MapView(grid, layer).goal(target, robot)
    except NoGoalError as e:
        raise CliError(f"no goal: {e}", DOMAIN_EXIT) from None
    print(f"cell: ({goal.cell.col}, {goal.cell.row})")
    print(f"pose: x={goal.pose.x:.3f} y={goal.pose.y:.3f} theta={goal.pose.theta:.3f}")
    print(f"cost: {goal.cost}")
    return 0


def cmd_place(args) -> int:
    cloud = _load(args.cloud, "cloud", load_cloud, PlacementError)
    try:
        plane, inliers = ransac_plane(cloud, args.seed, refits={})
        spot = find_placement(cloud, plane, inliers, object_radius=args.radius, surfaces={})
    except NoSpaceError as e:
        raise CliError(f"no space: {e}", DOMAIN_EXIT) from None
    except PlacementError as e:
        raise CliError(f"plane fit failed: {e}", DOMAIN_EXIT) from None
    n = plane.normal
    print(f"plane: n=({n[0]:.6f}, {n[1]:.6f}, {n[2]:.6f}) d={plane.d:.6f} inliers={len(inliers)}")
    print(f"placement: ({spot[0]:.4f}, {spot[1]:.4f}, {spot[2]:.4f})")
    return 0


def _backend_for(args, menu):
    if args.backend == "rules":
        return None  # Simulation builds the rule backend over its menu
    if not args.endpoint or not args.model:
        raise CliError("the remote backend requires endpoint and model", USAGE_EXIT)
    return RemoteBackend(args.endpoint, args.model, menu)


def _simulation(args) -> Simulation:
    scenario = load_scenario(args.scenario)  # a ScenarioError exits 2 through dispatch
    return Simulation(scenario, RunConfig(mode=args.mode, seed=args.seed),
                      backend=_backend_for(args, scenario.menu))


def cmd_run(args) -> int:
    metrics, log = _simulation(args).run()
    if args.log:
        _write(args.log, "log", "\n".join(log) + "\n")
    if args.metrics_out:
        _write(args.metrics_out, "metrics file", json.dumps(metrics.to_dict(), indent=2) + "\n")
    print(metrics.render())
    return 0


def cmd_repl(args) -> int:
    sim = _simulation(args)
    sim.warm_up()
    if args.table is not None:
        try:
            sim.check_caller(args.table)
        except ValueError as e:
            raise CliError(f"--table: {e}", USAGE_EXIT) from None
    tables = [i.id for i in sim.layer.instances() if i.id != sim.layer.kitchen_id]
    sim.caller = args.table or (tables[0] if tables else None)
    print(f"serving table: {sim.caller}  (:quit to exit)")
    while True:
        try:
            line = input("you> ")
        except EOFError:
            break
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            break
        parsed, response, outcome = sim.handle_utterance(line)
        print(f"robot> {response}")
        slots = ", ".join(f"{k}={parsed.slots[k]}" for k in sorted(parsed.slots))
        print(f"task: {parsed.name}({slots})")
        print(render_trace(outcome))
    return 0


def cmd_metrics_diff(args) -> int:
    docs = [_load(path, "metrics file", json.loads, ValueError) for path in (args.a, args.b)]
    for path, doc in zip((args.a, args.b), docs):
        if not isinstance(doc, dict):
            raise CliError(f"bad metrics file {path}: top level must be an object", USAGE_EXIT)
    keys = sorted(set(docs[0]) | set(docs[1]))
    same = True
    for key in keys:
        a, b = docs[0].get(key), docs[1].get(key)
        if a != b:
            same = False
            print(f"{key}: {a} != {b}")
    if same:
        print("metrics identical")
        return 0
    return DOMAIN_EXIT


def _checked(convert, ok, what: str):
    """An argparse type: `convert(text)` if `ok` holds for it, else a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")  # numpy seeds are >= 0
_radius = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number greater than 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="waiterbot",
                                     description="Layered-map waiter robot toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="build or dump the layered map")
    map_sub = p_map.add_subparsers(dest="map_command", required=True)
    p_build = map_sub.add_parser("build", help="track a detection log into a layer dump")
    p_build.add_argument("--grid", required=True)
    p_build.add_argument("--detections", required=True)
    p_build.add_argument("--kitchen", default=None)
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_map_build)
    p_dump = map_sub.add_parser("dump", help="print a layer dump document")
    p_dump.add_argument("--layers", required=True)
    p_dump.set_defaults(func=cmd_map_dump)

    p_goal = sub.add_parser("nav-goal", help="pick a navigation goal next to furniture")
    p_goal.add_argument("--map", required=True)
    p_goal.add_argument("--layers", required=True)
    p_goal.add_argument("--furniture", required=True)
    p_goal.add_argument("--robot", required=True, help="x,y,theta")
    p_goal.set_defaults(func=cmd_nav_goal)

    p_place = sub.add_parser("place", help="fit a surface and pick a placement point")
    p_place.add_argument("--cloud", required=True)
    p_place.add_argument("--radius", type=_radius, required=True)
    p_place.add_argument("--seed", type=_seed, default=0)
    p_place.set_defaults(func=cmd_place)

    p_run = sub.add_parser("run", help="replay a scenario and print metrics")
    p_run.add_argument("--log", default=None, help="write the event log to this file")
    p_run.add_argument("--metrics-out", default=None, help="write metrics JSON to this file")
    p_run.set_defaults(func=cmd_run)
    p_repl = sub.add_parser("repl", help="interactive utterances against a scenario world")
    p_repl.add_argument("--table", default=None)
    p_repl.set_defaults(func=cmd_repl)
    for p in (p_run, p_repl):  # the scenario, pipeline and backend options both share
        p.add_argument("--scenario", required=True)
        p.add_argument("--mode", choices=("parallel", "sequential"), default="parallel")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--backend", choices=("rules", "remote"), default="rules")
        p.add_argument("--endpoint", default="")
        p.add_argument("--model", default="")

    p_metrics = sub.add_parser("metrics", help="metrics file tools")
    metrics_sub = p_metrics.add_subparsers(dest="metrics_command", required=True)
    p_diff = metrics_sub.add_parser("diff", help="compare two metrics JSON files")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(func=cmd_metrics_diff)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (GridFormatError, LayerFormatError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except (NoGoalError, NoSpaceError, PathError, PlacementError, FurnitureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return DOMAIN_EXIT


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
