"""Tests for the benchmark's own logic.  Run: python3 -m pytest bench"""

import json
from pathlib import Path

import pytest

import gen
import pace
import run
import spans

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    def files(seed, sub):
        path = gen.write(gen.GENERATORS[workload](seed), tmp_path / sub)
        return {p.name: p.read_bytes() for p in path.parent.iterdir()}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
@pytest.mark.parametrize("seed", range(1, 6))
def test_generator_fixes_scripted_aggregates_across_seeds(workload, seed):
    assert gen.GENERATORS[workload](seed).expect == gen.GENERATORS[workload](0).expect


def _span(i, parent, start, end, name="x"):
    return spans.Span(i, parent, None, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),   # overlaps span 2: counted once
        _span(4, 1, 8.0, 12.0),  # runs past its parent: clipped at 10
        _span(5, 3, 2.5, 4.5),   # grandchild: only its own parent loses time
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0 - 2.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(2.0)


def test_summarize_sums_self_time_and_counters_per_name():
    tree = [_span(1, None, 0.0, 4.0, "a"), _span(2, 1, 1.0, 2.0, "b"), _span(3, 1, 2.0, 3.5, "b")]
    tree[1].counters = {"steps": 3}
    tree[2].counters = {"steps": 4}
    stats = spans.summarize(tree)
    assert stats["a"].calls == 1 and stats["a"].self_s == pytest.approx(1.5)
    assert stats["b"].calls == 2 and stats["b"].self_s == pytest.approx(2.5)
    assert stats["b"].counters == {"steps": 7}


def test_tail_picks_the_highest_percentile_leaving_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]  # 1..100, unsorted
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail([float(v) for v in range(1, 1000)]) == (90.0, 900.0)  # p99 leaves 9 above
    assert run.tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail([float(v) for v in range(1, 21)]) == (50.0, 10.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 19)


def _pacer(starts, durations):
    pacer = pace.Pacer()
    pacer.starts, pacer.durations = list(starts), list(durations)
    return pacer


def test_pacer_rescales_by_the_median_of_nearby_probes():
    ref = pace.REFERENCE_S
    # host twice as slow as the reference for the first probes, at reference speed later
    pacer = _pacer(range(0, 20, 2), [2 * ref] * 5 + [ref] * 5)
    assert pacer.scale(0.5, 1.5) == pytest.approx(0.5)   # probes 0..3: all slow
    assert pacer.scale(16.5, 17.5) == pytest.approx(1.0)  # probes 6..9: all at reference
    # one outlier probe among the nearby ones does not move the median
    pacer.durations[2] = 50 * ref
    assert pacer.scale(0.5, 1.5) == pytest.approx(0.5)


def test_pacer_leaves_probe_time_out_of_a_span():
    ref = pace.REFERENCE_S
    pacer = _pacer([1.0, 3.0], [ref, ref])
    assert pacer.scale_span(0.0, 5.0) == pytest.approx(5.0 - 2 * ref)


def test_benchmark_json_names_what_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == set(run.E2E_UNITS)
    layer_names = set(spans.layer_metrics([{}], [{}], [])) | {"trace.slowdown"}
    assert {m["name"] for m in doc["per_layer"]} == layer_names


def test_hooks_wrap_restore_and_report_missing_targets():
    sim_mod = run.import_program()
    original = sim_mod.plan_path
    hooks = (spans.Hook("sim.plan_path", "sim", "plan_path"),
             spans.Hook("sim.gone", "sim", "no_such_function"),
             spans.Hook("nomodule.f", "no_such_module", "f"))
    installed = spans.install(spans.Recorder(), hooks)
    try:
        assert sim_mod.plan_path is not original
        assert installed.missing == ["sim.gone", "nomodule.f"]
    finally:
        installed.uninstall()
    assert sim_mod.plan_path is original


def test_restaurant_41_replay_passes_its_check(tmp_path):
    sim_mod = run.import_program()
    workload = run.WORKLOADS["restaurant_41"]
    path, expect = workload.prepare(0, tmp_path)
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        result = run.replay(sim_mod, sim_mod.load_scenario(path), workload, recorder)
    finally:
        installed.uninstall()
    assert installed.missing == []
    assert run.check(result, expect) == []
    assert len(result.latencies) == 44 and all(x > 0 for x in result.latencies)
    calls = {s.call for s in recorder.spans if s.name == "tasks.Pipeline.handle"}
    assert calls == set(range(1, 45))
    run_span = next(s for s in recorder.spans if s.name == "sim.run")
    total_self = sum(spans.self_times(recorder.spans).values())
    assert total_self == pytest.approx(run_span.end - run_span.start, rel=0.01)
