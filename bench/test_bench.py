"""Self-test of the benchmark: metric coverage, the digest gate, exact counts.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import digest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def set_up_runner(name):
    w = run.WORKLOADS[name]
    m, scenario = run.set_up(w)[:2]
    ref = digest.load_reference()["workloads"][name]
    return run.Runner(w, m, scenario, run.DEFAULT_SEED, ref)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    result = run.run_benchmark(workload, run.DEFAULT_SEED, 0.01, bool(trace))
    want = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["notes"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for mv in result["metrics"].values():
        assert isinstance(mv["value"], (int, float))


def test_altered_trial_result_fails_digest():
    runner = set_up_runner("compare-t11")
    try:
        results, reports, _ = runner.compare(0)
        assert runner.check(0, results, reports) == set()
        scored = results[3]
        probe = scored.probes[0]
        nudged = dataclasses.replace(probe, created_at_ms=probe.created_at_ms + 1e-9)
        results[3] = dataclasses.replace(scored, probes=[nudged] + scored.probes[1:])
        assert runner.check(0, results, reports) == {1}
        assert any("digest mismatch" in n for n in runner.notes)
    finally:
        runner.close()


def test_altered_report_fails_every_pair():
    runner = set_up_runner("compare-r16")
    try:
        results, reports, _ = runner.compare(0)
        base, prop = reports
        reports = (dataclasses.replace(base, n_trials=base.n_trials + 1), prop)
        assert runner.check(0, results, reports) == set(range(runner.w.chunk))
    finally:
        runner.close()


def test_broken_conservation_fails_its_pair():
    runner = set_up_runner("compare-t11")
    runner.reference = None
    results, reports, _ = runner.compare(1)
    results[4] = dataclasses.replace(results[4], total_sent=results[4].total_sent + 1)
    assert runner.check(1, results, reports) == {2}


def test_traced_counts_training11_scored_seed0():
    w = run.WORKLOADS["compare-t11"]
    m, scenario = run.set_up(w)[:2]
    tracer, heap = spans.Tracer(), spans.CountingHeapq()
    with spans.patched(spans.layer_patches(tracer, heap, m)):
        m.cli.run_trial(scenario, "scored", 0)
    got = spans.layer_metrics(tracer, heap, m.engine)
    assert got["engine.events.conn"][0] == 9839
    assert got["engine.events.gen"][0] == 2455
    assert got["engine.events.status"][0] == 2
    assert got["engine.events.joinme"][0] == 1
    assert got["engine.events.end"][0] == 1
    assert got["engine.events"][0] == 9839 + 2455 + 2 + 1 + 1
    # the patches are gone again
    assert m.cli.run_trial is m.engine.run_trial
    assert m.engine.heapq is spans.heapq


def test_traced_counts_repeat_exactly():
    def counts():
        w = run.WORKLOADS["compare-r16"]
        m = run.set_up(w)[0]
        tracer, heap = spans.Tracer(), spans.CountingHeapq()
        with spans.patched(spans.layer_patches(tracer, heap, m)):
            m.cli.cmd_compare(random_nodes=16, trials=10, seed_base=5)
        return {k: v for k, (v, unit) in spans.layer_metrics(tracer, heap, m.engine).items()
                if unit != "s"}
    assert counts() == counts()


def test_tail_is_p90_by_nearest_rank():
    assert run.tail([float(i) for i in range(100, 0, -1)]) == (90.0, 10)
    assert run.tail([float(i) for i in range(1, 106)]) == (95.0, 10)
