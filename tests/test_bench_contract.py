"""What the benchmark relies on in scatterjoin, checked in the fast suite.

bench/run.py traces layer entry points by module attribute (bench/spans.py)
and times trials through a stand-in for `cli.run_trial`; bench/digest.py
reads compare's trials as baseline/scored pairs in call order. A rename or
a reordering breaks only the slow benchmark self-test otherwise.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402
import spans  # noqa: E402

from scatterjoin.scenario import training11  # noqa: E402


def bench_modules() -> SimpleNamespace:
    return SimpleNamespace(**{n: importlib.import_module(f"scatterjoin.{n}")
                              for n in run.MODULES})


def test_every_traced_name_installs_and_restores():
    m = bench_modules()
    patches = spans.layer_patches(spans.Tracer(), spans.CountingHeapq(), m)
    before = [owner.__dict__[attr] for owner, attr, _ in patches]
    with spans.patched(patches):
        assert all(getattr(owner, attr) is new for owner, attr, new in patches)
    assert [owner.__dict__[attr] for owner, attr, _ in patches] == before


def test_compare_calls_run_trial_in_baseline_scored_pairs(monkeypatch):
    m = bench_modules()
    real, calls = m.cli.run_trial, []

    def recorded(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(m.cli, "run_trial", recorded)
    m.cli.cmd_compare(scenario=training11(), trials=2, seed_base=7)
    assert calls == [("baseline", 7), ("scored", 7), ("baseline", 8), ("scored", 8)]


def test_random_compare_draws_each_layout_before_its_pair(monkeypatch):
    # spans.py attributes a layout's span to the seed it was drawn for
    m = bench_modules()
    calls = []
    real_gen, real_run = m.cli.gen_random_scenario, m.cli.run_trial

    def recorded_gen(*args, **kwargs):
        calls.append(("gen", spans._trial_of_gen(args, kwargs)))
        return real_gen(*args, **kwargs)

    def recorded_run(*args, **kwargs):
        calls.append(args[1:])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(m.cli, "gen_random_scenario", recorded_gen)
    monkeypatch.setattr(m.cli, "run_trial", recorded_run)
    m.cli.cmd_compare(random_nodes=10, area_m=24.0, trials=2, seed_base=7)
    assert calls == [("gen", 7), ("baseline", 7), ("scored", 7),
                     ("gen", 8), ("baseline", 8), ("scored", 8)]


def test_compare_reduces_each_trial_once_to_a_row(monkeypatch):
    # a trial is reduced once, to its row; the reports read those rows
    m = bench_modules()
    counts, aggregated = {"trial_row": 0, "delay_stats": 0}, []
    real_row, real_agg, real_stats = m.cli.trial_row, m.cli.aggregate, m.metrics.delay_stats

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def recorded_aggregate(rows):
        aggregated.append(rows)
        return real_agg(rows)

    monkeypatch.setattr(m.cli, "trial_row", counted("trial_row", real_row))
    for owner in (m.cli, m.metrics):  # spans.py traces delay_stats under both names
        monkeypatch.setattr(owner, "delay_stats", counted("delay_stats", real_stats))
    monkeypatch.setattr(m.cli, "aggregate", recorded_aggregate)
    m.cli.cmd_compare(scenario=training11(), trials=2)
    assert counts == {"trial_row": 4, "delay_stats": 4}
    assert len(aggregated) == 2
    assert all(type(row) is dict for rows in aggregated for row in rows)


def counted_builds(monkeypatch, m) -> list:
    """The algo of every call through `engine.build_network`, which spans.py traces."""
    real, calls = m.engine.build_network, []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(m.engine, "build_network", counting)
    return calls


def test_build_trial_network_always_builds(monkeypatch):
    # kernels.py times build_trial_network as a real build, warm layout or not
    m = bench_modules()
    s = training11()
    for algo in m.engine.ALGOS:
        m.engine.run_trial(s, algo, 0)  # warms s.layout
    calls = counted_builds(monkeypatch, m)
    for algo in m.engine.ALGOS * 2:
        m.engine.build_trial_network(s, algo)
    assert calls == list(m.engine.ALGOS * 2)


def test_a_warm_unshadowed_trial_replays_and_a_shadowed_trial_builds(monkeypatch):
    m = bench_modules()
    s = training11()
    m.engine.run_trial(s, "scored", 0)  # warms s.layout
    calls = counted_builds(monkeypatch, m)
    m.engine.run_trial(s, "scored", 1)
    assert calls == []
    shadowed = replace(s, radio=replace(s.radio, shadowing_sigma_db=4.0))
    for seed in (1, 2):  # each shadowed trial builds its own, once
        calls.clear()
        m.engine.run_trial(shadowed, "scored", seed)
        assert calls == ["scored"]



def test_a_build_hears_each_gathered_candidate_once(monkeypatch):
    # engine.broadcast_status.calls counts the candidates the build-ups gathered
    m = bench_modules()
    real_gather, real_status = m.engine._gather_candidates, m.engine.broadcast_status
    gathered, heard = [], []

    def recorded_gather(*args):
        cands = real_gather(*args)
        gathered.extend(c.id for c in cands)
        return cands

    def recorded_status(node, *args):
        heard.append(node.id)
        return real_status(node, *args)

    monkeypatch.setattr(m.engine, "_gather_candidates", recorded_gather)
    monkeypatch.setattr(m.engine, "broadcast_status", recorded_status)
    for s in (training11(), m.scenario.gen_random_scenario(n_nodes=64, seed=0)):
        for algo in m.engine.ALGOS:
            gathered.clear()
            heard.clear()
            m.engine.build_trial_network(s, algo)
            assert gathered and heard == gathered


def test_every_pick_calls_the_traced_rules_by_engine_name(monkeypatch):
    # spans.py counts the rules through engine's names; a pick holding its
    # own reference to a rule would hide its calls from --trace 1
    m = bench_modules()
    phase, seen = ["join"], set()

    def counted(name, fn):
        def wrapper(*args):
            seen.add((phase[0], name))
            return fn(*args)
        return wrapper

    def build(*args):
        phase[0] = "build"
        try:
            return real_build(*args)
        finally:
            phase[0] = "join"

    for name in ("strongest", "baseline_select", "filter_candidates", "select_parent"):
        monkeypatch.setattr(m.engine, name, counted(name, getattr(m.engine, name)))
    real_build = m.engine.build_network
    monkeypatch.setattr(m.engine, "build_network", build)
    scored = {(p, n) for p in ("build", "join") for n in ("filter_candidates", "select_parent")}
    expected = {"baseline": {("build", "strongest"), ("join", "baseline_select")},
                "scored": scored}
    assert set(expected) == set(m.engine.ALGOS)
    for algo, names in expected.items():
        seen.clear()
        m.engine.build_trial_network(training11(), algo)
        assert seen == {(p, n) for p, n in names if p == "build"}
        assert m.engine.run_trial(training11(), algo, 0).joined  # a fresh layout: build, then join
        assert seen == names
