"""What the benchmark relies on in scatterjoin, checked in the fast suite.

bench/run.py traces layer entry points by module attribute (bench/spans.py)
and times trials through a stand-in for `cli.run_trial`; bench/digest.py
reads compare's trials as baseline/scored pairs in call order. A rename or
a reordering breaks only the slow benchmark self-test otherwise.
"""

import importlib
import sys
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
