"""The summary arithmetic and options of scripts/bench_pairs.py; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def judged(parent, change, better, bound=0.2):
    s = bench_pairs.summarize(parent, change, better)
    return {**s, **bench_pairs.verdict(s, better, bound)}


def test_quartiles_of_the_parent_runs():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pairs_won_count_the_better_side_only():
    parent = [10.0, 12.0, 11.0, 13.0]
    change = [11.0, 12.0, 10.0, 15.0]  # one tie, one loss, two wins when higher is better
    up = bench_pairs.summarize(parent, change, "higher")
    down = bench_pairs.summarize(parent, change, "lower")
    assert (up["won"], down["won"], up["pairs"]) == (2, 1, 4)
    assert up["parent_median"] == 11.5 and up["parent_iqr"] == (10.75, 12.25)
    assert up["change_median"] == 11.5 and up["move"] == 0.0


def test_each_side_gets_its_own_median_and_quartiles():
    s = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [10.0, 30.0, 20.0, 40.0], "higher")
    assert (s["parent_median"], s["parent_iqr"]) == (2.5, (1.75, 3.25))
    assert (s["change_median"], s["change_iqr"]) == (25.0, (17.5, 32.5))
    one = bench_pairs.summarize([3.0], [8.0], "lower")
    assert (one["change_median"], one["change_iqr"]) == (8.0, (8.0, 8.0))


def test_move_is_relative_to_the_parent_median():
    s = judged([4.0, 4.0, 4.0], [5.0, 5.0, 5.0], "higher")
    assert s["move"] == 0.25 and s["won"] == 3
    assert bench_pairs.summarize([0.0], [1.0], "lower")["move"] is None
    assert bench_pairs.format_row("trials_per_s", "1/s", s) == \
        "trials_per_s (1/s): 4 [4, 4] -> 5 (+25.0%), 3 of 3 pairs won: gain shown"


def test_a_gain_needs_nine_wins_in_ten():
    parent = [10.0] * 10
    nine = judged(parent, [9.0] * 9 + [11.0], "lower")
    eight = judged(parent, [9.0] * 8 + [11.0] * 2, "lower")
    assert (nine["won"], nine["change_median"], nine["gain_shown"]) == (9, 9.0, True)
    assert (eight["won"], eight["change_median"], eight["gain_shown"]) == (8, 9.0, False)
    assert not nine["past_bound"] and not eight["past_bound"]
    assert bench_pairs.format_row("trial_ms_p50", "ms", nine).endswith(
        "9 of 10 pairs won: gain shown")
    assert bench_pairs.format_row("trial_ms_p50", "ms", eight).endswith(
        "8 of 10 pairs won: neither")


def test_a_move_inside_the_parent_iqr_shows_no_gain():
    parent = [8.0, 9.0, 10.0, 11.0, 12.0] * 2  # quartiles 9 and 11: an IQR of 2
    inside = judged(parent, [p + 1.0 for p in parent], "higher")
    assert inside["parent_iqr"] == (9.0, 11.0)
    assert (inside["won"], inside["change_median"], inside["gain_shown"]) == (10, 11.0, False)
    past = judged(parent, [p + 2.5 for p in parent], "higher")
    assert past["gain_shown"] is True
    tie = judged(parent, [p + 2.0 for p in parent], "higher")  # a move of exactly the IQR
    assert tie["gain_shown"] is False


@pytest.mark.parametrize("better,at,beyond", [("lower", 12.0, 12.01), ("higher", 8.0, 7.99)])
def test_a_regression_is_past_bound_only_beyond_it(better, at, beyond):
    parent = [10.0] * 10
    at_bound = judged(parent, [at] * 10, better)
    past = judged(parent, [beyond] * 10, better)
    assert (at_bound["past_bound"], past["past_bound"]) == (False, True)
    assert not at_bound["gain_shown"] and not past["gain_shown"]
    assert bench_pairs.format_row("m", "-", past).endswith("0 of 10 pairs won: past bound")
    assert judged(parent, parent, better)["past_bound"] is False


@pytest.mark.parametrize("parent,change,better", [
    ([1.0], [1.0, 2.0], "higher"),
    ([], [], "higher"),
    ([1.0], [2.0], "faster"),
])
def test_bad_summaries_rejected(parent, change, better):
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change, better)


def fake_bench(calls, tps, sha):
    """A bench_once stand-in: trials_per_s from tps[side] in call order."""
    def bench_once(checkout, workload, seconds, seed):
        side = checkout.name
        calls.append((side, workload, seconds, seed))
        value = tps[side].pop(0)
        metrics = {name: {"value": value, "unit": "-"} for name in METRIC_NAMES}
        env = {"cpu_model": "cpu", "nproc": 2, "cpus_usable": 2, "python": "3.x",
               "src_sha256": sha[side], "seed": seed}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}, env
    return bench_once


METRIC_NAMES = [m["name"] for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]]


def test_seed_reaches_bench_run(monkeypatch, tmp_path):
    assert bench_pairs.bench_command("compare-r16", 5.0, 7)[-6:] == \
        ["--seconds", "5.0", "--seed", "7", "--trace", "0"]
    calls = []
    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench(
        calls, {"parent": [1.0, 1.0], "change": [2.0, 2.0]}, {"parent": "a", "change": "b"}))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "compare-t11",
            "--pairs", "2", "--seconds", "5", "--seed", "7"]
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", "compare-t11", 5.0, 7), ("change", "compare-t11", 5.0, 7),
                     ("change", "compare-t11", 5.0, 7), ("parent", "compare-t11", 5.0, 7)]


@pytest.mark.parametrize("seconds", ["0", "nan", "inf"])
def test_bad_seconds_rejected_before_any_run(monkeypatch, tmp_path, capsys, seconds):
    calls = []
    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench(calls, {}, {}))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "compare-t11",
            "--seconds", seconds]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2 and calls == []
    assert "--seconds must be > 0 and finite" in capsys.readouterr().err


def test_json_records_each_workload_and_extends_a_record(monkeypatch, tmp_path):
    out = tmp_path / "BENCH.json"
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    sha = {"parent": "a", "change": "b"}
    tps = {"parent": [4.0, 5.0, 6.0, 9.0, 9.0], "change": [5.0, 6.0, 7.0, 8.0, 8.0]}
    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench([], tps, sha))
    assert bench_pairs.main(sides + ["--workload", "compare-t11", "--pairs", "3",
                                     "--seconds", "5", "--json", str(out)]) == 0
    assert bench_pairs.main(sides + ["--workload", "compare-r64", "--pairs", "2",
                                     "--seed", "3", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["machine"] == {"cpu_model": "cpu", "nproc": 2, "cpus_usable": 2}
    assert doc["python"] == "3.x" and doc["src_sha256"] == sha
    t11, r64 = doc["results"]
    assert (t11["workload"], t11["seed"], t11["pairs"], t11["seconds"], t11["correct"]) == \
        ("compare-t11", 0, 3, 5.0, True)
    assert set(t11["metrics"]) == set(METRIC_NAMES)
    tps_row = t11["metrics"]["trials_per_s"]
    assert tps_row == {"unit": "1/s", "better": "higher", "parent_median": 5.0,
                       "parent_iqr": [4.5, 5.5], "change_median": 6.0,
                       "change_iqr": [5.5, 6.5], "move": 0.2, "won": 3, "pairs": 3,
                       "gain_shown": False, "past_bound": False,  # a move of exactly the IQR
                       "parent_runs": [4.0, 5.0, 6.0], "change_runs": [5.0, 6.0, 7.0]}
    assert (r64["workload"], r64["seed"], r64["pairs"]) == ("compare-r64", 3, 2)
    assert r64["metrics"]["trials_per_s"]["won"] == 0
    assert r64["metrics"]["trial_ms_p50"]["won"] == 2  # lower is better
    assert r64["metrics"]["trial_ms_p50"]["change_runs"] == [8.0, 8.0]


def test_json_traces_each_pair_won_to_its_runs(monkeypatch, tmp_path):
    # the change runs first in odd pairs, yet each list keeps pair order
    out = tmp_path / "BENCH.json"
    parent, change = [10.0, 12.0, 11.0, 13.0], [11.0, 12.0, 10.0, 15.0]
    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench(
        [], {"parent": list(parent), "change": list(change)}, {"parent": "a", "change": "b"}))
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "compare-r16", "--pairs", "4",
                             "--json", str(out)]) == 0
    (result,) = json.loads(out.read_text())["results"]
    for name, row in result["metrics"].items():
        assert (row["parent_runs"], row["change_runs"]) == (parent, change)
        sign = 1 if row["better"] == "higher" else -1
        assert row["won"] == sum(sign * (c - p) > 0 for p, c in zip(parent, change)), name


def test_json_refuses_a_record_of_other_sources(monkeypatch, tmp_path):
    out = tmp_path / "BENCH.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "compare-t11",
            "--pairs", "1", "--json", str(out)]

    def change_src(sha):
        monkeypatch.setattr(bench_pairs, "bench_once", fake_bench(
            [], {"parent": [1.0], "change": [1.0]}, {"parent": "a", "change": sha}))

    change_src("b")
    assert bench_pairs.main(argv) == 0
    change_src("c")
    with pytest.raises(ValueError, match="src_sha256"):
        bench_pairs.main(argv)


@pytest.mark.parametrize("value,flag", [(None, False), ("", False), ("1", True)])
def test_record_says_whether_runs_write_bytecode(monkeypatch, tmp_path, capsys, value, flag):
    # an empty value leaves bytecode writing on, as Python reads it
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench(
        [], {"parent": [1.0], "change": [1.0]}, {"parent": "a", "change": "b"}))
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "compare-t11", "--pairs", "1",
                             "--json", str(out)]) == 0
    assert f"# PYTHONDONTWRITEBYTECODE set: {flag}" in capsys.readouterr().out
    (result,) = json.loads(out.read_text())["results"]
    assert result["pythondontwritebytecode"] is flag
