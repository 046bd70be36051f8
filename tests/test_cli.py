import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import scatterjoin
from scatterjoin import cli
from scatterjoin.cli import (CSV_COLUMNS, cmd_compare, format_summary, main,
                             parse_weight_vector, parse_weights_grid)
from scatterjoin.engine import ALGOS, run_trial
from scatterjoin.metrics import aggregate, compare, trial_row
from scatterjoin.scenario import (NodeSpec, Scenario, ScenarioError,
                                  gen_random_scenario, scenario_to_dict,
                                  training11, write_scenario)


def test_run_on_builtin(capsys):
    assert main(["run", "--scenario", "training11", "--algo", "scored",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "joined" in out
    assert "pdr=" in out


def test_run_without_delivered_probe_prints_no_delay(tmp_path, capsys):
    # this layout joins on baseline but delivers no probe at seed 0
    path, out = tmp_path / "r64.json", tmp_path / "row.csv"
    assert main(["gen", "--nodes", "64", "--seed", "1", "--out", str(path)]) == 0
    assert main(["run", "--scenario", str(path), "--algo", "baseline",
                 "--seed", "0", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "mu_d=-ms sigma_d=-ms pdr=0.000" in printed
    with open(out) as f:
        row = next(csv.DictReader(f))
    assert row["joined"] == "1"
    assert row["mu_d_ms"] == row["sigma_d_ms"] == ""


def test_run_writes_csv_row(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["run", "--scenario", "training11", "--algo", "baseline",
                 "--seed", "3", "--out", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["algo"] == "baseline"
    assert rows[0]["joined"] == "1"


def test_compare_csv_shape(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--scenario", "training11", "--trials", "2",
                 "--seed-base", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "delay_gain" in printed
    with open(out) as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 4  # 2 trials x 2 algorithms
    # sorted by (trial, algo)
    assert [r[:2] for r in rows] == [["0", "baseline"], ["0", "scored"],
                                     ["1", "baseline"], ["1", "scored"]]


def test_compare_populates_all_report_columns():
    base, prop, imp, _ = cmd_compare(scenario=training11(), trials=2, seed_base=0)
    for report in (base, prop):
        assert report.mu_d_ms is not None
        assert report.sigma_d_ms is not None
        assert report.mu_pdr is not None
        assert report.sigma_pdr is not None
        assert 0.0 <= report.pct_sat <= 1.0
        assert report.avoid_sat is not None  # every training11 trial is eligible
        assert report.mean_hops > 0


def test_compare_rerun_is_bit_exact():
    first = cmd_compare(scenario=training11(), trials=2, seed_base=3)
    second = cmd_compare(scenario=training11(), trials=2, seed_base=3)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert first[3] == second[3]


def test_compare_single_trial_matches_run_trial():
    s = training11()
    base, prop, imp, rows = cmd_compare(scenario=s, trials=1, seed_base=9)
    assert base == aggregate([trial_row(0, run_trial(s, "baseline", 9))])
    assert prop == aggregate([trial_row(0, run_trial(s, "scored", 9))])
    assert imp == compare(base, prop)
    assert len(rows) == 2


# the type each CSV column reads back as; an empty field is None
CSV_TYPES = {"algo": str, "mu_d_ms": float, "sigma_d_ms": float, "pdr": float}


def read_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return [{k: None if v == "" else CSV_TYPES.get(k, int)(v) for k, v in row.items()}
                for row in csv.DictReader(f)]


@pytest.mark.parametrize("source", [["--scenario", "training11"],
                                    ["--random", "--nodes", "16"]])
def test_compare_prints_and_returns_what_it_writes(tmp_path, capsys, source):
    out = tmp_path / "cmp.csv"
    assert main(["compare", *source, "--trials", "3", "--out", str(out)]) == 0
    rows = read_rows(out)
    base, prop = (aggregate([r for r in rows if r["algo"] == algo]) for algo in ALGOS)
    assert capsys.readouterr().out == format_summary(base, prop, compare(base, prop)) + "\n"
    kwargs = ({"scenario": training11()} if source[0] == "--scenario"
              else {"random_nodes": 16})
    returned = cmd_compare(trials=3, out=str(tmp_path / "again.csv"), **kwargs)
    assert returned[:2] == (base, prop)
    assert repr(returned[:2]) == repr((base, prop))  # floats round-trip through repr
    assert returned[3] == rows


def test_outputs_carry_the_engine_saturation_verdict(tmp_path, capsys):
    # a scenario threshold far below the 0.8 default must reach every output
    s = gen_random_scenario(n_nodes=16, seed=0)
    s = replace(s, thresholds=replace(s.thresholds, theta_sat=0.1))
    path, out = tmp_path / "r16.json", tmp_path / "cmp.csv"
    write_scenario(s, str(path))
    assert main(["compare", "--scenario", str(path), "--trials", "2",
                 "--seed-base", "0", "--out", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    verdicts = []
    for row in rows:
        t = run_trial(s, row["algo"], int(row["seed"]))
        assert row["sat_branch"] == str(int(t.sat_branch))
        verdicts.append(t.sat_branch)
    assert True in verdicts
    capsys.readouterr()
    for algo in ("baseline", "scored"):
        assert main(["run", "--scenario", str(path), "--algo", algo,
                     "--seed", "0"]) == 0
        t = run_trial(s, algo, 0)
        assert f"sat_branch={int(t.sat_branch)}" in capsys.readouterr().out


def test_compare_prints_undefined_gain_as_dash(capsys):
    # a single random-64 trial often delivers no probe on one side
    assert main(["compare", "--random", "--nodes", "64", "--trials", "1",
                 "--seed-base", "0"]) == 0
    gains = capsys.readouterr().out.splitlines()[-1]
    assert gains.startswith("delay_gain -")


def test_zero_joined_trials_fail_with_stage(tmp_path, capsys):
    s = Scenario(name="isolated", nodes=[NodeSpec(1, (0.0, 0.0)), NodeSpec(2, (9.0, 0.0)),
                                         NodeSpec(3, (100.0, 100.0))],
                 sink_id=1, new_node_id=3, declared_unjoinable=True)
    path = tmp_path / "isolated.json"
    write_scenario(s, str(path))
    rc = main(["compare", "--scenario", str(path), "--trials", "1"])
    assert rc == 1
    assert "error at aggregate stage: zero joined trials" in capsys.readouterr().err


def test_failed_join_row_leaves_undefined_figures_empty(tmp_path, capsys):
    s = Scenario(name="isolated", nodes=[NodeSpec(1, (0.0, 0.0)), NodeSpec(2, (9.0, 0.0)),
                                         NodeSpec(3, (100.0, 100.0))],
                 sink_id=1, new_node_id=3, declared_unjoinable=True)
    path, out = tmp_path / "isolated.json", tmp_path / "row.csv"
    write_scenario(s, str(path))
    assert main(["run", "--scenario", str(path), "--algo", "scored",
                 "--seed", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("join failed")
    with open(out) as f:
        row = next(csv.DictReader(f))
    assert row["joined"] == "0"
    for column in ("parent_id", "hops", "mu_d_ms", "sigma_d_ms", "pdr", "sat_branch"):
        assert row[column] == "", column


def test_missing_scenario_file_fails_with_stage(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.json"),
               "--algo", "scored", "--seed", "1"])
    assert rc == 1
    assert "io stage" in capsys.readouterr().err


def test_invalid_scenario_fails_with_stage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": 1, "pos": [0, 0], "turbo": 9}]}')
    rc = main(["run", "--scenario", str(bad), "--algo", "scored", "--seed", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "scenario stage" in err
    assert "turbo" in err


@pytest.mark.parametrize("engine,field", [
    ({"t_adv_ms": 0}, "engine.t_adv_ms"),      # used to reschedule the joinMe forever
    ({"probe_rate": 0}, "engine.probe_rate"),  # used to divide by zero
    ({"n_ce": 0}, "engine.n_ce"),              # used to report pdr=0.000 quietly
])
def test_bad_engine_values_fail_with_stage(tmp_path, capsys, engine, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "sink_id": 1, "new_node_id": 3, "declared_unjoinable": True, "engine": engine,
        "nodes": [{"id": 1, "pos": [0, 0]}, {"id": 2, "pos": [9, 0]},
                  {"id": 3, "pos": [100, 100]}]}))
    rc = main(["run", "--scenario", str(bad), "--algo", "scored", "--seed", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error at scenario stage" in err and field in err


@pytest.mark.parametrize("thresholds,field", [
    ({"rl_min_dbm": -math.inf}, "thresholds.rl_min_dbm"),
    ({"b_fair": -1}, "thresholds.b_fair"),
    ({"theta_sat": 1.5}, "thresholds.theta_sat"),
])
def test_bad_threshold_values_fail_with_stage(tmp_path, capsys, thresholds, field):
    bad = tmp_path / "bad.json"
    doc = scenario_to_dict(training11())
    doc["thresholds"].update(thresholds)
    bad.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(bad), "--algo", "scored", "--seed", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error at scenario stage" in err and field in err


def test_node_id_below_one_fails_with_stage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = scenario_to_dict(training11())
    doc["nodes"][3]["id"] = 0
    bad.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(bad), "--algo", "scored", "--seed", "0"])
    assert rc == 1
    assert "error at scenario stage: nodes[3].id: must be >= 1" in capsys.readouterr().err


def test_sink_with_traffic_fails_with_stage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = scenario_to_dict(training11())
    doc["nodes"][0]["traffic_rate_pps"] = 5.0  # used to fill the sink, which never drains
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad), "--algo", "scored", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error at scenario stage: nodes[0].traffic_rate_pps: "
                          "must be 0 on the sink")


@pytest.mark.parametrize("argv", [
    ["run", "--algo", "scored", "--seed", "0"],  # died formatting a missing delay
    ["compare", "--trials", "1"],                # died sorting a missing PDR
])
def test_window_without_probes_fails_with_stage(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    doc = scenario_to_dict(training11())
    doc["engine"]["measure_ms"] = 40.0  # 0.4 probes at 10 pps
    bad.write_text(json.dumps(doc))
    assert main(argv + ["--scenario", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error at scenario stage: engine.measure_ms: the window holds no probe")


def test_scenario_that_would_hang_a_trial_fails_with_stage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = scenario_to_dict(training11())
    doc["nodes"][3]["ci_ms"] = 1e-6  # 7.5e10 connection slots
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad), "--algo", "scored", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error at scenario stage: scenario: a trial may take 7.54e+10 events")


def test_deeply_nested_json_fails_with_stage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)  # json.load used to die in RecursionError
    assert main(["run", "--scenario", str(bad), "--algo", "scored", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error at scenario stage: parse error in {bad}")


def test_far_apart_nodes_fail_with_stage(tmp_path, capsys):
    # their distance overflows to inf, which path_loss_rssi used to raise on
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sink_id": 1, "new_node_id": 2,
                               "nodes": [{"id": 1, "pos": [1e308, 0]},
                                         {"id": 2, "pos": [-1e308, 0]}]}))
    assert main(["run", "--scenario", str(bad), "--algo", "scored", "--seed", "0"]) == 1
    assert capsys.readouterr().err.startswith(
        "error at scenario stage: new_node_id: new node hears nobody")


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "training11", "--algo", "scored", "--seed", "0",
     "--weights=0,0,0,0,0,0"],
    ["run", "--scenario", "training11", "--algo", "scored", "--seed", "0",
     "--weights=0.1,-0.2,0.25,0.2,0.15,0.1"],
    ["run", "--scenario", "training11", "--algo", "scored", "--seed", "0",
     "--weights=nan,0.2,0.25,0.2,0.15,0.1"],
    # every score was NaN, and scored picked the saturated branch
    ["run", "--scenario", "training11", "--algo", "scored", "--seed", "0",
     "--weights=inf,0,0,0,0,0"],
    ["compare", "--scenario", "training11", "--trials", "1",
     "--weights=inf,0,0,0,0,0"],
    ["sweep", "--random", "--nodes", "10", "--area", "24", "--trials", "1",
     "--weights-grid", "w_b=-1"],
    # each weight is finite but their sum is not; it used to exit 0 with other picks
    ["compare", "--random", "--nodes", "16", "--trials", "20",
     "--weights", "1e308,1e308,1e308,1e308,1e308,1e308"],
])
def test_bad_weight_overrides_fail_with_stage(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no trial result
    assert err.startswith("error at scenario stage: weights")


def test_weight_overrides_checked_through_the_api():
    with pytest.raises(ScenarioError, match=r"weights\.w_m: expected a finite number"):
        cmd_compare(scenario=training11(), trials=1, weights={"w_m": math.inf})
    with pytest.raises(ScenarioError, match="unknown field.*w_zz"):
        cmd_compare(scenario=training11(), trials=1, weights={"w_zz": 1.0})


@pytest.mark.parametrize("argv", [
    ["compare", "--random", "--trials", "1", "--area", "nan"],
    ["gen", "--seed", "0", "--area", "inf", "--out", "never-written.json"],
])
def test_bad_area_fails_with_stage(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "error at generation stage: area_m: must be > 0 and finite")


def test_gen_then_run_round_trip(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["gen", "--nodes", "10", "--seed", "4", "--area", "24",
                 "--out", str(path)]) == 0
    assert main(["run", "--scenario", str(path), "--algo", "baseline",
                 "--seed", "0"]) == 0


def test_weight_vector_parsing():
    w = parse_weight_vector("0.1,0.2,0.25,0.2,0.15,0.1")
    assert w == {"w_m": 0.1, "w_h": 0.2, "w_b": 0.25, "w_ci": 0.2,
                 "w_rl": 0.15, "w_rn": 0.1}
    with pytest.raises(ScenarioError):
        parse_weight_vector("0.1,0.2")


def test_weights_grid_parsing():
    grid = parse_weights_grid("w_b=0.1,0.25;w_ci=0.0,0.2")
    assert len(grid) == 4
    assert {"w_b": 0.1, "w_ci": 0.2} in grid
    with pytest.raises(ScenarioError):
        parse_weights_grid("w_nope=1.0")
    with pytest.raises(ScenarioError, match="weights-grid: repeated axis 'w_b'"):
        parse_weights_grid("w_b=0.1;w_b=0.4")


@pytest.mark.parametrize("argv, message", [
    (["compare", "--random", "--trials", "0"], "trials must be >= 1"),
    (["sweep", "--random", "--trials", "0", "--weights-grid", "w_b=0.1"],
     "trials must be >= 1"),
    (["sweep", "--random", "--trials", "1", "--weights-grid", "w_b=0.1;w_b=0.4"],
     "weights-grid: repeated axis 'w_b'"),
    # a layout size or area would be silently ignored on a given scenario
    (["compare", "--scenario", "training11", "--nodes", "64", "--trials", "5"],
     "nodes, area: apply only to random layouts, not to a scenario"),
    (["compare", "--scenario", "training11", "--area", "50", "--trials", "5"],
     "nodes, area: apply only to random layouts, not to a scenario"),
])
def test_bad_counts_and_grids_fail_at_scenario_stage(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error at scenario stage: {message}\n"
    assert captured.out == ""


def test_run_with_weight_override(capsys):
    assert main(["run", "--scenario", "training11", "--algo", "scored",
                 "--seed", "1", "--weights", "0,0,1,0,0,0"]) == 0


def test_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--random", "--nodes", "10", "--area", "24",
               "--trials", "2", "--seed-base", "0",
               "--weights-grid", "w_b=0.0,0.25", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.count("mu_pdr=") == 2
    with open(out) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3  # header + 2 vectors


def test_sweep_checks_every_weight_vector_before_any_trial(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "gen_random_scenario", lambda **kw: calls.append("gen"))
    monkeypatch.setattr(cli, "run_trial", lambda *a: calls.append("run"))
    assert main(["sweep", "--random", "--trials", "2", "--nodes", "10", "--area", "24",
                 "--weights-grid", "w_b=0.25,-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error at scenario stage: weights: weights must be >= 0\n"
    assert captured.out == ""  # not the w_b=0.25 line
    assert calls == []


def test_sweep_draws_each_layout_once(monkeypatch, capsys):
    calls = []

    def counting(**kwargs):
        calls.append(kwargs["seed"])
        return gen_random_scenario(**kwargs)

    monkeypatch.setattr(cli, "gen_random_scenario", counting)
    assert main(["sweep", "--random", "--nodes", "10", "--area", "24", "--trials", "3",
                 "--seed-base", "5", "--weights-grid", "w_b=0.0,0.25;w_ci=0.1,0.2"]) == 0
    assert calls == [5, 6, 7]  # one per trial, not one per trial and vector
    assert capsys.readouterr().out.count("mu_pdr=") == 4


def test_console_entry_point_smoke():
    src = Path(scatterjoin.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "scatterjoin.cli", "run", "--scenario",
         "training11", "--algo", "scored", "--seed", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert "joined" in proc.stdout


# sha256 of (the --out file, stdout) for each command: what the CLI writes
# and prints must not change when its code is reorganized.
CLI_GOLDEN = [
    (["compare", "--random", "--nodes", "16", "--trials", "6", "--seed-base", "40"],
     "7dca25b1b36cfcf639e3bd66456276bcc65a81e19f591b7a5bcfa64d6d5b08db",
     "174c36e59f59e0c9a15cdd6c89f9ff9068fd3024f5db0ece85e186e7b3abf79b"),
    (["compare", "--scenario", "training11", "--trials", "3",
      "--weights", "0.1,0.3,0.1,0.2,0.2,0.1"],
     "ca9b07344c291be36e24d43f18dd1d56d34e8214f4d53b396efe4c7077fff1b9",
     "9516cc36e0e89f47e0c36a52f4b33e8083873c09598c5d9f240c567939721b54"),
    (["sweep", "--random", "--nodes", "10", "--area", "24", "--trials", "4",
      "--seed-base", "2", "--weights-grid", "w_b=0.0,0.25;w_ci=0.1,0.3"],
     "4b03417bd01ff091629594313b00073d96ce597f572724944706b191644c2025",
     "dc4b11a4343a24bccefbeb17f57267acfb5ac472dbe142bf6d5e444147c2d67e"),
    (["run", "--scenario", "training11", "--algo", "baseline", "--seed", "3"],
     "57153e3f7385bf83915c1e26f27d7ca7caf864fc6a1f6851dcde3a2c4733a3ad",
     "8da568975d243aae4b130bfe127eb6cca217638d26c5bd5e1b2f5bdfaacd4a21"),
]


def test_cli_outputs_match_golden_digest(tmp_path, capsys):
    for argv, csv_sha, stdout_sha in CLI_GOLDEN:
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha, argv


def test_sweep_aggregates_each_vector_before_the_next(monkeypatch, capsys):
    # sweep holds one weight vector's trials at a time, never the whole grid's
    trials, pending, batches = 3, [], []

    def counting_run_trial(s, algo, seed):
        t = run_trial(s, algo, seed)
        pending.append((algo, s.weights))
        return t

    def counting_aggregate(results):
        batches.append(list(pending))
        pending.clear()
        return aggregate(results)

    monkeypatch.setattr(cli, "run_trial", counting_run_trial)
    monkeypatch.setattr(cli, "aggregate", counting_aggregate)
    assert main(["sweep", "--random", "--nodes", "10", "--area", "24",
                 "--trials", str(trials), "--seed-base", "5",
                 "--weights-grid", "w_b=0.0,0.25;w_ci=0.1"]) == 0
    capsys.readouterr()
    assert len(batches) == 2 and not pending
    for batch in batches:
        assert len(batch) == trials
        assert {algo for algo, _ in batch} == {"scored"}
        assert len({w for _, w in batch}) == 1
    assert batches[0][0][1] != batches[1][0][1]
