import ast
import collections
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scatterjoin import engine, scenario
from scatterjoin.channel import Position, RadioParams, hears
from scatterjoin.engine import ALGOS, TrialEngine, run_trial
from scatterjoin.join_scored import ScoreWeights
from scatterjoin.scenario import (EngineParams, GenerationError, NodeSpec,
                                  Scenario, ScenarioError, Thresholds,
                                  gen_random_scenario, load_scenario,
                                  parse_scenario, scenario_to_dict,
                                  training11, validate_scenario,
                                  write_scenario)

SHORT = EngineParams(warmup_ms=1000.0, measure_ms=5000.0, max_wait_ms=2000.0)


def minimal_doc(**overrides):
    doc = {
        "name": "tiny",
        "sink_id": 1,
        "new_node_id": 3,
        "nodes": [
            {"id": 1, "pos": [0.0, 0.0]},
            {"id": 2, "pos": [9.0, 0.0]},
            {"id": 3, "pos": [18.0, 0.0]},
        ],
    }
    doc.update(overrides)
    return doc


def test_training11_builtin():
    s = training11()
    assert s.sink_id == 1
    assert s.new_node_id == 12
    assert len(s.nodes) == 12        # the 11-node network plus the joiner
    existing = [n for n in s.nodes if n.id != s.new_node_id]
    assert len(existing) == 11
    rates = {n.id: n.traffic_rate_pps for n in s.nodes}
    assert rates[4] == 20.0          # the hot generator
    validate_scenario(s)


def test_duplicate_ids_rejected():
    doc = minimal_doc()
    doc["nodes"][1]["id"] = 3
    with pytest.raises(ScenarioError, match="duplicate id 3"):
        parse_scenario(doc)


def test_missing_sink_rejected():
    doc = minimal_doc()
    doc["nodes"] = doc["nodes"][1:]
    with pytest.raises(ScenarioError, match="sink"):
        parse_scenario(doc)


def test_sink_id_must_be_one():
    doc = minimal_doc(sink_id=2)
    with pytest.raises(ScenarioError, match="sink"):
        parse_scenario(doc)


def test_omitted_blocks_get_defaults():
    s = parse_scenario(minimal_doc())
    assert s.radio.pl0_db == 45.0
    assert s.engine.t_adv_ms == 200.0
    assert s.weights.w_b == 0.25
    assert s.thresholds.rl_min_dbm == -85.0
    assert s.nodes[0].b_max == 30


def test_unknown_weight_field_rejected():
    doc = minimal_doc(weights={"w_bb": 0.3})
    with pytest.raises(ScenarioError, match="w_bb"):
        parse_scenario(doc)


def test_unknown_top_level_field_rejected():
    with pytest.raises(ScenarioError, match="radios"):
        parse_scenario(minimal_doc(radios={}))


def test_unknown_node_field_rejected():
    doc = minimal_doc()
    doc["nodes"][0]["cix_ms"] = 100
    with pytest.raises(ScenarioError, match="cix_ms"):
        parse_scenario(doc)


def test_disconnected_existing_graph_rejected():
    doc = minimal_doc()
    doc["nodes"][1]["pos"] = [50.0, 50.0]
    with pytest.raises(ScenarioError, match="disconnected"):
        parse_scenario(doc)


def test_isolated_new_node_needs_flag():
    doc = minimal_doc()
    doc["nodes"][2]["pos"] = [80.0, 80.0]
    with pytest.raises(ScenarioError, match="new node"):
        parse_scenario(doc)
    doc["declared_unjoinable"] = True
    parse_scenario(doc)


def test_bad_node_values_rejected():
    doc = minimal_doc()
    doc["nodes"][0]["ci_ms"] = 0
    with pytest.raises(ScenarioError, match="ci_ms"):
        parse_scenario(doc)


@pytest.mark.parametrize("field,value", [
    ("t_adv_ms", 0), ("probe_rate", 0), ("n_ce", 0), ("measure_ms", -1000.0),
    ("measure_ms", 0), ("warmup_ms", -1.0), ("max_wait_ms", -1.0)])
def test_bad_engine_values_rejected(field, value):
    with pytest.raises(ScenarioError, match=f"engine.{field}"):
        parse_scenario(minimal_doc(engine={field: value}))


def test_boundary_engine_values_accepted():
    parse_scenario(minimal_doc(engine={"warmup_ms": 0, "max_wait_ms": 0, "n_ce": 1}))


@pytest.mark.parametrize("field,value", [
    ("rl_min_dbm", math.nan), ("rl_min_dbm", -math.inf), ("b_fair", -1),
    ("theta_sat", 0.0), ("theta_sat", 1.5), ("theta_sat", math.nan)])
def test_bad_threshold_values_rejected(field, value):
    with pytest.raises(ScenarioError, match=rf"thresholds\.{field}"):
        replace(training11(), thresholds=Thresholds(**{field: value}))


def test_boundary_threshold_values_accepted():
    parse_scenario(minimal_doc(thresholds={"b_fair": 0, "theta_sat": 1.0}))


def _node_override(i, **fields):
    doc = minimal_doc()
    doc["nodes"][i].update(fields)
    return doc


def _training11_node4(**fields):
    doc = scenario_to_dict(training11())
    doc["nodes"][3].update(fields)
    return doc


# A scenario whose trial could run for hours fails on its worst-case event count.
HANGS = "scenario: a trial may take .* events, over the 1e\\+07 limit"


@pytest.mark.parametrize("doc,where", [
    (_node_override(0, pos=["a", 0]), r"nodes\[0\]\.pos"),
    (_node_override(1, pos=[float("nan"), 0]), r"nodes\[1\]\.pos"),
    (_node_override(0, b_max="30"), r"nodes\[0\]\.b_max"),
    (_node_override(2, id=True), r"nodes\[2\]\.id"),
    (minimal_doc(thresholds={"theta_sat": "x"}), r"thresholds\.theta_sat"),
    (minimal_doc(engine={"n_ce": 1.5}), r"engine\.n_ce"),
    (minimal_doc(radio={"exponent": None}), r"radio\.exponent"),
    (minimal_doc(sink_id="1"), r"sink_id"),
    (minimal_doc(nodes="x"), r"nodes: expected a list"),
    (minimal_doc(nodes=[7]), r"nodes\[0\]: expected an object"),
    (minimal_doc(weights=[1, 2]), r"weights: expected an object"),
])
def test_mistyped_fields_rejected_by_name(doc, where):
    with pytest.raises(ScenarioError, match=where):
        parse_scenario(doc)


def test_new_node_cannot_be_the_sink():
    with pytest.raises(ScenarioError, match="^new_node_id: must differ from sink_id$"):
        replace(training11(), new_node_id=1)


def test_engine_checks_node_ids_of_a_scenario_built_in_code():
    s = training11()
    with pytest.raises(ScenarioError, match=r"nodes\[10\]\.id"):
        replace(s, nodes=[*s.nodes[:-2], replace(s.nodes[-2], id=0), s.nodes[-1]])


@pytest.mark.parametrize("doc,message", [
    (_node_override(1, id=0), r"nodes\[1\]\.id: must be >= 1"),
    (_node_override(1, id=-3), r"nodes\[1\]\.id: must be >= 1"),
    (minimal_doc(weights={"m_max": 0}), "weights: m_max must be >= 1"),
    (minimal_doc(weights={"b_max": 0}), "weights: b_max must be >= 1"),
    ([minimal_doc()], "scenario: expected an object"),
    ({"sink_id": 1, "new_node_id": 3}, "scenario: missing nodes"),
    (minimal_doc(nodes=[{"id": 1}]), r"nodes\[0\]: missing pos"),
    (minimal_doc(nodes=[{}]), r"nodes\[0\]: missing id, pos"),
    ({k: v for k, v in minimal_doc().items() if k != "new_node_id"},
     "new_node_id: node 0 missing"),
    (minimal_doc(weights={"w_m": 10 ** 400}), r"weights\.w_m: expected a finite number"),
    (minimal_doc(radio={"exponent": math.inf}), r"radio\.exponent: expected a finite"),
    (_node_override(0, pos=[0.0]), r"nodes\[0\]\.pos: expected 2 values"),
    (minimal_doc(radio={"exponent": 0.0}), "radio: path-loss exponent"),
    # windows that hold no probe; 0.5 probes rounds to 0
    (minimal_doc(engine={"measure_ms": 40.0}), r"engine\.measure_ms: the window holds no probe"),
    (minimal_doc(engine={"measure_ms": 50.0}), r"engine\.measure_ms: the window holds no probe"),
    (minimal_doc(engine={"measure_ms": 1e308, "probe_rate": 1e10}),
     r"engine\.measure_ms: measure_ms \* probe_rate overflows"),
    # inputs that would hang a trial: 1e10 joinMe rounds, 7.5e10 connection
    # slots, 7.5e10 arrivals
    (minimal_doc(nodes=[{"id": 1, "pos": [0.0, 0.0]}, {"id": 2, "pos": [9.0, 0.0]},
                        {"id": 3, "pos": [100.0, 100.0]}],
                 declared_unjoinable=True, engine={"t_adv_ms": 1e-6}), HANGS),
    (_training11_node4(ci_ms=1e-6), HANGS),
    (_training11_node4(traffic_rate_pps=1e9), HANGS),
    # training11 takes at most 15,768 events; over a 1e8 ms window, 1.7e7 slots
    ({**scenario_to_dict(training11()), "engine": {"measure_ms": 1e8}}, HANGS),
    # the sink has no uplink, so packets it generated could never leave
    (_node_override(0, traffic_rate_pps=5.0),
     r"nodes\[0\]\.traffic_rate_pps: must be 0 on the sink"),
    (_node_override(1, b_max=0), r"nodes\[1\]\.b_max: must be >= 1"),
    (_node_override(1, slave_capacity=-1), r"nodes\[1\]\.slave_capacity: must be >= 0"),
    (_node_override(1, traffic_rate_pps=-2.0), r"nodes\[1\]\.traffic_rate_pps: must be >= 0"),
])
def test_malformed_documents_rejected_by_name(doc, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(doc)


@pytest.mark.parametrize("where,build", [
    (r"nodes\[3\]\.ci_ms", lambda s: {"nodes": _with_node(s, 3, ci_ms=math.nan)}),
    (r"nodes\[3\]\.traffic_rate_pps",
     lambda s: {"nodes": _with_node(s, 3, traffic_rate_pps=math.nan)}),
    (r"engine\.t_adv_ms", lambda s: {"engine": EngineParams(t_adv_ms=math.nan)}),
    (r"engine\.warmup_ms", lambda s: {"engine": EngineParams(warmup_ms=math.nan)}),
    (r"engine\.probe_rate", lambda s: {"engine": EngineParams(probe_rate=math.nan)}),
    (r"thresholds\.rl_min_dbm", lambda s: {"thresholds": Thresholds(rl_min_dbm=math.nan)}),
    (r"thresholds\.theta_sat", lambda s: {"thresholds": Thresholds(theta_sat=math.nan)}),
    # a file's pos and ci_ms must be finite numbers; code-built ones too
    (r"nodes\[3\]\.pos\[0\]: expected a finite number, got nan",
     lambda s: {"nodes": _with_node(s, 3, pos=(math.nan, 0.0))}),
    (r"nodes\[0\]\.pos\[1\]: expected a finite number, got -inf",
     lambda s: {"nodes": _with_node(s, 0, pos=(0.0, -math.inf))}),
    (r"nodes\[3\]\.ci_ms: expected a finite number, got inf",
     lambda s: {"nodes": _with_node(s, 3, ci_ms=math.inf)}),
])
def test_code_built_nan_rejected_by_name(where, build):
    s = training11()
    with pytest.raises(ScenarioError, match=where):
        replace(s, **build(s))


@pytest.mark.parametrize("where,build", [
    (r"nodes\[3\]\.id: expected an integer, got 4\.0",
     lambda s: {"nodes": _with_node(s, 3, id=4.0)}),
    (r"nodes\[3\]\.b_max: expected an integer, got 2\.5",
     lambda s: {"nodes": _with_node(s, 3, b_max=2.5)}),
    (r"nodes\[0\]\.slave_capacity: expected an integer, got True",
     lambda s: {"nodes": _with_node(s, 0, slave_capacity=True)}),
    (r"sink_id: expected an integer", lambda s: {"sink_id": 1.0}),
    (r"new_node_id: expected an integer", lambda s: {"new_node_id": 12.0}),
    (r"engine\.n_ce: expected an integer, got 1\.5", lambda s: {"engine": EngineParams(n_ce=1.5)}),
    (r"thresholds\.b_fair: expected an integer", lambda s: {"thresholds": Thresholds(b_fair=1.0)}),
    # a pos that is not two numbers, which make_network could not place
    (r"nodes\[3\]\.pos\[0\]: expected a finite number, got 'a'",
     lambda s: {"nodes": _with_node(s, 3, pos=("a", 0.0))}),
    (r"nodes\[3\]\.pos: expected 2 values, got \(1\.0,\)",
     lambda s: {"nodes": _with_node(s, 3, pos=(1.0,))}),
    (r"nodes\[3\]\.pos: expected 2 values, got None",
     lambda s: {"nodes": _with_node(s, 3, pos=None)}),
    (r"nodes\[3\]\.pos\[0\]: expected a finite number, got True",
     lambda s: {"nodes": _with_node(s, 3, pos=(True, 0.0))}),
    (r"nodes\[3\]\.pos\[0\]: expected a finite number, got 10{400}$",
     lambda s: {"nodes": _with_node(s, 3, pos=(10 ** 400, 0))}),
    # an int field of a block that checks its own ranges, and a fraction that
    # would change the scores
    (r"weights\.m_max: expected an integer, got 2\.5",
     lambda s: {"weights": ScoreWeights(m_max=2.5)}),
    # a string or a bool in a float field, a bad name or flag
    (r"nodes\[3\]\.traffic_rate_pps: expected a finite number, got '5'",
     lambda s: {"nodes": _with_node(s, 3, traffic_rate_pps="5")}),
    (r"nodes\[3\]\.ci_ms: expected a finite number, got '5'",
     lambda s: {"nodes": _with_node(s, 3, ci_ms="5")}),
    (r"nodes\[3\]\.ci_ms: expected a finite number, got True",
     lambda s: {"nodes": _with_node(s, 3, ci_ms=True)}),
    (r"engine\.t_adv_ms: expected a finite number, got '200'",
     lambda s: {"engine": EngineParams(t_adv_ms="200")}),
    (r"thresholds\.theta_sat: expected a finite number, got '0\.8'",
     lambda s: {"thresholds": Thresholds(theta_sat="0.8")}),
    (r"thresholds\.rl_min_dbm: expected a finite number, got True",
     lambda s: {"thresholds": Thresholds(rl_min_dbm=True)}),
    (r"radio\.exponent: expected a finite number, got True",
     lambda s: {"radio": RadioParams(exponent=True)}),
    (r"name: expected a string, got 5", lambda s: {"name": 5}),
    (r"declared_unjoinable: expected true or false, got 'yes'",
     lambda s: {"declared_unjoinable": "yes"}),
    # a block or the node list must be what a Scenario holds, not its file form
    (r"engine: expected EngineParams, got \{'n_ce': 2\}", lambda s: {"engine": {"n_ce": 2}}),
    (r"nodes: expected a list, got 5", lambda s: {"nodes": 5}),
])
def test_code_built_fractional_or_mistyped_fields_rejected_by_name(where, build):
    # the file parser's type rule holds for a Scenario built in code too
    s = training11()
    with pytest.raises(ScenarioError, match=where):
        replace(s, **build(s))


def test_code_built_integer_pos_accepted():
    s = training11()
    assert replace(s, nodes=_with_node(s, 3, pos=[22, 11])).nodes[3].pos == [22, 11]


def _with_node(s, i, **fields):
    return [replace(n, **fields) if k == i else n for k, n in enumerate(s.nodes)]


def test_scenario_fields_cannot_be_reassigned():
    s = training11()
    for obj, name in ((s, "new_node_id"), (s.nodes[0], "ci_ms"),
                      (s.engine, "t_adv_ms"), (s.thresholds, "b_fair")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0)
    with pytest.raises(TypeError):  # no node is edited in place past the checks
        s.nodes[3] = replace(s.nodes[3], ci_ms=1e-6)


@pytest.mark.parametrize("check", ["validate_scenario", "_acceptable"])
def test_hearing_checks_reach_hears_once_per_ordered_pair(monkeypatch, check):
    """validate_scenario on a copy of a scenario, or _acceptable on each try
    of gen_random_scenario, hears each ordered pair of a table once; the
    trials on the result then hear each unordered pair once in all."""
    calls = collections.Counter()

    def counting(a, b, radio, draw=0.0):
        calls[a, b] += 1
        return real(a, b, radio, draw)

    real = engine.hears
    monkeypatch.setattr(engine, "hears", counting)
    monkeypatch.setattr(scenario, "hears", None)  # scenario code hears only through Links
    layouts = [(16, 0), (16, 1), (64, 0)]
    if check == "validate_scenario":  # a copy starts a new layout, so the check hears through it
        copies = [replace(s, engine=SHORT) for s in [training11()] + [
            gen_random_scenario(n_nodes=n, seed=seed) for n, seed in layouts]]
        runs = [lambda s=s: validate_scenario(s) or s for s in copies]
    else:  # each try draws new positions, so a pair heard twice is a link heard twice
        runs = [lambda n=n, seed=seed: gen_random_scenario(n_nodes=n, seed=seed)
                for n, seed in layouts]
    for hear in runs:
        calls.clear()
        s = hear()
        assert calls and max(calls.values()) == 1
        for algo in ALGOS:  # trials reuse the layout, which keeps each link both ways
            run_trial(s, algo, 0)
        assert max(collections.Counter(frozenset(p) for p in calls.elements()).values()) == 1


def test_layout_is_not_part_of_the_scenario():
    s = gen_random_scenario(n_nodes=16, seed=0)
    assert set(s.layout.attaches) == set(ALGOS)  # generation recorded both build-ups
    copy = replace(s)
    assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)
    assert scenario_to_dict(copy) == scenario_to_dict(s)
    assert copy.layout is not s.layout and copy.layout.attaches == {}
    assert training11().layout is not training11().layout


def test_engine_and_scenario_import_without_a_cycle():
    src = Path(engine.__file__).parent

    def imports_of(tree):
        return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]

    def names_scenario(n):
        names = [a.name for a in n.names] + [getattr(n, "module", None) or ""]
        return any(name.split(".")[-1] == "scenario" for name in names)

    tree = ast.parse((src / "engine.py").read_text())
    guarded = {id(n) for block in ast.walk(tree)
               if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
               for n in imports_of(block)}
    assert [n.lineno for n in imports_of(tree)
            if names_scenario(n) and id(n) not in guarded] == []
    tree = ast.parse((src / "scenario.py").read_text())
    assert [n.lineno for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for n in imports_of(fn)] == []


def test_file_defaults_and_float_fields():
    doc = minimal_doc()
    del doc["name"]
    doc["nodes"][1].update(pos=[9, 0], ci_ms=50)
    s = parse_scenario(doc)
    assert s.name == "unnamed"
    assert s.nodes[1].pos == (9.0, 0.0) and type(s.nodes[1].pos[0]) is float
    assert type(s.nodes[1].ci_ms) is float


def test_overlong_integer_in_file_is_a_parse_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"sink_id": ' + "1" * 5000 + "}")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)


# Every field a scenario file can carry: top level, in a block, in a node.
FIELD_PATHS = (
    [(f.name,) for f in fields(Scenario)]
    + [(block, f.name)
       for block, cls in (("radio", RadioParams), ("engine", EngineParams),
                          ("weights", ScoreWeights), ("thresholds", Thresholds))
       for f in fields(cls)]
    + [("nodes", i, f.name) for i in range(3) for f in fields(NodeSpec)])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _doc_with(path, value):
    """minimal_doc with the field at path set to value."""
    doc = minimal_doc()
    target = doc
    for key in path[:-1]:
        target = target[key] if isinstance(key, int) else target.setdefault(key, {})
    target[path[-1]] = value
    return doc


def _scenario_with(s, path, value):
    """s with the field at path set to value through dataclasses.replace."""
    if len(path) == 1:
        return replace(s, **{path[0]: value})
    if path[0] == "nodes":
        return replace(s, nodes=_with_node(s, path[1], **{path[2]: value}))
    return replace(s, **{path[0]: replace(getattr(s, path[0]), **{path[1]: value})})


def _named(make):
    """None if make() returns, else the field its ScenarioError names."""
    try:
        make()
    except ScenarioError as e:
        return str(e).split(":")[0]
    return None


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_any_json_value_parses_or_fails_by_name(value):
    for path in FIELD_PATHS:
        try:
            s = parse_scenario(_doc_with(path, value))
        except ScenarioError:
            continue
        for algo in ("baseline", "scored"):
            TrialEngine(s, algo, 0)


# Where a Scenario holds dataclasses, a file spells each as a JSON object.
OBJECT_PATHS = {("nodes",), ("radio",), ("engine",), ("weights",), ("thresholds",)}


@settings(max_examples=100, deadline=None)
@given(value=JSON_VALUES)
def test_a_value_set_in_code_fails_as_in_a_file(value):
    base = parse_scenario(minimal_doc())
    for path in FIELD_PATHS:
        in_file = _named(lambda: parse_scenario(_doc_with(path, value)))
        try:
            in_code = _named(lambda: validate_scenario(_scenario_with(base, path, value)))
        except (ValueError, TypeError):  # RadioParams and ScoreWeights check themselves
            assert len(path) == 2 and path[0] in ("radio", "weights")
            assert in_file is not None and in_file.split(".")[0] == path[0]
            continue
        spelled = value if isinstance(value, list) else [value]
        if path in OBJECT_PATHS and any(isinstance(v, dict) for v in spelled):
            assert in_code is not None and in_code.startswith(path[0])  # an instance is needed
        else:
            assert in_code == in_file, path


def test_file_round_trip(tmp_path):
    for seed in range(5):
        s = gen_random_scenario(n_nodes=10, seed=seed, area_m=24.0)
        path = tmp_path / f"s{seed}.json"
        write_scenario(s, path)
        assert load_scenario(path) == s


def test_training11_round_trip(tmp_path):
    path = tmp_path / "t11.json"
    write_scenario(training11(), path)
    assert load_scenario(path) == training11()


def test_parse_error_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)


def test_generator_deterministic_per_seed():
    a = gen_random_scenario(n_nodes=16, seed=7)
    b = gen_random_scenario(n_nodes=16, seed=7)
    assert a == b
    c = gen_random_scenario(n_nodes=16, seed=8)
    assert a != c


def test_generated_scenarios_validate():
    for seed in range(8):
        s = gen_random_scenario(n_nodes=12, seed=seed, area_m=26.0)
        validate_scenario(s)
        assert s.new_node_id == 12
        rates = {n.id: n.traffic_rate_pps for n in s.nodes}
        assert rates[1] == 0.0
        assert rates[s.new_node_id] == 0.0


def test_hot_tier_present_in_most_seeds():
    # frozen one-time enumeration of seeds 0..99
    hot = 0
    for seed in range(100):
        s = gen_random_scenario(n_nodes=16, seed=seed)
        if any(n.traffic_rate_pps == 20.0 for n in s.nodes):
            hot += 1
    assert hot == 99     # frozen observed count
    assert hot / 100 >= 0.9


def test_generation_fails_on_hopeless_layout():
    with pytest.raises(GenerationError, match="tries"):
        gen_random_scenario(n_nodes=5, seed=0, area_m=500.0, max_retries=15)


@pytest.mark.parametrize("n_nodes", [53046, 53047])
def test_generation_refuses_a_node_count_no_layout_fits(n_nodes):
    # every link at the slowest tier, no traffic: the fewest events n_nodes can take
    slowest = [NodeSpec(nid, (0.0, 0.0), ci_ms=max(scenario.CI_TIERS_MS))
               for nid in range(1, n_nodes + 1)]
    try:
        Scenario(name="slowest", nodes=slowest, sink_id=1, new_node_id=n_nodes)
        fits = True
    except ScenarioError as e:
        assert "limit" in str(e)
        fits = False
    assert fits == (n_nodes == 53046)  # 53,047 is the smallest count refused
    # max_retries=0: a count that may fit gives up without a try, one that cannot is refused
    with pytest.raises(GenerationError, match="tries" if fits else
                       r"n_nodes: 53047 nodes take at least 10,000,010 events per trial, "
                       r"over the 1e\+07 limit"):
        gen_random_scenario(n_nodes=n_nodes, seed=0, max_retries=0)


class Heard(Exception):
    """A link was heard."""


@pytest.mark.parametrize("n_nodes", [3163, 3162])
def test_validation_refuses_more_ordered_links_than_events_before_hearing_one(
        monkeypatch, n_nodes):
    # every relay silent and slow, so a trial takes almost no events, while the
    # link table and the build-ups grow as N^2
    def hears(*args):
        raise Heard

    monkeypatch.setattr(engine, "hears", hears)
    nodes = [NodeSpec(nid, (float(nid), 0.0), ci_ms=1e300) for nid in range(1, n_nodes + 1)]
    s = Scenario(name="silent", nodes=nodes, sink_id=1, new_node_id=n_nodes)
    if n_nodes == 3163:  # 10,001,406 ordered links, the smallest count refused
        with pytest.raises(ScenarioError, match=r"^nodes: 3163 nodes have 10,001,406 ordered "
                                                r"links, over the 1e\+07 limit$"):
            validate_scenario(s)
    else:  # 9,995,082 links pass, so hearing begins
        with pytest.raises(Heard):
            validate_scenario(s)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 8.0)),
                       min_size=1, max_size=10),
       threshold=st.sampled_from([-90.0, -88.0, -85.0, -80.0]))
def test_connectivity_walks_the_rows_as_a_scan_of_every_pair(points, threshold):
    # links between the receive threshold (-90 dBm) and threshold are heard but do not count
    positions = {nid: Position(*p) for nid, p in enumerate(points, start=1)}
    ids, radio = list(positions), RadioParams()
    seen, frontier = {ids[0]}, [ids[0]]
    while frontier:
        cur = frontier.pop()
        for other in ids:
            if other not in seen and hears(positions[cur], positions[other], radio)[1] >= threshold:
                seen.add(other)
                frontier.append(other)
    links = engine.Links(positions, radio)
    assert scenario._connected(ids, links, threshold) == (len(seen) == len(ids))


def test_connectivity_leaves_out_a_heard_link_below_the_floor():
    links = engine.Links({1: Position(0.0, 0.0), 2: Position(12.0, 0.0)}, RadioParams())
    assert -90.0 < links.heard(1)[2] < -85.0  # heard at 12 m: about -88.2 dBm
    assert scenario._connected([1, 2], links, -90.0)
    assert not scenario._connected([1, 2], links, -85.0)


# Linux carries a process's peak RSS across exec, so a child started straight
# from the test process would report the test process's peak as its own; a
# small launcher in between keeps the child's figure its own.
LAUNCH = ("import subprocess, sys; "
          "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)")
SILENT_LINE_PEAK = """
import resource, sys
from scatterjoin.engine import run_trial
from scatterjoin.scenario import NodeSpec, Scenario, validate_scenario

nodes = [NodeSpec(nid, (float(nid), 0.0), ci_ms=1e300) for nid in range(1, 1001)]
s = Scenario(name="silent", nodes=nodes, sink_id=1, new_node_id=1000)
validate_scenario(s)
assert run_trial(s, "baseline", 0).joined
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB, bytes on macOS
print(peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10))
"""


def test_a_long_line_of_relays_runs_in_little_memory():
    # a table that kept every ordered link held 999,000 for this line and peaked at 165 MB
    src = Path(engine.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", LAUNCH, SILENT_LINE_PEAK],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 60.0, f"peak RSS {float(proc.stdout):.1f} MB"


def test_a_validated_table_stores_the_heard_links_only():
    # 1,000 silent relays 1 m apart, the sink at one end and the joiner at the other
    nodes = [NodeSpec(nid, (float(nid), 0.0), ci_ms=1e300) for nid in range(1, 1001)]
    s = Scenario(name="silent", nodes=nodes, sink_id=1, new_node_id=1000)
    validate_scenario(s)
    reach = math.floor(s.radio.max_range_m())  # 13 m: a relay hears 13 on each side
    stored = {(at, frm) for at, row in s.layout.links._rows.items() for frm in row}
    assert stored == {(at, frm) for at in range(1, 1001)
                      for frm in range(max(1, at - reach), min(1000, at + reach) + 1) if frm != at}


def _reference_acceptable(s):
    """gen_random_scenario's per-try verdict as it was when every try was
    made a Scenario first: the same checks, heard through s.layout. The
    floor is at or above the receive threshold, so an unheard link, kept
    in no row, is below it."""
    links = s.layout.links

    def rssi(at, frm):
        return links.heard(at).get(frm, -math.inf)

    existing = [n.id for n in s.nodes if n.id != s.new_node_id]
    floor = max(s.thresholds.rl_min_dbm, s.radio.rx_threshold_dbm)
    seen, frontier = {existing[0]}, [existing[0]]
    while frontier:
        cur = frontier.pop()
        for other in existing:
            if other not in seen and rssi(cur, other) >= floor:
                seen.add(other)
                frontier.append(other)
    if len(seen) != len(existing):
        return False
    usable = [nid for nid in existing if rssi(s.new_node_id, nid) >= floor]
    if len(usable) < 2:
        return False
    for algo in ALGOS:
        net = s.layout.network(s, algo)
        if sum(1 for nid in existing if net.nodes[nid].master is not None) != len(existing) - 1:
            return False
        paths = [net.path_to_root(u) for u in usable]
        if len({path[-2] if len(path) >= 2 else u for u, path in zip(usable, paths)}) < 2:
            return False
    return True


def _reference_gen(n_nodes, seed, area_m, max_retries):
    """gen_random_scenario's loop as it was: a Scenario built for every try."""
    rng = random.Random(f"scatterjoin-scenario:{seed}")
    for _ in range(max_retries):
        nodes = []
        for nid in range(1, n_nodes + 1):
            pos = (rng.uniform(0.0, area_m), rng.uniform(0.0, area_m))
            ci = rng.choice(scenario.CI_TIERS_MS)
            rate = 0.0 if nid in (1, n_nodes) else rng.choice(scenario.RATE_TIERS_PPS)
            nodes.append(NodeSpec(nid, pos, ci_ms=ci, traffic_rate_pps=rate))
        s = Scenario(name=f"random{n_nodes}-seed{seed}", nodes=nodes,
                     sink_id=1, new_node_id=n_nodes)
        if _reference_acceptable(s):
            return s
    raise GenerationError(
        f"no viable layout after {max_retries} tries (seed {seed}); "
        "try a smaller area or more nodes")


@settings(max_examples=150, deadline=None)
@given(n_nodes=st.integers(3, 24), area_m=st.floats(8.0, 40.0),
       seed=st.integers(0, 10 ** 6), max_retries=st.integers(1, 6))
def test_generation_equals_a_scenario_built_per_try(n_nodes, area_m, seed, max_retries):
    def outcome(gen):
        try:
            s = gen(n_nodes, seed, area_m, max_retries)
        except GenerationError as e:
            return str(e)
        return scenario_to_dict(s), s.layout.attaches, s.layout.links._rows

    assert outcome(gen_random_scenario) == outcome(_reference_gen)


def test_an_accepted_layout_builds_one_scenario(monkeypatch):
    built, tries = [], []
    real_post_init, real_acceptable = Scenario.__post_init__, scenario._acceptable

    def counting_post_init(self):
        built.append(self.name)
        real_post_init(self)

    def counting_acceptable(s):
        tries.append(s)
        return real_acceptable(s)

    monkeypatch.setattr(Scenario, "__post_init__", counting_post_init)
    monkeypatch.setattr(scenario, "_acceptable", counting_acceptable)
    for n_nodes, seed in [(16, seed) for seed in range(20)] + [(64, 0), (6, 3)]:
        built.clear()
        s = gen_random_scenario(n_nodes=n_nodes, seed=seed)
        assert built == [s.name]
        assert s.layout.attaches.keys() == set(ALGOS)  # handed over, not built again
    assert len(tries) > 22  # most layouts took several tries


@pytest.mark.parametrize("area_m", [math.nan, math.inf, 0.0, -5.0])
def test_bad_area_rejected(area_m):
    with pytest.raises(GenerationError, match="area_m: must be > 0 and finite"):
        gen_random_scenario(n_nodes=8, seed=0, area_m=area_m)


def test_too_few_nodes_rejected():
    with pytest.raises(GenerationError):
        gen_random_scenario(n_nodes=2, seed=0)


def test_scenario_to_dict_is_json_safe():
    s = training11()
    json.dumps(scenario_to_dict(s))


def test_readme_example_scenario_parses_and_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b.split("\n", 1)[1] for b in readme.split("```")[1::2] if b.startswith("json\n")]
    doc = json.loads(block)
    s = parse_scenario(doc)
    assert (s.sink_id, s.new_node_id) == (1, 5)
    for name, cls in [("radio", RadioParams), ("engine", EngineParams),
                      ("weights", ScoreWeights), ("thresholds", Thresholds)]:
        defaults = {f.name: f.default for f in fields(cls)}
        assert doc[name] == defaults, name
