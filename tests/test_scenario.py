import json
import math
from dataclasses import replace

import pytest

from scatterjoin.scenario import (GenerationError, ScenarioError, Thresholds,
                                  check_ranges, gen_random_scenario, load_scenario,
                                  parse_scenario, scenario_to_dict,
                                  training11, validate_scenario,
                                  write_scenario)


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
    s = replace(training11(), thresholds=Thresholds(**{field: value}))
    with pytest.raises(ScenarioError, match=rf"thresholds\.{field}"):
        check_ranges(s)


def test_boundary_threshold_values_accepted():
    parse_scenario(minimal_doc(thresholds={"b_fair": 0, "theta_sat": 1.0}))


def _node_override(i, **fields):
    doc = minimal_doc()
    doc["nodes"][i].update(fields)
    return doc


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
        assert s.node(1).traffic_rate_pps == 0.0
        assert s.node(s.new_node_id).traffic_rate_pps == 0.0


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


def test_too_few_nodes_rejected():
    with pytest.raises(GenerationError):
        gen_random_scenario(n_nodes=2, seed=0)


def test_scenario_to_dict_is_json_safe():
    s = training11()
    json.dumps(scenario_to_dict(s))
