"""Golden digest: trial results must stay bit-identical across refactors.

The digest is a sha256 over the canonical text of every TrialResult in
GOLDEN_CASES, every field included (probe records too) and floats written
with repr. A change to any simulated number changes the digest.
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import scatterjoin
from scatterjoin.channel import RadioParams
from scatterjoin.engine import Layout, build_network, make_network, run_trial
from scatterjoin.scenario import (EngineParams, NodeSpec, Scenario,
                                  gen_random_scenario, scenario_to_dict,
                                  training11)

FAST = EngineParams(warmup_ms=1000.0, measure_ms=5000.0, max_wait_ms=2000.0)

GOLDEN = "5bb22acc301a79048903791d4759516d87830c47f1e1e8e05dc45ab1a4fabf3c"

# Fractional and scaled connection intervals: a link's slots are the
# accumulated sums ci, ci+ci, ..., which drift from k*ci in the last bits,
# so these cases pin the exact slot times, ties between links with equal
# intervals, and overflow drops under b_max=5 and n_ce=1.
GOLDEN_GRID = "e70279283469bdba62d2ab32f31c216d0a5cb792b2d0402033408932a6864b97"
FRAC_CI = (33.3, 7.7, 12.9, 41.1, 12.9, 66.7, 7.7, 19.3, 27.1, 33.3, 51.7, 12.9)

# Generated layouts: every accept/reject decision of gen_random_scenario
# over these (n_nodes, seeds, area_m) families, as the files it writes.
GOLDEN_LAYOUTS = "c58a142eb7fa78ad75013008edae8b0c417aa25ba1581033b785983cf0d3b508"
LAYOUT_FAMILIES = ((16, range(150), 30.0), (10, range(100), 24.0), (64, range(16), 30.0))


def canon(x) -> str:
    if dataclasses.is_dataclass(x):
        inner = ",".join(f"{f.name}={canon(getattr(x, f.name))}"
                         for f in dataclasses.fields(x))
        return f"{type(x).__name__}({inner})"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(x.items())) + "}"
    return repr(x)


def unjoinable() -> Scenario:
    nodes = [NodeSpec(1, (0.0, 0.0)), NodeSpec(2, (9.0, 0.0)),
             NodeSpec(3, (100.0, 100.0))]
    return Scenario(name="isolated", nodes=nodes, sink_id=1, new_node_id=3,
                    engine=FAST, declared_unjoinable=True)


def lone_sink() -> Scenario:
    """The sink alone plus a joiner with a higher id, 5 m away."""
    nodes = [NodeSpec(1, (0.0, 0.0)), NodeSpec(5, (5.0, 0.0))]
    return Scenario(name="lone-sink", nodes=nodes, sink_id=1, new_node_id=5,
                    engine=FAST)


def golden_cases():
    t11 = training11()
    shadowed = replace(t11, radio=RadioParams(shadowing_sigma_db=4.0))
    cases = [(t11, seed) for seed in (0, 1, 2)]
    cases += [(gen_random_scenario(n_nodes=16, seed=3), 3),
              (gen_random_scenario(n_nodes=64, seed=1), 1),
              (shadowed, 11), (unjoinable(), 0), (lone_sink(), 0)]
    return [(s, algo, seed) for s, seed in cases for algo in ("baseline", "scored")]


def training11_fractional() -> Scenario:
    t11 = training11()
    nodes = [replace(n, ci_ms=ci, b_max=5) for n, ci in zip(t11.nodes, FRAC_CI)]
    return replace(t11, name="training11-frac", nodes=nodes,
                   engine=EngineParams(warmup_ms=3000.0, measure_ms=30000.0,
                                       max_wait_ms=3000.0, n_ce=1, probe_rate=7.3))


def random16_scaled() -> Scenario:
    r = gen_random_scenario(n_nodes=16, seed=5)
    return replace(r, name=r.name + "-ci0.37",
                   nodes=[replace(n, ci_ms=n.ci_ms * 0.37) for n in r.nodes])


def grid_cases():
    cases = [(training11_fractional(), 0), (training11_fractional(), 1),
             (random16_scaled(), 5)]
    return [(s, algo, seed) for s, seed in cases for algo in ("baseline", "scored")]


# Busy buffers: short and fractional intervals, tiny buffers and fast
# sources, so most arrivals land on a buffer that already holds a packet,
# plus roots that never drain and joins that never happen. These pin the
# order in which such arrivals meet connection events, probes, the joinMe
# round and the trial's end.
GOLDEN_BUSY = "251d6f44ad7f417ec33d61a2ab716c1a39272f67e9dd50eb4ed5561a4a30e02f"
BUSY_CI = (7.7, 12.9, 33.3, 50.0, 100.0)
BUSY_RATES = (0.0, 2.0, 9.1, 20.0, 55.5)
BUSY_ENGINE = EngineParams(warmup_ms=1500.0, measure_ms=3000.0, max_wait_ms=1000.0)


def busy_layout(i: int, rng: random.Random) -> Scenario:
    """Random layout i with drawn intervals, buffers, rates and engine; every
    third one swaps the joiner's id with a relay's, so ids sort both ways
    around the joiner's."""
    base = gen_random_scenario(n_nodes=(6, 10, 16)[i % 3], seed=i, area_m=24.0)
    new_id = base.new_node_id
    nodes = [replace(n, ci_ms=rng.choice(BUSY_CI), b_max=rng.choice((1, 2, 3, 30)),
                     traffic_rate_pps=0.0 if n.id in (1, new_id) else rng.choice(BUSY_RATES))
             for n in base.nodes]
    if i % 3 == 2:
        other = rng.randrange(2, new_id)
        swap = {other: new_id, new_id: other}
        nodes = [replace(n, id=swap.get(n.id, n.id)) for n in nodes]
        new_id = other
    return replace(base, name=f"busy{i}", nodes=nodes, new_node_id=new_id,
                   radio=RadioParams(shadowing_sigma_db=rng.choice((0.0, 4.0))),
                   engine=replace(BUSY_ENGINE, n_ce=rng.choice((1, 2, 4)),
                                  probe_rate=rng.choice((10.0, 33.0))))


def busy_cases():
    rng = random.Random("scatterjoin-golden-busy")
    t11 = training11()
    # a 20 pps root nobody hears: its buffer fills and never drains
    stranded = replace(t11, name="training11-stranded", engine=BUSY_ENGINE,
                       nodes=t11.nodes + (NodeSpec(13, (500.0, 500.0), ci_ms=12.9, b_max=3,
                                                   traffic_rate_pps=20.0),))
    # the joiner hears nobody, so the trial ends at the last joinMe round
    lost = replace(t11, name="training11-lost", engine=BUSY_ENGINE, declared_unjoinable=True,
                   nodes=t11.nodes[:-1] + (replace(t11.nodes[-1], pos=(300.0, 300.0)),))
    cases = [(busy_layout(i, rng), i) for i in range(40)]
    cases += [(stranded, 0), (stranded, 1), (lost, 0)]
    return [(s, algo, seed) for s, seed in cases for algo in ("baseline", "scored")]


def golden_digest(cases=None) -> str:
    h = hashlib.sha256()
    for s, algo, seed in golden_cases() if cases is None else cases:
        h.update(f"{s.name}:{algo}:{seed}=".encode())
        h.update(canon(run_trial(s, algo, seed)).encode() + b"\n")
    return h.hexdigest()


def layouts_digest() -> str:
    h = hashlib.sha256()
    for n_nodes, seeds, area_m in LAYOUT_FAMILIES:
        for seed in seeds:
            s = gen_random_scenario(n_nodes=n_nodes, seed=seed, area_m=area_m)
            h.update(json.dumps(scenario_to_dict(s), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_trial_results_match_golden_digest():
    assert golden_digest() == GOLDEN


def test_golden_digest_holds_under_optimized_python():
    # python -O strips every assert, so no result may depend on one
    src, here = Path(scatterjoin.__file__).resolve().parents[1], Path(__file__).resolve().parent
    code = "import sys, test_golden; print(sys.flags.optimize, test_golden.golden_digest())"
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{here}"})
    assert proc.stdout.split() == ["1", GOLDEN], proc.stderr


def test_grid_results_match_golden_digest():
    assert golden_digest(grid_cases()) == GOLDEN_GRID


def test_busy_results_match_golden_digest():
    assert golden_digest(busy_cases()) == GOLDEN_BUSY


def test_generated_layouts_match_golden_digest():
    assert layouts_digest() == GOLDEN_LAYOUTS


def test_grid_cases_cover_overflow_drops():
    drops = [run_trial(s, algo, seed).total_dropped for s, algo, seed in grid_cases()]
    assert all(d > 0 for d in drops[:4])  # every training11-frac trial
    assert drops[4] > 0                   # random16 baseline


def test_golden_covers_failed_joins():
    results = {(s.name, algo): run_trial(s, algo, seed)
               for s, algo, seed in golden_cases() if s.name in ("isolated", "lone-sink")}
    assert not results[("isolated", "baseline")].joined
    assert not results[("isolated", "scored")].joined
    # the joinMe rule refuses a lone sink with a lower cluster id ...
    assert not results[("lone-sink", "baseline")].joined
    assert results[("lone-sink", "scored")].chosen_parent == 1


def test_baseline_build_phase_attaches_to_lone_sink():
    # ... while the build phase takes the strongest heard sink-cluster member
    s = Scenario("lone-sink-build", [NodeSpec(1, (0.0, 0.0)), NodeSpec(5, (5.0, 0.0)),
                                     NodeSpec(9, (100.0, 0.0))], new_node_id=9)
    net = make_network(s)
    build_network(net, "baseline", Layout(s).links, s)
    assert net.nodes[5].master == 1
