"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to watch the lines live. The
heavyweight comparisons are shared module-scoped fixtures, so the whole
gate stays well inside the five-minute budget.
"""

import random
import time
from dataclasses import replace

import pytest

from scatterjoin.channel import Position, RadioParams, hears
from scatterjoin.cli import cmd_compare
from scatterjoin.engine import Layout, make_network, run_trial
from scatterjoin.join_scored import ScoreWeights, score_candidate, select_parent
from scatterjoin.scenario import EngineParams, gen_random_scenario, training11

from test_join_scored import brute_force_select, random_candidate, scaled

W = ScoreWeights()


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def random16():
    t0 = time.time()
    base, prop, imp, _ = cmd_compare(random_nodes=16, trials=100, seed_base=0)
    return base, prop, imp, time.time() - t0


@pytest.fixture(scope="module")
def training100():
    base, prop, imp, _ = cmd_compare(scenario=training11(), trials=100, seed_base=0)
    return base, prop, imp


def test_criterion_1_directional_reproduction_random_family(random16):
    base, prop, imp, elapsed = random16
    ok = (imp.delay_gain >= 0.15 and imp.pdr_gain >= 0.03
          and imp.sat_reduction_pp >= 15.0 and elapsed < 300.0)
    report("criterion 1 (random-16 directional gains)", ok,
           f"delay_gain={imp.delay_gain:.3f} (>=0.15), "
           f"pdr_gain={imp.pdr_gain:.3f} (>=0.03), "
           f"sat_reduction={imp.sat_reduction_pp:.1f}pp (>=15), "
           f"elapsed={elapsed:.1f}s (<300)")


def test_criterion_2_avoid_sat_training11(training100):
    base, prop, _ = training100
    ok = (prop.avoid_sat is not None and prop.avoid_sat >= 0.60
          and prop.pct_sat < base.pct_sat)
    report("criterion 2 (training11 saturation avoidance)", ok,
           f"scored avoid_sat={prop.avoid_sat:.2f} (>=0.60), "
           f"scored pct_sat={prop.pct_sat:.2f} < baseline {base.pct_sat:.2f}")


def test_criterion_3_variance_reduction_training11(training100):
    base, prop, _ = training100
    ok = prop.sigma_d_ms < base.sigma_d_ms
    report("criterion 3 (training11 delay deviation sign)", ok,
           f"scored sigma_d={prop.sigma_d_ms:.1f}ms < "
           f"baseline sigma_d={base.sigma_d_ms:.1f}ms")


def test_criterion_4_selection_matches_brute_force():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(10_000):
        ids = rng.sample(range(1, 60), rng.randint(1, 10))
        cands = [random_candidate(rng, i, cluster_size=rng.randint(1, 3))
                 for i in ids]
        if select_parent(cands, W) != brute_force_select(cands, W):
            mismatches += 1
    report("criterion 4 (selection vs brute-force oracle)", mismatches == 0,
           f"{mismatches} mismatches in 10000 random candidate lists")


def test_criterion_5_score_properties():
    rng = random.Random(555)
    violations = 0
    for _ in range(1_000):
        c = random_candidate(rng, 1)
        s = score_candidate(c, W)
        bump = rng.uniform(0.05, 8.0)
        if score_candidate(c._replace(m=c.m + 1), W) > s:
            violations += 1
        if score_candidate(c._replace(h=c.h + 1), W) > s:
            violations += 1
        if score_candidate(c._replace(b=c.b + 1), W) > s:
            violations += 1
        if score_candidate(c._replace(ci_ms=c.ci_ms + bump), W) > s:
            violations += 1
        if score_candidate(c._replace(rl_dbm=c.rl_dbm + bump), W) < s:
            violations += 1
        if c.rn_dbm is not None and score_candidate(c._replace(rn_dbm=c.rn_dbm + bump), W) < s:
            violations += 1
    scaling_violations = 0
    for _ in range(1_000):
        ids = rng.sample(range(1, 50), rng.randint(1, 10))
        cands = [random_candidate(rng, i) for i in ids]
        factor = rng.uniform(0.1, 50.0)
        if select_parent(cands, W) != select_parent(cands, scaled(W, factor)):
            scaling_violations += 1
    ok = violations == 0 and scaling_violations == 0
    report("criterion 5 (score monotonicity and scale invariance)", ok,
           f"{violations} monotonicity and {scaling_violations} scaling "
           f"violations over 1000 cases each")


def test_criterion_6_structural_invariants_across_buildups():
    checked = 0
    attaches = 0

    def tree(net):
        return [(n.master, list(n.slaves), n.cluster_id, n.cluster_size, n.hops_to_sink)
                for n in net.nodes.values()]

    for seed in range(500):
        s = gen_random_scenario(n_nodes=10, seed=seed, area_m=24.0)
        for algo in ("baseline", "scored"):
            layout = Layout(s)
            net = layout.network(s, algo)  # a fresh build, which records its attaches
            net.check_invariants()
            # the build's attaches, one at a time: every state the build passed through
            replay = make_network(s)
            for child, parent in layout.attaches[algo]:
                replay.attach(child, parent)
                attaches += 1
                replay.check_invariants()
                assert replay.nodes[child].hops_to_sink == replay.nodes[parent].hops_to_sink + 1
            assert tree(replay) == tree(net)
            checked += 1
    report("criterion 6 (structural invariants)", checked == 1000,
           f"{checked} build-ups, {attaches} attaches, zero violations")


def test_criterion_7_conservation_and_determinism():
    fast = EngineParams(warmup_ms=1000.0, measure_ms=5000.0, max_wait_ms=2000.0)
    bad_conservation = 0
    bad_repeats = 0
    for i in range(100):
        n = 8 + (i % 5)
        s = gen_random_scenario(n_nodes=n, seed=1000 + i,
                                area_m=30.0 * (n / 16.0) ** 0.5)
        s = replace(s, engine=fast)
        algo = "scored" if i % 2 else "baseline"
        a = run_trial(s, algo, 1000 + i)
        b = run_trial(s, algo, 1000 + i)
        if a != b:
            bad_repeats += 1
        if a.total_sent != a.total_delivered + a.total_dropped + a.total_in_flight:
            bad_conservation += 1
        if a.probe_sent != a.probe_delivered + a.probe_dropped + a.probe_in_flight:
            bad_conservation += 1
    ok = bad_conservation == 0 and bad_repeats == 0
    report("criterion 7 (conservation and determinism)", ok,
           f"100 triples: {bad_conservation} conservation and "
           f"{bad_repeats} reproducibility failures")


def test_criterion_8_channel_calibration():
    params = RadioParams()
    origin = Position(0.0, 0.0)
    near_misses = [k / 10.0 for k in range(1, 131)
                   if not hears(origin, Position(k / 10.0, 0.0), params)[0]]
    far_hits = [k / 10.0 for k in range(140, 301)
                if hears(origin, Position(k / 10.0, 0.0), params)[0]]
    ok = not near_misses and not far_hits
    report("criterion 8 (channel range calibration)", ok,
           f"all 0.1m grid points <=13.0m heard and >=14.0m silent "
           f"(missed near: {near_misses[:3]}, heard far: {far_hits[:3]})")
