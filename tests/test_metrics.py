import math
import random
import statistics
import sys

import pytest
from hypothesis import given, settings, strategies as st

from scatterjoin.cli import format_summary
from scatterjoin.engine import (ALGOS, ProbeRecord, TrialResult,
                                branch_saturated, run_trial)
from scatterjoin.metrics import (AggregateError, AggregateReport, aggregate,
                                 compare, delay_stats, pdr, trial_row)
from scatterjoin.scenario import NodeSpec, Scenario, training11


def verdict(t, theta_sat=0.8):
    """The engine's saturation predicate over a result's window figures."""
    return branch_saturated(
        t.path_to_sink, 1, theta_sat,
        lambda nid: (t.buffer_avg[nid], t.overflow_drops[nid], t.node_b_max[nid]))


def make_trial(algo="scored", seed=0, delays=(200.0, 300.0), dropped=0,
               in_flight=0, path=(9, 5, 1), buffer_avg=None, drops=None,
               b_max=30, eligible=False, avoided=False, joined=True):
    probes = []
    seq = 0
    for d in delays:
        seq += 1
        probes.append(ProbeRecord(seq, 1000.0, 1000.0 + d, False, len(path) - 1))
    for _ in range(dropped):
        seq += 1
        probes.append(ProbeRecord(seq, 1000.0, None, True))
    for _ in range(in_flight):
        seq += 1
        probes.append(ProbeRecord(seq, 1000.0, None, False))
    sent = len(probes)
    nodes = set(path) | {1}
    t = TrialResult(
        trial_seed=seed, algo=algo, joined=joined,
        chosen_parent=path[1] if joined and len(path) > 1 else None,
        join_time_ms=200.0 if joined else None,
        hops_at_join=len(path) - 1 if joined else None,
        path_to_sink=list(path) if joined else [],
        probes=probes if joined else [],
        probe_sent=sent if joined else 0,
        probe_delivered=len(delays) if joined else 0,
        probe_dropped=dropped if joined else 0,
        probe_in_flight=in_flight if joined else 0,
        total_sent=sent, total_delivered=len(delays), total_dropped=dropped,
        total_in_flight=in_flight,
        buffer_avg=buffer_avg if buffer_avg is not None else {n: 0.0 for n in nodes},
        overflow_drops=drops if drops is not None else {n: 0 for n in nodes},
        node_b_max={n: b_max for n in nodes},
        sat_branch=None, eligible_sat=eligible, avoided_sat=avoided)
    if joined:
        t.sat_branch = verdict(t)
    return t


def rows_of(trials):
    """The rows aggregate reads, one per trial, numbered in order."""
    return [trial_row(i, t) for i, t in enumerate(trials)]


def reference_aggregate(trials: list[TrialResult]) -> AggregateReport:
    """aggregate as it was written over TrialResults, before it read rows."""
    if not trials:
        raise AggregateError("no trials to aggregate")
    algos = {t.algo for t in trials}
    if len(algos) != 1:
        raise AggregateError(f"mixed algorithms in one aggregate: {sorted(algos)}")
    joined = [t for t in trials if t.joined]
    if not joined:
        raise AggregateError("zero joined trials")

    delay_means = []
    n_undefined = 0
    for t in joined:
        ds = delay_stats(t)
        if ds is None:
            n_undefined += 1
        else:
            delay_means.append(ds[0])
    delay_means.sort()
    pdrs = sorted(pdr(t) for t in joined)

    eligible = [t for t in joined if t.eligible_sat]
    avoided = sum(1 for t in eligible if t.avoided_sat)

    return AggregateReport(
        algo=trials[0].algo,
        n_trials=len(trials),
        n_joined=len(joined),
        mu_d_ms=statistics.fmean(delay_means) if delay_means else None,
        sigma_d_ms=(statistics.stdev(delay_means) if len(delay_means) > 1
                    else (0.0 if delay_means else None)),
        mu_pdr=statistics.fmean(pdrs),
        sigma_pdr=statistics.stdev(pdrs) if len(pdrs) > 1 else 0.0,
        pct_sat=sum(t.sat_branch for t in joined) / len(joined),
        avoid_sat=(avoided / len(eligible)) if eligible else None,
        mean_hops=statistics.fmean(sorted(t.hops_at_join for t in joined)),
        n_eligible_sat_trials=len(eligible),
        n_delay_undefined=n_undefined,
    )


def test_delay_stats_two_samples():
    t = make_trial(delays=(200.0, 300.0))
    mu, sigma = delay_stats(t)
    assert mu == 250.0
    assert sigma == pytest.approx(statistics.stdev([200.0, 300.0]))
    assert sigma == pytest.approx(70.71067811865476)


def test_delay_stats_single_sample_has_zero_deviation():
    assert delay_stats(make_trial(delays=(236.0,))) == (236.0, 0.0)


# finite and non-negative, down to subnormals; capped so that fmean's sum of
# up to 700 values stays finite, since the mean is not under test here
_DELAY = st.floats(0.0, sys.float_info.max / 1024)


@st.composite
def delay_lists(draw):
    """2-700 delays: free draws, one value repeated, two values mixed, or
    a band of magnitudes around a drawn power of two."""
    n = draw(st.integers(2, 700))
    kind = draw(st.sampled_from(("free", "equal", "two", "band")))
    if kind == "free":
        return draw(st.lists(_DELAY, min_size=n, max_size=n))
    if kind == "equal":
        return [draw(_DELAY)] * n
    if kind == "two":
        a, b = draw(_DELAY), draw(_DELAY)
        return [a if pick else b for pick in draw(st.lists(st.booleans(), min_size=n, max_size=n))]
    e = draw(st.integers(-1074, 1012))
    return draw(st.lists(st.floats(0.0, math.ldexp(1.0, e + 1)).map(lambda x: x + math.ldexp(1.0, e)),
                         min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(delays=delay_lists())
def test_delay_deviation_is_stdev_bit_for_bit(delays):
    probes = [ProbeRecord(k, 0.0, x) for k, x in enumerate(delays)]
    mu, sigma = delay_stats(TrialResult(trial_seed=0, algo="scored", probes=probes))
    want = statistics.stdev(delays)
    assert sigma == want and math.copysign(1.0, sigma) == math.copysign(1.0, want), delays
    assert mu == statistics.fmean(delays)


def test_delay_undefined_when_nothing_delivered():
    assert delay_stats(make_trial(delays=(), dropped=3)) is None


def test_pdr_ratio():
    t = make_trial(delays=tuple(range(546)), dropped=54)
    assert t.probe_sent == 600
    assert pdr(t) == pytest.approx(0.91)


def test_pdr_perfect_delivery():
    assert pdr(make_trial(delays=(100.0, 110.0))) == 1.0


def test_pdr_undefined_without_probes():
    t = make_trial(joined=False)
    assert pdr(t) is None


def test_saturation_threshold_rule():
    hot = make_trial(buffer_avg={9: 27.0, 5: 0.0, 1: 0.0})
    assert verdict(hot) is True
    assert verdict(hot, theta_sat=0.95) is False
    idle = make_trial(buffer_avg={9: 0.0, 5: 0.0, 1: 0.0})
    assert verdict(idle) is False


def test_saturation_boundary_inclusive():
    edge = make_trial(buffer_avg={9: 24.0, 5: 0.0, 1: 0.0})  # exactly 0.8 * 30
    assert verdict(edge, theta_sat=0.8) is True
    assert verdict(edge, theta_sat=0.81) is False


def test_saturation_from_overflow_drops():
    t = make_trial(drops={9: 0, 5: 1, 1: 0})
    assert verdict(t) is True
    assert verdict(t, theta_sat=100.0) is True


def test_sink_excluded_from_saturation():
    t = make_trial(buffer_avg={9: 0.0, 5: 0.0, 1: 30.0}, drops={9: 0, 5: 0, 1: 4})
    assert verdict(t) is False


def test_saturation_undefined_for_failed_join():
    s = Scenario(name="isolated", nodes=[NodeSpec(1, (0.0, 0.0)), NodeSpec(2, (9.0, 0.0)),
                                         NodeSpec(3, (100.0, 100.0))],
                 sink_id=1, new_node_id=3, declared_unjoinable=True)
    t = run_trial(s, "scored", 0)
    assert not t.joined
    assert t.sat_branch is None
    assert trial_row(0, t)["sat_branch"] is None


def test_aggregate_single_trial_reproduces_trial_stats():
    t = make_trial(delays=(120.0, 180.0), dropped=2, eligible=True, avoided=True)
    r = aggregate(rows_of([t]))
    assert r.mu_d_ms == delay_stats(t)[0]
    assert r.sigma_d_ms == 0.0
    assert r.mu_pdr == pdr(t)
    assert r.sigma_pdr == 0.0
    assert r.pct_sat == float(t.sat_branch)
    assert r.avoid_sat == 1.0
    assert r.mean_hops == t.hops_at_join
    assert r.n_eligible_sat_trials == 1


def test_aggregate_avoid_sat_ratio():
    trials = []
    for i in range(10):
        trials.append(make_trial(seed=i, eligible=True, avoided=i < 7))
    trials.append(make_trial(seed=10, eligible=False))
    trials.append(make_trial(seed=11, eligible=False))
    r = aggregate(rows_of(trials))
    assert r.n_eligible_sat_trials == 10
    assert r.avoid_sat == pytest.approx(0.70)


def test_avoid_sat_absent_without_eligible_trials():
    r = aggregate(rows_of([make_trial(seed=i, eligible=False) for i in range(3)]))
    assert r.avoid_sat is None
    assert r.n_eligible_sat_trials == 0


def test_failed_joins_excluded_and_counted():
    trials = [make_trial(seed=0), make_trial(seed=1, joined=False)]
    r = aggregate(rows_of(trials))
    assert r.n_trials == 2
    assert r.n_joined == 1
    with pytest.raises(AggregateError, match="zero joined trials"):
        aggregate(rows_of([make_trial(joined=False)]))


def test_aggregate_rejects_mixed_algorithms():
    with pytest.raises(ValueError):
        aggregate(rows_of([make_trial(algo="scored"), make_trial(algo="baseline")]))


def test_aggregate_order_independent():
    trials = [make_trial(seed=i, delays=(100.0 + 7 * i, 150.0 + 3 * i),
                         eligible=i % 2 == 0, avoided=i % 4 == 0)
              for i in range(12)]
    r1 = aggregate(rows_of(trials))
    shuffled = list(trials)
    random.Random(5).shuffle(shuffled)
    r2 = aggregate(rows_of(shuffled))
    assert r1 == r2


def test_compare_worked_examples():
    base = aggregate(rows_of([make_trial(algo="baseline", delays=(376.0, 376.0))]))
    prop = aggregate(rows_of([make_trial(algo="scored", delays=(277.0, 277.0))]))
    imp = compare(base, prop)
    assert imp.delay_gain == pytest.approx((376.0 - 277.0) / 376.0)
    assert round(imp.delay_gain, 3) == 0.263


def test_compare_pdr_gain():
    base = aggregate(rows_of([make_trial(algo="baseline", delays=tuple(range(82)),
                                         dropped=18)]))
    prop = aggregate(rows_of([make_trial(algo="scored", delays=tuple(range(89)),
                                         dropped=11)]))
    imp = compare(base, prop)
    assert imp.pdr_gain == pytest.approx((0.89 - 0.82) / 0.82)
    assert round(imp.pdr_gain, 3) == 0.085


def test_compare_sat_reduction_in_percentage_points():
    sat = make_trial(algo="baseline", buffer_avg={9: 30.0, 5: 0.0, 1: 0.0})
    clean = make_trial(algo="baseline", seed=1)
    base_trials = [sat] * 3 + [clean] * 7                      # 30% saturated
    prop_sat = make_trial(algo="scored", buffer_avg={9: 30.0, 5: 0.0, 1: 0.0})
    prop_trials = [prop_sat] * 3 + [make_trial(algo="scored", seed=1)] * 47
    imp = compare(aggregate(rows_of(base_trials)), aggregate(rows_of(prop_trials)))
    assert imp.sat_reduction_pp == pytest.approx(30.0 - 6.0)


def test_delay_gain_undefined_when_a_side_delivered_nothing():
    delivered = aggregate(rows_of([make_trial(algo="baseline", delays=(300.0,), dropped=1)]))
    silent = aggregate(rows_of([make_trial(algo="scored", delays=(), dropped=2)]))
    assert silent.mu_d_ms is None
    for base, prop in ((delivered, silent), (silent, delivered)):
        imp = compare(base, prop)
        assert imp.delay_gain is None
        assert "delay_gain -" in format_summary(base, prop, imp)


def test_pdr_gain_undefined_when_baseline_delivered_nothing():
    base = aggregate(rows_of([make_trial(algo="baseline", delays=(), dropped=2)]))
    prop = aggregate(rows_of([make_trial(algo="scored", delays=(250.0,), dropped=1)]))
    assert base.mu_pdr == 0.0
    imp = compare(base, prop)
    assert imp.pdr_gain is None
    assert imp.sat_reduction_pp == 0.0
    assert "pdr_gain -" in format_summary(base, prop, imp)
    assert compare(prop, base).pdr_gain == pytest.approx(-1.0)


def test_compare_with_itself_is_all_zero():
    r = aggregate(rows_of([make_trial(seed=i) for i in range(4)]))
    imp = compare(r, r)
    assert imp.delay_gain == 0.0
    assert imp.pdr_gain == 0.0
    assert imp.sat_reduction_pp == 0.0


def test_engine_flag_agrees_with_recount():
    # the engine's own verdict against an independent recount from the
    # recorded per-node window values
    s = training11()
    theta = s.thresholds.theta_sat
    for seed in range(6):
        for algo in ("baseline", "scored"):
            t = run_trial(s, algo, seed)
            recount = any(nid != s.sink_id and (
                t.overflow_drops[nid] > 0
                or t.buffer_avg[nid] >= theta * t.node_b_max[nid])
                for nid in t.path_to_sink)
            assert t.sat_branch == recount


@st.composite
def drawn_trial(draw, algos):
    # a joined trial sends at least one probe, as the engine's window ensures
    delays = draw(st.lists(st.floats(0.5, 5000.0), max_size=4))
    dropped = draw(st.integers(0 if delays else 1, 3))
    path = draw(st.sampled_from([(9, 1), (9, 5, 1), (9, 7, 5, 1)]))
    hot = draw(st.booleans())
    eligible = draw(st.booleans())
    return make_trial(
        algo=draw(st.sampled_from(algos)), seed=draw(st.integers(0, 99)),
        delays=tuple(delays), dropped=dropped, in_flight=draw(st.integers(0, 2)),
        path=path, buffer_avg={n: 27.0 if hot and n != 1 else 0.0 for n in set(path) | {1}},
        eligible=eligible, avoided=eligible and draw(st.booleans()),
        joined=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ALGOS[:1], ALGOS[1:], ALGOS]).flatmap(
    lambda algos: st.lists(drawn_trial(algos), max_size=8)))
def test_aggregate_over_rows_matches_the_trial_reduction(trials):
    try:
        expected = reference_aggregate(trials)
    except AggregateError as e:
        with pytest.raises(AggregateError) as got:
            aggregate(rows_of(trials))
        assert str(got.value) == str(e)
    else:
        got = aggregate(rows_of(trials))
        assert got == expected
        assert repr(got) == repr(expected)  # bit for bit, not just equal floats
