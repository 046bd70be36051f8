import math
import random
import struct
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from scatterjoin import engine
from scatterjoin.engine import TrialEngine
from scatterjoin.join_scored import (WEIGHT_NAMES, CandidateInfo, ScoreWeights, _clamp01,
                                     filter_candidates, score_candidate,
                                     select_parent)
from scatterjoin.scenario import training11

W = ScoreWeights()


def scaled(w: ScoreWeights, factor: float) -> ScoreWeights:
    """w with every weight times factor; the argmax must not move."""
    return replace(w, **{n: getattr(w, n) * factor for n in WEIGHT_NAMES})


def cand(cid, cluster_size=5, m=0, h=0, b=0, ci=7.5, rl=-50.0, rn=-50.0,
         free_out=3, children=(), cluster_id=1):
    return CandidateInfo(id=cid, cluster_id=cluster_id,
                         cluster_size=cluster_size, m=m, h=h, b=b, ci_ms=ci,
                         rl_dbm=rl, rn_dbm=rn, free_out=free_out,
                         children=tuple(children))


def random_candidate(rng, cid, cluster_size=None, children=()):
    coarse = rng.random() < 0.5  # coarse grids force score ties now and then
    if coarse:
        rl = rng.choice([-85.0, -75.0, -65.0, -55.0])
        rn = rng.choice([None, -80.0, -60.0])
        ci = rng.choice([50.0, 100.0, 200.0, 400.0])
        b = rng.choice([0, 5, 30])
        h = rng.choice([0, 1, 2])
        m = rng.choice([0, 1, 2, 3])
    else:
        rl = rng.uniform(-85.0, -50.0)
        rn = rng.choice([None, rng.uniform(-90.0, -50.0)])
        ci = rng.uniform(7.5, 400.0)
        b = rng.randint(0, 30)
        h = rng.randint(0, 6)
        m = rng.randint(0, 3)
    return CandidateInfo(
        id=cid, cluster_id=1,
        cluster_size=cluster_size if cluster_size is not None else rng.randint(1, 8),
        m=m, h=h, b=b, ci_ms=ci, rl_dbm=rl, rn_dbm=rn,
        free_out=rng.randint(1, 3), children=tuple(children))


def brute_force_select(cands, w):
    """Exhaustive scan: max cluster size, then score, then rl, then lowest id."""
    if not cands:
        return None
    biggest = max(c.cluster_size for c in cands)
    best = None
    for c in cands:
        if c.cluster_size != biggest:
            continue
        if best is None:
            best = c
            continue
        sc, sb = score_candidate(c, w), score_candidate(best, w)
        if sc > sb:
            best = c
        elif sc == sb:
            if c.rl_dbm > best.rl_dbm:
                best = c
            elif c.rl_dbm == best.rl_dbm and c.id < best.id:
                best = c
    return best.id


# -- the candidate record ----------------------------------------------


def test_a_candidate_cannot_be_reassigned_and_hashes():
    c = cand(4, children=(5, 6))
    for name in CandidateInfo._fields:
        with pytest.raises(AttributeError):
            setattr(c, name, getattr(c, name))
    assert hash(c) == hash(cand(4, children=(5, 6)))
    assert {c, cand(4, children=(5, 6))} == {c}
    assert c._replace(b=7) == cand(4, b=7, children=(5, 6)) and c.b == 0


# -- scoring -----------------------------------------------------------


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def reference_score(c: CandidateInfo, w: ScoreWeights) -> float:
    """score_candidate as first written: a per-call closure and min/max clamps."""
    def clamp(x):
        return min(max(x, 0.0), 1.0)

    def nr(rssi):
        return clamp((rssi - w.rssi_lo) / (w.rssi_hi - w.rssi_lo))

    rn_term = 1.0 if c.rn_dbm is None else nr(c.rn_dbm)
    return (w.w_m * (1.0 - min(c.m, w.m_max) / w.m_max)
            + w.w_h * (1.0 / (1.0 + c.h))
            + w.w_b * (1.0 - min(c.b, w.b_max) / w.b_max)
            + w.w_ci * (1.0 - clamp((c.ci_ms - w.ci_min_ms) / (w.ci_max_ms - w.ci_min_ms)))
            + w.w_rl * nr(c.rl_dbm)
            + w.w_rn * rn_term)


@given(x=st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1.0, math.nan, -math.inf])))
def test_clamp01_is_min_of_max_bit_for_bit(x):
    assert bits(_clamp01(x)) == bits(min(max(x, 0.0), 1.0))


@given(rssi=st.floats(allow_nan=False), rn=st.one_of(st.none(), st.floats(allow_nan=False)),
       ci=st.floats(0.0, 1e6), m=st.integers(0, 5), h=st.integers(0, 9), b=st.integers(0, 40),
       lo=st.floats(-120.0, -40.0), span=st.floats(1e-3, 80.0))
def test_score_is_the_reference_score_bit_for_bit(rssi, rn, ci, m, h, b, lo, span):
    w = ScoreWeights(rssi_lo=lo, rssi_hi=lo + span)
    c = cand(1, m=m, h=h, b=b, ci=ci, rl=rssi, rn=rn)
    assert bits(score_candidate(c, w)) == bits(reference_score(c, w))
    assert bits(score_candidate(c, W)) == bits(reference_score(c, W))



def test_perfect_candidate_scores_one():
    assert score_candidate(cand(1), W) == pytest.approx(1.0, abs=1e-12)


def test_worked_example():
    # independent term-by-term evaluation with default weights
    c = cand(1, m=0, h=1, b=0, ci=100.0, rl=-60.0, rn=-55.0)
    expected = (0.10 * 1.0
                + 0.20 * (1.0 / 2.0)
                + 0.25 * 1.0
                + 0.20 * (1.0 - (100.0 - 7.5) / (400.0 - 7.5))
                + 0.15 * ((-60.0 + 90.0) / 40.0)
                + 0.10 * ((-55.0 + 90.0) / 40.0))
    got = score_candidate(c, W)
    assert got == pytest.approx(expected, abs=1e-12)
    assert round(got, 3) == 0.803


def test_full_buffer_zeroes_exactly_one_term():
    c = cand(1, b=30)
    assert score_candidate(c, W) == pytest.approx(1.0 - W.w_b, abs=1e-12)


def test_absent_rn_counts_as_perfect_uplink():
    root = cand(1, rn=None)
    assert score_candidate(root, W) == pytest.approx(1.0, abs=1e-12)


def test_inputs_clamp_to_bounds():
    over = cand(1, m=9, b=99, ci=9999.0, rl=-120.0, rn=-10.0)
    got = score_candidate(over, W)
    # m, b, ci, rl terms bottom out; rn term tops out; h stays 1
    assert got == pytest.approx(W.w_h + W.w_rn, abs=1e-12)


def test_score_monotone_in_each_input():
    rng = random.Random(3)
    for _ in range(400):
        c = random_candidate(rng, 1)
        s = score_candidate(c, W)
        bump = rng.uniform(0.1, 5.0)
        assert score_candidate(c._replace(m=c.m + 1), W) <= s
        assert score_candidate(c._replace(h=c.h + 1), W) <= s
        assert score_candidate(c._replace(b=c.b + 1), W) <= s
        assert score_candidate(c._replace(ci_ms=c.ci_ms + bump), W) <= s
        assert score_candidate(c._replace(rl_dbm=c.rl_dbm + bump), W) >= s
        if c.rn_dbm is not None:
            assert score_candidate(c._replace(rn_dbm=c.rn_dbm + bump), W) >= s


def test_weight_validation():
    with pytest.raises(ValueError):
        ScoreWeights(w_m=-0.1)
    with pytest.raises(ValueError):
        ScoreWeights(w_m=0, w_h=0, w_b=0, w_ci=0, w_rl=0, w_rn=0)
    with pytest.raises(ValueError):
        ScoreWeights(ci_min_ms=400.0, ci_max_ms=7.5)
    with pytest.raises(ValueError):
        ScoreWeights(rssi_lo=-50.0, rssi_hi=-90.0)
    with pytest.raises(ValueError, match="m_max"):
        ScoreWeights(m_max=0)    # divides in score_candidate
    with pytest.raises(ValueError, match="b_max"):
        ScoreWeights(b_max=0)


@pytest.mark.parametrize("field,message", [
    ("w_b", "weights must be >= 0"),  # used to read as "must not all be zero"
    ("m_max", "m_max must be >= 1"),  # used to be accepted and to change the pick
    ("b_max", "b_max must be >= 1"),
])
def test_nan_weights_rejected_by_name(field, message):
    with pytest.raises(ValueError, match=message):
        ScoreWeights(**{field: math.nan})


@pytest.mark.parametrize("field,value", [(f.name, math.inf) for f in fields(ScoreWeights)]
                         + [("ci_min_ms", -math.inf), ("rssi_lo", -math.inf)])
def test_infinite_weights_rejected_by_name(field, value):
    # w_b=inf used to make scored seed 0 on training11 pick the saturated parent 4
    with pytest.raises(ValueError, match=field):
        ScoreWeights(**{field: value})


def test_weights_whose_sum_overflows_rejected():
    # six 1e308s scored every candidate inf, so ties fell to RSSI and picks changed
    with pytest.raises(ValueError, match="weights must have a finite sum"):
        ScoreWeights(**dict.fromkeys(WEIGHT_NAMES, 1e308))
    big = ScoreWeights(**dict.fromkeys(WEIGHT_NAMES, 1e307))
    assert math.isfinite(score_candidate(cand(3), big))


# -- filtering ---------------------------------------------------------


def test_fairness_redirect_drops_parent_keeps_child():
    parent = cand(3, b=5, children=(7,))
    child = cand(7, b=0)
    out = filter_candidates([parent, child])
    assert [c.id for c in out] == [7]


def test_loaded_candidate_without_heard_child_is_kept():
    only = cand(3, b=5, children=(99,))
    assert filter_candidates([only]) == [only]


def test_no_free_slot_always_removed():
    out = filter_candidates([cand(3, free_out=0), cand(4)])
    assert [c.id for c in out] == [4]


def test_rl_threshold_boundary_is_inclusive():
    kept = cand(3, rl=-85.0)
    dropped = cand(4, rl=-85.0001)
    out = filter_candidates([kept, dropped])
    assert [c.id for c in out] == [3]


def test_redirect_checks_children_against_pre_fairness_survivors():
    # grandparent chain: both upper layers leave, the empty leaf stays
    g = cand(1, b=4, children=(2,))
    p = cand(2, b=3, children=(3,))
    leaf = cand(3, b=0)
    out = filter_candidates([g, p, leaf])
    assert [c.id for c in out] == [3]


def test_output_sorted_and_subset():
    rng = random.Random(9)
    for _ in range(200):
        ids = rng.sample(range(1, 30), rng.randint(0, 10))
        cands = [random_candidate(rng, i) for i in ids]
        out = filter_candidates(cands)
        assert [c.id for c in out] == sorted(c.id for c in out)
        assert set(out) <= set(cands)
        for c in out:
            assert c.free_out >= 1
            assert c.rl_dbm >= -85.0


def test_b_fair_threshold_configurable():
    parent = cand(3, b=1, children=(7,))
    child = cand(7, b=0)
    assert [c.id for c in filter_candidates([parent, child], b_fair=2)] == [3, 7]
    assert [c.id for c in filter_candidates([parent, child], b_fair=1)] == [7]


# -- selection ---------------------------------------------------------


def test_biggest_cluster_beats_higher_score():
    a = cand(1, cluster_size=6, b=30, ci=400.0, rl=-80.0)   # weak score
    b = cand(2, cluster_size=4)                              # perfect score
    assert select_parent([a, b], W) == 1


def test_empty_filtered_list_means_wait():
    assert select_parent([], W) is None


def test_equal_scores_break_on_rssi_then_id():
    # zero the rl weight so rl is a pure tie-break
    w = ScoreWeights(w_rl=0.0)
    assert select_parent([cand(5, rl=-70.0), cand(9, rl=-60.0)], w) == 9
    assert select_parent([cand(9, rl=-60.0), cand(3, rl=-60.0)], w) == 3
    # with rl weighted, the stronger link simply scores higher
    assert select_parent([cand(1, rl=-70.0), cand(2, rl=-60.0)], W) == 2


def test_selection_matches_brute_force():
    rng = random.Random(17)
    for _ in range(2000):
        ids = rng.sample(range(1, 40), rng.randint(1, 10))
        size_pool = rng.randint(1, 3)
        cands = [random_candidate(rng, i, cluster_size=rng.randint(1, size_pool))
                 for i in ids]
        assert select_parent(cands, W) == brute_force_select(cands, W)


def test_argmax_invariant_under_weight_scaling():
    rng = random.Random(23)
    for _ in range(400):
        ids = rng.sample(range(1, 40), rng.randint(1, 8))
        cands = [random_candidate(rng, i) for i in ids]
        factor = rng.choice([0.25, 0.5, 2.0, 7.0, 100.0])
        assert select_parent(cands, W) == select_parent(cands, scaled(W, factor))


def test_selection_deterministic():
    rng = random.Random(31)
    cands = [random_candidate(rng, i) for i in range(1, 9)]
    first = select_parent(cands, W)
    for _ in range(10):
        assert select_parent(list(cands), W) == first


def test_joinme_ack_names_parent(monkeypatch):
    # the joiner's ack names the pick over what it heard; that node adopts it
    s = training11()
    handed = []
    monkeypatch.setattr(engine, "filter_candidates",
                        lambda cands, *args: handed.append(list(cands))
                        or filter_candidates(cands, *args))
    eng = TrialEngine(s, "scored", 0)
    res = eng.run()
    heard = handed[-1]  # the build phase filters first; the joinMe comes last
    assert heard and all(c.id != s.new_node_id for c in heard)
    pick = select_parent(filter_candidates(heard, s.thresholds.rl_min_dbm,
                                           s.thresholds.b_fair), s.weights)
    assert res.chosen_parent == pick
    assert eng.net.nodes[s.new_node_id].master == pick
