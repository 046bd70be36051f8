import random

from scatterjoin.channel import Position
from scatterjoin.join_baseline import baseline_select, strongest
from scatterjoin.join_scored import CandidateInfo
from scatterjoin.model import NodeState


def heard(sender, cluster_size, rl, cluster_id=None, free_out=3):
    return CandidateInfo(id=sender, cluster_id=cluster_id or sender,
                         cluster_size=cluster_size, m=3 - free_out, h=0, b=0,
                         ci_ms=100.0, rl_dbm=rl, rn_dbm=None,
                         free_out=free_out, children=())


def fresh(nid=20, cluster_size=1):
    n = NodeState(id=nid, pos=Position(0.0, 0.0))
    n.cluster_size = cluster_size
    return n


def test_biggest_cluster_wins():
    adverts = [heard(5, 5, -75.0), heard(9, 3, -55.0)]
    assert baseline_select(adverts, fresh()) == 5


def test_no_adverts_means_wait():
    assert baseline_select([], fresh()) is None


def test_strongest_rssi_within_biggest():
    adverts = [heard(5, 5, -80.0), heard(6, 5, -60.0)]
    assert baseline_select(adverts, fresh()) == 6


def test_rssi_tie_goes_to_lowest_id():
    adverts = [heard(8, 5, -60.0), heard(4, 5, -60.0)]
    assert baseline_select(adverts, fresh()) == 4


def test_full_senders_never_selected():
    adverts = [heard(5, 9, -50.0, free_out=0), heard(6, 2, -80.0)]
    assert baseline_select(adverts, fresh()) == 6
    assert baseline_select([heard(5, 9, -50.0, free_out=0)], fresh()) is None


def test_smaller_clusters_ineligible():
    me = fresh(cluster_size=4)
    assert baseline_select([heard(5, 3, -50.0)], me) is None


def test_equal_size_lower_cluster_id_joins_higher():
    me = fresh(nid=4, cluster_size=2)
    me.cluster_id = 4
    assert baseline_select([heard(9, 2, -60.0, cluster_id=9)], me) == 9
    assert baseline_select([heard(2, 2, -60.0, cluster_id=2)], me) is None


def test_node_with_master_decides_nothing():
    me = fresh()
    me.master = 3
    assert baseline_select([heard(5, 5, -60.0)], me) is None


def test_choice_always_from_max_eligible_cluster():
    rng = random.Random(5)
    for _ in range(300):
        me = fresh(nid=50, cluster_size=rng.randint(1, 4))
        me.cluster_id = 50
        adverts = [heard(s, rng.randint(1, 8), rng.uniform(-90, -50),
                         free_out=rng.randint(0, 3))
                   for s in rng.sample(range(1, 40), rng.randint(0, 8))]
        pick = baseline_select(adverts, me)
        eligible = [h for h in adverts if h.free_out >= 1
                    and (h.cluster_size > me.cluster_size
                         or (h.cluster_size == me.cluster_size
                             and h.cluster_id > me.cluster_id))]
        if not eligible:
            assert pick is None
        else:
            best_size = max(h.cluster_size for h in eligible)
            chosen = next(h for h in adverts if h.id == pick)
            assert chosen.cluster_size == best_size
            assert chosen.free_out >= 1


def test_strongest_ignores_cluster_rule():
    lone_sink = heard(1, 1, -70.0)
    assert baseline_select([lone_sink], fresh(nid=5)) is None
    assert strongest([lone_sink]) == 1
    assert strongest([heard(8, 1, -60.0), heard(4, 3, -60.0), heard(2, 3, -75.0)]) == 4
