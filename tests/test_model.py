import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scatterjoin

from scatterjoin.channel import Position, RadioParams, hears
from scatterjoin.engine import Links, ProbeRecord, broadcast_status
from scatterjoin.model import Network, NodeState, SlotExhausted, TopologyError

from heap_engine import check_probe_order


def node(nid, **kw):
    return NodeState(id=nid, pos=Position(0.0, 0.0), **kw)


def links_of(net, radio=RadioParams()):
    return Links({nid: n.pos for nid, n in net.nodes.items()}, radio)


def chain(n):
    """Nodes 1..n attached in a line under node 1."""
    net = Network([node(i) for i in range(1, n + 1)])
    for i in range(2, n + 1):
        net.attach(i, i - 1)
    return net


def test_merge_conserves_members():
    net = Network([node(i) for i in range(1, 9)])
    for child, parent in ((2, 1), (3, 1), (4, 2), (5, 2)):
        net.attach(child, parent)          # cluster of 5 rooted at 1
    for child, parent in ((7, 6), (8, 6)):
        net.attach(child, parent)          # cluster of 3 rooted at 6
    assert net.nodes[1].cluster_size == 5
    assert net.nodes[6].cluster_size == 3
    net.attach(6, 3)
    assert all(net.nodes[i].cluster_size == 8 for i in range(1, 9))
    assert len({net.nodes[i].cluster_id for i in range(1, 9)}) == 1
    net.check_invariants()


def test_child_hops_is_parent_plus_one():
    net = Network([node(i) for i in range(1, 5)])
    net.attach(2, 1)
    net.attach(3, 2)
    assert net.nodes[3].hops_to_sink == 2
    net.attach(4, 3)
    assert net.nodes[4].hops_to_sink == 3
    net.check_invariants()


def test_absorbed_subtree_hops_recomputed():
    net = Network([node(i) for i in range(1, 6)])
    net.attach(5, 4)                 # side cluster: 4 <- 5
    net.attach(2, 1)
    net.attach(3, 2)
    net.attach(4, 3)                 # absorb it three hops down
    assert net.nodes[4].hops_to_sink == 3
    assert net.nodes[5].hops_to_sink == 4
    net.check_invariants()


def test_full_parent_raises_slot_exhausted():
    net = Network([node(1, slave_capacity=0), node(2)])
    with pytest.raises(SlotExhausted):
        net.attach(2, 1)


def test_attach_within_cluster_raises_cycle_error():
    net = chain(2)
    with pytest.raises(TopologyError):
        net.attach(1, 2)


def test_attach_non_root_rejected():
    net = Network([node(i) for i in range(1, 5)])
    net.attach(2, 1)
    net.attach(3, 2)
    with pytest.raises(TopologyError):
        net.attach(3, 4)  # 3 already has a master


# -- the candidate record a status advert carries ----------------------


def status(net, sender, receiver, links=None):
    """sender's broadcast as receiver hears it, at the rssi in receiver's row."""
    links = links or links_of(net)
    return broadcast_status(net.nodes[sender], links.heard(receiver)[sender], links)


def test_status_advert_for_sink():
    net = Network([node(1), node(2)])
    adv = status(net, 1, 2)
    assert adv.h == 0
    assert adv.rn_dbm is None
    assert adv.m == 0
    assert adv.free_out == 3


def test_status_advert_copies_live_fields():
    net = Network([node(1), node(2), node(3)])
    net.attach(2, 1)
    net.attach(3, 1)
    root = net.nodes[1]
    root.head, root.tail = 3, 7  # three packets have left, four are held
    adv = status(net, 1, 2)
    assert adv.m == 2
    assert adv.b == 4
    assert adv.free_out == 1
    assert adv.children == (2, 3)
    assert adv.rl_dbm == hears(net.nodes[2].pos, root.pos, RadioParams())[1]


def test_status_advert_reports_measured_rn():
    net = Network([NodeState(id=1, pos=Position(0.0, 0.0)),
                   NodeState(id=2, pos=Position(6.0, 0.0)),
                   NodeState(id=3, pos=Position(6.0, 4.0))])
    net.attach(2, 1)
    radio = RadioParams()
    uplink = hears(Position(6.0, 0.0), Position(0.0, 0.0), radio)[1]
    links = links_of(net, radio)
    assert all(status(net, 2, rid, links).rn_dbm == uplink for rid in (1, 3))


def test_status_advert_rn_consistency_enforced():
    net = chain(2)
    assert status(net, 1, 2).rn_dbm is None  # root has no uplink
    assert isinstance(status(net, 2, 1).rn_dbm, float)


def test_joinme_snapshot():
    # the joinMe fields baseline reads travel in the same record
    net = chain(2)
    adv = status(net, 2, 1)
    assert adv.id == 2
    assert adv.cluster_id == 1
    assert adv.cluster_size == 2
    assert adv.free_out == 3


def test_path_to_root():
    net = chain(4)
    assert net.path_to_root(4) == [4, 3, 2, 1]
    assert net.path_to_root(1) == [1]


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        Network([node(3), node(3)])


def two_node_cycle():
    """Nodes 1 and 2, each the other's master; attach never builds this."""
    net = Network([node(1), node(2)])
    net.nodes[1].master, net.nodes[2].master = 2, 1
    return net.path_to_root(1)


@pytest.mark.parametrize("build,error,message", [
    (lambda: node(0), ValueError, "node ids are positive integers"),
    (lambda: Network([node(2)], sink_id=1), ValueError, "sink id 1 not present"),
    (two_node_cycle, TopologyError, "master-link cycle at node 1"),
])
def test_model_guards_refuse_bad_ids_and_cycles(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_random_merge_sequences_keep_invariants():
    rng = random.Random(7)
    for _ in range(60):
        net = Network([node(i, slave_capacity=rng.randint(1, 3))
                       for i in range(1, 13)])
        while True:
            roots = [nid for nid, n in net.nodes.items() if n.master is None]
            options = [(c, p) for c in roots for p, pn in net.nodes.items()
                       if pn.cluster_id != net.nodes[c].cluster_id
                       and pn.free_out >= 1]
            if not options:
                break
            child, parent = rng.choice(options)
            net.attach(child, parent)
            net.check_invariants()


def test_cluster_sizes_sum_to_node_count():
    rng = random.Random(11)
    net = Network([node(i) for i in range(1, 10)])
    for _ in range(5):
        roots = [nid for nid, n in net.nodes.items() if n.master is None]
        child = rng.choice(roots)
        parents = [p for p, pn in net.nodes.items()
                   if pn.cluster_id != net.nodes[child].cluster_id and pn.free_out >= 1]
        if not parents:
            break
        net.attach(child, rng.choice(parents))
        seen = {}
        for n in net.nodes.values():
            seen[n.cluster_id] = n.cluster_size
        assert sum(seen.values()) == len(net.nodes)


@settings(max_examples=200, deadline=None)
@given(caps=st.lists(st.integers(0, 3), min_size=2, max_size=8), data=st.data())
def test_any_attach_sequence_is_refused_or_keeps_invariants(caps, data):
    net = Network([node(i, slave_capacity=c) for i, c in enumerate(caps, start=1)])
    ids = st.integers(1, len(caps))
    for child, parent in data.draw(st.lists(st.tuples(ids, ids), max_size=12)):
        try:
            net.attach(child, parent)
        except (SlotExhausted, TopologyError):
            pass
        net.check_invariants()


def _attach_by_scan(net, child_id, parent_id):
    """Network.attach as it was before the member index: the same checks,
    then a relabel by a scan of every node."""
    child, parent = net.nodes[child_id], net.nodes[parent_id]
    if parent.free_out < 1:
        raise SlotExhausted(f"node {parent_id} has no free slave slot")
    if child.master is not None:
        raise TopologyError(f"node {child_id} already has a master")
    if child.cluster_id == parent.cluster_id:
        raise TopologyError(f"attaching {child_id} under {parent_id} would create a cycle")
    old_cluster, merged = child.cluster_id, parent.cluster_size + child.cluster_size
    child.master = parent_id
    parent.slaves.append(child_id)
    for n in net.nodes.values():
        if n.cluster_id in (old_cluster, parent.cluster_id):
            n.cluster_id, n.cluster_size = parent.cluster_id, merged
    child.hops_to_sink = parent.hops_to_sink + 1
    stack = [child_id]
    while stack:
        nid = stack.pop()
        for sid in net.nodes[nid].slaves:
            net.nodes[sid].hops_to_sink = net.nodes[nid].hops_to_sink + 1
            stack.append(sid)


def _tree(net):
    return {nid: (n.master, tuple(n.slaves), n.cluster_id, n.cluster_size, n.hops_to_sink)
            for nid, n in net.nodes.items()}


@settings(max_examples=200, deadline=None)
@given(caps=st.lists(st.integers(0, 3), min_size=1, max_size=10), data=st.data())
def test_member_index_matches_a_full_recount(caps, data):
    """Random attaches, some absorbing multi-node clusters and some
    refused: attach does what a relabel by a full scan does, refuses the
    same inputs with the same error and leaves a refused network
    unchanged."""
    net, twin = (Network([node(i, slave_capacity=c) for i, c in enumerate(caps, start=1)])
                 for _ in range(2))
    for _ in range(data.draw(st.integers(0, 24))):
        roots = sorted(nid for nid, n in net.nodes.items() if n.master is None)
        child = data.draw(st.sampled_from(roots if data.draw(st.booleans()) else sorted(net.nodes)))
        parent = data.draw(st.sampled_from(sorted(net.nodes)))
        before, outcomes = _tree(net), []
        for network, attach in ((net, Network.attach), (twin, _attach_by_scan)):
            try:
                attach(network, child, parent)
                outcomes.append(None)
            except (SlotExhausted, TopologyError) as e:
                outcomes.append((type(e), str(e)))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            assert _tree(net) == before
        assert _tree(net) == _tree(twin)
        recount = {}
        for nid, n in sorted(net.nodes.items()):
            recount.setdefault(n.cluster_id, []).append(nid)
        for cid, members in recount.items():
            assert net.cluster_members(cid) == members
            assert {net.nodes[nid].cluster_size for nid in members} == {len(members)}
        net.check_invariants()


@pytest.mark.parametrize("head,tail,indices,message", [
    (0, 4, [], "holds 4 packets, b_max 3"),
    (5, 4, [], "holds -1 packets"),
    (0, 3, [1, 0], "probe index 0 out of order"),
    (0, 3, [1, 1], "probe index 1 out of order"),
    (1, 3, [0], r"probe index 0 out of order or outside \[1, 3\)"),
    (1, 3, [3], r"probe index 3 out of order or outside \[1, 3\)"),
])
def test_invariants_cover_the_counted_buffer(head, tail, indices, message):
    # head and tail are check_invariants' to judge; probe records are the heap
    # reference's own, so their order is its check_probe_order's
    net = Network([node(1, b_max=3)])
    root = net.nodes[1]
    root.head, root.tail = head, tail
    if not indices:
        with pytest.raises(TopologyError, match=message):
            net.check_invariants()
        return
    net.check_invariants()
    probes = {1: deque((i, ProbeRecord(seq, 0.0)) for seq, i in enumerate(indices))}
    with pytest.raises(AssertionError, match=message):
        check_probe_order(probes, net.nodes)


@pytest.mark.parametrize("source,marked,marks,message", [
    (4, 4, 0b1000, "node 4: a mark at or past 3, the packets held"),
    (4, 4, -1, "node 4: a mark at or past 3"),
    (None, 2, 0b1, "node 2 holds a mark off the probe path"),
    (4, 3, 0b1, "node 3 holds a mark off the probe path"),  # a sibling of the path
])
def test_invariants_cover_the_marks(source, marked, marks, message):
    # 4 -> 2 -> 1 is the probe path; 3 hangs off the sink beside it
    net = Network([node(i) for i in range(1, 5)])
    for child, parent in ((2, 1), (3, 1), (4, 2)):
        net.attach(child, parent)
    net.probe_source = source
    for n in net.nodes.values():
        n.tail = 3
    if source is not None:  # within what each holds, on the path
        net.nodes[4].marks = net.nodes[2].marks = 0b101
    net.check_invariants()
    net.nodes[marked].marks = marks
    with pytest.raises(TopologyError, match=message):
        net.check_invariants()


INFLATED_CLUSTER = """
import sys
from scatterjoin.channel import Position
from scatterjoin.model import Network, NodeState, TopologyError

net = Network([NodeState(id=1, pos=Position(0.0, 0.0), cluster_size=7)])
try:
    net.check_invariants()
except TopologyError as e:
    print(f"optimize={sys.flags.optimize} {e}")
"""


def test_invariant_check_survives_optimized_python():
    src = Path(scatterjoin.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", INFLATED_CLUSTER],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.strip() == "optimize=1 node 1 believes cluster size 7, actual 1", \
        proc.stderr
