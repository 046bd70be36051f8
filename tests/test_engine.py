import bisect
import collections
import contextlib
import dataclasses
import functools
import heapq
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scatterjoin
from scatterjoin import engine
from scatterjoin.channel import Position, RadioParams, hears
from scatterjoin.engine import (ALGOS, KIND_CONN, KIND_END, KIND_GEN, KIND_JOINME, Layout,
                                Links, ProbeRecord, TrialEngine, TrialResult, broadcast_status,
                                build_network, build_trial_network, connection_event,
                                generate_traffic, make_network, run_trial)
from scatterjoin.join_scored import CandidateInfo
from scatterjoin.model import Network, NodeState
from scatterjoin.scenario import (MAX_EVENTS, EngineParams, NodeSpec, Scenario, ScenarioError,
                                  gen_random_scenario, training11)

import heap_engine
from heap_engine import HeapEngine, check_probe_order, heap_trial, move_probes
from test_golden import busy_cases, canon, golden_cases, grid_cases

FAST = EngineParams(warmup_ms=1000.0, measure_ms=5000.0, max_wait_ms=2000.0)


def chain_scenario(hops, spacing=9.0, rates=None, ci=100.0, engine=FAST):
    """Sink at the origin, `hops` relays in a line, joiner at the end."""
    nodes = [NodeSpec(1, (0.0, 0.0), ci_ms=ci)]
    for i in range(hops):
        rate = rates[i] if rates else 0.0
        nodes.append(NodeSpec(i + 2, ((i + 1) * spacing, 0.0), ci_ms=ci,
                              traffic_rate_pps=rate))
    new_id = hops + 2
    nodes.append(NodeSpec(new_id, ((hops + 1) * spacing, 0.0), ci_ms=ci))
    return Scenario(name=f"chain{hops}", nodes=nodes, sink_id=1,
                    new_node_id=new_id, engine=engine)


def test_trial_is_deterministic():
    s = training11()
    for algo in ("baseline", "scored"):
        a = run_trial(s, algo, 42)
        b = run_trial(s, algo, 42)
        assert a == b


def test_different_seeds_differ():
    s = training11()
    a = run_trial(s, "baseline", 1)
    b = run_trial(s, "baseline", 2)
    assert a != b


def test_packet_conservation_exact():
    s = training11()
    for seed in (0, 1, 2):
        for algo in ("baseline", "scored"):
            t = run_trial(s, algo, seed)
            assert t.total_sent == t.total_delivered + t.total_dropped + t.total_in_flight
            assert t.probe_sent == t.probe_delivered + t.probe_dropped + t.probe_in_flight


def test_probe_count_matches_rate_and_window():
    t = run_trial(training11(), "scored", 5)
    assert t.probe_sent == 600  # 10 pps over 60 s


def test_join_records():
    t = run_trial(training11(), "scored", 7)
    assert t.joined
    assert t.chosen_parent == t.path_to_sink[1]
    assert t.path_to_sink[0] == 12
    assert t.path_to_sink[-1] == 1
    assert t.hops_at_join == len(t.path_to_sink) - 1
    assert t.join_time_ms is not None and t.join_time_ms > 0


def test_delivered_probe_hops_match_join_depth():
    for algo in ("baseline", "scored"):
        t = run_trial(training11(), algo, 3)
        for p in t.probes:
            if p.delivered_at_ms is not None:
                assert p.hops == t.hops_at_join
                assert p.delivered_at_ms > p.created_at_ms


def test_only_the_acknowledged_node_responds():
    eng = TrialEngine(training11(), "scored", 0)
    res = eng.run()
    assert res.joined
    joiner = eng.net.nodes[12]
    assert joiner.master == res.chosen_parent
    adopters = [nid for nid, n in eng.net.nodes.items() if 12 in n.slaves]
    assert adopters == [res.chosen_parent]


def test_join_fails_when_out_of_range():
    nodes = [NodeSpec(1, (0.0, 0.0)), NodeSpec(2, (9.0, 0.0)),
             NodeSpec(3, (100.0, 100.0))]
    s = Scenario(name="isolated", nodes=nodes, sink_id=1, new_node_id=3,
                 engine=FAST, declared_unjoinable=True)
    t = run_trial(s, "scored", 0)
    assert not t.joined
    assert t.chosen_parent is None
    assert t.probe_sent == 0
    assert t.total_sent == t.total_delivered + t.total_dropped + t.total_in_flight


MISCOUNTED_MOVE = """
import sys
from scatterjoin.engine import ConservationError, TrialEngine
from scatterjoin.scenario import training11

class Miscounted(TrialEngine):
    def _finalize(self, key):
        self.result.total_delivered += 1  # one delivery never sent
        super()._finalize(key)

try:
    Miscounted(training11(), "scored", 0).run()
except ConservationError:
    print(f"optimize={sys.flags.optimize} ConservationError")
"""


def test_conservation_check_survives_optimized_python():
    src = Path(scatterjoin.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", MISCOUNTED_MOVE],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.strip() == "optimize=1 ConservationError", proc.stderr


def test_median_empty_network_delay_grows_with_hops():
    medians = []
    for hops in (1, 2, 3):
        t = run_trial(chain_scenario(hops), "baseline", 0)
        assert t.joined and t.hops_at_join == hops + 1
        delays = sorted(p.delivered_at_ms - p.created_at_ms
                        for p in t.probes if p.delivered_at_ms is not None)
        medians.append(statistics.median(delays))
    assert medians[0] < medians[1] < medians[2]


def test_saturated_upstream_floods_and_drops():
    # 20 pps into a 10 pps drain (ci=400, n_ce=4) must overflow
    s = chain_scenario(2, rates=[0.0, 20.0], ci=400.0,
                       engine=EngineParams(warmup_ms=4000.0, measure_ms=10000.0,
                                           max_wait_ms=2000.0))
    t = run_trial(s, "baseline", 1)
    assert t.joined
    assert t.total_dropped > 0
    assert t.sat_branch is True


# -- connection_event --------------------------------------------------


def _net_pair(b_max=30):
    nodes = [NodeState(id=1, pos=Position(0.0, 0.0), b_max=b_max),
             NodeState(id=2, pos=Position(5.0, 0.0), b_max=b_max),
             NodeState(id=3, pos=Position(10.0, 0.0), b_max=b_max)]
    net = Network(nodes)
    net.attach(2, 1)
    net.attach(3, 2)
    return net


def enqueue(probes, node, seqs):
    """One probe per seq into node's tail, as an accepted arrival enters."""
    for seq in seqs:
        probes[node.id].append((node.tail, ProbeRecord(seq, 0.0)))
        node.tail += 1


def held(probes, node):
    """The seqs node holds in FIFO order, when every packet it holds is a probe."""
    assert [i for i, _ in probes[node.id]] == list(range(node.head, node.tail))
    return [p.seq for _, p in probes[node.id]]


def recorded_event(net, probes, sender_id, receiver_id, n_ce, now_ms=0.0):
    """connection_event on a net of probes, then the reference's probe step:
    (moved, delivered, dropped), with delivered as (seq, time) and dropped as
    (seq, node charged with drops)."""
    packets = [p for queue in probes.values() for _, p in queue]
    sender, receiver = net.nodes[sender_id], net.nodes[receiver_id]
    head, tail, to_sink = sender.head, receiver.tail, receiver_id == net.sink_id
    result = TrialResult(trial_seed=0, algo="scored", hops_at_join=2)
    moved = connection_event(sender, receiver, to_sink, n_ce, result)
    move_probes(probes, sender, receiver, to_sink, head, tail, now_ms, 2)
    check_probe_order(probes, net.nodes)
    delivered = [(p.seq, p.delivered_at_ms) for p in packets if p.delivered_at_ms is not None]
    assert all(p.hops == 2 for p in packets if p.delivered_at_ms is not None)
    charged = [nid for nid, n in net.nodes.items() for _ in range(n.drops)]
    dropped = list(zip([p.seq for p in packets if p.dropped], charged, strict=True))
    assert (result.total_delivered, result.total_dropped) == (len(delivered), len(dropped))
    return moved, delivered, dropped


def probe_net(b_max=30):
    """_net_pair(b_max) and an empty probe deque per node."""
    net = _net_pair(b_max)
    return net, {nid: collections.deque() for nid in net.nodes}


def test_connection_event_moves_at_most_n_ce():
    net, probes = probe_net()
    enqueue(probes, net.nodes[3], range(6))
    moved, delivered, dropped = recorded_event(net, probes, 3, 2, n_ce=4)
    assert moved == 4
    assert delivered == [] and dropped == []
    assert held(probes, net.nodes[3]) == [4, 5]
    assert held(probes, net.nodes[2]) == [0, 1, 2, 3]  # moved packets arrive in FIFO order


def test_connection_event_drops_on_full_receiver():
    net, probes = probe_net(b_max=2)
    enqueue(probes, net.nodes[3], range(4))
    moved, delivered, dropped = recorded_event(net, probes, 3, 2, n_ce=4)
    assert moved == 4 and delivered == []
    assert held(probes, net.nodes[2]) == [0, 1]
    assert dropped == [(2, 2), (3, 2)]


def test_connection_event_fills_partly_full_receiver():
    net, probes = probe_net(b_max=5)
    enqueue(probes, net.nodes[2], [100, 101])
    enqueue(probes, net.nodes[3], range(4))
    moved, delivered, dropped = recorded_event(net, probes, 3, 2, n_ce=4)
    assert moved == 4 and delivered == []
    assert held(probes, net.nodes[3]) == []
    assert held(probes, net.nodes[2]) == [100, 101, 0, 1, 2]
    assert dropped == [(3, 2)]


def test_sink_consumes_destined_packets():
    net, probes = probe_net()
    enqueue(probes, net.nodes[2], range(6))
    moved, delivered, dropped = recorded_event(net, probes, 2, 1, n_ce=4, now_ms=250.0)
    assert moved == 4 and dropped == []
    assert delivered == [(0, 250.0), (1, 250.0), (2, 250.0), (3, 250.0)]
    assert held(probes, net.nodes[2]) == [4, 5]
    assert net.nodes[1].tail == net.nodes[1].head == 0


def test_connection_event_moves_background_without_touching_probes_or_drops():
    net, probes = probe_net()
    enqueue(probes, net.nodes[2], [100])
    net.nodes[3].tail += 5  # background packets only
    sender_probes, receiver_probes = probes[3], list(probes[2])
    moved, delivered, dropped = recorded_event(net, probes, 3, 2, n_ce=4)
    assert (moved, delivered, dropped) == (4, [], [])
    assert probes[3] is sender_probes and not sender_probes
    assert list(probes[2]) == receiver_probes
    assert (net.nodes[3].head, net.nodes[2].tail) == (4, 5)
    assert all(n.drops == 0 for n in net.nodes.values())


def test_connection_event_drops_all_at_an_exactly_full_receiver():
    net, probes = probe_net(b_max=2)
    enqueue(probes, net.nodes[2], [100, 101])
    enqueue(probes, net.nodes[3], range(3))
    moved, delivered, dropped = recorded_event(net, probes, 3, 2, n_ce=4)
    assert moved == 3 and delivered == []
    assert dropped == [(0, 2), (1, 2), (2, 2)]  # every one charged to the receiver
    assert held(probes, net.nodes[2]) == [100, 101] and held(probes, net.nodes[3]) == []


def test_connection_event_drops_nothing_when_free_room_equals_n():
    net, probes = probe_net(b_max=5)
    enqueue(probes, net.nodes[2], [100, 101])
    enqueue(probes, net.nodes[3], range(3))
    moved, delivered, dropped = recorded_event(net, probes, 3, 2, n_ce=3)
    assert moved == 3 and delivered == [] and dropped == []
    assert held(probes, net.nodes[2]) == [100, 101, 0, 1, 2]
    assert net.nodes[2].tail - net.nodes[2].head == net.nodes[2].b_max


def test_connection_event_takes_nothing_back_from_an_overfull_receiver():
    # no free room clamps the packets taken at 0, never below
    net, probes = probe_net(b_max=5)
    enqueue(probes, net.nodes[2], [100, 101, 102])
    net.nodes[2].b_max = 1
    enqueue(probes, net.nodes[3], range(2))
    moved, delivered, dropped = recorded_event(net, probes, 3, 2, n_ce=4)
    assert moved == 2 and delivered == []
    assert dropped == [(0, 2), (1, 2)]
    assert held(probes, net.nodes[2]) == [100, 101, 102]


def test_connection_event_moves_only_what_the_sender_holds():
    net, probes = probe_net()
    enqueue(probes, net.nodes[3], range(2))
    moved, delivered, dropped = recorded_event(net, probes, 3, 2, n_ce=4)
    assert moved == 2 and delivered == [] and dropped == []
    assert held(probes, net.nodes[3]) == [] and net.nodes[3].head == net.nodes[3].tail == 2
    assert held(probes, net.nodes[2]) == [0, 1]


# One step of the count-buffer property: an arrival at node 2 or 3 (a
# probe or not), or a connection event 3 -> 2 or 2 -> 1 moving up to n_ce.
BUFFER_STEPS = st.one_of(
    st.tuples(st.just("arrive"), st.sampled_from([2, 3]), st.booleans()),
    st.tuples(st.just("send"), st.sampled_from([2, 3]), st.integers(1, 4)))


@settings(max_examples=300, deadline=None)
@given(b_max=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       steps=st.lists(BUFFER_STEPS, max_size=60))
def test_count_buffer_matches_a_deque_of_packets(b_max, steps):
    # the chain 3 -> 2 -> sink 1, counted by connection_event with the probes
    # moved by the reference's probe step; the model holds every packet in a
    # deque, None for background and the probe's seq for a probe
    net, probes = probe_net()
    net.nodes[2].b_max, net.nodes[3].b_max = b_max
    ref = {nid: collections.deque() for nid in net.nodes}
    ref_drops = dict.fromkeys(net.nodes, 0)
    ref_fate = {}  # seq -> (delivered_at_ms, dropped) once the probe has left the chain
    result = TrialResult(trial_seed=0, algo="scored", hops_at_join=2)
    records = []
    for now, (op, nid, arg) in enumerate(steps):
        node = net.nodes[nid]
        if op == "arrive":  # the engine's arrival: drop at a full buffer, else enter
            result.total_sent += 1
            probe = ProbeRecord(result.total_sent, float(now)) if arg else None
            if probe is not None:
                records.append(probe)
            if node.tail - node.head >= node.b_max:
                result.total_dropped += 1
                node.drops += 1
                ref_drops[nid] += 1
                if probe is not None:
                    probe.dropped = True
                    ref_fate[probe.seq] = (None, True)
            else:
                if probe is not None:
                    probes[nid].append((node.tail, probe))
                node.tail += 1
                ref[nid].append(None if probe is None else probe.seq)
        else:
            peer = node.master
            receiver, to_sink = net.nodes[peer], peer == net.sink_id
            head, tail = node.head, receiver.tail
            moved = connection_event(node, receiver, to_sink, arg, result)
            move_probes(probes, node, receiver, to_sink, head, tail, float(now), 2)
            n = min(arg, len(ref[nid]))
            assert moved == n
            for _ in range(n):
                packet = ref[nid].popleft()
                if to_sink:
                    if packet is not None:
                        ref_fate[packet] = (float(now), False)
                elif len(ref[peer]) < net.nodes[peer].b_max:
                    ref[peer].append(packet)
                else:
                    ref_drops[peer] += 1
                    if packet is not None:
                        ref_fate[packet] = (None, True)
        net.check_invariants()
        check_probe_order(probes, net.nodes)
        for k, n in net.nodes.items():
            assert n.tail - n.head == len(ref[k])
            assert n.drops == ref_drops[k]
            assert [(i - n.head, p.seq) for i, p in probes[k]] == \
                [(pos, seq) for pos, seq in enumerate(ref[k]) if seq is not None]
        for p in records:
            assert (p.delivered_at_ms, p.dropped) == ref_fate.get(p.seq, (None, False))
            assert p.hops == (2 if p.delivered_at_ms is not None else 0)
        in_flight = sum(len(q) for q in ref.values())
        assert result.total_sent == result.total_delivered + result.total_dropped + in_flight
        assert result.total_dropped == sum(ref_drops.values())


# -- generate_traffic --------------------------------------------------


def test_zero_rate_generates_nothing():
    assert generate_traffic(0.0, 60000.0, random.Random(1)) == []


def test_traffic_count_regression():
    # frozen from the seeded stream: 10 pps over 60 s
    times = generate_traffic(10.0, 60000.0, random.Random("scatterjoin-traffic:0:5"))
    assert len(times) == 602
    assert times == sorted(times)
    assert all(0.0 < t < 60000.0 for t in times)


def test_traffic_streams_reproducible_and_disjoint():
    a1 = generate_traffic(5.0, 30000.0, random.Random("s:1"))
    a2 = generate_traffic(5.0, 30000.0, random.Random("s:1"))
    b = generate_traffic(5.0, 30000.0, random.Random("s:2"))
    assert a1 == a2
    assert a1 != b
    assert not set(a1) & set(b)


# -- broadcast_status --------------------------------------------------


def links_of(net):
    return Links({nid: n.pos for nid, n in net.nodes.items()}, RadioParams())


def test_broadcast_reaches_exactly_the_hearers():
    nodes = [NodeState(id=1, pos=Position(0.0, 0.0)),
             NodeState(id=2, pos=Position(9.0, 0.0)),
             NodeState(id=3, pos=Position(-9.0, 0.0)),
             NodeState(id=4, pos=Position(100.0, 0.0))]
    net = Network(nodes)
    links = links_of(net)

    def heard(sender):
        """sender's broadcast at each node whose row holds it, at that row's rssi."""
        return {rid: broadcast_status(net.nodes[sender], row[sender], links)
                for rid in net.nodes if sender in (row := links.heard(rid))}

    out = heard(1)
    assert sorted(out) == [2, 3]
    assert all(c.id == 1 and c.rl_dbm == hears(net.nodes[rid].pos, net.nodes[1].pos,
                                                RadioParams())[1] for rid, c in out.items())
    assert heard(4) == {}


def test_advert_snapshots_buffer_at_emission():
    net = _net_pair()
    net.nodes[2].tail += 1
    links = links_of(net)
    out = [broadcast_status(net.nodes[2], links.heard(rid)[2], links) for rid in (1, 3)]
    net.nodes[2].tail += 1
    assert all(adv.b == 1 for adv in out)


def joinme_candidates(monkeypatch, scenario, algo, seed):
    """(engine, result, the candidate list the join rule got at each joinMe)."""
    rule = "baseline_select" if algo == "baseline" else "filter_candidates"
    real_rule, real_build = getattr(engine, rule), engine.build_network
    seen = []

    def recording(cands, *args):
        seen.append(list(cands))
        return real_rule(cands, *args)

    def build(*args, **kwargs):
        order = real_build(*args, **kwargs)
        seen.clear()  # the build phase's own picks are not joinMe rounds
        return order

    monkeypatch.setattr(engine, rule, recording)
    monkeypatch.setattr(engine, "build_network", build)
    eng = TrialEngine(scenario, algo, seed)
    return eng, eng.run(), seen


@pytest.mark.parametrize("sigma", [0.0, 4.0])
@pytest.mark.parametrize("algo", ["baseline", "scored"])
def test_joinme_hears_exactly_the_nodes_in_range(monkeypatch, algo, sigma):
    # positions and shadowing are frozen, so every joinMe hears the same nodes
    s = replace(training11(), radio=RadioParams(shadowing_sigma_db=sigma))
    eng, res, seen = joinme_candidates(monkeypatch, s, algo, 0)
    new_id = s.new_node_id
    fresh = Links({n.id: Position(*n.pos) for n in s.nodes}, s.radio, 0)
    in_range = scanned_row(fresh, new_id)
    assert res.joined and seen
    assert 0 < len(in_range) < len(s.nodes) - 1
    for cands in seen:
        assert [(c.id, c.rl_dbm) for c in cands] == in_range


def scanned_row(links, at):
    """at's heard links as (id, rssi) in ascending id order, each worked out
    by hears directly with the table's draws."""
    here, row = links.positions[at], []
    for other in sorted(links.positions):
        if other != at:
            heard, rl = hears(here, links.positions[other], links.radio,
                              links._draws.get((at, other), 0.0))
            if heard:
                row.append((other, rl))
    return row


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(st.sampled_from([0.0, 6.5, 13.0, 13.3]), st.floats(0.0, 30.0)),
                       min_size=1, max_size=12),
       sigma=st.sampled_from([0.0, 4.0]), data=st.data())
def test_heard_lists_equal_a_scan_of_every_link(points, sigma, data):
    """heard(at) in one pass gives the row a direct hears scan gives,
    whichever rows were filled before it. Filling the rows reaches hears
    at most once per unordered pair unshadowed and once per ordered pair
    shadowed."""
    positions = {nid: Position(*p) for nid, p in zip(data.draw(st.permutations(
        range(1, len(points) + 1))), points)}
    ats = data.draw(st.lists(st.sampled_from(sorted(positions))))
    links = Links(positions, RadioParams(shadowing_sigma_db=sigma), 3)
    who = {id(pos): nid for nid, pos in positions.items()}  # equal positions are distinct objects
    fills = collections.Counter()

    def counting(a, b, radio, noise=0.0):
        fills[who[id(a)], who[id(b)]] += 1
        return hears(a, b, radio, noise)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "hears", counting)
        for at in ats:
            links.heard(at)
    assert all(list(row.items()) == scanned_row(links, at) for at, row in links._rows.items())
    per_link = fills if sigma else collections.Counter(frozenset(p) for p in fills.elements())
    assert max(per_link.values(), default=1) == 1


# -- event core --------------------------------------------------------


class CountingHeapq:
    """Stands in for the reference engine's heapq: keeps every popped
    event, the largest heap, pushes that found their link or source already
    pending, and each connection event pushed with the popped event whose
    handling pushed it (None before the first pop)."""

    def __init__(self):
        self.popped = []
        self.max_len = 0
        self.doubled = 0
        self.conn_pushes = []

    def heappush(self, heap, item):
        if item[1] in (KIND_CONN, KIND_GEN):
            self.doubled += any(e[1:3] == item[1:3] for e in heap)
        if item[1] == KIND_CONN:
            self.conn_pushes.append((self.popped[-1] if self.popped else None, item))
        heapq.heappush(heap, item)
        self.max_len = max(self.max_len, len(heap))

    def heappop(self, heap):
        item = heapq.heappop(heap)
        self.popped.append(item)
        return item


def traced_trial(monkeypatch, scenario, algo, seed):
    """(result, heap stand-in, packets moved per connection event) of a
    trial through the reference heap loop."""
    counting, moved = CountingHeapq(), []
    real = heap_engine.connection_event

    def counted(*args, **kwargs):
        moved.append(real(*args, **kwargs))
        return moved[-1]

    with monkeypatch.context() as m:
        m.setattr(heap_engine, "heapq", counting)
        m.setattr(heap_engine, "connection_event", counted)
        result = heap_trial(scenario, algo, seed)
    return result, counting, moved


def event_core_cases():
    t11 = training11()
    fractional = replace(t11, nodes=[replace(n, ci_ms=n.ci_ms * 0.333, b_max=5)
                                     for n in t11.nodes],
                         engine=replace(FAST, n_ce=1, probe_rate=7.3))
    unjoinable = Scenario(name="isolated", nodes=[NodeSpec(1, (0.0, 0.0)),
                                                  NodeSpec(2, (9.0, 0.0)),
                                                  NodeSpec(3, (100.0, 100.0))],
                          sink_id=1, new_node_id=3, engine=FAST,
                          declared_unjoinable=True)
    cases = [(t11, 0), (t11, 3), (fractional, 1), (gen_random_scenario(16, seed=3), 3),
             (unjoinable, 0)]
    return [(s, algo, seed) for s, seed in cases for algo in ("baseline", "scored")]


@pytest.mark.parametrize("scenario,algo,seed", event_core_cases())
def test_every_connection_event_moves_a_packet(monkeypatch, scenario, algo, seed):
    _, counting, moved = traced_trial(monkeypatch, scenario, algo, seed)
    conn = [e for e in counting.popped if e[1] == KIND_CONN]
    assert len(moved) == len(conn)
    assert all(n >= 1 for n in moved)


@pytest.mark.parametrize("scenario,algo,seed", event_core_cases())
def test_heap_holds_one_entry_per_link_and_source(monkeypatch, scenario, algo, seed):
    _, counting, _ = traced_trial(monkeypatch, scenario, algo, seed)
    assert counting.doubled == 0
    assert counting.max_len <= 2 * len(scenario.nodes) + 4


def test_heap_bound_on_random64(monkeypatch):
    s = gen_random_scenario(64, seed=1)
    _, counting, _ = traced_trial(monkeypatch, s, "scored", 1)
    assert counting.doubled == 0
    assert counting.max_len <= 2 * len(s.nodes) + 4


def slot_keys(nid, master, first, ci, horizon):
    """The keys of link nid -> master at the accumulated sums first,
    first + ci, ..., through the first slot past horizon."""
    slots = [first]
    while slots[-1] <= horizon:
        slots.append(slots[-1] + ci)
    return [(s, KIND_CONN, nid, master) for s in slots]


@pytest.mark.parametrize("scenario,algo,seed", event_core_cases() + busy_cases()[:6])
def test_a_link_is_pushed_at_its_first_slot_after_the_event(monkeypatch, scenario, algo, seed):
    # the event that gives a buffer a packet, or the link's own last event,
    # pushes the link; every slot it skips sorts before that event
    eng = HeapEngine(scenario, algo, seed)
    counting = CountingHeapq()
    monkeypatch.setattr(heap_engine, "heapq", counting)
    eng.run()
    grids = {}
    for event, push in counting.conn_pushes:
        assert event is not None and push > event
        nid, master = push[2:]
        node = eng.net.nodes[nid]
        assert master == node.master
        if nid not in grids:
            first = (eng.t_join if nid == scenario.new_node_id else 0.0) + node.ci_ms
            grids[nid] = slot_keys(nid, master, first, node.ci_ms,
                                   scenario.engine.horizon_ms())
        keys = grids[nid]
        assert push == keys[bisect.bisect_right(keys, event)]
    assert counting.conn_pushes or not eng.result.total_sent


@pytest.mark.parametrize("scenario,algo,seed", event_core_cases())
def test_arrivals_are_generate_traffic_up_to_trial_end(monkeypatch, scenario, algo, seed):
    # every arrival whose key sorts before the trial's last event is popped, in order
    t, counting, _ = traced_trial(monkeypatch, scenario, algo, seed)
    eng = scenario.engine
    horizon = eng.horizon_ms()
    end = counting.popped[-1]
    background = 0
    for spec in scenario.nodes:
        if spec.id == scenario.new_node_id or spec.traffic_rate_pps == 0:
            continue
        rng = random.Random(f"scatterjoin-traffic:{seed}:{spec.id}")
        want = [x for x in generate_traffic(spec.traffic_rate_pps, horizon, rng)
                if (x, KIND_GEN, spec.id, 0) < end]
        got = [e[0] for e in counting.popped if e[1] == KIND_GEN and e[2] == spec.id]
        assert got == want
        background += len(want)
    assert t.total_sent - t.probe_sent == background
    probes = [e[0] for e in counting.popped
              if e[1] == KIND_GEN and e[2] == scenario.new_node_id]
    assert probes == [p.created_at_ms for p in t.probes]
    if t.joined:
        t_join = eng.warmup_ms + t.join_time_ms
        interval = 1000.0 / eng.probe_rate
        assert probes == [t_join + i * interval for i in range(len(probes))]
        assert len(probes) == round(eng.measure_ms * eng.probe_rate / 1000.0)


def stranded(joiner_id=12, joinable=True):
    """training11 plus root 13, a 20 pps node nobody hears; its buffer
    fills and never drains."""
    t11 = training11()
    joiner = replace(t11.nodes[-1], id=joiner_id, pos=t11.nodes[-1].pos if joinable
                     else (300.0, 300.0))
    root = NodeSpec(13, (500.0, 500.0), ci_ms=12.9, b_max=3, traffic_rate_pps=20.0)
    return replace(t11, nodes=t11.nodes[:-1] + (joiner, root), new_node_id=joiner_id,
                   engine=FAST, declared_unjoinable=not joinable)


def tied_log(nid, rate, at, seed=0):
    """A stand-in for math.log, as both engines call it to draw arrivals,
    that lands node nid's first arrival at or after `at` exactly on `at`:
    the one draw that would carry nid's stream (rate pps, trial seed) to or
    past `at` gets the log that sums to it, every other draw the real one.
    hits lists the calls it answered."""
    rnd, scale = random.Random(f"scatterjoin-traffic:{seed}:{nid}").random, 1000.0 / rate
    t = 0.0
    while t + -math.log(x := 1.0 - rnd()) * scale < at:
        t += -math.log(x) * scale
    value = -(at - t) / scale
    while (landed := t + -value * scale) != at:
        value = math.nextafter(value, -math.inf if landed < at else math.inf)

    def log(v):
        if v != x:
            return math.log(v)
        log.hits.append(v)
        return value

    log.hits = []
    return log


def tied_trial(monkeypatch, scenario, at):
    """(engine, result) of the scored trial at seed 0 with the stranded
    root's arrival moved onto `at`; the reference heap loop agrees."""
    log = tied_log(13, 20.0, at)
    monkeypatch.setattr(engine, "log", log)
    monkeypatch.setattr(heap_engine, "log", log)
    eng = TrialEngine(scenario, "scored", 0)
    result = eng.run()
    assert result == heap_trial(scenario, "scored", 0) and len(log.hits) == 2
    return eng, result


@pytest.mark.parametrize("joiner_id,applied", [(12, False), (14, True)])
def test_probe_takes_tied_arrivals_of_lower_ids_only(monkeypatch, joiner_id, applied):
    untied = run_trial(stranded(joiner_id), "scored", 0)
    t = untied.probes[0].created_at_ms
    _, tied = tied_trial(monkeypatch, stranded(joiner_id), t)
    assert tied.probes[0].created_at_ms == t
    # it sorts before the probe only from a lower id, and then the probe's seq counts it
    assert tied.probes[0].seq == untied.probes[0].seq + applied


def test_end_takes_tied_arrivals_and_a_failed_join_does_not(monkeypatch):
    for joinable in (True, False):
        eng = TrialEngine(stranded(joinable=joinable), "scored", 0)
        untied, t = eng.run(), eng.net.nodes[13].last_ms
        eng, tied = tied_trial(monkeypatch, stranded(joinable=joinable), t)
        root = eng.net.nodes[13]
        assert tied.joined == joinable and root.last_ms == t
        if joinable:  # the END takes it; the root's full buffer drops it
            assert root.due > t and tied.total_sent == untied.total_sent + 1
        else:  # the last joinMe round sorts before it
            assert root.due == t and tied.total_sent == untied.total_sent


def trial_end(eng: TrialEngine) -> float:
    """The time a finished trial ended at: its END, or the joinMe round that gave up."""
    e = eng.scenario.engine
    if eng.result.joined:
        return eng.t_join + e.measure_ms
    t = e.warmup_ms + e.t_adv_ms
    while t - e.warmup_ms < e.max_wait_ms:
        t += e.t_adv_ms
    return t


@pytest.mark.parametrize("scenario,algo,seed", event_core_cases())
def test_every_node_meters_its_own_buffer(scenario, algo, seed):
    eng = TrialEngine(scenario, algo, seed)
    t = eng.run()
    nodes = eng.net.nodes.values()
    # every drop is charged to exactly one node
    assert sum(n.drops for n in nodes) == t.total_dropped
    assert all(n.last_ms == trial_end(eng) and n.area >= 0 for n in nodes)


class HorizonHeapq:
    """Stands in for the reference engine's heapq: keeps the last popped
    event and raises at the first pop at or past horizon, so a trial that
    missed its exit fails instead of running on."""

    def __init__(self, horizon):
        self.horizon, self.last = horizon, None

    heappush = staticmethod(heapq.heappush)

    def heappop(self, heap):
        self.last = heapq.heappop(heap)
        if self.last[0] >= self.horizon:
            raise AssertionError(f"popped {self.last} at or past the horizon {self.horizon}")
        return self.last


@pytest.mark.parametrize("cases", [golden_cases, grid_cases, busy_cases])
def test_a_trial_ends_at_its_end_or_give_up_before_the_horizon(monkeypatch, cases):
    # every stream and link runs on, so only the trial's own exit ends the loop
    for scenario, algo, seed in cases():
        popping = HorizonHeapq(scenario.engine.horizon_ms())
        monkeypatch.setattr(heap_engine, "heapq", popping)
        t = heap_trial(scenario, algo, seed)
        assert popping.last[1] == (KIND_END if t.joined else KIND_JOINME)


@pytest.mark.parametrize("cases", [golden_cases, busy_cases])
def test_a_later_horizon_changes_no_joined_trial(cases):
    # a longer wait moves only the horizon and the give-up round
    joined = 0
    for scenario, algo, seed in cases():
        t = run_trial(scenario, algo, seed)
        if not t.joined:
            continue
        joined += 1
        eng = scenario.engine
        later = replace(scenario, engine=replace(eng, max_wait_ms=eng.max_wait_ms
                                                 + 5 * eng.t_adv_ms))
        assert later.engine.horizon_ms() > eng.horizon_ms()
        assert run_trial(later, algo, seed) == t
    assert joined


# -- the sweep against the heap loop ---------------------------------


GRID_RATES = (7.8125, 15.625, 31.25)  # mean gaps of 128, 64 and 32 ms


def grid_log(x):
    """math.log rounded to a multiple of 1/2. At a grid rate every gap is
    then a whole multiple of 16 ms, zero included, so arrivals tie with one
    another and with slots, departures and probes laid on the same grid."""
    return -round(-math.log(x) * 2) / 2


@functools.lru_cache(maxsize=None)
def base_layout(n_nodes, seed):
    return gen_random_scenario(n_nodes=n_nodes, seed=seed, area_m=24.0)


@st.composite
def busy_trials(draw):
    """(scenario, algo, seed, grid): a small random layout with busy
    buffers. On the grid, intervals, rates and engine times are multiples
    of 16 ms and arrivals are drawn through grid_log; off it, intervals
    run 7.7-400 ms, fractional ones included, and rates 0-60 pps."""
    grid = draw(st.booleans())
    base = base_layout(draw(st.sampled_from((6, 10))), draw(st.integers(0, 9)))
    new_id = base.new_node_id
    if grid:
        ci = st.sampled_from((16.0, 32.0, 48.0, 64.0, 112.0, 400.0))
        rate = st.sampled_from((0.0,) + GRID_RATES)
        eng = EngineParams(t_adv_ms=draw(st.sampled_from((96.0, 208.0))),
                           warmup_ms=draw(st.sampled_from((304.0, 1008.0))),
                           measure_ms=draw(st.sampled_from((992.0, 2000.0))),
                           max_wait_ms=draw(st.sampled_from((400.0, 800.0))),
                           probe_rate=draw(st.sampled_from((15.625, 62.5))),
                           n_ce=draw(st.integers(1, 4)))
    else:
        ci = st.floats(7.7, 400.0)
        rate = st.one_of(st.just(0.0), st.floats(0.5, 60.0))
        eng = EngineParams(t_adv_ms=draw(st.floats(50.0, 300.0)),
                           warmup_ms=draw(st.floats(200.0, 1500.0)),
                           measure_ms=draw(st.floats(500.0, 2500.0)),
                           max_wait_ms=draw(st.floats(0.0, 1000.0)),
                           probe_rate=draw(st.floats(5.0, 40.0)),
                           n_ce=draw(st.integers(1, 4)))
    nodes = [replace(n, ci_ms=draw(ci), b_max=draw(st.integers(1, 30)),
                     traffic_rate_pps=0.0 if n.id in (1, new_id) else draw(rate))
             for n in base.nodes]
    other = draw(st.integers(2, new_id))  # the joiner takes a relay's id, or keeps its own
    swap = {other: new_id, new_id: other}
    nodes = [replace(n, id=swap.get(n.id, n.id)) for n in nodes]
    lost = draw(st.integers(0, 7)) == 0  # the joiner hears nobody: the last round gives up
    if lost:
        nodes = [replace(n, pos=(300.0, 300.0)) if n.id == other else n for n in nodes]
    scenario = replace(base, nodes=nodes, new_node_id=other, engine=eng, declared_unjoinable=lost,
                       radio=RadioParams(shadowing_sigma_db=draw(st.sampled_from((0.0, 4.0)))))
    return scenario, draw(st.sampled_from(ALGOS)), draw(st.integers(0, 3)), grid


def differing_fields(a, b):
    """The TrialResult fields where a and b differ, bit for bit."""
    return [f.name for f in dataclasses.fields(a) if canon(getattr(a, f.name)) !=
            canon(getattr(b, f.name))]


@contextlib.contextmanager
def drawn(grid):
    """Arrivals through grid_log in both engines when grid is set."""
    with pytest.MonkeyPatch.context() as mp:
        if grid:
            mp.setattr(engine, "log", grid_log)
            mp.setattr(heap_engine, "log", grid_log)
        yield


@settings(max_examples=200, deadline=None)
@given(case=busy_trials())
def test_trials_equal_the_heap_reference(case):
    scenario, algo, seed, grid = case
    with drawn(grid):
        assert differing_fields(run_trial(scenario, algo, seed),
                                heap_trial(scenario, algo, seed)) == []


@pytest.mark.parametrize("seed", range(3))
def test_grid_ties_of_every_kind_match_the_heap_reference(seed):
    # slots, gaps, probes and engine times all on a 16 ms grid, with small
    # buffers: on every node a slot, a child's departure and an arrival
    # meet at one time, and the sweep must order them as the heap does; the
    # joiner takes id 3, so arrivals tie with probes on both sides of its id
    base = base_layout(6, seed)
    eng = EngineParams(t_adv_ms=96.0, warmup_ms=304.0, measure_ms=992.0,
                       max_wait_ms=400.0, probe_rate=62.5, n_ce=2)
    swap = {3: base.new_node_id, base.new_node_id: 3}
    nodes = [replace(n, id=(nid := swap.get(n.id, n.id)), ci_ms=16.0 * (1 + nid % 3), b_max=3,
                     traffic_rate_pps=0.0 if nid in (base.sink_id, 3) else 31.25)
             for n in base.nodes]
    scenario = replace(base, nodes=nodes, new_node_id=3, engine=eng)
    with drawn(True):
        for algo in ALGOS:
            assert differing_fields(run_trial(scenario, algo, seed),
                                    heap_trial(scenario, algo, seed)) == []


@pytest.mark.parametrize("b_max,counts", [(1, (10, 0, 9, 1)), (30, (10, 0, 0, 10))])
def test_a_join_off_the_sinks_cluster_delivers_no_probe(b_max, counts):
    # the joiner hears only node 2, a root cut off from the sink: node 2 sends
    # nothing on, so it keeps what it has room for and drops the rest, as the
    # reference does
    s = Scenario(name="island", nodes=(NodeSpec(1, (0.0, 0.0)),
                                       NodeSpec(2, (50.0, 0.0), b_max=b_max),
                                       NodeSpec(3, (55.0, 0.0), ci_ms=50.0)),
                 sink_id=1, new_node_id=3,
                 engine=EngineParams(warmup_ms=200.0, measure_ms=1000.0, max_wait_ms=400.0))
    t = run_trial(s, "scored", 0)
    assert t.path_to_sink == [3, 2]
    assert (t.probe_sent, t.probe_delivered, t.probe_dropped, t.probe_in_flight) == counts
    assert differing_fields(t, heap_trial(s, "scored", 0)) == []


@settings(max_examples=60, deadline=None)
@given(case=busy_trials(), cut=st.one_of(st.sampled_from((math.inf, "probe")),
                                         st.floats(5.0, 5000.0)))
def test_any_cut_schedule_gives_the_same_trial(case, cut):
    # one cut, a cut at every probe's time, or cuts of a drawn length
    scenario, algo, seed, grid = case
    with drawn(grid):
        want = run_trial(scenario, algo, seed)
        cut_ms = 1000.0 / scenario.engine.probe_rate if cut == "probe" else cut
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_sweep_ms", lambda s: cut_ms)
            assert differing_fields(run_trial(scenario, algo, seed), want) == []


def sweep_cuts(monkeypatch, then=None):
    """The cut keys every TrialEngine._sweep is given, in order, from now on;
    then(engine), if given, runs after each sweep."""
    cuts, sweep = [], TrialEngine._sweep

    def recorded(self, cut):
        cuts.append(cut)
        sweep(self, cut)
        if then is not None:
            then(self)
    monkeypatch.setattr(TrialEngine, "_sweep", recorded)
    return cuts


@settings(max_examples=60, deadline=None)
@given(case=busy_trials(), cut=st.one_of(st.sampled_from((math.inf, "probe")),
                                         st.floats(5.0, 5000.0)))
def test_the_network_holds_its_invariants_at_every_cut(case, cut):
    # marks within what each node holds and only on the probe path, after every sweep
    scenario, algo, seed, grid = case
    cut_ms = 1000.0 / scenario.engine.probe_rate if cut == "probe" else cut
    with drawn(grid), pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_sweep_ms", lambda s: cut_ms)
        cuts = sweep_cuts(mp, then=lambda eng: eng.net.check_invariants())
        run_trial(scenario, algo, seed)
    assert cuts


@pytest.mark.parametrize("n_nodes", [None, 16, 64])
def test_a_default_engine_sweeps_once_to_each_joinme_and_once_to_the_end(monkeypatch, n_nodes):
    # training11 or a random layout: its worst case fits one sweep's budget
    cuts = sweep_cuts(monkeypatch)
    for seed in range(5):
        s = training11() if n_nodes is None else gen_random_scenario(n_nodes=n_nodes, seed=seed)
        eng, new_id = s.engine, s.new_node_id
        for algo in ALGOS:
            cuts.clear()
            joined = run_trial(s, algo, seed).joined
            key, want = eng.warmup_ms + eng.t_adv_ms, []
            while True:  # the rounds' keys, as run() adds them up
                want.append((key, KIND_JOINME, new_id, 0))
                if len(want) >= len(cuts) - joined:
                    break
                key += eng.t_adv_ms
            if joined:
                want.append((key + eng.measure_ms, KIND_END, 0, 0))
            assert cuts == want


def test_sweeps_at_the_event_cap_each_span_at_most_the_budget(monkeypatch):
    # 0.125 us connection intervals over a 102 ms horizon put training11 just under MAX_EVENTS
    s = replace(training11(), engine=EngineParams(t_adv_ms=1.0, warmup_ms=0.0, max_wait_ms=0.0,
                                                  measure_ms=100.0))
    s = replace(s, nodes=[replace(n, ci_ms=1.25e-4) for n in s.nodes])
    events, horizon = s.worst_case_events(), s.engine.horizon_ms()
    assert 0.9 * MAX_EVENTS < events <= MAX_EVENTS
    cuts = sweep_cuts(monkeypatch)
    t = run_trial(s, "scored", 0)
    assert t.joined and len(cuts) > 10
    starts = [0.0] + [c[0] for c in cuts[:-1]]  # the join round's key starts the second phase
    spans = [(c[0] - start) * events / horizon for start, c in zip(starts, cuts)]
    assert max(spans) <= engine._SWEEP_EVENTS * (1 + 1e-9)
    monkeypatch.setattr(engine, "_sweep_ms", lambda s: math.inf)
    assert differing_fields(run_trial(s, "scored", 0), t) == []


@pytest.mark.parametrize("scenario,algo,seed", event_core_cases())
def test_delivered_probes_traverse_the_join_path(scenario, algo, seed):
    # a probe's hops are len(path) - 1: the tree is frozen once the joiner attaches
    t = run_trial(scenario, algo, seed)
    assert all(p.hops == t.hops_at_join for p in t.probes if p.delivered_at_ms is not None)


def test_engine_checks_ranges_of_a_scenario_built_in_code():
    with pytest.raises(ScenarioError, match=r"engine\.t_adv_ms"):
        Scenario(name="isolated", nodes=[NodeSpec(1, (0.0, 0.0)), NodeSpec(2, (9.0, 0.0)),
                                         NodeSpec(3, (100.0, 100.0))],
                 sink_id=1, new_node_id=3, engine=replace(FAST, t_adv_ms=0.0),
                 declared_unjoinable=True)


def test_engine_checks_probe_count_of_a_scenario_built_in_code():
    # 40 ms at 10 pps rounds to no probe: the trial joined but measured nothing
    with pytest.raises(ScenarioError, match=r"engine\.measure_ms: the window holds no probe"):
        replace(training11(), engine=replace(FAST, measure_ms=40.0))
    t = run_trial(replace(training11(), engine=replace(FAST, measure_ms=100.0)), "scored", 0)
    assert t.joined and t.probe_sent == 1


# -- build-up ----------------------------------------------------------


def test_buildup_reaches_single_cluster_when_connected():
    for seed in range(5):
        s = gen_random_scenario(n_nodes=10, seed=seed, area_m=24.0)
        for algo in ("baseline", "scored"):
            net = build_trial_network(s, algo)
            net.check_invariants()
            existing = [nid for nid in net.nodes if nid != s.new_node_id]
            sizes = {net.nodes[nid].cluster_size for nid in existing}
            assert sizes == {len(existing)}


def test_buildup_hook_sees_every_attach():
    s = training11()
    order = build_network(make_network(s), "baseline", Layout(s).links, s)
    assert len(order) == 10  # everyone but sink and joiner
    assert all(c != p for c, p in order)
    assert len({c for c, _ in order}) == 10  # each child attaches once


def test_shadowing_trials_still_deterministic():
    s = replace(training11(), radio=RadioParams(shadowing_sigma_db=4.0))
    a = run_trial(s, "scored", 11)
    b = run_trial(s, "scored", 11)
    assert a == b


def test_shadow_map_paired_across_algos():
    s = replace(training11(), radio=RadioParams(shadowing_sigma_db=3.0))
    m = TrialEngine(s, "baseline", 9).links
    n = TrialEngine(s, "scored", 9).links
    assert [m.heard(a.id) for a in s.nodes] == [n.heard(a.id) for a in s.nodes]
    assert m.heard(1)[2] != m.heard(2)[1]  # ordered pairs draw independently


def test_unshadowed_links_ignore_sigma():
    s = replace(training11(), radio=RadioParams(shadowing_sigma_db=4.0))
    positions = {n.id: Position(*n.pos) for n in s.nodes}
    plain = Links(positions, s.radio)
    shadowed = Links(positions, s.radio, 11)
    for a in positions:
        unshadowed = [(b, hears(positions[a], positions[b], RadioParams())) for b in sorted(positions)]
        assert list(plain.heard(a).items()) == [(b, rl) for b, (heard, rl) in unshadowed
                                                if heard and b != a]
    assert any(plain.heard(a) != shadowed.heard(a) for a in positions)


@pytest.mark.parametrize("sigma", [0.0, 4.0])
@pytest.mark.parametrize("algo", ["baseline", "scored"])
def test_each_link_reaches_hears_at_most_once(monkeypatch, algo, sigma):
    """Unshadowed, a pair of nodes reaches hears once in either order across
    generation and both arms of a pair; shadowed, each ordered pair once per
    trial."""
    calls = collections.Counter()

    def counting(a, b, radio, noise=0.0):
        calls[(a, b) if sigma else frozenset((a, b))] += 1
        return hears(a, b, radio, noise)

    monkeypatch.setattr(engine, "hears", counting)
    if sigma:
        s = replace(training11(), radio=RadioParams(shadowing_sigma_db=sigma))
        for seed in (5, 6):
            calls.clear()
            assert run_trial(s, algo, seed).joined
            assert calls and max(calls.values()) == 1
        return
    other = next(a for a in ALGOS if a != algo)
    for layout in (training11, lambda: gen_random_scenario(n_nodes=16, seed=3)):
        calls.clear()
        s = layout()
        assert run_trial(s, algo, 5).joined and run_trial(s, other, 5).joined
        assert calls and max(calls.values()) == 1


def _tree(net):
    return {nid: (n.master, list(n.slaves), n.cluster_id, n.cluster_size, n.hops_to_sink)
            for nid, n in net.nodes.items()}


@pytest.mark.parametrize("algo", ["baseline", "scored"])
def test_replayed_build_up_equals_a_fresh_build(algo):
    scenarios = {id(s): s for s, _, _ in golden_cases() + busy_cases()}
    scenarios.update((n, gen_random_scenario(n_nodes=n, seed=seed))
                     for n, seed in ((16, 0), (16, 1), (64, 0)))
    for s in scenarios.values():
        fresh = build_trial_network(s, algo)
        first = s.layout.network(s, algo)  # a replay if generation recorded the order
        assert algo in s.layout.attaches
        replayed = s.layout.network(s, algo)
        for net in (first, replayed):
            net.check_invariants()
            assert _tree(net) == _tree(fresh)


@settings(max_examples=150, deadline=None)
@given(specs=st.lists(st.tuples(st.floats(0.0, 15.0), st.floats(0.0, 15.0), st.integers(0, 3)),
                      min_size=3, max_size=9),
       sigma=st.sampled_from([0.0, 4.0]), seed=st.integers(), algo=st.sampled_from(ALGOS))
def test_a_layout_builds_and_replays_what_a_fresh_build_gives(specs, sigma, seed, algo):
    nodes = [NodeSpec(nid, (x, y), slave_capacity=cap)
             for nid, (x, y, cap) in enumerate(specs, start=1)]
    s = Scenario("drawn", nodes, new_node_id=len(nodes),
                 radio=RadioParams(shadowing_sigma_db=sigma))
    fresh = make_network(s)
    build_network(fresh, algo, Links({n.id: Position(*n.pos) for n in s.nodes}, s.radio, seed), s)
    layout = Layout(s, seed)
    first, replayed = layout.network(s, algo), layout.network(s, algo)
    assert _tree(first) == _tree(fresh) == _tree(replayed)
    replayed.check_invariants()
    # a trial shares the scenario's layout exactly when no draws are taken
    assert (TrialEngine(s, algo, seed).layout is s.layout) == (sigma == 0)


def test_trials_on_a_shared_layout_equal_trials_on_a_cold_copy():
    t11 = training11()
    for algo in ALGOS:  # the first trials record the orders later seeds replay
        run_trial(t11, algo, 0)
    cases = [(t11, 1), (t11, 2)] + [(gen_random_scenario(n_nodes=n, seed=seed), seed)
                                    for n, seed in ((16, 0), (16, 4), (64, 1))]
    for s, seed in cases:
        for algo in ALGOS:
            assert algo in s.layout.attaches
            assert run_trial(s, algo, seed) == run_trial(replace(s), algo, seed)


def test_heard_lists_the_heard_links_in_ascending_order():
    s = gen_random_scenario(n_nodes=16, seed=2)
    positions = {n.id: Position(*n.pos) for n in reversed(s.nodes)}  # not in id order
    for links in (Links(positions, s.radio), Links(positions, RadioParams(shadowing_sigma_db=4.0), 3)):
        for at in positions:
            heard = links.heard(at)
            assert list(heard.items()) == scanned_row(links, at)
            assert links.heard(at) is heard  # worked out once, kept on the table


# one shadowed draw, pinned: node 2 hears the sink, the sink does not hear node 2
ASYMMETRIC = Scenario("asymmetric", [NodeSpec(1, (0.0, 0.0)), NodeSpec(3, (17.0, 0.0)),
                                     NodeSpec(2, (13.0, 0.0))],
                      new_node_id=3, radio=RadioParams(shadowing_sigma_db=4.0), engine=FAST)


@pytest.mark.parametrize("algo", ALGOS)
def test_a_node_gathers_what_it_hears_not_what_hears_it(algo):
    links = Layout(ASYMMETRIC, 0).links
    assert list(links.heard(2)) == [1, 3] and links.heard(1) == {} and list(links.heard(3)) == [2]
    net = make_network(ASYMMETRIC)
    assert [c.id for c in engine._gather_candidates(net, 2, links)] == [1]
    order = build_network(net, algo, links, ASYMMETRIC)
    assert order == [(2, 1)]
    r = run_trial(ASYMMETRIC, algo, 0)  # the joiner hears node 2 only
    assert r.joined and r.chosen_parent == 2


def reference_status(net, nid, joiner_id, links):
    """nid's broadcast as joiner_id hears it, worked out by hears with the
    table's draws; None out of range. rn_dbm is hears' too."""
    node, positions = net.nodes[nid], links.positions

    def rssi(at, frm):
        return hears(positions[at], positions[frm], links.radio, links._draws.get((at, frm), 0.0))

    heard, rl = rssi(joiner_id, nid)
    if not heard:
        return None
    rn = None
    if node.master is not None:
        uplink, rn = rssi(nid, node.master)
        assert uplink  # a master is picked from its child's row
    return CandidateInfo(id=nid, cluster_id=node.cluster_id, cluster_size=node.cluster_size,
                         m=len(node.slaves), h=node.hops_to_sink, b=node.tail - node.head,
                         ci_ms=node.ci_ms, rl_dbm=rl, rn_dbm=rn, free_out=node.free_out,
                         children=tuple(node.slaves))


def reference_gather(net, joiner_id, links):
    """The build-up's gather as first written: every member of the sink's
    cluster in id order, each with a free slot and heard by joiner_id."""
    sink_cluster = net.nodes[net.sink_id].cluster_id
    members = sorted(nid for nid, n in net.nodes.items() if n.cluster_id == sink_cluster)
    return [c for nid in members if net.nodes[nid].free_out >= 1
            if (c := reference_status(net, nid, joiner_id, links)) is not None]


def reference_joinme(net, joiner_id, links):
    """The joinMe round's gather as first written: every other node in id order."""
    return [c for nid in sorted(net.nodes) if nid != joiner_id
            if (c := reference_status(net, nid, joiner_id, links)) is not None]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(3, 9), sigma=st.sampled_from([0.0, 4.0]),
       seed=st.integers(), algo=st.sampled_from(ALGOS))
def test_gathers_equal_a_walk_over_every_node(data, n, sigma, seed, algo):
    # ids other than the sink's are drawn apart, and the node list is shuffled
    ids = [1] + data.draw(st.lists(st.integers(2, 60), min_size=n - 1, max_size=n - 1,
                                   unique=True))
    specs = data.draw(st.lists(st.tuples(st.floats(0.0, 15.0), st.floats(0.0, 15.0),
                                         st.integers(0, 3), st.sampled_from([0.0, 2.0, 5.0])),
                               min_size=n, max_size=n))
    nodes = [NodeSpec(nid, (x, y), slave_capacity=cap, traffic_rate_pps=rate if nid > 1 else 0.0)
             for nid, (x, y, cap, rate) in zip(ids, specs)]
    new_id = data.draw(st.sampled_from(ids[1:]))
    s = Scenario("drawn", data.draw(st.permutations(nodes)), new_node_id=new_id,
                 radio=RadioParams(shadowing_sigma_db=sigma), declared_unjoinable=True,
                 engine=EngineParams(warmup_ms=500.0, measure_ms=500.0, max_wait_ms=600.0))
    real_gather, joinme = engine._gather_candidates, []
    rule = "baseline_select" if algo == "baseline" else "filter_candidates"
    real_rule = getattr(engine, rule)

    def checked_gather(net, joiner_id, links):
        cands = real_gather(net, joiner_id, links)
        assert cands == reference_gather(net, joiner_id, links)
        return cands

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_gather_candidates", reference_gather)
        expected = build_network(make_network(s), algo, Layout(s, seed).links, s)
        m.setattr(engine, "_gather_candidates", checked_gather)
        eng = TrialEngine(s, algo, seed)
        eng.layout.network(s, algo)  # the build, so that the trial replays it
        assert eng.layout.attaches[algo] == expected

        def checked_rule(cands, *args):
            assert cands == reference_joinme(eng.net, new_id, eng.links)
            joinme.append(cands)
            return real_rule(cands, *args)

        m.setattr(engine, rule, checked_rule)
        eng.run()
    assert joinme  # every trial holds at least one joinMe round


def test_both_phases_hear_through_broadcast_status(monkeypatch):
    heard, phase = [], ["join"]

    def recording(node, rl, links):
        heard.append((phase[0], node.id, rl))
        return real(node, rl, links)

    def build(*args):
        phase[0] = "build"
        try:
            return real_build(*args)
        finally:
            phase[0] = "join"

    real, real_build = engine.broadcast_status, engine.build_network
    monkeypatch.setattr(engine, "broadcast_status", recording)
    monkeypatch.setattr(engine, "build_network", build)
    s = training11()
    assert run_trial(s, "scored", 0).joined
    assert {p for p, _, _ in heard} == {"build", "join"}
    links = s.layout.links
    joiner_row = links.heard(s.new_node_id).items()
    assert {(nid, rl) for p, nid, rl in heard if p == "join"} == set(joiner_row)
    # each rssi is a heard link to the sender from some other node
    assert all(any(links.heard(rid).get(nid) == rl for rid in links.positions if rid != nid)
               for _, nid, rl in heard)


def masters_unheard(net, links):
    """The nodes whose master is missing from their own row."""
    return [nid for nid, n in net.nodes.items()
            if n.master is not None and n.master not in links.heard(nid)]


@pytest.mark.parametrize("sigma", [0.0, 4.0])
@pytest.mark.parametrize("trial", [run_trial, heap_trial])
def test_every_master_is_in_its_childs_row(monkeypatch, trial, sigma):
    """broadcast_status reads rn_dbm from the sender's own row, so after
    each build-up and after each join every master must be there: over
    the golden scenarios, in the sweep and in the heap reference."""
    cases = [(replace(s, radio=replace(s.radio, shadowing_sigma_db=sigma)), algo, seed)
             for s, algo, seed in golden_cases()]
    real_network, real_decide, checked = Layout.network, TrialEngine._decide, []

    def network(layout, scenario, algo):
        net = real_network(layout, scenario, algo)
        assert masters_unheard(net, layout.links) == []
        checked.append("build")
        return net

    def decide(eng, now_ms):
        joined = real_decide(eng, now_ms)
        if joined:
            assert masters_unheard(eng.net, eng.links) == []
            checked.append("join")
        return joined

    monkeypatch.setattr(Layout, "network", network)
    monkeypatch.setattr(TrialEngine, "_decide", decide)
    joined = sum(trial(s, algo, seed).joined for s, algo, seed in cases)
    assert checked.count("build") == len(cases) and checked.count("join") == joined > 0


def test_unknown_algorithm_rejected():
    s = training11()
    calls = (lambda: TrialEngine(s, "fancy", 0), lambda: run_trial(s, "fancy", 0),
             lambda: Layout(s).network(s, "fancy"),
             lambda: build_network(make_network(s), "fancy", Layout(s).links, s))
    for call in calls:
        with pytest.raises(ValueError, match="'fancy'"):
            call()
