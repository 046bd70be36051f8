"""Seeded discrete-event trial: build the mesh, warm it up, measure one join.

A trial runs three phases on one Network owned by one engine instance:
existing nodes form a sink-rooted tree using the selected join strategy,
background traffic warms the buffers up, then the designated new node
listens, decides, attaches, and streams probe packets to the sink while
per-node buffer occupancy is integrated. Identical (scenario, algo,
seed) triples produce bit-identical results. A Scenario checks its
inputs when it is built, so the engine checks none. Each NodeState
carries its buffer's meter, its uplink's next slot and its arrival
stream. A buffer is counted, not held (see model): packets have no
identity in the sweep, so a connection event moves or drops them by
arithmetic on head and tail, and a probe is a mark on its node's FIFO.
Links are frozen, and Links keeps one row per node, worked out once:
the nodes it hears and at what rssi. Every trial gets its network from
a Layout: a link table and each algorithm's build-up, recorded by its
first build and replayed on a fresh Network after that. Without
shadowing both depend only on the scenario, so every trial shares the
Scenario's Layout; a shadowed trial draws and builds its own. Both the
build phase and each joinMe walk only the nodes the listener hears (its
row, Links.heard) and hear each through broadcast_status: the same
nodes every time, with their state at that instant. The algorithms
differ only in their picks: PICKS gives each a build-up pick and a
joinMe pick, both (cands, joiner, scenario) -> id | None. No node
attaches after the join, so every probe crosses one chain of FIFOs, the
joiner's path at the join: probes keep their order, and a delivered
probe's hop count is hops_at_join.

Every event has a key (time, kind, node, peer), and events apply in key
order, so ties break on kind, then node id, then peer: a joinMe round
(KIND_JOINME, joiner, 0), a connection event at a link's slot (KIND_CONN,
sender, master), an arrival (KIND_GEN, node, 0) or the joiner's probe k
(KIND_GEN, joiner, k), and the trial's end (KIND_END, 0, 0). No global
queue orders them, because a sender never reads its receiver. A
connection event moves n = min(held, n_ce) packets and sets the sender's
next slot from the sender alone; only the receiver reads its free room
(connection_event is that rule for one link, as counts alone: the heap
reference in tests/heap_engine.py calls it and keeps its own probe
records). Packets flow one way, up the tree, so a node's whole
trajectory depends only on its own stream and its subtree.

So TrialEngine._advance(key), the cut, applies every event whose key
sorts before key one node at a time, children before their masters, over
every root. A node merges three key-ordered sources in one loop: its own
arrivals, drawn one at a time; its link's slots while its buffer holds a
packet; and its children's departures in this cut, (slot, sender, n,
leaving) records sorted by (slot, sender). Each turn takes the slot if
it is no later than the next arrival (KIND_CONN sorts before KIND_GEN)
and before the next departure (at equal times the lower sender id goes
first), else the departure if no later than the arrival, else the
arrival, drawn as t - log(1.0 - u) * scale: as a + (-b) is a - b and
(-x) * s is -(x * s), that is the float t + expovariate(1.0) * scale.
The node sends at its own slots and leaves each departure for its
master, which applies connection_event's receiving half: k = min(n,
free) packets join its tail and the other n - k are dropped. leaving
holds the marks of the n packets, 0 when no probe is among them: a send
of n takes the low n bits of the sender's marks and shifts them out, and
a receipt of k at occupancy q sets leaving's low k bits from bit q,
since the receiver keeps a prefix of a departure's probes. Each event
adds occupancy times the time since the node's last event to its meter;
one that finds the buffer empty only moves last_ms, as its term is +0.0.
The sink is never visited: it consumes everything at the sender's slot,
so its buffer stays empty and its meter 0.0. Between cuts a node's state
waits on its NodeState, so any cut schedule gives the same trial. A cut
is applied in sweeps of _sweep_ms(scenario) each, counted from the start
and again from the join: the share of the horizon that holds
_SWEEP_EVENTS of Scenario.worst_case_events(). That bounds the departure
lists held at once, each freed once its master has read it; a default
engine's worst case fits one sweep, so it sweeps once to each joinMe
round and once to the END.

Each link owns a grid of slots, the accumulated sums ci, ci+ci, ...
(from ci_ms for build-phase links, from t_join+ci_ms for the joiner),
and a connection event is due at a slot only while the sender's buffer
holds a packet. Packets leave a buffer only at its own link's events, so
an empty buffer stays empty until something enqueues into it: an
arrival, a probe or a child's departure. That event wakes the link at
the first slot whose key (slot, KIND_CONN, node, master) sorts after its
own. Every slot skipped that way would have found an empty buffer and
done nothing, so the trial is the same as one that visits every slot.

A trial is a sequence of cuts. It advances to each joinMe round's key,
where the joiner hears every node as the cut leaves it. On the join
every meter is split at t_join and the probe times are fixed: t_join,
then t_join + k * interval. Then it advances to the END. A probe's seq
counts the packets sent before it and itself: probe k's seq is k plus
the arrivals whose keys sort before (t, KIND_GEN, joiner, k), those
before t and, at t itself, those of nodes with ids below the joiner's.
Each arrival adds one to the bin of the next probe, the first it sorts
before; a last bin takes those after the last probe. Each path node logs
the probes offered to it and the positions among them it dropped, the
joiner's by probe number, and the sink's child logs one slot per probe
it delivers. Once the END is reached, _resolve_probes follows the path
once, in order, and makes each probe's ProbeRecord: its seq and its
fate. Each count has one place: the close reads total_sent off the bins
and the probes, and total_dropped off the nodes' drops. total_delivered
is added at each send to the sink, apart from the head it moves, so the
conservation check catches a send that moves its head by a wrong count.

A trial ends at its KIND_END key or at the joinMe round that gives up,
and both sort before EngineParams.horizon_ms(): the give-up round comes
by warmup_ms + max_wait_ms + t_adv_ms and the END measure_ms after the
join. Nothing ends earlier: arrival streams and link slots never end,
and each node stops at its first event that does not sort before the
trial's last key, which stays pending on its NodeState.
"""

from __future__ import annotations

import copy
import heapq  # noqa: F401  not used here; bench/spans.py swaps it for a counter
import random
from dataclasses import dataclass, field
from itertools import accumulate, chain, count
from math import inf, log
from operator import add
from typing import TYPE_CHECKING

from .channel import Position, RadioParams, hears
from .join_baseline import baseline_select, strongest
from .join_scored import CandidateInfo, filter_candidates, select_parent
from .model import Network, NodeState

if TYPE_CHECKING:
    from .scenario import Scenario

# event kinds, in tie-break order; the joinMe round hears the status
# broadcasts itself, so no KIND_STATUS event is ever scheduled
KIND_STATUS = 0
KIND_JOINME = 1
KIND_CONN = 2
KIND_GEN = 3
KIND_END = 4


class ConservationError(RuntimeError):
    """Sent packets do not equal delivered + dropped + in flight."""


@dataclass(slots=True)
class ProbeRecord:
    seq: int
    created_at_ms: float
    delivered_at_ms: float | None = None
    dropped: bool = False
    hops: int = 0


@dataclass
class TrialResult:
    trial_seed: int
    algo: str
    joined: bool = False
    chosen_parent: int | None = None
    join_time_ms: float | None = None
    hops_at_join: int | None = None
    path_to_sink: list[int] = field(default_factory=list)
    probes: list[ProbeRecord] = field(default_factory=list)
    probe_sent: int = 0
    probe_delivered: int = 0
    probe_dropped: int = 0
    probe_in_flight: int = 0
    total_sent: int = 0
    total_delivered: int = 0
    total_dropped: int = 0
    total_in_flight: int = 0
    buffer_avg: dict = field(default_factory=dict)      # node -> mean occupancy, measurement window
    overflow_drops: dict = field(default_factory=dict)  # node -> drops, measurement window
    node_b_max: dict = field(default_factory=dict)
    sat_branch: bool | None = None
    eligible_sat: bool = False
    avoided_sat: bool = False


class Links:
    """Every heard link of one layout, frozen once worked out.

    heard(at_id) is at_id's row: each node whose signal at_id hears, in
    ascending id order, mapped to the rssi at_id hears it at. A row is
    worked out once, in one pass, and kept; an unheard link is kept
    nowhere, so a table holds its heard links only. links[at_id, from_id]
    is (heard, rssi) for from_id's signal received at at_id: read from
    the row when heard, else worked out afresh by hears. With a seed and
    shadowing on, one standard-normal draw per ordered pair is taken up
    front in id order, so paired runs of both algorithms on the same seed
    see identical links; such a table belongs to one trial's Layout, and
    a link may then be heard one way only. Without draws a link is the
    same both ways (hypot takes absolute values), so a row takes each
    link to a node whose row is already known from that row, and the
    scenario's Layout shares the table with every check and unshadowed
    trial on it. seed=None is the unshadowed layout.
    """

    def __init__(self, positions: dict[int, Position], radio: RadioParams,
                 seed: int | None = None):
        self.positions, self.radio = positions, radio
        self._ids = ids = sorted(positions)
        self._draws: dict[tuple[int, int], float] = {}
        self._rows: dict[int, dict[int, float]] = {}
        if seed is not None and radio.shadowing_sigma_db > 0:
            rng = random.Random(f"scatterjoin-shadow:{seed}")
            self._draws = {(a, b): rng.gauss(0.0, 1.0) for a in ids for b in ids if a != b}

    def __getitem__(self, link: tuple[int, int]) -> tuple[bool, float]:
        at_id, from_id = link
        rl = self.heard(at_id).get(from_id)
        if rl is not None:
            return True, rl
        return hears(self.positions[at_id], self.positions[from_id], self.radio,
                     self._draws.get(link, 0.0))

    def heard(self, at_id: int) -> dict[int, float]:
        """at_id's row: {id: rssi} for each id at_id hears, ascending."""
        row = self._rows.get(at_id)
        if row is not None:
            return row
        rows, draws, positions, radio = self._rows, self._draws, self.positions, self.radio
        row = rows[at_id] = {}
        here = positions[at_id]
        for other in self._ids:
            if other == at_id:
                continue
            if not draws and (known := rows.get(other)) is not None:
                if at_id in known:
                    row[other] = known[at_id]
                continue
            heard, rl = hears(here, positions[other], radio, draws.get((at_id, other), 0.0))
            if heard:
                row[other] = rl
        return row


def broadcast_status(node: NodeState, links: Links, receiver_id: int) -> CandidateInfo | None:
    """node's fresh status broadcast as receiver_id hears it; None out of range.

    The sender's state is snapshotted at emission time, so the buffer
    occupancy b is instantaneous. rn_dbm is the sender's measured link to
    its master, None for cluster roots.
    """
    rl = links.heard(receiver_id).get(node.id)
    if rl is None:
        return None
    rn = None if node.master is None else links[node.id, node.master][1]
    # positional, in field order: keyword arguments would more than double its cost
    return CandidateInfo(node.id, node.cluster_id, node.cluster_size, len(node.slaves),
                         node.hops_to_sink, node.tail - node.head, node.ci_ms, rl, rn,
                         node.free_out, tuple(node.slaves))


def branch_saturated(path, sink_id: int, theta_sat: float, level) -> bool:
    """The saturated-branch rule, for decision-time labels and the verdict.

    True iff some node on path other than the sink dropped a packet on
    overflow or held a mean occupancy of at least theta_sat * b_max.
    level(nid) gives that node's (mean occupancy, drops, b_max).
    """
    for nid in path:
        if nid == sink_id:
            continue
        avg, drops, b_max = level(nid)
        if drops > 0 or avg >= theta_sat * b_max:
            return True
    return False


def generate_traffic(rate_pps: float, horizon_ms: float, rng: random.Random) -> list[float]:
    """Poisson arrival times in ms over [0, horizon_ms) from the given stream.

    The whole list at once: the reference for the engine, which draws the
    same floats one at a time as t - log(1.0 - rng.random()) * scale, the
    float t + rng.expovariate(1.0) * scale gives: expovariate(1.0) is
    -log(1.0 - u) / 1.0, and a sign moves out of a product and a sum exactly.
    """
    if rate_pps <= 0:
        return []
    times = []
    t = 0.0
    scale = 1000.0 / rate_pps
    while True:
        t += rng.expovariate(1.0) * scale
        if t >= horizon_ms:
            return times
        times.append(t)


def connection_event(sender: NodeState, receiver: NodeState, to_sink: bool, n_ce: int,
                     result: TrialResult) -> int:
    """One connection event on a link, as counts: move up to n_ce packets.

    The n = min(held, n_ce) packets at the sender's head leave. When the
    receiver is the sink (to_sink) it consumes them all. Elsewhere the
    first k = min(n, free) join the receiver's tail and the other n - k are
    dropped at the receiver. The counts go into result. Returns n.
    """
    n = sender.tail - sender.head
    if n > n_ce:
        n = n_ce
    sender.head += n
    if to_sink:
        result.total_delivered += n
        return n
    k = receiver.b_max - (receiver.tail - receiver.head)  # free room, clamped into [0, n]
    if k > n:
        k = n
    elif k < 0:
        k = 0
    if n != k:
        result.total_dropped += n - k
        receiver.drops += n - k
    receiver.tail += k
    return n


def _gather_candidates(net, joiner_id, links):
    """Live candidate records for every heard member of the sink's cluster
    with a free slot, in ascending id order."""
    nodes = net.nodes
    sink_cluster = nodes[net.sink_id].cluster_id
    return [broadcast_status(node, links, joiner_id) for nid in links.heard(joiner_id)
            if (node := nodes[nid]).cluster_id == sink_cluster and node.free_out >= 1]


def scored_select(cands: list[CandidateInfo], joiner: NodeState, s: Scenario) -> int | None:
    """The scored pipeline: filter, then the best score in the biggest cluster."""
    t = s.thresholds
    return select_parent(filter_candidates(cands, t.rl_min_dbm, t.b_fair), s.weights)


# algo -> (build-up pick, joinMe pick), each (cands, joiner, scenario) -> id | None;
# a pick calls the rules by this module's names, so a stand-in here sees every call
PICKS = {
    "baseline": (lambda cands, joiner, s: strongest(cands),
                 lambda cands, joiner, s: baseline_select(cands, joiner)),
    "scored": (scored_select, scored_select),
}
ALGOS = tuple(PICKS)


def picks(algo: str) -> tuple:
    """algo's (build-up pick, joinMe pick); the one check of an algorithm's name."""
    if algo not in PICKS:
        raise ValueError(f"unknown algorithm {algo!r}")
    return PICKS[algo]


def build_network(net: Network, algo: str, links: Links,
                  scenario: Scenario) -> list[tuple[int, int]]:
    """Sink-anchored build-up: unattached roots join the sink's cluster.

    Ascending-id passes over every node but the sink and scenario's
    joiner, one attach at a time, until a full pass makes no progress.
    A root picks among the heard members of the sink's cluster with a
    free slot through algo's build-up pick, which reads the scenario.
    Nodes out of reach stay roots. Returns the attaches as (child,
    parent) pairs in the order they were made.
    """
    pick, nodes = picks(algo)[0], net.nodes
    ids = [nid for nid in sorted(nodes) if nid != net.sink_id and nid != scenario.new_node_id]
    attaches = []
    while True:
        progress = False
        for nid in ids:
            if nodes[nid].master is not None:
                continue
            cands = _gather_candidates(net, nid, links)
            if not cands or (parent := pick(cands, nodes[nid], scenario)) is None:
                continue
            net.attach(nid, parent)
            attaches.append((nid, parent))
            progress = True
        if not progress:
            return attaches


def make_network(scenario: Scenario) -> Network:
    nodes = [NodeState(id=sp.id, pos=Position(*sp.pos), ci_ms=sp.ci_ms,
                       b_max=sp.b_max, slave_capacity=sp.slave_capacity,
                       traffic_rate_pps=sp.traffic_rate_pps)
             for sp in scenario.nodes]
    return Network(nodes, sink_id=scenario.sink_id)


class Layout:
    """What a scenario fixes before any traffic: links and build-ups.

    links is the scenario's table, shadowed under seed when one is given.
    attaches[algo] is algo's build-up over it as (child, parent) pairs in
    attach order, recorded by the first build. The build reads only the
    links and the scenario, so replaying the pairs on a fresh network
    gives the tree the build gives. A Layout holds no reference to its
    scenario, which is handed to each call, so Scenario.layout makes no
    reference cycle.
    """

    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.links = Links({n.id: Position(*n.pos) for n in scenario.nodes},
                           scenario.radio, seed)
        self.attaches: dict[str, list[tuple[int, int]]] = {}

    def network(self, scenario: Scenario, algo: str) -> Network:
        """scenario's network after algo's build-up over these links, before
        any traffic: the recorded attaches replayed, or else a build that
        records them."""
        net = make_network(scenario)
        order = self.attaches.get(algo)
        if order is None:
            self.attaches[algo] = build_network(net, algo, self.links, scenario)
        else:
            for child, parent in order:
                net.attach(child, parent)
        return net

    def reweighted(self) -> Layout:
        """This layout for a copy of its scenario with other weights: the same
        link table and every build-up but scored_select's, the one pick that
        reads weights; the copy records those build-ups afresh."""
        twin = copy.copy(self)
        twin.attaches = {algo: order for algo, order in self.attaches.items()
                         if PICKS[algo][0] is not scored_select}
        return twin


def build_trial_network(scenario: Scenario, algo: str) -> Network:
    """Network after the phase-1 build-up over unshadowed links, before any
    traffic; always a fresh build, never a replay."""
    return Layout(scenario).network(scenario, algo)


# Worst-case events a sweep may span, its pro rata share of
# Scenario.worst_case_events(); it bounds the departure lists held at once.
_SWEEP_EVENTS = 1 << 19

_NO_DEPARTURE = (inf, inf, 0, 0)  # ends each departure list: it sorts after every real one
_IDLE = ((_NO_DEPARTURE,),)  # the departure lists of a node that has none


def _sweep_ms(scenario: Scenario) -> float:
    """Simulated ms per sweep: the share of the horizon that holds
    _SWEEP_EVENTS of the scenario's worst-case events. Any length gives
    the same trial."""
    return scenario.engine.horizon_ms() * _SWEEP_EVENTS / scenario.worst_case_events()


class TrialEngine:
    """One trial's network and RNG streams, advanced node by node, leaves first."""

    def __init__(self, scenario: Scenario, algo: str, seed: int):
        self.join_pick = picks(algo)[1]
        self.scenario = scenario
        self.algo = algo
        self.seed = seed
        # shadowing draws belong to this seed; without them the scenario's own
        self.layout = (Layout(scenario, seed) if scenario.radio.shadowing_sigma_db > 0
                       else scenario.layout)
        self.links = self.layout.links
        self.result = TrialResult(trial_seed=seed, algo=algo)
        self.t_join: float | None = None
        self._join_snap: dict[int, tuple[float, int]] = {}  # node -> (area, drops) at the join
        self._span = _sweep_ms(scenario)
        self._anchor, self._cuts = 0.0, 0  # sweeps end at _anchor + k * _span
        self._probe_times: list[float] = []  # probe k + 1 at _probe_times[k], from the join
        # _before[k]: arrivals that sort before probe k + 1 and not before probe k
        self._before = [0]
        self._passed: dict[int, int] = {}  # node -> the probes its arrivals have passed
        # path node -> (probes offered to it, the positions among them it dropped), from the join
        self._logs: dict[int, tuple[int, list[int]]] = {}
        self._slots: list[float] = []  # the sink's child: one slot per probe it delivers

    # -- the sweep ---------------------------------------------------

    def _leaves_first(self) -> list[NodeState]:
        """The nodes a sweep visits, every child before its master: all but
        the sink, which consumes what reaches it."""
        nodes, order = self.net.nodes, []
        for nid in sorted(nodes):
            if nodes[nid].master is None:
                stack = [nid]
                while stack:
                    node = nodes[stack.pop()]
                    order.append(node)
                    stack += node.slaves
        order.reverse()
        return [n for n in order if n.id != self.net.sink_id]

    def _advance(self, key: tuple) -> None:
        """Apply every event whose key sorts before key, in sweeps that end
        at _anchor + k * _span on the way."""
        while (cut := (self._anchor + (self._cuts + 1) * self._span, KIND_END, 0, 0)) < key:
            self._sweep(cut)
            self._cuts += 1
        self._sweep(key)

    def _sweep(self, cut: tuple) -> None:
        """Apply every event whose key sorts before cut, one node at a time.

        A node merges its own arrivals, its link's slots while its buffer
        holds a packet, and its children's departures before cut, which the
        children left in inbox as (slot, sender, n, leaving) lists ending
        in _NO_DEPARTURE, as three flat cases in key order: a send, a
        receipt (connection_event's two halves) and an arrival.
        """
        ct, after = cut[0], cut[1:]  # cut's (kind, node, peer) decides a tie of times
        sink_id = self.net.sink_id
        n_ce = self.scenario.engine.n_ce
        joiner_id = self.scenario.new_node_id
        before, passed, logs, slots = self._before, self._passed, self._logs, self._slots
        times = self._probe_times + [inf]  # probe k + 1's time at times[k], then inf
        inbox: dict[int, list[list]] = {}
        delivered = 0
        for node in self._order:
            nid, master = node.id, node.master
            lists = inbox.pop(nid, _IDLE)
            deps = lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists))
            i, dt, dc = 0, (nxt := deps[0])[0], nxt[1]  # nxt: the departure at i
            head, tail, area, last = node.head, node.tail, node.area, node.last_ms
            drops = node.drops
            b_max, marks, due, rnd, scale = node.b_max, node.marks, node.due, node.rnd, node.scale
            seen, lost = logs.get(nid, (0, None))  # off the path: no probe, no log
            if master is None:  # a root has no link: no slot comes, and a wake leaves it so
                ns = st = ci = inf
                to_sink, out = False, None
            else:
                ns, ci = node.next_slot_ms, node.ci_ms
                st = ns if tail != head else inf  # the pending slot; inf while the buffer is empty
                to_sink = master == sink_id
                out = None if to_sink else []
            pk = passed.get(nid, 0)
            bound, late = times[pk], nid > joiner_id  # late: sorts after a probe at its time
            while True:
                if st <= due and (st < dt or st == dt and nid < dc):  # its own slot: it sends
                    t = st
                    if not (t < ct or t == ct and (KIND_CONN, nid, master) < after):
                        break
                    q = tail - head
                    area += q * (t - last)
                    last = t
                    n = q if q < n_ce else n_ce
                    leaving = 0
                    if marks:
                        leaving = marks & ((1 << n) - 1)
                        marks >>= n
                    if to_sink:
                        delivered += n
                        if leaving:
                            slots += [t] * leaving.bit_count()
                    else:
                        out.append((t, nid, n, leaving))
                    head += n
                    ns = t + ci
                    st = ns if tail != head else inf
                    continue
                elif dt <= due:  # a child's departure: the node receives
                    t, c, n, leaving = nxt
                    q = tail - head
                    if q:
                        area += q * (t - last)
                    last = t
                    k = b_max - q  # free room, at most n; never negative, as q <= b_max
                    if k >= n:
                        k = n
                    else:
                        drops += n - k
                    if leaving:  # the first k packets join the tail, so a prefix of its probes
                        kept = leaving & ((1 << k) - 1)
                        marks |= kept << q
                        seen += kept.bit_count()
                        if kept != leaving:  # the rest are the next probes offered here
                            gone = (leaving >> k).bit_count()
                            lost.extend(range(seen, seen + gone))
                            seen += gone
                    tail += k
                    if not q and k:  # wake at the first slot after it
                        while ns < t:
                            ns += ci
                        if ns == t and nid < c:
                            ns += ci
                        st = ns
                    i += 1
                    dt, dc = (nxt := deps[i])[0], nxt[1]
                    continue
                t = due  # an arrival, or the joiner's probe
                if not (t < ct or t == ct and (KIND_GEN, nid, 0 if rnd else seen + 1) < after):
                    break
                q = tail - head
                if q:
                    area += q * (t - last)
                last = t
                if rnd is None:  # the joiner's stream is its probes, seen of them sent so far
                    seen += 1
                    due = times[seen]
                    if q >= b_max:
                        drops += 1
                        lost.append(seen - 1)
                        continue
                    marks |= 1 << q
                else:
                    while t >= bound and (t > bound or late):  # past a probe: a later bin
                        pk += 1
                        bound = times[pk]
                    before[pk] += 1
                    due = t - log(1.0 - rnd()) * scale
                    if q >= b_max:
                        drops += 1
                        continue
                tail += 1
                if not q:  # wake at the first slot after it
                    while ns <= t:
                        ns += ci
                    st = ns
            node.head, node.tail, node.area, node.last_ms = head, tail, area, last
            node.drops, node.due, node.marks = drops, due, marks
            passed[nid] = pk
            if lost is not None:
                logs[nid] = (seen, lost)
            if master is not None:
                node.next_slot_ms = ns
                if out:
                    out.append(_NO_DEPARTURE)
                    if (box := inbox.get(master)) is None:
                        inbox[master] = [out]
                    else:
                        box.append(out)
        self.result.total_delivered += delivered

    def _resolve_probes(self) -> None:
        """Make each probe's ProbeRecord once the END is reached, and count
        the delivered and the dropped.

        Probe k's seq counts the packets sent before it, the arrivals in
        the bins of probes 1 to k and the probes before it, plus one. Every
        probe is sent by the END, and its fate follows the path in order:
        the probes offered to a node are those its child passed on, it
        drops the positions its log names, passes on those it accepted but
        the ones it still holds, and the k-th to reach the sink gets the
        sink's child's k-th slot. A path that ends at a root other than
        the sink delivers nothing: its root sends nothing on, so it holds
        every probe it accepted.
        """
        r, nodes, logs, times = self.result, self.net.nodes, self._logs, self._probe_times
        n_sent = len(times)  # every probe is sent before the END
        alive, dropped = list(range(n_sent)), [False] * n_sent
        for nid, (_, lost) in logs.items():  # the path in order, from the joiner
            if lost:
                for p in lost:
                    dropped[alive[p]] = True
                gone = set(lost)
                alive = [k for p, k in enumerate(alive) if p not in gone]
            if held := nodes[nid].marks.bit_count():
                del alive[-held:]
        at, hops, h = [None] * n_sent, [0] * n_sent, r.hops_at_join
        for k, t in zip(alive, self._slots):  # the sink's child delivered them in order
            at[k], hops[k] = t, h
        seqs = map(add, accumulate(self._before), count(1))  # seq k: before[:k + 1] + k + 1
        r.probes = list(map(ProbeRecord, seqs, times, at, dropped, hops))
        r.probe_delivered = len(alive)
        r.probe_dropped = sum(len(lost) for _, lost in logs.values())

    # -- the joinMe round --------------------------------------------

    def _join_round(self, key: tuple) -> bool:
        """The joiner's joinMe emission at key: advance to it, hear, decide,
        request, attach. Returns True when the joiner attached."""
        s, net, r = self.scenario, self.net, self.result
        eng = s.engine
        new_id = s.new_node_id
        new, now_ms = net.nodes[new_id], key[0]
        self._advance(key)
        cands = [broadcast_status(net.nodes[nid], self.links, new_id)
                 for nid in self.links.heard(new_id)]
        parent = self.join_pick(cands, new, s)
        if parent is None:
            return False

        level = {}  # node -> (running mean occupancy, drops, b_max) at the decision
        for nid, node in sorted(net.nodes.items()):
            node.area += (node.tail - node.head) * (now_ms - node.last_ms)
            node.last_ms = now_ms
            self._join_snap[nid] = (node.area, node.drops)
            level[nid] = (node.area / now_ms, node.drops, node.b_max)
        theta = s.thresholds.theta_sat
        labels = {c.id: branch_saturated(net.path_to_root(c.id), net.sink_id,
                                         theta, level.__getitem__)
                  for c in cands}
        r.eligible_sat = any(labels.values()) and not all(labels.values())
        r.avoided_sat = r.eligible_sat and not labels[parent]

        net.attach(new_id, parent)
        r.joined = True
        r.chosen_parent = parent
        r.path_to_sink = net.path_to_root(new_id)
        r.join_time_ms = now_ms - eng.warmup_ms
        r.hops_at_join = new.hops_to_sink
        self.t_join = now_ms

        interval, n_probes = 1000.0 / eng.probe_rate, eng.n_probes()
        self._probe_times = [now_ms + k * interval for k in range(n_probes)]
        self._before += [0] * n_probes  # arrivals before the join stay in bin 0
        self._logs = {nid: (0, []) for nid in r.path_to_sink if nid != net.sink_id}
        net.probe_source = new_id
        new.due = now_ms
        new.next_slot_ms = now_ms + new.ci_ms
        self._anchor, self._cuts = now_ms, 0
        self._order = self._leaves_first()
        return True

    # -- finalization ------------------------------------------------

    def _finalize(self, key: tuple) -> None:
        """Close the trial at key, the KIND_END event or the joinMe round
        that gave up, in one pass over the nodes in id order: each brings
        its meter to key's time and gives its in-flight count, its b_max
        and, if joined, its window figures. Then the conservation check,
        the probes sent and in flight and the verdict; the other totals
        and probe counts are counted before (by run, or per event)."""
        r, now_ms = self.result, key[0]
        window = now_ms - self.t_join if r.joined else None
        in_flight, b_max = 0, r.node_b_max
        for nid, node in sorted(self.net.nodes.items()):
            node.area += (node.tail - node.head) * (now_ms - node.last_ms)
            node.last_ms = now_ms
            in_flight += node.tail - node.head
            b_max[nid] = node.b_max
            if window is not None:
                area, drops = self._join_snap[nid]
                r.buffer_avg[nid] = (node.area - area) / window
                r.overflow_drops[nid] = node.drops - drops
        r.total_in_flight = in_flight
        if r.total_sent - r.total_delivered - r.total_dropped != r.total_in_flight:
            raise ConservationError(
                f"{self.algo} seed {self.seed}: {r.total_sent} sent, "
                f"{r.total_delivered} delivered, {r.total_dropped} dropped, "
                f"{r.total_in_flight} in flight")
        r.probe_sent = len(r.probes)
        r.probe_in_flight = r.probe_sent - r.probe_delivered - r.probe_dropped
        if r.joined:
            r.sat_branch = branch_saturated(
                r.path_to_sink, self.net.sink_id, self.scenario.thresholds.theta_sat,
                lambda nid: (r.buffer_avg[nid], r.overflow_drops[nid], b_max[nid]))

    # -- the trial: a sequence of cuts ---------------------------------

    def run(self) -> TrialResult:
        """Cut to each joinMe round until one joins or the wait runs out, then
        to the END if joined; either way, one close: the totals, _finalize."""
        eng = self.scenario.engine
        new_id = self.scenario.new_node_id
        self.net = self.layout.network(self.scenario, self.algo)
        for nid, node in sorted(self.net.nodes.items()):
            if nid != new_id and node.traffic_rate_pps > 0:
                node.rnd = random.Random(f"scatterjoin-traffic:{self.seed}:{nid}").random
                node.scale = 1000.0 / node.traffic_rate_pps
                node.due = 0.0 - log(1.0 - node.rnd()) * node.scale  # 0.0 - keeps u = 0 at +0.0
            if node.master is not None:
                node.next_slot_ms = node.ci_ms
        self._order = self._leaves_first()
        key = (eng.warmup_ms + eng.t_adv_ms, KIND_JOINME, new_id, 0)
        while not self._join_round(key) and key[0] - eng.warmup_ms < eng.max_wait_ms:
            key = (key[0] + eng.t_adv_ms, KIND_JOINME, new_id, 0)
        r = self.result
        if r.joined:
            key = (self.t_join + eng.measure_ms, KIND_END, 0, 0)
            self._advance(key)
            self._resolve_probes()
        r.total_sent = sum(self._before) + len(self._probe_times)
        r.total_dropped = sum(node.drops for node in self.net.nodes.values())
        self._finalize(key)
        return r


def run_trial(scenario: Scenario, algo: str, seed: int) -> TrialResult:
    """Run one trial; deterministic in (scenario, algo, seed).

    The new node's scenario traffic rate is ignored: during measurement
    its only traffic is the fixed-interval probe stream.
    """
    return TrialEngine(scenario, algo, seed).run()
