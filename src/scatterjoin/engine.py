"""Seeded discrete-event trial: build the mesh, warm it up, measure one join.

A trial runs three phases on one Network owned by one engine instance:
existing nodes form a sink-rooted tree using the selected join strategy,
background traffic warms the buffers up, then the designated new node
listens, decides, attaches, and streams probe packets to the sink while
per-node buffer occupancy is integrated. Identical (scenario, algo, seed)
triples produce bit-identical results. A Scenario checks its inputs when
it is built, so the engine checks none. Each NodeState carries its
buffer's meter, its uplink's next slot and its arrival stream. A buffer
is counted, not held (see model): background packets have no identity,
so a connection event moves or drops them by arithmetic on head and tail
and walks only the probes among them. Links are frozen, and Links works
each out once. Every trial gets its network from a Layout: a link table
and each algorithm's build-up, recorded by its first build and replayed
on a fresh Network after that. Without shadowing both depend only on the
scenario, so every trial shares the Scenario's Layout; a shadowed trial
draws and builds its own. Both the build phase and each joinMe walk only
the nodes the listener hears (Links.heard) and hear each through
broadcast_status: the same nodes every time, with their state at that
instant. The algorithms differ only in their picks: PICKS gives each a
build-up pick and a joinMe pick, both (cands, joiner, scenario) -> id |
None. A delivered probe's hop count is hops_at_join: no node attaches
after the join, so the tree a probe crosses is the joiner's path at the
join.

Every event has a key (time, kind, node, peer), and events apply in key
order, so ties break on kind, then node id, then peer: a joinMe round
(KIND_JOINME, joiner, 0), a connection event at a link's slot (KIND_CONN,
sender, master), an arrival (KIND_GEN, node, 0) or the joiner's probe k
(KIND_GEN, joiner, k), and the trial's end (KIND_END, 0, 0). No global
queue orders them, because a sender never reads its receiver. A
connection event moves n = min(held, n_ce) packets and sets the sender's
next slot from the sender alone; only the receiver reads its free room
(connection_event is that rule for one link). Packets flow one way, up
the tree, so a node's whole trajectory depends only on its own stream and
its subtree.

So TrialEngine._advance(key), the cut, applies every event whose key
sorts before key one node at a time, children before their masters, over
every root. A node merges three key-ordered sources in one loop: its own
arrivals, drawn one at a time; its link's slots while its buffer holds a
packet; and its children's departures in this cut, (slot, sender, n,
probes) records sorted by (slot, sender). It sends at its own slots and
leaves each departure for its master, which applies connection_event's
receiving half: k = min(n, free) packets join its tail and the other
n - k, probes among them, are dropped. The sink is never visited: it
consumes everything at the sender's slot, so its buffer stays empty and
its meter 0.0. Between cuts a node's state waits on its NodeState, so any
cut schedule gives the same trial. A cut is applied in sweeps that end
every _CUT_MS ms, counted from the start and again from the join, which
bounds the departure lists held at once: each is freed once its master
has read it.

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
where the joiner hears every node as the cut leaves it. On the join every
meter is split at t_join and the probe times are fixed: t_join, then
t_join + k * interval. Then it advances to the END. A probe's seq counts
the packets sent before it and itself: probe k's seq is k plus the
arrivals whose keys sort before (t, KIND_GEN, joiner, k), those before t
and, at t itself, those of nodes with ids below the joiner's. Each node
counts its arrivals past each probe time as it goes, and the seqs are
set once the END is reached.

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
from itertools import chain
from math import inf, log
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


@dataclass
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
    """Every directed link of one layout, frozen once worked out.

    links[at_id, from_id] is (heard, rssi) for from_id's signal received
    at at_id, worked out by hears on first use and kept. heard(at_id)
    lists, in ascending id order, the nodes whose signal at_id hears;
    each list is worked out once, in one pass, and kept. With a seed and
    shadowing on, one standard-normal draw per ordered pair is taken up
    front in id order, so paired runs of both algorithms on the same seed
    see identical links; such a table belongs to one trial's Layout, and
    a link may then be heard one way only. Without draws a link is the
    same both ways (hypot takes absolute values), so its result is kept
    under both orders, and the scenario's Layout shares the table with
    every check and unshadowed trial on it. seed=None is the unshadowed
    layout.
    """

    def __init__(self, positions: dict[int, Position], radio: RadioParams,
                 seed: int | None = None):
        self.positions, self.radio = positions, radio
        self._ids = ids = sorted(positions)
        self._draws: dict[tuple[int, int], float] = {}
        self._known: dict[tuple[int, int], tuple[bool, float]] = {}
        self._heard: dict[int, list[int]] = {}
        if seed is not None and radio.shadowing_sigma_db > 0:
            rng = random.Random(f"scatterjoin-shadow:{seed}")
            self._draws = {(a, b): rng.gauss(0.0, 1.0) for a in ids for b in ids if a != b}

    def __getitem__(self, link: tuple[int, int]) -> tuple[bool, float]:
        known = self._known.get(link)
        if known is None:
            at_id, from_id = link
            draws = self._draws
            known = self._known[link] = hears(self.positions[at_id], self.positions[from_id],
                                              self.radio, draws.get(link, 0.0))
            if not draws:
                self._known[from_id, at_id] = known
        return known

    def heard(self, at_id: int) -> list[int]:
        """The ids at_id hears (links[at_id, other] heard), ascending.

        One pass over the ids, sorted once per table: a known link is read
        from the cache, an unknown one is worked out by hears and kept as
        links[at_id, other] would keep it.
        """
        ids = self._heard.get(at_id)
        if ids is not None:
            return ids
        ids = self._heard[at_id] = []
        known, draws, positions, radio = self._known, self._draws, self.positions, self.radio
        here = positions[at_id]
        for other in self._ids:
            if other == at_id:
                continue
            link = (at_id, other)
            result = known.get(link)
            if result is None:
                result = known[link] = hears(here, positions[other], radio, draws.get(link, 0.0))
                if not draws:
                    known[other, at_id] = result
            if result[0]:
                ids.append(other)
        return ids


def broadcast_status(node: NodeState, links: Links, receiver_id: int) -> CandidateInfo | None:
    """node's fresh status broadcast as receiver_id hears it; None out of range.

    The sender's state is snapshotted at emission time, so the buffer
    occupancy b is instantaneous. rn_dbm is the sender's measured link to
    its master, None for cluster roots.
    """
    heard, rl = links[receiver_id, node.id]
    if not heard:
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
    same floats one at a time as t + -log(1.0 - rng.random()) * scale.
    That is the float rng.expovariate(1.0) returns, whose division by 1.0
    leaves it unchanged, without the call.
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
                     result: TrialResult, now_ms: float) -> int:
    """One connection event on a link: move up to n_ce packets.

    The n packets at the sender's head leave in FIFO order. When the
    receiver is the sink (to_sink) it consumes them all, and each probe
    among them is stamped delivered at now_ms. Elsewhere the first
    k = min(n, free) join the receiver's tail in the same order, and the
    other n - k are dropped at the receiver. The counts go into result.
    Returns n.
    """
    head, probes = sender.head, sender.probes
    n = sender.tail - head
    if n > n_ce:
        n = n_ce
    end = sender.head = head + n
    if to_sink:
        result.total_delivered += n
        while probes and probes[0][0] < end:
            probe = probes.popleft()[1]
            probe.delivered_at_ms = now_ms
            probe.hops = result.hops_at_join
        return n
    tail = receiver.tail
    k = receiver.b_max - (tail - receiver.head)  # free room, clamped into [0, n]
    if k > n:
        k = n
    elif k < 0:
        k = 0
    if probes:
        cut, shift = head + k, tail - head
        while probes and probes[0][0] < end:
            index, probe = probes.popleft()
            if index < cut:
                receiver.probes.append((index + shift, probe))
            else:
                probe.dropped = True
    if n != k:
        result.total_dropped += n - k
        receiver.drops += n - k
    receiver.tail = tail + k
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


# Simulated ms per sweep, counted from the trial's start and again from the
# join. It bounds the departure lists held at once and changes no result.
_CUT_MS = 5000.0


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
        self._anchor, self._cuts = 0.0, 0  # sweeps end at _anchor + k * _CUT_MS
        self._probe_times: list[float] = []  # probe k + 1 at _probe_times[k], from the join
        # _before[k]: arrivals that sort before probe k + 1 and not before probe k
        self._before = [0]
        self._tally: dict[int, tuple[int, int]] = {}  # node -> (probes passed, arrivals since)

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
        at _anchor + k * _CUT_MS on the way."""
        while (cut := (self._anchor + (self._cuts + 1) * _CUT_MS, KIND_END, 0, 0)) < key:
            self._sweep(cut)
            self._cuts += 1
        self._sweep(key)

    def _sweep(self, cut: tuple) -> None:
        """Apply every event whose key sorts before cut, one node at a time.

        A node merges its own arrivals, its link's slots while its buffer
        holds a packet, and its children's departures before cut, which the
        children left in inbox as (slot, sender, n, probes) lists. A slot
        and a departure are connection_event's sending and receiving halves.
        """
        ct, after = cut[0], cut[1:]  # cut's (kind, node, peer) decides a tie of times
        r, sink_id = self.result, self.net.sink_id
        n_ce, hops = self.scenario.engine.n_ce, r.hops_at_join
        joiner_id = self.scenario.new_node_id
        times, before, tally, sent_probes = self._probe_times, self._before, self._tally, r.probes
        n_probes = len(times)
        inbox: dict[int, list[list]] = {}
        sent = delivered = 0
        for node in self._order:
            nid, master = node.id, node.master
            lists = inbox.pop(nid, None)
            if lists is None:
                deps, nd, dt, dc = (), 0, inf, inf
            else:
                deps = lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists))
                nd, dt, dc = len(deps), deps[0][0], deps[0][1]
            i = 0
            head, tail, area, last = node.head, node.tail, node.area, node.last_ms
            drops = dropped = node.drops
            b_max, probes, due, rnd, scale = node.b_max, node.probes, node.due, node.rnd, node.scale
            if master is None:  # a root has no link: no slot comes, and a wake leaves it so
                ns = st = ci = inf
                to_sink, out = False, None
            else:
                ns, ci = node.next_slot_ms, node.ci_ms
                st = ns if tail != head else inf  # the pending slot; inf while the buffer is empty
                to_sink = master == sink_id
                out = None if to_sink else []
            pk, carry = tally.get(nid, (0, 0))
            bound, own, mark = times[pk] if pk < n_probes else inf, 0, 0
            while True:
                if st <= dt and (st < dt or nid < dc):
                    if st <= due:  # the node's own slot: it sends
                        t = st
                        if not (t < ct or t == ct and (KIND_CONN, nid, master) < after):
                            break
                        q = tail - head
                        area += q * (t - last)
                        last = t
                        end = head + (q if q < n_ce else n_ce)
                        moved = None
                        if probes and probes[0][0] < end:
                            if to_sink:
                                while probes and probes[0][0] < end:
                                    probe = probes.popleft()[1]
                                    probe.delivered_at_ms = t
                                    probe.hops = hops
                            else:
                                moved = []
                                while probes and probes[0][0] < end:
                                    index, probe = probes.popleft()
                                    moved.append((index - head, probe))
                        if to_sink:
                            delivered += end - head
                        else:
                            out.append((t, nid, end - head, moved))
                        head = end
                        ns = t + ci
                        st = ns if tail != head else inf
                        continue
                elif dt <= due:  # a child's departure: the node receives
                    t, c, n, moved = deps[i]
                    q = tail - head
                    area += q * (t - last)
                    last = t
                    k = b_max - q  # free room, clamped into [0, n]
                    if k > n:
                        k = n
                    elif k < 0:
                        k = 0
                    if moved:
                        for offset, probe in moved:
                            if offset < k:
                                probes.append((tail + offset, probe))
                            else:
                                probe.dropped = True
                    drops += n - k
                    tail += k
                    if not q and k:  # wake at the first slot after it
                        while ns < t:
                            ns += ci
                        if ns == t and nid < c:
                            ns += ci
                        st = ns
                    i += 1
                    if i < nd:
                        dt, dc = deps[i][0], deps[i][1]
                    else:
                        dt = dc = inf
                    continue
                t = due  # an arrival, or the joiner's probe
                if not (t < ct or t == ct and
                        (KIND_GEN, nid, 0 if rnd else len(sent_probes) + 1) < after):
                    break
                q = tail - head
                area += q * (t - last)
                last = t
                if rnd is None:  # the joiner's stream is its probes; seqs come at the end
                    probe = ProbeRecord(0, t)
                    sent_probes.append(probe)
                    k = len(sent_probes)
                    due = times[k] if k < n_probes else inf
                    sent += 1
                    if q >= b_max:
                        drops += 1
                        probe.dropped = True
                        continue
                    probes.append((tail, probe))
                else:
                    if t >= bound:  # past one or more probes: credit them what came before
                        while pk < n_probes and (t > times[pk] or
                                                 t == times[pk] and nid > joiner_id):
                            before[pk] += carry + own - mark
                            carry, mark, pk = 0, own, pk + 1
                        bound = times[pk] if pk < n_probes else inf
                    own += 1
                    due = t + -log(1.0 - rnd()) * scale
                    if q >= b_max:
                        drops += 1
                        continue
                tail += 1
                if not q:  # wake at the first slot after it
                    while ns <= t:
                        ns += ci
                    st = ns
            node.head, node.tail, node.area, node.last_ms = head, tail, area, last
            node.drops, node.due = drops, due
            r.total_dropped += drops - dropped
            sent += own
            if own:
                tally[nid] = (pk, carry + own - mark)
            if master is not None:
                node.next_slot_ms = ns
                if out:
                    if (box := inbox.get(master)) is None:
                        inbox[master] = [out]
                    else:
                        box.append(out)
        r.total_sent += sent
        r.total_delivered += delivered

    def _number_probes(self) -> None:
        """Give probe k its seq: the packets sent before it, arrivals whose
        keys sort before (t, KIND_GEN, joiner, k) and the probes before it,
        plus one."""
        before = self._before
        for pk, carry in self._tally.values():
            before[pk] += carry
        sent = 0
        for k, probe in enumerate(self.result.probes):
            sent += before[k]
            probe.seq = sent + k + 1

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
        self._before = [0] * (n_probes + 1)
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
        the probe tallies and the verdict."""
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
        r.probe_delivered = sum(p.delivered_at_ms is not None for p in r.probes)
        r.probe_dropped = sum(p.dropped for p in r.probes)
        r.probe_in_flight = r.probe_sent - r.probe_delivered - r.probe_dropped
        if r.joined:
            r.sat_branch = branch_saturated(
                r.path_to_sink, self.net.sink_id, self.scenario.thresholds.theta_sat,
                lambda nid: (r.buffer_avg[nid], r.overflow_drops[nid], b_max[nid]))

    # -- the trial: a sequence of cuts ---------------------------------

    def run(self) -> TrialResult:
        eng = self.scenario.engine
        new_id = self.scenario.new_node_id
        self.net = self.layout.network(self.scenario, self.algo)
        for nid, node in sorted(self.net.nodes.items()):
            if nid != new_id and node.traffic_rate_pps > 0:
                node.rnd = random.Random(f"scatterjoin-traffic:{self.seed}:{nid}").random
                node.scale = 1000.0 / node.traffic_rate_pps
                node.due = 0.0 + -log(1.0 - node.rnd()) * node.scale  # 0.0 + turns -0.0 into 0.0
            if node.master is not None:
                node.next_slot_ms = node.ci_ms
        self._order = self._leaves_first()
        key = (eng.warmup_ms + eng.t_adv_ms, KIND_JOINME, new_id, 0)
        while not self._join_round(key):
            if key[0] - eng.warmup_ms >= eng.max_wait_ms:  # the wait budget ran out
                self._finalize(key)
                return self.result
            key = (key[0] + eng.t_adv_ms, KIND_JOINME, new_id, 0)
        key = (self.t_join + eng.measure_ms, KIND_END, 0, 0)
        self._advance(key)
        self._number_probes()
        self._finalize(key)
        return self.result


def run_trial(scenario: Scenario, algo: str, seed: int) -> TrialResult:
    """Run one trial; deterministic in (scenario, algo, seed).

    The new node's scenario traffic rate is ignored: during measurement
    its only traffic is the fixed-interval probe stream.
    """
    return TrialEngine(scenario, algo, seed).run()
