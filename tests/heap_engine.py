"""The heap event loop that TrialEngine.run replaced, kept as its reference.

HeapEngine runs a trial as a plain discrete-event loop: one global heap
of (time, kind, node, peer) events popped in key order. Popping an
arrival pushes its stream's next one, and popping probe k pushes probe
k + 1. A link is on the heap only while its sender's buffer holds a
packet: the event that gives an empty buffer a packet pushes the link at
its first slot sorting after that event, and the link's own event
pushes its next slot while packets remain.

It shares the rest with TrialEngine (the layout and build-up,
broadcast_status, connection_event's counts, _finalize), so a difference
between the two is a difference in event order. The probes are its own:
probes[nid] holds each probe on path node nid as (index, ProbeRecord) in
FIFO order, its index the node's tail when it entered, and move_probes
carries them along after each connection event. heapq, connection_event
and log are looked up on this module, so a stand-in installed here sees
every call.
"""

import heapq
import random
from collections import deque
from math import log

from scatterjoin.engine import (KIND_CONN, KIND_END, KIND_GEN, KIND_JOINME, ProbeRecord,
                                TrialEngine, TrialResult, branch_saturated, broadcast_status,
                                connection_event)
from scatterjoin.model import NodeState


def move_probes(probes: dict, sender: NodeState, receiver: NodeState, to_sink: bool,
                head: int, tail: int, now_ms: float, hops: int) -> None:
    """The probe step after connection_event(sender, receiver, to_sink, ...)
    at now_ms, which moved sender's head from head to sender.head and
    receiver's tail from tail to receiver.tail. The probes among the moved
    packets leave sender's deque in order: the sink stamps each delivered,
    after hops; elsewhere the receiver keeps those among its first
    receiver.tail - tail and the rest are dropped."""
    queue, end = probes[sender.id], sender.head
    if to_sink:
        while queue and queue[0][0] < end:
            probe = queue.popleft()[1]
            probe.delivered_at_ms, probe.hops = now_ms, hops
        return
    kept, cut, shift = probes[receiver.id], head + receiver.tail - tail, tail - head
    while queue and queue[0][0] < end:
        index, probe = queue.popleft()
        if index < cut:
            kept.append((index + shift, probe))
        else:
            probe.dropped = True


def check_probe_order(probes: dict, nodes: dict) -> None:
    """Raise AssertionError unless each node's probes sit at increasing
    indices within what it holds, [head, tail)."""
    for nid, queue in probes.items():
        node, last = nodes[nid], nodes[nid].head - 1
        for index, _ in queue:
            if not last < index < node.tail:
                raise AssertionError(f"node {nid}: probe index {index} out of order or "
                                     f"outside [{node.head}, {node.tail})")
            last = index


class HeapEngine(TrialEngine):
    """One trial through the global event heap."""

    def __init__(self, scenario, algo, seed):
        super().__init__(scenario, algo, seed)
        self.heap: list[tuple[float, int, int, int]] = []  # (time, kind, node, peer)
        self.probes: dict[int, deque] = {}  # path node -> deque of (index, ProbeRecord)

    # -- event handlers ----------------------------------------------

    def _on_join_round(self, key: tuple) -> bool:
        """The joiner's joinMe emission at key: hear, decide, request, attach.

        Returns True when the wait budget ran out with no parent picked.
        """
        s, net, r = self.scenario, self.net, self.result
        eng = s.engine
        new_id = s.new_node_id
        new, now_ms = net.nodes[new_id], key[0]
        cands = [broadcast_status(net.nodes[nid], self.links, new_id)
                 for nid in self.links.heard(new_id)]
        parent = self.join_pick(cands, new, s)
        if parent is None:
            if now_ms - eng.warmup_ms >= eng.max_wait_ms:
                return True
            heapq.heappush(self.heap, (now_ms + eng.t_adv_ms, KIND_JOINME, new_id, 0))
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
        self.probes.update((nid, deque()) for nid in r.path_to_sink)

        heapq.heappush(self.heap, (now_ms, KIND_GEN, new_id, 1))
        new.next_slot_ms = now_ms + new.ci_ms
        heapq.heappush(self.heap, (now_ms + eng.measure_ms, KIND_END, 0, 0))
        return False

    # -- finalization ------------------------------------------------

    def _finalize(self, key: tuple) -> None:
        """Check the probe deques, count the delivered and the dropped
        probes, then close the trial as TrialEngine does."""
        check_probe_order(self.probes, self.net.nodes)
        r = self.result
        r.probe_delivered = sum(p.delivered_at_ms is not None for p in r.probes)
        r.probe_dropped = sum(p.dropped for p in r.probes)
        super()._finalize(key)

    # -- main loop ---------------------------------------------------

    def run(self) -> TrialResult:
        eng = self.scenario.engine
        new_id = self.scenario.new_node_id
        self.net = self.layout.network(self.scenario, self.algo)

        heap = self.heap
        for nid, node in sorted(self.net.nodes.items()):
            if nid != new_id and node.traffic_rate_pps > 0:
                node.rnd = random.Random(f"scatterjoin-traffic:{self.seed}:{nid}").random
                node.scale = 1000.0 / node.traffic_rate_pps
                t = 0.0 + -log(1.0 - node.rnd()) * node.scale  # 0.0 + turns -0.0 into 0.0
                heapq.heappush(heap, (t, KIND_GEN, nid, 0))
            if node.master is not None:
                node.next_slot_ms = node.ci_ms
        heapq.heappush(heap, (eng.warmup_ms + eng.t_adv_ms, KIND_JOINME, new_id, 0))

        # Connection and arrival events are handled inline on these locals.
        # heapq and connection_event are looked up here, per trial, so a
        # stand-in installed on the module still sees every call.
        push, pop = heapq.heappush, heapq.heappop
        move = connection_event
        nodes, sink_id = self.net.nodes, self.net.sink_id
        n_ce = eng.n_ce
        interval, n_probes = 1000.0 / eng.probe_rate, eng.n_probes()
        r, probes = self.result, self.probes
        while True:  # the joiner's next joinMe or the END is always pending
            now, kind, nid, peer = event = pop(heap)
            if kind == KIND_CONN:
                sender, receiver = nodes[nid], nodes[peer]
                head = sender.head
                sender.area += (sender.tail - head) * (now - sender.last_ms)
                sender.last_ms = now
                tail = receiver.tail
                held = tail - receiver.head
                receiver.area += held * (now - receiver.last_ms)
                receiver.last_ms = now
                move(sender, receiver, peer == sink_id, n_ce, r)
                if probes.get(nid):
                    move_probes(probes, sender, receiver, peer == sink_id, head, tail, now,
                                r.hops_at_join)
                # the sender's next slot always sorts after this event
                s = sender.next_slot_ms = now + sender.ci_ms
                if sender.tail != sender.head:
                    push(heap, (s, KIND_CONN, nid, peer))
                if held or receiver.tail == receiver.head:
                    continue
                node = receiver
            elif kind == KIND_GEN:
                node = nodes[nid]
                tail = node.tail
                q = tail - node.head
                r.total_sent += 1
                if peer:  # probe number peer
                    probe = ProbeRecord(r.total_sent, now)
                    r.probes.append(probe)
                    if peer < n_probes:
                        push(heap, (self.t_join + peer * interval, KIND_GEN, nid, peer + 1))
                else:
                    push(heap, (now + -log(1.0 - node.rnd()) * node.scale, KIND_GEN, nid, 0))
                node.area += q * (now - node.last_ms)
                node.last_ms = now
                if q >= node.b_max:
                    r.total_dropped += 1
                    node.drops += 1
                    if peer:
                        probe.dropped = True
                    continue
                if peer:
                    probes[nid].append((tail, probe))
                node.tail = tail + 1
                if q:
                    continue
            elif kind == KIND_END or self._on_join_round(event):
                break
            else:
                continue
            # The event gave node's empty buffer a packet: push node's link
            # at its first slot sorting after the event. Roots have no link.
            master = node.master
            if master is not None:
                s, ci = node.next_slot_ms, node.ci_ms
                while s < now:
                    s += ci
                if (s, KIND_CONN, node.id, master) <= event:
                    s += ci
                node.next_slot_ms = s
                push(heap, (s, KIND_CONN, node.id, master))
        self._finalize(event)
        return self.result


def heap_trial(scenario, algo: str, seed: int) -> TrialResult:
    """run_trial through the heap loop."""
    return HeapEngine(scenario, algo, seed).run()
