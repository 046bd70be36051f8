"""The heap event loop that TrialEngine.run replaced, kept as its reference.

HeapEngine runs a trial the way the engine did before the leaves-first
sweep: one global heap of (time, kind, node, peer) events popped in key
order. The heap holds only pending work: at most one connection event per
link, one probe, the joiner's next joinMe, and a node's next arrival only
if it was drawn while the node's buffer was empty. Every other arrival is
held on its node (NodeState.due) and follows the same order: _catch_up
applies a node's held arrivals whose keys (t, KIND_GEN, node, 0) sort
before the key of the event about to read that node, whichever event it
is. A held arrival finds a packet in the buffer, so it wakes no link, and a
buffer empties only at its own link's events, which hand the held arrival
to the heap when they do.

It shares the rest with TrialEngine (the layout and build-up,
broadcast_status, connection_event, _finalize), so a difference between
the two is a difference in event order. heapq, connection_event and log
are looked up on this module, so a stand-in installed here sees every
call.
"""

import heapq
import random
from math import inf, log

from scatterjoin.engine import (KIND_CONN, KIND_END, KIND_GEN, KIND_JOINME, ProbeRecord,
                                TrialEngine, TrialResult, branch_saturated, broadcast_status,
                                connection_event)
from scatterjoin.model import NodeState


class HeapEngine(TrialEngine):
    """One trial through the global event heap."""

    def __init__(self, scenario, algo, seed):
        super().__init__(scenario, algo, seed)
        self.heap: list[tuple[float, int, int, int]] = []  # (time, kind, node, peer)

    # -- bookkeeping -------------------------------------------------

    def _catch_up(self, node: NodeState, key: tuple) -> None:
        """Apply node's held arrivals whose keys (t, KIND_GEN, node.id, 0)
        sort before key, the key of the event about to read node. Each does
        what a popped arrival does and draws the next; it wakes no link. The
        stream never ends: the first draw that does not sort before key is
        held in node.due. A tie never reaches key's peer: only probes carry
        one, and the joiner holds no arrivals."""
        until, kind, nid = key[0], key[1], key[2]
        r, t = self.result, node.due
        while t < until or t == until and (kind > KIND_GEN or kind == KIND_GEN and nid > node.id):
            q = node.tail - node.head
            r.total_sent += 1
            node.area += q * (t - node.last_ms)
            node.last_ms = t
            if q >= node.b_max:
                r.total_dropped += 1
                node.drops += 1
            else:
                node.tail += 1
            t += -log(1.0 - node.rnd()) * node.scale
        node.due = t

    def _catch_up_all(self, key: tuple) -> None:
        """_catch_up every node that may hold an arrival sorting before key."""
        for node in self.net.nodes.values():
            if node.due <= key[0]:
                self._catch_up(node, key)

    # -- event handlers ----------------------------------------------

    def _on_join_round(self, key: tuple) -> bool:
        """The joiner's joinMe emission at key: hear, decide, request, attach.

        Returns True when the wait budget ran out with no parent picked.
        """
        s, net, r = self.scenario, self.net, self.result
        eng = s.engine
        new_id = s.new_node_id
        new, now_ms = net.nodes[new_id], key[0]
        self._catch_up_all(key)
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

        heapq.heappush(self.heap, (now_ms, KIND_GEN, new_id, 1))
        new.next_slot_ms = now_ms + new.ci_ms
        heapq.heappush(self.heap, (now_ms + eng.measure_ms, KIND_END, 0, 0))
        return False

    # -- finalization ------------------------------------------------

    def _finalize(self, key: tuple) -> None:
        """Apply each node's held arrivals sorting before key, count the
        delivered and the dropped probes, then close the trial as
        TrialEngine does."""
        for node in self.net.nodes.values():
            if node.due <= key[0]:
                self._catch_up(node, key)
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
        catch_up, catch_up_all = self._catch_up, self._catch_up_all
        interval, n_probes = 1000.0 / eng.probe_rate, eng.n_probes()
        r = self.result
        probes = r.probes
        while True:  # the joiner's next joinMe or the END is always pending
            now, kind, nid, peer = event = pop(heap)
            if kind == KIND_CONN:
                sender, receiver = nodes[nid], nodes[peer]
                if sender.due < now:
                    catch_up(sender, event)
                if receiver.due < now:
                    catch_up(receiver, event)
                sender.area += (sender.tail - sender.head) * (now - sender.last_ms)
                sender.last_ms = now
                held = receiver.tail - receiver.head
                receiver.area += held * (now - receiver.last_ms)
                receiver.last_ms = now
                move(sender, receiver, peer == sink_id, n_ce, r, now)
                # the sender's next slot always sorts after this event
                s = sender.next_slot_ms = now + sender.ci_ms
                if sender.tail != sender.head:
                    push(heap, (s, KIND_CONN, nid, peer))
                elif sender.due < inf:  # emptied: its held arrival goes on the heap
                    push(heap, (sender.due, KIND_GEN, nid, 0))
                    sender.due = inf
                if held or receiver.tail == receiver.head:
                    continue
                node = receiver
            elif kind == KIND_GEN:
                node = nodes[nid]
                if peer:  # probe number peer
                    catch_up_all(event)
                tail = node.tail
                q = tail - node.head
                r.total_sent += 1
                if peer:
                    probe = ProbeRecord(r.total_sent, now)
                    probes.append(probe)
                    if peer < n_probes:
                        push(heap, (self.t_join + peer * interval, KIND_GEN, nid, peer + 1))
                else:  # the buffer holds a packet after this, so the next arrival is held
                    node.due = now + -log(1.0 - node.rnd()) * node.scale
                node.area += q * (now - node.last_ms)
                node.last_ms = now
                if q >= node.b_max:
                    r.total_dropped += 1
                    node.drops += 1
                    if peer:
                        probe.dropped = True
                    continue
                if peer:
                    node.probes.append((tail, probe))
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
