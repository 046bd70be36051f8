"""Mesh state: nodes, clusters and the master/slave tree; buffers count packets.

A NodeState also carries a trial's per-node state, none of it a
constructor option. Its buffer is a FIFO of packets counted, not held:
head packets have left it and tail have entered, so it holds tail - head.
Background packets carry no identity; a probe is kept in probes as
(index, ProbeRecord), its index being the tail value when it entered,
so it sits index - head places from the front. Then come the buffer's
occupancy meter (area, the integral of occupancy up to last_ms, and
drops, the packets lost at this node to a full buffer), its uplink's
next_slot_ms, the earliest connection slot not yet passed, and its
arrival stream: rnd, the stream's random(), and scale, the mean gap in
ms. due is the time of the next arrival not yet applied, inf when the
node has no stream; for the joiner after its join, it is the next probe's.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from math import inf

from .channel import Position

SINK_ID = 1


class SlotExhausted(Exception):
    """Target node has no free slave slot."""


class TopologyError(Exception):
    """An attach would violate the cluster-tree structure."""


@dataclass(slots=True)  # every field set in __init__, in one order: fast reads
class NodeState:
    id: int
    pos: Position
    ci_ms: float = 100.0
    b_max: int = 30
    slave_capacity: int = 3
    traffic_rate_pps: float = 0.0
    cluster_id: int = -1
    cluster_size: int = 1
    master: int | None = None
    slaves: list[int] = field(default_factory=list)
    hops_to_sink: int = 0
    head: int = field(default=0, init=False)
    tail: int = field(default=0, init=False)
    probes: deque = field(default_factory=deque, init=False)
    area: float = field(default=0.0, init=False)
    last_ms: float = field(default=0.0, init=False)
    drops: int = field(default=0, init=False)
    next_slot_ms: float = field(default=0.0, init=False)
    rnd: Callable[[], float] | None = field(default=None, init=False)
    scale: float = field(default=0.0, init=False)
    due: float = field(default=inf, init=False)

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("node ids are positive integers")
        if self.cluster_id == -1:
            self.cluster_id = self.id

    @property
    def free_out(self) -> int:
        return self.slave_capacity - len(self.slaves)


class Network:
    """Mutable network state owned by a single trial.

    It keeps each cluster's member ids (cluster id -> ids), built on first
    use and rebuilt from the nodes whenever nodes has changed size since,
    so a node added to nodes after construction is counted. Cluster ids
    change only through attach, which keeps the index in step.
    """

    def __init__(self, nodes, sink_id: int = SINK_ID):
        self.nodes: dict[int, NodeState] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValueError(f"duplicate node id {n.id}")
            self.nodes[n.id] = n
        if sink_id not in self.nodes:
            raise ValueError(f"sink id {sink_id} not present")
        self.sink_id = sink_id
        self._members: dict[int, list[int]] = {}
        self._indexed = 0  # len(nodes) when _members was built; 0: never

    def _clusters(self) -> dict[int, list[int]]:
        """Cluster id -> member ids, rebuilt if nodes changed size since."""
        if self._indexed != len(self.nodes):
            self._members = members = {}
            for nid, n in self.nodes.items():
                members.setdefault(n.cluster_id, []).append(nid)
            self._indexed = len(self.nodes)
        return self._members

    def cluster_members(self, cluster_id: int) -> list[int]:
        return sorted(self._clusters().get(cluster_id, ()))

    def attach(self, child_id: int, parent_id: int) -> None:
        """Merge the child's cluster under parent: child becomes parent's slave.

        The child must be the root of its own cluster; its whole cluster
        adopts the parent's cluster id and gets its hop counts recomputed.
        Only the two merging clusters' members are relabelled, read from
        the member index; a refused attach changes nothing.
        """
        child = self.nodes[child_id]
        parent = self.nodes[parent_id]
        if parent.free_out < 1:
            raise SlotExhausted(f"node {parent_id} has no free slave slot")
        if child.master is not None:
            raise TopologyError(f"node {child_id} already has a master")
        if child.cluster_id == parent.cluster_id:
            raise TopologyError(
                f"attaching {child_id} under {parent_id} would create a cycle")

        clusters, nodes = self._clusters(), self.nodes
        cluster_id = parent.cluster_id
        merged = parent.cluster_size + child.cluster_size
        child.master = parent_id
        parent.slaves.append(child_id)
        members = clusters[cluster_id]
        absorbed = clusters.pop(child.cluster_id)
        for nid in absorbed:
            nodes[nid].cluster_id = cluster_id
        members += absorbed
        for nid in members:
            nodes[nid].cluster_size = merged
        # hop counts for the absorbed subtree
        child.hops_to_sink = parent.hops_to_sink + 1
        stack = [child_id]
        while stack:
            nid = stack.pop()
            for sid in self.nodes[nid].slaves:
                self.nodes[sid].hops_to_sink = self.nodes[nid].hops_to_sink + 1
                stack.append(sid)

    def path_to_root(self, node_id: int) -> list[int]:
        """Node ids from node_id up the master chain to its cluster root."""
        path = [node_id]
        seen = {node_id}
        cur = self.nodes[node_id]
        while cur.master is not None:
            nxt = cur.master
            if nxt in seen:
                raise TopologyError(f"master-link cycle at node {nxt}")
            path.append(nxt)
            seen.add(nxt)
            cur = self.nodes[nxt]
        return path

    def check_invariants(self) -> None:
        """Raise TopologyError if any structural invariant is broken."""
        def check(ok, message):
            if not ok:
                raise TopologyError(message)

        by_cluster: dict[int, list[NodeState]] = {}
        for n in self.nodes.values():
            by_cluster.setdefault(n.cluster_id, []).append(n)
        total = 0
        for cid, members in by_cluster.items():
            size = len(members)
            total += size
            roots = [n for n in members if n.master is None]
            check(len(roots) == 1, f"cluster {cid} has {len(roots)} roots")
            root = roots[0]
            check(root.hops_to_sink == 0, f"root {root.id} has nonzero hops")
            edges = 0
            for n in members:
                check(n.cluster_size == size,
                      f"node {n.id} believes cluster size {n.cluster_size}, actual {size}")
                check(n.free_out >= 0, f"node {n.id} over-subscribed slots")
                check(0 <= n.tail - n.head <= n.b_max,
                      f"node {n.id} holds {n.tail - n.head} packets, b_max {n.b_max}")
                last = n.head - 1
                for index, _ in n.probes:
                    check(last < index < n.tail,
                          f"node {n.id}: probe index {index} out of order or outside "
                          f"[{n.head}, {n.tail})")
                    last = index
                for sid in n.slaves:
                    s = self.nodes[sid]
                    check(s.master == n.id, f"slave {sid} does not point back to {n.id}")
                    check(s.cluster_id == cid, f"slave {sid} outside cluster {cid}")
                    check(s.hops_to_sink == n.hops_to_sink + 1,
                          f"node {sid}: hops {s.hops_to_sink} != parent {n.hops_to_sink}+1")
                    edges += 1
            check(edges == size - 1, f"cluster {cid}: {edges} edges for {size} nodes")
            # tree reachability from the root
            reached = set()
            stack = [root.id]
            while stack:
                nid = stack.pop()
                check(nid not in reached, f"cycle through node {nid}")
                reached.add(nid)
                stack.extend(self.nodes[nid].slaves)
            check(len(reached) == size, f"cluster {cid} is not connected")
            check(self.cluster_members(cid) == sorted(n.id for n in members),
                  f"cluster {cid}: member index {self.cluster_members(cid)} is stale")
        check(total == len(self.nodes), f"{total} clustered nodes of {len(self.nodes)}")
        sink = self.nodes.get(self.sink_id)
        if sink is not None and sink.master is None:
            for nid in self.cluster_members(sink.cluster_id):
                path = self.path_to_root(nid)
                check(path[-1] == self.sink_id, f"node {nid} does not reach the sink")
                check(len(path) - 1 == self.nodes[nid].hops_to_sink,
                      f"node {nid}: hops {self.nodes[nid].hops_to_sink} != path length")
