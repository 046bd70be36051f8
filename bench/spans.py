"""In-memory spans and counters around scatterjoin's layer entry points.

Each wrapper is installed where the name is looked up at call time, not
where it is defined: `engine.hears` and `scenario.hears` both bind
`channel.hears`, `cli.run_trial` binds `engine.run_trial`, and so on.
A span is (name, start, end, parent, trial id); the trial id is the
seed of the paired trial in progress, -1 outside any trial. Spans are
kept in flat arrays while the program runs and written out at the end.
"""

from __future__ import annotations

import gzip
import heapq
import time
from array import array
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trial = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_trial = -1
        self.counts: Counter = Counter()

    def span(self, name, fn, trial_of=None, observe=None):
        """fn wrapped so that each call records one span named `name`.

        trial_of(args, kwargs) sets the trial id for this span and the
        spans after it; observe(counts, args, result) updates counters.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, trial = self.name_id, self.parent, self.trial
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if trial_of is not None:
                self.current_trial = trial_of(args, kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            trial.append(self.current_trial)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result
        return wrapper

    def counter(self, key, fn):
        """fn wrapped so that each call adds one to counts[key]; no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def child_calls(self, name: str, parent_name: str) -> int:
        """How many `name` spans sit directly under a `parent_name` span."""
        ids = self._name_ids
        if name not in ids or parent_name not in ids:
            return 0
        k, pk = ids[name], ids[parent_name]
        return sum(1 for i in range(len(self.name_id))
                   if self.name_id[i] == k and self.parent[i] >= 0
                   and self.name_id[self.parent[i]] == pk)

    def write(self, path) -> None:
        """Spans as gzipped CSV; parent is a row index (-1: none)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start_s,end_s,parent,trial\n")
            names = self.names
            for i in range(len(self.name_id)):
                f.write(f"{names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                        f"{self.parent[i]},{self.trial[i]}\n")


class CountingHeapq:
    """Stands in for the `heapq` module inside `engine`: counts pushes,
    pops by event kind (field 1 of an event) and the largest heap."""

    def __init__(self):
        self.pushes = 0
        self.max_len = 0
        self.pops: Counter = Counter()

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        self.pushes += 1
        if len(heap) > self.max_len:
            self.max_len = len(heap)

    def heappop(self, heap):
        item = heapq.heappop(heap)
        self.pops[item[1]] += 1
        return item

    def __getattr__(self, name):
        return getattr(heapq, name)


def _moved(counts, args, result):
    counts["conn.useful"] += result > 0


def _kept(counts, args, result):
    counts["filter.in"] += len(args[0])
    counts["filter.out"] += len(result)


def _trial_of_run(args, kwargs):
    return kwargs.get("seed", args[2] if len(args) > 2 else -1)


def _trial_of_gen(args, kwargs):
    return kwargs.get("seed", args[1] if len(args) > 1 else -1)


def _no_trial(args, kwargs):
    return -1


def layer_patches(tracer: Tracer, heap: CountingHeapq, m) -> list[tuple]:
    """(owner, attribute, replacement) for every traced entry point.

    `m` holds the imported modules as attributes (cli, engine, model,
    join_scored, scenario, metrics).
    """
    cli, engine, model, join_scored, scenario, metrics = (
        m.cli, m.engine, m.model, m.join_scored, m.scenario, m.metrics)
    spans = [
        (cli, "run_trial", "cli.run_trial", _trial_of_run, None),
        (cli, "gen_random_scenario", "scenario.gen_random_scenario", _trial_of_gen, None),
        (cli, "trial_row", "cli.trial_row", None, None),
        (cli, "write_rows", "cli.write_rows", _no_trial, None),
        (cli, "aggregate", "metrics.aggregate", _no_trial, None),
        (cli, "delay_stats", "metrics.delay_stats", None, None),
        (metrics, "delay_stats", "metrics.delay_stats", None, None),
        (engine.TrialEngine, "run", "engine.run", None, None),
        (engine, "connection_event", "engine.connection_event", None, _moved),
        (engine, "generate_traffic", "engine.generate_traffic", None, None),
        (engine, "build_network", "engine.build_network", None, None),
        (engine, "broadcast_status", "engine.broadcast_status", None, None),
        (engine, "hears", "channel.hears", None, None),
        (scenario, "hears", "channel.hears", None, None),
        (model.Network, "attach", "model.attach", None, None),
        (model.Network, "path_to_root", "model.path_to_root", None, None),
        (engine, "filter_candidates", "join_scored.filter_candidates", None, _kept),
        (engine, "select_parent", "join_scored.select_parent", None, None),
        (join_scored, "score_candidate", "join_scored.score_candidate", None, None),
        (engine, "baseline_select", "join_baseline.baseline_select", None, None),
    ]
    patches = [(owner, attr, tracer.span(name, getattr(owner, attr), trial_of, observe))
               for owner, attr, name, trial_of, observe in spans]
    patches += [
        (engine, "_gather_candidates",
         tracer.counter("build.gathers", engine._gather_candidates)),
        (scenario, "_acceptable", tracer.counter("scenario.layouts", scenario._acceptable)),
        (engine, "heapq", heap),
    ]
    return patches


@contextmanager
def patched(patches):
    """Install (owner, attribute, replacement) triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def layer_metrics(tracer: Tracer, heap: CountingHeapq, engine) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from one traced pass."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    pops = heap.pops
    conn_pops = pops[engine.KIND_CONN]
    out = {
        "engine.events": (sum(pops.values()), "count"),
        "engine.events.conn": (conn_pops, "count"),
        "engine.events.gen": (pops[engine.KIND_GEN], "count"),
        "engine.events.status": (pops[engine.KIND_STATUS], "count"),
        "engine.events.joinme": (pops[engine.KIND_JOINME], "count"),
        "engine.events.end": (pops[engine.KIND_END], "count"),
        "engine.heap.pushes": (heap.pushes, "count"),
        "engine.heap.max_len": (heap.max_len, "count"),
        "engine.conn.useful_ratio": (ratio(counts["conn.useful"], conn_pops), "ratio"),
        "engine.build.attach_ratio": (
            ratio(tracer.child_calls("model.attach", "engine.build_network"),
                  counts["build.gathers"]), "ratio"),
        "join_scored.kept_ratio": (ratio(counts["filter.out"], counts["filter.in"]), "ratio"),
        "scenario.layouts_per_accept": (
            ratio(counts["scenario.layouts"], calls("scenario.gen_random_scenario")), "ratio"),
    }
    for name in ("engine.build_network", "engine.broadcast_status", "channel.hears",
                 "model.attach", "model.path_to_root", "join_scored.filter_candidates",
                 "join_scored.select_parent", "join_scored.score_candidate",
                 "join_baseline.baseline_select", "scenario.gen_random_scenario"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("engine.run", "engine.connection_event", "engine.generate_traffic",
                 "engine.build_network", "engine.broadcast_status", "channel.hears",
                 "model.attach", "model.path_to_root", "join_scored.filter_candidates",
                 "join_scored.select_parent", "join_scored.score_candidate",
                 "join_baseline.baseline_select", "scenario.gen_random_scenario",
                 "metrics.aggregate", "metrics.delay_stats", "cli.trial_row",
                 "cli.write_rows"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    return out
