"""Scenario definition, validation, JSON round-tripping, and random generation.

A Scenario checks its field types, ids and ranges when it is built, from
a file or in code, by one type rule (_SCALARS). The hearing-graph
checks, the generator's build-ups and every unshadowed trial share the
scenario's one engine.Layout (Scenario.layout); a shadowed trial builds
its own. The generator judges each try (_Try) on its own link table,
hearing checks first, and makes only the accepted one a Scenario, which
takes over the try's Layout: its links and both recorded build-ups.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from typing import get_type_hints

from .channel import Position, RadioParams, hears  # noqa: F401 -- bench/spans.py patches hears
from .engine import ALGOS, Layout, Links
from .join_scored import ScoreWeights

CI_TIERS_MS = (50.0, 100.0, 200.0, 400.0)
RATE_TIERS_PPS = (0.0, 2.0, 5.0, 20.0)  # the 20 pps tier creates saturated branches
MAX_EVENTS = 10 ** 7  # a scenario's worst-case event count per trial


class ScenarioError(ValueError):
    """Scenario file or structure is invalid; message names the offending field."""


class GenerationError(RuntimeError):
    """Random generation could not satisfy the connectivity requirements."""


@dataclass(frozen=True)
class NodeSpec:
    id: int
    pos: tuple[float, float]
    ci_ms: float = 100.0
    b_max: int = 30
    slave_capacity: int = 3
    traffic_rate_pps: float = 0.0


@dataclass(frozen=True)
class EngineParams:
    t_adv_ms: float = 200.0
    warmup_ms: float = 5000.0
    measure_ms: float = 60000.0
    probe_rate: float = 10.0
    n_ce: int = 4
    max_wait_ms: float = 10000.0

    def n_probes(self) -> int:
        """Probes a joined trial sends: one per 1/probe_rate over measure_ms."""
        return round(self.measure_ms * self.probe_rate / 1000.0)

    def horizon_ms(self) -> float:
        """A bound past every event a trial pops; the worst-case event count
        is taken over it."""
        return self.warmup_ms + self.max_wait_ms + self.measure_ms + 2 * self.t_adv_ms


@dataclass(frozen=True)
class Thresholds:
    rl_min_dbm: float = -85.0
    b_fair: int = 1
    theta_sat: float = 0.8


@dataclass(frozen=True)
class Scenario:
    name: str
    nodes: tuple[NodeSpec, ...]
    sink_id: int = 1
    new_node_id: int = 2
    radio: RadioParams = field(default_factory=RadioParams)
    engine: EngineParams = field(default_factory=EngineParams)
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    thresholds: Thresholds = field(default_factory=Thresholds)
    declared_unjoinable: bool = False

    def __post_init__(self):
        """Every field checked against its annotation (_check), then the
        O(N) checks on ids and ranges, then the worst-case event count."""
        _check(Scenario, self, "scenario")
        object.__setattr__(self, "nodes", tuple(self.nodes))  # a list would stay editable
        seen = set()
        for i, n in enumerate(self.nodes):
            if not n.id >= 1:
                raise ScenarioError(f"nodes[{i}].id: must be >= 1")
            if n.id in seen:
                raise ScenarioError(f"nodes: duplicate id {n.id}")
            seen.add(n.id)
            if not 0 < n.ci_ms:
                raise ScenarioError(f"nodes[{i}].ci_ms: must be > 0 and finite")
            if not n.b_max >= 1:
                raise ScenarioError(f"nodes[{i}].b_max: must be >= 1")
            if not n.slave_capacity >= 0:
                raise ScenarioError(f"nodes[{i}].slave_capacity: must be >= 0")
            if not n.traffic_rate_pps >= 0:
                raise ScenarioError(f"nodes[{i}].traffic_rate_pps: must be >= 0")
            if n.id == self.sink_id and n.traffic_rate_pps:
                raise ScenarioError(f"nodes[{i}].traffic_rate_pps: must be 0 on the sink, "
                                    "which has no uplink")
        if self.sink_id not in seen:
            raise ScenarioError(f"sink_id: node {self.sink_id} missing from nodes")
        if self.sink_id != 1:
            raise ScenarioError("sink_id: the sink carries the reserved id 1")
        if self.new_node_id not in seen:
            raise ScenarioError(f"new_node_id: node {self.new_node_id} missing from nodes")
        if self.new_node_id == self.sink_id:
            raise ScenarioError("new_node_id: must differ from sink_id")
        e = self.engine  # ranges that keep a trial finite and its window defined
        for name in ("t_adv_ms", "measure_ms", "probe_rate"):
            if not 0 < getattr(e, name):
                raise ScenarioError(f"engine.{name}: must be > 0 and finite")
        for name in ("warmup_ms", "max_wait_ms"):
            if not 0 <= getattr(e, name):
                raise ScenarioError(f"engine.{name}: must be >= 0 and finite")
        if not e.n_ce >= 1:
            raise ScenarioError("engine.n_ce: must be >= 1")
        try:
            n_probes = e.n_probes()
        except OverflowError as exc:  # round(inf)
            raise ScenarioError("engine.measure_ms: measure_ms * probe_rate overflows") from exc
        if n_probes < 1:
            raise ScenarioError("engine.measure_ms: the window holds no probe at engine."
                                "probe_rate (measure_ms * probe_rate / 1000 must round to >= 1)")
        t = self.thresholds
        if not t.b_fair >= 0:
            raise ScenarioError("thresholds.b_fair: must be >= 0")
        if not 0 < t.theta_sat <= 1:
            raise ScenarioError("thresholds.theta_sat: must be > 0 and <= 1")
        horizon = e.horizon_ms()  # joinMe rounds, probes, then per node: slots, arrivals
        events = e.max_wait_ms / e.t_adv_ms + n_probes + sum(
            horizon / n.ci_ms + (n.id != self.new_node_id and n.traffic_rate_pps * horizon / 1e3)
            for n in self.nodes)
        if not events <= MAX_EVENTS:
            raise ScenarioError(f"scenario: a trial may take {events:.3g} events, over the "
                                f"{MAX_EVENTS:.0e} limit")

    @cached_property
    def layout(self) -> Layout:
        """The unshadowed links and each algorithm's attach order, worked out
        on first use. Not a field: equality, hashing, repr and files never
        see it, and dataclasses.replace starts a new one."""
        return Layout(self)


# The file defaults that differ from the dataclass's: a file without
# new_node_id gets 0, which Scenario's own checks then reject by name.
_FILE_DEFAULTS = {Scenario: {"name": "unnamed", "new_node_id": 0}}

# annotation -> (accepts a value, what it wants): the one type rule, for a file
# and for code. An int is exactly an int, so a bool fails. A float is a number
# a float holds, bool aside: NaN, +-inf and an int too big for a float (where
# math.isfinite would overflow) fail; the common exact float is tested first.
_SCALARS = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: (type(v) is float or isinstance(v, (int, float)) and not isinstance(v, bool))
            and abs(v) <= sys.float_info.max, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}
_hints = cache(get_type_hints)  # resolved annotations per dataclass


def _build(cls, block, where: str):
    """A cls built from a JSON object, each field checked against its annotation.

    Unknown keys and missing required fields are rejected. A constructor's
    ScenarioError passes unchanged, and any other ValueError becomes a
    ScenarioError naming the block.
    """
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected an object, got {block!r}")
    hints = _hints(cls)
    unknown = set(block) - set(hints)
    if unknown:
        raise ScenarioError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    block = {**_FILE_DEFAULTS.get(cls, {}), **block}
    missing = [f.name for f in fields(cls) if f.name not in block
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ScenarioError(f"{where}: missing {', '.join(missing)}")
    prefix = "" if cls is Scenario else f"{where}."
    kwargs = {k: _value(hints[k], v, prefix + k) for k, v in block.items()}
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _value(kind, value, where: str):
    """A file's value checked against the annotation kind and converted:
    objects built into dataclasses, lists made tuples, ints made floats."""
    if is_dataclass(kind):
        return _build(kind, value, where)
    if kind not in _SCALARS:  # a tuple
        return tuple(_value(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(_items(kind, value, where), value)))
    _check(kind, value, where)
    return float(value) if kind is float else value


def _check(kind, value, where: str) -> None:
    """value checked in place against the annotation kind, converting
    nothing: a dataclass must be an instance, whose fields are checked in
    turn. A part that passes its scalar check builds no where string."""
    if kind in _SCALARS:
        if not _SCALARS[kind][0](value):
            raise ScenarioError(f"{where}: expected {_SCALARS[kind][1]}, got {value!r}")
    elif not is_dataclass(kind):  # a tuple
        for i, (a, v) in enumerate(zip(_items(kind, value, where), value)):
            if (scalar := _SCALARS.get(a)) is None or not scalar[0](v):
                _check(a, v, f"{where}[{i}]")
    elif not isinstance(value, kind):
        raise ScenarioError(f"{where}: expected {kind.__name__}, got {value!r}")
    else:
        prefix = "" if kind is Scenario else f"{where}."
        for name, hint in _hints(kind).items():
            v = getattr(value, name)
            if (scalar := _SCALARS.get(hint)) is None or not scalar[0](v):
                _check(hint, v, prefix + name)


def _items(kind, value, where: str) -> tuple:
    """The annotation of each item of a tuple-annotated value, once its length fits."""
    args = kind.__args__
    if isinstance(value, (list, tuple)) and args[-1] is Ellipsis:
        return args[:1] * len(value)
    if isinstance(value, (list, tuple)) and len(value) == len(args):
        return args
    want = "a list" if args[-1] is Ellipsis else f"{len(args)} values"
    raise ScenarioError(f"{where}: expected {want}, got {value!r}")


def parse_scenario(doc: dict) -> Scenario:
    """Build and validate a Scenario from a parsed JSON document."""
    s = _build(Scenario, doc, "scenario")
    validate_scenario(s)
    return s


def validate_scenario(s: Scenario) -> None:
    """The hearing-graph checks a scenario's own ranges cannot make."""
    links = s.layout.links
    existing = [n.id for n in s.nodes if n.id != s.new_node_id]
    if not _connected(existing, links, s.radio.rx_threshold_dbm):
        raise ScenarioError("nodes: hearing graph without the new node is disconnected")
    if not s.declared_unjoinable and not any(links[s.new_node_id, nid][0] for nid in existing):
        raise ScenarioError("new_node_id: new node hears nobody and declared_unjoinable is not set")


def _connected(ids, links: Links, threshold: float) -> bool:
    """Whether ids (never empty) form one component over links at or above threshold dBm."""
    seen, frontier = {ids[0]}, [ids[0]]
    while frontier:
        cur = frontier.pop()
        for other in ids:
            if other not in seen and links[cur, other][1] >= threshold:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(ids)


def scenario_to_dict(s: Scenario) -> dict:
    """s as a JSON document: its dataclass fields in order, tuples as lists."""
    return json.loads(json.dumps(asdict(s)))


def write_scenario(s: Scenario, path) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_dict(s), f, indent=2)
        f.write("\n")


def load_scenario(path) -> Scenario:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as e:  # bad JSON, a too-long integer, deep nesting
        raise ScenarioError(f"parse error in {path}: {e}") from e
    return parse_scenario(doc)


def training11() -> Scenario:
    """Built-in 11-node training network plus the joining device.

    Two branches hang off the sink: branch A ends in a 20 pps generator
    on a slow (400 ms CI) link, so it saturates under load; branch B is
    lightly loaded on fast links. The new node (id 12) hears the tail of
    both branches, slightly favoring the saturated one on raw RSSI.
    """
    n = NodeSpec
    nodes = [
        n(1, (0.0, 0.0), ci_ms=50.0, slave_capacity=4),            # sink
        n(2, (9.0, 0.0), ci_ms=100.0),                             # branch A hop 1
        n(3, (17.0, 4.0), ci_ms=100.0),                            # branch A hop 2
        n(4, (22.0, 11.0), ci_ms=400.0, traffic_rate_pps=20.0),    # branch A tail, hot
        n(5, (26.0, 3.0), ci_ms=100.0),                            # branch A side node
        n(6, (0.0, 9.0), ci_ms=50.0),                              # branch B hop 1
        n(7, (4.0, 17.0), ci_ms=50.0, traffic_rate_pps=2.0),       # branch B hop 2
        n(8, (11.0, 22.0), ci_ms=50.0),                            # branch B tail
        n(9, (-8.0, 5.0), ci_ms=50.0, traffic_rate_pps=2.0),       # branch B side node
        n(10, (-6.0, -7.0), ci_ms=100.0, traffic_rate_pps=2.0),    # leaf
        n(11, (9.0, -9.0), ci_ms=100.0, traffic_rate_pps=2.0),     # leaf
        n(12, (17.8, 17.2), ci_ms=50.0),                           # joining device
    ]
    return Scenario(name="training11", nodes=nodes, sink_id=1, new_node_id=12)


def gen_random_scenario(n_nodes: int = 16, seed: int = 0, area_m: float = 30.0,
                        max_retries: int = 500) -> Scenario:
    """Uniform random layout in an area_m x area_m square, deterministic per seed.

    Nodes are resampled until the hearing graph without the new node is
    connected, the new node hears at least two candidates, and — so the
    scored strategy's RSSI filter cannot strand anyone — the same holds
    over links at or above the filter threshold, with both join strategies
    able to attach every pre-existing node. The usable candidates must
    also sit on at least two distinct branches of the built tree, so every
    trial confronts the joiner with a real choice. _acceptable judges each
    try in that order on the try's own link table, and only an accepted
    try is made a Scenario: one the hearing checks reject builds no
    NodeSpec, Layout or Scenario, and one a build-up rejects no Scenario.
    """
    if n_nodes < 3:
        raise GenerationError("n_nodes must be >= 3")
    if not 0 < area_m < math.inf:
        raise GenerationError("area_m: must be > 0 and finite")
    rng = random.Random(f"scatterjoin-scenario:{seed}")
    new_id = n_nodes
    name = f"random{n_nodes}-seed{seed}"

    for _ in range(max_retries):
        draws = []
        for nid in range(1, n_nodes + 1):
            pos = (rng.uniform(0.0, area_m), rng.uniform(0.0, area_m))
            ci = rng.choice(CI_TIERS_MS)
            rate = 0.0 if nid in (1, new_id) else rng.choice(RATE_TIERS_PPS)
            draws.append((nid, pos, ci, rate))
        if (s := _acceptable(_Try(name, draws, new_id))) is not None:
            return s
    raise GenerationError(
        f"no viable layout after {max_retries} tries (seed {seed}); "
        "try a larger area or more nodes")


class _Try:
    """One of gen_random_scenario's tries, judged by _acceptable before it
    is a Scenario: its draws as (id, pos, ci_ms, traffic_rate_pps), every
    other field at a generated scenario's default. To Layout and the
    build-up picks it reads as a Scenario would (nodes, sink_id,
    new_node_id, radio, thresholds, weights). links hears the draws at
    once; nodes and layout are made only once the hearing checks pass,
    and scenario() only for an accepted try, which takes over the layout
    with its links and both recorded build-ups."""

    sink_id = 1
    radio, thresholds, weights = RadioParams(), Thresholds(), ScoreWeights()

    def __init__(self, name: str, draws: list[tuple], new_node_id: int):
        self.name, self.draws, self.new_node_id = name, draws, new_node_id
        self.links = Links({nid: Position(*pos) for nid, pos, _, _ in draws}, self.radio)

    @cached_property
    def nodes(self) -> tuple[NodeSpec, ...]:
        return tuple(NodeSpec(nid, pos, ci_ms=ci, traffic_rate_pps=rate)
                     for nid, pos, ci, rate in self.draws)

    @cached_property
    def layout(self) -> Layout:
        layout = Layout(self)  # its own, unheard table is dropped for the one
        layout.links = self.links  # the hearing checks filled
        return layout

    def scenario(self) -> Scenario:
        s = Scenario(name=self.name, nodes=self.nodes, sink_id=self.sink_id,
                     new_node_id=self.new_node_id)
        object.__setattr__(s, "layout", self.layout)  # fills the cached_property
        return s


def _acceptable(s: Scenario | _Try) -> Scenario | None:
    """gen_random_scenario's verdict on one try, or the same test of a
    Scenario: the scenario if it passes, else None. It implies every
    validate_scenario check, since a link the scored filter can use is
    heard and at or above rl_min_dbm.

    The hearing checks come first and read only the links, so a try they
    reject builds nothing more. Then both build-ups run through the
    layout, unshadowed, so the unshadowed trials on an accepted scenario
    replay them; a rejected one drops its layout. Only an accepted try is
    made a Scenario.
    """
    links = s.links if isinstance(s, _Try) else s.layout.links
    new_id = s.new_node_id
    existing = [nid for nid in links.positions if nid != new_id]
    floor = max(s.thresholds.rl_min_dbm, s.radio.rx_threshold_dbm)
    if not _connected(existing, links, floor):
        return None
    usable = [nid for nid in existing if links[new_id, nid][1] >= floor]
    if len(usable) < 2:
        return None
    for algo in ALGOS:
        net = s.layout.network(s, algo)
        attached = sum(1 for nid in existing if net.nodes[nid].master is not None)
        if attached != len(existing) - 1:  # everyone but the sink
            return None
        # a real decision exists: usable candidates on >= 2 distinct branches
        def branch(nid):
            path = net.path_to_root(nid)
            return path[-2] if len(path) >= 2 else nid
        if len({branch(u) for u in usable}) < 2:
            return None
    return s.scenario() if isinstance(s, _Try) else s
