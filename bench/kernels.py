"""Layer kernels: each layer timed alone on fixed, seeded inputs.

Selection and channel calls take microseconds, too little to resolve
inside a full trial, so each kernel repeats one layer call in rounds and
reports the median time per call at reference speed (speed.py). The
inputs come from KERNEL_SEED, not from the workload seed, so kernel
figures compare across runs.
"""

from __future__ import annotations

import random
import statistics
import time

import speed

KERNEL_SEED = 20190722
MIN_ROUNDS = 3


def _median_rounds(one_round, budget_s: float) -> float:
    """Median seconds per call, at reference speed, over rounds run until
    budget_s is spent.

    one_round() returns (seconds, calls) for the part it timed.
    """
    per_call = []
    deadline = time.perf_counter() + budget_s
    cal = speed.calibration_s()
    while len(per_call) < MIN_ROUNDS or time.perf_counter() < deadline:
        seconds, calls = one_round()
        after = speed.calibration_s()
        per_call.append(speed.at_reference(seconds / calls, [cal, after]))
        cal = after
    return statistics.median(per_call)


def _timed(fn, calls):
    def one_round():
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0, calls
    return one_round


def _hears_round(m):
    rng = random.Random(f"{KERNEL_SEED}:hears")
    Position, radio, hears = m.channel.Position, m.channel.RadioParams(), m.channel.hears
    pairs = [(Position(rng.uniform(0, 30), rng.uniform(0, 30)),
              Position(rng.uniform(0, 30), rng.uniform(0, 30))) for _ in range(2000)]

    def one_round():
        t0 = time.perf_counter()
        for a, b in pairs:
            hears(a, b, radio)
        return time.perf_counter() - t0, len(pairs)
    return one_round


def synthetic_candidates(m, k: int) -> list:
    """k heard neighbours spread over a few clusters, some full, some loaded."""
    rng = random.Random(f"{KERNEL_SEED}:cands:{k}")
    ids = rng.sample(range(2, 10 * k + 2), k)
    cands = []
    for cid in ids:
        slaves = rng.randint(0, 3)
        cands.append(m.join_scored.CandidateInfo(
            id=cid, cluster_id=rng.choice((1, 1, 1, 50)),
            cluster_size=rng.choice((k, k, k, 2)), m=slaves, h=rng.randint(0, 6),
            b=rng.randint(0, 30), ci_ms=rng.choice((50.0, 100.0, 200.0, 400.0)),
            rl_dbm=rng.uniform(-92.0, -50.0),
            rn_dbm=None if rng.random() < 0.1 else rng.uniform(-90.0, -50.0),
            free_out=3 - slaves,
            children=tuple(rng.sample(ids, min(slaves, k)))))
    return cands


def _select_round(m, k):
    cands = synthetic_candidates(m, k)
    weights = m.join_scored.ScoreWeights()
    filter_candidates, select_parent = m.join_scored.filter_candidates, m.join_scored.select_parent
    return _timed(lambda: select_parent(filter_candidates(cands, -85.0, 1), weights),
                  max(10, 2000 // k))


def _attach_round(m):
    Network, NodeState, Position = m.model.Network, m.model.NodeState, m.channel.Position

    def one_round():
        net = Network([NodeState(id=i, pos=Position(float(i), 0.0)) for i in range(1, 65)])
        t0 = time.perf_counter()
        for i in range(2, 65):
            net.attach(i, i - 1)
        return time.perf_counter() - t0, 1
    return one_round


def _build_round(m, n):
    s = m.scenario.gen_random_scenario(n_nodes=n, seed=KERNEL_SEED)
    build = m.engine.build_trial_network

    def one_round():
        t0 = time.perf_counter()
        build(s, "baseline")
        build(s, "scored")
        return time.perf_counter() - t0, 2
    return one_round


def _gen_round(m):
    gen = m.scenario.gen_random_scenario
    return _timed(lambda: gen(n_nodes=64, seed=KERNEL_SEED), 1)


# name -> (round factory, seconds per reported unit, unit)
KERNELS = {
    "kernel.hears_ns": (_hears_round, 1e-9, "ns"),
    "kernel.select_k4_us": (lambda m: _select_round(m, 4), 1e-6, "us"),
    "kernel.select_k16_us": (lambda m: _select_round(m, 16), 1e-6, "us"),
    "kernel.select_k64_us": (lambda m: _select_round(m, 64), 1e-6, "us"),
    "kernel.attach_chain_n64_us": (_attach_round, 1e-6, "us"),
    "kernel.build_n16_ms": (lambda m: _build_round(m, 16), 1e-3, "ms"),
    "kernel.build_n64_ms": (lambda m: _build_round(m, 64), 1e-3, "ms"),
    "kernel.gen_n64_ms": (_gen_round, 1e-3, "ms"),
}


def run_kernels(m, budget_s: float) -> dict[str, tuple[float, str]]:
    """Kernel name -> (median time per call, unit); budget_s is per kernel.

    select_kN is one filter_candidates plus select_parent over N
    candidates; attach_chain is 63 attaches forming a 64-node chain;
    build_nN is one build_trial_network, averaged over both algorithms.
    """
    out = {}
    for name, (make_round, scale, unit) in KERNELS.items():
        out[name] = (_median_rounds(make_round(m), budget_s) / scale, unit)
    return out
