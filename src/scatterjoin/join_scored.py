"""Scored parent selection over broadcast status data.

A joining node filters the neighbors it heard, scores the survivors on
six inputs (slave count, hops to sink, buffer occupancy, connection
interval, link RSSI, master-link RSSI), and requests the best one inside
the biggest cluster through the joinMe ack field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

WEIGHT_NAMES = ("w_m", "w_h", "w_b", "w_ci", "w_rl", "w_rn")


class CandidateInfo(NamedTuple):
    """One heard neighbor as both strategies see it: the sender's live
    state from its status broadcast plus the RSSI measured on receipt.

    A NamedTuple: immutable and hashable like a frozen dataclass, but
    cheaper to build, since one is built per heard candidate. A changed
    copy is c._replace(field=value).
    """

    id: int
    cluster_id: int
    cluster_size: int
    m: int                    # current slave count
    h: int                    # hops to the sink
    b: int                    # buffered packets
    ci_ms: float              # connection interval
    rl_dbm: float             # our link to the candidate
    rn_dbm: float | None      # candidate's link to its master (roots: none)
    free_out: int
    children: tuple[int, ...]


@dataclass(frozen=True)
class ScoreWeights:
    """Term weights plus the bounds used to normalize raw inputs to [0,1].

    The default weights are hand-picked, not fitted to any measurement;
    all of it is configurable per scenario.
    """

    w_m: float = 0.10
    w_h: float = 0.20
    w_b: float = 0.25
    w_ci: float = 0.20
    w_rl: float = 0.15
    w_rn: float = 0.10
    m_max: int = 3
    b_max: int = 30
    ci_min_ms: float = 7.5
    ci_max_ms: float = 400.0
    rssi_lo: float = -90.0
    rssi_hi: float = -50.0

    def __post_init__(self):
        weights = [getattr(self, n) for n in WEIGHT_NAMES]
        if any(not w >= 0 for w in weights):
            raise ValueError("weights must be >= 0")
        if not sum(weights) > 0:
            raise ValueError("weights must not all be zero")
        for bound in ("m_max", "b_max"):  # both divide in score_candidate
            if not getattr(self, bound) >= 1:
                raise ValueError(f"{bound} must be >= 1")
        if not self.ci_min_ms < self.ci_max_ms:
            raise ValueError("ci_min_ms must be below ci_max_ms")
        if not self.rssi_lo < self.rssi_hi:
            raise ValueError("rssi_lo must be below rssi_hi")
        for f in fields(self):  # an infinity passes the bounds above but swamps or zeroes a term
            if not -math.inf < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite")
        if not sum(weights) < math.inf:  # sums are monotone, so every score is then finite
            raise ValueError("weights must have a finite sum")


def _clamp01(x: float) -> float:
    """x clamped into [0, 1]; -0.0 and NaN come back as they are."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def score_candidate(c: CandidateInfo, w: ScoreWeights) -> float:
    """Composite desirability in [0, sum of weights]; higher is better.

    Every term is normalized to [0,1]: fewer slaves, fewer hops, emptier
    buffer and shorter CI raise the score, stronger RSSI on both the
    joiner link and the candidate's uplink raise it too. A root candidate
    has no uplink to degrade, so its rn term counts as perfect.
    """
    lo, span = w.rssi_lo, w.rssi_hi - w.rssi_lo
    rn_term = 1.0 if c.rn_dbm is None else _clamp01((c.rn_dbm - lo) / span)
    return (
        w.w_m * (1.0 - min(c.m, w.m_max) / w.m_max)
        + w.w_h * (1.0 / (1.0 + c.h))
        + w.w_b * (1.0 - min(c.b, w.b_max) / w.b_max)
        + w.w_ci * (1.0 - _clamp01((c.ci_ms - w.ci_min_ms) / (w.ci_max_ms - w.ci_min_ms)))
        + w.w_rl * _clamp01((c.rl_dbm - lo) / span)
        + w.w_rn * rn_term
    )


def filter_candidates(cands: list[CandidateInfo], rl_min_dbm: float = -85.0,
                      b_fair: int = 1) -> list[CandidateInfo]:
    """Drop unusable neighbors, then apply the fairness redirect.

    Candidates without a free slot or with a link weaker than rl_min_dbm
    go first. A surviving candidate whose buffer holds at least b_fair
    packets is then dropped if one of its children also survived the
    first two rules — load spreads down the tree — but is kept when no
    child was heard, so the joiner is never stranded. Input is assumed
    deduplicated by sender; output is sorted by id.
    """
    alive = [c for c in cands if c.free_out >= 1 and c.rl_dbm >= rl_min_dbm]
    alive_ids = {c.id for c in alive}
    kept = [c for c in alive
            if not (c.b >= b_fair and any(ch in alive_ids for ch in c.children))]
    return sorted(kept, key=lambda c: c.id)


def select_parent(filtered: list[CandidateInfo], w: ScoreWeights) -> int | None:
    """Highest-scored candidate within the biggest cluster present.

    Ties break on stronger link RSSI, then lower id. None means no
    candidate survived filtering and the joiner should wait and rescan.
    """
    if not filtered:
        return None
    biggest = max(c.cluster_size for c in filtered)
    pool = [c for c in filtered if c.cluster_size == biggest]
    return max(pool, key=lambda c: (score_candidate(c, w), c.rl_dbm, -c.id)).id
