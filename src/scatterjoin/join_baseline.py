"""FruityMesh-style joining: the smaller cluster joins the bigger one.

No link-quality or load awareness beyond picking the strongest signal
inside the biggest advertised cluster, so this is the reference the
scored strategy is compared against.
"""

from __future__ import annotations

from .join_scored import CandidateInfo
from .model import NodeState


def strongest(cands: list[CandidateInfo]) -> int:
    """Id of the strongest heard candidate, ties going to the lowest id."""
    return max(cands, key=lambda c: (c.rl_dbm, -c.id)).id


def baseline_select(cands: list[CandidateInfo], self_node: NodeState) -> int | None:
    """Pick a master from one discovery window of heard neighbours.

    Eligible senders have a free slave slot and belong to a cluster at
    least as big as ours (equal sizes: the lower cluster id joins the
    higher). Within the biggest eligible cluster the strongest RSSI wins.
    None means keep waiting, or that self_node already has a master.
    """
    if self_node.master is not None:
        return None
    eligible = [c for c in cands if c.free_out >= 1 and (
        c.cluster_size > self_node.cluster_size
        or (c.cluster_size == self_node.cluster_size
            and c.cluster_id > self_node.cluster_id))]
    if not eligible:
        return None
    biggest = max(c.cluster_size for c in eligible)
    return strongest([c for c in eligible if c.cluster_size == biggest])
