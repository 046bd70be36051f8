"""Deterministic BLE-mesh scatternet simulator comparing network-joining strategies."""

from .channel import Position, RadioParams, hears, path_loss_rssi
from .engine import TrialResult, build_trial_network, run_trial
from .join_baseline import baseline_select
from .join_scored import (CandidateInfo, ScoreWeights, filter_candidates,
                          score_candidate, select_parent)
from .metrics import AggregateReport, Improvement, aggregate, compare, trial_row
from .model import Network, NodeState, SlotExhausted, TopologyError
from .scenario import (Scenario, ScenarioError, gen_random_scenario,
                       load_scenario, training11, write_scenario)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport", "CandidateInfo", "Improvement", "Network",
    "NodeState", "Position", "RadioParams", "Scenario", "ScenarioError",
    "ScoreWeights", "SlotExhausted", "TopologyError", "TrialResult",
    "aggregate", "baseline_select", "build_trial_network", "compare",
    "filter_candidates", "gen_random_scenario", "hears", "load_scenario",
    "path_loss_rssi", "run_trial", "score_candidate", "select_parent",
    "training11", "trial_row", "write_scenario",
]
