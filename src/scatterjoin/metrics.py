"""Figures of merit per trial, one row each, and their aggregation over rows."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import isqrt
from operator import itemgetter, mul

from .engine import TrialResult


class AggregateError(ValueError):
    """A set of trials that cannot be collapsed into one report."""


@dataclass(frozen=True)
class AggregateReport:
    algo: str
    n_trials: int
    n_joined: int
    mu_d_ms: float | None
    sigma_d_ms: float | None
    mu_pdr: float | None
    sigma_pdr: float | None
    pct_sat: float
    avoid_sat: float | None
    mean_hops: float
    n_eligible_sat_trials: int
    n_delay_undefined: int


@dataclass(frozen=True)
class Improvement:
    """Gains of the proposed report over the baseline; None when undefined."""

    delay_gain: float | None  # fraction of baseline delay shaved off
    pdr_gain: float | None    # relative PDR increase
    sat_reduction_pp: float   # percentage points of saturation probability removed


def _sqrt_of_ratio(n: int, m: int) -> float:
    """sqrt(n / m) correctly rounded: an integer root of 55 bits or more,
    rounded to odd, then one rounding to a float."""
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def delay_stats(trial: TrialResult) -> tuple[float, float] | None:
    """Mean and sample deviation (ms) of delivered probe delays.

    None when nothing was delivered; a single sample has deviation 0. The
    deviation is the float statistics.stdev gives: the exact sample
    variance, summed from integer numerators over one power-of-two
    denominator, then its correctly rounded square root.
    """
    delays = [p.delivered_at_ms - p.created_at_ms
              for p in trial.probes if p.delivered_at_ms is not None]
    if not delays:
        return None
    mu, n = statistics.fmean(delays), len(delays)
    if n == 1:
        return mu, 0.0
    ratios = [x.as_integer_ratio() for x in delays]
    top = max(map(itemgetter(1), ratios)).bit_length()  # the denominator is 2 ** (top - 1)
    nums = [a << top - d.bit_length() for a, d in ratios]
    sx = sum(nums)
    ss = n * sum(map(mul, nums, nums)) - sx * sx  # n * (n - 1) * variance * 4 ** (top - 1)
    return mu, _sqrt_of_ratio(ss, n * (n - 1) << 2 * (top - 1))


def pdr(trial: TrialResult) -> float | None:
    """Delivered probes over sent probes; None when nothing was sent."""
    if trial.probe_sent < 1:
        return None
    return trial.probe_delivered / trial.probe_sent


# trial_row's keys, in the order the CSV writes them
CSV_COLUMNS = ("trial", "algo", "seed", "joined", "parent_id", "hops",
               "mu_d_ms", "sigma_d_ms", "pdr", "sat_branch", "eligible_sat",
               "avoided_sat")


def trial_row(index: int, trial: TrialResult) -> dict:
    """trial's figures of merit as one row; a figure it leaves undefined is None."""
    mu_d, sd = delay_stats(trial) or (None, None)  # a failed join has no probes
    return {
        "trial": index,
        "algo": trial.algo,
        "seed": trial.trial_seed,
        "joined": int(trial.joined),
        "parent_id": trial.chosen_parent,
        "hops": trial.hops_at_join,
        "mu_d_ms": mu_d,
        "sigma_d_ms": sd,
        "pdr": pdr(trial),
        "sat_branch": None if trial.sat_branch is None else int(trial.sat_branch),
        "eligible_sat": int(trial.eligible_sat),
        "avoided_sat": int(trial.avoided_sat),
    }


def aggregate(rows: list[dict]) -> AggregateReport:
    """Collapse one algorithm's trial rows (trial_row) into a report row.

    Delay and PDR are aggregated as mean/deviation of per-trial means.
    Trials that never joined are excluded and counted. pct_sat counts the
    engine's sat_branch verdicts; avoid_sat covers only trials where both
    a saturated and an unsaturated candidate were heard. Value lists are
    sorted before reduction so the result does not depend on input order.
    """
    if not rows:
        raise AggregateError("no trials to aggregate")
    algos = {r["algo"] for r in rows}
    if len(algos) != 1:
        raise AggregateError(f"mixed algorithms in one aggregate: {sorted(algos)}")
    joined = [r for r in rows if r["joined"]]
    if not joined:
        raise AggregateError("zero joined trials")

    delay_means = sorted(r["mu_d_ms"] for r in joined if r["mu_d_ms"] is not None)
    pdrs = sorted(r["pdr"] for r in joined)
    eligible = [r for r in joined if r["eligible_sat"]]

    return AggregateReport(
        algo=rows[0]["algo"],
        n_trials=len(rows),
        n_joined=len(joined),
        mu_d_ms=statistics.fmean(delay_means) if delay_means else None,
        sigma_d_ms=(statistics.stdev(delay_means) if len(delay_means) > 1
                    else (0.0 if delay_means else None)),
        mu_pdr=statistics.fmean(pdrs),
        sigma_pdr=statistics.stdev(pdrs) if len(pdrs) > 1 else 0.0,
        pct_sat=sum(r["sat_branch"] for r in joined) / len(joined),
        avoid_sat=(sum(r["avoided_sat"] for r in eligible) / len(eligible)
                   if eligible else None),
        mean_hops=statistics.fmean(sorted(r["hops"] for r in joined)),
        n_eligible_sat_trials=len(eligible),
        n_delay_undefined=len(joined) - len(delay_means),
    )


def compare(base: AggregateReport, prop: AggregateReport) -> Improvement:
    """Relative gains of the proposed report over the baseline report.

    The delay gain is None when either side delivered no probe, the PDR
    gain when the baseline delivered none.
    """
    return Improvement(
        delay_gain=(None if not base.mu_d_ms or prop.mu_d_ms is None
                    else (base.mu_d_ms - prop.mu_d_ms) / base.mu_d_ms),
        pdr_gain=None if not base.mu_pdr else (prop.mu_pdr - base.mu_pdr) / base.mu_pdr,
        sat_reduction_pp=(base.pct_sat - prop.pct_sat) * 100.0,
    )
