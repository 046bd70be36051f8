"""Command-line harness: single trials, paired comparisons, scenario tooling."""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from dataclasses import asdict, replace

from .engine import ALGOS, run_trial
from .join_scored import WEIGHT_NAMES, ScoreWeights
from .metrics import (CSV_COLUMNS, AggregateError, AggregateReport, Improvement,
                      aggregate, compare, trial_row)
from .metrics import delay_stats  # noqa: F401 -- bench/spans.py patches it
from .scenario import (GenerationError, Scenario, ScenarioError, _build,
                       gen_random_scenario, load_scenario, training11,
                       write_scenario)

SWEEP_COLUMNS = WEIGHT_NAMES + ("mu_d_ms", "mu_pdr", "pct_sat")

WEIGHTS_HELP = ",".join(WEIGHT_NAMES) + " override"

# the stage a failure is reported at, by the type of its error
STAGES = {ScenarioError: "scenario", GenerationError: "generation",
          AggregateError: "aggregate", OSError: "io"}


def _load(ref: str) -> Scenario:
    if ref == "training11":
        return training11()
    return load_scenario(ref)


def _with_weights(s: Scenario, overrides: dict | None) -> Scenario:
    """s with its weights overridden, checked like a file's weights block.
    The copy takes over s's links and baseline build-up, which read no
    weights, so only its scored build-up is worked out again."""
    if not overrides:
        return s
    block = {**asdict(s.weights), **overrides}
    weighted = replace(s, weights=_build(ScoreWeights, block, "weights"))
    object.__setattr__(weighted, "layout", s.layout.reweighted())  # fills the cached_property
    return weighted


def _opt(x: float | None, spec: str) -> str:
    """x in the format spec, or "-" when the figure is undefined."""
    return "-" if x is None else format(x, spec)


def parse_weight_vector(text: str) -> dict:
    parts = text.split(",")
    if len(parts) != len(WEIGHT_NAMES):
        raise ScenarioError(f"weights: expected {len(WEIGHT_NAMES)} comma-separated "
                            f"values ({','.join(WEIGHT_NAMES)})")
    try:
        values = [float(p) for p in parts]
    except ValueError as e:
        raise ScenarioError(f"weights: {e}") from e
    return dict(zip(WEIGHT_NAMES, values))


def parse_weights_grid(spec: str) -> list[dict]:
    axes = {}
    for part in spec.split(";"):
        name, sep, vals = part.partition("=")
        name = name.strip()
        if not sep or name not in WEIGHT_NAMES:
            raise ScenarioError(f"weights-grid: bad axis {part!r}")
        if name in axes:
            raise ScenarioError(f"weights-grid: repeated axis {name!r}")
        try:
            axes[name] = [float(v) for v in vals.split(",")]
        except ValueError as e:
            raise ScenarioError(f"weights-grid: {e}") from e
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def write_rows(rows: list[dict], path: str, columns=CSV_COLUMNS) -> None:
    """rows, in the order given, as a CSV file with a header line."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def trial_scenarios(trials: int, seed_base: int, scenario: Scenario | None = None,
                    n_nodes: int | None = None, area_m: float | None = None):
    """(seed, scenario) for trials seeds from seed_base, checked at the call:
    the given scenario, or else a random layout drawn when its seed is reached."""
    if trials < 1:
        raise ScenarioError("trials must be >= 1")
    layout = {k: v for k, v in (("n_nodes", n_nodes), ("area_m", area_m)) if v is not None}
    seeds = range(seed_base, seed_base + trials)
    if scenario is None:
        return ((seed, gen_random_scenario(seed=seed, **layout)) for seed in seeds)
    if layout:
        raise ScenarioError("nodes, area: apply only to random layouts, not to a scenario")
    return ((seed, scenario) for seed in seeds)


def trial_rows(layouts, algos, weights: dict | None):
    """trial_row of each algo's trial on each (seed, scenario) of layouts, in
    order; lazy, so a random layout is drawn just before its trials run. The
    weights go onto each scenario object once, so the seeds that repeat one
    scenario share its copy and that copy's Layout."""
    given = weighted = None
    for i, (seed, s) in enumerate(layouts):
        if s is not given:
            given, weighted = s, _with_weights(s, weights)
        for algo in algos:
            yield trial_row(i, run_trial(weighted, algo, seed))


def cmd_compare(scenario: Scenario | None = None, random_nodes: int | None = None,
                trials: int = 1, seed_base: int = 0, area_m: float | None = None,
                weights: dict | None = None, out: str | None = None,
                ) -> tuple[AggregateReport, AggregateReport, Improvement, list[dict]]:
    """Paired comparison: trial i runs both algorithms on the same scenario
    and seed (seed_base + i). Without a scenario, trial i draws a fresh
    random layout of random_nodes nodes over area_m (see trial_scenarios).
    The reports aggregate the same rows that are returned and written."""
    rows = list(trial_rows(trial_scenarios(trials, seed_base, scenario,
                                           random_nodes, area_m), ALGOS, weights))
    base_report, prop_report = (aggregate([r for r in rows if r["algo"] == algo])
                                for algo in ALGOS)
    improvement = compare(base_report, prop_report)
    if out:
        write_rows(rows, out)
    return base_report, prop_report, improvement, rows


def format_summary(base: AggregateReport, prop: AggregateReport,
                   imp: Improvement) -> str:
    def fmt(r: AggregateReport) -> str:
        return (f"{r.algo:<10}{_opt(r.mu_d_ms, '.1f'):>9}{_opt(r.sigma_d_ms, '.1f'):>10}"
                f"{r.mu_pdr:>8.2f}{r.sigma_pdr:>11.3f}"
                f"{100 * r.pct_sat:>6.0f}%{_opt(r.avoid_sat, '.0%'):>11}{r.mean_hops:>8.1f}"
                f"{r.n_joined:>8}/{r.n_trials}")

    lines = [
        f"{'':<10}{'mu_d':>9}{'sigma_d':>10}{'mu_PDR':>8}{'sigma_PDR':>11}"
        f"{'%Sat':>7}{'avoid_Sat':>11}{'N_hops':>8}{'joined':>10}",
        fmt(prop),
        fmt(base),
        (f"delay_gain {_opt(imp.delay_gain, '.1%')}   "
         f"pdr_gain {_opt(imp.pdr_gain, '.1%')}   "
         f"sat_reduction {imp.sat_reduction_pp:.1f} pp"),
    ]
    return "\n".join(lines)


def _cmd_run(args) -> int:
    weights = parse_weight_vector(args.weights) if args.weights else None
    s = _with_weights(_load(args.scenario), weights)
    t = run_trial(s, args.algo, args.seed)
    row = trial_row(0, t)
    if t.joined:
        print(f"joined parent={row['parent_id']} hops={row['hops']} "
              f"join_time={t.join_time_ms:.0f}ms")
        print(f"mu_d={_opt(row['mu_d_ms'], '.1f')}ms sigma_d={_opt(row['sigma_d_ms'], '.1f')}ms "
              f"pdr={row['pdr']:.3f} sat_branch={row['sat_branch']}")
    else:
        print("join failed: no usable neighbor before the wait budget expired")
    if args.out:
        write_rows([row], args.out)
    return 0


def _cmd_compare(args) -> int:
    scenario = _load(args.scenario) if args.scenario else None
    weights = parse_weight_vector(args.weights) if args.weights else None
    base, prop, imp, _ = cmd_compare(
        scenario=scenario, random_nodes=args.nodes,
        trials=args.trials, seed_base=args.seed_base, area_m=args.area,
        weights=weights, out=args.out)
    print(format_summary(base, prop, imp))
    return 0


def _cmd_gen(args) -> int:
    _, s = next(trial_scenarios(1, args.seed, n_nodes=args.nodes, area_m=args.area))
    write_scenario(s, args.out)
    print(f"wrote {args.out}: {len(s.nodes)} nodes, sink {s.sink_id}, "
          f"new node {s.new_node_id}")
    return 0


def _cmd_sweep(args) -> int:
    source = trial_scenarios(args.trials, args.seed_base, n_nodes=args.nodes,
                             area_m=args.area)
    grid = parse_weights_grid(args.weights_grid)
    defaults = ScoreWeights()
    for vector in grid:  # every vector is checked before a layout is drawn
        _build(ScoreWeights, {**asdict(defaults), **vector}, "weights")
    layouts = list(source)
    rows = []
    for vector in grid:
        report = aggregate(list(trial_rows(layouts, ("scored",), vector)))
        label = ",".join(f"{k}={v:g}" for k, v in vector.items())
        print(f"{label:<48} mu_d={_opt(report.mu_d_ms, '.1f')}ms "
              f"mu_pdr={report.mu_pdr:.3f} pct_sat={100 * report.pct_sat:.0f}%")
        rows.append({**{n: getattr(defaults, n) for n in WEIGHT_NAMES}, **vector,
                     "mu_d_ms": report.mu_d_ms, "mu_pdr": report.mu_pdr,
                     "pct_sat": report.pct_sat})
    if args.out:
        write_rows(rows, args.out, SWEEP_COLUMNS)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterjoin",
        description="Deterministic BLE-mesh scatternet joining simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    # a random layout's size and area, gen_random_scenario's defaults when unset
    layout = argparse.ArgumentParser(add_help=False)
    layout.add_argument("--nodes", type=int, help="random layouts only")
    layout.add_argument("--area", type=float, help="random layouts only")
    trials = argparse.ArgumentParser(add_help=False, parents=[layout])
    trials.add_argument("--trials", type=int, required=True)
    trials.add_argument("--seed-base", type=int, default=0)

    p = sub.add_parser("run", help="run one trial on a scenario")
    p.add_argument("--scenario", required=True,
                   help="scenario JSON path, or the built-in 'training11'")
    p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the per-trial CSV row here")
    p.add_argument("--weights", help=WEIGHTS_HELP)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", parents=[trials],
                       help="paired baseline-vs-scored comparison")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--scenario", help="scenario JSON path or 'training11'")
    g.add_argument("--random", action="store_true",
                   help="fresh random layout per trial")
    p.add_argument("--out", help="write per-trial CSV rows here")
    p.add_argument("--weights", help=WEIGHTS_HELP)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gen", parents=[layout], help="generate a random scenario file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", parents=[trials], help="grid sweep over scoring weights")
    p.add_argument("--random", action="store_true", required=True)
    p.add_argument("--weights-grid", required=True,
                   help="e.g. 'w_b=0.1,0.25,0.4;w_ci=0.1,0.2'")
    p.add_argument("--out", help="write one CSV row per weight vector")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(STAGES) as e:
        stage = next(name for cls, name in STAGES.items() if isinstance(e, cls))
        print(f"error at {stage} stage: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
