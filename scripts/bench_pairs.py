"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload compare-r16 --pairs 10 --seconds 40

PARENT and CHANGE are two checkouts of this repository. Each pair runs
`bench/run.py --trace 0` once in each checkout, one run at a time; the
parent goes first in even pairs and the change in odd ones, so a drift in
the machine's speed falls on both sides alike. Each run's last stdout line
is its JSON summary. For every end-to-end metric in BENCHMARK.json the
script prints the parent's median [quartiles], the change's median, the
relative move and the number of pairs in which the change was on the
metric's better side (a tie wins nothing). It exits 1 if any run failed
or printed "correct": false. Nothing is written but what bench/run.py
writes in each checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: parent quartiles, change median, the
    relative move of the median and the pairs the change won."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (>= 1) of parent and change runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    q1, median, q3 = quartiles(parent)
    after = statistics.median(change)
    sign = 1 if better == "higher" else -1
    return {"parent_median": median, "parent_iqr": (q1, q3), "change_median": after,
            "move": (after - median) / median if median else None,
            "won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(parent)}


def format_row(name: str, unit: str, s: dict) -> str:
    q1, q3 = s["parent_iqr"]
    move = "" if s["move"] is None else f" ({s['move']:+.1%})"
    return (f"{name} ({unit}): {s['parent_median']:.6g} [{q1:.6g}, {q3:.6g}] -> "
            f"{s['change_median']:.6g}{move}, {s['won']} of {s['pairs']} pairs won")


def bench_once(checkout: Path, workload: str, seconds: float) -> dict:
    """One bench/run.py run in checkout; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = bench_once(getattr(args, side), args.workload, args.seconds)
            ok = ok and out["correct"] is True and out["failed"] == 0
            runs[side].append(out)
            tps = out["metrics"].get("trials_per_s", {}).get("value")
            print(f"# pair {i + 1} {side}: correct={out['correct']} failed={out['failed']} "
                  f"trials_per_s={tps}", file=sys.stderr, flush=True)
    print(f"# {args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          "parent median [IQR] -> change median")
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                  for side, rs in runs.items()}
        s = summarize(values["parent"], values["change"], m["better"])
        print(format_row(m["name"], m["unit"], s))
    print(f"# every run correct with 0 failed: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
