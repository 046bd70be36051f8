"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload compare-r16 --pairs 10 --seconds 40
    python3 scripts/bench_pairs.py PARENT CHANGE --workload compare-t11 compare-r64 \
        --seed 7 --json BENCH.json

PARENT and CHANGE are two checkouts of this repository. For each
workload in turn, each pair runs `bench/run.py --trace 0 --seed N` once
in each checkout, one run at a time; the parent goes first in even pairs
and the change in odd ones, so a drift in the machine's speed falls on
both sides alike. Each run's last stdout line is its JSON summary, and
its full record (bench/out/) names the machine, the Python version and
the src/ sha256. Each run's end-to-end metrics go to stderr as it
finishes, so every run made is on record. For every end-to-end metric in
BENCHMARK.json the script prints the parent's median [quartiles], the
change's median, the relative move, the number of pairs in which the
change was on the metric's better side (a tie wins nothing) and the
verdict: "gain shown" when the change won at least 9 in 10 of the pairs
and its median moved to the better side by more than the parent's IQR,
"past bound" when its median is worse than the parent's by more than the
metric's bound in BENCHMARK.json, else "neither". With --json PATH it
also writes those figures, the verdict, the change's quartiles and each
side's value in every run, in pair order, so each side has its own
median and IQR and each pair won can be traced to its two runs, per
workload and metric, with the machine, the Python version, both
checkouts' src/ sha256, the seed, the pairs and the seconds; a PATH
that already holds a record of the same two sources gains the new
workloads (a workload run again at the same seed replaces its entry).
It exits 1 if any run failed or printed "correct": false. Nothing else
is written but what bench/run.py writes in each checkout.

The runs inherit this process's environment. With PYTHONDONTWRITEBYTECODE
set no run writes bytecode, so each run's set-up compiles every src/
module it has none cached for, and setup_s includes that: the script
prints whether it is set and records it per result in --json.
"""

from __future__ import annotations

import argparse
import json
import os
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
    """One metric over paired runs: each side's median and quartiles, the
    relative move of the median and the pairs the change won."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (>= 1) of parent and change runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    q1, median, q3 = quartiles(parent)
    c1, after, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    return {"parent_median": median, "parent_iqr": (q1, q3),
            "change_median": after, "change_iqr": (c1, c3),
            "move": (after - median) / median if median else None,
            "won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(parent)}


def verdict(s: dict, better: str, bound: float) -> dict:
    """summarize's figures judged: gain_shown when the change won at least
    9 in 10 of the pairs and its median moved to the better side by more
    than the parent's IQR; past_bound when its median is worse than the
    parent's by more than bound, a share of the parent's median."""
    sign = 1 if better == "higher" else -1
    gain = sign * (s["change_median"] - s["parent_median"])
    q1, q3 = s["parent_iqr"]
    return {"gain_shown": 10 * s["won"] >= 9 * s["pairs"] and gain > q3 - q1,
            "past_bound": -gain > bound * abs(s["parent_median"])}


def format_row(name: str, unit: str, s: dict) -> str:
    q1, q3 = s["parent_iqr"]
    move = "" if s["move"] is None else f" ({s['move']:+.1%})"
    judged = "gain shown" if s["gain_shown"] else "past bound" if s["past_bound"] else "neither"
    return (f"{name} ({unit}): {s['parent_median']:.6g} [{q1:.6g}, {q3:.6g}] -> "
            f"{s['change_median']:.6g}{move}, {s['won']} of {s['pairs']} pairs won: {judged}")


def writes_no_bytecode() -> bool:
    """Whether PYTHONDONTWRITEBYTECODE is set (non-empty) for the runs."""
    return bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))


def bench_command(workload: str, seconds: float, seed: int) -> list[str]:
    return [sys.executable, "bench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]


def bench_once(checkout: Path, workload: str, seconds: float, seed: int) -> tuple[dict, dict]:
    """One bench/run.py run in checkout: its last stdout line as JSON, and
    the environment of the full record it wrote."""
    proc = subprocess.run(bench_command(workload, seconds, seed),
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    record = checkout / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(lines[-1]), json.loads(record.read_text())["environment"]


def bench_record(runs: dict, envs: dict, metrics: list[dict], workload: str,
                 seed: int, seconds: float) -> dict:
    """The --json document for one workload's pairs; runs and envs map each
    side to its summaries and environments, in pair order."""
    if any(e["src_sha256"] != envs[side][0]["src_sha256"]
           for side in envs for e in envs[side]):
        raise ValueError("a checkout's src/ changed between runs")
    parent, change = envs["parent"][0], envs["change"][0]
    summaries = {}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                  for side, rs in runs.items()}
        s = summarize(values["parent"], values["change"], m["better"])
        summaries[m["name"]] = {"unit": m["unit"], "better": m["better"], **s,
                                "parent_iqr": list(s["parent_iqr"]),
                                "change_iqr": list(s["change_iqr"]),
                                **verdict(s, m["better"], m["bound"]),
                                "parent_runs": values["parent"],
                                "change_runs": values["change"]}
    return {
        "machine": {k: parent[k] for k in ("cpu_model", "nproc", "cpus_usable")},
        "python": parent["python"],
        "src_sha256": {"parent": parent["src_sha256"], "change": change["src_sha256"]},
        "results": [{
            "workload": workload, "seed": seed, "pairs": len(runs["parent"]),
            "seconds": seconds, "pythondontwritebytecode": writes_no_bytecode(),
            "correct": all(r["correct"] is True and r["failed"] == 0
                           for rs in runs.values() for r in rs),
            "metrics": summaries}],
    }


def merge_record(old: dict | None, new: dict) -> dict:
    """new's results added to old's, which must name the same machine,
    Python and sources; a result for the same workload and seed is replaced."""
    if old is None:
        return new
    for key in ("machine", "python", "src_sha256"):
        if old[key] != new[key]:
            raise ValueError(f"{key} differs from the record's: {old[key]} != {new[key]}")
    fresh = {(r["workload"], r["seed"]) for r in new["results"]}
    kept = [r for r in old["results"] if (r["workload"], r["seed"]) not in fresh]
    return {**old, "results": kept + new["results"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True, nargs="+", action="extend",
                   help="one or more workloads, run one after another")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=0, help="bench/run.py's --seed")
    p.add_argument("--json", type=Path, help="write (or extend) this record of the summaries")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 < args.seconds < float("inf"):  # also refuses nan
        p.error("--seconds must be > 0 and finite")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    ok = True
    print(f"# PYTHONDONTWRITEBYTECODE set: {writes_no_bytecode()}"
          + (" (each run's set-up compiles src/, and setup_s includes it)"
             if writes_no_bytecode() else ""))
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        envs = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                out, env = bench_once(getattr(args, side), workload, args.seconds, args.seed)
                ok = ok and out["correct"] is True and out["failed"] == 0
                runs[side].append(out)
                envs[side].append(env)
                values = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.6g}"
                                  for m in metrics if m["name"] in out["metrics"])
                print(f"# {workload} pair {i + 1} {side}: correct={out['correct']} "
                      f"failed={out['failed']} {values}", file=sys.stderr, flush=True)
        print(f"# {workload} at seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s "
              "runs, parent median [IQR] -> change median")
        record = bench_record(runs, envs, metrics, workload, args.seed, args.seconds)
        for name, s in record["results"][0]["metrics"].items():
            print(format_row(name, s["unit"], s))
        if args.json is not None:
            old = json.loads(args.json.read_text()) if args.json.exists() else None
            args.json.write_text(json.dumps(merge_record(old, record), indent=2) + "\n")
    print(f"# every run correct with 0 failed: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
