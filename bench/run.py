"""scatterjoin benchmark: seeded paired-compare workloads, checked results.

    python3 bench/run.py --workload compare-r16 --seed 3 --seconds 30 --trace 0

One process, one caller, closed loop: the runner calls
`cli.cmd_compare` in chunks of paired trials until --seconds have
passed, and times every `run_trial` call through the name `cli` looks
it up by. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs one chunk untraced, the same chunk with layer spans,
then the layer kernels, and reports the per-layer metrics. Every trial
is checked for packet conservation; at the default seed the first chunk
must match the committed results digest, and at every seed one trial is
re-run and must come out bit-identical. The last line of stdout is one
JSON object; a copy of the full record goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import digest  # noqa: E402
import kernels  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

DEFAULT_SEED = 0
SEED_STRIDE = 1_000_000  # trial seeds of run seed n start at n * SEED_STRIDE
SETUP_REPEATS = 11
MIN_KERNEL_S = 0.25
# The highest standard percentile with at least ten samples beyond it on
# every workload at 40 s runs (compare-r64 completes about 100 trials).
# It is fixed so that runs with different trial counts stay comparable.
TAIL_PERCENTILE = 90
MODULES = ("cli", "engine", "model", "channel", "join_scored", "scenario", "metrics")


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int | None  # None: the built-in training11 scenario
    chunk: int         # paired trials per cmd_compare call
    csv: bool          # write the per-trial CSV, as the acceptance run does


# compare-t11: fixed 11-node network, no generation; host time is the event
#   core on mostly idle links.
# compare-r16: the acceptance workload, a fresh random layout per trial,
#   CSV written; busier links than training11.
# compare-r64: the N^2 layers (build-up, status fan-out, hears,
#   generation) and a 5x larger event heap carry weight.
# A chunk of 10 keeps cmd_compare's aggregate defined: on random-64 a
# single trial often delivers no probe, which compare() cannot divide.
WORKLOADS = {w.name: w for w in (
    Workload("compare-t11", None, 10, False),
    Workload("compare-r16", 16, 10, True),
    Workload("compare-r64", 64, 10, False),
)}


# -- set-up ------------------------------------------------------------

def set_up(w: Workload):
    """Import scatterjoin afresh and build the workload's fixed inputs.

    Returns (modules, fixed scenario or None, host seconds, seconds at
    reference speed). The previous import is dropped and its garbage
    collected first, so each set-up starts as a fresh process would, with
    the stdlib loaded.
    """
    for name in [n for n in sys.modules if n == "scatterjoin" or n.startswith("scatterjoin.")]:
        del sys.modules[name]
    gc.collect()
    before = speed.calibration_s()
    t0 = time.perf_counter()
    pkg = importlib.import_module("scatterjoin")
    m = SimpleNamespace(**{n: importlib.import_module(f"scatterjoin.{n}") for n in MODULES})
    scenario = pkg.training11() if w.nodes is None else None
    seconds = time.perf_counter() - t0
    after = speed.calibration_s()
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: scatterjoin imported from {pkg.__file__}, not {SRC}")
    return m, scenario, seconds, speed.at_reference(seconds, [before, after])


# -- one chunk ---------------------------------------------------------

class Runner:
    """Runs and checks chunks of paired trials for one workload and seed."""

    def __init__(self, w: Workload, m, scenario, seed: int, reference: dict | None):
        self.w, self.m, self.scenario, self.seed = w, m, scenario, seed
        self.reference = reference if seed == DEFAULT_SEED else None
        self.csv_path = OUT_DIR / f"{w.name}-{os.getpid()}.csv" if w.csv else None
        # host seconds, and the same at reference speed (speed.py)
        self.trial_s: list[float] = []
        self.trial_ref_s: list[float] = []
        self.chunk_s: list[float] = []
        self.chunk_ref_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.first_scored_digest: str | None = None

    def seed_base(self, chunk: int) -> int:
        return self.seed * SEED_STRIDE + chunk * self.w.chunk

    def compare(self, chunk: int):
        """One cmd_compare call over the chunk's paired trials, recorded.

        A calibration runs before each `run_trial` and once after the
        call; its time is left out of the chunk's wall time. Returns
        (TrialResults in call order, the two AggregateReports or None if
        the call raised, host wall seconds).
        """
        cli = self.m.cli
        kwargs = {"trials": self.w.chunk, "seed_base": self.seed_base(chunk)}
        if self.w.nodes is None:
            kwargs["scenario"] = self.scenario
        else:
            kwargs["random_nodes"] = self.w.nodes
        if self.csv_path is not None:
            kwargs["out"] = str(self.csv_path)
        real = cli.run_trial
        results, trial_s, cals = [], [], []
        cal_wall = 0.0

        def recorded_run_trial(*args, **kwargs):
            nonlocal cal_wall
            t0 = time.perf_counter()
            cals.append(speed.calibration_s())
            t1 = time.perf_counter()
            cal_wall += t1 - t0
            r = real(*args, **kwargs)
            trial_s.append(time.perf_counter() - t1)
            results.append(r)
            return r

        cli.run_trial = recorded_run_trial
        t0 = time.perf_counter()
        try:
            reports = cli.cmd_compare(**kwargs)[:2]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            reports = None
        finally:
            wall = time.perf_counter() - t0 - cal_wall
            cli.run_trial = real
        cals.append(speed.calibration_s())
        self.trial_s += trial_s
        self.trial_ref_s += [speed.at_reference(t, cals[i:i + 2]) for i, t in enumerate(trial_s)]
        self.chunk_s.append(wall)
        self.chunk_ref_s.append(speed.at_reference(wall, cals))
        return results, reports, wall

    def csv_bytes(self) -> bytes | None:
        return self.csv_path.read_bytes() if self.csv_path is not None else None

    def run_chunk(self, chunk: int) -> float:
        """Run, time and check one chunk; returns its host wall seconds."""
        results, reports, wall = self.compare(chunk)
        self.attempted += self.w.chunk
        self.failed += len(self.check(chunk, results, reports))
        return wall

    def check(self, chunk: int, results: list, reports) -> set[int]:
        """Indices of the chunk's paired trials that failed a check."""
        n = self.w.chunk
        if reports is None or len(results) != 2 * n:
            self.notes.append(f"chunk {chunk}: raised or ran {len(results)} of {2 * n} trials")
            return set(range(n))
        bad = {i // 2 for i, r in enumerate(results) if not digest.conserved(r)}
        for i in sorted(bad):
            self.notes.append(f"chunk {chunk} pair {i}: packets not conserved")
        if chunk == 0:
            self.first_scored_digest = digest.trial_digest(results[1])
            if self.reference is not None:
                bad |= self.check_reference(results, reports)
        return bad

    def check_reference(self, results, reports) -> set[int]:
        """Pairs whose digest differs from the reference; every pair when
        only the reports or the CSV differ."""
        got = digest.reference_entry(results, reports, self.csv_bytes())
        want = self.reference
        if len(got["pairs"]) != len(want["pairs"]):
            bad = set(range(self.w.chunk))
        else:
            bad = {i for i, (g, r) in enumerate(zip(got["pairs"], want["pairs"])) if g != r}
        if not bad and got["batch"] != want["batch"]:
            bad = set(range(self.w.chunk))
        if bad:
            self.notes.append(f"digest mismatch at default seed, pairs {sorted(bad)}")
        return bad

    def rerun_first_trial(self) -> None:
        """Re-run the first chunk's first scored trial; it must be bit-identical."""
        base = self.seed_base(0)
        s = self.scenario
        if s is None:
            s = self.m.scenario.gen_random_scenario(n_nodes=self.w.nodes, seed=base, area_m=30.0)
        again = digest.trial_digest(self.m.engine.run_trial(s, "scored", base))
        self.attempted += 1
        if again != self.first_scored_digest:
            self.failed += 1
            self.notes.append(f"re-run of scored trial seed {base} is not bit-identical")

    def close(self) -> None:
        if self.csv_path is not None and self.csv_path.exists():
            self.csv_path.unlink()


# -- passes ------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int]:
    """(TAIL_PERCENTILE-th percentile by nearest rank, samples above it)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def untraced_pass(runner: Runner, seconds: float, setup: tuple[float, float]
                  ) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed; the host-time figures go to extra."""
    t0 = time.perf_counter()
    chunk = 0
    while chunk == 0 or time.perf_counter() - t0 < seconds:
        runner.run_chunk(chunk)
        chunk += 1
    pairs = chunk * runner.w.chunk
    ms = [s * 1e3 for s in runner.trial_ref_s]
    host_ms = [s * 1e3 for s in runner.trial_s]
    tail_ms, beyond = tail(ms)
    metrics = {
        "trials_per_s": (pairs / sum(runner.chunk_ref_s), "1/s"),
        "trial_ms_p50": (statistics.median(ms), "ms"),
        "trial_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup[1], "s"),
    }
    extra = {"paired_trials": pairs, "chunks": chunk,
             "trial_ms_tail_percentile": TAIL_PERCENTILE, "trial_samples": len(ms),
             "trial_samples_beyond_tail": beyond,
             "host_trials_per_s": pairs / sum(runner.chunk_s),
             "host_trial_ms_p50": statistics.median(host_ms),
             "host_trial_ms_tail": tail(host_ms)[0], "host_setup_s": setup[0]}
    return metrics, extra


def traced_pass(runner: Runner, seconds: float) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    untraced_s = runner.run_chunk(0)
    tracer, heap = spans.Tracer(), spans.CountingHeapq()
    with spans.patched(spans.layer_patches(tracer, heap, runner.m)):
        traced_s = runner.run_chunk(0)
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{runner.w.name}.csv.gz"
    tracer.write(span_file)
    metrics = spans.layer_metrics(tracer, heap, runner.m.engine)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    budget = max((seconds - (time.perf_counter() - t_start)) / len(kernels.KERNELS),
                  MIN_KERNEL_S)
    metrics.update(kernels.run_kernels(runner.m, budget))
    extra = {"paired_trials": 2 * runner.w.chunk, "untraced_s": untraced_s,
             "traced_s": traced_s, "spans": len(tracer.name_id),
             "span_file": str(span_file.relative_to(ROOT))}
    return metrics, extra


# -- environment -------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/**/*.py, naming the code where git is absent."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "git_commit": git_commit(), "src_sha256": source_digest(), "seed": seed}


# -- entry points ------------------------------------------------------

def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload]
    setups = [set_up(w) for _ in range(SETUP_REPEATS)]
    m, scenario = setups[-1][:2]
    setup = (statistics.median(s[2] for s in setups), statistics.median(s[3] for s in setups))
    reference = digest.load_reference()["workloads"].get(w.name)
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(w, m, scenario, seed, reference)
    try:
        if trace:
            metrics, extra = traced_pass(runner, seconds)
        else:
            metrics, extra = untraced_pass(runner, seconds, setup)
        runner.rerun_first_trial()
    finally:
        runner.close()
    if seed == DEFAULT_SEED and reference is None:
        runner.notes.append(f"no reference digest for {w.name}")
    return {
        "workload": w.name, "trace": int(trace), "environment": environment(seed),
        "correct": runner.failed == 0 and not runner.notes,
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra, "notes": runner.notes,
        "samples": {"chunk_s": runner.chunk_s, "chunk_ref_s": runner.chunk_ref_s,
                    "trial_s": runner.trial_s, "trial_ref_s": runner.trial_ref_s},
    }


def write_reference(workload: str) -> None:
    """Record the digests of chunk 0 at the default seed for `workload`."""
    w = WORKLOADS[workload]
    m, scenario = set_up(w)[:2]
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(w, m, scenario, DEFAULT_SEED, None)
    try:
        results, reports, _ = runner.compare(0)
        if reports is None:
            raise SystemExit(f"bench: {w.name} raised; no reference written")
        entry = digest.reference_entry(results, reports, runner.csv_bytes())
    finally:
        runner.close()
    try:
        doc = digest.load_reference()
    except FileNotFoundError:
        doc = {"seed": DEFAULT_SEED, "workloads": {}}
    doc["workloads"][w.name] = {"chunk": w.chunk, **entry}
    digest.write_reference(doc)


def report(result: dict) -> None:
    env = result["environment"]
    print("# " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                          for k, v in env.items()))
    print(f"# workload={result['workload']} trace={result['trace']}")
    for name, mv in result["metrics"].items():
        print(f"{name:<40} {mv['value']:>16.6g} {mv['unit']}")
    print(f"{'fail_ratio':<40} {result['fail_ratio']:>16.6g} "
          f"({result['failed']}/{result['attempted']})")
    for k, v in result["extra"].items():
        print(f"# {k}={v}")
    for note in result["notes"]:
        print(f"# FAIL {note}")
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{result['workload']}-seed{env['seed']}-trace{result['trace']}.json"
    record.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the default-seed digest for --workload and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scatterjoin" / "__init__.py").is_file():
        print(f"bench: no scatterjoin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference(args.workload)
        return 0
    report(run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
