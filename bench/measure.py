"""Passes, metrics and the run record behind `run.py`.

Importing this module imports soobox from the checkout's `src/` (through
`workloads`), so it raises ImportError when there is nothing to measure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import workloads  # first: puts the checkout's src/ on sys.path

import checks
import tracing
from soobox import harness

SETUP_PROBES = 7
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
PROBE_SCRIPT = Path(__file__).with_name("setup_probe.py")


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


class Bench:
    """One benchmark invocation: runs passes, checks them, tallies failures."""

    def __init__(self, workload: str, seed: int, pinned: dict[str, str] | None):
        self.workload = workload
        self.seed = seed
        self.out = workloads.WORK / workload
        self.configs = workloads.configs(workload, seed, self.out)
        self.pinned = pinned
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_check = None

    def one_pass(self, jobs: int = workloads.GRID_JOBS, tracer=None) -> float:
        """Run and check one pass; returns its wall seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        # pool workers run in other processes, out of the probe's sight
        probe = checks.SplitIdProbe()
        sees_runs = self.workload != "grid" or jobs == 1
        targets = [(harness, "run_soo", probe.wrap(harness.run_soo))] if sees_runs else []
        with tracing.patched(targets):
            if tracer is None:
                wall, raised = workloads.run_pass(self.workload, self.seed, self.out, jobs)
            else:
                with tracing.traced(tracer):
                    wall, raised = workloads.run_pass(self.workload, self.seed, self.out, jobs)
        check = checks.check_pass(
            self.configs,
            self.out,
            raised,
            split_ids=probe.calls if sees_runs else None,
            summary=self.workload == "grid",
            pinned=self.pinned,
            reference=self.reference,
        )
        self.reference = {**check.digests, **(self.reference or {})}
        self.attempted += check.attempted
        self.failed += check.n_failed
        self.problems.extend(check.problems)
        self.last_check = check
        return wall


def _setup_seconds(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(PROBE_SCRIPT), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the waited-for pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts and quartiles."""
    workloads.build_inputs(bench.workload, bench.seed)  # warm the set-up path
    walls: list[float] = []
    rates: list[float] = []
    started = time.perf_counter()
    while True:
        wall = bench.one_pass()
        walls.append(wall)
        rates.append(bench.last_check.evals / wall)
        elapsed = time.perf_counter() - started
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    rss = _peak_rss_mb()  # before the passes below and the set-up probes
    if bench.workload == "grid" and bench.pinned is not None:
        # pool workers hide split_ids from the probe; read them in-process
        bench.one_pass(jobs=1)
    setup = _setup_seconds(bench.workload, bench.seed)
    ratios = list(bench.last_check.ratios.values())
    ratio_gmean = math.exp(statistics.fmean(map(math.log, ratios))) if ratios else 0.0
    ok_frac = 1.0 - bench.failed / bench.attempted
    samples = {"wall_s": walls, "evals_per_s": rates, "setup_s": setup}
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "evals_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ratio_gmean": (ratio_gmean, "1"),
        "ok_frac": (ok_frac, "1"),
    }
    detail = {
        name: {"n": len(values), "quartiles": _quartiles(values), "values": values}
        for name, values in samples.items()
    }
    detail["peak_rss_mb"] = {"n": 1}
    detail["ratio_gmean"] = {"n": len(ratios)}
    detail["ok_frac"] = {"n": bench.attempted}
    return metrics, detail


def _peak_bytes_per_eval(bench: Bench) -> float:
    """tracemalloc peak of the workload's largest tree run, per evaluation."""
    tree_runs = [
        c
        for c in workloads.configs(bench.workload, bench.seed, None)
        if c.algorithm in workloads.TREE_ALGORITHMS
    ]
    if not tree_runs:
        return 0.0
    config = max(tree_runs, key=lambda c: c.resolved_budget * c.dim)
    tracemalloc.start()
    try:
        run = harness.run_algorithm(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / run.evals_used


def traced_run(bench: Bench) -> tuple[dict, dict]:
    """Per-layer metrics from one traced in-process pass.

    Untraced passes before and after it bracket the traced one, so a slow
    phase of a shared machine shifts the overhead estimate less.
    """
    cost = tracing.calibrate()
    workloads.build_inputs(bench.workload, bench.seed)
    before = bench.one_pass(jobs=1)
    tracer = tracing.Tracer()
    traced_wall = bench.one_pass(jobs=1, tracer=tracer)
    untimed = (before + bench.one_pass(jobs=1)) / 2.0
    pool_efficiency = 0.0
    if bench.workload == "grid":
        jobs = workloads.GRID_JOBS
        pool_efficiency = untimed / (jobs * bench.one_pass(jobs=jobs))
    peak = _peak_bytes_per_eval(bench)
    spans_path = workloads.WORK / f"spans-{bench.workload}.npz"
    tracer.save(spans_path)
    metrics = tracing.layer_metrics(
        tracer, cost, traced_wall, untimed, peak, pool_efficiency
    )
    detail = {
        "passes": {"untimed": 2, "traced": 1},
        "spans_file": str(spans_path.relative_to(workloads.ROOT)),
    }
    return metrics, detail


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, bench: Bench, detail: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": _git_sha(workloads.ROOT),
        "src_sha256": _src_sha256(workloads.SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "digests_pinned": bench.pinned is not None,
        "samples": detail,
        "problems": bench.problems[:50],
    }


def report(args) -> int:
    """Run one invocation and print its metrics; returns the exit code."""
    bench = Bench(args.workload, args.seed, checks.load_pinned(args.workload, args.seed))
    if args.trace:
        metrics, detail = traced_run(bench)
    else:
        metrics, detail = timed_run(bench, args.seconds)
    record = run_record(args, bench, detail)
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    record_path = workloads.WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    correct = bench.failed == 0
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")
    print("record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1
