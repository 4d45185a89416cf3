"""Outside-in layer tracing: wrap soobox's public functions from the benchmark.

Nothing in `src/` knows about tracing.  `traced()` rebinds module and class
attributes for the duration of a pass, so every call through them records a
span (kind, start, end, parent) into flat arrays kept in memory.  A layer's
self time is its spans' durations minus the parts covered by child spans,
less the calibrated cost of the wrappers themselves.

Functions reached through another module's namespace are wrapped where the
caller looks them up (`harness.run_soo`, not `tree.run_soo`).  Unwrapped
helpers (`shift_from_seed`, `refine_budget_split`, `ArmStats.update`, ...)
count towards the self time of the wrapped caller.
"""

from __future__ import annotations

import array
import contextlib
import statistics
import time
from pathlib import Path

import numpy as np

from soobox import baselines, harness, objectives, refine, result, tree

# Span kinds: "<layer>.<function>", mapped to where callers look them up.
# objectives.fn is the suite function inside each Objective, wrapped per
# instance as make_objective returns it.
OWNERS = {
    "objectives.make_objective": harness,
    "objectives.evaluate": objectives.Objective,
    "objectives.fn": None,
    "tree.run_soo": harness,
    "tree.sweep": tree.PartitionTree,
    "tree.split_leaf": tree.PartitionTree,
    "result.record": result.TraceRecorder,
    "refine.refine_run": harness,
    "refine.nelder_mead": refine,
    "baselines.ucb_select": baselines,
    "baselines.run_random_search": harness,
    "baselines.run_ucb_grid": harness,
    "harness.run_grid": harness,
    "harness._grid_cell": harness,
    "harness.run_experiment": harness,
    "harness.run_algorithm": harness,
    "harness._suite_f_star": harness,
    "harness.trace_csv_text": harness,
    "harness.result_json_text": harness,
    "harness._atomic_write": harness,
}
LAYERS = ("objectives", "tree", "result", "refine", "baselines", "harness")


class Tracer:
    """Span recorder.  Spans live in flat arrays until `save` writes them once."""

    def __init__(self):
        self.kinds = list(OWNERS) + ["calibration"]
        self.kind = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.failures = [0] * len(self.kinds)
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        """`fn` recording one span per call; `on_return(args, result)` runs after it ends."""
        kind_id = self.kinds.index(name)
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        stack, failures, perf = self._stack, self.failures, time.perf_counter

        def traced_call(*args, **kwargs):
            idx = len(starts)
            kinds.append(kind_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf()
                stack.pop()
                failures[kind_id] += 1
                raise
            ends[idx] = perf()
            stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return traced_call

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.kinds), **self.spans())


def calibrate(rounds: int = 7, calls: int = 100_000) -> tuple[float, float]:
    """Per-call wrapper cost (total, part inside the span), in seconds.

    The total is the extra time a wrapped two-argument no-op (the shape of
    a method call) costs over a bare one; the inside part is the duration
    the wrapper records for it.  Each recorded span is shortened by the
    inside part, and its parent's self time by the rest, once per child.
    """

    def noop(owner, x):
        return None

    totals, insides = [], []
    perf = time.perf_counter
    for _ in range(rounds):
        tracer = Tracer()
        wrapped = tracer.wrap("calibration", noop)
        t0 = perf()
        for _ in range(calls):
            noop(None, None)
        bare = perf() - t0
        t0 = perf()
        for _ in range(calls):
            wrapped(None, None)
        traced = perf() - t0
        spans = tracer.spans()
        totals.append((traced - bare) / calls)
        insides.append(float(np.mean(spans["end"] - spans["start"])))
    total = statistics.median(totals)
    inside = min(statistics.median(insides), total)
    return total, inside


@contextlib.contextmanager
def patched(targets):
    """Rebind (owner, attribute, replacement) triples, restoring them on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every traced layer for the duration of a block."""
    count = tracer.count

    def on_make_objective(args, objective):
        objective._fn = tracer.wrap("objectives.fn", objective._fn)

    def on_run_soo(args, run):
        count("tree.evals", run.evals_used)

    def on_refine_run(args, refined):
        count("refine.refinements")
        before = args[0].best_value
        if result.value_key(refined.best_value) < result.value_key(before):
            count("refine.improved")

    def on_nelder_mead(args, nm):
        count("refine.evals", nm.evals_used)
        count("refine.restarts", nm.restarts)

    def on_write(args, _):
        # artifacts are ASCII (CSV numbers, json.dumps' default escaping)
        count("harness.bytes_written", len(args[1]))

    hooks = {
        "objectives.make_objective": on_make_objective,
        "tree.run_soo": on_run_soo,
        "refine.refine_run": on_refine_run,
        "refine.nelder_mead": on_nelder_mead,
        "harness._atomic_write": on_write,
    }
    targets = []
    for name, owner in OWNERS.items():
        if owner is not None:
            attr = name.split(".", 1)[1]
            wrapped = tracer.wrap(name, getattr(owner, attr), hooks.get(name))
            targets.append((owner, attr, wrapped))
    with patched(targets):
        yield


def self_times(tracer: Tracer, cost: tuple[float, float]) -> tuple[dict, dict, int]:
    """Per kind: ({kind: corrected self seconds}, {kind: calls}, total spans)."""
    total, inside = cost
    spans = tracer.spans()
    n = spans["kind"].size
    n_kinds = len(tracer.kinds)
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    parents = spans["parent"][has_parent]
    child_dur = np.bincount(parents, weights=dur[has_parent], minlength=n)
    child_calls = np.bincount(parents, minlength=n)
    own = dur - child_dur - inside - child_calls * (total - inside)
    self_s = np.bincount(spans["kind"], weights=own, minlength=n_kinds)
    calls = np.bincount(spans["kind"], minlength=n_kinds)
    named = dict(zip(tracer.kinds, self_s.tolist()))
    counted = dict(zip(tracer.kinds, calls.tolist()))
    return named, counted, n


def layer_metrics(
    tracer: Tracer,
    cost: tuple[float, float],
    traced_wall: float,
    untimed_wall: float,
    peak_bytes_per_eval: float,
    pool_efficiency: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    own, calls, n_spans = self_times(tracer, cost)
    fail = dict(zip(tracer.kinds, tracer.failures))
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    tree_self = own["tree.run_soo"] + own["tree.sweep"] + own["tree.split_leaf"]
    evaluate_calls = calls["objectives.evaluate"]
    splits = calls["tree.split_leaf"] - fail["tree.split_leaf"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for kind in OWNERS:
        layer_self[kind.split(".", 1)[0]] += own[kind]
    corrected_wall = traced_wall - n_spans * cost[0]
    m = {
        "objectives.fn_s": (own["objectives.fn"], "s"),
        "objectives.evaluate_self_s": (own["objectives.evaluate"], "s"),
        "objectives.evaluate_calls": (evaluate_calls, "count"),
        "objectives.evaluate_us": (
            ratio(own["objectives.evaluate"] + own["objectives.fn"], evaluate_calls) * 1e6,
            "us",
        ),
        "objectives.rejected": (fail["objectives.evaluate"], "count"),
        "objectives.build_s": (own["objectives.make_objective"], "s"),
        "tree.self_s": (tree_self, "s"),
        "tree.us_per_eval": (ratio(tree_self, counts.get("tree.evals", 0)) * 1e6, "us"),
        "tree.sweeps": (calls["tree.sweep"], "count"),
        "tree.splits": (splits, "count"),
        "tree.splits_per_sweep": (ratio(splits, calls["tree.sweep"]), "1"),
        "tree.peak_bytes_per_eval": (peak_bytes_per_eval, "B"),
        "result.record_s": (own["result.record"], "s"),
        "result.record_calls": (calls["result.record"], "count"),
        "refine.self_s": (own["refine.refine_run"] + own["refine.nelder_mead"], "s"),
        "refine.evals": (counts.get("refine.evals", 0), "count"),
        "refine.restarts": (counts.get("refine.restarts", 0), "count"),
        "refine.improved_frac": (
            ratio(counts.get("refine.improved", 0), counts.get("refine.refinements", 0)),
            "1",
        ),
        "baselines.ucb_select_s": (own["baselines.ucb_select"], "s"),
        "baselines.ucb_select_calls": (calls["baselines.ucb_select"], "count"),
        "baselines.ucb_select_us": (
            ratio(own["baselines.ucb_select"], calls["baselines.ucb_select"]) * 1e6,
            "us",
        ),
        "baselines.random_self_s": (own["baselines.run_random_search"], "s"),
        "baselines.ucb_grid_self_s": (own["baselines.run_ucb_grid"], "s"),
        "harness.trace_csv_s": (own["harness.trace_csv_text"], "s"),
        "harness.result_json_s": (own["harness.result_json_text"], "s"),
        "harness.write_s": (own["harness._atomic_write"], "s"),
        "harness.files_written": (calls["harness._atomic_write"], "count"),
        "harness.bytes_written": (counts.get("harness.bytes_written", 0), "B"),
        "harness.run_experiment_self_s": (
            own["harness.run_experiment"]
            + own["harness.run_algorithm"]
            + own["harness._suite_f_star"],
            "s",
        ),
        "harness.pool_efficiency": (pool_efficiency, "1"),
    }
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = (layer_self[layer], "s")
    m.update(
        {
            "trace.wall_s": (traced_wall, "s"),
            "trace.untimed_wall_s": (untimed_wall, "s"),
            "trace.overhead_frac": (ratio(traced_wall, untimed_wall) - 1.0, "1"),
            "trace.wrapper_ns": (cost[0] * 1e9, "ns"),
            "trace.spans": (n_spans, "count"),
            "trace.covered_frac": (ratio(sum(layer_self.values()), corrected_wall), "1"),
        }
    )
    return m
