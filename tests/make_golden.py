"""Regenerate tests/golden_traces.json, the pinned outputs of the harness.

    PYTHONPATH=src python tests/make_golden.py

The fixture holds, per run, the SHA-256 of the trace CSV the harness writes
and of the run's split_ids (under "runs"), and of its result JSON with
wall_seconds set to 0.0 (under "result_json"), plus the SHA-256 of one
compare_budgets report (under "budget_reports").  tests/test_golden.py
recomputes every entry and compares.  Regenerate only in a change that
deliberately alters trajectories or artifacts, and say so in that change:
a refactor or speed-up must leave the fixture untouched.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from soobox import RunConfig, compare_budgets, make_objective, run_algorithm
from soobox.harness import result_json_text, trace_csv_text
from soobox.objectives import SUITE_NAMES

FIXTURE = Path(__file__).with_name("golden_traces.json")
BUDGET = 1_000
DIMS = (1, 2, 3, 10)
# (function, dim) cells the suite cannot build: rosenbrock needs dim >= 2
UNBUILDABLE = {("rosenbrock", 1)}
ALGORITHMS = ("soo", "soo-refine", "random", "ucb-grid")
# one run deep enough for the log32 depth cap to bind repeatedly
LONG_RUN = ("rastrigin", 10, "soo", 10_000)
# (function, dim, budgets) of the pinned compare_budgets report
BUDGET_REPORT = ("rastrigin", 2, [200, 400])


def golden_configs() -> list[RunConfig]:
    configs = [
        RunConfig(function=fn, dim=dim, budget=BUDGET, algorithm=algo)
        for fn in SUITE_NAMES
        for dim in DIMS
        for algo in ALGORITHMS
        if (fn, dim) not in UNBUILDABLE
    ]
    fn, dim, algo, budget = LONG_RUN
    configs.append(RunConfig(function=fn, dim=dim, budget=budget, algorithm=algo))
    return configs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(config: RunConfig) -> dict[str, str]:
    """SHA-256 of the run's trace CSV, split_ids and result JSON text."""
    result = run_algorithm(config)
    f_star = make_objective(
        config.function, config.dim, 0, shift_seed=config.shift_seed
    ).optimum_value
    return {
        "trace_csv_sha256": _sha(trace_csv_text(result, f_star).encode()),
        "split_ids_sha256": _sha(",".join(map(str, result.split_ids)).encode()),
        "result_json_sha256": _sha(
            result_json_text(config, result, f_star, 0.0).encode()
        ),
    }


def budget_report_key() -> str:
    fn, dim, budgets = BUDGET_REPORT
    return f"{fn}_{dim}_{','.join(map(str, budgets))}"


def budget_report_digest() -> str:
    """SHA-256 of the pinned compare_budgets report's JSON text."""
    return _sha(compare_budgets(*BUDGET_REPORT).to_json_text().encode())


def main() -> None:
    runs, result_json = {}, {}
    for config in golden_configs():
        pinned = digests(config)
        result_json[config.stem] = pinned.pop("result_json_sha256")
        runs[config.stem] = pinned
    fixture = {
        "runs": runs,
        "result_json": result_json,
        "budget_reports": {budget_report_key(): budget_report_digest()},
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {FIXTURE}")


if __name__ == "__main__":
    main()
