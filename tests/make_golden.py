"""Regenerate tests/golden_traces.json, the pinned trajectories of the optimizer.

    PYTHONPATH=src python tests/make_golden.py

The fixture holds, per run, the SHA-256 of the trace CSV the harness writes
and of the run's split_ids.  tests/test_golden.py recomputes every run and
compares.  Regenerate only in a change that deliberately alters
trajectories, and say so in that change: a refactor or speed-up must leave
the fixture untouched.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from soobox import RunConfig, make_objective, run_algorithm
from soobox.harness import trace_csv_text
from soobox.objectives import SUITE_NAMES

FIXTURE = Path(__file__).with_name("golden_traces.json")
BUDGET = 1_000
DIMS = (2, 10)
ALGORITHMS = ("soo", "soo-refine")
# one run deep enough for the log32 depth cap to bind repeatedly
LONG_RUN = ("rastrigin", 10, "soo", 10_000)


def golden_configs() -> list[RunConfig]:
    configs = [
        RunConfig(function=fn, dim=dim, budget=BUDGET, algorithm=algo)
        for fn in SUITE_NAMES
        for dim in DIMS
        for algo in ALGORITHMS
    ]
    fn, dim, algo, budget = LONG_RUN
    configs.append(RunConfig(function=fn, dim=dim, budget=budget, algorithm=algo))
    return configs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(config: RunConfig) -> dict[str, str]:
    """SHA-256 of the run's trace CSV text and of its split_ids."""
    result = run_algorithm(config)
    f_star = make_objective(
        config.function, config.dim, 0, shift_seed=config.shift_seed
    ).optimum_value
    return {
        "trace_csv_sha256": _sha(trace_csv_text(result, f_star).encode()),
        "split_ids_sha256": _sha(",".join(map(str, result.split_ids)).encode()),
    }


def main() -> None:
    runs = {config.stem: digests(config) for config in golden_configs()}
    FIXTURE.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {FIXTURE}")


if __name__ == "__main__":
    main()
