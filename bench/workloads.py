"""The benchmark's workloads: which configs each one runs, and one pass over them.

Every workload is a closed loop driven from one process through the public
harness calls `soobox.harness.run_experiment` and `soobox.harness.run_grid`,
the same calls `soobox.cli.main` makes.  The benchmark's seed becomes both
the suite's `shift_seed` and the random baseline's `seed` in every config.

Importing this module puts the checkout's `src/` first on `sys.path`, so
the code measured is always the code in this checkout, never an installed
copy.  It raises ImportError when the checkout has no `src/soobox`.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"  # artifacts, span dumps and run records
if not (SRC / "soobox" / "__init__.py").is_file():
    raise ImportError(f"no soobox sources under {SRC}")
sys.path.insert(0, str(SRC))

from soobox import harness  # noqa: E402
from soobox.harness import RunConfig  # noqa: E402
from soobox.objectives import SUITE_NAMES, make_objective  # noqa: E402

if Path(harness.__file__).resolve().parent != SRC / "soobox":
    raise ImportError(f"soobox was imported from {harness.__file__}, not {SRC}")

WORKLOADS = ("protocol", "baselines", "grid")

# protocol: the paper's hybrid at the CEC budget (10^4 x D) on cheap
# objectives, so the tree, trace and CSV layers carry most of the time.
PROTOCOL_FUNCTIONS = ("sphere", "ellipsoid", "rastrigin")
PROTOCOL_DIM = 10

# grid: many short cells, so per-cell construction, artifact writes and
# process-pool dispatch matter more than any one run.
GRID_DIMS = (2, 5, 10)
GRID_ALGORITHMS = ("soo", "soo-refine", "random", "ucb-grid")
GRID_BUDGET = 2000
GRID_JOBS = 2

TREE_ALGORITHMS = ("soo", "soo-refine")


def configs(workload: str, seed: int, output_dir: Path | None) -> list[RunConfig]:
    """Every run of one pass of `workload`, in the order the pass runs them."""
    common = dict(seed=seed, shift_seed=seed, output_dir=output_dir)
    if workload == "protocol":
        return [
            RunConfig(fn, PROTOCOL_DIM, cec_budget=True, algorithm="soo-refine", **common)
            for fn in PROTOCOL_FUNCTIONS
        ]
    if workload == "baselines":
        # The tree is bypassed entirely: a tree change must read "no change".
        return [
            RunConfig("composite3", 10, budget=100_000, algorithm="random", **common),
            RunConfig("rastrigin", 10, budget=20_000, algorithm="ucb-grid", **common),
        ]
    if workload == "grid":
        # run_grid builds these itself, in this order; listed here so the
        # checks know which artifacts to expect.
        return [
            RunConfig(fn, dim, budget=GRID_BUDGET, algorithm=algo, **common)
            for fn in SUITE_NAMES
            for dim in GRID_DIMS
            for algo in GRID_ALGORITHMS
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def build_inputs(workload: str, seed: int) -> tuple[list[RunConfig], list]:
    """Set-up work a user pays before the first run: configs and objectives."""
    runs = configs(workload, seed, None)
    objectives = [
        make_objective(c.function, c.dim, c.resolved_budget, shift_seed=c.shift_seed)
        for c in runs
    ]
    return runs, objectives


def run_pass(
    workload: str, seed: int, output_dir: Path, jobs: int = GRID_JOBS
) -> tuple[float, dict[str, str]]:
    """Run one pass and return (wall seconds, {stem: error} for runs that raised).

    `jobs` applies to the grid only.  The harness is looked up at call time,
    so wrappers installed on it by the tracer are the ones that run.
    """
    raised: dict[str, str] = {}
    if workload == "grid":
        start = time.perf_counter()
        harness.run_grid(
            list(SUITE_NAMES),
            list(GRID_DIMS),
            list(GRID_ALGORITHMS),
            budget=GRID_BUDGET,
            output_dir=output_dir,
            jobs=jobs,
            seed=seed,
            shift_seed=seed,
        )
        return time.perf_counter() - start, raised
    runs = configs(workload, seed, output_dir)
    start = time.perf_counter()
    for config in runs:
        try:
            harness.run_experiment(config)
        except Exception as exc:  # a failed run is counted, not fatal
            raised[config.stem] = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, raised
