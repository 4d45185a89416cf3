"""Budget-constrained global optimization via optimistic partitioning.

The package centers on a rank-based global optimizer that adaptively
refines a hierarchical ternary partition of the search box, spending a
hard evaluation budget.  Around it: a deterministic benchmark suite with
known optima, a simplex-based local refinement stage, bandit and random
baselines, and a harness that turns runs into machine-readable artifacts.
"""

from .baselines import (
    ArmStats,
    UcbRun,
    bernoulli_arms,
    run_random_search,
    run_ucb,
    run_ucb_grid,
    ucb_select,
)
from .errors import (
    BadDimension,
    BudgetExhausted,
    InvalidBounds,
    NotALeaf,
    ObjectiveDegenerate,
    OutOfBounds,
    SooboxError,
    UnknownFunction,
    UnpulledArm,
)
from .harness import (
    BudgetComparison,
    GridSummary,
    RunConfig,
    compare_budgets,
    run_algorithm,
    run_experiment,
    run_grid,
)
from .objectives import (
    SUITE_NAMES,
    Objective,
    make_objective,
    shift_from_seed,
    suite_manifest,
    transformed,
)
from .refine import NmResult, nelder_mead, refine_budget_split, refine_run
from .result import RunLedger, RunResult, TraceRecorder
from .tree import (
    Cell,
    DepthSchedule,
    PartitionTree,
    SooParams,
    max_depth,
    new_tree,
    run_soo,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ArmStats",
    "BadDimension",
    "BudgetComparison",
    "BudgetExhausted",
    "Cell",
    "DepthSchedule",
    "GridSummary",
    "InvalidBounds",
    "NmResult",
    "NotALeaf",
    "Objective",
    "ObjectiveDegenerate",
    "OutOfBounds",
    "PartitionTree",
    "RunConfig",
    "RunLedger",
    "RunResult",
    "SUITE_NAMES",
    "SooParams",
    "SooboxError",
    "TraceRecorder",
    "UcbRun",
    "UnknownFunction",
    "UnpulledArm",
    "bernoulli_arms",
    "compare_budgets",
    "make_objective",
    "max_depth",
    "nelder_mead",
    "new_tree",
    "refine_budget_split",
    "refine_run",
    "run_algorithm",
    "run_experiment",
    "run_grid",
    "run_random_search",
    "run_soo",
    "run_ucb",
    "run_ucb_grid",
    "shift_from_seed",
    "suite_manifest",
    "sweep",
    "transformed",
    "ucb_select",
    "__version__",
]
