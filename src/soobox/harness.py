"""Experiment runner: configs, file artifacts, grids, budget studies.

A RunConfig pins everything needed to reproduce a run: the suite
instance, the budget (explicit, or scaled as 10^4 x dimension), the
algorithm, and its knobs.  run_experiment executes one config and writes
a per-evaluation trace CSV plus a result JSON; run_grid crosses
functions x dims x algorithms into a ratio summary table; compare_budgets
reruns one config at increasing budgets and reports the relative
improvement between consecutive budgets.

All files are written atomically (temp file in the target directory, then
rename), so readers never observe a partial artifact.  Floats in CSV are
formatted with 17 significant digits, which round-trips doubles exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .baselines import (
    DEFAULT_EXPLORATION,
    DEFAULT_GRID_RESOLUTION,
    run_random_search,
    run_ucb_grid,
)
from .objectives import (
    check_count,
    check_exploration,
    check_fraction,
    check_shift_seed,
    check_type,
    make_objective,
    suite_f_star,
)
from .refine import refine_budget_split, refine_run
from .result import RunResult, ratio_to_optimum
from .tree import DepthSchedule, SooParams, run_soo

PER_DIM_BUDGET = 10_000
ALGORITHMS = ("soo", "soo-refine", "random", "ucb-grid")
FORMATS = ("csv", "json")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one run, picklable for worker processes.

    The one place that holds the run settings and their defaults.  Each is
    checked at construction by its rule's one owner, and an invalid value
    raises ValueError, except a dim below the function's own minimum
    (rosenbrock at 1), which raises BadDimension once the run builds it.
    """

    function: str
    dim: int
    budget: int | None = None
    cec_budget: bool = False
    algorithm: str = "soo"
    refine_fraction: float = 0.05
    s_children: int = 3
    depth_schedule: DepthSchedule = field(default_factory=DepthSchedule.log32)
    seed: int = 0
    grid_resolution: int = DEFAULT_GRID_RESOLUTION
    exploration: float = DEFAULT_EXPLORATION
    shift_seed: int = 0
    output_dir: Path | None = None
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        put = partial(object.__setattr__, self)  # frozen: store checked values
        put("dim", check_count(self.dim, "dim", 1))
        put("seed", check_count(self.seed, "seed", 0))
        put("shift_seed", check_shift_seed(self.shift_seed))
        suite_f_star(self.function)  # UnknownFunction, a ValueError
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        check_type(self.cec_budget, bool, "cec_budget")
        if self.cec_budget == (self.budget is not None):
            raise ValueError("exactly one of budget and cec_budget is required")
        if self.budget is not None:
            put("budget", check_count(self.budget, "budget", 1))
        put("refine_fraction", check_fraction(self.refine_fraction, "refine_fraction"))
        put("s_children", _soo_params(self).s_children)  # checks depth_schedule too
        put("grid_resolution", check_count(self.grid_resolution, "grid_resolution", 1))
        put("exploration", check_exploration(self.exploration, "exploration"))
        check_type(self.formats, tuple, "formats")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ValueError(f"unknown format {fmt!r}")

    @property
    def resolved_budget(self) -> int:
        """The evaluation cap: explicit, or 10^4 per dimension."""
        if self.cec_budget:
            return PER_DIM_BUDGET * self.dim
        return self.budget

    @property
    def stem(self) -> str:
        return f"{self.function}_{self.dim}_{self.algorithm}_{self.resolved_budget}"


def _soo_params(config: RunConfig) -> SooParams:
    return SooParams(
        s_children=config.s_children, depth_schedule=config.depth_schedule
    )


def run_algorithm(config: RunConfig) -> RunResult:
    """Execute the configured algorithm; no files touched."""
    budget = config.resolved_budget
    objective = make_objective(
        config.function, config.dim, budget, shift_seed=config.shift_seed
    )
    if config.algorithm == "soo":
        return run_soo(objective, budget, _soo_params(config))
    if config.algorithm == "soo-refine":
        main_budget, _ = refine_budget_split(budget, config.refine_fraction)
        result = run_soo(objective, main_budget, _soo_params(config))
        return refine_run(result, objective, config.refine_fraction)
    if config.algorithm == "random":
        return run_random_search(objective, budget, config.seed)
    return run_ucb_grid(
        objective, budget, config.grid_resolution, config.exploration
    )


# ---------------------------------------------------------------------------
# file artifacts
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _atomic_write(path: Path, text: str) -> None:
    # Each writer gets its own temp name, so writers of one path never
    # share a temp file.  Exclusive mode refuses to reuse an existing
    # file and, unlike mkstemp's 0600, keeps the default permissions.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def trace_csv_text(result: RunResult, f_star: float | None) -> str:
    """The trace as CSV rows `eval_index,best_value,ratio`; row i is evaluation i.

    The best-so-far value repeats over long runs of rows, so its text (and
    its ratio's) is formatted once per distinct value object.  No field
    can contain a delimiter or quote, so rows are joined directly.
    """
    lines = ["eval_index,best_value,ratio"]
    last = tail = None
    for index, value in enumerate(result.trace, start=1):
        if value is not last:
            last = value
            ratio = ratio_to_optimum(value, f_star)
            tail = f"{_fmt(value)},{'' if ratio is None else _fmt(ratio)}"
        lines.append(f"{index},{tail}")
    lines.append("")
    return "\n".join(lines)


def read_trace_csv(path: Path) -> list[float]:
    """Parse a trace file back to its best-so-far values, one per evaluation.

    Raises ValueError when the file does not start with the trace header,
    and when a row is blank, short, or not numbered 1..n in order.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if header[:2] != ["eval_index", "best_value"]:
            raise ValueError(f"{path} is not a trace file: header {header!r}")
        values = []
        for pos, row in enumerate(reader, start=1):
            if len(row) < 2 or row[0] != str(pos):
                raise ValueError(f"{path} row {pos} is not evaluation {pos}: {row!r}")
            values.append(float(row[1]))
        return values


def _config_echo(config: RunConfig) -> dict:
    echo = dataclasses.asdict(config)
    echo["output_dir"] = (
        None if config.output_dir is None else str(config.output_dir)
    )
    return echo


def result_json_text(
    config: RunConfig, result: RunResult, f_star: float | None, wall_seconds: float
) -> str:
    payload = {
        "config": _config_echo(config),
        "budget": config.resolved_budget,
        "best_point": result.best_point.tolist(),
        "best_value": result.best_value,
        "f_star": f_star,
        "ratio": result.ratio,
        "evals_used": result.evals_used,
        "wall_seconds": wall_seconds,
    }
    return json.dumps(payload, indent=2) + "\n"


def run_experiment(config: RunConfig) -> RunResult:
    """Run one config and, when an output directory is set, write artifacts.

    Artifacts are `<stem>.csv` (the trace) and `<stem>.json` (config echo
    plus the result summary), filtered by config.formats.
    """
    start = time.perf_counter()
    result = run_algorithm(config)
    wall = time.perf_counter() - start
    if config.output_dir is not None:
        out = Path(config.output_dir)
        f_star = _suite_f_star(config)
        if "csv" in config.formats:
            _atomic_write(out / f"{config.stem}.csv", trace_csv_text(result, f_star))
        if "json" in config.formats:
            _atomic_write(
                out / f"{config.stem}.json",
                result_json_text(config, result, f_star, wall),
            )
    return result


def _suite_f_star(config: RunConfig) -> float:
    return suite_f_star(config.function)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass
class GridSummary:
    """Ratio table over a function x dim x algorithm cross product.

    cells maps (function, dim, algorithm) to a ratio, or to the string
    "error" when that run failed.
    """

    functions: list[str]
    dims: list[int]
    algorithms: list[str]
    cells: dict[tuple[str, int, str], float | str]

    def column_labels(self) -> list[str]:
        return [f"{algo}_{dim}d" for dim in self.dims for algo in self.algorithms]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["function"] + self.column_labels())
        for function in self.functions:
            row: list[str] = [function]
            for dim in self.dims:
                for algo in self.algorithms:
                    cell = self.cells[(function, dim, algo)]
                    row.append(cell if isinstance(cell, str) else _fmt(cell))
            writer.writerow(row)
        return buf.getvalue()


def _grid_cell(config: RunConfig) -> tuple[tuple[str, int, str], float | str, str]:
    key = (config.function, config.dim, config.algorithm)
    try:
        result = run_experiment(config)
    except Exception as exc:  # a failed cell must not sink the grid
        return key, "error", f"{type(exc).__name__}: {exc}"
    return key, result.ratio, ""


def grid_configs(
    functions: list[str], dims: list[int], algorithms: list[str], **fields
) -> list[RunConfig]:
    """One RunConfig per cell of the cross product, in summary order.

    fields are further RunConfig fields shared by every cell; an invalid
    value or a value repeated on an axis raises ValueError before any
    cell runs.
    """
    if not functions or not dims or not algorithms:
        raise ValueError("functions, dims, and algorithms must be non-empty")
    for axis, values in (
        ("function", functions), ("dim", dims), ("algorithm", algorithms)
    ):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{axis} {repeated[0]!r} is given more than once")
    return [
        RunConfig(function=function, dim=dim, algorithm=algorithm, **fields)
        for function in functions
        for dim in dims
        for algorithm in algorithms
    ]


def run_grid(
    functions: list[str],
    dims: list[int],
    algorithms: list[str],
    *,
    jobs: int = 1,
    **fields,
) -> GridSummary:
    """Run the cross product and assemble the ratio summary.

    fields are RunConfig fields shared by every cell.  Each cell is an
    independent run writing its own artifacts; with jobs > 1 cells execute
    in worker processes.  A jobs other than an integer >= 1 raises
    ValueError before any cell runs.  The summary lands in `summary.csv` under
    output_dir, written once at the end.
    """
    check_count(jobs, "jobs", 1)
    configs = grid_configs(functions, dims, algorithms, **fields)
    if jobs > 1:
        # the pool forks all its workers up front, so never more than cells
        with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
            outcomes = list(pool.map(_grid_cell, configs))
    else:
        outcomes = [_grid_cell(config) for config in configs]

    cells: dict[tuple[str, int, str], float | str] = {}
    for key, cell, diagnostic in outcomes:
        cells[key] = cell
        if diagnostic:
            print(f"grid cell {key} failed: {diagnostic}", file=sys.stderr)
    summary = GridSummary(
        functions=list(functions),
        dims=list(dims),
        algorithms=list(algorithms),
        cells=cells,
    )
    output_dir = configs[0].output_dir
    if output_dir is not None:
        _atomic_write(Path(output_dir) / "summary.csv", summary.to_csv_text())
    return summary


# ---------------------------------------------------------------------------
# budget studies
# ---------------------------------------------------------------------------


@dataclass
class BudgetComparison:
    """Ratios at increasing budgets plus consecutive relative improvements.

    improvements[i] is (ratio[i] - ratio[i+1]) / ratio[i]: the fraction of
    the i-th ratio shaved off by raising the budget one step.  Empty when
    only one budget was requested.
    """

    function: str
    dim: int
    budgets: list[int]
    ratios: list[float]
    best_values: list[float]

    @property
    def improvements(self) -> list[float]:
        return [(r1 - r2) / r1 for r1, r2 in zip(self.ratios, self.ratios[1:])]

    def to_json_text(self) -> str:
        payload = dataclasses.asdict(self)
        payload["improvements"] = self.improvements
        return json.dumps(payload, indent=2) + "\n"


def compare_budgets(
    function: str,
    dim: int,
    budgets: list[int],
    *,
    output_dir: Path | None = None,
    **fields,
) -> BudgetComparison:
    """Run one config at each budget and compare ratios.

    fields are further RunConfig fields; output_dir receives the report,
    and the runs themselves write no artifacts.  Budgets must be strictly increasing.  For the partition
    optimizer, determinism plus the trace prefix property make the
    reported ratios monotone non-increasing.
    """
    if not budgets:
        raise ValueError("need at least one budget")
    configs = [RunConfig(function, dim, budget=b, **fields) for b in budgets]
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    ratios: list[float] = []
    best_values: list[float] = []
    for config in configs:
        result = run_algorithm(config)
        ratios.append(result.ratio)
        best_values.append(result.best_value)
    comparison = BudgetComparison(
        function=function,
        dim=configs[0].dim,
        budgets=[config.budget for config in configs],
        ratios=ratios,
        best_values=best_values,
    )
    if output_dir is not None:
        _atomic_write(
            Path(output_dir) / f"budgets_{function}_{comparison.dim}.json",
            comparison.to_json_text(),
        )
    return comparison
