"""Argument fuzz: every public entry point refuses a bad argument before it
meters anything.

Each parameter that carries a count, a dimension, a seed, a fraction, an
exploration constant, a depth schedule, a function name, a box, a point
or an objective is fed values from one pool: ints, bools, floats, numpy
scalars, NaN, +/-inf, negatives, huge values, non-numbers and wrong-shape
arrays.  A call must return or raise ValueError or SooboxError
(UnknownFunction, BadDimension and InvalidBounds are both), and an
Objective it was given must have meter == 0 after a raise.

Each kind of parameter gets a fixed pool, every value of which is tried,
plus random hypothesis draws.  Huge values reach 10**400, beyond the
float range, for every parameter whose size sets no allocation and no
loop length.  A dimension, an arm count, a horizon or a budget that sets
a run's length gets only small integers: a valid 10**18 there is a
request for that much memory or time, not a bad argument.

An objective function or transform is fuzzed too, and an Objective's
vectorized flag and optimum_value.  Out of scope: reward sources.  A
cell id is fuzzed on a tree with its own objective, whose root is
metered.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soobox import (
    ArmStats,
    DepthSchedule,
    Objective,
    PartitionTree,
    RunConfig,
    RunLedger,
    SooboxError,
    SooParams,
    bernoulli_arms,
    compare_budgets,
    make_objective,
    max_depth,
    nelder_mead,
    new_tree,
    refine_budget_split,
    refine_run,
    run_grid,
    run_random_search,
    run_soo,
    run_ucb,
    run_ucb_grid,
    shift_from_seed,
    suite_manifest,
    transformed,
    ucb_select,
)
from soobox.baselines import grid_divisions

SCALARS = [
    0, 1, 2, 3, 4, 5, -1, -3,
    True, False, None,
    0.0, -0.0, 0.05, 0.5, 0.999, 1.0, 2.0, 2.5, -0.5, 1e-300, 1e300, -1e308,
    math.nan, math.inf, -math.inf,
    np.int64(3), np.int32(-2), np.uint8(2), np.int64(0),
    np.float64(0.25), np.float32(0.5), np.float64(math.nan), np.float32(math.inf),
    np.bool_(True), np.bool_(False),
    "", "2", "0.5", "csv", "log32", "soo", "sphere", "Sphere", "nope", "all",
]
ARRAYS = [
    np.array(2), np.array(0.5), np.array([1, 2]), np.array([0.5]),
    np.zeros((2, 2)), np.zeros(0), np.zeros((0, 2)), np.array([True, False]),
    [0.5, -0.5], [[0.5, -0.5]], [math.nan, 0.0], [math.inf, 0.0],
    [1e300, 0.0], [0.0, 0.0, 0.0], (), ("csv",), [np.int64(1), np.float32(0.5)],
    [2**64, 0.0], [-(2**63), 0.0],
]
# huge integers inside the float range, and beyond it
HUGE = [2**31, 2**63 - 1, 2**63, 2**64, 10**30, 10**300]
BEYOND_FLOAT = [10**400, -(10**400)]

# (fixed pool, random extras) per kind of parameter
_floats = st.floats(allow_nan=True, allow_infinity=True)
SMALL = (SCALARS + ARRAYS, st.one_of(st.integers(-3, 12), _floats))
ANY = (SMALL[0] + HUGE + BEYOND_FLOAT, st.one_of(st.integers(), _floats))
COORDS = (
    SMALL[0] + HUGE + BEYOND_FLOAT + [[10**400, 0.0], {}, [object(), 0.0]],
    st.one_of(
        st.lists(st.one_of(st.integers(), _floats), max_size=3),
        st.lists(st.lists(st.floats(-6, 6), min_size=2, max_size=2), max_size=2),
    ),
)


def _config(**fields):
    return RunConfig(**{"function": "sphere", "dim": 2, "budget": 10, **fields})


def _played_stats():
    stats = ArmStats(2)
    stats.update(0, 0.3)
    stats.update(1, 0.6)
    return stats


def _split_tree():
    # its own objective: the root and the first split are metered
    objective = make_objective("sphere", 2, budget=50)
    tree = PartitionTree(objective)
    tree.split_leaf(0)
    return tree


def _flagged(vectorized):
    # a block function for vectorized=True and a per-point one otherwise,
    # so a bool flag evaluates, and any other flag must be refused
    fn = (lambda block: block.sum(axis=1)) if vectorized is True else math.fsum
    return Objective(fn, [0.0], [1.0], 5, vectorized=vectorized)


def _finished_run():
    return run_soo(make_objective("sphere", 2, budget=25), 20)


# (id, values, call): call(value, objective) makes one call with the
# fuzzed value in one argument; objective is a fresh 2-D suite objective
CALLS = [
    *[
        (f"RunConfig-{field}", values, lambda v, obj, field=field: _config(**{field: v}))
        for field, values in [
            ("function", SMALL),
            ("dim", ANY),
            ("budget", ANY),
            ("cec_budget", ANY),
            ("algorithm", SMALL),
            ("refine_fraction", ANY),
            ("s_children", ANY),
            ("depth_schedule", ANY),
            ("seed", ANY),
            ("grid_resolution", ANY),
            ("exploration", ANY),
            ("shift_seed", ANY),
            ("formats", ANY),
        ]
    ],
    ("make_objective-name", SMALL, lambda v, obj: make_objective(v, 2, 10)),
    ("make_objective-dim", SMALL, lambda v, obj: make_objective("sphere", v, 10)),
    ("make_objective-budget", ANY, lambda v, obj: make_objective("sphere", 2, v)),
    (
        "make_objective-shift-seed", ANY,
        lambda v, obj: make_objective("sphere", 2, 10, shift_seed=v),
    ),
    ("shift_from_seed-seed", ANY, lambda v, obj: shift_from_seed(v, 2)),
    ("shift_from_seed-dim", SMALL, lambda v, obj: shift_from_seed(0, v)),
    ("suite_manifest-dim", SMALL, lambda v, obj: suite_manifest(v)),
    ("suite_manifest-shift-seed", ANY, lambda v, obj: suite_manifest(2, v)),
    ("Objective-lower", COORDS, lambda v, obj: Objective(np.sum, v, [1.0, 1.0], 5)),
    ("Objective-upper", COORDS, lambda v, obj: Objective(np.sum, [0.0, 0.0], v, 5)),
    ("Objective-budget", ANY, lambda v, obj: Objective(np.sum, [0.0], [1.0], v)),
    (
        "Objective-optimum_point", COORDS,
        lambda v, obj: Objective(np.sum, [0.0, 0.0], [1.0, 1.0], 5, optimum_point=v),
    ),
    # each is used after construction, where a bad value used to raise TypeError
    (
        "Objective-fn", SMALL,
        lambda v, obj: Objective(v, [0.0], [1.0], 5).evaluate([0.5]),
    ),
    ("Objective-vectorized", SMALL, lambda v, obj: _flagged(v).evaluate([0.5])),
    (
        "Objective-optimum_value", ANY,
        lambda v, obj: run_random_search(
            Objective(math.fsum, [0.0], [1.0], 1, optimum_value=v), 1, 0
        ).ratio,
    ),
    ("transformed-objective", SMALL, lambda v, obj: transformed(v, abs, "abs")),
    (
        "transformed-g", SMALL,
        lambda v, obj: transformed(obj, v, "g").evaluate([0.5, 0.5]),
    ),
    ("evaluate", COORDS, lambda v, obj: obj.evaluate(v)),
    ("evaluate_batch", COORDS, lambda v, obj: obj.evaluate_batch(v)),
    ("Objective.raw", COORDS, lambda v, obj: obj.raw(v)),
    ("RunLedger-objective", SMALL, lambda v, obj: RunLedger(v)),
    ("RunLedger-budget", ANY, lambda v, obj: RunLedger(obj, v)),
    ("PartitionTree-objective", SMALL, lambda v, obj: PartitionTree(v)),
    ("PartitionTree-params", ANY, lambda v, obj: PartitionTree(obj, v)),
    ("PartitionTree-eval_budget", ANY, lambda v, obj: PartitionTree(obj, eval_budget=v)),
    # new_tree's space must be its objective's box: any other is refused
    ("new_tree-objective", SMALL, lambda v, obj: new_tree((obj.lower, obj.upper), v)),
    ("new_tree-lower", COORDS, lambda v, obj: new_tree((v, obj.upper), obj)),
    ("new_tree-upper", COORDS, lambda v, obj: new_tree((obj.lower, v), obj)),
    ("run_soo-objective", SMALL, lambda v, obj: run_soo(v, 20)),
    ("run_soo-budget", ANY, lambda v, obj: run_soo(obj, v)),
    ("run_soo-params", ANY, lambda v, obj: run_soo(obj, 20, v)),
    ("SooParams-s_children", ANY, lambda v, obj: SooParams(s_children=v)),
    ("SooParams-depth_schedule", ANY, lambda v, obj: SooParams(depth_schedule=v)),
    (
        "run_soo-depth_schedule", ANY,
        lambda v, obj: run_soo(obj, 20, SooParams(depth_schedule=v)),
    ),
    ("DepthSchedule.constant", ANY, lambda v, obj: DepthSchedule.constant(v)),
    ("max_depth-evals", ANY, lambda v, obj: max_depth(v)),
    ("max_depth-schedule", ANY, lambda v, obj: max_depth(10, v)),
    (
        "run_random_search-objective", SMALL,
        lambda v, obj: run_random_search(v, 10, 0),
    ),
    ("run_random_search-budget", ANY, lambda v, obj: run_random_search(obj, v, 0)),
    ("run_random_search-seed", ANY, lambda v, obj: run_random_search(obj, 10, v)),
    ("run_ucb_grid-objective", SMALL, lambda v, obj: run_ucb_grid(v, 10)),
    ("run_ucb_grid-budget", ANY, lambda v, obj: run_ucb_grid(obj, v)),
    ("run_ucb_grid-resolution", ANY, lambda v, obj: run_ucb_grid(obj, 10, v)),
    ("run_ucb_grid-c", ANY, lambda v, obj: run_ucb_grid(obj, 10, 2, v)),
    ("run_ucb-horizon", SMALL, lambda v, obj: run_ucb([lambda: 1.0, lambda: 2.0], v)),
    ("run_ucb-c", ANY, lambda v, obj: run_ucb([lambda: 1.0, lambda: 2.0], 5, v)),
    ("ArmStats", SMALL, lambda v, obj: ArmStats(v)),
    ("ArmStats.update-arm", ANY, lambda v, obj: _played_stats().update(v, 1.0)),
    (
        "PartitionTree.split_leaf-leaf_id", ANY,
        lambda v, obj: _split_tree().split_leaf(v),
    ),
    ("grid_divisions-dim", SMALL, lambda v, obj: grid_divisions(v, 3)),
    ("ucb_select-c", ANY, lambda v, obj: ucb_select(_played_stats(), v)),
    ("ucb_select-stats", SMALL, lambda v, obj: ucb_select(v)),
    ("bernoulli_arms-seed", ANY, lambda v, obj: bernoulli_arms([0.5], v)),
    ("nelder_mead-objective", SMALL, lambda v, obj: nelder_mead(v, [0.5, 0.5], 10)),
    ("nelder_mead-x0", COORDS, lambda v, obj: nelder_mead(obj, v, 10)),
    ("nelder_mead-max_evals", ANY, lambda v, obj: nelder_mead(obj, [0.5, 0.5], v)),
    ("refine_budget_split-budget", ANY, lambda v, obj: refine_budget_split(v, 0.05)),
    ("refine_budget_split-fraction", ANY, lambda v, obj: refine_budget_split(100, v)),
    (
        "refine_run-objective", SMALL,
        lambda v, obj: refine_run(_finished_run(), v, 0.05),
    ),
    ("refine_run-fraction", ANY, lambda v, obj: refine_run(_finished_run(), obj, v)),
    # a reserve of 15 of the objective's 30 covers a 2-D simplex, so a bad
    # result would reach Nelder-Mead instead of being handed back unchanged
    ("refine_run-result", SMALL, lambda v, obj: refine_run(v, obj, 0.5)),
    (
        "run_grid-jobs", ANY,
        lambda v, obj: run_grid(["sphere"], [2], ["soo"], budget=5, jobs=v),
    ),
    ("run_grid-dims", SMALL, lambda v, obj: run_grid(["sphere"], [v], ["soo"], budget=5)),
    ("compare_budgets-function", SMALL, lambda v, obj: compare_budgets(v, 2, [5, 8])),
    ("compare_budgets-dim", SMALL, lambda v, obj: compare_budgets("sphere", v, [5, 8])),
    ("compare_budgets-budget", SMALL, lambda v, obj: compare_budgets("sphere", 2, [v])),
    (
        "compare_budgets-budgets", SMALL,
        lambda v, obj: compare_budgets("sphere", 2, [5, v]),
    ),
]


def _check(call, value):
    objective = make_objective("sphere", 2, budget=30)
    try:
        call(value, objective)
    except (ValueError, SooboxError):
        assert objective.meter == 0, f"{value!r} raised after metering"
    except Exception as exc:
        raise AssertionError(f"{value!r} raised {type(exc).__name__}") from exc


CASES = [pytest.param(values, call, id=name) for name, values, call in CALLS]


# numpy warns about overflow on the extreme floats; a warning is no error
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestArgumentFuzz:
    @pytest.mark.parametrize("values, call", CASES)
    def test_every_pool_value(self, values, call):
        for value in values[0]:
            _check(call, value)

    @pytest.mark.parametrize("values, call", CASES)
    def test_random_values(self, values, call):
        @given(value=values[1])
        @settings(
            max_examples=30, deadline=None, suppress_health_check=list(HealthCheck)
        )
        def check(value):
            _check(call, value)

        check()
