"""Tests for the simplex refiner and the hybrid global+local driver."""

import math
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soobox import (
    BudgetExhausted,
    Objective,
    OutOfBounds,
    make_objective,
    nelder_mead,
    refine_budget_split,
    refine_run,
    run_soo,
)
from soobox import refine
from soobox.result import RunResult, TraceRecorder

# =============================================================================
# Fixed coefficients
# =============================================================================


class TestNmParams:
    def test_defaults_are_valid(self):
        # the fixed textbook coefficients and termination knobs
        assert refine._ALPHA == 1.0
        assert refine._GAMMA == 2.0
        assert refine._RHO == 0.5
        assert refine._SIGMA == 0.5
        assert refine._INIT_SCALE == 0.05
        assert refine._TOL == 1e-12


# =============================================================================
# The best-so-far rule Nelder-Mead keeps its incumbent by
# =============================================================================

# few distinct values, so ties, signed zeros, NaN and +/-inf recur
_SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 2.5]
) | st.floats(allow_nan=True, allow_infinity=True)


class TestTraceRecorder:
    @pytest.mark.parametrize(
        "first, values, improved, entries",
        [
            # the first value counts, even NaN
            (None, [math.nan], [True], [math.nan]),
            (None, [math.nan, 5.0], [True, True], [math.nan, 5.0]),
            (None, [-math.inf, 7.0], [True, True], [-math.inf, 7.0]),
            # NaN and +/-inf never beat a finite value
            (
                None,
                [3.0, math.nan, math.inf, -math.inf],
                [True, False, False, False],
                [3.0, 3.0, 3.0, 3.0],
            ),
            # a tie keeps the earlier value: 0.0 and -0.0 compare equal
            (None, [0.0, -0.0, 0.0], [True, False, False], [0.0, 0.0, 0.0]),
            (None, [-0.0, 0.0], [True, False], [-0.0, -0.0]),
            # after a first value, only a strictly smaller key counts
            (1.0, [1.0, 2.0, 0.5], [False, False, True], [1.0, 1.0, 0.5]),
            (0.0, [-0.0], [False], [0.0]),
            (math.nan, [math.inf, math.nan, 4.0], [False, False, True],
             [math.nan, math.nan, 4.0]),
        ],
    )
    def test_record(self, first, values, improved, entries):
        # first, when given, is recorded at place -1 before values
        rec = TraceRecorder()
        # a value improves exactly when the incumbent moves to its place
        if first is not None:
            rec.record(first, -1)
            assert rec.incumbent == -1
        for at, (v, better) in enumerate(zip(values, improved)):
            rec.record(v, at)
            assert (rec.incumbent == at) is better
        # repr tells NaN, inf and the sign of zero apart exactly
        skip = 0 if first is None else 1
        assert [repr(v) for v in rec.entries[skip:]] == [repr(v) for v in entries]
        assert repr(rec.best_value) == repr(entries[-1])
        # the incumbent is where the last improving value was recorded
        places = [-1] + [at for at, better in enumerate(improved) if better]
        assert rec.incumbent == places[-1]

    @given(
        first=st.lists(_SPECIAL_FLOATS, min_size=1, max_size=6),
        later=st.lists(_SPECIAL_FLOATS, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_replaying_a_running_best_matches_the_raw_values(self, first, later):
        # refine_run joins Nelder-Mead's own best-so-far trace, not its raw
        # values, to the global stage through RunResult.then, with the
        # search's incumbent as the later stage's point; the oracle is one
        # recorder fed every raw value of both stages
        raw = TraceRecorder()
        raw.extend(first + later, range(len(first) + len(later)))
        stage = TraceRecorder()
        stage.extend(first, range(len(first)))
        result = RunResult(stage.incumbent, stage.entries, 2.0, array("q", [3, 1]))
        search = TraceRecorder()
        search.extend(later, range(len(first), len(first) + len(later)))
        joined = result.then(search.incumbent, search.entries)
        # repr tells NaN, inf and the sign of zero apart exactly
        assert [repr(v) for v in joined.trace] == [repr(v) for v in raw.entries]
        assert repr(joined.best_value) == repr(raw.best_value)
        # the later point is kept exactly when the raw values' best is
        # among the later stage's, at the place it was recorded
        assert joined.best_point == raw.incumbent
        assert (joined.f_star, joined.split_ids.tolist()) == (2.0, [3, 1])
        assert len(result.trace) == len(first)  # the first stage is not changed

    @given(
        first=st.none() | _SPECIAL_FLOATS,
        values=st.lists(_SPECIAL_FLOATS, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_extend_reports_whether_any_value_improved(self, first, values):
        one_by_one = TraceRecorder()
        extended = TraceRecorder()
        if first is not None:
            one_by_one.record(first, -1)
            extended.record(first, -1)
        improved = []
        for at, v in enumerate(values):
            one_by_one.record(v, at)
            improved.append(one_by_one.incumbent == at)
        extended.extend(values, range(len(values)))
        # the incumbent leaves the first value's place only when a value
        # improves, and is None only while nothing has been recorded
        assert (extended.incumbent not in (None, -1)) is any(improved)
        assert (extended.incumbent is None) is (first is None and not values)
        assert [repr(v) for v in extended.entries] == [repr(v) for v in one_by_one.entries]
        assert extended.incumbent == one_by_one.incumbent


# =============================================================================
# Core simplex search
# =============================================================================


class TestNelderMead:
    def test_shifted_sphere_converges(self):
        # a sphere with its optimum placed at (0.2, 0.2), value 100
        def fn(x):
            return 100.0 + float(np.sum((x - 0.2) ** 2))

        obj = Objective(fn, np.full(2, -5.0), np.full(2, 5.0), budget=300)
        result = nelder_mead(obj, [0.5, 0.5], max_evals=200)
        assert result.trace[-1] - 100.0 <= 1e-8
        assert result.trace[-1] >= 100.0
        assert not result.budget_exhausted

    def test_starting_at_optimum_cannot_get_worse(self):
        obj = make_objective("rastrigin", 2, budget=300)
        x_star, f_star = obj.optimum_point, obj.optimum_value
        result = nelder_mead(obj, x_star, max_evals=100)
        assert result.trace[-1] == f_star

    def test_result_never_exceeds_start_value(self):
        obj = make_objective("ackley", 3, budget=200)
        x0 = np.array([2.0, -1.0, 3.0])
        f0 = obj.raw(x0)
        result = nelder_mead(obj, x0, max_evals=150)
        assert result.trace[-1] <= f0

    def test_budget_floor_evaluates_initial_simplex_only(self):
        obj = make_objective("sphere", 3, budget=100)
        result = nelder_mead(obj, [1.0, 1.0, 1.0], max_evals=4)
        assert result.evals_used == 4
        assert obj.meter == 4

    def test_max_evals_below_simplex_rejected(self):
        obj = make_objective("sphere", 3, budget=100)
        with pytest.raises(ValueError):
            nelder_mead(obj, [0.0, 0.0, 0.0], max_evals=3)
        with pytest.raises(ValueError):
            nelder_mead(obj, [0.0, 0.0], max_evals=10)  # x0 of the wrong shape
        assert obj.meter == 0

    def test_start_outside_box_rejected(self):
        # x0 is the first point evaluated, so the objective's own bounds
        # check rejects it before anything is metered
        for x0 in ([9.0, 0.0], [math.nan, 0.0], [0.0, -math.inf]):
            obj = make_objective("sphere", 2, budget=100)
            with pytest.raises(OutOfBounds):
                nelder_mead(obj, x0, max_evals=50)
            assert obj.meter == 0

    def test_never_leaves_the_box(self):
        # Start hugging a corner: reflections and expansions would exit
        # the box without clamping, and the objective would raise.
        seen = []

        def fn(x):
            seen.append(x.copy())
            return float(np.sum((x - 4.0) ** 2))

        obj = Objective(fn, np.full(2, -5.0), np.full(2, 5.0), budget=500)
        result = nelder_mead(obj, [4.9, 4.9], max_evals=300)
        assert result.evals_used == len(seen)
        for x in seen:
            assert np.all(x >= -5.0) and np.all(x <= 5.0)
        assert result.trace[-1] <= 1e-6

    def test_objective_exhaustion_flagged_not_raised(self):
        obj = make_objective("sphere", 2, budget=10)
        result = nelder_mead(obj, [1.0, 1.0], max_evals=50)
        assert result.budget_exhausted
        assert result.evals_used == 10
        assert math.isfinite(result.trace[-1])

    @pytest.mark.parametrize("budget, exhausted", [(30, False), (29, True)])
    def test_cap_is_the_lesser_of_max_evals_and_the_objective(self, budget, exhausted):
        # an objective holding exactly max_evals is not a short objective
        obj = make_objective("rastrigin", 5, budget=budget)
        result = nelder_mead(obj, [1.0] * 5, max_evals=30)
        assert result.budget_exhausted is exhausted
        assert obj.meter == result.evals_used == budget

    def test_no_evaluations_possible_raises(self):
        obj = make_objective("sphere", 2, budget=0)
        with pytest.raises(BudgetExhausted):
            nelder_mead(obj, [0.0, 0.0], max_evals=10)

    def test_restart_recovers_from_face_collapse(self):
        # Optimum outside the box along dim 0 pushes every vertex onto
        # the x0 = -5 face; the simplex flattens there and the single
        # restart must fire to keep the other coordinate improving.
        def fn(x):
            return float((x[0] + 6.0) ** 2 + (x[1] - 1.0) ** 2)

        obj = Objective(fn, np.full(2, -5.0), np.full(2, 5.0), budget=4000)
        result = nelder_mead(obj, [3.0, -3.0], max_evals=3000)
        assert result.restarts == 1
        assert result.trace[-1] == pytest.approx(1.0, abs=1e-6)
        assert result.point[0] == pytest.approx(-5.0, abs=1e-7)

    @given(
        cx=st.floats(min_value=-4.0, max_value=4.0),
        cy=st.floats(min_value=-4.0, max_value=4.0),
        x0=st.floats(min_value=-5.0, max_value=5.0),
        y0=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_quadratic_always_improves_feasibly(self, cx, cy, x0, y0):
        center = np.array([cx, cy])

        def fn(x):
            return float(np.sum((x - center) ** 2))

        obj = Objective(fn, np.full(2, -5.0), np.full(2, 5.0), budget=10**4)
        start = np.array([x0, y0])
        result = nelder_mead(obj, start, max_evals=200)
        assert result.trace[-1] <= fn(start) + 1e-15
        assert np.all(result.point >= -5.0) and np.all(result.point <= 5.0)


# =============================================================================
# Budget split arithmetic
# =============================================================================


class TestBudgetSplit:
    def test_five_percent_of_1e5(self):
        main, reserve = refine_budget_split(10**5, 0.05)
        assert reserve == 5000
        assert main == 95000

    def test_ceil_rounding(self):
        main, reserve = refine_budget_split(1001, 0.05)
        assert reserve == math.ceil(0.05 * 1001) == 51
        assert main + reserve == 1001

    def test_tiny_budget_keeps_one_for_the_global_stage(self):
        main, reserve = refine_budget_split(1, 0.5)
        assert main == 1
        assert reserve == 0

    @given(
        budget=st.integers(min_value=1, max_value=10**6),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_reserve_is_the_ceiling_short_of_the_whole_budget(self, budget, fraction):
        # refine_run reads its reserve from here: once the global stage has
        # spent anything, min(reserve, remaining) equals the old
        # min(ceil(fraction * budget), remaining)
        main, reserve = refine_budget_split(budget, fraction)
        assert reserve == min(math.ceil(fraction * budget), budget - 1)
        assert main + reserve == budget

    def test_numpy_arguments_computed_as_python_numbers(self):
        # float32(0.05) is a shade above 0.05, so its double reserves 101
        fraction = np.float32(0.05)
        assert refine_budget_split(2000, fraction) == (1899, 101)
        assert refine_budget_split(2000, float(fraction)) == (1899, 101)
        main, reserve = refine_budget_split(np.int64(2000), 0.05)
        assert (type(main), type(reserve)) == (int, int)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            refine_budget_split(100, 0.0)
        with pytest.raises(ValueError):
            refine_budget_split(100, 1.0)
        with pytest.raises(ValueError):
            refine_budget_split(0, 0.5)

    @pytest.mark.parametrize(
        "fraction", [Fraction(1, 10**400), Fraction(10**400 - 1, 10**400)]
    )
    def test_fraction_that_rounds_onto_the_boundary_rejected(self, fraction):
        # inside (0, 1) as a Fraction, but its float is 0.0 or 1.0
        with pytest.raises(ValueError):
            refine_budget_split(1000, fraction)


# =============================================================================
# Hybrid driver
# =============================================================================


def hybrid(function, dim, budget, fraction=0.05):
    objective = make_objective(function, dim, budget)
    main, _ = refine_budget_split(budget, fraction)
    first = run_soo(objective, main)
    return first, refine_run(first, objective, fraction), objective


class TestRefineRun:
    def test_monotone_merge(self):
        first, merged, _ = hybrid("rastrigin", 2, 2000)
        assert merged.best_value <= first.best_value

    def test_budget_split_exactness(self):
        budget, fraction = 2000, 0.05
        first, merged, objective = hybrid("griewank", 3, budget, fraction)
        assert first.evals_used <= (1.0 - fraction) * budget
        assert merged.evals_used - first.evals_used <= math.ceil(fraction * budget)
        assert merged.evals_used <= budget
        assert objective.meter == merged.evals_used

    def test_trace_concatenates_and_stays_monotone(self):
        first, merged, _ = hybrid("ackley", 2, 1500)
        merged.check()
        assert merged.trace[: len(first.trace)] == first.trace
        assert merged.trace[-1] == merged.best_value

    def test_refinement_polishes_smooth_convex(self):
        # From any start with a gap <= 1, the refiner must reach 1e-6
        # within 100 * D evaluations on the smooth convex members.
        for name in ("sphere", "ellipsoid"):
            dim = 5
            obj = make_objective(name, dim, budget=100 * dim)
            start = obj.optimum_point + 0.3 / math.sqrt(dim)
            assert obj.raw(start) - obj.optimum_value <= 1.0
            result = nelder_mead(obj, start, max_evals=100 * dim)
            assert result.trace[-1] - obj.optimum_value <= 1e-6

    def test_fraction_validated(self):
        obj = make_objective("sphere", 2, budget=100)
        result = run_soo(obj, 50)
        with pytest.raises(ValueError):
            refine_run(result, obj, 1.5)

    @pytest.mark.parametrize("fraction", ["0.5", True, math.nan, np.float64(1.0)])
    def test_non_fraction_rejected_before_any_evaluation(self, fraction):
        result = run_soo(make_objective("sphere", 2, budget=60), 50)
        obj = make_objective("sphere", 2, budget=60)
        with pytest.raises(ValueError, match="fraction"):
            refine_run(result, obj, fraction)
        assert obj.meter == 0

    def test_budget_zero_objective_rejected(self):
        # the reserve comes from refine_budget_split, which needs budget >= 1
        result = run_soo(make_objective("sphere", 2, budget=60), 50)
        with pytest.raises(ValueError, match="budget"):
            refine_run(result, make_objective("sphere", 2, budget=0), 0.5)

    def test_skipped_when_reserve_cannot_seed_simplex(self):
        obj = make_objective("sphere", 4, budget=100)
        result = run_soo(obj, 97)
        merged = refine_run(result, obj, 0.03)  # reserve 3 < dim + 1
        assert merged is result

    def test_worse_refinement_keeps_original_incumbent(self):
        # A refiner given a deceptive landscape may fail to improve; the
        # merge must then keep the original point and value verbatim.
        obj = make_objective("rastrigin", 2, budget=1000)
        first = run_soo(obj, 900)
        merged = refine_run(first, obj, 0.1)
        assert merged.best_value <= first.best_value
        if merged.best_value == first.best_value:
            assert np.array_equal(merged.best_point, first.best_point)
