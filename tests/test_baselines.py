"""Tests for UCB selection, the bandit runner, and the box-domain baselines."""

import itertools
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soobox import (
    ArmStats,
    BudgetExhausted,
    Objective,
    UnpulledArm,
    bernoulli_arms,
    make_objective,
    run_random_search,
    run_ucb,
    run_ucb_grid,
    ucb_select,
)
from soobox.baselines import BLOCK, GRID_ARM_CAP, grid_divisions
from soobox.objectives import check_exploration
from soobox.result import TraceRecorder

# =============================================================================
# Arm statistics
# =============================================================================


class TestArmStats:
    def test_pulls_sum_to_rounds(self):
        stats = ArmStats(3)
        for arm, reward in [(0, 1.0), (2, 0.5), (0, 0.0), (1, 0.25)]:
            stats.update(arm, reward)
        assert sum(stats.pulls) == stats.t == 4

    def test_means_are_exact_running_averages(self):
        stats = ArmStats(1)
        rewards = [0.1, 0.7, 0.3, 0.9, 0.2]
        for r in rewards:
            stats.update(0, r)
        # same left-to-right accumulation, so equality is exact
        assert stats.means == [sum(rewards) / len(rewards)]

    def test_unpulled_mean_is_nan_in_bulk_view(self):
        stats = ArmStats(2)
        stats.update(0, 1.0)
        assert stats.means[0] == 1.0
        assert math.isnan(stats.means[1])

    def test_bad_arm_counts_rejected(self):
        with pytest.raises(ValueError):
            ArmStats(0)
        stats = ArmStats(2)
        with pytest.raises(ValueError):
            stats.update(2, 1.0)

    @pytest.mark.parametrize(
        "reward", [None, "2.5", True, [1.0], pytest.param(10**400, id="10**400")]
    )
    def test_bad_reward_changes_nothing(self, reward):
        stats = ArmStats(2)
        stats.update(1, 0.5)
        with pytest.raises(ValueError):
            stats.update(0, reward)
        assert stats.pulls.tolist() == [0, 1] and stats.t == 1
        assert math.isnan(stats.means[0]) and stats.means[1] == 0.5

    def test_non_finite_rewards_are_recorded(self):
        stats = ArmStats(3)
        for arm, reward in enumerate([math.nan, math.inf, -math.inf]):
            stats.update(arm, reward)
        assert stats.t == 3 and stats.pulls.tolist() == [1, 1, 1]
        assert math.isnan(stats.means[0])
        assert stats.means[1:] == [math.inf, -math.inf]

    @pytest.mark.parametrize("first, second", [(math.inf, -math.inf), (-math.inf, math.inf)])
    def test_opposite_infinities_sum_to_nan_without_warning(self, first, second):
        # the suite turns warnings into errors, so a warning here would
        # also fail the update after its pull was counted
        stats = ArmStats(2)
        assert stats.update(0, first) == first
        assert stats.update(0, second) == second
        assert stats.pulls.tolist() == [2, 0] and stats.t == 2
        assert math.isnan(stats.means[0])


# =============================================================================
# UCB selection rule
# =============================================================================


def stats_from(means_and_pulls):
    stats = ArmStats(len(means_and_pulls))
    for arm, (mean, pulls) in enumerate(means_and_pulls):
        for _ in range(pulls):
            stats.update(arm, mean)
    return stats


class TestUcbSelect:
    def test_worked_example_prefers_less_pulled_arm(self):
        # Means 0.3 (5 pulls) vs 0.4 (10 pulls) at t=15: the exploration
        # bonus overturns the mean ordering.
        stats = stats_from([(0.3, 5), (0.4, 10)])
        assert stats.t == 15
        assert ucb_select(stats, c=2.0) == 0
        b0 = 0.3 + math.sqrt(2.0 * math.log(15) / 5)
        b1 = 0.4 + math.sqrt(2.0 * math.log(15) / 10)
        assert b0 == pytest.approx(1.3408, abs=1e-4)
        assert b1 == pytest.approx(1.1360, abs=1e-4)

    def test_identical_arms_tie_to_index_zero(self):
        stats = stats_from([(0.5, 4), (0.5, 4), (0.5, 4)])
        assert ucb_select(stats) == 0

    def test_single_arm(self):
        stats = stats_from([(0.2, 3)])
        assert ucb_select(stats) == 0

    @pytest.mark.parametrize("mean", [math.nan, -math.inf])
    def test_no_score_above_minus_inf_picks_arm_zero(self, mean):
        # an objective value of NaN or +inf leaves a reward mean of NaN or -inf
        assert ucb_select(stats_from([(mean, 2)])) == 0
        assert ucb_select(stats_from([(mean, 1), (-math.inf, 3)])) == 0

    def test_single_arm_grid_survives_an_infinite_value(self):
        obj = Objective(lambda x: math.inf, np.zeros(2), np.ones(2), budget=5)
        result = run_ucb_grid(obj, 5, resolution=1)
        assert obj.meter == result.evals_used == len(result.trace) == 5

    def test_unpulled_arm_rejected(self):
        stats = ArmStats(2)
        stats.update(0, 1.0)
        with pytest.raises(UnpulledArm):
            ucb_select(stats)
        with pytest.raises(UnpulledArm):
            ucb_select(ArmStats(1))

    def test_unpulled_arm_named_until_every_arm_is_pulled(self):
        # update counts the arms with no pull; the error names the first
        stats = ArmStats(3)
        for arm, first_unpulled in [(1, 0), (1, 0), (0, 2)]:
            stats.update(arm, 0.5)
            with pytest.raises(UnpulledArm, match=f"arm {first_unpulled} "):
                ucb_select(stats)
        stats.update(2, 0.25)
        assert ucb_select(stats) in (0, 1, 2)

    def test_argmax_invariant_under_mean_shift(self):
        base = stats_from([(0.3, 5), (0.4, 10), (0.1, 2)])
        shifted = stats_from([(10.3, 5), (10.4, 10), (10.1, 2)])
        assert ucb_select(base) == ucb_select(shifted)

    def test_smaller_constant_explores_less(self):
        stats = stats_from([(0.3, 5), (0.4, 10)])
        assert ucb_select(stats, c=2.0) == 0
        assert ucb_select(stats, c=0.01) == 1  # bonus nearly gone

    @pytest.mark.parametrize("c", [-1.0, math.nan, math.inf])
    def test_bad_constant_rejected(self, c):
        # from the first round on, where ln t = 0 used to hide a negative c
        for stats in (stats_from([(0.3, 1)]), stats_from([(0.3, 5), (0.4, 10)])):
            with pytest.raises(ValueError, match="c must be finite and >= 0"):
                ucb_select(stats, c)
        # the runners check before the first pull, even with no UCB round
        with pytest.raises(ValueError, match="c must be finite and >= 0"):
            run_ucb([lambda: 0.2, lambda: 0.8], horizon=2, c=c)
        obj = make_objective("sphere", 2, budget=4)
        with pytest.raises(ValueError, match="c must be finite and >= 0"):
            run_ucb_grid(obj, 4, c=c)
        assert obj.meter == 0


    def test_constant_beyond_the_float_range_is_not_a_real_number(self):
        # an int whose float would overflow fails check_real's rule, with
        # its message, before the range check
        with pytest.raises(ValueError, match="c must be a real number"):
            check_exploration(10**400)
        with pytest.raises(ValueError, match="c must be a real number"):
            ucb_select(stats_from([(0.3, 1)]), 10**400)


def reference_ucb_select(stats, c):
    """The scalar selection loop ucb_select replaced: strict > from -inf."""
    log_t = math.log(stats.t)
    best_arm = 0
    best_score = -math.inf
    for arm, (s, n) in enumerate(zip(stats._sums.tolist(), stats.pulls.tolist())):
        score = s / n + math.sqrt(c * log_t / n)
        if score > best_score:
            best_score = score
            best_arm = arm
    return best_arm


REWARD_SUMS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, math.nan, math.inf, -math.inf]),
)
ARMS = st.tuples(REWARD_SUMS, st.integers(1, 1000))
# the largest c makes the bonus +inf once c * ln t overflows
EXPLORATION = st.sampled_from([0.0, 0.01, 2.0, sys.float_info.max])


@st.composite
def pulled_stats(draw):
    """ArmStats with every arm pulled; arms repeat from a small pool for ties."""
    pool = draw(st.lists(ARMS, min_size=1, max_size=4))
    arms = draw(
        st.lists(st.one_of(st.sampled_from(pool), ARMS), min_size=1, max_size=800)
    )
    stats = ArmStats(len(arms))
    # the private arrays, before the first pick builds the groups from them:
    # `pulls` is a read-only view; every arm has a pull, so none is unpulled
    for arm, (total, pulls) in enumerate(arms):
        stats._sums[arm] = total
        stats._pulls[arm] = pulls
    stats.t = sum(pulls for _, pulls in arms)
    stats._unpulled = 0
    return stats


class TestUcbSelectOracle:
    @given(stats=pulled_stats(), c=EXPLORATION)
    @settings(max_examples=300, deadline=None)
    def test_vector_rule_picks_the_scalar_loops_arm(self, stats, c):
        assert ucb_select(stats, c) == reference_ucb_select(stats, c)

    @given(
        stats=pulled_stats(),
        c=EXPLORATION,
        rewards=st.lists(
            st.floats(-1e6, 1e6) | st.sampled_from([math.nan, math.inf, -math.inf]),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_kernel_steps_with_the_scalar_loop(self, stats, c, rewards):
        # run_ucb_grid's loop, ucb_arm then update, against ucb_select and the
        # scalar loop at every pull, as sums drift into ties, NaN and +/-inf
        for reward in rewards:
            arm = stats.ucb_arm(c)
            assert arm == ucb_select(stats, c) == reference_ucb_select(stats, c)
            stats.update(arm, reward)


class TestUcbKernelEdges:
    """Deterministic cases for the grouped kernel, each against the scalar loop."""

    @staticmethod
    def pick(stats, c):
        arm = ucb_select(stats, c)
        assert arm == reference_ucb_select(stats, c)
        return arm

    @pytest.mark.parametrize("low_first", [True, False])
    def test_means_one_ulp_apart_round_to_one_score(self, low_first):
        # one pull each, so one group; a bonus of about 1,050 rounds both
        # means, one ulp apart, to the same score, and the smaller index wins
        low, high = 0.3, math.nextafter(0.3, math.inf)
        means = [low, high] if low_first else [high, low]
        stats = stats_from([(means[0], 1), (means[1], 1), (0.0, 1)])
        c = 1e6
        bonus = math.sqrt(c * math.log(3) / 1)
        assert low + bonus == high + bonus
        assert self.pick(stats, c) == 0

    def test_a_tie_behind_a_run_of_equal_means(self):
        # arms 1 to 3 share the top mean; arm 0, one ulp lower, ties with
        # them after rounding and wins; arm 4 is far below
        top = 0.3
        below = math.nextafter(top, -math.inf)
        stats = stats_from([(below, 1), (top, 1), (top, 1), (top, 1), (-50.0, 1)])
        assert self.pick(stats, 1e6) == 0

    @pytest.mark.parametrize(
        "layout, expected",
        [
            (["four", "one"], 0),
            (["one", "four"], 0),
            # the group scored first holds the tied leader with the larger index
            (["low", "four", "one"], 1),
        ],
    )
    def test_equal_leader_scores_tie_to_the_smaller_index(self, layout, expected):
        # a leader with 4 pulls and one with 1 pull, whose mean is chosen so
        # that both scores are the same float
        c, t = 2.0, 5 + layout.count("low")
        score = 0.25 + math.sqrt(c * math.log(t) / 4)
        mean = score - math.sqrt(c * math.log(t) / 1)
        assert mean + math.sqrt(c * math.log(t) / 1) == score
        arms = {"four": (0.25, 4), "one": (mean, 1), "low": (-5.0, 1)}
        stats = stats_from([arms[name] for name in layout])
        assert stats.t == t
        assert self.pick(stats, c) == expected

    def test_infinite_bonus(self):
        # c * ln t overflows to +inf once t >= 3: every score is +inf but a
        # -inf mean's, which is NaN and never wins
        c = sys.float_info.max
        assert self.pick(stats_from([(-math.inf, 1), (0.0, 1), (5.0, 2)]), c) == 1
        assert self.pick(stats_from([(-math.inf, 2), (-math.inf, 1), (1.0, 3)]), c) == 2
        # every score NaN: arm 0
        assert self.pick(stats_from([(-math.inf, 1), (-math.inf, 2)]), c) == 0

    def test_pulls_are_read_only(self):
        stats = stats_from([(0.5, 2), (0.1, 1)])
        with pytest.raises(ValueError):
            stats.pulls[0] = 1
        assert stats.pulls.tolist() == [2, 1]
        assert ucb_select(stats) == reference_ucb_select(stats, 2.0)


# =============================================================================
# Bandit runner
# =============================================================================


class TestRunUcb:
    def test_initialization_covers_each_arm_in_order(self):
        run = run_ucb([lambda: 0.2, lambda: 0.8, lambda: 0.5], horizon=3)
        assert [arm for arm, _ in run.history] == [0, 1, 2]

    def test_single_arm_takes_every_pull(self):
        run = run_ucb([lambda: 0.3], horizon=20)
        assert run.stats.pulls.tolist() == [20]

    def test_deterministic_arms_recommend_the_best(self):
        run = run_ucb([lambda: 0.2, lambda: 0.8], horizon=50)
        assert run.stats.pulls[1] > run.stats.pulls[0]
        assert len(run.history) == 50
        assert sum(run.stats.pulls) == 50

    @pytest.mark.parametrize("reward", ["2.5", True, None])
    def test_reward_checked_before_it_is_recorded(self, reward):
        with pytest.raises(ValueError, match="reward must be a real number"):
            run_ucb([lambda: 0.5, lambda: reward], horizon=4)

    def test_history_records_the_checked_float(self):
        run = run_ucb([lambda: 1, lambda: np.float32(0.5)], horizon=2)
        assert run.history == [(0, 1.0), (1, 0.5)]
        assert all(type(reward) is float for _, reward in run.history)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_seeded_history_matches_a_float_loop(self, seed):
        # the loop before rewards were checked by update, which called float()
        sources = bernoulli_arms([0.9, 0.1, 0.5], seed=seed)
        stats, history = ArmStats(3), []
        for _ in range(300):
            arm = stats.t if stats.t < 3 else ucb_select(stats)
            reward = float(sources[arm]())
            stats.update(arm, reward)
            history.append((arm, reward))
        run = run_ucb(bernoulli_arms([0.9, 0.1, 0.5], seed=seed), horizon=300)
        assert run.history == history

    def test_horizon_below_arm_count_rejected(self):
        with pytest.raises(ValueError):
            run_ucb([lambda: 0.1, lambda: 0.2], horizon=1)

    @pytest.mark.parametrize(
        "p",
        [2.0, -1, math.nan, math.inf, -0.5, "x", None, True,
         pytest.param(10**400, id="10**400")],
    )
    def test_bernoulli_probability_checked_when_built(self, p):
        with pytest.raises(ValueError):
            bernoulli_arms([0.5, p], seed=0)

    def test_bernoulli_probability_bounds_are_valid(self):
        arms = bernoulli_arms([0, 1.0, np.float32(0.5)], seed=0)
        assert [arm() for arm in arms[:2]] == [0.0, 1.0]

    def test_bernoulli_reproducible_per_seed(self):
        a = run_ucb(bernoulli_arms([0.9, 0.1], seed=5), horizon=500)
        b = run_ucb(bernoulli_arms([0.9, 0.1], seed=5), horizon=500)
        assert a.history == b.history

    def test_good_arm_dominates_pulls(self):
        run = run_ucb(bernoulli_arms([0.9, 0.1], seed=0), horizon=1000)
        assert run.stats.pulls[1] < 100

    def test_suboptimal_pulls_grow_slowly(self):
        # Median suboptimal pulls at T=1e4 stays under 3x the median at
        # T=1e2 plus 50; a crude but testable stand-in for log growth.
        def median_bad_pulls(horizon):
            counts = []
            for seed in range(20):
                run = run_ucb(bernoulli_arms([0.9, 0.1], seed=seed), horizon)
                counts.append(run.stats.pulls[1])
            return statistics.median(counts)

        assert median_bad_pulls(10**4) < 3 * median_bad_pulls(10**2) + 50


# =============================================================================
# Random search
# =============================================================================


class TestRandomSearch:
    def test_budget_one_single_point_trace(self):
        obj = make_objective("sphere", 2, budget=10)
        result = run_random_search(obj, budget=1, seed=3)
        assert result.evals_used == 1
        assert result.trace == [result.best_value]

    def test_same_seed_identical_result(self):
        r1 = run_random_search(make_objective("ackley", 3, budget=500), 500, seed=9)
        r2 = run_random_search(make_objective("ackley", 3, budget=500), 500, seed=9)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.best_point, r2.best_point)

    def test_different_seeds_differ(self):
        r1 = run_random_search(make_objective("sphere", 2, budget=50), 50, seed=0)
        r2 = run_random_search(make_objective("sphere", 2, budget=50), 50, seed=1)
        assert r1.trace != r2.trace

    def test_trace_contract_holds(self):
        result = run_random_search(make_objective("griewank", 4, budget=300), 300, seed=2)
        result.check()

    def test_points_stay_in_box_and_meter_matches(self):
        obj = make_objective("rastrigin", 2, budget=100)
        result = run_random_search(obj, 100, seed=1)
        assert obj.meter == result.evals_used == 100

    def test_stops_early_when_objective_runs_dry(self):
        obj = make_objective("sphere", 2, budget=7)
        result = run_random_search(obj, budget=50, seed=0)
        assert result.evals_used == 7

    def test_bad_budget_rejected(self):
        obj = make_objective("sphere", 2, budget=10)
        with pytest.raises(ValueError):
            run_random_search(obj, 0, seed=0)

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda obj: run_random_search(obj, 5, seed=0), id="random"),
            pytest.param(lambda obj: run_ucb_grid(obj, 5), id="ucb-grid"),
        ],
    )
    def test_spent_objective_raises_without_metering(self, run):
        obj = make_objective("sphere", 2, budget=3)
        obj.evaluate_batch(np.zeros((3, 2)))
        with pytest.raises(BudgetExhausted):
            run(obj)
        assert obj.meter == 3

    @pytest.mark.parametrize(
        "budget, objective_budget",
        [(1, 1), (1023, 1023), (1024, 1024), (1025, 1025), (3000, 3000), (3000, 1500)],
    )
    def test_blocks_match_per_point_draws(self, budget, objective_budget):
        # the reference draws and evaluates one point at a time
        reference = make_objective("rastrigin", 3, budget=objective_budget)
        rng = np.random.default_rng(4)
        trace = TraceRecorder()
        for _ in range(budget):
            if reference.remaining < 1:
                break
            x = rng.uniform(reference.lower, reference.upper)
            trace.record(reference.evaluate(x), x)

        obj = make_objective("rastrigin", 3, budget=objective_budget)
        result = run_random_search(obj, budget, seed=4)
        assert result.trace == trace.entries
        assert result.best_point.tobytes() == trace.incumbent.tobytes()
        assert result.evals_used == len(trace.entries) == min(budget, objective_budget)
        assert obj.meter == reference.meter

    def test_raising_evaluation_meters_nothing_of_its_block(self):
        calls = 0

        def fn(x):
            nonlocal calls
            calls += 1
            if calls == 1500:
                raise RuntimeError("injected")
            return float(x.sum())

        obj = Objective(fn, -np.ones(2), np.ones(2), budget=3000)
        with pytest.raises(RuntimeError, match="injected"):
            run_random_search(obj, 3000, seed=0)
        assert obj.meter == 1024


# =============================================================================
# UCB over a grid of cell centers
# =============================================================================


class TestUcbGrid:
    def test_division_counts_respect_cap(self):
        assert grid_divisions(2, 3) == [3, 3]
        assert grid_divisions(6, 3) == [3] * 6
        assert grid_divisions(8, 3) == [3] * 6 + [1, 1]
        assert grid_divisions(3, 1) == [1, 1, 1]
        assert grid_divisions(1, 9) == [9]

    def test_resolution_zero_rejected(self):
        with pytest.raises(ValueError):
            grid_divisions(2, 0)
    def test_finds_best_center_once_all_arms_pulled(self):
        obj = make_objective("sphere", 2, budget=200)
        result = run_ucb_grid(obj, budget=100, resolution=3)
        probe = make_objective("sphere", 2, budget=0)
        width = 10.0 / 3.0
        centers = [
            np.array([-5.0 + (i + 0.5) * width, -5.0 + (j + 0.5) * width])
            for i in range(3)
            for j in range(3)
        ]
        assert result.best_value == min(probe.raw(c) for c in centers)

    def test_budget_respected_exactly(self):
        obj = make_objective("ackley", 2, budget=500)
        result = run_ucb_grid(obj, budget=77)
        assert result.evals_used == 77
        assert obj.meter == 77

    def test_budget_below_arm_count_truncates_initialization(self):
        obj = make_objective("sphere", 2, budget=100)
        result = run_ucb_grid(obj, budget=4, resolution=3)
        assert result.evals_used == 4

    def test_deterministic(self):
        r1 = run_ucb_grid(make_objective("griewank", 2, budget=150), 150)
        r2 = run_ucb_grid(make_objective("griewank", 2, budget=150), 150)
        assert r1.trace == r2.trace

    def test_trace_contract_holds(self):
        result = run_ucb_grid(make_objective("rastrigin", 3, budget=120), 120)
        result.check()

    @pytest.mark.parametrize("fault", ["raise", "nan"])
    def test_fault_in_the_second_schedule_block(self, fault):
        # 9 arms, then schedule blocks of BLOCK pulls; call k is in the second
        arms, calls, k = 9, 0, 9 + BLOCK + 5

        def fn(x):
            nonlocal calls
            calls += 1
            if calls == k:
                if fault == "raise":
                    raise RuntimeError("injected")
                return math.nan
            return float(np.sum(x * x))

        obj = Objective(fn, -np.ones(2), np.ones(2), budget=3000)
        if fault == "raise":
            with pytest.raises(RuntimeError, match="injected"):
                run_ucb_grid(obj, 3000, resolution=3)
            assert obj.meter == arms + BLOCK
            return
        result = run_ucb_grid(obj, 3000, resolution=3)
        assert obj.meter == result.evals_used == len(result.trace) == 3000
        result.check()  # monotone: the NaN value never becomes the incumbent
        assert math.isfinite(result.best_value)


class RecordingObjective(Objective):
    """An objective that records every point its per-point fn receives.

    Values are squared distances scaled to about [0, 1], as UCB's bonus is,
    and rounded to 0.1 so that centers tie; NaN where the first coordinate
    is low and +inf where the last is high.  Given `value`, every center
    has that value instead, so every arm ties."""

    def __init__(self, dim: int, budget: int, value: float | None = None):
        self.seen = []

        def fn(x):
            self.seen.append(x.copy())
            if value is not None:
                return value
            if x[0] < -3.0:
                return math.nan
            if x[-1] > 3.0:
                return math.inf
            return float(np.round(np.sum((x - 0.5) ** 2) / (25.0 * dim), 1))

        super().__init__(fn, np.full(dim, -5.0), np.full(dim, 5.0), budget)


def reference_ucb_grid(objective, budget, resolution, c=2.0):
    """The per-pull loop: one Objective.evaluate per pull, each arm once in
    index order, then the scalar selection loop, every reward from the
    pull's own value."""
    axes = []
    for j, m in enumerate(grid_divisions(objective.dim, resolution)):
        width = (objective.upper[j] - objective.lower[j]) / m
        axes.append([objective.lower[j] + (i + 0.5) * width for i in range(m)])
    centers = [np.array(point) for point in itertools.product(*axes)]
    stats, trace = ArmStats(len(centers)), TraceRecorder()
    for _ in range(min(budget, objective.remaining)):
        arm = stats.t if stats.t < stats.n_arms else reference_ucb_select(stats, c)
        value = objective.evaluate(centers[arm])
        stats.update(arm, -value)
        trace.record(value, centers[arm])
    return trace


def grid_oracle_cases():
    for resolution, dim in itertools.product([1, 2, 3], [1, 2, 5, 10]):
        arms = math.prod(grid_divisions(dim, resolution))
        for extra in (-1, 0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
            if arms + extra >= 1:
                yield resolution, dim, arms + extra, arms + extra, None
    yield 3, 2, 3000, 1500, None  # the objective's budget is the cap
    # 729 equal rewards: every pick ties across a whole pull-count group
    budget = GRID_ARM_CAP + 2 * BLOCK + 1
    yield 3, 6, budget, budget, 0.25


class TestUcbGridSequenceOracle:
    @pytest.mark.parametrize(
        "resolution, dim, budget, objective_budget, value", grid_oracle_cases()
    )
    def test_block_pulls_evaluate_the_per_pull_sequence(
        self, resolution, dim, budget, objective_budget, value
    ):
        reference = RecordingObjective(dim, objective_budget, value)
        trace = reference_ucb_grid(reference, budget, resolution)
        obj = RecordingObjective(dim, objective_budget, value)
        result = run_ucb_grid(obj, budget, resolution)
        assert np.array_equal(np.array(obj.seen), np.array(reference.seen))
        # as bytes, so that NaN entries compare equal
        assert np.array(result.trace).tobytes() == np.array(trace.entries).tobytes()
        assert result.best_point.tobytes() == trace.incumbent.tobytes()
        assert obj.meter == reference.meter == min(budget, objective_budget)
