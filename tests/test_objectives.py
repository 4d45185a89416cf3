"""Tests for the benchmark suite and the metered objective wrapper."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soobox import (
    ArmStats,
    BadDimension,
    BudgetExhausted,
    DepthSchedule,
    InvalidBounds,
    Objective,
    OutOfBounds,
    PartitionTree,
    RunLedger,
    SUITE_NAMES,
    SooParams,
    UnknownFunction,
    bernoulli_arms,
    make_objective,
    max_depth,
    nelder_mead,
    new_tree,
    refine_budget_split,
    refine_run,
    run_random_search,
    run_soo,
    run_ucb,
    run_ucb_grid,
    shift_from_seed,
    suite_manifest,
    transformed,
)
from soobox.baselines import grid_divisions
from soobox.objectives import check_real

# =============================================================================
# Suite structure
# =============================================================================


class TestSuiteStructure:
    """Names, ordering, and the 100 x index bias convention."""

    def test_suite_has_eight_functions(self):
        assert len(SUITE_NAMES) == 8

    def test_bias_is_100_times_position(self):
        for pos, name in enumerate(SUITE_NAMES, start=1):
            dim = 2 if name == "rosenbrock" else 1
            obj = make_objective(name, dim, budget=10)
            assert obj.optimum_value == 100.0 * pos
            assert obj.evaluate(obj.optimum_point) == 100.0 * pos

    def test_box_is_plus_minus_five(self):
        obj = make_objective("sphere", 3, budget=1)
        assert np.array_equal(obj.lower, [-5.0, -5.0, -5.0])
        assert np.array_equal(obj.upper, [5.0, 5.0, 5.0])

    def test_ackley_known_optimum_example(self):
        obj = make_objective("ackley", 10, budget=1)
        assert obj.optimum_value == 500.0
        assert obj.optimum_point.shape == (10,)
        assert np.array_equal(obj.optimum_point, shift_from_seed(0, 10))

    def test_composite_bias_is_800(self):
        obj = make_objective("composite3", 2, budget=1)
        assert obj.optimum_value == 800.0

    def test_unknown_function_rejected(self):
        with pytest.raises(UnknownFunction):
            make_objective("banana", 2, budget=10)

    def test_rosenbrock_needs_two_dims(self):
        with pytest.raises(BadDimension):
            make_objective("rosenbrock", 1, budget=10)
        make_objective("rosenbrock", 2, budget=10)

    def test_dim_zero_rejected(self):
        with pytest.raises(BadDimension):
            make_objective("sphere", 0, budget=10)
        with pytest.raises(BadDimension):
            shift_from_seed(0, 0)

    @pytest.mark.parametrize("dim", [2.5, 2.0, np.float64(3.0), True])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(BadDimension):
            make_objective("sphere", dim, budget=10)
        with pytest.raises(BadDimension):
            shift_from_seed(0, dim)


# =============================================================================
# Optimum exactness
# =============================================================================


class TestOptimumExactness:
    """f(x*) must land on the bias to within 1e-12 relative, every function."""

    @pytest.mark.parametrize("name", SUITE_NAMES)
    @pytest.mark.parametrize("dim", [2, 10])
    def test_value_at_optimum(self, name, dim):
        obj = make_objective(name, dim, budget=1)
        value = obj.evaluate(obj.optimum_point)
        assert value == pytest.approx(obj.optimum_value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_value_at_optimum_is_bit_exact(self, name):
        # The construction is engineered so g(0) == 0.0 in doubles, not
        # merely close; a regression here silently degrades every ratio.
        obj = make_objective(name, 2, budget=1)
        assert obj.evaluate(obj.optimum_point) == obj.optimum_value

    def test_shifted_sphere_worked_example(self):
        # 0.3 off the seeded optimum in both coordinates: 100 + 2 * 0.09
        obj = make_objective("sphere", 2, budget=2)
        value = obj.evaluate(obj.optimum_point + 0.3)
        assert value == pytest.approx(100.18, rel=1e-12)
        assert obj.evaluate(obj.optimum_point) == 100.0
        assert obj.meter == 2

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_lower_bound_random_sweep(self, name):
        """10^5 uniform samples per dim in {2, 10} never dip below f*."""
        rng = np.random.default_rng(12345)
        for dim in (2, 10):
            if name == "rosenbrock" and dim < 2:
                continue
            obj = make_objective(name, dim, budget=10**5)
            samples = rng.uniform(-5.0, 5.0, size=(10**5, dim))
            f_star = obj.optimum_value
            assert all(value >= f_star for value in obj.evaluate_batch(samples))


# =============================================================================
# Metering
# =============================================================================


class TestMetering:
    """The budget meter advances only on successful evaluations."""

    def test_meter_counts_up(self):
        obj = make_objective("sphere", 2, budget=3)
        assert obj.remaining == 3
        obj.evaluate([0.0, 0.0])
        obj.evaluate([1.0, 1.0])
        assert obj.meter == 2
        assert obj.remaining == 1

    def test_exhaustion_raises_and_freezes_meter(self):
        obj = make_objective("sphere", 2, budget=1)
        obj.evaluate([0.0, 0.0])
        with pytest.raises(BudgetExhausted):
            obj.evaluate([0.0, 0.0])
        assert obj.meter == 1

    def test_out_of_bounds_rejected_without_metering(self):
        obj = make_objective("sphere", 2, budget=5)
        with pytest.raises(OutOfBounds):
            obj.evaluate([5.1, 0.0])
        with pytest.raises(OutOfBounds):
            obj.evaluate([0.0, -5.0000001])
        with pytest.raises(OutOfBounds):
            obj.evaluate([math.nan, 0.0])
        assert obj.meter == 0

    def test_boundary_points_are_inside(self):
        obj = make_objective("sphere", 2, budget=2)
        obj.evaluate([5.0, -5.0])
        assert obj.meter == 1

    def test_wrong_shape_rejected(self):
        obj = make_objective("sphere", 2, budget=5)
        with pytest.raises(ValueError):
            obj.evaluate([0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "point", [[1.0, 2.0, 3.0], [[0.5, 0.5], [0.5, 0.5]], [0.5], 0.5, {}, 10**400]
    )
    def test_raw_checks_the_point_as_evaluate_does(self, point):
        obj = Objective(np.sum, [0.0, 0.0], [1.0, 1.0], 5)
        with pytest.raises(ValueError):
            obj.raw(point)
        # a point of the right shape outside the box is still evaluated, unmetered
        assert obj.raw([3.0, 4.0]) == 7.0
        assert obj.meter == 0

    def test_budget_zero_allows_no_evaluations(self):
        obj = make_objective("sphere", 2, budget=0)
        with pytest.raises(BudgetExhausted):
            obj.evaluate([0.0, 0.0])

    def test_values_returned_verbatim(self):
        obj = Objective(lambda x: math.nan, [0.0], [1.0], budget=2)
        assert math.isnan(obj.evaluate([0.5]))
        assert obj.meter == 1

    def test_raising_function_is_not_metered(self):
        def fn(x):
            raise RuntimeError("boom")

        obj = Objective(fn, [0.0], [1.0], budget=2)
        with pytest.raises(RuntimeError):
            obj.evaluate([0.5])
        with pytest.raises(RuntimeError):
            obj.evaluate_batch([[0.5], [0.25]])
        assert obj.meter == 0


class TestEvaluateBatch:
    """One metered, bounds-checked, all-or-nothing step for a block of points."""

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_values_bit_identical_to_evaluate(self, name):
        rng = np.random.default_rng(7)
        points = rng.uniform(-5.0, 5.0, size=(6, 10))
        batch = make_objective(name, 10, budget=6)
        single = make_objective(name, 10, budget=6)
        assert batch.evaluate_batch(points) == [single.evaluate(p) for p in points]
        assert batch.meter == single.meter == 6
        # evaluate(x) is evaluate_batch(x[np.newaxis]) step by step: the same
        # value or exception type, and the same meter, on a face, outside the
        # box, with a NaN coordinate and once the budget is spent
        face, outside, nan = points[0].copy(), points[0].copy(), points[0].copy()
        face[1], outside[2], nan[3] = 5.0, -5.0000001, math.nan
        batch = make_objective(name, 10, budget=2)
        single = make_objective(name, 10, budget=2)

        def outcome(step, x):
            try:
                return float, step(x)
            except Exception as exc:
                return type(exc), None

        outcomes = []
        for x in (face, outside, nan, points[1], points[2]):
            one = outcome(single.evaluate, x)
            block = outcome(lambda x: batch.evaluate_batch(x[np.newaxis])[0], x)
            assert one == block and single.meter == batch.meter
            outcomes.append((one[0], single.meter))
        assert outcomes == [
            (float, 1), (OutOfBounds, 1), (OutOfBounds, 1),
            (float, 2), (BudgetExhausted, 2),
        ]

    def test_meter_advances_once_by_the_block(self):
        obj = make_objective("sphere", 2, budget=5)
        values = obj.evaluate_batch(np.zeros((3, 2)))
        assert len(values) == 3
        assert obj.meter == 3

    def test_block_beyond_budget_rejected_whole(self):
        obj = make_objective("sphere", 2, budget=2)
        obj.evaluate([0.0, 0.0])
        with pytest.raises(BudgetExhausted):
            obj.evaluate_batch(np.zeros((2, 2)))
        assert obj.meter == 1

    def test_one_bad_row_rejects_block_without_metering(self):
        obj = make_objective("sphere", 2, budget=5)
        for bad in ([5.1, 0.0], [0.0, -5.0000001], [math.nan, 0.0]):
            with pytest.raises(OutOfBounds):
                obj.evaluate_batch([[0.0, 0.0], bad])
        assert obj.meter == 0

    def test_failure_mid_block_meters_nothing(self):
        calls = []

        def fn(x):
            calls.append(float(x[0]))
            if len(calls) == 2:
                raise RuntimeError("boom")
            return float(x[0])

        obj = Objective(fn, [0.0], [1.0], budget=5)
        with pytest.raises(RuntimeError):
            obj.evaluate_batch([[0.1], [0.2], [0.3]])
        assert calls == [0.1, 0.2]
        assert obj.meter == 0

    def test_wrong_shape_rejected(self):
        obj = make_objective("sphere", 2, budget=5)
        for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError):
                obj.evaluate_batch(bad)
        assert obj.meter == 0

    def test_tiled_bounds_cache_stays_bounded(self):
        # one tiled pair, for the latest block size only
        obj = make_objective("sphere", 10, budget=10**6)
        for m in range(1, 401):
            obj.evaluate_batch(np.zeros((m, 10)))
        size, lower, upper = obj._tiled
        assert size == lower.size == upper.size == 4000
        meter = obj.meter
        for rows, bad in enumerate((5.1, -5.0000001, math.nan), start=2):
            x = np.zeros(10)
            x[3] = bad
            with pytest.raises(OutOfBounds):
                obj.evaluate(x)
            block = np.vstack([np.zeros((rows - 1, 10)), x])
            for _ in range(2):  # a block size not cached, then cached
                with pytest.raises(OutOfBounds):
                    obj.evaluate_batch(block)
        assert obj.meter == meter
        size, lower, upper = obj._tiled
        assert size == lower.size == upper.size == 40


class TestVectorized:
    """Objective(fn, ..., vectorized=True): fn maps an (m, D) block to m values."""

    def recording(self, calls, shift=0):
        """Block sphere that logs each block's shape; returns m + shift values."""

        def fn(points):
            calls.append(points.shape)
            values = (points * points).sum(axis=1)
            return np.resize(values, len(values) + shift)

        return fn

    def test_each_entry_point_hands_fn_one_block(self):
        calls = []
        obj = Objective(self.recording(calls), np.zeros(3), np.ones(3), 10,
                        vectorized=True)
        assert obj.evaluate([0.5, 0.5, 0.5]) == 0.75
        assert obj.evaluate_batch(np.full((4, 3), 0.5)) == [0.75] * 4
        assert obj.raw([0.5, 0.5, 0.5]) == 0.75
        assert calls == [(1, 3), (4, 3), (1, 3)]
        assert obj.meter == 5

    def test_values_come_back_as_python_floats(self):
        obj = Objective(lambda p: p.sum(axis=1), np.zeros(2), np.ones(2), 5,
                        vectorized=True)
        assert type(obj.evaluate([0.25, 0.5])) is float
        assert all(type(v) is float for v in obj.evaluate_batch(np.zeros((2, 2))))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_wrong_number_of_values_raises_without_metering(self, shift):
        obj = Objective(self.recording([], shift), np.zeros(3), np.ones(3), 10,
                        vectorized=True)
        with pytest.raises(ValueError):
            obj.evaluate([0.5, 0.5, 0.5])
        for m in (1, 3):
            with pytest.raises(ValueError):
                obj.evaluate_batch(np.full((m, 3), 0.5))
        with pytest.raises(ValueError):
            obj.raw([0.5, 0.5, 0.5])
        assert obj.meter == 0

    def test_column_of_values_is_not_m_values(self):
        obj = Objective(lambda p: p[:, :1], np.zeros(3), np.ones(3), 10,
                        vectorized=True)
        with pytest.raises(ValueError):
            obj.evaluate_batch(np.full((3, 3), 0.5))
        assert obj.meter == 0

    def test_raising_block_meters_nothing(self):
        def fn(points):
            if len(points) > 1:
                raise RuntimeError("boom")
            return points.sum(axis=1)

        obj = Objective(fn, np.zeros(2), np.ones(2), 10, vectorized=True)
        obj.evaluate([0.5, 0.5])
        with pytest.raises(RuntimeError):
            obj.evaluate_batch(np.zeros((3, 2)))
        assert obj.meter == 1

    def test_checks_run_before_any_call(self):
        calls = []
        obj = Objective(self.recording(calls), np.zeros(2), np.ones(2), 2,
                        vectorized=True)
        with pytest.raises(ValueError):
            obj.evaluate_batch(np.zeros((2, 3)))
        with pytest.raises(OutOfBounds):
            obj.evaluate_batch([[0.5, 0.5], [0.5, 1.5]])
        with pytest.raises(BudgetExhausted):
            obj.evaluate_batch(np.zeros((3, 2)))
        assert calls == []
        assert obj.meter == 0


# =============================================================================
# Block forms against the per-point reference
# =============================================================================

# The eight base functions as they were written per point, before the suite
# moved to (m, D) blocks.  They are the oracle: every block value must match
# them bit for bit.  Keep them verbatim.

_ST_ARGMIN = -2.903534027771177


def _st_poly(v):
    return (v ** 4 - 16.0 * v ** 2 + 5.0 * v) / 2.0


_ST_PERDIM_MIN = float(_st_poly(_ST_ARGMIN))


def _sphere(dim):
    def g(z):
        return float(np.dot(z, z))

    return g


def _ellipsoid(dim):
    w = np.arange(1.0, dim + 1.0)

    def g(z):
        return float(np.dot(w, z * z))

    return g


def _rosenbrock(dim):
    def g(z):
        w = z + 1.0
        a = w[1:] - w[:-1] ** 2
        b = 1.0 - w[:-1]
        return float((100.0 * a * a + b * b).sum())

    return g


def _rastrigin(dim):
    def g(z):
        return float(10.0 * dim + (z * z - 10.0 * np.cos(2.0 * np.pi * z)).sum())

    return g


def _ackley(dim):
    e1 = math.exp(1.0)

    def g(z):
        rms = math.sqrt(float((z * z).mean()))
        cos_mean = float(np.cos(2.0 * np.pi * z).mean())
        return (20.0 - 20.0 * math.exp(-0.2 * rms)) + (e1 - math.exp(cos_mean))

    return g


def _griewank(dim):
    root_index = np.sqrt(np.arange(1.0, dim + 1.0))

    def g(z):
        return float((z * z).sum() / 4000.0 + 1.0 - np.cos(z / root_index).prod())

    return g


def _styblinski_tang(dim):
    def g(z):
        v = z + _ST_ARGMIN
        return float((_st_poly(v) - _ST_PERDIM_MIN).sum())

    return g


def _composite3(dim):
    parts = (_sphere(dim), _rastrigin(dim), _ackley(dim))

    def g(z):
        return parts[0](z) + parts[1](z) + parts[2](z)

    return g


REFERENCE = {
    "sphere": _sphere,
    "ellipsoid": _ellipsoid,
    "rosenbrock": _rosenbrock,
    "rastrigin": _rastrigin,
    "ackley": _ackley,
    "griewank": _griewank,
    "styblinski_tang": _styblinski_tang,
    "composite3": _composite3,
}

# math.exp of a suite value overflows above ~709; 2^-20 scales exactly
TRANSFORMS = {
    "affine": lambda v: 2.0 * v + 7.0,
    "exp": lambda v: math.exp(v * 2.0**-20),
}


def bits(values):
    return np.array(values, dtype=float).tobytes()


ORACLE_DIMS = [1, 2, 3, 5, 10, 30]
ORACLE_ROWS = [1, 2, 3, 7, 8, 9, 1024, 1025]


def suite_block(name, dim, m, shift_seed, seed):
    """(objective, block, per-point reference values) for one suite function.

    Rows are uniform in the box, the optimum, a face (one coordinate at
    +/-5) or a corner (every coordinate at +/-5); row 0 is the optimum.
    """
    rng = np.random.default_rng(seed)
    obj = make_objective(name, dim, budget=2 * m, shift_seed=shift_seed)
    block = rng.uniform(-5.0, 5.0, size=(m, dim))
    kind = rng.integers(0, 4, size=m)
    kind[0] = 1
    block[kind == 1] = obj.optimum_point
    faces = np.flatnonzero(kind == 2)
    face_dims = rng.integers(0, dim, size=faces.size)
    block[faces, face_dims] = rng.choice([-5.0, 5.0], size=faces.size)
    corners = kind == 3
    block[corners] = rng.choice([-5.0, 5.0], size=(np.count_nonzero(corners), dim))
    g = REFERENCE[name](dim)
    expected = [obj.optimum_value + g(x - obj.optimum_point) for x in block]
    return obj, block, expected


def oracle_dims(name):
    return [d for d in ORACLE_DIMS if not (name == "rosenbrock" and d < 2)]


class TestBlockOracle:
    """Every entry point matches the per-point reference bit for bit."""

    def check(self, obj, block, expected):
        assert bits(obj.evaluate_batch(block)) == bits(expected)
        assert bits([obj.evaluate(x) for x in block]) == bits(expected)
        assert bits([obj.raw(x) for x in block]) == bits(expected)
        for label, g in TRANSFORMS.items():
            warped = transformed(obj, g, label)
            mapped = [float(g(v)) for v in expected]
            assert bits(warped.evaluate_batch(block)) == bits(mapped)
            assert bits([warped.evaluate(x) for x in block[:9]]) == bits(mapped[:9])

    @pytest.mark.parametrize("name", SUITE_NAMES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_blocks(self, name, data):
        dim = data.draw(st.sampled_from(oracle_dims(name)), label="dim")
        m = data.draw(st.sampled_from(ORACLE_ROWS), label="m")
        shift_seed = data.draw(st.integers(0, 2**32 - 1), label="shift_seed")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        self.check(*suite_block(name, dim, m, shift_seed, seed))

    @pytest.mark.parametrize(
        "name,dim", [(n, d) for n in SUITE_NAMES for d in oracle_dims(n)]
    )
    def test_largest_blocks(self, name, dim):
        # every dimension at the largest block size, which the random
        # draws above may not reach for each one
        self.check(*suite_block(name, dim, ORACLE_ROWS[-1], shift_seed=dim, seed=dim))


# =============================================================================
# Custom objectives and bounds validation
# =============================================================================


class TestObjectiveValidation:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(InvalidBounds):
            Objective(lambda x: 0.0, [1.0], [0.0], budget=1)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(InvalidBounds):
            Objective(lambda x: 0.0, [1.0, 0.0], [1.0, 1.0], budget=1)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(InvalidBounds):
            Objective(lambda x: 0.0, [0.0], [math.inf], budget=1)

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(InvalidBounds):
            Objective(lambda x: 0.0, [0.0, 0.0], [1.0], budget=1)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda obj: Objective(np.sum, [1.0], [0.0], 10), id="objective"),
            pytest.param(lambda obj: new_tree(([math.nan], [1.0]), obj), id="partition-tree"),
        ],
    )
    def test_invalid_bounds_is_a_value_error(self, call):
        # bad bounds are a bad argument, which except ValueError catches
        obj = Objective(np.sum, [0.0], [1.0], 10)
        with pytest.raises(ValueError):
            call(obj)
        assert obj.meter == 0

    def test_optimum_value_stored_as_float(self):
        for value, expected in ((np.int64(3), 3.0), (np.float32(0.5), 0.5), (2, 2.0)):
            obj = Objective(np.sum, [0.0], [1.0], 1, optimum_value=value)
            assert type(obj.optimum_value) is float and obj.optimum_value == expected

    def test_optimum_point_is_a_copy(self):
        # writing to the reported optimum does not move the function's
        obj = make_objective("sphere", 2, budget=1)
        shift = obj.optimum_point.copy()
        obj.optimum_point[0] = 1.0
        assert obj.evaluate(shift) == obj.optimum_value

    def test_box_and_optimum_are_copies_of_the_arrays_passed_in(self):
        # the box checked at construction is the box every run sees
        lower, upper, optimum = np.zeros(2), np.ones(2), np.full(2, 0.25)
        obj = Objective(math.fsum, lower, upper, 10, optimum_point=optimum)
        lower[0], upper[0], optimum[0] = 5.0, 0.5, 0.75
        assert obj.evaluate([0.75, 0.5]) == 1.25
        assert obj.lower.tolist() == [0.0, 0.0]
        assert obj.upper.tolist() == [1.0, 1.0]
        assert obj.optimum_point.tolist() == [0.25, 0.25]

    @pytest.mark.parametrize("corner", ["lower", "upper"])
    def test_box_is_read_only(self, corner):
        obj = make_objective("sphere", 2, budget=1)
        with pytest.raises(ValueError, match="read-only"):
            getattr(obj, corner)[0] = 1.0
        assert obj.evaluate([4.5, -4.5]) > obj.optimum_value
        assert obj.lower.tolist() == [-5.0, -5.0] and obj.upper.tolist() == [5.0, 5.0]


class _Real(float):
    """A float subclass: not a plain float, so check_real converts it."""


class TestCheckReal:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (2.0, 2.0), (-0.0, -0.0), (math.inf, math.inf), (3, 3.0),
            (np.float64(0.25), 0.25), (np.float32(0.5), 0.5), (np.int64(-2), -2.0),
            (_Real(1.5), 1.5), (Fraction(1, 4), 0.25), (2**1023, 2.0**1023),
        ],
    )
    def test_accepts_a_real_number_as_a_plain_float(self, value, expected):
        real = check_real(value, "x")
        assert type(real) is float
        assert real == expected and math.copysign(1.0, real) == math.copysign(1.0, expected)

    def test_accepts_nan(self):
        assert math.isnan(check_real(math.nan, "x"))
        assert type(check_real(np.float64(math.nan), "x")) is float

    @pytest.mark.parametrize(
        "value",
        [
            True, False, np.bool_(True), 10**400, -(10**400), Fraction(10**400, 3),
            "2.0", None, 1 + 0j, np.array(2.0), [2.0],
        ],
    )
    def test_refuses_anything_else(self, value):
        with pytest.raises(ValueError, match="x must be a real number"):
            check_real(value, "x")


def _pulled_arms():
    stats = ArmStats(2)
    stats.update(0, 0.3)
    stats.update(1, 0.6)
    return stats


def _split_tree():
    """A 2-D sphere tree after one split: cells 0 (split) to 3 (leaves)."""
    objective = make_objective("sphere", 2, budget=50)
    tree = PartitionTree(objective)
    tree.split_leaf(0)
    return tree


# calls on a fresh 2-D objective: every count passed in must be an
# integer at or above its floor, checked before any evaluation
BAD_COUNTS = [
    pytest.param(lambda obj: Objective(np.sum, [0.0], [1.0], 2.7), id="objective-budget"),
    pytest.param(lambda obj: Objective(np.sum, [0.0], [1.0], -1), id="objective-budget-negative"),
    pytest.param(lambda obj: run_soo(obj, 10.5), id="run-soo-budget"),
    pytest.param(lambda obj: run_random_search(obj, 10.5, 0), id="random-budget"),
    pytest.param(lambda obj: run_ucb_grid(obj, 10.5), id="ucb-grid-budget"),
    pytest.param(
        lambda obj: PartitionTree(obj, eval_budget=10.5),
        id="tree-eval-budget",
    ),
    pytest.param(lambda obj: nelder_mead(obj, [0.0, 0.0], 7.5), id="nm-max-evals"),
    pytest.param(lambda obj: refine_budget_split(10.5, 0.1), id="refine-split-total"),
    pytest.param(lambda obj: grid_divisions(2, 2.5), id="grid-resolution"),
    pytest.param(lambda obj: grid_divisions(-1, 3), id="grid-dim-negative"),
    pytest.param(lambda obj: grid_divisions(0, 3), id="grid-dim-zero"),
    pytest.param(lambda obj: grid_divisions(True, 3), id="grid-dim-bool"),
    pytest.param(lambda obj: grid_divisions(2.5, 3), id="grid-dim-float"),
    pytest.param(lambda obj: ArmStats(2.0), id="n-arms"),
    pytest.param(
        lambda obj: run_ucb([lambda: 1.0, lambda: 2.0], 3.5), id="ucb-horizon"
    ),
    pytest.param(lambda obj: SooParams(s_children=3.0), id="s-children"),
    pytest.param(lambda obj: DepthSchedule.constant(2.7), id="constant-depth"),
    pytest.param(lambda obj: DepthSchedule("constant", 2.7), id="constant-depth-direct"),
    # a seed is a count from 0: checked before anything is drawn
    pytest.param(lambda obj: run_random_search(obj, 10, 1.5), id="random-seed"),
    pytest.param(lambda obj: bernoulli_arms([0.5], 1.5), id="bernoulli-seed"),
    # a bool is not a count, though bool subclasses int
    pytest.param(lambda obj: run_soo(obj, True), id="run-soo-budget-bool"),
    pytest.param(lambda obj: run_random_search(obj, 10, True), id="random-seed-bool"),
    pytest.param(lambda obj: ArmStats(True), id="n-arms-bool"),
    pytest.param(lambda obj: DepthSchedule("constant", True), id="constant-depth-bool"),
    # a depth cap's evaluation count is a count too
    pytest.param(lambda obj: max_depth(2.5), id="max-depth-evals"),
    # a ledger checks its own budget, though every runner checks first
    pytest.param(lambda obj: RunLedger(obj, 2.5), id="ledger-budget"),
    pytest.param(lambda obj: RunLedger(obj, True), id="ledger-budget-bool"),
    pytest.param(lambda obj: RunLedger(obj, -3), id="ledger-budget-negative"),
    # an arm id is a count from 0 below the number of arms
    pytest.param(lambda obj: _pulled_arms().update(True, 1.0), id="arm-update-bool"),
    pytest.param(lambda obj: _pulled_arms().update(1.5, 1.0), id="arm-update-float"),
    pytest.param(lambda obj: _pulled_arms().update(-1, 1.0), id="arm-update-negative"),
    pytest.param(lambda obj: _pulled_arms().update(2, 1.0), id="arm-update-past-last"),
    # a cell id is a count from 0 below the number of cells; the tree has
    # its own objective, as its root is metered
    pytest.param(lambda obj: _split_tree().split_leaf(True), id="leaf-id-bool"),
    pytest.param(lambda obj: _split_tree().split_leaf(1.5), id="leaf-id-float"),
    pytest.param(lambda obj: _split_tree().split_leaf("0"), id="leaf-id-string"),
    # not a count, but refused at construction all the same
    pytest.param(
        lambda obj: run_soo(obj, 20, SooParams(depth_schedule="log32")),
        id="soo-params-schedule-string",
    ),
]


class TestCountRule:
    @pytest.mark.parametrize("call", BAD_COUNTS)
    def test_bad_count_raises_before_any_evaluation(self, call):
        obj = make_objective("sphere", 2, budget=50)
        with pytest.raises(ValueError):
            call(obj)
        assert obj.meter == 0

    def test_numpy_integer_counts_accepted(self):
        obj = make_objective("sphere", 2, budget=np.int64(21))
        assert run_soo(obj, np.int64(21)).evals_used == obj.meter == 21
        # stored as a Python int, which the JSON config echo can write
        assert type(DepthSchedule.constant(np.int64(2)).value) is int


class TestRunCap:
    """A run's RunLedger fixes its evaluation cap when the run starts."""

    @pytest.mark.parametrize(
        "budget, spent, cap",
        [(None, 0, 10), (None, 4, 6), (3, 4, 3), (6, 4, 6), (9, 4, 6), (1, 9, 1)],
    )
    def test_cap_is_the_lesser_of_budget_and_remaining(self, budget, spent, cap):
        obj = make_objective("sphere", 2, budget=10)
        obj.evaluate_batch(np.zeros((spent, 2)))
        ledger = RunLedger(obj, budget)
        assert ledger.cap == ledger.left == cap
        assert obj.meter == spent

    @pytest.mark.parametrize("budget", [None, 1, 5])
    def test_spent_objective_raises(self, budget):
        obj = make_objective("sphere", 2, budget=3)
        obj.evaluate_batch(np.zeros((3, 2)))
        with pytest.raises(BudgetExhausted):
            RunLedger(obj, budget)
        assert obj.meter == 3

    def test_ledger_pays_and_records_within_its_cap(self):
        obj = make_objective("sphere", 2, budget=10)
        ledger = RunLedger(obj, 3)
        ledger.evaluate_batch(np.zeros((2, 2)), "ab")
        # a request beyond the cap meters and records nothing
        with pytest.raises(BudgetExhausted):
            ledger.evaluate_batch(np.zeros((2, 2)), "cd")
        ledger.evaluate(np.zeros(2), "c")
        with pytest.raises(BudgetExhausted):
            ledger.evaluate(np.zeros(2), "d")
        assert obj.meter == len(ledger.entries) == 3
        assert ledger.left == 0
        assert ledger.incumbent == "a"  # a tie keeps the earlier place
        result = ledger.result(np.zeros(2))
        assert result.trace is ledger.entries
        assert (result.f_star, result.split_ids.tolist()) == (obj.optimum_value, [])
        assert result.split_ids.typecode == "q"

    @pytest.mark.parametrize("places", [[0, 1], [0, 1, 2, 3], iter([0, 1]), 3, None])
    def test_ledger_needs_one_place_per_row(self, places):
        # zipping values with too few places used to meter every row but
        # record fewer, so the meter and the trace came apart
        obj = make_objective("sphere", 2, budget=10)
        ledger = RunLedger(obj, 10)
        with pytest.raises(ValueError):
            ledger.evaluate_batch(np.zeros((3, 2)), places)
        assert obj.meter == len(ledger.entries) == 0
        assert ledger.left == obj.remaining == 10

    def test_ledger_reads_an_iterator_of_places(self):
        obj = make_objective("sphere", 2, budget=10)
        ledger = RunLedger(obj, 10)
        points = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
        values = ledger.evaluate_batch(points, (place for place in "abc"))
        assert obj.meter == len(ledger.entries) == 3
        assert ledger.left == obj.remaining == 7
        assert ledger.incumbent == "abc"[values.index(min(values))]

    @pytest.mark.parametrize(
        "run, raises",
        [
            pytest.param(lambda obj, result: run_soo(obj, 5), True, id="soo"),
            pytest.param(
                lambda obj, result: new_tree((obj.lower, obj.upper), obj), True, id="tree"
            ),
            pytest.param(
                lambda obj, result: run_random_search(obj, 5, 0), True, id="random"
            ),
            pytest.param(lambda obj, result: run_ucb_grid(obj, 5), True, id="ucb-grid"),
            pytest.param(
                lambda obj, result: nelder_mead(obj, [0.0, 0.0], 5), True, id="nm"
            ),
            # refine_run's own cap is its reserve: it keeps the result instead
            pytest.param(
                lambda obj, result: refine_run(result, obj, 0.5), False, id="refine"
            ),
        ],
    )
    def test_spent_objective_starts_no_run(self, run, raises):
        result = run_soo(make_objective("sphere", 2, budget=5), 5)
        obj = make_objective("sphere", 2, budget=5)
        obj.evaluate_batch(np.zeros((5, 2)))
        if raises:
            with pytest.raises(BudgetExhausted):
                run(obj, result)
        else:
            assert run(obj, result) is result
        assert obj.meter == 5

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda obj: run_soo(obj, 5.5), id="soo-budget"),
            pytest.param(lambda obj: run_soo(obj, 5, "log32"), id="soo-params"),
            pytest.param(lambda obj: run_random_search(obj, 5, -1), id="random-seed"),
            pytest.param(lambda obj: run_ucb_grid(obj, 5, c=-1.0), id="ucb-grid-c"),
            pytest.param(lambda obj: run_ucb_grid(obj, 5, 0), id="ucb-grid-resolution"),
            pytest.param(lambda obj: nelder_mead(obj, [0.0], 5), id="nm-x0"),
            pytest.param(lambda obj: nelder_mead(obj, [0.0, 0.0], 2), id="nm-max-evals"),
        ],
    )
    def test_bad_argument_on_a_spent_objective_is_a_value_error(self, call):
        # each runner checks its arguments before its RunLedger fixes the cap
        obj = make_objective("sphere", 2, budget=5)
        obj.evaluate_batch(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            call(obj)


# =============================================================================
# Deterministic shifts
# =============================================================================


class TestShiftGeneration:
    """The documented LCG recurrence, frozen for cross-platform identity."""

    def test_shift_regression_seed_zero(self):
        # Independent re-derivation of the recurrence, state by state.
        a, c, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
        state = 0
        expected = []
        for _ in range(3):
            state = (a * state + c) & mask
            expected.append(state / 2.0**64 * 4.0 - 2.0)
        assert shift_from_seed(0, 3).tolist() == expected

    def test_same_seed_same_shift(self):
        assert np.array_equal(shift_from_seed(42, 5), shift_from_seed(42, 5))

    def test_prefix_consistency(self):
        # A longer shift vector extends a shorter one from the same seed.
        assert shift_from_seed(7, 3).tolist() == shift_from_seed(7, 6).tolist()[:3]

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           dim=st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_components_in_range(self, seed, dim):
        shift = shift_from_seed(seed, dim)
        assert np.all(shift >= -2.0)
        assert np.all(shift < 2.0)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "7", None, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="shift_seed"):
            shift_from_seed(seed, 3)
        with pytest.raises(ValueError, match="shift_seed"):
            make_objective("sphere", 3, budget=10, shift_seed=seed)

    def test_different_seeds_differ(self):
        assert not np.array_equal(shift_from_seed(0, 4), shift_from_seed(1, 4))


# =============================================================================
# Transforms and the manifest
# =============================================================================


class TestTransformed:
    def test_monotone_transform_keeps_argmin(self):
        base = make_objective("sphere", 2, budget=10)
        warped = transformed(base, lambda v: 2.0 * v + 7.0, "affine")
        assert np.array_equal(warped.optimum_point, base.optimum_point)
        assert warped.optimum_value == 2.0 * base.optimum_value + 7.0
        x = np.array([1.0, -1.0])
        assert warped.evaluate(x) == 2.0 * base.raw(x) + 7.0

    def test_transformed_has_fresh_meter(self):
        base = make_objective("sphere", 2, budget=3)
        base.evaluate([0.0, 0.0])
        warped = transformed(base, math.exp, "exp")
        assert warped.meter == 0
        assert warped.budget == 3


class TestManifest:
    def test_manifest_round_trips_through_json(self):
        manifest = suite_manifest(dim=2)
        again = json.loads(json.dumps(manifest))
        assert again == manifest
        assert [entry["name"] for entry in manifest] == list(SUITE_NAMES)

    def test_manifest_entries_are_complete(self):
        for entry in suite_manifest(dim=10):
            assert entry["f_star"] == 100.0 * entry["index"]
            assert len(entry["shift"]) == 10
            assert entry["lower"] == [-5.0] * 10

    @pytest.mark.parametrize("dim", [0, -1, 1.5, True])
    def test_manifest_bad_dim_rejected(self, dim):
        with pytest.raises(BadDimension):
            suite_manifest(dim)

    def test_manifest_dim_one_drops_rosenbrock(self):
        names = [entry["name"] for entry in suite_manifest(dim=1)]
        assert "rosenbrock" not in names
        assert len(names) == 7

    @pytest.mark.parametrize(
        "dim,digest",
        [
            (1, "aa6f0eee1e03ccf025915940bccc34ad48136ec290f4f2b4cceb496749f3137c"),
            (2, "49cc1a696522ac08902196cd3bc40685b8d82b5e35f23534b817e849f512824a"),
            (10, "168d8150f570685d391e4b027d9cfbff6445fe8fb032b8db749d03fa3706a3d9"),
        ],
    )
    def test_manifest_bytes_are_pinned(self, dim, digest):
        text = json.dumps(suite_manifest(dim), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
