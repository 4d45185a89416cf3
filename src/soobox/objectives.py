"""Benchmark objective suite and the metered black-box wrapper.

The suite contains eight minimization problems on the box [-5, 5]^D.  Each
suite function is built as ``f(x) = bias + g(x - shift)`` where ``g`` is a
base function with ``g(0) = 0`` exactly, ``shift`` places the optimum at a
reproducible interior point, and ``bias`` is 100 times the function's
1-based position in the suite.  The shift is drawn from a fixed 64-bit
linear congruential generator so that any two builds of this package, on
any platform, produce bit-identical shifts from the same seed.  Not every
value is portable: see the note above the base functions.

All optimizers consume objectives through :class:`Objective`, which meters
every evaluation against a hard budget and rejects points outside the box.

Evaluation works on blocks.  Each suite function maps an (m, D) block of
points to its m values in one numpy pass, and every value is bit-identical
to the same function evaluated on that row alone.  Objective.evaluate_batch
makes one call per block; evaluate and raw pass the (1, D) block holding
their point through the same call.  A user function written per point is
wrapped once in a row loop (Objective's vectorized=False, the default).  A
block is metered all-or-nothing: a call that raises, or returns other than
m values, meters nothing of its block.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Callable

import numpy as np

from .errors import (
    BadDimension,
    BudgetExhausted,
    InvalidBounds,
    OutOfBounds,
    UnknownFunction,
)

Array = np.ndarray

# ---------------------------------------------------------------------------
# suite constants
# ---------------------------------------------------------------------------

BIAS_STEP = 100.0
BOX_HALF_WIDTH = 5.0
SHIFT_HALF_WIDTH = 2.0

# 64-bit LCG (Knuth's MMIX constants); fixed forever for reproducibility.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

# Per-dimension minimizer of v -> (v^4 - 16 v^2 + 5 v) / 2, frozen to the
# double nearest the real root of 4 v^3 - 32 v + 5 = 0.  The matching
# minimum value is computed once in double arithmetic rather than frozen as
# a second literal, so the subtraction below cancels exactly at the optimum.
_ST_ARGMIN = -2.903534027771177


def _st_poly(v):
    return (v ** 4 - 16.0 * v ** 2 + 5.0 * v) / 2.0


_ST_PERDIM_MIN = float(_st_poly(_ST_ARGMIN))


# ---------------------------------------------------------------------------
# deterministic shifts
# ---------------------------------------------------------------------------


def shift_from_seed(seed: int, dim: int) -> Array:
    """Shift vector with components in [-2, 2), one LCG step per component.

    state <- (a * state + c) mod 2^64, mapped affinely onto the range.  The
    recurrence is spelled out here instead of delegating to a library RNG
    so the mapping can never drift between platforms or library versions.
    """
    state = check_shift_seed(seed) & _LCG_MASK
    check_count(dim, "dim", 1, BadDimension)
    out = np.empty(dim)
    for j in range(dim):
        state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
        out[j] = (state / 2.0 ** 64) * (2.0 * SHIFT_HALF_WIDTH) - SHIFT_HALF_WIDTH
    return out


# ---------------------------------------------------------------------------
# base functions, g(0) = 0 exactly
# ---------------------------------------------------------------------------

# Each base function maps an (m, D) block z to its m values in one numpy
# pass, reading D from z.shape[1], and is bit-identical to the function on
# each row alone: element-wise ops do not depend on the block, a reduction
# along axis 1 runs the same loop per row as over a 1-D point, and
# np.vecdot runs np.dot's BLAS loop per row.  Do not swap in np.einsum or
# the matmul operator, which regroup those sums, or np.exp for math.exp,
# which differ in the last bit on some inputs.  Reductions are ndarray
# methods (z.sum(axis=1), not np.sum(z, axis=1)): the same ufunc reduce,
# without np.sum's Python-level dispatch.
#
# That identity holds on one machine; the values are not bit-identical
# across machines.  np.vecdot calls OpenBLAS ddot, whose summation order
# depends on the kernel OpenBLAS picks for the CPU, so _sphere, _ellipsoid
# and _composite3 can differ in the last bit between CPUs.  The golden
# fixture and the bench digests are pinned on an AVX-512 kernel; ROADMAP.md
# item 11 takes the sums off BLAS.

_E = math.exp(1.0)


def _sphere(z: Array) -> Array:
    return np.vecdot(z, z)


def _ellipsoid(z: Array) -> Array:
    # Axis weights 1..D: mildly ill-conditioned, enough to separate the
    # axes without making the basin numerically hostile to refinement.
    return np.vecdot(z * z, np.arange(1.0, z.shape[1] + 1.0))


def _rosenbrock(z: Array) -> Array:
    # Classic banana valley expressed around its own optimum: substituting
    # w = z + 1 puts the minimizer at z = 0 with value 0 exactly.
    w = z + 1.0
    a = w[:, 1:] - w[:, :-1] ** 2
    b = 1.0 - w[:, :-1]
    return (100.0 * a * a + b * b).sum(axis=1)


def _rastrigin(z: Array) -> Array:
    return _rastrigin_terms(z * z, np.cos(2.0 * np.pi * z))


def _rastrigin_terms(squares: Array, cosines: Array) -> Array:
    return 10.0 * squares.shape[1] + (squares - 10.0 * cosines).sum(axis=1)


def _ackley(z: Array) -> Array:
    return _ackley_terms(z * z, np.cos(2.0 * np.pi * z))


def _ackley_terms(squares: Array, cosines: Array) -> Array:
    # Grouped so both exponential terms cancel exactly at z = 0:
    # 20 - 20*exp(0) == 0 and e - exp(cos-mean of 1) == 0 in doubles.
    # A mean is spelled sum / D, which is what ndarray.mean computes.
    dim = squares.shape[1]
    rms = np.sqrt(squares.sum(axis=1) / dim)
    cos_mean = cosines.sum(axis=1) / dim
    return np.array(
        [
            (20.0 - 20.0 * math.exp(-0.2 * r)) + (_E - math.exp(c))
            for r, c in zip(rms.tolist(), cos_mean.tolist())
        ]
    )


def _griewank(z: Array) -> Array:
    root_index = np.sqrt(np.arange(1.0, z.shape[1] + 1.0))
    return (z * z).sum(axis=1) / 4000.0 + 1.0 - np.cos(z / root_index).prod(axis=1)


def _styblinski_tang(z: Array) -> Array:
    # Each coordinate contributes its quartic minus the quartic's minimum,
    # evaluated at the frozen argmin so the optimum lands on 0.0 exactly.
    return (_st_poly(z + _ST_ARGMIN) - _ST_PERDIM_MIN).sum(axis=1)


def _composite3(z: Array) -> Array:
    # rastrigin and ackley share one z * z and one cos(2 pi z) per block
    squares, cosines = z * z, np.cos(2.0 * np.pi * z)
    return (
        _sphere(z)
        + _rastrigin_terms(squares, cosines)
        + _ackley_terms(squares, cosines)
    )


# name -> (base function, minimum supported dimension), in suite order:
# a function's 1-based position here sets its bias
_BASE: dict[str, tuple[Callable[[Array], Array], int]] = {
    "sphere": (_sphere, 1),
    "ellipsoid": (_ellipsoid, 1),
    "rosenbrock": (_rosenbrock, 2),
    "rastrigin": (_rastrigin, 1),
    "ackley": (_ackley, 1),
    "griewank": (_griewank, 1),
    "styblinski_tang": (_styblinski_tang, 1),
    "composite3": (_composite3, 1),
}

SUITE_NAMES: tuple[str, ...] = tuple(_BASE)


# ---------------------------------------------------------------------------
# metered black box
# ---------------------------------------------------------------------------


def check_count(
    value, name: str, least: int, error: type[Exception] = ValueError
) -> int:
    """Raise error unless value is an integer (numbers.Integral) >= least.

    Every count passed in (a budget, a number of arms, a dimension) goes
    through this one check, so none is truncated or rounded, and a bool is
    rejected, not read as 0 or 1; a bad dimension raises BadDimension.  The
    sibling checkers below own the other argument rules: check_shift_seed,
    check_real, check_fraction, check_exploration and check_type.  All but
    check_type return the plain int or float they accepted, never a numpy
    scalar."""
    # a plain int first: the numbers.Integral check is several times
    # slower, and ArmStats checks the arm index of every UCB pull
    integer = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
    if not integer or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_shift_seed(seed) -> int:
    """Raise ValueError unless seed is an integer other than a bool.  Any
    integer is a valid shift seed: shift_from_seed masks it to 64 bits."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise ValueError(f"shift_seed must be an integer, got {seed!r}")
    return int(seed)


def check_real(value, name: str) -> float:
    """value as a float; ValueError unless it is a real number, not a bool,
    within the float range (NaN and +/-inf are real numbers here)."""
    # a plain float first, as in check_count: ucb_select checks its c per pull
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int or Fraction beyond the float range
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def check_fraction(value, name: str) -> float:
    """Raise ValueError unless value is a real number whose float is in
    (0, 1): the float is checked, as it is what is returned."""
    fraction = check_real(value, name)
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"{name} must be a number in (0, 1), got {value!r}")
    return fraction


def check_exploration(c, name: str = "c") -> float:
    """Raise ValueError unless c is a real number whose float is in
    [0, max float]: the float is checked, as it is what is returned."""
    value = check_real(c, name)
    if not 0.0 <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be finite and >= 0, got {c!r}")
    return value


def check_type(value, kind: type, name: str) -> None:
    """Raise ValueError unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def as_floats(value, name: str, error: type[Exception] = ValueError) -> Array:
    """value as a float array, the one conversion of coordinates passed in;
    raises error where numpy cannot convert it (a non-number, a ragged
    list, an integer beyond the float range)."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be numbers, got {value!r}") from exc


def checked_box(lower, upper) -> tuple[Array, Array]:
    """The box's corners as read-only float copies, so no later write to
    the arrays passed in can move it; raises InvalidBounds unless they are
    matching non-empty 1-D vectors, finite, with lower < upper."""
    lower = as_floats(lower, "lower", InvalidBounds)
    upper = as_floats(upper, "upper", InvalidBounds)
    if lower.ndim != 1 or upper.shape != lower.shape or lower.size < 1:
        raise InvalidBounds("bounds must be matching 1-D vectors")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise InvalidBounds("bounds must be finite")
    if not np.all(lower < upper):
        raise InvalidBounds("need lower < upper in every dimension")
    return frozen(lower), frozen(upper)


def frozen(values) -> Array:
    """values as a fresh read-only float array."""
    copy = np.array(values, dtype=float)
    copy.flags.writeable = False
    return copy


def _row_loop(fn: Callable[[Array], float]) -> Callable[[Array], list[float]]:
    """Block form of a per-point function: fn on each 1-D row, in order."""

    def block_fn(points: Array) -> list[float]:
        return [float(fn(row)) for row in points]

    return block_fn


def _block_values(fn: Callable[[Array], object], points: Array) -> list[float]:
    """fn's values on an (m, D) block as m Python floats; raises ValueError
    when fn returns any other number of values."""
    values = np.asarray(fn(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(
            f"objective function returned shape {values.shape} "
            f"for a block of {len(points)} points"
        )
    return values.tolist()


class Objective:
    """A black-box function on a box, metered against a hard budget.

    fn maps one 1-D point to its value.  With vectorized=True, in the sense
    of scipy's vectorized=, fn maps an (m, D) block of points to their m
    values instead, and evaluate() and raw() hand it the (1, D) block
    holding their point.  A per-point fn is wrapped once in a row loop, so
    every entry point makes one call per block.

    evaluate() raises BudgetExhausted once the meter reaches the budget and
    OutOfBounds for points outside the box; neither failure advances the
    meter, and both are checked before fn is called.  The meter counts
    returned values only: a call that raises, or a block function that
    returns other than m values (ValueError), meters nothing of its block.
    Values come back verbatim as Python floats, including non-finite ones.

    It owns its box: lower and upper are read-only copies, checked once
    here, that every run reads.  Its metadata is name, optimum_point (a
    copy) and optimum_value; the last two are None unless the instance
    knows its optimum, as suite objectives do.  fn must be callable,
    vectorized a bool and optimum_value a real number (stored as a
    float), or ValueError is raised at construction.
    """

    def __init__(
        self,
        fn: Callable[[Array], float],
        lower,
        upper,
        budget: int,
        *,
        vectorized: bool = False,
        name: str = "custom",
        optimum_point: Array | None = None,
        optimum_value: float | None = None,
    ):
        self.lower, self.upper = checked_box(lower, upper)
        self.budget = check_count(budget, "budget", 0)
        check_type(fn, Callable, "fn")
        check_type(vectorized, bool, "vectorized")
        self._fn = fn if vectorized else _row_loop(fn)
        self.meter = 0
        # the bounds tiled to the latest block's flattened size (no run alternates)
        self._tiled = (self.dim, self.lower, self.upper)
        self.name = name
        if optimum_point is not None:
            optimum_point = as_floats(optimum_point, "optimum_point").copy()
            if optimum_point.shape != self.lower.shape:
                raise ValueError(f"optimum_point must have dimension {self.dim}")
        self.optimum_point = optimum_point
        if optimum_value is not None:
            optimum_value = check_real(optimum_value, "optimum_value")
        self.optimum_value = optimum_value

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def remaining(self) -> int:
        return self.budget - self.meter

    def _require_inside(self, points: Array) -> None:
        # The flattened block is compared with the bounds tiled to its
        # size, which is cheaper than broadcasting the bounds over rows.
        # Counting comparisons is cheaper than np.all over their conjunction
        # and also rejects NaN coordinates, which fail both comparisons.
        flat = points.reshape(-1)
        size, lower, upper = self._tiled
        if size != flat.size:
            reps = flat.size // self.lower.size
            lower, upper = np.tile(self.lower, reps), np.tile(self.upper, reps)
            self._tiled = (flat.size, lower, upper)
        inside = np.count_nonzero(lower <= flat) + np.count_nonzero(flat <= upper)
        if inside != 2 * flat.size:
            raise OutOfBounds("point lies outside the objective's box")

    def _metered(self, block: Array) -> list[float]:
        # The budget, then the bounds, then one call on the block; the
        # meter advances by its m rows only once the call returned m values.
        m = len(block)
        if self.meter + m > self.budget:
            raise BudgetExhausted(
                f"{m} evaluations asked for, {self.remaining} of {self.budget} left"
            )
        self._require_inside(block)
        values = _block_values(self._fn, block)
        self.meter += m
        return values

    def _point_block(self, x) -> Array:
        """The (1, D) block holding one point; ValueError unless x converts
        to a point of dimension D."""
        x = as_floats(x, "point")
        if x.shape != self.lower.shape:
            raise ValueError(f"expected a point of dimension {self.dim}")
        return x[np.newaxis]

    def evaluate(self, x) -> float:
        """f(x) for one point, computed as the (1, D) block holding x.

        The meter advances only when the function returns; if it raises,
        the exception propagates and nothing is metered.
        """
        return self._metered(self._point_block(x))[0]

    def evaluate_batch(self, points) -> list[float]:
        """f at each row of an (m, dim) block, metered as one step.

        One shape, budget and bounds check covers the whole block, and the
        function is called once on the block (a per-point function once per
        row).  Every value is bit-identical to evaluate() on its row.  The
        batch is all-or-nothing: the meter advances by m only when the call
        returned m values; if it raises, the exception propagates and
        nothing is metered.
        """
        points = as_floats(points, "points")
        if points.ndim != 2 or points.shape[1] != self.lower.size:
            raise ValueError(f"expected an (m, {self.dim}) block of points")
        return self._metered(points)

    def raw(self, x) -> float:
        """Evaluate one point without metering or bounds checks (testing
        oracle); x is converted and shape-checked as evaluate() does."""
        return _block_values(self._fn, self._point_block(x))[0]


def suite_f_star(name: str) -> float:
    """The known minimum of a suite function: BIAS_STEP x its 1-based index."""
    if not (isinstance(name, str) and name in SUITE_NAMES):
        raise UnknownFunction(
            f"unknown function {name!r}; suite = {', '.join(SUITE_NAMES)}"
        )
    return BIAS_STEP * (SUITE_NAMES.index(name) + 1)


def make_objective(name: str, dim: int, budget: int, *, shift_seed: int = 0) -> Objective:
    """Build a suite instance on [-5, 5]^dim with the given budget, its
    optimum at shift_from_seed(shift_seed, dim), inside [-2, 2)^dim."""
    bias = suite_f_star(name)
    g, min_dim = _BASE[name]
    check_count(dim, f"{name} dim", min_dim, BadDimension)
    shift_vec = shift_from_seed(shift_seed, dim)

    def fn(points: Array) -> Array:
        return bias + g(points - shift_vec)

    return Objective(
        fn,
        np.full(dim, -BOX_HALF_WIDTH),
        np.full(dim, BOX_HALF_WIDTH),
        budget,
        vectorized=True,
        name=name,
        optimum_point=shift_vec,
        optimum_value=bias,
    )


def transformed(objective: Objective, g: Callable[[float], float], label: str) -> Objective:
    """Fresh objective computing g(f(x)), with its own meter and budget.

    Used to check that rank-based optimizers are invariant under strictly
    increasing transforms of the values.  The known optimum value maps
    through g; the argmin is unchanged.
    """
    check_type(objective, Objective, "objective")
    check_type(g, Callable, "g")
    base_fn = objective._fn

    def fn(points: Array) -> list[float]:
        return [float(g(value)) for value in _block_values(base_fn, points)]

    f_star = objective.optimum_value
    # the box and the optimum pass straight through: Objective copies them
    return Objective(
        fn,
        objective.lower,
        objective.upper,
        objective.budget,
        vectorized=True,
        name=f"{label}({objective.name})",
        optimum_point=objective.optimum_point,
        optimum_value=None if f_star is None else g(f_star),
    )


def suite_manifest(dim: int = 2, shift_seed: int = 0) -> list[dict]:
    """JSON-ready description of every suite instance at the given dim.

    Functions whose minimum dimension exceeds dim are skipped (only
    rosenbrock at dim 1).  A dim below 1 raises BadDimension.
    """
    check_count(dim, "dim", 1, BadDimension)
    entries = []
    for name in SUITE_NAMES:
        if dim < _BASE[name][1]:
            continue
        obj = make_objective(name, dim, budget=0, shift_seed=shift_seed)
        entries.append(
            {
                "name": name,
                "index": SUITE_NAMES.index(name) + 1,
                "dim": dim,
                "bias": obj.optimum_value,
                "lower": obj.lower.tolist(),
                "upper": obj.upper.tolist(),
                "shift": obj.optimum_point.tolist(),
                "f_star": obj.optimum_value,
            }
        )
    return entries
