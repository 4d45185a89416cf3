"""Run results and the best-so-far trace.

Every optimizer in this package reports its work the same way: a
:class:`RunResult` carrying the incumbent point and a trace holding one
best-so-far value per evaluation, so entry i - 1 is the best value after
evaluation i.  The trace is the run's evaluation ledger and the only
place its counts live: the evaluation count is its length, the best
value is its last entry, and the best-so-far sequence is monotone
non-increasing under value_key, which sorts non-finite values as
+infinity.  A :class:`TraceRecorder` keeps the trace and the place of its
best value, its incumbent, which moves exactly when a recorded value
improves on it.  A :class:`RunLedger` pays for and records a run's
evaluations, and :meth:`RunResult.then` joins a later stage's trace to a
finished run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from .errors import BudgetExhausted
from .objectives import Objective, check_count, check_type

# ---------------------------------------------------------------------------
# ordering helpers
# ---------------------------------------------------------------------------


def value_key(value: float) -> float:
    """Comparison key for objective values: NaN and +/-inf sort last."""
    return value if math.isfinite(value) else math.inf


def ratio_to_optimum(value: float, f_star: float | None) -> float | None:
    """value / f_star, or None when the optimum is unknown or zero."""
    if f_star is None or f_star == 0.0:
        return None
    return value / f_star


class TraceRecorder:
    """Accumulates the per-evaluation best-so-far trace and its incumbent.

    When a value recorded at ``at`` strictly improves the incumbent
    (ties keep the earlier one), ``incumbent`` becomes ``at``, where value
    was observed (a point, a cell id).  The first value always counts,
    even a NaN, so ``incumbent`` is None exactly when nothing has been
    recorded.
    """

    __slots__ = ("entries", "incumbent", "_best_key", "_best_raw")

    def __init__(self):
        self.entries: list[float] = []
        self.incumbent = None
        self._best_key = None  # None: nothing recorded yet
        self._best_raw = math.nan

    def record(self, value: float, at) -> None:
        self.extend((value,), (at,))

    def extend(self, values, at) -> None:
        """Record each value in turn, with at's matching item: the one
        place the best-so-far rule lives (record is extend of one value)."""
        append = self.entries.append
        key, best, where = self._best_key, self._best_raw, self.incumbent
        try:
            for value, place in zip(values, at):
                # value_key(value) < key without a call per value: a
                # non-finite value's key, +inf, undercuts no key
                if key is None or (value < key and math.isfinite(value)):
                    key, best, where = value_key(value), float(value), place
                append(best)
        finally:
            self._best_key, self._best_raw, self.incumbent = key, best, where

    @property
    def best_value(self) -> float:
        """Current incumbent value, verbatim (may be NaN before any record)."""
        return self._best_raw


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Outcome of a single optimization run.

    evals_used and best_value are read from the trace: its length and its
    last entry.  f_star is the objective's known optimum value, or None,
    and ratio is best_value divided by it.  split_ids is an array("q") of
    the cell ids split by the partition optimizer, in order (8 bytes per
    split; .tolist() gives plain ints), and stays empty for the baselines.
    """

    best_point: np.ndarray
    trace: list[float]
    f_star: float | None = None
    split_ids: array = field(default_factory=partial(array, "q"))

    @property
    def evals_used(self) -> int:
        """Evaluations consumed: one trace entry per evaluation."""
        return len(self.trace)

    @property
    def best_value(self) -> float:
        """The incumbent value: the last trace entry."""
        return self.trace[-1]

    @property
    def ratio(self) -> float | None:
        """best_value / f_star, or None when the optimum is unknown or zero."""
        return ratio_to_optimum(self.best_value, self.f_star)

    def check(self) -> None:
        """Validate the trace contract, raising ValueError on a breach.

        The best-so-far must be monotone non-increasing (non-finite values
        sort last).  Cheap enough to call in tests.
        """
        prev_key = math.inf
        for pos, val in enumerate(self.trace, start=1):
            key = value_key(val)
            if key > prev_key:
                raise ValueError(f"trace row {pos} rises to {val!r}")
            prev_key = key

    def then(self, point, trace) -> RunResult:
        """This run, then a later stage's best-so-far trace found at point, as
        recording both stages' raw values gives it (a tie keeps best_point)."""
        joined = TraceRecorder()
        joined.record(self.best_value, self.best_point)
        joined.extend(trace, repeat(point))
        entries = list(self.trace) + joined.entries[1:]
        return RunResult(joined.incumbent, entries, self.f_star, self.split_ids)


class RunLedger(TraceRecorder):
    """A run's trace that also pays for each evaluation it records, in one step.

    The cap, fixed when the ledger is built, is the lesser of budget (a
    count >= 1; None for no limit) and objective.remaining; a bad argument
    raises ValueError.  A spent objective, or a request beyond the cap,
    raises BudgetExhausted unmetered, and evaluate_batch raises ValueError
    unmetered unless at holds one place per row of points.
    """

    __slots__ = ("objective", "cap")

    def __init__(self, objective: Objective, budget: int | None = None):
        super().__init__()
        check_type(objective, Objective, "objective")
        if budget is not None:
            budget = check_count(budget, "budget", 1)
        if objective.remaining == 0:
            raise BudgetExhausted(f"no evaluations left of a budget of {objective.budget}")
        self.objective = objective
        self.cap = min(math.inf if budget is None else budget, objective.remaining)

    @property
    def left(self) -> int:
        return self.cap - len(self.entries)

    def _pay(self, m: int) -> None:
        if m > self.cap - len(self.entries):
            raise BudgetExhausted(f"need {m} evaluations, {self.left} left")

    def evaluate(self, x, at) -> float:
        self._pay(1)
        value = self.objective.evaluate(x)
        self.record(value, at)
        return value

    def evaluate_batch(self, points, at) -> list[float]:
        try:
            m = len(points)
        except TypeError:  # a scalar, a 0-d array, None
            raise ValueError(f"points must be an (m, D) block, got {points!r}") from None
        try:  # an iterator of places is read into a list first
            at = at if hasattr(at, "__len__") else list(at)
            places = len(at)
        except TypeError:
            raise ValueError(f"at must be {m} places, got {at!r}") from None
        if places != m:
            raise ValueError(f"{m} points need {m} places, got {places}")
        self._pay(m)
        values = self.objective.evaluate_batch(points)
        self.extend(values, at)
        return values

    def result(self, best_point, split_ids=()) -> RunResult:
        """The finished run, with a snapshot of split_ids as an array("q")."""
        f_star = self.objective.optimum_value
        return RunResult(best_point, self.entries, f_star, array("q", split_ids))
