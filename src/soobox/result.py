"""Run results and the best-so-far trace.

Every optimizer in this package reports its work the same way: a
:class:`RunResult` carrying the incumbent point and a trace holding one
best-so-far value per evaluation, so entry i - 1 is the best value after
evaluation i.  The trace is the run's evaluation ledger and the only
place its counts live: the evaluation count is its length, the best
value is its last entry, and the best-so-far sequence is monotone
non-increasing under the ordering that treats non-finite values as
+infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    """Accumulates the per-evaluation best-so-far trace.

    The recorder can be primed with an incumbent value so a second
    optimization stage appends to the trace of a first stage without
    breaking monotonicity.  ``record`` returns True when the new value
    strictly improves the incumbent (ties keep the earlier value); on an
    unprimed recorder the first value always counts, even a NaN.
    """

    __slots__ = ("entries", "_best_key", "_best_raw")

    def __init__(self, best_value: float | None = None):
        self.entries: list[float] = []
        # _best_key None: nothing recorded or primed yet
        self._best_key = None if best_value is None else value_key(best_value)
        self._best_raw = math.nan if best_value is None else float(best_value)

    def record(self, value: float) -> bool:
        key = value_key(value)
        improved = self._best_key is None or key < self._best_key
        if improved:
            self._best_key = key
            self._best_raw = float(value)
        self.entries.append(self._best_raw)
        return improved

    def extend(self, values) -> bool:
        """Record each value in turn; True when any of them improved."""
        record = self.record
        improved = False
        for value in values:
            if record(value):
                improved = True
        return improved

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
    and ratio is best_value divided by it.  split_ids lists the cell ids
    split by the partition optimizer in order, and stays empty for the
    baselines.
    """

    best_point: np.ndarray
    trace: list[float]
    f_star: float | None = None
    split_ids: tuple[int, ...] = field(default_factory=tuple)

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
