"""Derivative-free local refinement for polishing a global incumbent.

A classic reflect/expand/contract/shrink simplex search, hardened for box
constraints: every candidate is clamped to the box before evaluation, and
a simplex that collapses (volume below 1e-30 of its initial volume, which
clamping against a face can cause) is rebuilt once around the best vertex
at a tenth of the initial scale.  The coefficients are fixed at the
textbook values (reflect 1, expand 2, contract 0.5, shrink 0.5); the
initial simplex offsets each axis by 5% of the box side, and the search
stops once the simplex's values span at most 1e-12.  The search keeps its
incumbent in its own TraceRecorder, the same best-so-far rule as every
run's trace: the earliest of the smallest values, non-finite sorting last.

The hybrid entry point reserves a fixed fraction of the total budget up
front, runs the global stage on the remainder, then spends the reserve
polishing the global incumbent.  The search's trace, replayed into a
recorder primed with that incumbent, extends the global stage's trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted
from .objectives import Objective, check_count, check_fraction
from .result import RunResult, TraceRecorder

Array = np.ndarray

# textbook reflection, expansion, contraction and shrink coefficients
_ALPHA = 1.0
_GAMMA = 2.0
_RHO = 0.5
_SIGMA = 0.5
# initial vertex offset as a fraction of each box side
_INIT_SCALE = 0.05
# stop once the simplex's values span no more than this
_TOL = 1e-12
_DEGENERACY_RATIO = 1e-30
_RESTART_SCALE = 0.1


@dataclass
class NmResult:
    """Best point found, its best-so-far trace, and exit flags; value and
    evals_used are read from the trace (its last entry and its length)."""

    point: Array
    trace: list[float]
    budget_exhausted: bool = False
    restarts: int = 0

    @property
    def value(self) -> float:
        """The best value found: the last trace entry."""
        return self.trace[-1]

    @property
    def evals_used(self) -> int:
        """Evaluations spent: one trace entry per evaluation."""
        return len(self.trace)


class _Stop(Exception):
    """Internal: evaluation cap reached, unwind to the reporting code."""


def _simplex_logvol(verts: Array) -> float:
    sign, logdet = np.linalg.slogdet(verts[1:] - verts[0])
    return -math.inf if sign == 0 else logdet


def _offset_simplex(x0: Array, scale: float, lower: Array, upper: Array) -> Array:
    """x0 plus one axis offset per dimension, reflected inward at a wall."""
    dim = x0.size
    verts = np.tile(x0, (dim + 1, 1))
    for j in range(dim):
        step = scale * (upper[j] - lower[j])
        if x0[j] + step <= upper[j]:
            verts[j + 1, j] = x0[j] + step
        else:
            verts[j + 1, j] = x0[j] - step
    return verts


def nelder_mead(objective: Objective, x0, max_evals: int) -> NmResult:
    """Minimize from x0, spending at most max_evals evaluations.

    max_evals must cover the initial simplex (dim + 1 points).  The best
    point ever evaluated is returned, so the result value never exceeds
    f(x0).  The cap is fixed at the start: max_evals, or the objective's
    remaining budget if smaller; a search stopped by a smaller cap has
    budget_exhausted set.  x0 is the first point evaluated, so a start
    outside the box raises OutOfBounds from the objective's own bounds
    check, with nothing metered.
    """
    lower = objective.lower
    upper = objective.upper
    dim = objective.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != lower.shape:
        raise ValueError(f"expected a start point of dimension {dim}")
    cap = min(check_count(max_evals, "max_evals", dim + 1), objective.remaining)

    # this search's best-so-far: one entry per evaluation it made
    trace = TraceRecorder()
    exhausted = False
    best_point: Array | None = None

    def evaluate(x: Array) -> float:
        nonlocal exhausted, best_point
        if len(trace.entries) >= cap:
            exhausted = cap < max_evals
            raise _Stop
        v = objective.evaluate(x)
        if trace.record(v):
            best_point = x.copy()
        return v

    def clip(x: Array) -> Array:
        return np.clip(x, lower, upper)

    restarts = 0
    try:
        verts = _offset_simplex(x0, _INIT_SCALE, lower, upper)
        fvals = np.empty(dim + 1)
        for i in range(dim + 1):
            fvals[i] = evaluate(verts[i])
        init_logvol = _simplex_logvol(verts)
        degeneracy_floor = init_logvol + math.log(_DEGENERACY_RATIO)
        check_every = max(10, dim)
        iteration = 0

        while True:
            order = np.argsort(fvals, kind="stable")
            verts = verts[order]
            fvals = fvals[order]
            if fvals[-1] - fvals[0] <= _TOL:
                break

            iteration += 1
            if restarts == 0 and iteration % check_every == 0:
                if _simplex_logvol(verts) < degeneracy_floor:
                    # Collapsed simplex (typically flattened on a face):
                    # rebuild once around the best vertex, smaller scale.
                    restarts = 1
                    verts = _offset_simplex(
                        verts[0], _INIT_SCALE * _RESTART_SCALE, lower, upper
                    )
                    for i in range(1, dim + 1):
                        fvals[i] = evaluate(verts[i])
                    continue

            centroid = verts[:-1].mean(axis=0)
            xr = clip(centroid + _ALPHA * (centroid - verts[-1]))
            fr = evaluate(xr)
            if fr < fvals[0]:
                xe = clip(centroid + _GAMMA * (xr - centroid))
                fe = evaluate(xe)
                if fe < fr:
                    verts[-1] = xe
                    fvals[-1] = fe
                else:
                    verts[-1] = xr
                    fvals[-1] = fr
            elif fr < fvals[-2]:
                verts[-1] = xr
                fvals[-1] = fr
            else:
                # contract outside (toward xr) or inside (toward the worst
                # vertex); each has its own accept test, then one shrink
                if fr < fvals[-1]:
                    xc = clip(centroid + _RHO * (xr - centroid))
                    fc = evaluate(xc)
                    accept = fc <= fr
                else:
                    xc = clip(centroid - _RHO * (centroid - verts[-1]))
                    fc = evaluate(xc)
                    accept = fc < fvals[-1]
                if accept:
                    verts[-1] = xc
                    fvals[-1] = fc
                else:
                    for i in range(1, dim + 1):
                        verts[i] = verts[0] + _SIGMA * (verts[i] - verts[0])
                        fvals[i] = evaluate(verts[i])
    except _Stop:
        pass

    if best_point is None:
        raise BudgetExhausted("no evaluations possible before the budget ran out")
    return NmResult(
        point=best_point.copy(),
        trace=trace.entries,
        budget_exhausted=exhausted,
        restarts=restarts,
    )


# ---------------------------------------------------------------------------
# hybrid driver
# ---------------------------------------------------------------------------


def refine_budget_split(total_budget: int, fraction: float) -> tuple[int, int]:
    """(global stage budget, refinement reserve) for a total budget.

    The reserve is ceil(fraction * total); the global stage keeps the rest
    but never less than one evaluation.
    """
    total_budget = check_count(total_budget, "budget", 1)
    fraction = check_fraction(fraction, "fraction")
    reserve = math.ceil(fraction * total_budget)
    main = max(1, total_budget - reserve)
    reserve = total_budget - main
    return main, reserve


def refine_run(
    result: RunResult,
    objective: Objective,
    fraction: float,
) -> RunResult:
    """Polish a finished run's incumbent with the reserved budget share.

    The reserve is refine_budget_split(objective.budget, fraction)'s,
    assumed to have been held back from the earlier stage.  The refinement
    trace, replayed into a recorder primed with the original incumbent,
    extends the original trace, and the refined point is kept exactly when
    that replay improved (ties keep the original).  When the reserve cannot
    seed a simplex (reserve < dim + 1, or the objective has too little
    budget left) the original result is returned unchanged.
    """
    _, reserve = refine_budget_split(objective.budget, fraction)
    nm_budget = min(reserve, objective.remaining)
    if nm_budget < objective.dim + 1:
        return result
    nm = nelder_mead(objective, result.best_point, nm_budget)
    trace = TraceRecorder(best_value=result.best_value)
    improved = trace.extend(nm.trace)
    return RunResult(
        best_point=nm.point if improved else result.best_point,
        trace=list(result.trace) + trace.entries,
        f_star=objective.optimum_value,
        split_ids=result.split_ids,
    )
