"""Derivative-free local refinement for polishing a global incumbent.

A classic reflect/expand/contract/shrink simplex search, hardened for box
constraints: every candidate is clamped to the box before evaluation, and
a simplex that collapses (volume below 1e-30 of its initial volume, which
clamping against a face can cause) is rebuilt once around the best vertex
at a tenth of the initial scale.  The coefficients are fixed at the
textbook values (reflect 1, expand 2, contract 0.5, shrink 0.5); the
initial simplex offsets each axis by 5% of the box side, and the search
stops once the simplex's values span at most 1e-12.  The search pays for
its evaluations and keeps its incumbent in its own RunLedger, the same
best-so-far rule as every run's trace: the earliest of the smallest
values, non-finite sorting last.

The hybrid entry point reserves a fixed fraction of the total budget up
front, runs the global stage on the remainder, then spends the reserve
polishing the global incumbent; RunResult.then joins the search's trace
to the global stage's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .objectives import Objective, as_floats, check_count, check_fraction, check_type
from .result import RunLedger, RunResult

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
    """Best point found, its best-so-far trace, and exit flags; the best
    value is the trace's last entry, and evals_used its length."""

    point: Array
    trace: list[float]
    budget_exhausted: bool = False
    restarts: int = 0

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
    f(x0).  The cap is its RunLedger's, from max_evals; a search stopped
    by a cap below max_evals has budget_exhausted set.  x0 is the first point
    evaluated, so a start outside the box raises OutOfBounds from the
    objective's own bounds check, with nothing metered.
    """
    check_type(objective, Objective, "objective")
    lower = objective.lower
    upper = objective.upper
    dim = objective.dim
    x0 = as_floats(x0, "x0")
    if x0.shape != lower.shape:
        raise ValueError(f"expected a start point of dimension {dim}")
    ledger = RunLedger(objective, check_count(max_evals, "max_evals", dim + 1))
    exhausted = False

    def evaluate(x: Array) -> float:
        if not ledger.left:
            raise _Stop
        return ledger.evaluate(x, x.copy())

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
            xr = np.clip(centroid + _ALPHA * (centroid - verts[-1]), lower, upper)
            fr = evaluate(xr)
            if fr < fvals[0]:
                xe = np.clip(centroid + _GAMMA * (xr - centroid), lower, upper)
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
                    xc = np.clip(centroid + _RHO * (xr - centroid), lower, upper)
                    fc = evaluate(xc)
                    accept = fc <= fr
                else:
                    xc = np.clip(centroid - _RHO * (centroid - verts[-1]), lower, upper)
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
        exhausted = ledger.cap < max_evals

    return NmResult(ledger.incumbent, ledger.entries, exhausted, restarts)


# ---------------------------------------------------------------------------
# hybrid driver
# ---------------------------------------------------------------------------


def refine_budget_split(total_budget: int, fraction: float) -> tuple[int, int]:
    """(global stage budget, refinement reserve) for a total budget.

    The reserve is ceil(fraction * total); the global stage keeps the rest
    but never less than one evaluation.
    """
    total_budget = check_count(total_budget, "budget", 1)
    if total_budget > sys.float_info.max:
        raise ValueError("budget must not exceed the largest float")
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
    assumed to have been held back from the earlier stage; result.then
    joins the refinement trace to the original one.  When the reserve
    cannot seed a simplex (reserve < dim + 1, or the objective has too
    little budget left) the original result is returned unchanged.
    """
    check_type(result, RunResult, "result")
    check_type(objective, Objective, "objective")
    _, reserve = refine_budget_split(objective.budget, fraction)
    nm_budget = min(reserve, objective.remaining)
    if nm_budget < objective.dim + 1:
        return result
    nm = nelder_mead(objective, result.best_point, nm_budget)
    return result.then(nm.point, nm.trace)
