"""Fault injection: every optimizer keeps its counts in step when the
objective raises, or returns NaN or +/-inf, at one scheduled evaluation.

A run either returns a contract-conforming result whose trace, evals_used
and the objective's meter agree, or raises the injected error or a
SooboxError with the meter counting exactly the evaluations handed back
and staying within the budget.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from soobox import (
    SUITE_NAMES,
    Objective,
    SooboxError,
    SooParams,
    make_objective,
    refine_budget_split,
    refine_run,
    run_random_search,
    run_soo,
    run_ucb_grid,
)

FAULTS = {"raise": None, "nan": math.nan, "+inf": math.inf, "-inf": -math.inf}


class InjectedFault(Exception):
    """Raised by a faulty objective at its scheduled evaluation."""


class FaultyObjective(Objective):
    """A suite instance whose k-th function call misbehaves.

    delivered counts the evaluations that evaluate and evaluate_batch
    handed back to the optimizer; fired records whether call k happened.
    """

    def __init__(self, name: str, dim: int, budget: int, k: int, fault: str):
        base = make_objective(name, dim, budget)
        calls = 0

        def fn(x):
            nonlocal calls
            calls += 1
            if calls != k:
                return base.raw(x)
            self.fired = True
            if fault == "raise":
                raise InjectedFault(k)
            return FAULTS[fault]

        super().__init__(
            fn, base.lower, base.upper, budget, optimum_value=base.optimum_value
        )
        self.delivered = 0
        self.fired = False

    def evaluate(self, x) -> float:
        value = super().evaluate(x)
        self.delivered += 1
        return value

    def evaluate_batch(self, points) -> list[float]:
        values = super().evaluate_batch(points)
        self.delivered += len(values)
        return values


@st.composite
def faulty_runs(draw):
    """(faulty objective, run budget, fault kind)."""
    dim = draw(st.integers(1, 3))
    names = [n for n in SUITE_NAMES if not (n == "rosenbrock" and dim < 2)]
    name = draw(st.sampled_from(names))
    budget = draw(st.integers(1, 160))
    objective_budget = draw(st.integers(1, budget))
    k = draw(st.integers(1, budget + 1))  # budget + 1 never fires
    fault = draw(st.sampled_from(sorted(FAULTS)))
    objective = FaultyObjective(name, dim, objective_budget, k, fault)
    return objective, budget, fault


def soo(objective, budget, data):
    s = data.draw(st.sampled_from([3, 5, 7]), label="s_children")
    return run_soo(objective, budget, SooParams(s_children=s))


def soo_refine(objective, budget, data):
    fraction = data.draw(st.sampled_from([0.05, 0.2, 0.5]), label="fraction")
    main_budget, _ = refine_budget_split(budget, fraction)
    return refine_run(run_soo(objective, main_budget), objective, fraction)


def random_search(objective, budget, data):
    return run_random_search(objective, budget, data.draw(st.integers(0, 99)))


def ucb_grid(objective, budget, data):
    resolution = data.draw(st.integers(1, 3), label="resolution")
    return run_ucb_grid(objective, budget, resolution)


def check_outcome(run, faulty, data, spends_all=False):
    """spends_all: the run stops only at its cap, min(budget, objective's)."""
    objective, budget, fault = faulty
    try:
        result = run(objective, budget, data)
    except (InjectedFault, SooboxError) as error:
        if fault == "raise" and objective.fired:
            assert isinstance(error, InjectedFault)  # never swallowed
        assert objective.meter == objective.delivered <= objective.budget
        return
    assert not (fault == "raise" and objective.fired)
    assert objective.meter == objective.delivered == result.evals_used
    assert result.evals_used == len(result.trace) <= min(budget, objective.budget)
    if spends_all:
        assert result.evals_used == min(budget, objective.budget)
    result.check()


@given(faulty=faulty_runs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_soo_under_faults(faulty, data):
    check_outcome(soo, faulty, data)


@given(faulty=faulty_runs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_soo_refine_under_faults(faulty, data):
    check_outcome(soo_refine, faulty, data)


@given(faulty=faulty_runs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_search_under_faults(faulty, data):
    check_outcome(random_search, faulty, data, spends_all=True)


@given(faulty=faulty_runs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ucb_grid_under_faults(faulty, data):
    check_outcome(ucb_grid, faulty, data, spends_all=True)
