"""run_soo against a brute-force reference SOO.

The reference follows the optimizer's one-paragraph description in the
README directly: no heaps, no incremental bookkeeping; every sweep rescans
all leaves at each depth.  Both must split the same cells in the same
order on any box, branching factor, depth schedule and value landscape,
including ties and non-finite values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soobox import (
    DepthSchedule,
    Objective,
    ObjectiveDegenerate,
    SooParams,
    max_depth,
    run_soo,
)


def _key(value):
    return value if math.isfinite(value) else math.inf


def reference_soo(objective, budget, s, schedule):
    """Split ids of a heap-free SOO that rescans every leaf on every step."""
    lo, up = objective.lower.copy(), objective.upper.copy()
    center = (lo + up) / 2.0
    cells = [dict(lo=lo, up=up, center=center, value=objective.evaluate(center),
                  depth=0, dim=0, leaf=True)]
    evals, splits = 1, []
    while True:
        leaf_depth = max(c["depth"] for c in cells if c["leaf"])
        cap = min(leaf_depth, max_depth(evals, schedule))
        v_min, split_now = math.inf, 0
        for depth in range(int(cap) + 1):
            leaves = [i for i, c in enumerate(cells) if c["leaf"] and c["depth"] == depth]
            if not leaves:
                continue
            best = min(leaves, key=lambda i: (_key(cells[i]["value"]), i))
            if _key(cells[best]["value"]) >= v_min:
                continue
            if budget - evals < s - 1:
                return splits, evals, cells
            parent = cells[best]
            d = parent["dim"]
            step = (parent["up"][d] - parent["lo"][d]) / s
            edges = [parent["lo"][d]]
            edges += [parent["lo"][d] + k * step for k in range(1, s)]
            edges += [parent["up"][d]]
            for k in range(s):
                lo, up = parent["lo"].copy(), parent["up"].copy()
                lo[d], up[d] = edges[k], edges[k + 1]
                if k == s // 2:  # the middle slab keeps the parent's center
                    center, value = parent["center"], parent["value"]
                else:
                    center = (lo + up) / 2.0
                    value = objective.evaluate(center)
                    evals += 1
                cells.append(dict(lo=lo, up=up, center=center, value=value,
                                  depth=depth + 1, dim=(d + 1) % lo.size, leaf=True))
            parent["leaf"] = False
            splits.append(best)
            split_now += 1
            v_min = _key(parent["value"])
        if not split_now:
            return splits, evals, cells


# Value landscapes: a quantized bowl (many ties) with some points replaced
# by entries of a table that may hold NaN and +/-inf.
SPECIALS = [math.nan, math.inf, -math.inf, 0.0, 1.0, -2.5]


def landscape(salt, quantum, special_every, table):
    def fn(x):
        h = hash((salt, *x.tolist()))
        if special_every and h % special_every == 0:
            return table[h % len(table)]
        return math.floor(float(np.sum((x - 0.3) ** 2)) / quantum) * quantum

    return fn


SCHEDULES = st.one_of(
    st.just(DepthSchedule.log32()),
    st.just(DepthSchedule.unbounded()),
    st.integers(min_value=0, max_value=6).map(DepthSchedule.constant),
)


@given(
    s=st.sampled_from([3, 5, 7]),
    schedule=SCHEDULES,
    dim=st.integers(min_value=1, max_value=4),
    corner=st.floats(min_value=-100.0, max_value=100.0),
    widths=st.lists(st.floats(min_value=1e-3, max_value=100.0), min_size=4, max_size=4),
    budget=st.integers(min_value=1, max_value=400),
    salt=st.integers(min_value=0, max_value=10**6),
    quantum=st.sampled_from([1e-9, 0.5, 4.0, 1e3]),
    special_every=st.sampled_from([0, 2, 5, 17]),
    table=st.lists(st.sampled_from(SPECIALS), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_run_soo_matches_reference(
    s, schedule, dim, corner, widths, budget, salt, quantum, special_every, table
):
    lower = np.full(dim, corner)
    upper = lower + np.array(widths[:dim])
    fn = landscape(salt, quantum, special_every, table)
    params = SooParams(s_children=s, depth_schedule=schedule)

    oracle = Objective(fn, lower, upper, budget=10**6)
    splits, evals, cells = reference_soo(oracle, budget, s, schedule)

    objective = Objective(fn, lower, upper, budget=10**6)
    if not any(math.isfinite(c["value"]) for c in cells):
        with pytest.raises(ObjectiveDegenerate):
            run_soo(objective, budget, params)
        return
    result = run_soo(objective, budget, params)
    assert list(result.split_ids) == splits
    assert result.evals_used == evals == objective.meter
    best = min(range(len(cells)), key=lambda i: (_key(cells[i]["value"]), i))
    assert result.best_value == cells[best]["value"]
    assert np.array_equal(result.best_point, cells[best]["center"])
