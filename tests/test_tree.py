"""Tests for the partition tree, sweeps, depth schedules, and run_soo."""

import gc
import json
import math
import struct
import sys
import tracemalloc
import weakref
import zlib

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soobox import (
    BudgetExhausted,
    DepthSchedule,
    InvalidBounds,
    NotALeaf,
    Objective,
    ObjectiveDegenerate,
    PartitionTree,
    SooParams,
    make_objective,
    max_depth,
    new_tree,
    run_soo,
    sweep,
    transformed,
)
from soobox.result import value_key
from soobox.tree import _order

# =============================================================================
# Fixtures and helpers
# =============================================================================


def unit_objective(fn, dim, budget=10**6):
    """Objective on [0, 1]^dim with a generous budget."""
    return Objective(fn, np.zeros(dim), np.ones(dim), budget)


def scripted_objective(table, default=5.0, dim=1, budget=10**6):
    """1-D-friendly objective whose values come from a lookup table.

    Keys are x[0] rounded to 9 decimals; anything unlisted gets `default`.
    Lets a test pin the exact value landscape a sweep will see.
    """

    def fn(x):
        return table.get(round(float(x[0]), 9), default)

    return unit_objective(fn, dim, budget)


def leaves(tree):
    """Views of the tree's current leaves, in id order."""
    return [cell for cell in tree.cells if cell.is_leaf]


def linear_objective(dim=1, budget=10**6):
    return unit_objective(lambda x: float(x[0]), dim, budget)


def recording(fn, points):
    """fn, appending a copy of each point it receives to points: an oracle
    of where the tree evaluates."""

    def recorded(x):
        points.append(x.copy())
        return fn(x)

    return recorded


def parent_links(tree):
    """{child id: parent id} for every later split of tree, taken from the
    child ids split_leaf returns (a sweep splits through split_leaf)."""
    parents = {}
    split = tree.split_leaf

    def recorded(leaf_id):
        ids = split(leaf_id)
        parents.update(dict.fromkeys(ids, leaf_id))
        return ids

    tree.split_leaf = recorded
    return parents


# =============================================================================
# Cell geometry
# =============================================================================


class TestCellGeometry:
    """Boxes, centers, and the S-way slab construction."""

    def test_root_covers_box_and_costs_one_eval(self):
        points = []
        obj = unit_objective(recording(lambda x: 0.0, points), 2)
        tree = new_tree((obj.lower, obj.upper), obj)
        root = tree.cells[0]
        assert root.depth == 0
        assert [p.tolist() for p in points] == [[0.5, 0.5]]
        assert tree.eval_count == 1
        assert obj.meter == 1

    def test_split_cuts_exact_thirds(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        ids = tree.split_leaf(0)
        kids = [tree.cells[i] for i in ids]
        assert [c.lower[0] for c in kids] == [0.0, 1 / 3, 2 / 3]
        assert [c.upper[0] for c in kids] == [1 / 3, 2 / 3, 1.0]

    def test_adjacent_children_share_exact_edges(self):
        obj = make_objective("sphere", 3, budget=100)
        tree = new_tree((obj.lower, obj.upper), obj)
        ids = tree.split_leaf(0)
        a, b, c = (tree.cells[i] for i in ids)
        d = 0
        assert a.upper[d] == b.lower[d]
        assert b.upper[d] == c.lower[d]
        assert a.lower[d] == tree.cells[0].lower[d]
        assert c.upper[d] == tree.cells[0].upper[d]

    def test_middle_child_reuses_parent_center_bit_exact(self):
        # The middle slab is not evaluated: it keeps the leaf's value bit
        # for bit, and a split's S - 1 recorded points are the leaf's
        # midpoint with coordinate depth % D replaced by each outer slab's.
        points = []
        obj = unit_objective(recording(lambda x: float(x[0] + 2.0 * x[1]), points), 2)
        tree = new_tree((obj.lower, obj.upper), obj)
        cid = 0
        for depth in range(4):
            parent = tree.cells[cid]
            d = depth % 2
            before = len(points)
            ids = tree.split_leaf(cid)
            fresh = points[before:]
            assert len(fresh) == 2
            for k, point in zip((0, 2), fresh):
                child = tree.cells[ids[k]]
                expected = (parent.lower + parent.upper) / 2.0
                expected[d] = (child.lower[d] + child.upper[d]) / 2.0
                assert point.tobytes() == expected.tobytes()
            middle = tree.cells[ids[1]]
            assert _bits(middle.value) == _bits(parent.value)
            cid = ids[1]

    def test_split_costs_two_evaluations(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        tree.split_leaf(0)
        assert tree.eval_count == 3
        assert obj.meter == 3

    def test_split_dim_cycles(self):
        # a split cuts dimension depth % D of its leaf: each child's box
        # differs from its parent's along that dimension alone
        obj = unit_objective(lambda x: 0.0, 3)
        tree = new_tree((obj.lower, obj.upper), obj)
        cid = 0
        for d in (0, 1, 2, 0):
            parent = tree.cells[cid]
            assert parent.depth % 3 == d
            ids = tree.split_leaf(cid)
            for child in (tree.cells[i] for i in ids):
                moved = (child.lower != parent.lower) | (child.upper != parent.upper)
                assert np.flatnonzero(moved).tolist() == [d]
            cid = ids[0]

    def test_five_children_when_requested(self):
        obj = linear_objective()
        params = SooParams(s_children=5)
        tree = new_tree((obj.lower, obj.upper), obj, params)
        ids = tree.split_leaf(0)
        assert len(ids) == 5
        assert tree.eval_count == 1 + 4
        middle = tree.cells[ids[2]]
        assert middle.value == tree.cells[0].value

    def test_depth_one_cell_sizes(self):
        obj = make_objective("sphere", 2, budget=100)
        tree = new_tree((obj.lower, obj.upper), obj)
        ids = tree.split_leaf(0)
        child = tree.cells[ids[0]]
        widths = child.upper - child.lower
        assert widths[0] == pytest.approx(10.0 / 3.0, rel=1e-15)
        assert widths[1] == 10.0


class TestCellViews:
    """tree.cells reads read-only Cell records off the tree's storage."""

    def test_views_are_read_only(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        tree.split_leaf(0)
        cell = tree.cells[1]
        for row in (cell.lower, cell.upper):
            with pytest.raises(ValueError):
                row[0] = 0.25
        with pytest.raises(AttributeError):
            cell.value = 0.0
        with pytest.raises(TypeError):
            tree.cells[0] = cell

    def test_sequence_protocol(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        tree.split_leaf(0)
        cells = tree.cells
        assert len(cells) == 4
        assert [c.id for c in cells] == [0, 1, 2, 3]
        assert [c.id for c in cells[1:]] == [1, 2, 3]
        assert cells[-1].id == 3
        with pytest.raises(IndexError):
            cells[4]
        assert [c.id for c in leaves(tree)] == [1, 2, 3]

    def test_a_cell_is_a_snapshot(self):
        # a record read before its leaf is split keeps what it read; a
        # read after the split sees the split
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        before = tree.cells[0]
        tree.split_leaf(0)
        assert before.is_leaf is True
        assert tree.cells[0].is_leaf is False
        after = tree.cells[0]
        assert before.lower.tolist() == after.lower.tolist() == [0.0]
        assert before.upper.tolist() == after.upper.tolist() == [1.0]
        assert before.value == after.value and before.depth == after.depth == 0

    def test_cells_compare_by_identity(self):
        # numpy corners give a record no field-wise == or hash, so a cell,
        # as the views before it, is equal only to itself
        obj = make_objective("sphere", 2, budget=10)
        tree = new_tree((obj.lower, obj.upper), obj)
        a, b = tree.cells[0], tree.cells[0]
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_is_leaf_is_a_bool(self):
        # the leaf flags are bytes; a view reports a real bool
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        tree.split_leaf(0)
        assert tree.cells[0].is_leaf is False
        assert tree.cells[1].is_leaf is True

    def test_storage_grows_past_initial_rows(self):
        # Thousands of cells extend the interval log; views taken early
        # keep reading the same boxes.
        obj = make_objective("sphere", 2, budget=10**6)
        tree = new_tree((obj.lower, obj.upper), obj)
        parents = parent_links(tree)
        tree.split_leaf(0)
        first = tree.cells[1]
        before = first.lower.copy()
        cid = 1
        while len(tree.cells) < 5000:
            tree.split_leaf(cid)
            cid += 1
        assert np.array_equal(first.lower, before)
        assert np.array_equal(tree.cells[1].lower, before)
        child = tree.cells[4999]
        parent = tree.cells[parents[4999]]
        assert np.all(parent.lower <= child.lower)
        assert np.all(child.upper <= parent.upper)

    def test_tree_is_freed_without_a_cycle_collection(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)
        list(tree.cells)
        leaves(tree)
        ref = weakref.ref(tree)
        gc.disable()
        try:
            del tree
            assert ref() is None
        finally:
            gc.enable()


class TestTreeValidation:
    def test_even_children_rejected(self):
        with pytest.raises(ValueError):
            SooParams(s_children=4)

    def test_one_child_rejected(self):
        with pytest.raises(ValueError):
            SooParams(s_children=1)

    def test_reversed_bounds_rejected(self):
        obj = linear_objective()
        with pytest.raises(InvalidBounds):
            new_tree((np.ones(1), np.zeros(1)), obj)

    @pytest.mark.parametrize("corner", [0, 1])
    def test_space_other_than_the_objectives_box_rejected(self, corner):
        # a sub-box is searched through an Objective on it, never a tree
        # rooted on part of its objective's box; nothing is metered
        obj = unit_objective(math.fsum, 2)
        space = [obj.lower, obj.upper]
        space[corner] = np.full(2, 0.25 + 0.5 * corner)
        with pytest.raises(InvalidBounds):
            new_tree(tuple(space), obj)
        assert obj.meter == 0
        sub = Objective(math.fsum, space[0], space[1], 10)
        assert new_tree(tuple(space), sub).cells[0].lower.tolist() == space[0].tolist()

    def test_splitting_a_non_leaf_rejected(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        tree.split_leaf(0)
        with pytest.raises(NotALeaf):
            tree.split_leaf(0)

    def test_unknown_cell_id_rejected(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        with pytest.raises(ValueError):
            tree.split_leaf(99)

    @pytest.mark.parametrize("s", [3, 5])
    def test_failed_split_changes_nothing(self, s):
        # The objective raises on the second fresh child of the root's
        # split: the split must leave no orphan children, no trace rows and
        # no metered evaluations behind, and a retry must split cleanly.
        calls = []

        def fn(x):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return float(x[0])

        obj = unit_objective(fn, 2)
        tree = new_tree((obj.lower, obj.upper), obj, SooParams(s_children=s))
        with pytest.raises(RuntimeError):
            tree.split_leaf(0)
        assert obj.meter == tree.eval_count == len(tree.trace.entries) == 1
        assert len(tree.cells) == 1
        assert tree.cells[0].is_leaf
        assert tree.max_leaf_depth == 0
        assert len(tree.split_log) == 0

        ids = tree.split_leaf(0)
        assert ids == list(range(1, s + 1))
        assert len(tree.cells) == 1 + s
        assert obj.meter == tree.eval_count == len(tree.trace.entries) == s
        assert sweep(tree) == [ids[0]]  # the root is no longer a leaf

    def test_split_is_all_or_nothing_on_exhaustion(self):
        obj = linear_objective(budget=2)
        tree = new_tree((obj.lower, obj.upper), obj)
        with pytest.raises(BudgetExhausted):
            tree.split_leaf(0)
        assert len(tree.cells) == 1
        assert tree.cells[0].is_leaf
        assert tree.eval_count == 1
        assert obj.meter == 1

    @pytest.mark.parametrize(
        "objective_budget, eval_budget", [(100, 4), (4, None), (4, 50)]
    )
    def test_run_cap_blocks_split_all_or_nothing(self, objective_budget, eval_budget):
        # the cap is the lesser of the two budgets, fixed at construction;
        # after one split 1 evaluation is left, short of a split's 2
        obj = linear_objective(budget=objective_budget)
        tree = PartitionTree(obj, eval_budget=eval_budget)
        tree.split_leaf(0)
        assert tree.trace.cap == 4
        assert tree.trace.left == 1
        trace = list(tree.trace.entries)
        with pytest.raises(BudgetExhausted):
            tree.split_leaf(1)
        assert len(tree.cells) == 4
        assert all(cell.is_leaf for cell in tree.cells[1:])
        assert tree.trace.entries == trace
        assert obj.meter == 3


# =============================================================================
# Depth schedules
# =============================================================================


class TestDepthSchedules:
    def test_log32_values(self):
        assert max_depth(1) == 1
        assert max_depth(2) == 1
        assert max_depth(10**5) == 39
        assert max_depth(10**6) == 51

    def test_log32_formula_spot_checks(self):
        for t in (3, 17, 999, 12345):
            assert max_depth(t) == max(1, math.floor(math.log(t) ** 1.5))

    def test_log32_steps_match_mpmath(self):
        # The cap reaches k at t_k = ceil(exp(k^(2/3))); check t_k - 2 ..
        # t_k + 2 at every step up to 10^9, where (ln t)^(3/2) lands
        # closest to an integer and double rounding would show first.
        schedule = DepthSchedule.log32()
        checked = 0
        with mp.workdps(60):
            k = 1
            while (t_k := int(mp.ceil(mp.exp(mp.mpf(k) ** (mp.mpf(2) / 3))))) <= 10**9:
                for t in range(t_k - 2, t_k + 3):
                    expected = max(1, int(mp.floor(mp.log(t) ** mp.mpf(1.5))))
                    assert max_depth(t, schedule) == expected, (k, t)
                    checked += 1
                k += 1
        assert (k - 1, checked) == (94, 470)

    def test_constant_schedule(self):
        assert max_depth(10**6, DepthSchedule.constant(4)) == 4
        assert max_depth(1, DepthSchedule.constant(0)) == 0

    def test_unbounded_schedule(self):
        assert max_depth(5, DepthSchedule.unbounded()) == math.inf

    def test_numpy_counts_stored_as_ints(self):
        schedule = DepthSchedule("constant", np.int64(4))
        assert type(schedule.value) is int
        assert DepthSchedule.constant(np.int64(4)) == schedule
        assert type(SooParams(s_children=np.int64(5)).s_children) is int

    def test_bad_schedules_rejected(self):
        with pytest.raises(ValueError):
            DepthSchedule.constant(-1)
        with pytest.raises(ValueError):
            DepthSchedule("nonsense")
        with pytest.raises(ValueError):
            DepthSchedule("log32", 3)
        with pytest.raises(ValueError):
            max_depth(0)


# =============================================================================
# Sweeps
# =============================================================================


class TestSweep:
    """The one-split-per-depth, strictly-lower-value rule."""

    def test_first_sweep_splits_only_the_root(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        assert sweep(tree) == [0]
        values = sorted(c.value for c in leaves(tree))
        assert values == pytest.approx([1 / 6, 1 / 2, 5 / 6])

    def test_second_sweep_splits_best_depth_one_leaf(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)
        split_ids = sweep(tree)
        assert len(split_ids) == 1
        assert tree.cells[split_ids[0]].value == pytest.approx(1 / 6)

    def test_deeper_leaf_not_split_unless_strictly_lower(self):
        # Leaves at depth 1 hold {0.4, 2.0}; at depth 2 the best is 0.7.
        # The sweep splits the 0.4 cell, then must skip depth 2 because
        # 0.7 is not strictly below 0.4.
        table = {
            round(1 / 2, 9): 1.0,
            round(1 / 6, 9): 0.4,
            round(5 / 6, 9): 2.0,
            round(7 / 18, 9): 0.7,
            round(11 / 18, 9): 0.9,
        }
        obj = scripted_objective(table)
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)  # root -> depth-1 leaves 0.4, 1.0, 2.0
        middle_id = next(
            c.id for c in leaves(tree) if c.depth == 1 and c.value == 1.0
        )
        tree.split_leaf(middle_id)  # manual: depth-2 leaves 0.7, 1.0, 0.9
        low_id = next(
            c.id for c in leaves(tree) if c.depth == 1 and c.value == 0.4
        )
        split_ids = sweep(tree)
        assert split_ids == [low_id]
        best_deep = min(
            c.value for c in leaves(tree) if c.depth == 2 and c.value == 0.7
        )
        assert best_deep == 0.7  # still a leaf, untouched

    def test_equal_value_does_not_split(self):
        # Center reuse plants the parent's value one depth down; with a
        # strict rule that copy must not cascade within one sweep.
        obj = scripted_objective({}, default=1.0)
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)
        tree.split_leaf(next(c.id for c in leaves(tree) if c.depth == 1))
        split_ids = sweep(tree)
        assert len(split_ids) == 1
        assert tree.cells[split_ids[0]].depth == 1

    def test_depth_cap_fixed_at_sweep_start(self):
        # New children appear at depth 1 during the sweep, but the cap was
        # 0 when it started, so they are not split in the same pass.
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        split_ids = sweep(tree)
        assert split_ids == [0]
        assert all(tree.cells[i].depth == 0 for i in split_ids)
        assert tree.max_leaf_depth == 1

    def test_sweep_respects_schedule_limit(self):
        obj = linear_objective()
        params = SooParams(depth_schedule=DepthSchedule.constant(1))
        tree = new_tree((obj.lower, obj.upper), obj, params)
        for _ in range(5):
            sweep(tree)
        assert tree.max_leaf_depth <= 2  # splits at depth <= 1 only

    def test_partial_sweep_returned_on_exhaustion(self):
        # Budget 4: root (1) + first sweep split (2) leaves 1, enough to
        # start the next sweep's depth-0..1 walk but not finish a split.
        obj = linear_objective(budget=5)
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)
        split_ids = sweep(tree)  # affords exactly one split, then dry
        assert len(split_ids) == 1
        meter = obj.meter
        assert sweep(tree) == []  # cannot pay for a split: returns, no raise
        assert obj.meter == meter

    def test_mid_sweep_exhaustion_keeps_earlier_splits(self):
        # Budget 7 on f(x) = x: the third sweep splits at depth 1 (using
        # the last two evaluations) and then cannot afford the depth-2
        # split it would otherwise make; the partial list must stand.
        obj = linear_objective(budget=7)
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)
        sweep(tree)
        split_ids = sweep(tree)
        assert len(split_ids) == 1
        assert tree.cells[split_ids[0]].depth == 1
        assert obj.meter == 7
        deep_best = min(c.value for c in leaves(tree) if c.depth == 2)
        assert deep_best < tree.cells[split_ids[0]].value  # would have split

    @pytest.mark.parametrize("s", [3, 5])
    @pytest.mark.parametrize("n_sweeps", [1, 4, 12])
    def test_failed_split_in_sweep_changes_nothing(self, s, n_sweeps):
        # A sweep pops the leaf it splits only once split_leaf returns: when
        # the objective raises inside that split, every depth heap, the
        # split log, the meter and the trace stay as they were, and the
        # next sweep on a working objective splits the same leaf as a twin
        # tree that never failed.
        armed = [False]

        def fn(x):
            if armed[0]:
                raise RuntimeError("boom")
            return float((x[0] - 0.3) ** 2 + 0.5 * (x[1] - 0.8) ** 2)

        def grown():
            obj = unit_objective(fn, 2)
            tree = new_tree((obj.lower, obj.upper), obj, SooParams(s_children=s))
            for _ in range(n_sweeps):
                sweep(tree)
            return obj, tree

        def state(obj, tree):
            heaps = {d: list(h) for d, h in tree._heaps.items()}
            return heaps, tree.split_log.tobytes(), obj.meter, list(tree.trace.entries)

        obj, tree = grown()
        twin_obj, twin = grown()
        # sweeps pop what they split, so the heaps hold leaves only
        assert all(
            tree.cells[entry & tree._mask].is_leaf
            for h in tree._heaps.values()
            for entry in h
        )
        before = state(obj, tree)
        armed[0] = True
        with pytest.raises(RuntimeError):
            sweep(tree)
        assert state(obj, tree) == before
        armed[0] = False
        assert sweep(tree) == sweep(twin)
        assert state(obj, tree) == state(twin_obj, twin)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_root_never_splits(self, value):
        # A non-finite root has no heap entry, so the first sweep finds
        # nothing to split.
        obj = unit_objective(lambda x: value, 1, budget=50)
        tree = new_tree((obj.lower, obj.upper), obj)
        assert sweep(tree) == []
        assert obj.meter == 1

    def test_empty_sweep_when_cap_blocks_everything(self):
        obj = linear_objective()
        params = SooParams(depth_schedule=DepthSchedule.constant(0))
        tree = new_tree((obj.lower, obj.upper), obj, params)
        assert sweep(tree) == [0]
        assert sweep(tree) == []  # only depth-1 leaves remain, cap is 0


# =============================================================================
# Packed heap keys
# =============================================================================

TINY, HUGE = 5e-324, sys.float_info.max
EDGE_VALUES = [
    0.0, -0.0, TINY, -TINY, sys.float_info.min, -sys.float_info.min,
    HUGE, -HUGE, 1.0, -1.0,
]
KEY_VALUES = st.sampled_from(EDGE_VALUES) | st.floats(
    allow_nan=False, allow_infinity=False
)


class TestHeapKeys:
    """A finite leaf's heap key, (_order(value) << bits) | id, sorts as
    (value, id), and its low bits are the id; a non-finite leaf has none."""

    @given(data=st.data(), s=st.sampled_from([3, 5, 7]), cap=st.integers(1, 10**7))
    @settings(max_examples=300, deadline=None)
    def test_keys_sort_as_value_key_then_id(self, data, s, cap):
        obj = unit_objective(lambda x: 0.0, 1, budget=cap)
        tree = PartitionTree(obj, SooParams(s_children=s))
        last = s * ((cap - 1) // (s - 1))  # the last id the cap can pay for
        ids = st.sampled_from([0, last]) | st.integers(0, last)
        cells = data.draw(st.lists(st.tuples(KEY_VALUES, ids), min_size=1))
        keys = [(_order(v) << tree._bits) | cid for v, cid in cells]

        by_key = sorted(range(len(cells)), key=keys.__getitem__)
        by_value = sorted(range(len(cells)), key=cells.__getitem__)  # (value, id)
        assert by_key == by_value
        for key, (value, cid) in zip(keys, cells):
            assert key & tree._mask == cid
            assert key - cid == _order(value) << tree._bits

    @given(a=KEY_VALUES, b=KEY_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_orders_compare_as_value_keys(self, a, b):
        assert (_order(a) == _order(b)) == (a == b)
        assert (_order(a) < _order(b)) == (a < b)

    def test_signed_zeros_tie(self):
        assert _order(-0.0) == _order(0.0) == 0
        assert _order(-TINY) < 0 < _order(TINY)
        assert _order(-HUGE) < _order(HUGE)

    @pytest.mark.parametrize("s", [3, 5])
    def test_non_finite_leaves_get_no_heap_entry(self, s):
        # NaN on the left half of the box: a sweep never splits a NaN leaf,
        # so none may hold a slot in a depth heap
        def fn(x):
            return math.nan if x[0] < 0.5 else float(x[0])

        obj = unit_objective(fn, 1, budget=200)
        tree = PartitionTree(obj, SooParams(s_children=s))
        while tree.sweep():
            pass
        assert tree.eval_count > 100
        assert any(math.isnan(leaf.value) for leaf in leaves(tree))
        entries = [key & tree._mask for heap in tree._heaps.values() for key in heap]
        assert entries
        assert [cid for cid in entries if not math.isfinite(tree._value[cid])] == []


# =============================================================================
# Incumbent
# =============================================================================


class TestIncumbent:
    def test_incumbent_is_min_value_cell(self):
        obj = linear_objective()
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)
        point, value, cid = tree.incumbent(), tree.trace.best_value, tree.trace.incumbent
        assert value == min(c.value for c in tree.cells)
        assert point[0] == pytest.approx(1 / 6)
        assert tree.cells[cid].value == value
        cell = tree.cells[cid]
        assert point.tolist() == ((cell.lower + cell.upper) / 2).tolist()
        assert not point.flags.writeable

    def test_tie_goes_to_earliest_cell(self):
        obj = scripted_objective({}, default=3.0)
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)
        value, cid = tree.trace.best_value, tree.trace.incumbent
        assert value == 3.0
        assert cid == 0  # the root paid for this value first

    def test_non_finite_values_never_beat_finite(self):
        def fn(x):
            return math.nan if x[0] < 0.4 else float(x[0])

        obj = unit_objective(fn, 1)
        tree = new_tree((obj.lower, obj.upper), obj)
        sweep(tree)
        value = tree.trace.best_value
        assert math.isfinite(value)
        assert value == 0.5


# =============================================================================
# run_soo
# =============================================================================


class TestRunSoo:
    def test_budget_one_returns_root_center(self):
        obj = make_objective("sphere", 2, budget=10)
        result = run_soo(obj, budget=1)
        assert result.evals_used == 1
        assert np.array_equal(result.best_point, [0.0, 0.0])
        assert len(result.trace) == 1

    def test_never_exceeds_run_budget(self):
        obj = make_objective("rastrigin", 2, budget=10**6)
        result = run_soo(obj, budget=777)
        assert result.evals_used <= 777
        assert obj.meter == result.evals_used
        assert result.evals_used % 2 == 1  # 1 + 2 * splits

    def test_respects_objective_budget_when_tighter(self):
        obj = make_objective("sphere", 2, budget=9)
        result = run_soo(obj, budget=100)
        assert result.evals_used <= 9

    def test_deterministic(self):
        r1 = run_soo(make_objective("ackley", 2, budget=2000), 2000)
        r2 = run_soo(make_objective("ackley", 2, budget=2000), 2000)
        assert r1.trace == r2.trace
        assert r1.split_ids == r2.split_ids
        assert np.array_equal(r1.best_point, r2.best_point)

    def test_trace_contract(self):
        obj = make_objective("griewank", 3, budget=999)
        result = run_soo(obj, 999)
        result.check()
        assert result.trace[0] == obj.raw(np.zeros(3))  # the root's center
        values = result.trace
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_ratio_at_least_one(self):
        result = run_soo(make_objective("styblinski_tang", 2, budget=500), 500)
        assert result.ratio >= 1.0 - 1e-12

    def test_stagnation_under_constant_zero_cap(self):
        obj = make_objective("sphere", 1, budget=100)
        params = SooParams(depth_schedule=DepthSchedule.constant(0))
        result = run_soo(obj, budget=100, params=params)
        assert result.evals_used == 3  # root eval + one split, then stuck

    def test_all_nan_raises_degenerate(self):
        obj = Objective(lambda x: math.nan, np.zeros(1), np.ones(1), budget=50)
        with pytest.raises(ObjectiveDegenerate):
            run_soo(obj, budget=50)

    def test_bad_budget_rejected(self):
        obj = make_objective("sphere", 2, budget=10)
        with pytest.raises(ValueError):
            run_soo(obj, budget=0)

    @pytest.mark.parametrize("s", [3, 5, 7])
    def test_peak_bytes_per_evaluation(self, s):
        # A cell stores one interval in float columns and one packed int
        # heap key: this 10-D run peaks at 97-123 B per evaluation under
        # tracemalloc (CPython 3.11, S = 7..3), against 171-217 B with
        # float lists and (value, id) tuples, and 431-554 B with each
        # cell's box.
        obj = make_objective("sphere", 10, budget=5000)
        tracemalloc.start()
        try:
            result = run_soo(obj, 5000, SooParams(s_children=s))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / result.evals_used < 150

    def test_integer_and_flag_columns_are_compact(self):
        # split_log, depth and leaf flag are typed columns: at most 10 B
        # per cell together after a 10-D run (lists cost 20.4 B).
        obj = make_objective("sphere", 10, budget=5000)
        tree = PartitionTree(obj, eval_budget=5000)
        while tree.sweep():
            pass
        columns = (tree.split_log, tree._depth, tree._is_leaf)
        size = sum(sys.getsizeof(column) for column in columns)
        assert size / len(tree.cells) <= 10

    def test_float_columns_are_compact(self):
        # interval ends and values are array("d") columns: at most 8.5 B
        # per cell each after a 10-D run (a list slot plus its float is 32 B).
        obj = make_objective("sphere", 10, budget=5000)
        tree = PartitionTree(obj, eval_budget=5000)
        while tree.sweep():
            pass
        for column in (tree._lo, tree._up, tree._value):
            assert sys.getsizeof(column) / len(tree.cells) <= 8.5

    def test_split_ids_are_json_ints(self):
        result = run_soo(make_objective("sphere", 3, budget=500), 500)
        assert type(result.split_ids) is tuple and result.split_ids
        assert all(type(cid) is int for cid in result.split_ids)
        assert json.loads(json.dumps(result.split_ids)) == list(result.split_ids)

    def test_sweeps_split_through_split_leaf(self, monkeypatch):
        # Tracers wrap PartitionTree.split_leaf, so every split a run makes
        # must go through it.
        calls = []
        split = PartitionTree.split_leaf

        def counting(tree, leaf_id):
            calls.append(leaf_id)
            return split(tree, leaf_id)

        monkeypatch.setattr(PartitionTree, "split_leaf", counting)
        result = run_soo(make_objective("rastrigin", 3, budget=2000), 2000)
        assert len(calls) == len(result.split_ids) > 0
        assert tuple(calls) == result.split_ids

    def test_rank_invariance_quick(self):
        base = make_objective("rastrigin", 2, budget=300)
        warped = transformed(
            make_objective("rastrigin", 2, budget=300), lambda v: 2.0 * v + 7.0,
            "affine",
        )
        r1 = run_soo(base, 300)
        r2 = run_soo(warped, 300)
        assert r1.split_ids == r2.split_ids
        assert np.array_equal(r1.best_point, r2.best_point)


# =============================================================================
# Partition invariants (property-based)
# =============================================================================


def _hash_objective(dim, lo, hi, salt):
    """Deterministic pseudo-random value surface, no state."""

    def fn(x):
        h = hash((salt, *(round(float(v), 12) for v in x)))
        return (h % 10**6) / 10**6

    return Objective(fn, lo, hi, budget=10**6)


class TestPartitionProperties:
    @given(
        dim=st.integers(min_value=1, max_value=4),
        salt=st.integers(min_value=0, max_value=10**9),
        n_sweeps=st.integers(min_value=1, max_value=6),
        scale=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_leaves_tile_the_box(self, dim, salt, n_sweeps, scale):
        lo = np.full(dim, -scale)
        hi = np.full(dim, scale * 2.0)
        obj = _hash_objective(dim, lo, hi, salt)
        tree = new_tree((lo, hi), obj, SooParams(depth_schedule=DepthSchedule.unbounded()))
        for _ in range(n_sweeps):
            sweep(tree)

        cells = leaves(tree)
        total = sum(c.volume for c in cells)
        assert total == pytest.approx(tree.cells[0].volume, rel=1e-12)

        # interiors are pairwise disjoint: strict overlap in every dim
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                overlaps = np.all((a.lower < b.upper) & (b.lower < a.upper))
                assert not overlaps

        # evaluation accounting across the whole history
        s = tree.params.s_children
        assert tree.eval_count == 1 + (s - 1) * len(tree.split_log)

    @given(
        dim=st.integers(min_value=1, max_value=3),
        salt=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=30, deadline=None)
    def test_side_lengths_follow_split_counts(self, dim, salt):
        lo, hi = np.zeros(dim), np.full(dim, 1.0)
        obj = _hash_objective(dim, lo, hi, salt)
        tree = new_tree((lo, hi), obj, SooParams(depth_schedule=DepthSchedule.unbounded()))
        parents = parent_links(tree)
        for _ in range(4):
            sweep(tree)
        for cell in leaves(tree):
            splits_per_dim = [0] * dim
            node = cell
            while node.id in parents:
                parent = tree.cells[parents[node.id]]
                splits_per_dim[parent.depth % dim] += 1
                node = parent
            assert node.id == 0
            for j in range(dim):
                expected = 3.0 ** (-splits_per_dim[j])
                width = cell.upper[j] - cell.lower[j]
                assert width == pytest.approx(expected, rel=1e-12)

    def test_parent_links_consistent(self):
        obj = make_objective("ackley", 2, budget=500)
        result_tree = new_tree((obj.lower, obj.upper), obj)
        parents = parent_links(result_tree)
        for _ in range(10):
            sweep(result_tree)
        assert sorted(parents) == list(range(1, len(result_tree.cells)))
        for cell in result_tree.cells[1:]:
            parent = result_tree.cells[parents[cell.id]]
            assert parent.depth == cell.depth - 1
            assert not parent.is_leaf
            assert np.all(parent.lower <= cell.lower)
            assert np.all(cell.upper <= parent.upper)


# =============================================================================
# Geometry replay oracle
# =============================================================================


def replay_geometry(lower, upper, s, split_ids, fn):
    """Every cell rebuilt from the split log with per-cell arrays, and the
    points evaluated, in order.

    Independent of the tree's storage: each child's box is a copy of its
    parent's with the split dimension cut at lo + k * step (outer edges
    reset to the parent's), its center is (lo + up) / 2, except for the
    middle child, which takes its parent's center and value and is not
    evaluated.  The split dimension cycles from 0 and parents come from
    the log.
    """
    dim = lower.size
    mid = (s - 1) // 2
    center = (lower + upper) / 2.0
    cells = [dict(lower=lower, upper=upper, center=center, split_dim=0,
                  depth=0, value=float(fn(center)))]
    evaluated = [center]
    for leaf in split_ids:
        p = cells[leaf]
        d = p["split_dim"]
        lo_d, up_d = p["lower"][d], p["upper"][d]
        edges = lo_d + np.arange(s + 1) * ((up_d - lo_d) / s)
        edges[0], edges[s] = lo_d, up_d
        for k in range(s):
            lo, up = p["lower"].copy(), p["upper"].copy()
            lo[d], up[d] = edges[k], edges[k + 1]
            if k == mid:
                c, v = p["center"], p["value"]
            else:
                c = (lo + up) / 2.0
                v = float(fn(c))
                evaluated.append(c)
            cells.append(dict(lower=lo, upper=up, center=c,
                              split_dim=(d + 1) % dim, depth=p["depth"] + 1,
                              value=v))
    return cells, evaluated


def _bits(value):
    return struct.pack("<d", value)


def _crc_fn(salt, levels, nan_level):
    """Stateless values from a CRC of the point's bytes: few levels, so
    many ties, and one level may be NaN."""

    def fn(x):
        level = zlib.crc32(np.asarray(x, dtype=float).tobytes(), salt) % levels
        return math.nan if level == nan_level else float(level)

    return fn


class TestGeometryReplay:
    """The tree's boxes, depths, values, leaf flags and evaluated points
    match the replay."""

    @given(
        s=st.sampled_from([3, 5, 7]),
        dim=st.sampled_from([1, 2, 3, 10, 30]),
        narrow=st.booleans(),
        corner=st.floats(min_value=-100.0, max_value=100.0),
        widths=st.lists(
            st.floats(min_value=1e-3, max_value=100.0), min_size=30, max_size=30
        ),
        salt=st.integers(min_value=0, max_value=2**32 - 1),
        levels=st.integers(min_value=1, max_value=6),
        nan_level=st.integers(min_value=-1, max_value=5),
        chain=st.integers(min_value=4, max_value=7),
        past_dim=st.booleans(),
        budget=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=80, deadline=None)
    def test_cells_match_replay(
        self, s, dim, narrow, corner, widths, salt, levels, nan_level, chain,
        past_dim, budget,
    ):
        if narrow:
            # a tiny box far from the origin: edges and midpoints round,
            # so a middle slab's own midpoint can miss its parent's center
            lo = 1e6 + corner + np.arange(dim) * 0.37
            hi = lo + np.array(widths[:dim]) * 1e-6
        else:
            lo = np.full(dim, corner)
            hi = lo + np.array(widths[:dim])
        fn, points = _crc_fn(salt, levels, nan_level), []
        obj = Objective(recording(fn, points), lo, hi, budget=10**6)
        tree = new_tree((lo, hi), obj, SooParams(s_children=s))
        # a forced chain of nested middle children, then sweeps to budget;
        # a chain past 2 * D cuts every dimension at least twice, so a
        # corner comes from the nearest of several cuts along it
        if past_dim:
            chain += 2 * dim
        mid = (s - 1) // 2
        cid = 0
        for _ in range(chain):
            cid = tree.split_leaf(cid)[mid]
        while tree.eval_count < budget + chain * (s - 1):
            try:
                if not sweep(tree):
                    break
            except BudgetExhausted:
                break

        cells, evaluated = replay_geometry(lo, hi, s, tree.split_log, fn)
        assert len(tree.cells) == len(cells)
        assert [p.tobytes() for p in points] == [c.tobytes() for c in evaluated]
        split = set(tree.split_log)
        for view, cell in zip(tree.cells, cells):
            assert view.lower.tobytes() == cell["lower"].tobytes()
            assert view.upper.tobytes() == cell["upper"].tobytes()
            assert view.depth % tree.dim == cell["split_dim"]
            assert view.depth == cell["depth"]
            assert _bits(view.value) == _bits(cell["value"])
            assert view.is_leaf == (view.id not in split)

        keys = [value_key(cell["value"]) for cell in cells]
        best = keys.index(min(keys))
        point, value, best_id = tree.incumbent(), tree.trace.best_value, tree.trace.incumbent
        assert best_id == best
        assert _bits(value) == _bits(cells[best]["value"])
        assert point.tobytes() == cells[best]["center"].tobytes()
