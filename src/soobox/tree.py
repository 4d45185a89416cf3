"""Optimistic optimization over a hierarchical ternary partition.

The optimizer maintains a tree of axis-aligned boxes (cells) covering the
search space.  Each cell is evaluated once, at its center.  A sweep walks
the depths from the root down and, at each depth, splits the leaf with the
smallest value provided that value strictly undercuts the best value
already split during the same sweep.  Splitting a cell cuts it into S
equal slabs along one dimension, with the split dimension cycling so every
dimension is refined in turn.  Because S is odd, the middle child keeps
the parent's center and inherits its value without spending an
evaluation: each split costs exactly S - 1 evaluations.

This makes the method rank-based: only comparisons between observed values
drive the tree, so any strictly increasing transform of the objective
yields the identical sequence of splits.

Storage: the tree keeps every cell's lower corner, upper corner and
midpoint (lower + upper) / 2 in one preallocated (rows, 3, D) array; a
cell's id is its row.  A split copies the parent's row into its S child
rows in one broadcast and then rewrites the (S, 3) slab edges and
midpoints along the split dimension.  Two per-cell fields are derived
rather than stored: the split dimension is depth % D, and the parent of
cell id > 0 is split_log[(id - 1) // S], since the k-th split appends
children 1 + k*S .. (k + 1)*S.  A middle child ((id - 1) % S == (S - 1) // 2)
is never evaluated at its own midpoint: its center is the point of the
nearest ancestor that paid for its value.

The per-sweep depth cap follows max(1, floor((ln t)^(3/2))) with t the
number of evaluations consumed when the sweep starts, so the tree may
deepen only logarithmically in the budget.  Constant and unbounded caps
are available for study.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .errors import BudgetExhausted, NotALeaf, ObjectiveDegenerate
from .objectives import Objective, check_count, checked_box
from .result import RunResult, TraceRecorder, ratio_to_optimum, value_key

Array = np.ndarray

# ---------------------------------------------------------------------------
# depth schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepthSchedule:
    """Per-sweep cap on how deep the tree may be extended.

    kind is one of "log32" (the default max(1, floor((ln t)^(3/2))) rule),
    "constant" (fixed cap), or "unbounded".
    """

    kind: str = "log32"
    value: int | None = None

    def __post_init__(self):
        if self.kind not in ("log32", "constant", "unbounded"):
            raise ValueError(f"unknown depth schedule kind {self.kind!r}")
        if self.kind == "constant":
            check_count(self.value, "constant depth cap", 0)
        elif self.value is not None:
            raise ValueError(f"{self.kind} schedule takes no value")

    @staticmethod
    def log32() -> "DepthSchedule":
        return DepthSchedule("log32")

    @staticmethod
    def constant(depth: int) -> "DepthSchedule":
        # checked before int() so 2.7 is rejected, not truncated; the int
        # keeps a numpy integer out of the JSON config echo
        check_count(depth, "constant depth cap", 0)
        return DepthSchedule("constant", int(depth))

    @staticmethod
    def unbounded() -> "DepthSchedule":
        return DepthSchedule("unbounded")

    def limit(self, evals: int) -> float:
        """Depth cap given the evaluation count at the start of a sweep."""
        if evals < 1:
            raise ValueError(f"evals must be >= 1, got {evals}")
        if self.kind == "log32":
            return max(1, math.floor(math.log(evals) ** 1.5))
        if self.kind == "constant":
            return self.value
        return math.inf


def max_depth(evals: int, schedule: DepthSchedule | None = None) -> float:
    """Depth cap for a sweep starting after `evals` evaluations."""
    return (schedule or DepthSchedule.log32()).limit(evals)


# ---------------------------------------------------------------------------
# parameters and cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SooParams:
    """Structural knobs for the partition optimizer.

    s_children must be odd and >= 3 so the middle child can reuse the
    parent's center evaluation.
    """

    s_children: int = 3
    depth_schedule: DepthSchedule = field(default_factory=DepthSchedule.log32)

    def __post_init__(self):
        check_count(self.s_children, "s_children", 3)
        if self.s_children % 2 == 0:
            raise ValueError(f"s_children must be odd, got {self.s_children}")


class Cell:
    """Read-only view of one box of the partition, evaluated at its center.

    The box arrays are read-only views into the tree's storage.  A view
    holds its tree; the tree never holds a view.
    """

    __slots__ = ("_tree", "id")

    def __init__(self, tree: "PartitionTree", cell_id: int):
        self._tree = tree
        self.id = cell_id

    def _row(self, cell_id: int, part: int) -> Array:
        row = self._tree._box[cell_id, part]
        row.flags.writeable = False
        return row

    @property
    def lower(self) -> Array:
        return self._row(self.id, 0)

    @property
    def upper(self) -> Array:
        return self._row(self.id, 1)

    @property
    def center(self) -> Array:
        """The point this cell's value was evaluated at."""
        return self._row(self._tree._paid_id(self.id), 2)

    @property
    def value(self) -> float:
        return self._tree._value[self.id]

    @property
    def depth(self) -> int:
        return self._tree._depth[self.id]

    @property
    def split_dim(self) -> int:
        return self.depth % self._tree.dim

    @property
    def parent(self) -> int | None:
        return self._tree._parent_id(self.id)

    @property
    def is_leaf(self) -> bool:
        return self._tree._is_leaf[self.id]

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


class CellsView(Sequence):
    """Read-only sequence of Cell views over a tree's cells, indexed by id."""

    __slots__ = ("_tree",)

    def __init__(self, tree: "PartitionTree"):
        self._tree = tree

    def __len__(self) -> int:
        return len(self._tree._value)

    def __getitem__(self, index):
        ids = range(len(self._tree._value))[index]
        if isinstance(index, slice):
            return [Cell(self._tree, i) for i in ids]
        return Cell(self._tree, ids)


# ---------------------------------------------------------------------------
# the tree
# ---------------------------------------------------------------------------

class PartitionTree:
    """Partition state plus the evaluation trace for one run.

    Cells live in the rows of one preallocated (rows, 3, D) array holding
    each cell's lower corner, upper corner and midpoint, plus per-cell
    lists of value, depth and leaf flag; a cell's id is its row, and its
    split dimension, parent and center are derived (see the module
    docstring).  The array is sized once, for the most cells the budget
    can pay for, and never reallocated: rows not yet written cost address
    space, not resident memory, and no mid-run copy-and-free makes the
    peak memory of a process depend on the allocator's history.

    Leaves are tracked per depth in lazy-deletion min-heaps keyed by
    (value_key, id), so each sweep touches only the depths it visits and
    never rescans the whole frontier.

    Nothing is counted twice: the best-so-far trace is the run's one
    evaluation ledger, so eval_count is its length; max_leaf_depth is the
    number of depth heaps minus one; and incumbent() scans the values.
    """

    def __init__(
        self,
        lower,
        upper,
        objective: Objective,
        params: SooParams | None = None,
        eval_budget: int | None = None,
    ):
        lower, upper = checked_box(lower, upper)
        self.params = params or SooParams()
        self.objective = objective
        if eval_budget is not None:
            check_count(eval_budget, "eval_budget", 1)
        self.eval_budget = eval_budget
        self.dim = lower.size
        self.split_log: list[int] = []
        self.trace = TraceRecorder()

        s = self.params.s_children
        self._mid = (s - 1) // 2
        # rows of a split's block that need a fresh evaluation
        self._fresh_rows = np.array(
            [k for k in range(s) if k != self._mid], dtype=np.intp
        )

        self._require_budget(1)
        center = (lower + upper) / 2.0
        value = self.objective.evaluate(center)
        self.trace.record(value)

        rows = 1 + s * (self.remaining // (s - 1))  # root + affordable splits
        self._box = np.empty((rows, 3, self.dim))  # lower, upper, midpoint
        self._box[0] = lower, upper, center
        self._value: list[float] = [value]
        self._depth: list[int] = [0]
        self._is_leaf: list[bool] = [True]
        self._heaps: dict[int, list[tuple[float, int]]] = {0: [(value_key(value), 0)]}

    # -- evaluation plumbing ------------------------------------------------

    @property
    def eval_count(self) -> int:
        """Evaluations consumed: one trace entry per evaluation."""
        return len(self.trace.entries)

    @property
    def remaining(self) -> int:
        left = self.objective.remaining
        if self.eval_budget is not None:
            left = min(left, self.eval_budget - self.eval_count)
        return left

    def _require_budget(self, needed: int) -> None:
        if self.remaining < needed:
            raise BudgetExhausted(
                f"need {needed} evaluations, only {self.remaining} left"
            )

    # -- structure ----------------------------------------------------------

    @property
    def max_leaf_depth(self) -> int:
        """Depth of the deepest leaf: a depth's heap is created by the first
        split that commits children there, so the depths are 0..len - 1."""
        return len(self._heaps) - 1

    def _parent_id(self, cell_id: int) -> int | None:
        if cell_id == 0:
            return None
        return self.split_log[(cell_id - 1) // self.params.s_children]

    def _paid_id(self, cell_id: int) -> int:
        """The cell whose center a cell's value was evaluated at.

        A middle child reuses its parent's point, so walk up through
        middle children to the nearest ancestor that paid an evaluation.
        """
        while cell_id and (cell_id - 1) % self.params.s_children == self._mid:
            cell_id = self._parent_id(cell_id)
        return cell_id

    @property
    def cells(self) -> CellsView:
        """Read-only views of every cell, indexed by id (a fresh view per access)."""
        return CellsView(self)

    def split_leaf(self, leaf_id: int) -> list[int]:
        """Split a leaf into S slabs along its scheduled dimension.

        Costs exactly S - 1 evaluations, taken all-or-nothing: the fresh
        centers are evaluated as one batch before the tree changes, so when
        the budget cannot cover a full split (BudgetExhausted) or the
        objective raises, the tree, its trace and the objective's meter are
        left untouched.  Returns the child ids in coordinate order.
        """
        n = len(self._value)
        if not 0 <= leaf_id < n:
            raise ValueError(f"no cell with id {leaf_id}")
        if not self._is_leaf[leaf_id]:
            raise NotALeaf(f"cell {leaf_id} was already split")
        s = self.params.s_children
        self._require_budget(s - 1)
        end = n + s

        # The children fill rows n..end-1, which stay invisible until the
        # commit below.  Each starts as a copy of the parent's row; along
        # the split dimension the shared interior edges lo + k*step are
        # computed once, so adjacent children have bit-identical
        # boundaries, and the outer edges reuse the parent's.  Python floats
        # do the same IEEE double operations as numpy arrays, so every
        # edge and midpoint is bit-identical to the array arithmetic.
        box = self._box
        d = self._depth[leaf_id] % self.dim
        lo_d = box.item(leaf_id, 0, d)
        up_d = box.item(leaf_id, 1, d)
        step = (up_d - lo_d) / s
        edges = [lo_d, *[lo_d + k * step for k in range(1, s)], up_d]
        block = box[n:end]
        block[:] = box[leaf_id]
        block[:, :, d] = [(a, b, (a + b) / 2.0) for a, b in zip(edges, edges[1:])]
        # Center reuse: the middle slab is not evaluated; it keeps the
        # parent's value (and, through _paid_id, the parent's point).
        mid = self._mid
        fresh = self.objective.evaluate_batch(
            block[:, 2].take(self._fresh_rows, axis=0)
        )

        parent_value = self._value[leaf_id]
        values = fresh[:mid] + [parent_value] + fresh[mid:]
        child_depth = self._depth[leaf_id] + 1
        heap = self._heaps.setdefault(child_depth, [])
        for cid, value in enumerate(values, start=n):
            heappush(heap, (value_key(value), cid))
        record = self.trace.record
        for value in fresh:
            record(value)
        self._value.extend(values)
        self._depth.extend([child_depth] * s)
        self._is_leaf.extend([True] * s)
        self._is_leaf[leaf_id] = False
        self.split_log.append(leaf_id)
        return list(range(n, end))

    def _peek_leaf(self, depth: int) -> tuple[float, int] | None:
        """Best (value_key, id) among leaves at a depth, lazily pruning."""
        heap = self._heaps.get(depth)
        if not heap:
            return None
        is_leaf = self._is_leaf
        while heap:
            key, cid = heap[0]
            if is_leaf[cid]:
                return key, cid
            heappop(heap)
        return None

    def sweep(self) -> list[int]:
        """One pass over the depths; returns the ids of the cells split.

        Walking depth 0 upward, the best leaf at each depth is split iff
        its value is strictly below every value split earlier in this
        sweep.  The pass stops at the depth cap, which is fixed when the
        sweep starts: the lesser of the current deepest leaf and the
        schedule's limit for the current evaluation count.  If the budget
        runs out mid-sweep the splits already made stand and the partial
        list is returned; a sweep that cannot afford even one split raises
        BudgetExhausted.
        """
        cap = min(
            self.max_leaf_depth,
            self.params.depth_schedule.limit(self.eval_count),
        )
        split_ids: list[int] = []
        v_min = math.inf
        depth = 0
        while depth <= cap:
            entry = self._peek_leaf(depth)
            if entry is not None:
                key, cid = entry
                if key < v_min:
                    try:
                        self.split_leaf(cid)
                    except BudgetExhausted:
                        if split_ids:
                            return split_ids
                        raise
                    split_ids.append(cid)
                    v_min = key
            depth += 1
        return split_ids

    # -- reporting ----------------------------------------------------------

    def incumbent(self) -> tuple[Array, float, int]:
        """Best evaluated point: (center copy, value, cell id).

        The cell is the first id with the smallest value_key, which is the
        earliest-created cell among ties; middle children share their
        ancestor's value but carry larger ids, so a reused center never
        displaces the cell that paid for it.  The point is always that of
        the cell that paid for the value.
        """
        keys = np.array(self._value)
        keys[~np.isfinite(keys)] = math.inf
        cid = int(keys.argmin())  # the first occurrence of the minimum
        return self._box[self._paid_id(cid), 2].copy(), self._value[cid], cid

    def leaves(self):
        """Views of the current leaves, in id order."""
        return (Cell(self, i) for i in range(len(self._value)) if self._is_leaf[i])


# ---------------------------------------------------------------------------
# operation-style wrappers and the full run loop
# ---------------------------------------------------------------------------


def new_tree(
    space: tuple, objective: Objective, params: SooParams | None = None
) -> PartitionTree:
    """Root a tree on the box `space` = (lower, upper), paying one evaluation."""
    lower, upper = space
    return PartitionTree(lower, upper, objective, params)


def split_leaf(tree: PartitionTree, leaf_id: int) -> list[int]:
    return tree.split_leaf(leaf_id)


def sweep(tree: PartitionTree) -> list[int]:
    return tree.sweep()


def incumbent(tree: PartitionTree) -> tuple[Array, float, int]:
    return tree.incumbent()


def run_soo(
    objective: Objective,
    budget: int,
    params: SooParams | None = None,
) -> RunResult:
    """Run sweeps until the budget is spent or the tree stagnates.

    Stagnation means a sweep returned no splits while budget remained,
    which can only happen under a finite depth cap; the incumbent at that
    point is final.  Raises ObjectiveDegenerate when every evaluated value
    was non-finite, so callers never receive a NaN incumbent.
    """
    check_count(budget, "budget", 1)
    tree = PartitionTree(
        objective.lower, objective.upper, objective, params, eval_budget=budget
    )
    while True:
        try:
            split_ids = tree.sweep()
        except BudgetExhausted:
            break
        if not split_ids:
            break

    point, value, _ = tree.incumbent()
    if not math.isfinite(value):
        raise ObjectiveDegenerate("every evaluated point was non-finite")

    return RunResult(
        best_point=point,
        trace=tree.trace.entries,
        ratio=ratio_to_optimum(value, objective.optimum_value),
        split_ids=tuple(tree.split_log),
    )
