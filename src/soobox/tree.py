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

Storage: the tree keeps the root box once and, for every other cell, only
the interval (lo, up) along the dimension its parent cut, (depth - 1) % D,
in two lists of Python floats; a cell's id is its position in them.  A
cell's corners are rebuilt by walking its nearest min(depth, D) ancestors,
itself included, which cut distinct dimensions, and taking the root box
for the rest.  Its midpoint is (lower + upper) / 2 in Python floats,
bit-identical to the same numpy arithmetic.  Two per-cell fields are
derived rather than stored: the split dimension is depth % D, and the
parent of cell id > 0 is split_log[(id - 1) // S], since the k-th split
appends children 1 + k*S .. (k + 1)*S.  A middle child
((id - 1) % S == (S - 1) // 2) is never evaluated at its own midpoint: its
center is the point of the nearest ancestor that paid for its value.

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
from .objectives import Objective, check_count, check_type, checked_box
from .result import RunResult, TraceRecorder, value_key

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
            cap = check_count(self.value, "constant depth cap", 0)
            object.__setattr__(self, "value", cap)
        elif self.value is not None:
            raise ValueError(f"{self.kind} schedule takes no value")

    @staticmethod
    def log32() -> "DepthSchedule":
        return DepthSchedule("log32")

    @staticmethod
    def constant(depth: int) -> "DepthSchedule":
        return DepthSchedule("constant", depth)

    @staticmethod
    def unbounded() -> "DepthSchedule":
        return DepthSchedule("unbounded")

    def limit(self, evals: int) -> float:
        """Depth cap given the evaluation count at the start of a sweep."""
        check_count(evals, "evals", 1)
        if self.kind == "log32":
            return max(1, math.floor(math.log(evals) ** 1.5))
        if self.kind == "constant":
            return self.value
        return math.inf


def max_depth(evals: int, schedule: DepthSchedule | None = None) -> float:
    """Depth cap for a sweep starting after `evals` evaluations."""
    schedule = DepthSchedule.log32() if schedule is None else schedule
    check_type(schedule, DepthSchedule, "schedule")
    return schedule.limit(evals)


# ---------------------------------------------------------------------------
# parameters and cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SooParams:
    """Structural knobs for the partition optimizer.

    s_children must be odd and >= 3 so the middle child can reuse the
    parent's center evaluation; depth_schedule must be a DepthSchedule.
    """

    s_children: int = 3
    depth_schedule: DepthSchedule = field(default_factory=DepthSchedule.log32)

    def __post_init__(self):
        s = check_count(self.s_children, "s_children", 3)
        object.__setattr__(self, "s_children", s)
        if self.s_children % 2 == 0:
            raise ValueError(f"s_children must be odd, got {self.s_children}")
        check_type(self.depth_schedule, DepthSchedule, "depth_schedule")


class Cell:
    """Read-only view of one box of the partition, evaluated at its center.

    Each box array is built fresh from the tree's interval log on access
    and is read-only.  A view holds its tree; the tree never holds a view.
    """

    __slots__ = ("_tree", "id")

    def __init__(self, tree: "PartitionTree", cell_id: int):
        self._tree = tree
        self.id = cell_id

    @property
    def lower(self) -> Array:
        return _frozen(self._tree._box(self.id)[0])

    @property
    def upper(self) -> Array:
        return _frozen(self._tree._box(self.id)[1])

    @property
    def center(self) -> Array:
        """The point this cell's value was evaluated at."""
        return _frozen(self._tree._box(self._tree._paid_id(self.id))[2])

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


def _frozen(values) -> Array:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


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

    Cells live in an interval log: per-cell lists of the interval along
    the dimension the parent cut, value, depth and leaf flag, plus the
    root box stored once; a cell's id is its index, and its corners,
    split dimension, parent and center are derived (see the module
    docstring).  A cell costs the same few list slots whatever D is.

    Leaves are tracked per depth in lazy-deletion min-heaps keyed by
    (value_key, id), so each sweep touches only the depths it visits and
    never rescans the whole frontier.

    Nothing is counted twice: the best-so-far trace is the run's one
    evaluation ledger, so eval_count is its length; max_leaf_depth is the
    number of depth heaps minus one; incumbent() is the first cell
    holding the trace's best value; and eval_budget, the run's cap, is
    fixed before the root is paid for (the objective's remaining budget,
    or eval_budget if smaller), so remaining is eval_budget - eval_count.
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
        self.params = SooParams() if params is None else params
        check_type(self.params, SooParams, "params")
        self.objective = objective
        self.eval_budget = objective.remaining
        if eval_budget is not None:
            cap = check_count(eval_budget, "eval_budget", 1)
            self.eval_budget = min(cap, self.eval_budget)
        self.dim = lower.size
        self.split_log: list[int] = []
        self.trace = TraceRecorder()
        self._mid = (self.params.s_children - 1) // 2

        # an objective with nothing left raises here, from its own meter
        center = (lower + upper) / 2.0
        value = self.objective.evaluate(center)
        self.trace.record(value)

        self._root = (lower.tolist(), upper.tolist(), center.tolist())
        # D - 1 .. 0 twice: a slice of it lists the dimensions cut along a path
        self._dims_down = list(range(self.dim - 1, -1, -1)) * 2
        # the root was cut by no parent: its slots are never read
        self._lo: list[float] = [math.nan]
        self._up: list[float] = [math.nan]
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
        return self.eval_budget - self.eval_count

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

    def _box(self, cell_id: int) -> tuple[list[float], list[float], list[float]]:
        """A cell's lower corner, upper corner and midpoint, as fresh lists:
        the nearest min(depth, D) cells on its path, itself first, cut the
        dimensions (depth - 1) % D downward; the root box gives the rest."""
        lower, upper, center = self._root
        lower, upper, center = lower.copy(), upper.copy(), center.copy()
        los, ups, log = self._lo, self._up, self.split_log
        dim, s = self.dim, self.params.s_children
        depth = self._depth[cell_id]
        start = dim - depth % dim
        for j in self._dims_down[start:start + min(depth, dim)]:
            lower[j] = lo = los[cell_id]
            upper[j] = up = ups[cell_id]
            center[j] = (lo + up) / 2.0
            cell_id = log[(cell_id - 1) // s]
        return lower, upper, center

    @property
    def cells(self) -> CellsView:
        """Read-only views of every cell, indexed by id (a fresh view per access)."""
        return CellsView(self)

    def split_leaf(self, leaf_id: int) -> list[int]:
        """Split a leaf into S slabs along its scheduled dimension.

        Costs exactly S - 1 evaluations, taken all-or-nothing: the fresh
        centers are evaluated as one metered batch before the tree changes,
        so when the run's cap cannot cover a full split (BudgetExhausted)
        or the objective raises, the tree, its trace and the meter are left
        untouched.  Returns the child ids in order.
        """
        n = len(self._value)
        if not 0 <= leaf_id < n:
            raise ValueError(f"no cell with id {leaf_id}")
        if not self._is_leaf[leaf_id]:
            raise NotALeaf(f"cell {leaf_id} was already split")
        s = self.params.s_children
        if len(self.trace.entries) + s - 1 > self.eval_budget:
            raise BudgetExhausted(f"need {s - 1} evaluations, {self.remaining} left")

        # Along the split dimension the shared interior edges lo + k*step
        # are computed once, so adjacent children have bit-identical
        # boundaries, and the outer edges reuse the parent's.  A fresh
        # child's point is the parent's midpoint with that one coordinate
        # replaced by its slab's midpoint.
        lower, upper, center = self._box(leaf_id)
        depth = self._depth[leaf_id]
        d = depth % self.dim
        lo_d, up_d = lower[d], upper[d]
        step = (up_d - lo_d) / s
        edges = [lo_d, *[lo_d + k * step for k in range(1, s)], up_d]
        # Center reuse: the middle slab is not evaluated; it keeps the
        # parent's value (and, through _paid_id, the parent's point).
        mid = self._mid
        points = []
        for k in range(s):
            if k != mid:
                point = center.copy()
                point[d] = (edges[k] + edges[k + 1]) / 2.0
                points.append(point)
        fresh = self.objective.evaluate_batch(points)

        values = fresh[:mid] + [self._value[leaf_id]] + fresh[mid:]
        heap = self._heaps.setdefault(depth + 1, [])
        for cid, value in enumerate(values, start=n):
            heappush(heap, (value if math.isfinite(value) else math.inf, cid))
        self.trace.extend(fresh)
        self._lo.extend(edges[:-1])
        self._up.extend(edges[1:])
        self._value.extend(values)
        self._depth.extend([depth + 1] * s)
        self._is_leaf.extend([True] * s)
        self._is_leaf[leaf_id] = False
        self.split_log.append(leaf_id)
        return list(range(n, n + s))

    def sweep(self) -> list[int]:
        """One pass over the depths; returns the ids of the cells split.

        Walking depth 0 upward, the best leaf at each depth is split iff
        its value is strictly below every value split earlier in this
        sweep.  The pass stops at the depth cap, which is fixed when the
        sweep starts: the lesser of the current deepest leaf and the
        schedule's limit for the current evaluation count.  The sweep stops
        at the first split it would make but cannot pay for under the
        run's cap, and returns the splits already made: [] when it could
        afford none.  It raises no BudgetExhausted of its own.
        """
        cap = min(
            self.max_leaf_depth,
            self.params.depth_schedule.limit(self.eval_count),
        )
        affordable = self.remaining // (self.params.s_children - 1)
        heaps, is_leaf = self._heaps, self._is_leaf
        split_ids: list[int] = []
        v_min = math.inf
        for depth in range(cap + 1):
            # the best leaf at this depth, lazily dropping split cells
            heap = heaps[depth]
            while heap and not is_leaf[heap[0][1]]:
                heappop(heap)
            if heap and heap[0][0] < v_min:
                if not affordable:
                    return split_ids
                v_min, cid = heap[0]
                self.split_leaf(cid)
                affordable -= 1
                split_ids.append(cid)
        return split_ids

    # -- reporting ----------------------------------------------------------

    def incumbent(self) -> tuple[Array, float, int]:
        """Best evaluated point: (read-only center, value, cell id).

        The cell is the first one holding the trace's best value.  Ids
        follow evaluation order and a middle child holds its parent's
        value at a larger id, so that first cell is the one whose
        evaluation the trace's best-so-far rule picked, and its own center
        is the point.
        """
        cid = self._value.index(self.trace.best_value)
        return _frozen(self._box(cid)[2]), self._value[cid], cid

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
    """Run sweeps until one makes no split.

    A sweep makes no split when the run's cap, the lesser of budget and
    the objective's remaining budget, cannot pay for one (tree.remaining
    < S - 1), or when the tree stagnates, which only a finite depth cap
    allows; the incumbent then is final.  Raises ObjectiveDegenerate when
    every evaluated value was non-finite, so no incumbent is NaN.
    """
    tree = PartitionTree(
        objective.lower, objective.upper, objective, params, eval_budget=budget
    )
    while tree.sweep():
        pass

    if not math.isfinite(tree.trace.best_value):
        raise ObjectiveDegenerate("every evaluated point was non-finite")

    return RunResult(
        best_point=tree.incumbent()[0],
        trace=tree.trace.entries,
        f_star=objective.optimum_value,
        split_ids=tuple(tree.split_log),
    )
