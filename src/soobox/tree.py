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
the interval (lo, up) along the dimension its parent cut, (depth - 1) % D;
a cell's id is its position in the columns.  Its interval and value live
in array("d") columns, and its depth, leaf flag and split log in
array("I"), bytearray and array("q"), so no slot holds a float or int
object.  A leaf's heap entry is one int, (_order(value) << bits) | id,
where bits is the bit length of the last id the run's cap allows: keys
sort by value, then by id, so of tied values the earliest cell comes
first.  A NaN or +/-inf leaf, which no sweep splits, has none.  A cell's
corners are rebuilt by walking its nearest min(depth, D) ancestors,
itself included, which cut distinct dimensions, and taking the root box
for the rest.  Its midpoint is (lower + upper) / 2 in Python floats,
bit-identical to the same numpy arithmetic.  The split dimension is
depth % D, and the walk finds each parent at split_log[(id - 1) // S],
since the k-th split appends children 1 + k*S .. (k + 1)*S.  A split
evaluates its S - 1 fresh children at their midpoints, the leaf's
midpoint with the split coordinate replaced; the middle child keeps the
leaf's value unevaluated.

The per-sweep depth cap follows max(1, floor((ln t)^(3/2))) with t the
number of evaluations consumed when the sweep starts, so the tree may
deepen only logarithmically in the budget.  Constant and unbounded caps
are available for study.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .errors import NotALeaf, ObjectiveDegenerate
from .objectives import Objective, check_count, check_type, checked_box
from .result import RunLedger, RunResult

Array = np.ndarray

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")
_MAGNITUDE = 2**63 - 1


def _order(value: float) -> int:
    """An int that sorts as the finite double value does, -0.0 tying 0.0:
    its bits as a signed 64-bit int, a negative one's magnitude flipped."""
    (bits,) = _INT64.unpack(_DOUBLE.pack(value + 0.0))
    return bits if bits >= 0 else bits ^ _MAGNITUDE


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


def max_depth(evals: int, schedule: DepthSchedule | None = None) -> float:
    """Depth cap for a sweep starting after `evals` evaluations."""
    schedule = DepthSchedule.log32() if schedule is None else schedule
    check_type(schedule, DepthSchedule, "schedule")
    check_count(evals, "evals", 1)
    if schedule.kind == "log32":
        return max(1, math.floor(math.log(evals) ** 1.5))
    if schedule.kind == "constant":
        return schedule.value
    return math.inf


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
    """Read-only view of one box of the partition: its corners, value,
    depth, leaf flag and volume.

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
    def value(self) -> float:
        return self._tree._value[self.id]

    @property
    def depth(self) -> int:
        return self._tree._depth[self.id]

    @property
    def is_leaf(self) -> bool:
        return bool(self._tree._is_leaf[self.id])

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


def _frozen(values) -> Array:
    frozen = np.array(values, dtype=float)
    frozen.flags.writeable = False
    return frozen


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

    Cells live in an interval log: per-cell columns of the interval along
    the dimension the parent cut, value, depth and leaf flag, plus the
    root box stored once; a cell's id is its index, and its corners are
    derived (see the module docstring).  A cell costs the same few column
    slots whatever D is.

    Leaves with finite values are tracked per depth in min-heaps of packed
    int keys, (_order(value) << bits) | id, which sort as (value, id), so
    each sweep touches only the depths it visits and never rescans the
    whole frontier.  A sweep pops the leaf it splits only after split_leaf
    returns; stale entries from direct split_leaf calls are dropped lazily.

    Nothing is counted twice: the best-so-far trace is the run's one
    evaluation ledger, so eval_count is its length; max_leaf_depth is the
    number of depth heaps minus one; incumbent() is the cell id the trace
    recorded with its best value; and the trace is a RunLedger, which fixes
    the run's cap before the root is paid for and pays for every evaluation.
    """

    def __init__(
        self,
        lower,
        upper,
        objective: Objective,
        params: SooParams | None = None,
        eval_budget: int | None = None,
    ):
        check_type(objective, Objective, "objective")
        lower, upper = checked_box(lower, upper)
        self.params = SooParams() if params is None else params
        check_type(self.params, SooParams, "params")
        if eval_budget is not None:
            eval_budget = check_count(eval_budget, "eval_budget", 1)
        self.trace = RunLedger(objective, eval_budget)
        self.dim = lower.size
        self.split_log = array("q")
        s = self.params.s_children
        # heap keys are (order << bits) | id: bits hold the last id the cap allows
        self._bits = (s * ((self.trace.cap - 1) // (s - 1))).bit_length()
        self._mask = (1 << self._bits) - 1

        center = (lower + upper) / 2.0
        value = self.trace.evaluate(center, 0)

        self._root = (lower.tolist(), upper.tolist(), center.tolist())
        # D - 1 .. 0 twice: a slice of it lists the dimensions cut along a path
        self._dims_down = list(range(self.dim - 1, -1, -1)) * 2
        # the root was cut by no parent: its slots are never read
        self._lo = array("d", [math.nan])
        self._up = array("d", [math.nan])
        self._value = array("d", [value])
        self._depth = array("I", [0])
        self._is_leaf = bytearray([True])
        root = [_order(value) << self._bits] if math.isfinite(value) else []
        self._heaps: dict[int, list[int]] = {0: root}

    # -- evaluation plumbing ------------------------------------------------

    @property
    def eval_count(self) -> int:
        """Evaluations consumed: one trace entry per evaluation."""
        return len(self.trace.entries)

    # -- structure ----------------------------------------------------------

    @property
    def max_leaf_depth(self) -> int:
        """Depth of the deepest leaf: a depth's heap is created by the first
        split that commits children there, so the depths are 0..len - 1."""
        return len(self._heaps) - 1

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
        leaf_id = check_count(leaf_id, "leaf_id", 0)
        if leaf_id >= n:
            raise ValueError(f"no cell with id {leaf_id}")
        if not self._is_leaf[leaf_id]:
            raise NotALeaf(f"cell {leaf_id} was already split")
        s = self.params.s_children

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
        # parent's value.
        mid = (s - 1) // 2
        points, fresh_ids = [], []
        for k in range(s):
            if k != mid:
                point = center.copy()
                point[d] = (edges[k] + edges[k + 1]) / 2.0
                points.append(point)
                fresh_ids.append(n + k)
        fresh = self.trace.evaluate_batch(points, fresh_ids)

        values = fresh[:mid] + [self._value[leaf_id]] + fresh[mid:]
        self._lo.fromlist(edges[:-1])
        self._up.fromlist(edges[1:])
        self._value.fromlist(values)
        self._depth.extend([depth + 1] * s)
        self._is_leaf.extend([True] * s)
        self._is_leaf[leaf_id] = False
        self.split_log.append(leaf_id)
        # heaps grow last: of the orders measured, this left the lowest peak RSS
        heap, bits = self._heaps.setdefault(depth + 1, []), self._bits
        for cid, value in enumerate(values, start=n):
            if math.isfinite(value):
                heappush(heap, (_order(value) << bits) | cid)
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
        schedule = self.params.depth_schedule
        cap = min(self.max_leaf_depth, max_depth(self.eval_count, schedule))
        affordable = self.trace.left // (self.params.s_children - 1)
        heaps, is_leaf, mask = self._heaps, self._is_leaf, self._mask
        split_ids: list[int] = []
        # keys compare by order first, so a key undercuts v_min iff its
        # value does; every key undercuts the start
        v_min = math.inf
        for depth in range(cap + 1):
            # the best leaf at this depth, lazily dropping split cells
            heap = heaps[depth]
            while heap and not is_leaf[heap[0] & mask]:
                heappop(heap)
            if heap and heap[0] < v_min:
                if not affordable:
                    return split_ids
                cid = heap[0] & mask
                v_min = heap[0] - cid
                self.split_leaf(cid)
                heappop(heap)
                affordable -= 1
                split_ids.append(cid)
        return split_ids

    # -- reporting ----------------------------------------------------------

    def incumbent(self) -> tuple[Array, float, int]:
        """Best evaluated point: (read-only center, value, cell id).

        The cell is the one whose evaluation the trace's best-so-far rule
        picked; it paid for its value, so its own center is the point.
        """
        cid = self.trace.incumbent
        return _frozen(self._box(cid)[2]), self._value[cid], cid


# ---------------------------------------------------------------------------
# operation-style wrappers and the full run loop
# ---------------------------------------------------------------------------


def new_tree(
    space: tuple, objective: Objective, params: SooParams | None = None
) -> PartitionTree:
    """Root a tree on the box `space` = (lower, upper), paying one evaluation."""
    lower, upper = space
    return PartitionTree(lower, upper, objective, params)


def sweep(tree: PartitionTree) -> list[int]:
    return tree.sweep()


def run_soo(
    objective: Objective,
    budget: int,
    params: SooParams | None = None,
) -> RunResult:
    """Run sweeps until one makes no split.

    A sweep makes no split when the run's cap (its RunLedger's, from
    budget) cannot pay for one (tree.trace.left < S - 1), or when the tree
    stagnates, which only a finite depth cap allows; the incumbent then is
    final.  Raises ObjectiveDegenerate when every evaluated value was
    non-finite, so no incumbent is NaN.
    """
    check_type(objective, Objective, "objective")
    tree = PartitionTree(
        objective.lower, objective.upper, objective, params, eval_budget=budget
    )
    while tree.sweep():
        pass

    if not math.isfinite(tree.trace.best_value):
        raise ObjectiveDegenerate("every evaluated point was non-finite")

    return tree.trace.result(tree.incumbent()[0], tree.split_log)
