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

Storage: the tree reads its objective's box once and keeps one row per
split and one per cell.  Split j appends children 1 + j*S .. (j + 1)*S,
so cell id > 0 comes from split j = (id - 1) // S, whose row holds its
parent, split_log[j], its S + 1 edges along the cut dimension,
edges[(S + 1)*j ..], which adjacent children share, and its children's
depth, depth[j + 1] (depth[0] is the root's 0).  So cell id's interval
is edges[id - 1 + j] .. edges[id + j], its depth is
depth[(id + S - 1) // S], and per cell the tree keeps only the value and
the leaf flag.  The columns are array("d"), array("I"), array("q") and a
bytearray, so no slot holds a float or int object.  Each depth's heap
holds one entry per sibling group, the S children of one split or the
root alone: its smallest (value, id) finite leaf's key, one int,
(_order(value) << bits) | id, where bits is the bit length of the last
id the run's cap allows.  Keys sort by value, then by id, so of tied
values the earliest cell comes first, and a depth's best leaf is the
least of its groups' entries.  So the heaps hold at most one key per
split plus the root's, and a 10-D protocol run peaks at 63 B per
evaluation under tracemalloc, against 92 B with a key per finite leaf.
A NaN or +/-inf leaf, which no sweep splits, is no entry.  A cell's
midpoint is rebuilt by walking its nearest min(depth, D) ancestors,
itself included, which cut distinct dimensions ((depth - 1) % D
downward), and taking the root box for the rest; it is
(lower + upper) / 2 in Python floats, bit-identical to the same numpy
arithmetic.  The split dimension is depth % D.  A split's walk builds
only the leaf's midpoint and its interval along the split dimension;
the S - 1 fresh children are evaluated at their midpoints, the leaf's
midpoint with the split coordinate replaced, as one block, and the
middle child keeps the leaf's value unevaluated.
tree.cells[k] makes one such walk that also fills in the corners, and
returns a Cell record, a snapshot that later splits do not change.

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
from heapq import heappop, heappush, heapreplace

import numpy as np

from .errors import InvalidBounds, NotALeaf, ObjectiveDegenerate
from .objectives import Objective, as_floats, check_count, check_type, frozen
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


@dataclass(frozen=True, slots=True, eq=False)
class Cell:
    """One cell as it was when read: its id, read-only corners, value,
    depth and leaf flag.  A record that holds no tree, so a cell read
    before its leaf is split still says is_leaf."""

    id: int
    lower: Array
    upper: Array
    value: float
    depth: int
    is_leaf: bool

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


class CellsView(Sequence):
    """Read-only sequence over a tree's cells, indexed by id: each item is
    a Cell record built by one walk of the split table when it is read."""

    __slots__ = ("_tree",)

    def __init__(self, tree: "PartitionTree"):
        self._tree = tree

    def __len__(self) -> int:
        return len(self._tree._value)

    def __getitem__(self, index):
        tree = self._tree
        cid = range(len(tree._value))[index]
        if isinstance(index, slice):
            return [self[i] for i in cid]
        lower, upper = tree._root[0].copy(), tree._root[1].copy()
        depth = tree._walk(cid, lower, upper)[3]
        return Cell(
            cid, frozen(lower), frozen(upper), tree._value[cid], depth,
            bool(tree._is_leaf[cid]),
        )


# ---------------------------------------------------------------------------
# the tree
# ---------------------------------------------------------------------------

class PartitionTree:
    """Partition state plus the evaluation trace for one run.

    Leaves with finite values are tracked per depth in min-heaps of packed
    int keys, (_order(value) << bits) | id, which sort as (value, id), one
    per sibling group: its smallest finite leaf.  So each sweep touches
    only the depths it visits and never rescans the whole frontier.  Only
    after split_leaf returns does a sweep put the group's next finite leaf
    in place of the one it split, or pop the entry when none is left; an
    entry whose leaf a direct split_leaf call split moves on the same way
    once a sweep finds it on top.

    Nothing is counted twice: the best-so-far trace is the run's one
    evaluation ledger, so eval_count is its length; max_leaf_depth is the
    number of depth heaps minus one; the trace's incumbent is the id of
    the cell that paid for its best value, whose midpoint incumbent()
    returns; and the trace is a RunLedger, which checks the objective and
    eval_budget, fixes the run's cap before the root is paid for and pays
    for every evaluation.
    """

    def __init__(
        self,
        objective: Objective,
        params: SooParams | None = None,
        eval_budget: int | None = None,
    ):
        self.params = SooParams() if params is None else params
        check_type(self.params, SooParams, "params")
        self.trace = RunLedger(objective, eval_budget)
        lower, upper = objective.lower, objective.upper
        self.dim = lower.size
        self.split_log = array("q")
        s = self.params.s_children
        # heap keys are (order << bits) | id: bits hold the last id the cap allows
        self._bits = (s * ((self.trace.cap - 1) // (s - 1))).bit_length()
        self._mask = (1 << self._bits) - 1

        center = (lower + upper) / 2.0
        [value] = self.trace.evaluate_batch(center[np.newaxis], (0,))

        self._root = (lower.tolist(), upper.tolist(), center.tolist())
        # by split dimension d, the dimensions cut along a path, nearest
        # first: (d - 1) % D downward, all D of them
        dims = range(self.dim)
        self._paths = [[(d - 1 - i) % self.dim for i in dims] for d in dims]
        # the slabs a split evaluates: all but the middle one
        self._fresh = [k for k in range(s) if k != s // 2]
        self._edges = array("d")
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

    def _walk(
        self, cell_id: int, lower=None, upper=None
    ) -> tuple[list[float], float, float, int]:
        """A cell's midpoint, as a fresh list, its interval along depth % D,
        the dimension its split cuts, and its depth.  The nearest min(depth, D)
        cells on its path, itself first, cut the dimensions (depth - 1) % D
        downward, and the root box gives the rest; lists lower and upper,
        when given (copies of the root's corners), take those cuts too."""
        root_lower, root_upper, center = self._root
        center = center.copy()
        edges, log = self._edges, self.split_log
        dim, s = self.dim, self.params.s_children
        depth = self._depth[(cell_id + s - 1) // s]
        d = depth % dim
        path = self._paths[d]
        for j in path if depth >= dim else path[:depth]:
            row = (cell_id - 1) // s
            lo, up = edges[cell_id - 1 + row], edges[cell_id + row]
            center[j] = (lo + up) / 2.0
            if lower is not None:
                lower[j], upper[j] = lo, up
            cell_id = log[row]
        if depth < dim:  # no cell on the path cut d
            lo, up = root_lower[d], root_upper[d]
        return center, lo, up, depth

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
        s, dim = self.params.s_children, self.dim

        # Along the split dimension the interior edges lo + k*step are
        # computed and stored once, each shared by the two children it
        # bounds, and the outer edges reuse the parent's.  A fresh
        # child's point is the parent's midpoint with that one coordinate
        # replaced by its slab's midpoint: one row of a flat block.
        # (Loops, not comprehensions: at S items they cost less.)
        center, lo_d, up_d, depth = self._walk(leaf_id)
        step = (up_d - lo_d) / s
        edges = [lo_d]
        for k in range(1, s):
            edges.append(lo_d + k * step)
        edges.append(up_d)
        fresh = self._fresh
        block = center * (s - 1)
        pos = depth % dim
        for k in fresh:
            block[pos] = (edges[k] + edges[k + 1]) / 2.0
            pos += dim
        block = np.array(block).reshape(s - 1, dim)
        values = self.trace.evaluate_batch(block, map(n.__add__, fresh))

        # Center reuse: the middle slab was not evaluated; it keeps the
        # parent's value.
        values.insert(s // 2, self._value[leaf_id])
        self._edges.fromlist(edges)
        self._value.fromlist(values)
        self._depth.append(depth + 1)
        self._is_leaf.extend(b"\1" * s)
        self._is_leaf[leaf_id] = False
        self.split_log.append(leaf_id)
        # heaps grow last: of the orders measured, this left the lowest peak
        # RSS; the new group's entry is its best finite child
        heap = self._heaps.setdefault(depth + 1, [])
        key = self._group_key(n, n + s)
        if key is not None:
            heappush(heap, key)
        return list(range(n, n + s))

    def _group_key(self, first: int, end: int) -> int | None:
        """The key of the smallest (value, id) finite leaf among cells
        first .. end - 1, or None: strict < keeps the earliest of ties,
        and NaN passes neither comparison."""
        values, is_leaf = self._value, self._is_leaf
        best, cid = math.inf, -1
        for i in range(first, end):
            value = values[i]
            if -math.inf < value < best and is_leaf[i]:
                best, cid = value, i
        return None if cid < 0 else (_order(best) << self._bits) | cid

    def _advance(self, heap: list[int]) -> None:
        """Put the next entry of its sibling group in place of heap[0],
        whose cell was split, or pop it when the group has no finite leaf
        left; the root's group is the root alone."""
        cid = heap[0] & self._mask
        first = cid - (cid - 1) % self.params.s_children if cid else 0
        key = self._group_key(first, first + self.params.s_children if cid else 1)
        if key is None:
            heappop(heap)
        else:
            heapreplace(heap, key)

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
            # the best leaf at this depth, lazily advancing the entries of
            # cells that direct split_leaf calls split
            heap = heaps[depth]
            while heap and not is_leaf[heap[0] & mask]:
                self._advance(heap)
            if heap and heap[0] < v_min:
                if not affordable:
                    return split_ids
                cid = heap[0] & mask
                v_min = heap[0] - cid
                self.split_leaf(cid)
                self._advance(heap)
                affordable -= 1
                split_ids.append(cid)
        return split_ids

    # -- reporting ----------------------------------------------------------

    def incumbent(self) -> Array:
        """Best evaluated point, read-only: the midpoint of the cell the
        trace's best-so-far rule picked (trace.incumbent), which paid for
        its value (trace.best_value)."""
        return frozen(self._walk(self.trace.incumbent)[0])


# ---------------------------------------------------------------------------
# operation-style wrappers and the full run loop
# ---------------------------------------------------------------------------


def new_tree(
    space: tuple, objective: Objective, params: SooParams | None = None
) -> PartitionTree:
    """Root a tree on objective's box, paying one evaluation.  space =
    (lower, upper) must be that box, or InvalidBounds is raised with
    nothing metered; to search a sub-box, build an Objective on it."""
    space = as_floats(space, "space", InvalidBounds)
    check_type(objective, Objective, "objective")
    if not np.array_equal(space, (objective.lower, objective.upper)):
        raise InvalidBounds("space must be the objective's box")
    return PartitionTree(objective, params)


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
    tree = PartitionTree(objective, params, eval_budget=budget)
    while tree.sweep():
        pass

    if not math.isfinite(tree.trace.best_value):
        raise ObjectiveDegenerate("every evaluated point was non-finite")

    # the tree ends here, so the result takes its split log rather than a
    # copy made while every column and heap is still alive
    result = tree.trace.result(tree.incumbent())
    result.split_ids = tree.split_log
    return result
