"""Bandit machinery and naive comparators.

Upper-confidence-bound selection over a finite arm set, a fixed-horizon
bandit runner, uniform random search over a box, and a discretized-domain
bandit that treats grid-cell centers as arms.  The last two pay for
evaluations through a RunLedger, as the partition optimizer does, so the
harness can compare them head to head.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import UnpulledArm
from .objectives import Objective, check_count, check_exploration, check_real, check_type
from .result import RunLedger, RunResult

DEFAULT_EXPLORATION = 2.0
DEFAULT_GRID_RESOLUTION = 3
GRID_ARM_CAP = 3 ** 6
BLOCK = 1024


# ---------------------------------------------------------------------------
# arm statistics and the selection rule
# ---------------------------------------------------------------------------


class ArmStats:
    """Pull counts and reward sums for K arms, kept grouped by pull count.

    Means are kept as (sum, count) pairs so each empirical mean is the
    exact running average of that arm's rewards.  `pulls` is a read-only
    int64 view of the counts: only update changes one.

    From the first pick on, the arms are also kept in one group per pull
    count n, each sorted by (mean descending, index ascending); update
    moves an arm from group n to group n + 1 with bisect.  Every arm of a
    group shares the bonus sqrt(c * ln t / n), and rounding mean + bonus
    never reverses the order of two means, so no arm of a group outscores
    its leader and ucb_arm scores one leader per group: a pick costs O(G)
    for G distinct pull counts, not O(K).  A NaN mean stays NaN and scores
    NaN, which never wins, so such an arm leaves the groups.
    """

    def __init__(self, n_arms: int):
        check_count(n_arms, "n_arms", 1)
        self._pulls = np.zeros(n_arms, dtype=np.int64)
        self._sums = np.zeros(n_arms, dtype=np.float64)
        self._pulls_view = self._pulls.view()
        self._pulls_view.flags.writeable = False
        # {pull count: [(-mean, arm), ...] sorted}, built at the first pick
        self._groups: dict[int, list[tuple[float, int]]] | None = None
        self._unpulled = n_arms  # arms with no pull yet, kept by update
        self.t = 0

    @property
    def pulls(self) -> np.ndarray:
        """Per-arm pull counts, a read-only int64 view."""
        return self._pulls_view

    @property
    def n_arms(self) -> int:
        return len(self._pulls)

    @property
    def means(self) -> list[float]:
        """Per-arm empirical means, NaN for arms never pulled."""
        return [
            s / n if n else math.nan
            for s, n in zip(self._sums.tolist(), self._pulls.tolist())
        ]

    def update(self, arm: int, reward: float) -> float:
        """Record one pull, returning the float reward; a bad arm or reward
        (NaN, +/-inf are valid) raises ValueError before anything changes."""
        arm = check_count(arm, "arm", 0)
        if arm >= len(self._pulls):
            raise ValueError(f"no arm with index {arm}")
        reward = check_real(reward, "reward")
        # float arithmetic, as numpy's scalar add warns on +inf plus -inf;
        # the IEEE result, NaN, is the same
        n, total = self._pulls.item(arm), self._sums.item(arm)
        self._pulls[arm] = n + 1
        self._sums[arm] = total + reward
        self.t += 1
        if not n:
            self._unpulled -= 1
        groups = self._groups
        if groups is not None:
            old, new = total / n, (total + reward) / (n + 1)
            if not math.isnan(old):
                group = groups[n]
                # ucb_arm's pick is most often its group's leader
                if group[0][1] == arm:
                    del group[0]
                else:
                    del group[bisect.bisect_left(group, (-old, arm))]
                if not group:
                    del groups[n]
            if not math.isnan(new):
                bisect.insort(groups.setdefault(n + 1, []), (-new, arm))
        return reward

    def ucb_arm(self, c: float) -> int:
        """ucb_select's arm without its checks: c must be a float from
        check_exploration and every arm pulled at least once."""
        if self._groups is None:
            self._groups = {}
            counts = self._pulls.tolist()
            for arm, (s, n) in enumerate(zip(self._sums.tolist(), counts)):
                mean = s / n
                if not math.isnan(mean):
                    self._groups.setdefault(n, []).append((-mean, arm))
            for group in self._groups.values():
                group.sort()
        log_term = c * math.log(self.t)
        best, arm = -math.inf, 0
        for n, group in self._groups.items():
            bonus = math.sqrt(log_term / n)
            score = bonus - group[0][0]  # the leader's mean + bonus
            # strict > from -inf: a NaN score never wins, and arm 0 stays
            # picked while no score exceeds -inf
            if score > best:
                best, arm = score, self._first_scoring(group, bonus, score)
            elif score == best:
                arm = min(arm, self._first_scoring(group, bonus, score))
        return arm

    def _first_scoring(self, group: list, bonus: float, score: float) -> int:
        """The smallest index in group whose arm scores `score`, the leader's.

        Such means are a prefix of the group, as rounding keeps their
        order, and each run of equal means starts with its smallest index,
        so the search skips the rest of a run with bisect, never arm by arm."""
        arm, i, end = group[0][1], 1, len(group)
        while i < end and bonus - group[i][0] == score:
            if group[i][0] == group[i - 1][0]:
                i = bisect.bisect_right(group, (group[i][0], self.n_arms), i)
            else:
                arm = min(arm, group[i][1])
                i += 1
        return arm


def ucb_select(stats: ArmStats, c: float = DEFAULT_EXPLORATION) -> int:
    """Arm maximizing mean + sqrt(c * ln t / pulls); ties to smallest index.

    Every arm must have been pulled at least once (the bonus is undefined
    at zero pulls), which the runners guarantee by an initialization round
    in index order.  When no score exceeds -inf (every mean is NaN or
    -inf, as after non-finite objective values) arm 0 is chosen.
    """
    check_type(stats, ArmStats, "stats")
    c = check_exploration(c)
    if stats._unpulled:
        raise UnpulledArm(f"arm {int(stats.pulls.argmin())} has no observations")
    return stats.ucb_arm(c)


def next_arm(stats: ArmStats, c: float = DEFAULT_EXPLORATION) -> int:
    """The arm to pull next: one pull per arm in index order, then ucb_select."""
    return stats.t if stats.t < stats.n_arms else ucb_select(stats, c)


# ---------------------------------------------------------------------------
# fixed-horizon bandit runner
# ---------------------------------------------------------------------------


@dataclass
class UcbRun:
    """One bandit run: its (arm, reward) history, one entry per round, and
    its arm statistics at the horizon (stats.pulls, stats.means)."""

    history: list[tuple[int, float]]
    stats: ArmStats = field(repr=False)


def run_ucb(
    reward_sources: Sequence[Callable[[], float]],
    horizon: int,
    c: float = DEFAULT_EXPLORATION,
) -> UcbRun:
    """Play `horizon` rounds of UCB over callable reward sources.

    Each source is called with no arguments for one reward; determinism is
    the caller's business (see bernoulli_arms for seeded sources).  The
    horizon must cover the initialization round (one pull per arm).
    """
    k = len(reward_sources)
    stats = ArmStats(k)
    check_count(horizon, "horizon", k)
    check_exploration(c)
    history: list[tuple[int, float]] = []
    for _ in range(horizon):
        arm = next_arm(stats, c)
        history.append((arm, stats.update(arm, reward_sources[arm]())))
    return UcbRun(history=history, stats=stats)


def bernoulli_arms(
    probabilities: Sequence[float], seed: int
) -> list[Callable[[], float]]:
    """Independent seeded Bernoulli reward sources, one stream per arm; a
    probability other than a real number in [0, 1] raises ValueError."""
    check_count(seed, "seed", 0)
    for i, p in enumerate(probabilities):
        if not 0.0 <= check_real(p, f"probabilities[{i}]") <= 1.0:
            raise ValueError(f"probabilities[{i}] must be in [0, 1], got {p!r}")
    children = np.random.SeedSequence(seed).spawn(len(probabilities))
    arms = []
    for p, child in zip(probabilities, children):
        rng = np.random.default_rng(child)
        arms.append(lambda p=p, rng=rng: 1.0 if rng.random() < p else 0.0)
    return arms


# ---------------------------------------------------------------------------
# box-domain baselines
# ---------------------------------------------------------------------------


def run_random_search(objective: Objective, budget: int, seed: int) -> RunResult:
    """Evaluate i.i.d. uniform points from a seeded generator.

    Points are drawn and evaluated in blocks of up to BLOCK rows:
    one `rng.uniform(lower, upper, size=(k, D))` draw yields the same
    stream as k single-point draws, and each block goes through the
    metered, all-or-nothing Objective.evaluate_batch.  If an evaluation
    raises, the meter therefore stays at the start of its block; no
    value from that block was handed back.
    """
    check_count(seed, "seed", 0)
    ledger = RunLedger(objective, check_count(budget, "budget", 1))
    rng = np.random.default_rng(seed)
    while ledger.left:
        k = min(BLOCK, ledger.left)
        points = rng.uniform(objective.lower, objective.upper, size=(k, objective.dim))
        ledger.evaluate_batch(points, points)
    return ledger.result(ledger.incumbent.copy())


def grid_divisions(dim: int, resolution: int) -> list[int]:
    """Per-dimension division counts for the lattice of arm centers.

    The first dimensions get `resolution` divisions each until adding
    another would push the lattice size past GRID_ARM_CAP; the rest stay
    at one division, so the arm count never exceeds the cap.
    """
    check_count(resolution, "resolution", 1)
    divisions = [1] * check_count(dim, "dim", 1)
    total = 1
    for j in range(dim):
        if total * resolution > GRID_ARM_CAP:
            break
        divisions[j] = resolution
        total *= resolution
    return divisions


def run_ucb_grid(
    objective: Objective,
    budget: int,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    c: float = DEFAULT_EXPLORATION,
) -> RunResult:
    """Bandit over grid-cell centers: reward of an arm = -f(center).

    The box is cut into a lattice (see grid_divisions); each lattice cell's
    center is an arm.  The objective is taken as deterministic, so an arm's
    reward is its first pull's: every arm is pulled once, in index order,
    as one block, then UCB schedules up to BLOCK pulls at a time from those
    rewards.  Each pull still re-evaluates its center against the budget,
    keeping the comparison with the other optimizers honest; a block whose
    evaluation raises meters nothing.  A noisy objective's statistics see
    each arm's first value only; run_ucb plays noisy rewards.
    """
    check_type(objective, Objective, "objective")
    c = check_exploration(c)
    divisions = grid_divisions(objective.dim, resolution)
    ledger = RunLedger(objective, check_count(budget, "budget", 1))
    axes = []
    for j, m in enumerate(divisions):
        width = (objective.upper[j] - objective.lower[j]) / m
        axes.append([objective.lower[j] + (i + 0.5) * width for i in range(m)])
    table = np.array(list(itertools.product(*axes)))

    stats = ArmStats(len(table))
    first = table[: ledger.left]
    values = ledger.evaluate_batch(first, first)
    rewards = [stats.update(arm, -value) for arm, value in enumerate(values)]
    while ledger.left:
        arms = []
        for _ in range(min(BLOCK, ledger.left)):
            arm = stats.ucb_arm(c)
            stats.update(arm, rewards[arm])
            arms.append(arm)
        points = table[arms]
        ledger.evaluate_batch(points, points)
    return ledger.result(ledger.incumbent.copy())
