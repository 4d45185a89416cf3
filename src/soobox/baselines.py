"""Bandit machinery and naive comparators.

Upper-confidence-bound selection over a finite arm set, a fixed-horizon
bandit runner with a simple-regret recommendation, uniform random search
over a box, and a discretized-domain bandit that treats grid-cell centers
as arms.  The last two speak the same RunResult/trace language as the
partition optimizer so the harness can compare them head to head.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExhausted, UnpulledArm
from .objectives import Objective, check_count, check_exploration
from .result import RunResult, TraceRecorder

Array = np.ndarray

DEFAULT_EXPLORATION = 2.0
DEFAULT_GRID_RESOLUTION = 3
GRID_ARM_CAP = 3 ** 6
RANDOM_BLOCK = 1024


# ---------------------------------------------------------------------------
# arm statistics and the selection rule
# ---------------------------------------------------------------------------


class ArmStats:
    """Pull counts and reward sums for K arms, as numpy arrays.

    `pulls` is an int64 array and the sums a float64 array, so ucb_select
    scores every arm in one vector expression.  Means are kept as
    (sum, count) pairs so each empirical mean is the exact running
    average of that arm's rewards.
    """

    def __init__(self, n_arms: int):
        check_count(n_arms, "n_arms", 1)
        self.pulls = np.zeros(n_arms, dtype=np.int64)
        self._sums = np.zeros(n_arms, dtype=np.float64)
        self.t = 0

    @property
    def n_arms(self) -> int:
        return len(self.pulls)

    def mean(self, arm: int) -> float:
        if self.pulls[arm] == 0:
            raise UnpulledArm(f"arm {arm} has no observations")
        return float(self._sums[arm] / self.pulls[arm])

    @property
    def means(self) -> list[float]:
        """Per-arm empirical means, NaN for arms never pulled."""
        return [
            s / n if n else math.nan
            for s, n in zip(self._sums.tolist(), self.pulls.tolist())
        ]

    def update(self, arm: int, reward: float) -> None:
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"no arm with index {arm}")
        self.pulls[arm] += 1
        self._sums[arm] += float(reward)
        self.t += 1


def ucb_select(stats: ArmStats, c: float = DEFAULT_EXPLORATION) -> int:
    """Arm maximizing mean + sqrt(c * ln t / pulls); ties to smallest index.

    Every arm must have been pulled at least once (the bonus is undefined
    at zero pulls), which the runners guarantee by an initialization round
    in index order.  When no score exceeds -inf (every mean is NaN or
    -inf, as after non-finite objective values) arm 0 is chosen.
    """
    check_exploration(c)
    pulls = stats.pulls
    if np.count_nonzero(pulls) < len(pulls):
        raise UnpulledArm(f"arm {int(pulls.argmin())} has no observations")
    score = stats._sums / pulls + np.sqrt(c * math.log(stats.t) / pulls)
    best = score.argmax()
    # argmax returns the first NaN when there is one, but a NaN score never
    # wins, so NaN scores become -inf and the argmax is taken again
    if math.isnan(score[best]):
        score[np.isnan(score)] = -math.inf
        best = score.argmax()
    return int(best)


def next_arm(stats: ArmStats, c: float = DEFAULT_EXPLORATION) -> int:
    """The arm to pull next: one pull per arm in index order, then ucb_select."""
    return stats.t if stats.t < stats.n_arms else ucb_select(stats, c)


# ---------------------------------------------------------------------------
# fixed-horizon bandit runner
# ---------------------------------------------------------------------------


@dataclass
class UcbRun:
    """History of one bandit run plus the final recommendation.

    The recommendation is the arm with the highest empirical mean at the
    horizon (ties to the smallest index), the usual convention when
    minimizing simple regret rather than cumulative regret.
    """

    history: list[tuple[int, float]]
    stats: ArmStats = field(repr=False)

    @property
    def recommendation(self) -> int:
        # max keeps the first of equal means, and nothing beats a NaN first mean
        return max(range(self.stats.n_arms), key=self.stats.means.__getitem__)


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
        reward = float(reward_sources[arm]())
        stats.update(arm, reward)
        history.append((arm, reward))
    return UcbRun(history=history, stats=stats)


def bernoulli_arms(
    probabilities: Sequence[float], seed: int
) -> list[Callable[[], float]]:
    """Independent seeded Bernoulli reward sources, one stream per arm."""
    check_count(seed, "seed", 0)
    children = np.random.SeedSequence(seed).spawn(len(probabilities))
    arms = []
    for p, child in zip(probabilities, children):
        rng = np.random.default_rng(child)
        arms.append(lambda p=p, rng=rng: 1.0 if rng.random() < p else 0.0)
    return arms


def constant_arms(values: Sequence[float]) -> list[Callable[[], float]]:
    return [lambda v=float(v): v for v in values]


# ---------------------------------------------------------------------------
# box-domain baselines
# ---------------------------------------------------------------------------


def run_random_search(objective: Objective, budget: int, seed: int) -> RunResult:
    """Evaluate i.i.d. uniform points from a seeded generator.

    Points are drawn and evaluated in blocks of up to RANDOM_BLOCK rows:
    one `rng.uniform(lower, upper, size=(k, D))` draw yields the same
    stream as k single-point draws, and each block goes through the
    metered, all-or-nothing Objective.evaluate_batch.  If an evaluation
    raises, the meter therefore stays at the start of its block; no
    value from that block was handed back.  The run's cap, fixed at the
    start, is the lesser of budget and the objective's remaining budget.
    """
    budget = min(check_count(budget, "budget", 1), objective.remaining)
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    trace = TraceRecorder()
    best_point: Array | None = None
    while len(trace.entries) < budget:
        k = min(RANDOM_BLOCK, budget - len(trace.entries))
        points = rng.uniform(objective.lower, objective.upper, size=(k, objective.dim))
        for row, value in enumerate(objective.evaluate_batch(points)):
            if trace.record(value):
                best_point = points[row]
    if best_point is None:
        raise BudgetExhausted("objective had no evaluations remaining")
    return RunResult(best_point.copy(), trace.entries, f_star=objective.optimum_value)


def grid_divisions(dim: int, resolution: int) -> list[int]:
    """Per-dimension division counts for the lattice of arm centers.

    The first dimensions get `resolution` divisions each until adding
    another would push the lattice size past GRID_ARM_CAP; the rest stay
    at one division, so the arm count never exceeds the cap.
    """
    check_count(resolution, "resolution", 1)
    divisions = [1] * dim
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
    center is an arm.  Pulls re-evaluate the center and count against the
    budget, keeping the comparison with the other optimizers honest even
    though the objective is deterministic.  The run's cap, fixed at the
    start, is the lesser of budget and the objective's remaining budget.
    """
    budget = min(check_count(budget, "budget", 1), objective.remaining)
    check_exploration(c)
    divisions = grid_divisions(objective.dim, resolution)
    axes = []
    for j, m in enumerate(divisions):
        width = (objective.upper[j] - objective.lower[j]) / m
        axes.append([objective.lower[j] + (i + 0.5) * width for i in range(m)])
    centers = [np.array(point) for point in itertools.product(*axes)]

    stats = ArmStats(len(centers))
    trace = TraceRecorder()
    best_point: Array | None = None
    while stats.t < budget:
        arm = next_arm(stats, c)
        value = objective.evaluate(centers[arm])
        stats.update(arm, -value)
        if trace.record(value):
            best_point = centers[arm]
    if best_point is None:
        raise BudgetExhausted("objective had no evaluations remaining")
    return RunResult(best_point.copy(), trace.entries, f_star=objective.optimum_value)
