"""Bandit machinery and naive comparators.

Upper-confidence-bound selection over a finite arm set, a fixed-horizon
bandit runner, uniform random search over a box, and a discretized-domain
bandit that treats grid-cell centers as arms.  The last two pay for
evaluations through a RunLedger, as the partition optimizer does, so the
harness can compare them head to head.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import UnpulledArm
from .objectives import Objective, check_count, check_exploration, check_type
from .result import RunLedger, RunResult

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

    def _arm(self, arm) -> int:
        """arm as an int; ValueError unless it is the index of an arm."""
        arm = check_count(arm, "arm", 0)
        if arm >= self.n_arms:
            raise ValueError(f"no arm with index {arm}")
        return arm

    @property
    def means(self) -> list[float]:
        """Per-arm empirical means, NaN for arms never pulled."""
        return [
            s / n if n else math.nan
            for s, n in zip(self._sums.tolist(), self.pulls.tolist())
        ]

    def update(self, arm: int, reward: float) -> None:
        arm = self._arm(arm)
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
    check_type(stats, ArmStats, "stats")
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
    value from that block was handed back.
    """
    check_count(seed, "seed", 0)
    ledger = RunLedger(objective, check_count(budget, "budget", 1))
    rng = np.random.default_rng(seed)
    while ledger.left:
        k = min(RANDOM_BLOCK, ledger.left)
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
    center is an arm.  Pulls re-evaluate the center and count against the
    budget, keeping the comparison with the other optimizers honest even
    though the objective is deterministic.
    """
    check_type(objective, Objective, "objective")
    check_exploration(c)
    divisions = grid_divisions(objective.dim, resolution)
    ledger = RunLedger(objective, check_count(budget, "budget", 1))
    axes = []
    for j, m in enumerate(divisions):
        width = (objective.upper[j] - objective.lower[j]) / m
        axes.append([objective.lower[j] + (i + 0.5) * width for i in range(m)])
    centers = [np.array(point) for point in itertools.product(*axes)]

    stats = ArmStats(len(centers))
    while ledger.left:
        arm = next_arm(stats, c)
        stats.update(arm, -ledger.evaluate(centers[arm], centers[arm]))
    return ledger.result(ledger.incumbent.copy())
