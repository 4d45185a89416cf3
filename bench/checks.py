"""Output checks for one pass: artifact invariants, determinism and pinned digests.

Invariants hold at any seed.  Pinned SHA-256 digests (`digests.json`) hold
only at the seed they were generated from.  Every check raises or records a
real failure; nothing here relies on `assert`, so `python -O` skips nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import TREE_ALGORITHMS

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
TRACE_HEADER = b"eval_index,best_value,ratio\n"
SUMMARY = "summary.csv"


class CheckFailed(Exception):
    """An artifact broke an invariant."""


@dataclass
class PassCheck:
    """What one pass produced and which of its runs failed a check."""

    attempted: int
    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    evals: int = 0
    ratios: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, unit: str, message: str) -> None:
        self.failed.add(unit)
        self.problems.append(f"{unit}: {message}")

    @property
    def n_failed(self) -> int:
        return min(len(self.failed), self.attempted)


class SplitIdProbe:
    """Records `split_ids` of every `run_soo` call the harness makes.

    Installed as a wrapper on `soobox.harness.run_soo`; it keeps a reference
    to each result's tuple and hashes nothing until the pass is over.
    """

    def __init__(self):
        self.calls: list[tuple[int, ...]] = []

    def wrap(self, run_soo):
        def probed(*args, **kwargs):
            result = run_soo(*args, **kwargs)
            self.calls.append(result.split_ids)
            return result

        return probed


def load_pinned(workload: str, seed: int) -> dict[str, str] | None:
    """Pinned digests for `workload`, or None when `seed` is not the pinned seed."""
    pinned = json.loads(DIGESTS_PATH.read_text())
    if seed != pinned["seed"]:
        return None
    return pinned["workloads"][workload]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _key(value: float) -> float:
    return value if math.isfinite(value) else math.inf


def _check_trace(path: Path) -> tuple[int, float | None, str]:
    """Stream a trace CSV: (rows, last best value, sha256 of the file)."""
    digest = hashlib.sha256()
    rows = 0
    last = None
    prev_key = math.inf
    with open(path, "rb") as handle:
        header = handle.readline()
        digest.update(header)
        if header != TRACE_HEADER:
            raise CheckFailed(f"trace header is {header!r}")
        for line in handle:
            digest.update(line)
            index, value, _ = line.split(b",")
            rows += 1
            if int(index) != rows:
                raise CheckFailed(f"trace row {rows} has index {int(index)}")
            last = float(value)
            key = _key(last)
            if key > prev_key:
                raise CheckFailed(f"best-so-far increases at row {rows}")
            prev_key = key
    return rows, last, digest.hexdigest()


def _check_run(config, out: Path, check: PassCheck) -> None:
    stem = config.stem
    rows, last, check.digests[f"{stem}.csv"] = _check_trace(out / f"{stem}.csv")
    payload = json.loads((out / f"{stem}.json").read_text())
    budget = payload["budget"]
    evals = payload["evals_used"]
    best = payload["best_value"]
    f_star = payload["f_star"]
    if budget != config.resolved_budget:
        raise CheckFailed(f"budget {budget} != configured {config.resolved_budget}")
    if not rows == evals <= budget:
        raise CheckFailed(f"{rows} trace rows, {evals} evals used, budget {budget}")
    if last is None or _key(last) != _key(best):
        raise CheckFailed(f"best_value {best!r} != last trace row {last!r}")
    expected_ratio = None if f_star in (None, 0.0) else best / f_star
    if payload["ratio"] != expected_ratio:
        raise CheckFailed(f"ratio {payload['ratio']!r} != {expected_ratio!r}")
    # wall_seconds and output_dir differ run to run; everything else is pinned
    del payload["wall_seconds"]
    del payload["config"]["output_dir"]
    canonical = json.dumps(payload, sort_keys=True).encode()
    check.digests[f"{stem}.json"] = _sha(canonical)
    check.evals += evals
    check.ratios[stem] = payload["ratio"]


def _check_summary(configs, out: Path, check: PassCheck) -> None:
    data = (out / SUMMARY).read_bytes()
    check.digests[SUMMARY] = _sha(data)
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    cells = {}
    for line in lines[1:]:
        function, *values = line.split(",")
        for label, value in zip(header[1:], values):
            cells[(function, label)] = value
    for config in configs:
        label = f"{config.algorithm}_{config.dim}d"
        value = cells.get((config.function, label))
        if value is None or value == "error":
            check.fail(config.stem, f"summary cell is {value!r}")
            continue
        json_ratio = check.ratios.get(config.stem)
        if json_ratio is not None and float(value) != json_ratio:
            check.fail(config.stem, f"summary ratio {value} != result JSON {json_ratio}")


def check_pass(
    configs,
    out: Path,
    raised: dict[str, str],
    split_ids: list[tuple[int, ...]] | None,
    summary: bool,
    pinned: dict[str, str] | None,
    reference: dict[str, str] | None,
) -> PassCheck:
    """Check every artifact of one pass.

    `split_ids` are the probe's records in call order (None when the pass
    ran where the probe cannot see, such as pool workers).  `pinned` are the
    committed digests, `reference` the digests of an earlier pass of the
    same run; a pass must reproduce both byte for byte.
    """
    check = PassCheck(attempted=len(configs))
    expected = {SUMMARY} if summary else set()
    for config in configs:
        expected.update((f"{config.stem}.csv", f"{config.stem}.json"))
        if config.stem in raised:
            check.fail(config.stem, f"raised {raised[config.stem]}")
            continue
        try:
            _check_run(config, out, check)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            check.fail(config.stem, f"{type(exc).__name__}: {exc}")
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    for name in sorted(present - expected):
        check.fail("artifacts", f"unexpected file {name}")
    if summary:
        try:
            _check_summary(configs, out, check)
        except (OSError, ValueError, IndexError) as exc:
            check.fail(SUMMARY, f"{type(exc).__name__}: {exc}")
    if split_ids is not None:
        tree_runs = [c for c in configs if c.algorithm in TREE_ALGORITHMS]
        if len(split_ids) != len(tree_runs):
            check.fail("split_ids", f"{len(split_ids)} run_soo calls, {len(tree_runs)} tree runs")
        for config, ids in zip(tree_runs, split_ids):
            text = ",".join(map(str, ids)).encode()
            check.digests[f"{config.stem}.split_ids"] = _sha(text)
    for name, digest in check.digests.items():
        unit = name.rsplit(".", 1)[0]
        if pinned is not None and pinned.get(name) != digest:
            check.fail(unit, f"{name} differs from the pinned digest")
        # an earlier pass may not have seen every kind (split_ids)
        if reference is not None and reference.get(name, digest) != digest:
            check.fail(unit, f"{name} differs from an earlier pass")
    return check
