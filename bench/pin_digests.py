"""Regenerate bench/digests.json from the code in this checkout.

    python3 bench/pin_digests.py

Runs one in-process pass of every workload at the pinned seed, checks its
invariants, and writes the SHA-256 of every artifact (result JSON without
`wall_seconds` and `config.output_dir`) and of each tree run's `split_ids`.
Regenerate only in a change that deliberately alters trajectories, and say
so in that change.
"""

from __future__ import annotations

import json
import sys

import measure  # first: puts the checkout's src/ on sys.path

import checks
import workloads

PINNED_SEED = 0


def main() -> int:
    pinned = {"seed": PINNED_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        bench = measure.Bench(workload, PINNED_SEED, pinned=None)
        bench.one_pass(jobs=1)
        if bench.problems:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        digests = bench.last_check.digests
        pinned["workloads"][workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} digests")
    checks.DIGESTS_PATH.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
