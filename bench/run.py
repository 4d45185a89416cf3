"""soobox benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {protocol,baselines,grid} --seed N \
        --seconds S --trace {0,1}

--trace 0 runs untraced passes for S seconds (at least MIN_PASSES) and
reports the end-to-end metrics: medians over passes, set-up time from
fresh interpreters, peak RSS of this process and its pool workers, the
geometric-mean ratio and the share of runs that passed every check.
--trace 1 runs one traced pass between two untraced ones and reports the
per-layer metrics (see README.md).  Every pass's artifacts are checked.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
check passed, 1 when a check failed, and 2 when the checkout has no soobox
sources to measure.
"""

from __future__ import annotations

import argparse
import sys


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import measure
    except ImportError as exc:
        print(f"bench: cannot import the code to measure: {exc}", file=sys.stderr)
        return 2
    if args.workload not in measure.workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return measure.report(args)


if __name__ == "__main__":
    sys.exit(main())
