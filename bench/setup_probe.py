"""Set-up time of one workload in a fresh interpreter.

Times `import soobox` (from the checkout's `src/`) plus building every
config and objective the workload uses, and prints the seconds as its last
line.  Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

start = time.perf_counter()

import workloads  # noqa: E402  (the import is part of what is timed)

workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - start))
