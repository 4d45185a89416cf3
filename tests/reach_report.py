"""Line reach report: every executable line of src/soobox that no run
reaching the package executes.

    python3 tests/reach_report.py

pytest does not collect this file.  It traces lines with sys.settrace,
in this process, over the code that reaches the package:

  - CLI runs through soobox.cli.main: all four algorithms, every depth
    schedule spelling, each --format, the other run flags, a grid with one
    worker and with two, a grid with a failing cell, the suite manifest,
    --help, and the exit-1 and exit-2 paths;
  - one seed-0 pass of each bench workload, with one worker, its checks
    against the pinned digests, and the workload's set-up; the grid pass
    runs under the bench's per-layer tracer, which reads run results;
  - tests/test_acceptance.py under pytest.

Pool workers run in other processes, out of the tracer's sight; the
one-worker grid runs their code here.  Each frame is traced only until
every line of its code has run, so the long bench passes cost little
more than their first calls.  It takes a few minutes on 2 cores.

The report prints one line per block of consecutive executable lines that
none of those runs executed, as path:first-last and the block's first
line, then the number of lines.  It exits 1 when a run fails (a bench
check, a CLI exit code other than the one expected, a failed acceptance
test), since the report then misses what that run would have reached.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "soobox"


def executable_lines(path: Path, source: str) -> dict[tuple[str, int, str], set[int]]:
    """{(file, first line, name): lines} of every code object compiled from
    source, read from path, keyed as the running code objects are."""
    found = {}
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines = {line for _, _, line in code.co_lines() if line}
        found[(code.co_filename, code.co_firstlineno, code.co_name)] = lines
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def _tracer(pending: dict[tuple[str, int, str], set[int]]):
    """A sys.settrace function that removes each line it sees run from
    pending, and stops tracing a frame once its code has nothing pending."""

    def on_call(frame, event, arg):
        code = frame.f_code
        left = pending.get((code.co_filename, code.co_firstlineno, code.co_name))
        if not left:
            return None
        left.discard(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
                if not left:
                    return None
            return on_line

        return on_line

    return on_call


# (argv, expected exit code); {out} is a fresh directory per run
CLI_RUNS = [
    *[
        (["--function", "sphere", "--dim", "2", "--budget", "300", "--algo", algo,
          "--out", "{out}"], 0)
        for algo in ("soo", "soo-refine", "random", "ucb-grid")
    ],
    *[
        (["--function", "rastrigin", "--dim", "2", "--budget", "200",
          "--depth-schedule", schedule], 0)
        for schedule in ("paper", "log32", "const:2", "unbounded")
    ],
    *[
        (["--function", "ackley", "--dim", "3", "--budget", "100", "--format", fmt,
          "--out", "{out}"], 0)
        for fmt in ("csv", "json", "both")
    ],
    (["--function", "griewank", "--dim", "2", "--budget", "400", "--algo", "soo-refine",
      "--refine-fraction", "0.1", "--s-children", "5"], 0),
    (["--function", "styblinski_tang", "--dim", "2", "--budget", "100", "--algo",
      "random", "--seed", "3"], 0),
    (["--function", "rosenbrock", "--dim", "2", "--budget", "100", "--algo", "ucb-grid",
      "--grid-resolution", "3"], 0),
    (["--function", "composite3", "--dim", "1", "--cec-budget", "--algo", "random"], 0),
    (["--function", "sphere,ellipsoid", "--dim", "1,2", "--algo", "soo,random",
      "--budget", "60", "--jobs", "1", "--out", "{out}"], 0),
    (["--function", "all", "--dim", "2", "--budget", "30", "--jobs", "2",
      "--out", "{out}"], 0),
    (["--function", "rosenbrock,sphere", "--dim", "1", "--budget", "50",
      "--out", "{out}"], 0),
    (["--suite-manifest"], 0),
    (["--suite-manifest", "--dim", "1,3"], 0),
    (["--help"], 0),
    (["--function", "nope", "--dim", "2", "--budget", "50"], 1),
    (["--function", "sphere", "--dim", "2", "--budget", "0"], 1),
    (["--dim", "2", "--budget", "50"], 1),
    (["--function", "sphere", "--budget", "50"], 1),
    (["--function", "sphere", "--dim", "x"], 1),
    (["--function", "sphere", "--dim", "2", "--depth-schedule", "const:x"], 1),
    (["--function", "sphere", "--dim", "2", "--depth-schedule", "deep"], 1),
    (["--function", "sphere", "--dim", "2", "--jobs", "0"], 1),
    (["--suite-manifest", "--dim", "0"], 1),
    (["--function", "rosenbrock", "--dim", "1", "--budget", "50"], 2),
]


def run_cli(faults: list[str]) -> None:
    from soobox.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for k, (argv, expected) in enumerate(CLI_RUNS):
            argv = [arg.replace("{out}", f"{tmp}/{k}") for arg in argv]
            code = main(argv)
            if code != expected:
                faults.append(f"soobox {' '.join(argv)}: exit {code}, expected {expected}")


def run_bench(faults: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import checks
    import measure
    import tracing
    import workloads

    for workload in workloads.WORKLOADS:
        workloads.build_inputs(workload, 0)
        bench = measure.Bench(workload, 0, checks.load_pinned(workload, 0))
        bench.one_pass(jobs=1, tracer=tracing.Tracer() if workload == "grid" else None)
        faults.extend(f"bench {workload}: {problem}" for problem in bench.problems)


def run_acceptance(faults: list[str]) -> None:
    import pytest

    code = pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]
    )
    if code != 0:
        faults.append(f"tests/test_acceptance.py: pytest exit {code}")


def report(
    pending: dict[tuple[str, int, str], set[int]], sources: dict[str, str]
) -> list[str]:
    """One line per block of consecutive unexecuted lines, in file order;
    sources maps each file name to the text that was traced."""
    by_file: dict[str, set[int]] = {}
    for (filename, _, _), lines in pending.items():
        by_file.setdefault(filename, set()).update(lines)
    out = []
    for filename in sorted(by_file):
        path = Path(filename)
        text = sources[filename].splitlines()
        lines = sorted(by_file[filename])
        blocks = []
        for line in lines:
            if blocks and all(
                not text[n - 1].strip() or text[n - 1].strip().startswith("#")
                for n in range(blocks[-1][1] + 1, line)
            ):
                blocks[-1][1] = line
            else:
                blocks.append([line, line])
        name = path.relative_to(ROOT)
        for first, last in blocks:
            span = f"{first}" if first == last else f"{first}-{last}"
            out.append(f"{name}:{span}: {text[first - 1].strip()}")
    return out


def main() -> int:
    pending, sources = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        sources[str(path)] = path.read_text()
        pending.update(executable_lines(path, sources[str(path)]))
    total = sum(len(lines) for lines in pending.values())
    # trace before the package is imported, so module-level lines count
    sys.path.insert(0, str(SRC))
    faults: list[str] = []
    sys.settrace(_tracer(pending))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            run_cli(faults)
            run_bench(faults)
            run_acceptance(faults)
    finally:
        sys.settrace(None)
    lines = report(pending, sources)
    print("\n".join(lines))
    unrun = sum(len(left) for left in pending.values())
    print(f"{unrun} of {total} executable lines in src/soobox ran in no reaching run")
    for fault in faults:
        print(f"FAILED {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
