"""Ownership: one module owns each step of paying for an evaluation.

Every optimizer pays for and records its evaluations through a RunLedger
(src/soobox/result.py), so the objective's meter and the run's trace move
in one step.  This reads the package source and fails when any other
module meters an objective itself, fixes a cap of its own, builds a
trace or a RunResult, or records a value outside the ledger, when any
module calls a per-point evaluate, and when the meter moves anywhere but
Objective.evaluate_batch.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import soobox

SOURCES = sorted(Path(soobox.__file__).parent.glob("*.py"))

# (pattern, the modules allowed to match it)
RULES = [
    (r"objective\.evaluate(_batch)?\(", {"result.py"}),
    # one evaluation path: every run pays in blocks, a point as a one-row
    # block, so no module calls a per-point ledger or objective method
    (r"\.evaluate\(", set()),
    (r"\.cap\(", set()),
    (r"TraceRecorder\(", {"result.py"}),
    (r"RunResult\(", {"result.py"}),
    (r"\.record\(", {"result.py"}),
]


@pytest.mark.parametrize("pattern, owners", RULES, ids=[rule[0] for rule in RULES])
def test_only_the_owner_calls(pattern, owners):
    # a wrong path would find no files and pass vacuously
    assert {"result.py", "tree.py", "baselines.py", "refine.py"} <= {
        path.name for path in SOURCES
    }
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in SOURCES
        if path.name not in owners
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(pattern, line)
    ]
    assert not offenders, "\n".join(offenders)


def test_one_meter_step():
    # the meter moves on one line of the package, in Objective.evaluate_batch:
    # evaluate is its one-row block, and no helper meters on its behalf
    hits = [
        (path, number)
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\.meter\s*\+=", line)
    ]
    assert len(hits) == 1, hits
    path, number = hits[0]
    owners = [
        f"{cls.name}.{fn.name}"
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.lineno <= number <= fn.end_lineno
    ]
    assert (path.name, owners) == ("objectives.py", ["Objective.evaluate_batch"])


def test_one_ucb_index():
    # the UCB1 exploration term, c * ln t, is written once: in ArmStats.ucb_arm,
    # which ucb_select, run_ucb and run_ucb_grid call
    matches = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\*\s*(math|np)\.log\(", line)
    ]
    assert len(matches) == 1 and matches[0].startswith("baselines.py:"), matches
    # and the bonus's square root is taken on one line of code, so update
    # carries no second copy of the index formula; docstrings and comments
    # are not code, so this reads tokens, not lines
    source = (Path(soobox.__file__).parent / "baselines.py").read_text()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = {
        name.start[0]
        for name, bracket in zip(tokens, tokens[1:])
        if (name.type, name.string, bracket.string) == (tokenize.NAME, "sqrt", "(")
    }
    assert len(lines) == 1, sorted(lines)
