"""The README's Python examples run as written.

Every ```python block of README.md runs, in order and in one namespace,
inside a temporary working directory, so an example that writes files
(run_grid's output_dir="runs/") writes them there.  A renamed or
removed name the README still uses fails here, so the documented API
cannot drift from the code.  A traceback points at the README's own
line numbers.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks() -> list[tuple[int, str]]:
    """(line of the block's first code line, code) for each python block."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in _BLOCK.finditer(text)
    ]


def test_readme_has_python_examples():
    assert len(_blocks()) >= 3


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for line, code in _blocks():
        # padded so that line numbers in a traceback are the README's
        exec(compile("\n" * (line - 1) + code, str(README), "exec"), namespace)
    assert (tmp_path / "runs" / "summary.csv").is_file()
