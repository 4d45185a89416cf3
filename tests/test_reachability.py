"""Reachability guard: every function, method and class in src/soobox is
reached by code that uses the package, so nothing is kept for tests alone.

A definition is reached when its name is loaded, as a name, an attribute
or an import alias, in src/soobox (not counting __init__.py's
re-exports), in bench/*.py or in tests/test_acceptance.py.  Other tests do
not count: a definition only they reach is deleted along with them.
Dunder methods are exempt, since Python calls them.  ALLOWED keeps a few
definitions on purpose, each with its reason; an entry that is no longer
defined, or that is now reached, fails too, so the list cannot go stale.

Matching is by name, not by binding.  So the guard can miss dead code (a
dead method that shares its name with a live one passes), but it never
flags a definition whose name the reaching code loads.  A definition
reached only through a string, such as a getattr name, would need an
ALLOWED entry.

The second half checks the benchmark's tracer: every attribute that
bench/tracing.py wraps must still exist, so that a deletion fails here,
not only in a traced benchmark pass.
"""

import ast
import importlib
from pathlib import Path

from soobox import make_objective

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soobox"
BENCH = ROOT / "bench"

# qualified name (module.Class.method) -> why it stays although unreached
ALLOWED = {
    "harness.compare_budgets": (
        "README library API; the golden fixture pins its budget report"
    ),
    "objectives.Objective.raw": (
        "the unmetered oracle that tests compare the metered paths against"
    ),
    "baselines.ArmStats.means": "README documents it as every arm's mean",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(module: str, source: str) -> dict[str, str]:
    """{qualified name: name} of every function, method and class in
    source, nested ones included, dunders excepted."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualified = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[qualified] = child.name
                visit(child, qualified)
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return found


def loaded_names(source: str, imports: bool = True) -> set[str]:
    """Names source loads as a name or an attribute, and, when imports is
    true, the names it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def unreached(
    modules: dict[str, str], users: list[str], allowed: dict[str, str]
) -> list[str]:
    """One line per fault: a definition in modules ({module name: source})
    whose name neither modules nor users (sources) load and allowed does
    not list, or an allowed entry that is not defined or is reached.  The
    imports of a module named __init__ are re-exports and do not count."""
    defined, reached = {}, set()
    for module, source in modules.items():
        defined.update(definitions(module, source))
        reached |= loaded_names(source, imports=module != "__init__")
    for source in users:
        reached |= loaded_names(source)
    faults = [
        f"{qualified}: nothing reachable uses it"
        for qualified, name in defined.items()
        if name not in reached and qualified not in allowed
    ]
    for qualified in allowed:
        if qualified not in defined:
            faults.append(f"{qualified}: allowed, but no longer defined")
        elif defined[qualified] in reached:
            faults.append(f"{qualified}: allowed, but now reached")
    return faults


def test_every_definition_is_reached():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    users.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unreached(modules, users, ALLOWED) == []


def test_unused_helper_is_reported():
    module = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = _helper_used()\n"
        "\n"
        "def _helper_used():\n"
        "    return 1\n"
        "\n"
        "def _helper_unused():\n"
        "    return 2\n"
    )
    user = "from mod import Box\nBox()\n"
    assert unreached({"mod": module}, [user], {}) == [
        "mod._helper_unused: nothing reachable uses it"
    ]
    # a re-export alone reaches nothing
    reexport = {"mod": module, "__init__": "from .mod import _helper_unused\n"}
    assert unreached(reexport, [user], {}) == [
        "mod._helper_unused: nothing reachable uses it"
    ]


def test_stale_allowlist_entry_is_reported():
    module = "def used():\n    return 1\n\ndef unused():\n    return 2\n"
    allowed = {"mod.unused": "kept", "mod.used": "kept", "mod.gone": "kept"}
    assert unreached({"mod": module}, ["used()\n"], allowed) == [
        "mod.used: allowed, but now reached",
        "mod.gone: allowed, but no longer defined",
    ]


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for name, owner in tracing.OWNERS.items():
        attr = name.split(".", 1)[1]
        if owner is None:
            # wrapped per instance, as make_objective returns each objective
            owner = make_objective("sphere", 2, 1)
            attr = f"_{attr}"
        assert callable(getattr(owner, attr, None)), name
