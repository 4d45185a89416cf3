"""Reachability guard: every function, method and class in src/soobox is
reached by code that uses the package, so nothing is kept for tests alone.

The code that uses the package is bench/*.py and tests/test_acceptance.py,
whose every load counts.  Other tests do not count: a definition only they
reach is deleted along with them.  Within src/soobox only reached code
counts: a load made at module level (not counting __init__.py's
re-exports), or inside a reached definition.  So reach is a fixed point,
grown from those roots and from the ALLOWED entries, which a few
definitions are kept by, each with its reason.  A definition is reached
when all of these hold:
  - its name is loaded as a name, an attribute or an import alias;
  - a private class member (a method or class named _name, defined in a
    class body) is loaded as an attribute, as in obj._name, since a bare
    _name is a local or a global, never the member;
  - a definition nested in another one is reached only when that one is,
    since it never exists otherwise.
Dunder methods are exempt from the report, and are reached when their
class is, since Python calls them.  An ALLOWED entry that is no longer
defined, or that the other roots reach without it, fails too, so the list
cannot go stale.

Matching is by name, not by binding: a dead method that shares its name
with a live one in a reached class passes.  A definition reached only
through a string, such as a getattr name, would need an ALLOWED entry.
tests/reach_report.py traces lines instead, over the runs that reach
src/soobox, and prints every line none of them runs.

The last test checks the benchmark's tracer: every attribute that
bench/tracing.py wraps must still exist, so that a deletion fails here,
not only in a traced benchmark pass.
"""

import ast
import importlib
from dataclasses import dataclass, field
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
    "objectives.Objective.evaluate": (
        "the user's one-point call, which bench/tracing.py wraps; every run "
        "in the package pays through evaluate_batch"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class Loads:
    """The names a scope loads as names or import aliases, and as attributes."""

    names: set = field(default_factory=set)
    attrs: set = field(default_factory=set)


@dataclass
class Definition:
    name: str
    owner: str | None  # the qualified name of the enclosing definition
    member: bool  # defined directly in a class body
    loads: Loads


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def parse(module: str, source: str, imports: bool = True):
    """(module-level loads, {qualified name: Definition}) of source.

    A definition's loads are those anywhere in its node (decorators,
    arguments, bases, body) outside its nested definitions; the import
    aliases count only when imports is true."""
    roots, defs = Loads(), {}

    def visit(node, prefix, owner, loads, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualified = f"{prefix}.{child.name}"
                own = Loads()
                defs[qualified] = Definition(child.name, owner, in_class, own)
                visit(child, qualified, qualified, own, isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                loads.names.add(child.id)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                loads.attrs.add(child.attr)
            elif imports and isinstance(child, ast.alias):
                loads.names.update(child.name.split("."))
            visit(child, prefix, owner, loads, in_class)

    visit(ast.parse(source), module, None, roots, False)
    return roots, defs


def _reached(defs: dict, loads: Loads, seeds) -> set[str]:
    """The definitions reached from loads and the seeds, to a fixed point."""
    names, attrs = set(loads.names), set(loads.attrs)
    reached, grown = set(), set(seeds)
    while True:
        for qualified in grown:
            reached.add(qualified)
            names |= defs[qualified].loads.names
            attrs |= defs[qualified].loads.attrs
        grown = set()
        for qualified, d in defs.items():
            if qualified in reached or (d.owner is not None and d.owner not in reached):
                continue
            if _is_dunder(d.name):
                hit = True
            elif d.member and d.name.startswith("_"):
                hit = d.name in attrs
            else:
                hit = d.name in names or d.name in attrs
            if hit:
                grown.add(qualified)
        if not grown:
            return reached


def unreached(
    modules: dict[str, str], users: list[str], allowed: dict[str, str]
) -> list[str]:
    """One line per fault: a definition in modules ({module name: source})
    that the module-level loads of modules, every load of users (sources)
    and allowed's entries do not reach, or an allowed entry that is not
    defined or is reached without the allowed entries.  The imports of a
    module named __init__ are re-exports and do not count."""
    roots, defs = Loads(), {}
    for module, source in modules.items():
        loads, found = parse(module, source, imports=module != "__init__")
        roots.names |= loads.names
        roots.attrs |= loads.attrs
        defs.update(found)
    for source in users:
        loads, found = parse("user", source)
        for d in found.values():
            loads.names |= d.loads.names
            loads.attrs |= d.loads.attrs
        roots.names |= loads.names
        roots.attrs |= loads.attrs
    kept = [qualified for qualified in allowed if qualified in defs]
    reached = _reached(defs, roots, kept)
    faults = [
        f"{qualified}: nothing reachable uses it"
        for qualified, d in defs.items()
        if qualified not in reached and qualified not in allowed and not _is_dunder(d.name)
    ]
    unaided = _reached(defs, roots, [])
    for qualified in allowed:
        if qualified not in defs:
            faults.append(f"{qualified}: allowed, but no longer defined")
        elif qualified in unaided:
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


def test_loads_inside_unreached_code_reach_nothing():
    # _helper's name is loaded, but only by dead, which nothing reaches;
    # entry reaches _b only through _c, defined first, so one pass over
    # the definitions would not find _b
    module = (
        "def _b():\n"
        "    return 1\n"
        "\n"
        "def _c():\n"
        "    return _b()\n"
        "\n"
        "def entry():\n"
        "    return _c()\n"
        "\n"
        "def dead():\n"
        "    return _helper()\n"
        "\n"
        "def _helper():\n"
        "    return 2\n"
        "\n"
        "class Gone:\n"
        "    def entry(self):\n"
        "        return 3\n"
    )
    user = "from mod import entry\nentry()\n"
    assert unreached({"mod": module}, [user], {}) == [
        "mod.dead: nothing reachable uses it",
        "mod._helper: nothing reachable uses it",
        "mod.Gone: nothing reachable uses it",
        # a method of an unreached class, although its name is loaded
        "mod.Gone.entry: nothing reachable uses it",
    ]
    # an allowed entry is a root: what it loads is reached
    assert unreached({"mod": module}, [user], {"mod.dead": "kept"}) == [
        "mod.Gone: nothing reachable uses it",
        "mod.Gone.entry: nothing reachable uses it",
    ]


def test_private_member_is_reached_only_as_an_attribute():
    # _area is loaded as a local name only, which is not the method
    module = (
        "class Box:\n"
        "    def size(self):\n"
        "        _area = 4\n"
        "        return _area + self._side()\n"
        "\n"
        "    def _side(self):\n"
        "        return 2\n"
        "\n"
        "    def _area(self):\n"
        "        return 4\n"
    )
    user = "from mod import Box\nBox().size()\n"
    assert unreached({"mod": module}, [user], {}) == [
        "mod.Box._area: nothing reachable uses it"
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
