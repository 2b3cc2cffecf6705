"""The library keeps only code that a subcommand or the benchmark reaches.

The roots are `cli.main`, cli's module-level statements (`_RUNNERS` among
them) and every attribute name that `perfbench/workloads.py` uses.  From
there the walk follows name and attribute references between the
module-level functions, classes and assignments of `src/engellab`,
matched by name.  A public module-level function or class that no root
reaches belongs next to the tests that use it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "engellab"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _references(node: ast.AST) -> set[str]:
    """Every name and attribute name used inside node."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [name.id for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)]


def unreached_definitions() -> list[str]:
    """`module.name` of every public module-level function or class of the
    library that no root reaches."""
    nodes: dict[tuple[str, str], ast.stmt] = {}
    pending: set[str] = {sub.attr for sub in ast.walk(ast.parse(WORKLOADS.read_text()))
                         if isinstance(sub, ast.Attribute)}
    for path in sorted(LIBRARY.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for name in _bound_names(stmt):
                nodes[(path.stem, name)] = stmt
            if path.stem == "cli" and not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                pending |= _references(stmt)
    pending |= _references(nodes[("cli", "main")])
    by_name: dict[str, list[tuple[str, str]]] = {}
    for key in nodes:
        by_name.setdefault(key[1], []).append(key)
    reached: set[tuple[str, str]] = set()
    while pending:
        for key in by_name.get(pending.pop(), ()):
            if key not in reached:
                reached.add(key)
                pending |= _references(nodes[key])
    return sorted(f"{module}.{name}" for (module, name), stmt in nodes.items()
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and not name.startswith("_") and (module, name) not in reached)


def test_every_public_definition_is_reached_from_cli_or_benchmark():
    assert unreached_definitions() == []
