"""Dead-code guard: unused imports and unreferenced private helpers in the
package, and unused imports and definitions no test reaches in the oracles."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import longedge

TREES = {
    path.name: ast.parse(path.read_text())
    for path in sorted(Path(longedge.__file__).parent.glob("*.py"))
}


def reads(node):
    """How often each name is read below node, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def imports(node):
    """(bound name, imported name) of every import below node but `__future__`."""
    return [
        ((alias.asname or alias.name).split(".")[0], alias.name)
        for n in ast.walk(node)
        if isinstance(n, (ast.Import, ast.ImportFrom))
        and getattr(n, "module", None) != "__future__"
        for alias in n.names
    ]


def refs(tree):
    """Names read or imported below tree."""
    return reads(tree) + Counter(name for _, name in imports(tree))


PACKAGE_REFS = sum(map(refs, TREES.values()), Counter())


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_no_dead_code(module):
    tree = TREES[module]
    unused = {bound for bound, _ in imports(tree)} - set(reads(tree))
    assert not unused, f"imported but never used: {sorted(unused)}"
    dead = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        # references from inside its own body (recursion) do not count
        and PACKAGE_REFS[node.name] == reads(node)[node.name]
    ]
    assert not dead, f"private helpers nothing references: {dead}"


def test_no_dead_oracles():
    tests = Path(__file__).parent
    tree = ast.parse((tests / "oracles.py").read_text())
    unused = {bound for bound, _ in imports(tree)} - set(reads(tree))
    assert not unused, f"imported but never used: {sorted(unused)}"
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    # live: what a test file names, and what a live definition names in turn
    todo = [
        name
        for path in sorted(tests.glob("test_*.py"))
        for name in refs(ast.parse(path.read_text()))
        if name in defs
    ]
    live = set()
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(n for n in reads(defs[name]) if n in defs)
    dead = sorted(set(defs) - live)
    assert not dead, f"oracles no test reaches: {dead}"
