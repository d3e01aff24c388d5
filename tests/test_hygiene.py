"""Dead-code guard for the package: unused imports and unreferenced private helpers."""

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


PACKAGE_REFS = sum(
    (reads(t) + Counter(name for _, name in imports(t)) for t in TREES.values()),
    Counter(),
)


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
