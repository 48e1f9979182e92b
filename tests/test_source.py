"""Static checks on the package source, standing in for a linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "downup_hh"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads.

    A name listed in `__all__` counts as read: it is a re-export.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("from math import gcd, lcm\nimport os.path\n"
                          "x = lcm(2, 3)\n") == ["line 1: gcd", "line 2: os"]
    assert unused_imports("from __future__ import annotations\n"
                          "from .linalg import Q\n__all__ = ['Q']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
