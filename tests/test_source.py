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


def _is_int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) is int)


def _is_exact_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("Q", "Fraction"))


def int_literal_divisions(source: str) -> list[str]:
    """Every `<expr> / <int literal>` (and `/=`) whose left operand is not a
    Q(...) or Fraction(...) call.  With an int on the left, `/` yields a
    float: exactness rests on the left operand being exact already."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            left, right = node.left, node.right
        elif isinstance(node, ast.AugAssign):
            left, right = node.target, node.value
        else:
            continue
        if (isinstance(node.op, ast.Div) and _is_int_literal(right)
                and not _is_exact_call(left)):
            found.append((node.lineno, f"line {node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_the_check_sees_a_division_by_an_int_literal():
    source = ("a = x / 2\nb = Q(x) / 2\nc = Fraction(x, 3) / -4\n"
              "d = x / y\ne = 1 / x\nx /= 3\nf = (x + 1) / -2\n")
    assert int_literal_divisions(source) == [
        "line 1: x / 2", "line 6: x /= 3", "line 7: (x + 1) / -2"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_division_by_an_int_literal(path):
    assert int_literal_divisions(path.read_text()) == []
