"""Static checks on the package source, standing in for a linter."""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "downup_hh"


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


def unreferenced(modules: dict[str, str], readers=(),
                 exempt=frozenset()) -> list[str]:
    """Public module functions and methods that no code references outside
    their own body, as "module.function" or "module.Class.method".

    `modules` maps module names to the sources whose definitions are
    checked and which count as references; `readers` holds sources that
    only count as references.  A module function counts a Name or an
    Attribute reference; a method counts an Attribute reference, or a Name
    in its class body outside the methods (`__setattr__ = _frozen`), so a
    local variable of the same name does not hide it.  Dunders and the
    qualified names in `exempt` are skipped; private names are checked too.
    """
    trees = {name: ast.parse(src) for name, src in modules.items()}
    refs = {}  # name -> [(node, whether it is an Attribute)]
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((node, True))
            elif isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((node, False))
    found = []
    for module, tree in trees.items():
        defs = [(f"{module}.{node.name}", None, node) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                scope = {node for stmt in cls.body
                         if not isinstance(stmt, ast.FunctionDef)
                         for node in ast.walk(stmt)}
                defs += [(f"{module}.{cls.name}.{node.name}", scope, node)
                         for node in cls.body if isinstance(node, ast.FunctionDef)]
        for qual, scope, fn in defs:
            if (fn.name.startswith("__") and fn.name.endswith("__")) or qual in exempt:
                continue
            own = set(ast.walk(fn))
            if not any((attr or scope is None or node in scope) and node not in own
                       for node, attr in refs.get(fn.name, ())):
                found.append(qual)
    return sorted(found)


def test_the_check_sees_an_unreferenced_definition():
    a = ("def used():\n    return helper() + _kept()\n\n"
         "def helper():\n    return 1\n\n"
         "def _kept():\n    return 5\n\n"
         "def _orphan():\n    return _orphan()\n\n"
         "def looped(k):\n    return looped(k - 1) if k else 0\n\n"
         "def pinned():\n    return 0\n\n"
         "class K:\n"
         "    def e(self):\n        return 1\n"
         "    def f(self):\n        e = 1\n        return self.g() + e\n"
         "    def g(self):\n        return 2\n"
         "    def read(self):\n        return 3\n"
         "    def __eq__(self, other):\n        return True\n"
         "    def _private(self):\n        return 4\n"
         "    def _frozen(self, name):\n        raise AttributeError(name)\n"
         "    __delattr__ = _frozen\n")
    b = "from a import used\nused()\n"
    assert unreferenced({"a": a, "b": b}, ["print(k.read())"],
                        exempt={"a.pinned"}) == [
        "a.K._private", "a.K.e", "a.K.f", "a._orphan", "a.looped"]


def benchmark_pins() -> set[str]:
    """What the benchmark calls by name: the spans of BENCHMARK.json's
    per-layer metrics ("module.function.metric") and the QMatrix methods
    that perfbench/tracer.py wraps (the keys of QMATRIX_METHODS)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {".".join(metric["name"].split(".")[:2])
             for metric in bench["per_layer"]}
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    methods = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and ast.unparse(node.targets[0]) == "QMATRIX_METHODS")
    return spans | {f"linalg.QMatrix.{meth}" for meth in methods}


def test_every_public_definition_is_referenced_by_the_program():
    # test-only API belongs in the tests; the benchmark's tracer reads the
    # program too (C.D1 and C.D2 in its HomComplex hook)
    modules = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    assert unreferenced(modules, [tracer], benchmark_pins()) == []
