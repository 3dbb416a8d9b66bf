"""Every import in the package and its tests is used, every parameter of a
package function is read, every private module-level function of the
package is referenced, and every method of a package class is read.

A name bound by an import counts as used when it is read anywhere in the
module, listed in its __all__, or named inside a string (a quoted
annotation); imports from __future__ are exempt.  A parameter counts as
read when its name is loaded somewhere in the function's body, nested
functions included, so an option that the body has stopped reading fails.
A module-level function named _name counts as referenced when some package
module reads it as a name or an attribute or imports it.  A method of a
package class, dunders aside, counts as read when some file of the
package or its benchmark reads it as an attribute; a method that only the
tests read belongs in tests/helpers.py.  The package holds no assert
statement, since `python -O` would skip its check.  A defaulted parameter
of a private function or method (_name) is passed, by keyword or by
position, by some call in the package or its benchmark: an option that
only tests set is a module constant they monkeypatch.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/apcong/*.py"))
FILES = SRC + sorted(ROOT.glob("tests/*.py"))
READERS = SRC + sorted(ROOT.glob("perfbench/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_an_unused_import():
    src = "import json\nfrom os import path, sep\n\n__all__ = ['sep']\n'json'\n"
    assert unused_imports(src) == ["line 2: path"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"line {node.lineno}: {node.name}({v.arg})" for v in params
                if v.arg not in read]
    return out


def test_scan_finds_an_unread_parameter():
    src = ("def f(x, guard=10, *rest, **kw):\n"
           "    def g():\n"
           "        return kw\n"
           "    guard = 5\n"
           "    return x + g()\n")
    assert unread_parameters(src) == ["line 1: f(guard)", "line 1: f(rest)"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{where}: {name}" for name, where in defined.items() if name not in used)


def test_scan_finds_an_unreferenced_private_function():
    sources = {
        "a": ("def _called():\n    pass\n\n\n"
              "def _left_over():\n    pass\n\n\n"
              "def _imported():\n    pass\n\n\n"
              "def _read_as_attribute():\n    pass\n\n\n"
              "def public():\n    return _called()\n"),
        "b": "from a import _imported\nimport a\n\nf = a._read_as_attribute\n",
    }
    assert unreferenced_private_functions(sources) == ["a:5: _left_over"]


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    assert unreferenced_private_functions(sources) == []


def unread_methods(classes: dict[str, str], readers: list[str]) -> list[str]:
    defined = {}
    for module, source in classes.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))):
                    defined[f"{cls.name}.{node.name}"] = (f"{module}:{node.lineno}", node.name)
    read = {n.attr for source in readers for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute)}
    return sorted(f"{where}: {name}" for name, (where, method) in defined.items()
                  if method not in read)


def test_scan_finds_an_unread_method():
    classes = {
        "a": ("class A:\n"
              "    def __init__(self):\n        self.x = self._helper()\n\n"
              "    def _helper(self):\n        return 1\n\n"
              "    @property\n    def shown(self):\n        return self.x\n\n"
              "    def left_over(self):\n        return 2\n\n"
              "    def called_elsewhere(self):\n        return 3\n"),
    }
    readers = [classes["a"], "import a\n\nprint(a.A().shown, a.A().called_elsewhere())\n",
               "left_over = 'a name, not an attribute'\n"]
    assert unread_methods(classes, readers) == ["a:12: A.left_over"]


def test_no_unread_methods():
    classes = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    assert unread_methods(classes, [p.read_text(encoding="utf-8") for p in READERS]) == []


def assert_statements(source: str) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_scan_finds_an_assert_statement():
    src = ("def f(x):\n"
           "    if x < 0:\n"
           "        raise ValueError('negative')\n"
           "    assert x != 3, 'three'\n"
           "    return 'assert x'\n")
    assert assert_statements(src) == ["line 4"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_assert_statements(path):
    assert assert_statements(path.read_text(encoding="utf-8")) == []


def untaken_defaults(sources: dict[str, str], readers: list[str]) -> list[str]:
    defaulted = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or not node.name.startswith("_") or node.name.startswith("__")):
                continue
            a = node.args
            pos = a.posonlyargs + a.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            # a call on an instance or class does not pass self or cls
            skip = 1 if id(node) in methods and not static else 0
            params = [(i - skip, v.arg) for i, v in enumerate(pos)
                      if i >= len(pos) - len(a.defaults)]
            params += [(None, v.arg) for v, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            for index, arg in params:
                defaulted[(node.name, arg)] = (f"{module}:{node.lineno}", index)
    passed = set()
    for source in readers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            n_pos = (float("inf") if any(isinstance(v, ast.Starred) for v in call.args)
                     else len(call.args))
            every_keyword = any(k.arg is None for k in call.keywords)
            keywords = {k.arg for k in call.keywords}
            for (fname, arg), (_, index) in defaulted.items():
                if fname == name and (every_keyword or arg in keywords
                                      or (index is not None and index < n_pos)):
                    passed.add((fname, arg))
    return sorted(f"{where}: {fname}({arg})"
                  for (fname, arg), (where, _) in defaulted.items()
                  if (fname, arg) not in passed)


def test_scan_finds_a_default_no_call_passes():
    sources = {
        "a": ("def _f(x, by_position=1, by_keyword=2, only_tests=3, *, kw_only=4):\n"
              "    pass\n\n\n"
              "def _g(spread=5, starred=6):\n    pass\n\n\n"
              "def public(option=7):\n    pass\n\n\n"
              "class A:\n"
              "    def _m(self, set_by_caller=8, unset=9):\n        pass\n\n"
              "    @staticmethod\n"
              "    def _s(set_by_caller=10):\n        pass\n"),
    }
    readers = [sources["a"],
               "import a\n\n"
               "a._f(0, 1, by_keyword=2)\n"
               "a._g(**{'spread': 5})\n"
               "a._g(*[5, 6])\n"
               "a.A()._m(8)\n"
               "a.A._s(10)\n"
               "_f(kw_only=4)\n"]
    assert untaken_defaults(sources, readers) == ["a:14: _m(unset)", "a:1: _f(only_tests)"]


def test_no_defaults_that_only_tests_pass():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    assert untaken_defaults(sources, [p.read_text(encoding="utf-8") for p in READERS]) == []
