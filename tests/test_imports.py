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
tests read belongs in tests/helpers.py.  A field of a package dataclass or
NamedTuple counts as read when the package, its benchmark or its tests read
it as an attribute or by getattr with its name; where two records share the
name, only through a receiver of the field's own class, or one that
UNTYPED_RECEIVERS lists with that class.  The package holds no assert
statement, since `python -O` would skip its check.  A defaulted parameter
of a package function or method, dunders aside, is passed, by keyword or
by position, by some call in the package or its benchmark: an option that
only tests set is a module constant they monkeypatch.  `Mat2` matrices
are built and multiplied only at the edges (`MAT2_EDGES`): computations
in between hold matrices as int64 codes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/apcong/*.py"))
TESTS = sorted(ROOT.glob("tests/*.py"))
FILES = SRC + TESTS
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


def unread_fields(classes: dict[str, str], readers: dict[str, str],
                  untyped: dict[str, dict[str, str | None]]) -> list[str]:
    """The fields of the records (dataclasses and NamedTuples) in classes
    that no reader reads, and the problems with the loads that decide it.

    A field whose name no other record has is read by any load of that
    attribute or getattr of that name.  A field whose name two records
    share is read for record C only through a receiver typed C: self in a
    method of C, a name annotated C or bound only to C(...) or to calls of
    a function annotated to return C, a field annotated C, or an element of
    a list[C] or tuple[C, ...] or a value of a dict[K, C], also through
    zip.  Any other receiver of a shared name must
    be listed under its reader in untyped, mapped to the record it holds
    (None for no record; "*" lists every receiver of the reader); an
    unlisted one, and a listed one that no such load uses, is reported.
    """
    def record(cls) -> bool:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        return any(getattr(n, "id", None) in ("dataclass", "NamedTuple")
                   for n in decorators + cls.bases)

    def pseudo(node) -> bool:  # InitVar[...] and ClassVar[...] hold no field
        return (isinstance(node.annotation, ast.Subscript)
                and getattr(node.annotation.value, "id", None) in ("InitVar", "ClassVar"))

    fields, where = {}, {}  # record -> {field: annotation}, (record, field) -> line
    for module, source in classes.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and record(cls):
                fields[cls.name] = {}
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and not pseudo(node):
                        fields[cls.name][node.target.id] = node.annotation
                        where[cls.name, node.target.id] = f"{module}:{node.lineno}"
    owners = {}
    for cls, names in fields.items():
        for name in names:
            owners.setdefault(name, set()).add(cls)

    def named(node):
        """The type an annotation names: a record C (C | None is C), C[] for
        list[C] and tuple[C, ...], C{} for dict[K, C], else None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = [s for s in (node.left, node.right)
                     if not (isinstance(s, ast.Constant) and s.value is None)]
            return named(sides[0]) if len(sides) == 1 else None
        if isinstance(node, ast.Subscript):
            box = getattr(node.value, "id", None)
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            one = named(args[-1] if box == "dict" else args[0])
            suffix = {"list": "[]", "tuple": "[]", "dict": "{}"}.get(box)
            return one + suffix if suffix and one in fields else None
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name if name in fields else None

    def returns(sources) -> dict:
        """Function name -> the types that its definitions' annotations name."""
        out = {}
        for source in sources:
            for f in ast.walk(ast.parse(source)):
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.setdefault(f.name, set()).add(named(f.returns) if f.returns else None)
        return out

    def typeof(node, env, ret):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "values" and isinstance(f, ast.Attribute):
                box = typeof(f.value, env, ret)
                return box[:-2] + "[]" if box and box.endswith("{}") else None
            return name if name in fields else ret.get(name)
        if isinstance(node, ast.Attribute):
            owner = typeof(node.value, env, ret)
            if owner in fields and node.attr in fields[owner]:
                return named(fields[owner][node.attr])
        if isinstance(node, ast.Subscript):
            box = typeof(node.value, env, ret)
            return box[:-2] if box and box.endswith(("[]", "{}")) else None
        return None

    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    scopes = (*functions, ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp)

    def in_scope(scope):
        """The nodes of scope, without those of the scopes nested in it."""
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            yield node
            if not isinstance(node, scopes):
                todo.extend(ast.iter_child_nodes(node))

    def bindings(scope, cls):
        """name -> the annotations and values bound to it in scope."""
        out = {}

        def bind(target, value):
            if isinstance(target, ast.Name):
                out.setdefault(target.id, []).append(value)
            elif (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                  and len(target.elts) == len(value.elts)):
                for t, v in zip(target.elts, value.elts):
                    bind(t, v)
            elif (isinstance(target, ast.Tuple) and isinstance(value, ast.Subscript)
                  and isinstance(value.value, ast.Call)
                  and getattr(value.value.func, "id", None) == "zip"):
                # an element of zip(a, b, ...) is (an element of a, of b, ...)
                elements = ast.Tuple([ast.Subscript(v, ast.Constant(0)) for v in value.value.args])
                bind(target, elements)
            else:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        out.setdefault(n.id, []).append(None)

        if isinstance(scope, functions):
            a = scope.args
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in getattr(scope, "decorator_list", ()))
            for i, arg in enumerate(a.posonlyargs + a.args + a.kwonlyargs):
                self_of = cls if i == 0 and cls in fields and not static else None
                out[arg.arg] = [("type", self_of or (named(arg.annotation)
                                                      if arg.annotation else None))]
            for arg in (a.vararg, a.kwarg):
                if arg:
                    out[arg.arg] = [None]
        for node in in_scope(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind(target, node.value)
            elif isinstance(node, ast.AnnAssign):
                bind(node.target, ("type", named(node.annotation)))
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                bind(node.target, ast.Subscript(node.iter, ast.Constant(0)))
            elif isinstance(node, ast.NamedExpr):
                bind(node.target, node.value)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars:
                        bind(item.optional_vars, None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.setdefault(node.name, []).append(None)
        return out

    read, used, problems = set(), set(), []
    package = returns(classes.values())
    for reader, source in readers.items():
        # a call's type, where every definition of its name agrees on one
        ret = package | {name: package.get(name, set()) | kinds
                         for name, kinds in returns([source]).items()}
        ret = {name: next(iter(kinds)) for name, kinds in ret.items() if len(kinds) == 1}
        listed = untyped.get(reader, {})

        def visit(scope, outer, cls):
            bound = bindings(scope, cls)
            env = {k: v for k, v in outer.items() if k not in bound}
            for _ in range(4):  # a binding may read another one
                for name, values in bound.items():
                    kinds = {v[1] if isinstance(v, tuple) else v and typeof(v, env, ret)
                             for v in values}
                    kind = kinds.pop() if len(kinds) == 1 else None
                    if kind:
                        env[name] = kind
                    else:
                        env.pop(name, None)
            for node in in_scope(scope):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    load = node.value, node.attr
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    load = node.args[0], node.args[1].value
                else:
                    if isinstance(node, ast.ClassDef):
                        visit(node, env, node.name)
                    elif isinstance(node, scopes):
                        # a method's first parameter is an instance of its class
                        visit(node, env, scope.name if isinstance(scope, ast.ClassDef) else None)
                    continue
                receiver, name = load
                if len(owners.get(name, ())) == 1:
                    read.add((*owners[name], name))
                elif name in owners:
                    kind = typeof(receiver, env, ret)
                    text = ast.unparse(receiver)
                    key = text if text in listed else "*"
                    if kind is None and key in listed:
                        kind = listed[key]
                        used.add((reader, key))
                    elif kind is None:
                        problems.append(f"{reader}:{node.lineno}: {text}.{name} has no type")
                    read.add((kind, name))

        visit(ast.parse(source), {}, None)
    problems += [f"{reader}: {text} is listed but no untyped load uses it"
                 for reader, texts in untyped.items() for text in texts
                 if (reader, text) not in used]
    return problems + sorted(f"{where[key]}: {key[0]}.{key[1]}" for key in where
                             if key not in read)


def test_scan_finds_an_unread_field():
    classes = {
        "a": ("from dataclasses import InitVar, dataclass\n"
              "from typing import NamedTuple\n\n\n"
              "@dataclass(frozen=True)\n"
              "class A:\n    shown: int\n    by_getattr: int\n    left_over: int\n"
              "    seed: InitVar[int]\n\n"
              "    def __post_init__(self, seed):\n        self.written = seed\n\n\n"
              "class B(NamedTuple):\n    shown: int\n    stored_only: str = ''\n\n\n"
              "class C(NamedTuple):\n    label: str\n    n: int\n\n"
              "    def tag(self):\n        return self.label\n\n\n"
              "class D(NamedTuple):\n    label: str\n    n: int\n    box: C\n\n\n"
              "def make() -> 'D | None':\n    return None\n\n\n"
              "class Plain:\n    never_read: int = 0\n"),
    }
    readers = {
        "a": classes["a"],
        # A.shown is read, B.shown is not; C.n through a field of a list
        # element, D.n through a call, D.label through the listed receiver
        "use": ("import a\n\nx = a.A(1, 2, 3, 4)\nprint(x.shown, getattr(x, 'by_getattr'))\n"
                "x.left_over = 5\nstored_only = 'a name, not an attribute'\n\n\n"
                "def f(ds: list[a.D]):\n    return [d.box.n for d in ds], a.make().n\n\n\n"
                "print(listed.label, unlisted.label)\n"),
        "paths": "print(path.label)\n",
    }
    untyped = {"use": {"listed": "D", "stale": None}, "paths": {"*": None}}
    assert unread_fields(classes, readers, untyped) == [
        "use:13: unlisted.label has no type", "use: stale is listed but no untyped load uses it",
        "a:17: B.shown", "a:18: B.stored_only", "a:9: A.left_over"]


# receivers of a field name that two records share whose record the scan
# cannot infer, by reader, with the record each holds (None: no record)
UNTYPED_RECEIVERS = {
    # argparse flags, and verb and flag tables and results read from dicts
    "apcong/cli.py": {"args": None, "ds": "ApDataset", "e": "ClassCongruence",
                      "v": "Verb", "VERBS[verb]": "Verb", "flag": "Flag"},
    # a source narrowed to a series by isinstance
    "apcong/eigendata.py": {"source": "QSeries"},
    # FieldSpec and its moduli hold no record
    "apcong/ffield.py": {"*": None},
    "tests/test_ffield.py": {"*": None},
    "tests/helpers.py": {"self": None, "spec": None},
    # the scans read ast nodes and paths
    "tests/test_imports.py": {"*": None},
    # module infos, wrapped call arguments and the benchmark's closed loop
    "perfbench/layers.py": {"info": None, "args[0]": "EllipticCurve"},
    "perfbench/run.py": {"result": "ClosedLoopResult"},
    # elements of case tuples, monkeypatched results and dict lookups
    "tests/test_cli.py": {"ds": "ApDataset", "spec": "Verb", "converse": "TableCheck",
                          "by_name['mod-3 vanishing iff p mod 39']": "TableCheck"},
    "tests/test_discover.py": {"ds": "ApDataset", "st": "Statement", "packaged": "Statement",
                               "converse": "TableCheck"},
}


def test_no_unread_fields():
    classes = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    readers = {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8")
               for p in READERS + TESTS}
    assert unread_fields(classes, readers, UNTYPED_RECEIVERS) == []


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
                    or node.name.startswith("__")):
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
    assert untaken_defaults(sources, readers) == [
        "a:14: _m(unset)", "a:1: _f(only_tests)", "a:9: public(option)"]


def test_no_defaults_that_only_tests_pass():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    assert untaken_defaults(sources, [p.read_text(encoding="utf-8") for p in READERS]) == []


# where Mat2 matrices may be built (Mat2(...), Mat2.from_entries(...), .inv(),
# _mats_of) and multiplied: the class itself, parsing, generators read back
# for output, the constructions, and the Borel witness (built, never
# multiplied as a Mat2) in classify and abelian; None allows both
MAT2_EDGES = {
    "matgrp.py": {"Mat2": None, "identity": None, "MatGroup.generators": None,
                  "close_group": None, "group_from_json": None},
    "constructions.py": {"*": None},
    "classify.py": {"is_borel_conjugable": {"Mat2(...)"}},
    "abelian.py": {"_semisimple_exponent": {"Mat2(...)"}},
}


def mat2_uses(source: str) -> list[tuple[int, str, str]]:
    """(line, qualified name of the enclosing def or class, kind) for every
    Mat2 built ("Mat2(...)", "_mats_of") or multiplied ("Mat2 product").
    A product is a * with a matrix operand: a built matrix, identity(...),
    an element of .generators, .witness, or a name that the same def binds
    to one of these, or iterates over .generators or _mats_of(...)."""
    out = []

    def built(node) -> bool:
        f = node.func if isinstance(node, ast.Call) else None
        return ((isinstance(f, ast.Name) and f.id == "Mat2")
                or (isinstance(f, ast.Attribute) and (f.attr == "inv" or (
                    isinstance(f.value, ast.Name) and f.value.id == "Mat2"))))

    def matrix(node, mats, lists) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return matrix(node.left, mats, lists) or matrix(node.right, mats, lists)
        if isinstance(node, ast.Subscript):
            return matrices(node.value, mats, lists)
        return (built(node) or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                                and node.func.id == "identity")
                or (isinstance(node, ast.Attribute) and node.attr == "witness")
                or (isinstance(node, ast.Name) and node.id in mats))

    def matrices(node, mats, lists) -> bool:
        if isinstance(node, (ast.List, ast.Tuple)):
            return any(matrix(e, mats, lists) for e in node.elts)
        return ((isinstance(node, ast.Attribute) and node.attr == "generators")
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_mats_of")
                or (isinstance(node, ast.Name) and node.id in lists))

    def visit(node, qual, mats, lists):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{qual}.{node.name}" if qual else node.name
            if node.name == "_mats_of":
                out.append((node.lineno, qual, "_mats_of"))
            # the names this def binds to matrices, and to collections of them
            mats, lists = set(), set()
            for sub in ast.walk(node):
                pairs = []
                if isinstance(sub, ast.Assign):
                    pairs = [(t, sub.value) for t in sub.targets]
                elif isinstance(sub, (ast.For, ast.comprehension)):
                    # an element of the iterable
                    pairs = [(sub.target, ast.Subscript(sub.iter))]
                for target, value in pairs:
                    if isinstance(target, ast.Name):
                        if matrix(value, mats, lists):
                            mats.add(target.id)
                        elif matrices(value, mats, lists):
                            lists.add(target.id)
        elif built(node):
            out.append((node.lineno, qual, "Mat2(...)"))
        elif isinstance(node, ast.Name) and node.id == "_mats_of":
            out.append((node.lineno, qual, "_mats_of"))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
              and matrix(node, mats, lists)):
            out.append((node.lineno, qual, "Mat2 product"))
        for child in ast.iter_child_nodes(node):
            visit(child, qual, mats, lists)

    visit(ast.parse(source), "", set(), set())
    return out


def mat2_outside_edges(source: str, edges: dict) -> list[str]:
    """The Mat2 uses of mat2_uses that no edge allows: an edge is a
    qualified name, which covers the defs nested in it, or "*" for the
    whole module, mapped to the kinds it allows (None for every kind)."""
    def allowed(qual, kind):
        return any((key == "*" or qual == key or qual.startswith(key + "."))
                   and (kinds is None or kind in kinds) for key, kinds in edges.items())

    return [f"line {line}: {qual or '<module>'}: {kind}"
            for line, qual, kind in mat2_uses(source) if not allowed(qual, kind)]


def test_scan_finds_mat2_outside_the_edges():
    src = ("def edge(spec):\n"
           "    return Mat2(spec, (1, 0, 0, 1)) * Mat2(spec, (1, 1, 0, 1))\n\n\n"
           "def middle(G, spec, codes):\n"
           "    m = Mat2.from_entries(spec, [[1, 0], [0, 1]])\n"
           "    g = G.generators[0]\n"
           "    for h in G.generators:\n"
           "        g = g * h\n"
           "    scaled = [2 * x for x in codes]\n"
           "    return _mats_of(spec, codes), m.inv(), identity(spec) * m, 2 * 3, scaled\n\n\n"
           "def witness_only(ext, gens):\n"
           "    w = Mat2(ext, (1, 0, 0, 1))\n"
           "    return [w * g for g in gens]\n\n\n"
           "def _mats_of(spec, codes):\n"
           "    return codes\n")
    edges = {"edge": None, "witness_only": {"Mat2(...)"}}
    assert mat2_outside_edges(src, edges) == [
        "line 6: middle: Mat2(...)", "line 9: middle: Mat2 product",
        "line 11: middle: _mats_of", "line 11: middle: Mat2(...)",
        "line 11: middle: Mat2 product", "line 16: witness_only: Mat2 product",
        "line 19: _mats_of: _mats_of"]
    assert mat2_outside_edges(src, {"*": None}) == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_mat2_only_at_the_edges(path):
    source = path.read_text(encoding="utf-8")
    assert mat2_outside_edges(source, MAT2_EDGES.get(path.name, {})) == []
    # every edge listed is one: the allowlist names no code that needs none
    uses = mat2_uses(source)
    for key in MAT2_EDGES.get(path.name, {}):
        assert any(key == "*" or qual == key or qual.startswith(key + ".")
                   for _, qual, _ in uses), key
