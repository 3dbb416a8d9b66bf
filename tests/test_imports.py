"""Every import in the package and its tests is used.

A name bound by an import counts as used when it is read anywhere in the
module, listed in its __all__, or named inside a string (a quoted
annotation); imports from __future__ are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/apcong/*.py")) + sorted(ROOT.glob("tests/*.py"))


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
