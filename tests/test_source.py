"""Source checks that need nothing beyond the standard library.

``test_no_unused_imports`` parses every module of ``src/envcalc`` with
``ast`` and fails on a name that an import binds but the module never
reads (as a bare name or the base of an attribute) and ``__all__`` does
not list.  ``from __future__`` imports are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "envcalc"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_what_it_should():
    src = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n"
        "    from .g import h\n"
        "    return np.zeros(1), b\n"
    )
    assert unused_imports(src) == [(2, "os"), (4, "d"), (7, "h")]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{p.name}:{line}: {name}"
        for p in paths
        for line, name in unused_imports(p.read_text(encoding="utf-8"))
    ]
    assert found == []
