"""Source checks that need nothing beyond the standard library.

``test_no_unused_imports`` parses every module of ``src/envcalc`` with
``ast`` and fails on a name that an import binds but the module never
reads (as a bare name or the base of an attribute) and ``__all__`` does
not list.  ``from __future__`` imports are exempt.

``test_readme_names_resolve`` reads every backticked ``module.name`` in
README.md whose module is one of ``src/envcalc`` and fails on one that
the module's source does not define at top level (or, for a longer
name, inside the class it names).
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "envcalc"


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


def readme_names(text: str, modules) -> list:
    """The dotted names in backtick spans of ``text`` that start with one
    of ``modules`` (or with ``envcalc.``), in order."""
    head = "|".join(("envcalc", *modules))
    pattern = re.compile(rf"(?<![\w.])(?:{head})(?:\.[A-Za-z_]\w*)+")
    return [m.group(0) for span in re.findall(r"`([^`\n]+)`", text)
            for m in pattern.finditer(span)]


def _defined(body) -> dict:
    """Name -> node of what a module or class body binds."""
    out = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(t, ast.Name):
                    out[t.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node
    return out


def resolves(dotted: str, src=SRC) -> bool:
    """True iff ``module.name[.attr]`` names a module of ``src``, a file of
    it (``module.py``), or something its source defines."""
    parts = dotted.split(".")
    if parts[0] == "envcalc":
        parts = parts[1:] if (src / f"{parts[1]}.py").exists() else ["__init__", *parts[1:]]
    path = src / f"{parts[0]}.py"
    if not path.exists():
        return False
    if parts[1:] == ["py"]:
        return True
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for part in parts[1:]:
        node = _defined(body).get(part)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def test_readme_names_finds_and_resolves_what_it_should():
    text = "`funcrep.GridFunction.finite_items`, `a.b`, `x = operators.nope(1)` and `envcalc.cli`"
    names = readme_names(text, ["funcrep", "operators", "cli"])
    assert names == ["funcrep.GridFunction.finite_items", "operators.nope", "envcalc.cli"]
    assert [resolves(n) for n in names] == [True, False, True]
    assert resolves("theoremlab.py") and not resolves("funcrep.GridFunction.nope")


def test_readme_names_resolve():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    names = readme_names((ROOT / "README.md").read_text(encoding="utf-8"), modules)
    assert len(set(names)) >= 20
    assert [n for n in names if not resolves(n)] == []
