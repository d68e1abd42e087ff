"""Reach census: the functions in src/envcalc that nothing in the system runs.

The system is what ``tools/digest.py`` pins: its ``op_lines``, which run
``envcalc.cli.main`` on one cycle of every op that ``envbench/inputs.py``
builds for the three workloads on seeds 1 and 7, then ``suite --seed s``
for s = 0-29 and ``gallery all``.  ``sys.setprofile`` records each function
that starts (from the import of envcalc on, so decorators count).  Then it
prints each function defined in ``src/envcalc`` that never ran, with its
line count, and a total line last.  A function nested in one that never ran
is counted in its parent's lines, not again on its own.  Lambdas and
comprehensions are not counted.

    python3 tools/reach.py

It imports ``tools/digest.py`` and ``envbench/inputs.py`` and writes nothing
outside its temporary directories.  One run takes about 20 s on 2 vCPUs.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "envcalc")


def _reached() -> set:
    """(file, first line) of every code object that started while envcalc
    was imported (decorators run then) and while the digest's ops ran."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import digest

    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        cli_main, inputs = digest._import()
        import envcalc

        where = os.path.dirname(os.path.abspath(envcalc.__file__))
        if where != SRC:
            raise ImportError(f"envcalc came from {where}, not from {SRC}")
        for _line in digest.op_lines(cli_main, inputs):
            pass
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}


def _unreached(path: str, reached: set) -> list:
    """(qualified name, first line, line count) of the outermost functions
    in one file that never started."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    path = os.path.realpath(path)
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code object starts at its first decorator
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = f"{prefix}{child.name}"
                if (path, first) in reached:
                    walk(child, f"{name}.")
                else:
                    out.append((name, child.lineno, child.end_lineno - first + 1))

    walk(tree, "")
    return out


def main() -> int:
    reached = _reached()
    n_funcs = n_lines = 0
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        for name, line, count in _unreached(os.path.join(SRC, fname), reached):
            print(f"{module}.{name}  line {line}  {count} lines")
            n_funcs += 1
            n_lines += count
    print(f"total: {n_funcs} functions, {n_lines} lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
