"""Reach census: the functions in src/envcalc that nothing in the system runs.

Runs ``envcalc.cli.main`` on one cycle of each benchmark workload (the op
lists that ``envbench/inputs.py`` builds for seed 1, in a temporary
directory), ``run_suite(s, 4)`` for s = 0-9 and every gallery, with
``sys.setprofile`` recording each function that starts (from the import of
envcalc on, so decorators count).  Then it prints each function defined in
``src/envcalc`` that never ran, with its line count, and a total line last.
A function nested in one that never ran is counted in its parent's lines,
not again on its own.  Lambdas and comprehensions are not counted.

    python3 tools/reach.py

It imports ``envbench/inputs.py`` and writes nothing outside its temporary
directory.  One run takes about 30 s on 2 vCPUs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "envcalc")
SEED = 1
SUITE_SEEDS = range(10)
SUITE_INSTANCES = 4


def _run_system(envcalc) -> None:
    """Everything the census counts as the system: workloads, suites and
    galleries.  Exit codes and outputs are not checked."""
    import inputs

    cwd = os.getcwd()
    for workload in inputs.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            ops = inputs.build(workload, SEED, workdir, 1)
            os.chdir(workdir)
            try:
                for op in ops:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        envcalc.cli.main(op["argv"])
            finally:
                os.chdir(cwd)
    for seed in SUITE_SEEDS:
        envcalc.theoremlab.run_suite(seed, SUITE_INSTANCES)
    for name in envcalc.theoremlab.GALLERY_NAMES:
        envcalc.theoremlab.gallery(name)


def _reached() -> set:
    """(file, first line) of every code object that started while envcalc
    was imported (decorators run then) and while the system ran."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "envbench"))
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import envcalc
        import envcalc.cli

        where = os.path.dirname(os.path.abspath(envcalc.__file__))
        if where != SRC:
            raise ImportError(f"envcalc came from {where}, not from {SRC}")
        _run_system(envcalc)
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
