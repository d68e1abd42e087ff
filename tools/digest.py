"""Output digests: one sha256 per op over everything the op printed or wrote.

Runs ``envcalc.cli.main`` in-process on one cycle of every op that
``envbench/inputs.py`` builds for the three workloads, on seeds 1 and 7, in
a temporary directory, then ``suite --seed s`` for s = 0-29 and
``gallery all``.  Each op gets one line:

    <workload>/seed<s>/<op name> <sha256> <instance files, "+"-joined, or ->

where the sha256 covers the exit code, stdout, stderr and every file the op
wrote (``--out``).  A last line, ``all <sha256>``, digests the op lines.

    python3 tools/digest.py                                    # print the lines
    python3 tools/digest.py --check tests/golden/ops_sha256.txt

``--check`` compares against a pinned file and exits 1 at the first op
whose line differs, naming it.  An intended output change regenerates the
pinned file (``python3 tools/digest.py > tests/golden/ops_sha256.txt``).
Besides envcalc it needs only the standard library and
``envbench/inputs.py``.  One run takes under a minute on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 7)
SUITE_SEEDS = range(30)


def run_op(main, argv, workdir) -> tuple:
    """(exit code, stdout, stderr, written files) of one ``main(argv)``
    call in ``workdir``.  The written files are (name, bytes) pairs for
    every file the call created there or changed (by modification time),
    sorted by name; an exception is recorded as exit code None with its
    type and text."""
    before = {e.name: e.stat().st_mtime_ns for e in os.scandir(workdir)}
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(argv))
            except Exception as e:  # a crash is an output like any other
                rc = None
                err.write(f"{type(e).__name__}: {e}")
    finally:
        os.chdir(cwd)
    files = []
    for e in sorted(os.scandir(workdir), key=lambda e: e.name):
        if e.is_file() and before.get(e.name) != e.stat().st_mtime_ns:
            with open(e.path, "rb") as fh:
                files.append((e.name, fh.read()))
    return rc, out.getvalue(), err.getvalue(), files


def digest(result) -> str:
    """sha256 of a ``run_op`` result; each part is length-prefixed, so no
    two different results share an encoding."""
    rc, out, err, files = result
    h = hashlib.sha256()

    def part(b: bytes) -> None:
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)

    part(repr(rc).encode())
    part(out.encode("utf-8", "surrogatepass"))
    part(err.encode("utf-8", "surrogatepass"))
    for name, data in files:
        part(name.encode())
        part(data)
    return h.hexdigest()


def _instances(argv) -> str:
    names = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--instance"]
    return "+".join(names) or "-"


def op_lines(main, inputs, workdir_root=None):
    """Yield the op lines: every workload op on every seed, then the suites
    and the galleries."""
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=workdir_root) as workdir:
                for op in inputs.build(workload, seed, workdir, 1):
                    sha = digest(run_op(main, op["argv"], workdir))
                    yield f"{workload}/seed{seed}/{op['name']} {sha} {_instances(op['argv'])}"
    with tempfile.TemporaryDirectory(dir=workdir_root) as workdir:
        for seed in SUITE_SEEDS:
            argv = ["suite", "--seed", str(seed)]
            yield f"suite/seed{seed} {digest(run_op(main, argv, workdir))} -"
        yield f"gallery/all {digest(run_op(main, ['gallery', 'all'], workdir))} -"


def _import():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "envbench"))
    import inputs
    import envcalc.cli

    return envcalc.cli.main, inputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="PINNED",
                    help="compare with a pinned file; exit 1 at the first op that differs")
    args = ap.parse_args(argv)
    cli_main, inputs = _import()
    pinned = None
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            pinned = [line.rstrip("\n") for line in fh if line.strip()]
    lines = []
    for line in op_lines(cli_main, inputs):
        if pinned is not None:
            want = pinned[len(lines)] if len(lines) < len(pinned) else None
            if line != want:
                print(f"first op that differs: {line.split()[0]}")
                print(f"  pinned: {want}")
                print(f"  now:    {line}")
                return 1
        else:
            print(line, flush=True)
        lines.append(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if pinned is None:
        print(f"all {total}")
        return 0
    if pinned[len(lines):] != [f"all {total}"]:
        print(f"pinned file ends with {pinned[len(lines):]!r}, not 'all {total}'")
        return 1
    print(f"all {len(lines)} ops match ({total})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
