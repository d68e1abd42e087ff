"""One benchmark process: set up a workload, run its ops, report as JSON.

Started by run.py, never imported by it.  The process imports envcalc from
the checkout's ``src/``, writes the seeded instance files to a fresh
directory under ``.envbench_tmp/`` and chdirs there, then drives
``envcalc.cli.main(argv)`` in-process as a closed loop with one client: each
op starts when the previous one and its output check are done.  Stdout and
stderr of every op are captured; ``--out`` files land in the same directory.
Latency covers only the ``main`` call; the check runs after it, untimed.

The last line on stdout is a JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402  (the benchmark's own modules sit beside this file)
import inputs  # noqa: E402
from spans import Recorder, layer_metrics  # noqa: E402

# Seconds one cycle of each workload takes on the reference machine (2 cores,
# Python 3.11, numpy 2.4).  A run executes round(--seconds / this) cycles, so
# the work measured is fixed by --seconds and does not depend on how fast the
# code under test is; both sides of a comparison run the same ops.
# At least two cycles, so every run has at least 18 ops and op_tail_ms has
# ten ops beyond it.
NOMINAL_CYCLE_S = {"grid": 4.9, "exact": 9.0, "checklab": 6.0}


def cycles_for(workload, seconds):
    return max(2, round(seconds / NOMINAL_CYCLE_S[workload]))


# Speed reference.  The vCPUs of the reference machine run up to 40% faster
# or slower for minutes at a time, and that moves every timing of a run
# together.  Each process therefore times a fixed integer loop (no envcalc
# code, no object the garbage collector tracks) five times after set-up and
# once before every op, outside the timed calls.  Timings are reported
# multiplied by REFERENCE_LOOP_S / median(loop times): they read as if the
# machine ran at the speed where that loop takes REFERENCE_LOOP_S.  The raw
# timings are reported beside them.
REFERENCE_LOOP_S = 0.0037


def speed_loop():
    """Seconds one fixed pure-Python integer loop takes right now."""
    t0 = time.perf_counter()
    s = 0
    for k in range(30000):
        s = (s + k * k) & 0xFFFFFFFF
    return time.perf_counter() - t0


def import_envcalc():
    """Import envcalc from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import envcalc
    import envcalc.cli

    where = os.path.dirname(os.path.abspath(envcalc.__file__))
    if where != os.path.join(src, "envcalc"):
        raise ImportError(f"envcalc came from {where}, not from {src}")
    return envcalc


def run_op(main, op):
    """(exit code, stdout, seconds, stderr); an op that raises gets code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(op["argv"])
        except Exception as e:  # a crash is a failed op, not a failed run
            rc = None
            err.write(f"{type(e).__name__}: {e}")
        t1 = time.perf_counter()
    return rc, out.getvalue(), t1 - t0, err.getvalue()


class Loop:
    """Runs ops, checks each output once per distinct (op, output) pair."""

    def __init__(self, envcalc, workdir):
        self.cli = envcalc.cli  # looked up per op, so a traced main is seen
        self.clear_gallery = envcalc.theoremlab.gallery.cache_clear
        self.load_instance = envcalc.funcrep.load_instance
        self.workdir = workdir
        self.verified = set()
        self.failures = []
        self.loops = []  # speed_loop() seconds, one before each op

    def run(self, ops, recorder=None, first_index=0):
        latencies = []
        for k, op in enumerate(ops):
            if op["check"] == "gallery":
                # each `envcalc gallery` invocation is a fresh process, so the
                # per-process gallery cache starts empty
                self.clear_gallery()
            self.loops.append(speed_loop())
            if recorder is not None:
                recorder.current_op = first_index + k
                recorder.active = True
            rc, out, dt, err = run_op(self.cli.main, op)
            if recorder is not None:
                recorder.active = False
            latencies.append(dt)
            self.verify(op, rc, out, err)
        return latencies

    def verify(self, op, rc, out, err):
        key = (op["name"], tuple(op["argv"]), rc, hash(out))
        if rc == 0 and key in self.verified:
            return
        reason = checks.verify(op, rc, out, self.workdir, self.load_instance)
        if reason is None:
            self.verified.add(key)
        else:
            if err.strip():
                reason += f" (stderr: {err.strip().splitlines()[-1]})"
            self.failures.append(f"{op['name']}: {reason}")


def latency_stats(lat, scale):
    """ops/s, median and tail in ms, with every time multiplied by scale."""
    n = len(lat)
    srt = sorted(lat)
    tail_rank = n - 11  # ten ops lie beyond it
    return {
        "ops_per_s": n / (sum(lat) * scale),
        "op_p50_ms": statistics.median(lat) * scale * 1e3,
        "op_tail_ms": srt[tail_rank] * scale * 1e3,
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "samples": n,
    }


def facts(args, n_ops):
    import numpy
    import scipy

    src = os.path.join(ROOT, "src", "envcalc")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        import subprocess

        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "samples": n_ops,
        "src_envcalc_lines": lines,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    envcalc = import_envcalc()
    tmp_root = os.path.join(ROOT, ".envbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        # the traced run is one cycle: its counts depend on the seed alone
        cycles = 1 if args.trace else cycles_for(args.workload, args.seconds)
        ops = inputs.build(args.workload, args.seed, workdir, cycles)
        os.chdir(workdir)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        loops = [speed_loop() for _ in range(5)]
        if args.setup_only:
            scale = REFERENCE_LOOP_S / statistics.median(loops)
            print(json.dumps({"setup_s": setup_s * scale, "raw_setup_s": setup_s}))
            return 0
        loop = Loop(envcalc, workdir)
        result = {}
        if args.trace:
            result.update(traced_run(envcalc, loop, ops, args))
        else:
            lat = loop.run(ops)
            scale = REFERENCE_LOOP_S / statistics.median(loops + loop.loops)
            result.update(latency_stats(lat, scale))
            result["raw"] = latency_stats(lat, 1.0)
            result["speed_scale"] = scale
            result["setup_s"] = setup_s * scale
            result["raw_setup_s"] = setup_s
        result["attempted"] = len(ops) * (2 if args.trace else 1)
        result["failures"] = loop.failures
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["facts"] = facts(args, len(ops))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_run(envcalc, loop, ops, args):
    """Every op runs twice in a row, untraced and then traced, so both runs
    of a pair meet the same machine load.  Per-layer metrics come from the
    traced runs; the overhead is traced time over untraced time."""
    rec = Recorder()
    plain = traced = 0.0
    for k, op in enumerate(ops):
        plain += loop.run([op])[0]
        rec.install(envcalc)
        try:
            traced += loop.run([op], recorder=rec, first_index=k)[0]
        finally:
            rec.uninstall()
    metrics = layer_metrics(rec.layer_totals(), rec.counts)
    metrics["trace.overhead_ratio"] = {"value": traced / plain, "unit": "ratio"}
    out_dir = os.path.join(ROOT, ".envbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    rec.write_jsonl(path)
    return {"layers": metrics, "spans": len(rec.name_id),
            "spans_path": os.path.relpath(path, ROOT)}


if __name__ == "__main__":
    sys.exit(main())
