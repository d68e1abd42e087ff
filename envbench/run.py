"""envcalc benchmark: end-to-end and per-layer metrics on seeded workloads.

Run from the repository root:

    python3 envbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads are ``grid``, ``exact`` and ``checklab`` (see README.md in this
directory); ``all`` runs the three in turn.  Each workload runs in worker
processes (worker.py) that import envcalc from this checkout's ``src/``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: process start to first op (interpreter, ``import envcalc``,
  writing the seeded instance files), the median over five process starts;
* ``ops_per_s``, ``op_p50_ms``, ``op_tail_ms``: throughput and latency of a
  closed loop with one client over ``cli.main(argv)`` calls;
* ``peak_rss_mb``: peak resident memory of the measuring process.

Timings are scaled to a reference machine speed measured by a fixed integer
loop in the same process (``REFERENCE_LOOP_S`` in worker.py); the unscaled
values are printed beside them.

``fail_ratio`` (failed/attempted) is printed with them; it is 0 on a correct
tree, so it travels in the result's ``failed`` and ``attempted`` fields
rather than as a metric.  ``--trace 1`` runs each op of one cycle untraced
and then traced, and reports per-layer counts and self times plus
``trace.overhead_ratio``; the spans go to ``.envbench_out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failure to measure exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("grid", "exact", "checklab")

SETUPS = 5  # process starts per run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s

# (name, unit, direction) of the end-to-end metrics, in print order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class BenchError(RuntimeError):
    pass


def _worker(args, deadline, setup_only=False):
    """Run one worker process to completion; return its JSON report."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} worker printed nothing")
    return json.loads(lines[-1])


def measure(args, deadline):
    """One workload: (report lines, result dict with the four result keys)."""
    # a traced run reports no setup_s, so it starts no extra processes
    setups = [_worker(args, deadline, setup_only=True)
              for _ in range(0 if args.trace else SETUPS - 1)]
    rep = _worker(args, deadline)
    failures = rep["failures"]
    attempted = rep["attempted"]
    lines = [f"{args.workload}: seed {args.seed}, {rep['facts']['samples']} ops, "
             f"trace {args.trace}",
             "facts " + json.dumps(rep["facts"], sort_keys=True)]
    if args.trace:
        metrics = rep["layers"]
        lines.append(f"  {rep['spans']} spans written to {rep['spans_path']}")
        for name, m in metrics.items():
            lines.append(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    else:
        setups.append(rep)
        rep["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        rep["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        metrics = {name: {"value": rep[name], "unit": unit} for name, unit, _ in END_TO_END}
        lines.append(f"  timings scaled by {rep['speed_scale']:.4f} to the reference speed")
        for name, unit, better in END_TO_END:
            note = ""
            if name == "setup_s":
                note = f", median of {SETUPS} process starts"
            elif name == "op_tail_ms":
                note = f", p{rep['tail_percentile']:.1f} of {rep['samples']} ops"
            if name in rep["raw"]:
                note += f"; unscaled {rep['raw'][name]:.4f}"
            lines.append(f"  {name:<12} {rep[name]:>12.4f} {unit:<4} ({better} is better{note})")
        lines.append(f"  {'fail_ratio':<12} {len(failures) / attempted:>12.4f} "
                     f"{'1':<4} (lower is better, {len(failures)}/{attempted} ops failed)")
    for f in failures[:10]:
        print(f"envbench: {args.workload}: {f}", file=sys.stderr)
    return lines, {"correct": not failures, "attempted": attempted,
                   "failed": len(failures), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "envcalc", "cli.py")):
        print("envbench: no envcalc sources under src/ in this checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            lines, results[name] = measure(argparse.Namespace(**{**vars(args), "workload": name}),
                                           deadline)
            print("\n".join(lines), flush=True)
    except (BenchError, KeyError, ValueError) as e:
        print(f"envbench: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
