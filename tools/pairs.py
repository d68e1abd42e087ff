"""Alternating pairs of benchmark runs: a parent tree against a changed tree.

Runs ``envbench/run.py`` of each tree in turn, ``--pairs`` times, with the
order flipped every pair (parent first, then change first, ...), so that a
drift of the machine during the session lands on both sides.  Each run is
a fresh process in its own tree, with tracing off.  For every end-to-end
metric it then prints the parent's median and interquartile range, the
change's median, their ratio, the number of pairs the change won and
whether that makes a gain:

    git worktree add ../parent HEAD~1
    python3 tools/pairs.py ../parent . --workload grid --seed 1 --seconds 30 --pairs 10

A gain needs the change to win at least nine in ten pairs (ties count
for neither side) and the medians to differ by more than the parent's
interquartile range; the ``gain`` column says whether both hold.
``--workload all`` compares every workload's metrics.
``--json PATH`` also writes each run's values.  The exit code is 1 when a
run fails or reports an incorrect op, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "envbench"))

from run import DEADLINE_S, END_TO_END, WORKLOADS  # noqa: E402

BETTER = {name: better for name, _unit, better in END_TO_END}


def run_once(tree: str, args) -> dict:
    """One ``envbench/run.py`` run in ``tree``: its final JSON object."""
    cmd = [
        sys.executable, os.path.join(tree, "envbench", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    n_workloads = len(WORKLOADS) if args.workload == "all" else 1
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=DEADLINE_S * n_workloads + 60)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def report(runs: dict) -> list:
    """Text lines: one per metric, over the pairs in ``runs``."""
    parent, change = runs["parent"], runs["change"]
    lines = [f"{'metric':<26} {'parent p50':>11} {'parent IQR':>21} "
             f"{'change p50':>11} {'ratio':>7} {'wins':>6} gain"]
    for name in parent[0]["metrics"]:
        base = name.rsplit(".", 1)[-1]
        if base not in BETTER:
            continue
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        q1, med_a, q3 = statistics.quantiles(a, n=4, method="inclusive")
        med_b = statistics.median(b)
        if BETTER[base] == "higher":
            wins = sum(y > x for x, y in zip(a, b))
        else:
            wins = sum(y < x for x, y in zip(a, b))
        ratio = med_b / med_a if med_a else float("nan")
        gain = 10 * wins >= 9 * len(a) and abs(med_b - med_a) > q3 - q1
        lines.append(f"{name:<26} {med_a:>11.4f} {q1:>10.4f}-{q3:<10.4f} "
                     f"{med_b:>11.4f} {ratio:>7.3f} {wins:>3}/{len(a)} "
                     f"{'yes' if gain else 'no'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="tree of the parent commit")
    ap.add_argument("change", help="tree of the change")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", help="also write every run's values here")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                res = run_once(trees[side], args)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                print(f"pairs: {side}: {e}", file=sys.stderr)
                return 1
            ok = ok and res.get("correct") is True
            runs[side].append(res)
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)
    print(f"{args.workload}: seed {args.seed}, {args.seconds} s runs, {args.pairs} "
          f"alternating pairs; every op correct: {ok}")
    print("\n".join(report(runs)))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"args": vars(args), "runs": runs}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
