"""Seeded inputs for the envcalc benchmark: instance files and op lists.

Everything here is a pure function of (workload, seed, cycles): the same
arguments write byte-identical instance files and return the same op list.
Nothing imports envcalc, so the inputs do not depend on the code under test.

An op is a dict with the argv handed to ``envcalc.cli.main`` (file names are
relative to the directory the files were written to), the name of the check
that verifies its output, and the parameters that check needs.

Sizes and shapes are fixed per op and the seed draws values, so the cost of
a run does not swing with the seed.  A cycle is one pass over every op of a
workload, and a run repeats the cycle.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as F

WORKLOADS = ("grid", "exact", "checklab")

GRID_LLT_SIZES = (2**14, 2**15, 2**16)
EXACT_SIZES = (40, 95, 150)
# (breakpoints, left wall, right wall) of the tiny n_cup instances; with the
# 9 probes these give operator graphs of roughly 5 to 50 pairs
NCUP_SHAPES = tuple((m, m % 2 == 0, m % 3 == 0) for m in range(1, 9))
GALLERIES = ("quadratic", "open-interval", "half-circle", "two-patch")

# registry ids by the instance file they run on; every pairing is applicable
# (a not-applicable verdict exits 3 and would count as a failed op)
CHECK_IDS_CLOSED = (
    "ba.density", "dfdom.i", "dfdom.ineq",
    "fcirc.i", "fcirc.ii", "fcirc.iii", "fcirc.iv", "fcirc.v",
    "fcupdiez.i", "fcupdiez.iii", "fcupdiez.iv", "fcupdiez.ix",
    "fcupdiez.v", "fcupdiez.viii",
    "fsp.i", "fsp.ii", "fsp.iii",
    "fspeps.ii", "fspeps.iii", "fspeps.iv",
    "maxcup", "maxsdsp.closure", "maxsdsp.ii", "maxsdsp.iii", "maxsdsp.iv",
    "maxsdsp.v", "maxsdsp.vi", "maxsdsp.vii", "spxstar",
)
CHECK_IDS_OVERRIDE = ("dfdom.e3",)
CHECK_IDS_GRID = ("dfdom.iv",)
CHECK_IDS_INTERVAL = ("ncfitz",)


def fmt(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")
    return name


def _op(name, argv, check, **params) -> dict:
    return {"name": name, "argv": list(argv), "check": check, "params": params}


# ---------------------------------------------------------------------------
# instance makers
# ---------------------------------------------------------------------------


# a*x^2 + b*x + c*|x - d| for the subdifferential samples.  The grid test
# stops at the first sample that violates a candidate, so its cost follows
# the shape; fixing the shape keeps that cost the same for every seed.
SUBDIFF_SHAPE = (0.8, 0.3, 0.5, 0.7)


def _grid1d(rng, n, noise, n_inf=0, shape=None) -> dict:
    # a jittered lattice on [-4, 4]: strictly increasing, no duplicate points
    xs = [round(-4.0 + 8.0 * (k + 0.1 + 0.8 * rng.random()) / n, 9) for k in range(n)]
    if shape is None:
        shape = (rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0),
                 rng.uniform(0.0, 1.0), rng.uniform(-2.0, 2.0))
    a, b, c, d = shape
    vals = [
        round(a * x * x + b * x + c * abs(x - d) + noise * rng.uniform(-1.0, 1.0), 9)
        for x in xs
    ]
    for k in rng.sample(range(n), n_inf):
        vals[k] = "inf"
    return {"kind": "grid", "dim": 1, "points": xs, "values": vals}


def _grid2d(rng, side, noise) -> dict:
    # a fixed convex quadratic plus seeded noise (fixed shape: see SUBDIFF_SHAPE)
    axis = [round(-1.0 + 2.0 * k / (side - 1), 10) for k in range(side)]
    a1, a2, b, c1, c2 = 1.0, 0.8, 0.3, 0.2, -0.1
    pts, vals = [], []
    for x in axis:
        for y in axis:
            pts.append([x, y])
            v = a1 * x * x + a2 * y * y + b * x * y + c1 * x + c2 * y
            vals.append(round(v + noise * rng.uniform(-1.0, 1.0), 9))
    return {"kind": "grid", "dim": 2, "points": pts, "values": vals}


def _pl_parts(rng, m):
    """Breakpoints, values and interior slopes of a convex PL function with
    strictly increasing slopes, all small rationals."""
    x = F(rng.randint(-20, 5))
    xs = [x]
    for _ in range(m - 1):
        x += F(rng.randint(1, 9), rng.choice((1, 2, 4)))
        xs.append(x)
    s = F(rng.randint(-9, 5), rng.choice((1, 2, 3)))
    slopes = []
    for _ in range(m - 1):
        slopes.append(s)
        s += F(rng.randint(1, 7), rng.choice((1, 2, 3)))
    v = F(rng.randint(-9, 9))
    vals = [v]
    for i in range(m - 1):
        v += slopes[i] * (xs[i + 1] - xs[i])
        vals.append(v)
    return xs, vals, slopes


def _pl(rng, m, left_wall, right_wall, override_left=False, override_right=False):
    """A ``plconvex1d`` instance dict.  A side without a wall gets a
    recession slope; an override raises a wall endpoint (finite on the
    left, +inf on the right)."""
    xs, vals, slopes = _pl_parts(rng, m)
    lo_slope = slopes[0] if slopes else F(rng.randint(-4, 0))
    hi_slope = slopes[-1] if slopes else F(rng.randint(0, 4))
    d = {
        "kind": "plconvex1d",
        "breakpoints": [fmt(b) for b in xs],
        "values": [fmt(v) for v in vals],
        "left_recession": "stop" if left_wall else fmt(lo_slope - F(rng.randint(0, 6), 2)),
        "right_recession": "stop" if right_wall else fmt(hi_slope + F(rng.randint(0, 6), 2)),
    }
    if override_left:
        d["override_left"] = fmt(vals[0] + F(rng.randint(1, 8), rng.choice((1, 2, 4))))
    if override_right:
        d["override_right"] = "inf"
    return d


def _interval(rng) -> dict:
    lo = F(rng.randint(-6, 2), rng.choice((1, 2)))
    return {"kind": "interval", "lo": fmt(lo),
            "hi": fmt(lo + F(rng.randint(1, 8), rng.choice((1, 2))))}


def _span(d, pad):
    """Exact probe range: the breakpoint span widened by pad on each side."""
    xs = [F(b) for b in d["breakpoints"]]
    return fmt(xs[0] - pad), fmt(xs[-1] + pad)


def _slope_span(d, pad):
    xs = [F(b) for b in d["breakpoints"]]
    vs = [F(v) for v in d["values"]]
    sl = [(vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    for key in ("left_recession", "right_recession"):
        if d[key] != "stop":
            sl.append(F(d[key]))
    return fmt(min(sl) - pad), fmt(max(sl) + pad)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _grid_cycle(rng, workdir) -> list:
    ops = []
    for n in GRID_LLT_SIZES:
        name = _write(workdir, f"llt-{n}.json", _grid1d(rng, n, 0.01, n_inf=n // 1024))
        spec = f"-8:8:{n}"
        ops.append(_op(f"conjugate-llt-{n}",
                       ["conjugate", "--instance", name, "--dual-grid", spec],
                       "grid_conjugate", instance=name, dual_grid=spec,
                       sample_seed=rng.randrange(2**31)))
    # one convex and one slightly nonconvex sample set
    for label, noise in (("convex", 0.0), ("bumpy", 0.002)):
        name = _write(workdir, f"subdiff-1d-{label}.json",
                      _grid1d(rng, 200, noise, shape=SUBDIFF_SHAPE))
        ops.append(_op(f"subdiff-1d-{label}",
                       ["subdiff", "--instance", name, "--dual-grid", "-8:8:41",
                        "--tolerance", "1e-9"],
                       "grid_subdiff", instance=name, dual_grid="-8:8:41",
                       tolerance=1e-9))
    name = _write(workdir, "grid-2d.json", _grid2d(rng, 11, 0.002))
    ops.append(_op("subdiff-2d",
                   ["subdiff", "--instance", name, "--dual-grid", "-3:3:9",
                    "--tolerance", "1e-9"],
                   "grid_subdiff", instance=name, dual_grid="-3:3:9", tolerance=1e-9))
    ops.append(_op("conjugate-brute-2d",
                   ["conjugate", "--instance", name, "--dual-grid", "-3:3:33"],
                   "grid_conjugate", instance=name, dual_grid="-3:3:33",
                   sample_seed=rng.randrange(2**31)))
    f1 = _write(workdir, "infconv-f.json", _grid1d(rng, 200, 0.05))
    f2 = _write(workdir, "infconv-g.json", _grid1d(rng, 200, 0.05))
    ops.append(_op("infconv-1d", ["infconv", "--instance", f1, "--instance", f2],
                   "grid_infconv", instances=[f1, f2]))
    name = _write(workdir, "clconv-1d.json", _grid1d(rng, 400, 0.05))
    ops.append(_op("clconv-1d", ["clconv", "--instance", name],
                   "grid_clconv", instance=name))
    return ops


# breakpoints -> (left wall, right wall, finite left override, +inf right override)
_EXACT_SHAPES = {
    40: (True, False, False, False),
    95: (True, True, True, True),
    150: (False, False, False, False),
}

ENVELOPE_KINDS = ("cup", "sharp", "smile", "smileeps", "starcup", "circ")


def _exact_cycle(rng, workdir, cycle) -> list:
    ops = []
    for m in EXACT_SIZES:
        d = _pl(rng, m, *_EXACT_SHAPES[m])
        name = _write(workdir, f"pl-{m}-{cycle}.json", d)
        ops.append(_op(f"conjugate-csv-{m}", ["conjugate", "--instance", name],
                       "exact_conjugate_csv", instance=name))
        out = f"conjugate-{m}-{cycle}.out.json"
        ops.append(_op(f"conjugate-json-{m}",
                       ["conjugate", "--instance", name, "--out", out],
                       "exact_conjugate_json", instance=name, out=out))
        lo, hi = _span(d, 2)
        slo, shi = _slope_span(d, 2)
        for kind in ENVELOPE_KINDS:
            probes = f"{slo}:{shi}:101" if kind == "starcup" else f"{lo}:{hi}:101"
            argv = ["envelope", "--kind", kind, "--instance", name, "--probes", probes]
            if kind == "smileeps":
                argv += ["--eps", "0.25"]
            ops.append(_op(f"envelope-{kind}-{m}", argv, "exact_envelope",
                           instance=name, kind=kind))
        lo, hi = _span(d, 1)
        slo, shi = _slope_span(d, 1)
        ops.append(_op(f"fitz-{m}",
                       ["fitz", "--instance", name, "--probes", f"{lo}:{hi}:21",
                        "--dual-grid", f"{slo}:{shi}:21"],
                       "exact_fitz", instance=name))
        ops.append(_op(f"subdiff-{m}", ["subdiff", "--instance", name],
                       "exact_subdiff", instance=name))
    return ops


def _checklab_files(rng, workdir) -> dict:
    files = {"closed": [], "override": [], "grid": [], "interval": [], "ncup": []}
    # eight closed instances: each check id meets several per run, which
    # evens out how much a check's cost depends on the drawn values
    for i, m in enumerate((3, 5, 6, 8) * 2):
        files["closed"].append(
            _write(workdir, f"tiny-closed-{i}.json", _pl(rng, m, i % 2 == 0, i % 3 == 0)))
    for i, m in enumerate((3, 5, 6, 8)):
        files["override"].append(_write(
            workdir, f"tiny-override-{i}.json",
            _pl(rng, m, True, True, override_left=True, override_right=i % 2 == 1)))
    for i, n in enumerate((8, 11)):
        d = _grid1d(rng, n, 0.5)
        files["grid"].append(_write(workdir, f"tiny-grid-{i}.json", d))
        files["interval"].append(_write(workdir, f"tiny-interval-{i}.json", _interval(rng)))
    for m, left_wall, right_wall in NCUP_SHAPES:
        d = _pl(rng, m, left_wall, right_wall)
        files["ncup"].append((_write(workdir, f"ncup-{m}.json", d), d))
    return files


def _checklab_cycle(files, cycle, suite_seeds) -> list:
    ops = []
    for j, seed in enumerate(suite_seeds):
        ops.append(_op(f"suite-{cycle}-{j}", ["suite", "--seed", str(seed), "-n", "1"],
                       "suite"))
    for g in GALLERIES:
        ops.append(_op(f"gallery-{g}", ["gallery", g], "gallery", gallery=g))
    groups = (
        (CHECK_IDS_CLOSED, files["closed"]),
        (CHECK_IDS_OVERRIDE, files["override"]),
        (CHECK_IDS_GRID, files["grid"]),
        (CHECK_IDS_INTERVAL, files["interval"]),
    )
    for ids, names in groups:
        for k, tid in enumerate(ids):
            name = names[(k + cycle) % len(names)]
            ops.append(_op(f"check-{tid}", ["check", tid, "--instance", name],
                           "check", theorem_id=tid))
    for name, d in files["ncup"]:
        # probes stay inside the domain, where the n-fold envelope collapses to f
        lo, hi = _span(d, 2)
        if d["left_recession"] == "stop":
            lo = d["breakpoints"][0]
        if d["right_recession"] == "stop":
            hi = d["breakpoints"][-1]
        probes = f"{lo}:{hi}:9"
        ops.append(_op(f"ncup-{len(d['breakpoints'])}",
                       ["envelope", "--kind", "ncup", "--n", "3", "--instance", name,
                        "--probes", probes],
                       "ncup", instance=name))
    return ops


def build(workload: str, seed: int, workdir: str, cycles: int) -> list:
    """Write the workload's instance files into workdir and return its op
    list: ``cycles`` passes over the workload's ops.  grid repeats one pass;
    exact draws fresh instances on every pass; checklab takes new suite seeds
    on every pass and rotates the instance each check id sees."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    rng = random.Random(f"envbench/{workload}/{seed}")
    if workload == "grid":
        return _grid_cycle(rng, workdir) * cycles
    if workload == "exact":
        return [op for c in range(cycles) for op in _exact_cycle(rng, workdir, c)]
    files = _checklab_files(rng, workdir)
    # One suite costs 0.06 s to 3.3 s depending on its seed, so ten seeds
    # drawn per run would move ops_per_s by about 20% on their own.  The
    # suite seeds are therefore one fixed battery; the workload seed orders it.
    battery = random.Random("envbench/checklab/suite-seeds")
    suite_seeds = [battery.randrange(2**31) for _ in range(2 * cycles)]
    rng.shuffle(suite_seeds)
    ops = []
    for c in range(cycles):
        ops += _checklab_cycle(files, c, suite_seeds[2 * c:2 * c + 2])
    return ops
