"""Output checks for benchmark ops, each by a route independent of envcalc.

A check gets the op, its exit code, its stdout and the directory holding its
files, and returns None when the output is right or a one-line reason when it
is not.  Checks run outside the timed interval.  Grid oracles use numpy on
the raw instance files; exact oracles evaluate the instance description in
``Fraction`` arithmetic with ``math.inf`` for +inf.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
from fractions import Fraction as F

import numpy as np

from inputs import fmt

INF = math.inf


def _load(workdir, name):
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]!r}")
    return [ln.split(",") for ln in lines[1:]]


def _exact_cell(s):
    if s == "inf":
        return INF
    if s == "-inf":
        return -INF
    return F(s)


# ---------------------------------------------------------------------------
# grid workload (numpy oracles)
# ---------------------------------------------------------------------------


def _grid_arrays(d):
    """Finite samples of a grid instance file as float arrays."""
    keep = [i for i, v in enumerate(d["values"]) if v != "inf"]
    pts = np.array([d["points"][i] for i in keep], dtype=float)
    vals = np.array([float(d["values"][i]) for i in keep], dtype=float)
    return pts, vals


def _axis(spec):
    # same float arithmetic as a start:stop:count grid on the grid backend
    a, b, n = spec.split(":")
    start, stop, n = float(a), float(b), int(n)
    if n == 1:
        return [start]
    step = (stop - start) / (n - 1)
    pts = [start + step * k for k in range(n)]
    pts[-1] = stop
    return pts


def _duals(spec, dim):
    axis = _axis(spec)
    return np.array(axis if dim == 1 else [(a, b) for a in axis for b in axis], dtype=float)


def grid_conjugate(op, out, workdir):
    p = op["params"]
    d = _load(workdir, p["instance"])
    dim = d["dim"]
    x, v = _grid_arrays(d)
    rows = _rows(out, "x,value" if dim == 1 else "x,y,value")
    duals = _duals(p["dual_grid"], dim)
    if len(rows) != len(duals):
        return f"{len(rows)} rows for {len(duals)} dual points"
    got_pts = np.array([[float(c) for c in r[:-1]] for r in rows], dtype=float)
    if not np.array_equal(got_pts.reshape(duals.shape), duals):
        return "dual points differ from the requested grid"
    rng = random.Random(p["sample_seed"])
    n = len(rows)
    idx = sorted(set(rng.sample(range(n), min(n, 64))) | {0, n - 1})
    for i in idx:
        y = duals[i]
        want = float(np.max((x * y if dim == 1 else x @ y) - v))
        got = float(rows[i][-1])
        if not abs(got - want) <= 1e-9 * (1.0 + abs(want)):
            return f"conjugate at {y!r}: got {got!r}, brute force gives {want!r}"
    return None


def grid_subdiff(op, out, workdir):
    """Every (sample, dual) pair is in the output iff the affine minorant
    test holds; pairs within a band around the tolerance may go either way."""
    p = op["params"]
    d = _load(workdir, p["instance"])
    dim = d["dim"]
    x, v = _grid_arrays(d)
    duals = _duals(p["dual_grid"], dim)
    tol = p["tolerance"]
    band = 1e-7 * (1.0 + float(np.max(np.abs(v))))
    rows = _rows(out, "x,xstar" if dim == 1 else "x1,x2,xstar1,xstar2")
    got = {tuple(float(c) for c in r) for r in rows}
    if len(got) != len(rows):
        return "duplicate rows"
    expected = set()
    for i in range(len(v)):
        dx = x - x[i]
        # min over samples y of f(y) - f(a) - <s, y - a>, for every dual s
        if dim == 1:
            gap = (v[None, :] - v[i] - duals[:, None] * dx[None, :]).min(axis=1)
        else:
            gap = (v[None, :] - v[i] - duals @ dx.T).min(axis=1)
        a = (x[i],) if dim == 1 else tuple(x[i])
        for s, g in zip(duals, gap):
            key = a + ((s,) if dim == 1 else tuple(s))
            key = tuple(float(c) for c in key)
            if g >= -tol + band:
                expected.add(key)
                if key not in got:
                    return f"member pair {key!r} missing (gap {g!r})"
            elif g > -tol - band:
                expected.add(key)  # inside the band: either answer is fine
            elif key in got:
                return f"non-member pair {key!r} reported (gap {g!r})"
    extra = got - expected
    if extra:
        return f"{len(extra)} rows name no sample/dual pair, e.g. {sorted(extra)[0]!r}"
    return None


def grid_infconv(op, out, workdir):
    f, g = (_load(workdir, n) for n in op["params"]["instances"])
    xf, vf = _grid_arrays(f)
    xg, vg = _grid_arrays(g)
    sums = (xf[:, None] + xg[None, :]).ravel()
    vals = (vf[:, None] + vg[None, :]).ravel()
    order = np.lexsort((vals, sums))
    sums, vals = sums[order], vals[order]
    first = np.concatenate(([True], sums[1:] != sums[:-1]))
    want_x, want_v = sums[first], vals[first]
    rows = _rows(out, "x,value")
    if len(rows) != len(want_x):
        return f"{len(rows)} rows, numpy gives {len(want_x)} distinct sums"
    got = np.array([[float(a), float(b)] for a, b in rows], dtype=float)
    if not np.array_equal(got[:, 0], want_x):
        return "sum grid differs from numpy"
    if not np.array_equal(got[:, 1], want_v):
        i = int(np.argmax(got[:, 1] != want_v))
        return f"value at {want_x[i]!r}: got {got[i, 1]!r}, numpy gives {want_v[i]!r}"
    return None


def _lower_hull(x, v):
    idx = []
    for i in range(len(x)):
        while len(idx) >= 2:
            j, k = idx[-2], idx[-1]
            if (v[k] - v[j]) * (x[i] - x[j]) >= (v[i] - v[j]) * (x[k] - x[j]):
                idx.pop()
            else:
                break
        idx.append(i)
    return x[idx], v[idx]


def grid_clconv(op, out, workdir):
    d = _load(workdir, op["params"]["instance"])
    x, v = _grid_arrays(d)
    order = np.argsort(x)
    hx, hv = _lower_hull(x[order], v[order])
    rows = _rows(out, "x,value")
    if len(rows) < len(hx):
        return f"{len(rows)} rows for a hull with {len(hx)} vertices"
    for r in rows:
        px, val = _exact_cell(r[0]), _exact_cell(r[1])
        if px < hx[0] or px > hx[-1]:
            if val != INF:
                return f"hull at {r[0]} outside the samples should be inf, got {r[1]}"
            continue
        want = float(np.interp(float(px), hx, hv))
        if not abs(float(val) - want) <= 1e-9 * (1.0 + abs(want)):
            return f"hull at {float(px)!r}: got {float(val)!r}, numpy gives {want!r}"
    return None


# ---------------------------------------------------------------------------
# exact workloads (rational oracles)
# ---------------------------------------------------------------------------


class PL:
    """The function an exact instance file describes, evaluated directly."""

    def __init__(self, d):
        self.b = [F(s) for s in d["breakpoints"]]
        self.v = [F(s) for s in d["values"]]
        rec = d.get("left_recession", "stop"), d.get("right_recession", "stop")
        self.lrec, self.rrec = (None if r == "stop" else F(r) for r in rec)
        ovl, ovr = d.get("override_left"), d.get("override_right")
        self.ovl = None if ovl is None else _exact_cell(ovl)
        self.ovr = None if ovr is None else _exact_cell(ovr)
        b, v = self.b, self.v
        self.s = [(v[i + 1] - v[i]) / (b[i + 1] - b[i]) for i in range(len(b) - 1)]

    @property
    def closed(self):
        return self.ovl is None and self.ovr is None

    def cl(self, x):
        """Value of the closure (overrides dropped)."""
        b, v = self.b, self.v
        if x < b[0]:
            return INF if self.lrec is None else v[0] + self.lrec * (x - b[0])
        if x > b[-1]:
            return INF if self.rrec is None else v[-1] + self.rrec * (x - b[-1])
        i = bisect.bisect_right(b, x) - 1
        if b[i] == x:
            return v[i]
        return v[i] + self.s[i] * (x - b[i])

    def value(self, x):
        if x == self.b[0] and self.ovl is not None:
            return self.ovl
        if x == self.b[-1] and self.ovr is not None:
            return self.ovr
        return self.cl(x)

    def conj(self, y):
        """f*(y) = sup_x (x*y - f(x)); overrides never change it."""
        if (self.lrec is not None and y < self.lrec) or (
            self.rrec is not None and y > self.rrec
        ):
            return INF
        return max(y * b - v for b, v in zip(self.b, self.v))

    def subdiff(self, x):
        """(lo, hi) with +-inf for unbounded ends, or None when empty."""
        b, s = self.b, self.s
        if x < b[0]:
            return None if self.lrec is None else (self.lrec, self.lrec)
        if x > b[-1]:
            return None if self.rrec is None else (self.rrec, self.rrec)
        if (x == b[0] and self.ovl is not None) or (x == b[-1] and self.ovr is not None):
            return None
        i = bisect.bisect_right(b, x) - 1
        if b[i] != x:
            return (s[i], s[i])
        lo = s[i - 1] if i >= 1 else (-INF if self.lrec is None else self.lrec)
        hi = s[i] if i < len(s) else (INF if self.rrec is None else self.rrec)
        return (lo, hi)

    def regular_at(self, x):
        """f has a subgradient at x and no raised value there."""
        return self.subdiff(x) is not None and self.value(x) == self.cl(x)


def _pl(op, workdir):
    return PL(_load(workdir, op["params"]["instance"]))


def exact_conjugate_csv(op, out, workdir):
    f = _pl(op, workdir)
    rows = _rows(out, "x,value")
    if not rows:
        return "no rows"
    for y, val in rows:
        want = f.conj(F(y))
        if _exact_cell(val) != want:
            return f"f*({y}) = {val}, expected {want}"
    return None


def _conjugate_instance(f: PL) -> dict:
    """The instance file the conjugate of f must serialize to."""
    ys = set(f.s)
    for r in (f.lrec, f.rrec):
        if r is not None:
            ys.add(r)
    ys = sorted(ys) or [F(0)]
    return {
        "kind": "plconvex1d",
        "breakpoints": [fmt(y) for y in ys],
        "values": [fmt(f.conj(y)) for y in ys],
        "left_recession": fmt(f.b[0]) if f.lrec is None else "stop",
        "right_recession": fmt(f.b[-1]) if f.rrec is None else "stop",
    }


def exact_conjugate_json(op, out, workdir, load_instance):
    """The --out file holds f* and reloads to the same object."""
    f = _pl(op, workdir)
    got = _load(workdir, op["params"]["out"])
    want = _conjugate_instance(f)
    if got != want:
        return "conjugate instance file differs from the rational oracle"
    obj = load_instance(os.path.join(workdir, op["params"]["out"]))
    ref = PL(want)
    same = (
        list(obj.breakpoints) == ref.b and list(obj.values) == ref.v
        and obj.left_recession == ref.lrec and obj.right_recession == ref.rrec
        and obj.override_left is None and obj.override_right is None
    )
    if not same:
        return "conjugate instance file does not reload to the same object"
    return None


def exact_envelope(op, out, workdir):
    """cup, smile, smileeps and sharp equal f on a closed instance; on any
    instance they stay below cl f and meet f where f has a subgradient and no
    raised value.  circ is cl f, and starcup is the conjugate f*."""
    f = _pl(op, workdir)
    kind = op["params"]["kind"]
    rows = _rows(out, "x,value")
    if len(rows) != 101:
        return f"{len(rows)} rows for 101 probes"
    for x, val in rows:
        x, val = F(x), _exact_cell(val)
        if kind == "starcup":
            want = f.conj(x)
            if val != want:
                return f"starcup({x}) = {val}, expected f*(x) = {want}"
        elif kind == "circ":
            if val != f.cl(x):
                return f"circ({x}) = {val}, expected cl f(x) = {f.cl(x)}"
        elif f.closed or f.regular_at(x):
            if val != f.cl(x):
                return f"{kind}({x}) = {val}, expected f(x) = {f.cl(x)}"
        elif val > f.cl(x):
            return f"{kind}({x}) = {val} exceeds cl f(x) = {f.cl(x)}"
    return None


def exact_fitz(op, out, workdir):
    """Fenchel-Young sandwich x*y <= phi(x, y) <= cl f(x) + f*(y); the lower
    side needs a subgradient at x."""
    f = _pl(op, workdir)
    rows = _rows(out, "x,xstar,value")
    if len(rows) != 21 * 21:
        return f"{len(rows)} rows for a 21x21 grid"
    for x, y, val in rows:
        x, y, phi = F(x), F(y), _exact_cell(val)
        if phi > f.cl(x) + f.conj(y):
            return f"phi({x}, {y}) = {phi} above f(x) + f*(y)"
        if f.subdiff(x) is not None and phi < x * y:
            return f"phi({x}, {y}) = {phi} below x*y"
    return None


def exact_subdiff(op, out, workdir):
    f = _pl(op, workdir)
    rows = _rows(out, "x,lo,hi")
    seen = set()
    for x, lo, hi in rows:
        x = F(x)
        seen.add(x)
        want = f.subdiff(x)
        got = None if (lo, hi) == ("", "") else (_exact_cell(lo), _exact_cell(hi))
        if got != want:
            return f"subdifferential at {x}: got {got}, expected {want}"
    if not set(f.b) <= seen:
        return "default probes miss a breakpoint"
    return None


# ---------------------------------------------------------------------------
# checklab
# ---------------------------------------------------------------------------


def _verdicts(out):
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in ("pass", "fail", "not-applicable"):
            yield parts[1]
        elif len(parts) >= 3 and parts[2] in ("pass", "fail", "not-applicable"):
            yield parts[2]


def suite(op, out, workdir):
    last = out.splitlines()[-1] if out else ""
    if not last.startswith("checks:") or "fail: 0 " not in last + " ":
        return f"suite summary reports failures: {last!r}"
    if "fail" in _verdicts(out):
        return "suite printed a fail verdict"
    return None


def gallery(op, out, workdir):
    verdicts = list(_verdicts(out))
    if not verdicts:
        return "gallery printed no verdicts"
    if "fail" in verdicts:
        return "gallery printed a fail verdict"
    return None


def check(op, out, workdir):
    parts = out.split()
    if len(parts) < 3 or parts[0] != op["params"]["theorem_id"] or parts[2] != "pass":
        return f"expected a pass verdict, got {out.strip()!r}"
    return None


def ncup(op, out, workdir):
    """On a closed instance the n-fold envelope collapses to the support
    envelope (cup), which is f on the domain: every probe lies there."""
    f = _pl(op, workdir)
    rows = _rows(out, "x,value")
    if len(rows) != 9:
        return f"{len(rows)} rows for 9 probes"
    for x, val in rows:
        want = f.cl(F(x))
        if _exact_cell(val) != want:
            return f"ncup({x}) = {val}, expected cup(x) = f(x) = {want}"
    return None


CHECKS = {
    "grid_conjugate": grid_conjugate,
    "grid_subdiff": grid_subdiff,
    "grid_infconv": grid_infconv,
    "grid_clconv": grid_clconv,
    "exact_conjugate_csv": exact_conjugate_csv,
    "exact_conjugate_json": exact_conjugate_json,
    "exact_envelope": exact_envelope,
    "exact_fitz": exact_fitz,
    "exact_subdiff": exact_subdiff,
    "suite": suite,
    "gallery": gallery,
    "check": check,
    "ncup": ncup,
}


def verify(op, rc, out, workdir, load_instance):
    """None when the op succeeded and its output checks out, else a reason.
    load_instance is envcalc's reader, used only to reload a --out file."""
    if rc != 0:
        return f"exit code {rc}"
    fn = CHECKS[op["check"]]
    extra = (load_instance,) if fn is exact_conjugate_json else ()
    try:
        return fn(op, out, workdir, *extra)
    except (ValueError, KeyError, IndexError, OSError, ArithmeticError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
