"""Span recorder for the traced benchmark run.

The recorder wraps named public functions of envcalc from outside the
package.  Modules import each other by name (``from .extreal import
as_extreal``), so a function is replaced at every ``envcalc.*`` module
binding of it; methods are replaced on their class.  Each call becomes one
span (name, start, end, parent, op) kept in flat arrays in memory; the spans
go to a gzipped JSON-lines file when the run ends.  Self time is a span's duration
minus the durations of its direct children (calls nest, nothing overlaps in
one thread).  Size counts are read off the arguments and results after the
span closes.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, attribute path) of every traced function; a dotted path is a
# method on a class.  Span and metric names are "<module>.<path>", with
# GridFunction.__post_init__ named GridFunction.init.
TARGETS = (
    ("cli", "main"),
    ("cli", "parse_probe_grid"),
    ("extreal", "as_extreal"),
    ("extreal", "format_scalar"),
    ("extreal", "parse_scalar"),
    ("funcrep", "load_instance"),
    ("funcrep", "dump_instance"),
    ("funcrep", "GridFunction.__post_init__"),
    ("funcrep", "GridFunction.finite_items"),
    ("funcrep", "PLConvex1D.value_at"),
    ("transforms", "conjugate_llt"),
    ("transforms", "conjugate_brute"),
    ("transforms", "inf_conv"),
    ("transforms", "cl_conv"),
    ("transforms", "conjugate_exact"),
    ("operators", "grid_subdiff_test"),
    ("operators", "subdiff_exact"),
    ("operators", "subdiff_structure"),
    ("operators", "subdiff_graph"),
    ("operators", "fitzpatrick_structured"),
    ("envelopes", "envelope_result"),
    ("envelopes", "cup_value"),
    ("envelopes", "smile_value"),
    ("envelopes", "smile_eps_value"),
    ("envelopes", "circ_exact"),
    ("envelopes", "star_cup_exact"),
    ("envelopes", "n_cup"),
    ("theoremlab", "run_suite"),
    ("theoremlab", "run_check"),
    ("theoremlab", "gallery"),
    ("theoremlab", "InstanceGenerator.generate"),
)


def span_name(module, path):
    return f"{module}.{path.replace('__post_init__', 'init')}"


def _scalars(obj):
    """Scalars an instance file carried, counted on the loaded object."""
    if hasattr(obj, "breakpoints"):
        return 2 * len(obj.breakpoints)
    if hasattr(obj, "values"):
        return len(obj.points) * (obj.dim + 1)
    return 0


def _size_of(f):
    return len(f.points) if hasattr(f, "points") else len(f.breakpoints)


# per span name: (counter name, function of (args, result) giving the amount)
SIZES = {
    "cli.parse_probe_grid": ("points", lambda a, r: len(r)),
    "funcrep.load_instance": ("scalars", lambda a, r: _scalars(r)),
    "funcrep.GridFunction.init": ("samples", lambda a, r: len(a[0].points)),
    "transforms.conjugate_llt": ("samples", lambda a, r: len(a[0].points)),
    "transforms.conjugate_brute": (
        "cells", lambda a, r: len(a[0].points) * len(r.points)),
    "transforms.inf_conv": ("pairs", lambda a, r: _size_of(a[0]) * _size_of(a[1])),
    "transforms.conjugate_exact": ("breakpoints", lambda a, r: len(a[0].breakpoints)),
    "operators.grid_subdiff_test": ("accepted", lambda a, r: int(bool(r))),
    "operators.subdiff_graph": ("pairs", lambda a, r: len(r.pairs)),
    # one DP pass costs P per anchor over P anchors, n - 1 times, then P
    "envelopes.n_cup": (
        "pair_steps", lambda a, r: (a[2] - 1) * len(a[1].pairs) ** 2 + len(a[1].pairs)),
    "theoremlab.run_check": (
        "applicable", lambda a, r: int(r.verdict != "not-applicable")),
}


class Recorder:
    """Spans in flat arrays; ``active`` gates recording so that output
    checks between ops call the package without leaving spans."""

    def __init__(self):
        self.names = []          # distinct span names; a span stores the index
        self.name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = {}         # (span name, counter) -> total
        self.stack = [-1]
        self.current_op = -1
        self.active = False
        self._undo = []

    def _wrap(self, fn, name):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        size = SIZES.get(name)
        counts = self.counts
        if size is not None:
            key = (name, size[0])
            counts.setdefault(key, 0)
        clock = time.perf_counter_ns
        ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ops.append(rec.current_op)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if size is not None:
                counts[key] += size[1](args, result)
            return result

        return traced

    def install(self, package):
        """Replace every target at each envcalc module binding of it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package.__name__
                                         or k.startswith(package.__name__ + "."))]
        for module, path in TARGETS:
            owner = sys.modules[f"{package.__name__}.{module}"]
            name = span_name(module, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(fn, name), fn)
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(fn, name)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._set(m, attr, wrapper, fn)

    def _set(self, obj, attr, new, old):
        setattr(obj, attr, new)
        self._undo.append((obj, attr, old))

    def uninstall(self):
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per-span self time in ns: duration minus direct children."""
        n = len(self.name_id)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def layer_totals(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, s in zip(self.name_id, self.self_times()):
            calls[nid] += 1
            self_ns[nid] += s
        return {nm: (calls[i], self_ns[i] / 1e9) for i, nm in enumerate(self.names)}

    def write_jsonl(self, path):
        """Gzipped JSON lines: a header naming the columns and the span
        names, then one [id, parent, op, name index, start_ns, end_ns] array
        per span (parent -1 for a root span)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "op", "name", "start_ns",
                                             "end_ns"], "names": self.names}) + "\n")
            for i in range(len(self.name_id)):
                fh.write(f"[{i},{self.parent[i]},{self.op[i]},{self.name_id[i]},"
                         f"{self.start[i]},{self.end[i]}]\n")


# counters reported as a share of the calls: useful outcomes over attempts
RATIOS = {"accepted": "accept_ratio", "applicable": "applicable_ratio"}


def layer_metrics(totals, counts):
    """The per-layer metrics of BENCHMARK.json from layer totals and size
    counts, except trace.overhead_ratio, which the worker adds."""
    out = {}
    for module, path in TARGETS:
        name = span_name(module, path)
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = {"value": calls, "unit": "count"}
        out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name, (counter, _fn) in SIZES.items():
        amount = counts.get((name, counter), 0)
        if counter in RATIOS:
            calls = totals.get(name, (0, 0.0))[0]
            out[f"{name}.{RATIOS[counter]}"] = {
                "value": amount / calls if calls else 0.0, "unit": "ratio"}
        else:
            out[f"{name}.{counter}"] = {"value": amount, "unit": "count"}
    return out
