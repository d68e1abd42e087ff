"""Batch command line: transforms, theorem checks, suites, galleries.

Every verb reads instance JSON files, computes, and emits CSV (to --out,
else stdout).  When an exact verb produces another instance, an --out path
ending in .json re-emits it as an instance file that parses back to the
identical object.  Exit codes: 0 success, 1 a check or suite reported a
failure, 2 arguments or inputs that do not parse, 3 inputs that parse but
violate a hypothesis of the requested computation.

``--instance`` also accepts ``gallery:<name>``, which resolves to that
worked example's primary object, so the shipped examples can be probed
without writing files first.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import orjson

from .extreal import format_scalar, parse_scalar
from .funcrep import (
    MAX_GRID_POINTS,
    GridFunction,
    Interval1D,
    MaxAffine,
    OperatorGraph,
    PLConvex1D,
    dump_instance,
    effective_domain,
    load_instance,
)
from . import transforms, operators, envelopes, theoremlab


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _check_grid_size(count: int) -> None:
    if count > MAX_GRID_POINTS:
        raise _UsageError(
            f"probe grid of {count} points exceeds the limit of {MAX_GRID_POINTS}"
        )


def _grid_count(spec: str) -> int:
    """The validated count of a "start:stop:count" probe grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError(f"probe grid {spec!r} is not start:stop:count")
    try:
        count = int(parts[2])
    except ValueError:
        raise _UsageError(f"probe count {parts[2]!r} is not an integer")
    if count < 1:
        raise _UsageError("probe count must be at least 1")
    _check_grid_size(count)
    return count


def parse_probe_grid(spec: str, exact: bool = True):
    """Evenly spaced points from a "start:stop:count" description: a tuple
    of ``Fraction``s, or with ``exact=False`` a float64 array."""
    count = _grid_count(spec)
    parts = spec.split(":")
    try:
        start = parse_scalar(parts[0], exact=exact).finite()
        stop = parse_scalar(parts[1], exact=exact).finite()
    except (ValueError, TypeError) as e:
        raise _UsageError(str(e))
    if not exact:
        start, stop = float(start), float(stop)
    if count == 1:
        return (start,) if exact else np.array([start])
    step = (stop - start) / (count - 1)
    if not exact and not math.isfinite(step):
        raise _UsageError(f"probe grid {spec!r} spans past the float range")
    if exact:
        # start + step k is (a + b k) / d over the lcm d of the denominators
        d = math.lcm(start.denominator, step.denominator)
        a = start.numerator * (d // start.denominator)
        b = step.numerator * (d // step.denominator)
        pts = [Fraction(a + b * k, d) for k in range(count)]
    else:
        # start + step * float(k), each rounded once, as in Python floats;
        # only the last point can round past the float range, and stop
        # replaces it
        with np.errstate(over="ignore"):
            pts = start + step * np.arange(count)
    pts[-1] = stop  # exact endpoint even for float grids
    return tuple(pts) if exact else pts


_GALLERY_MAIN_KEYS = ("instance", "f", "graph", "hull")


def _resolve_instance(ref: str):
    if ref.startswith("gallery:"):
        g = theoremlab.gallery(ref[len("gallery:"):])
        for key in _GALLERY_MAIN_KEYS:
            if key in g.objects:
                return g.objects[key]
        raise KeyError(f"gallery {g.name!r} carries no loadable object")
    with open(ref, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    # load_instance would read a string as a path
    if not isinstance(d, dict):
        raise _UsageError(f"instance file {ref!r} does not hold a JSON object")
    try:
        return load_instance(d)
    except KeyError as e:
        raise _UsageError(
            f"{d.get('kind')} instance lacks the required key {e.args[0]!r}"
        ) from None


def _emit(out_path, header: str, cols) -> None:
    """Write a CSV of equal-length columns under ``header``.  Float64
    array columns go row-major through ``_float_text``; cell columns go
    into one list with their separators by slice assignment, and one join
    makes the text: no row is built as a tuple."""
    m = len(cols)
    if m and all(isinstance(c, np.ndarray) for c in cols):
        text = _float_text(np.stack(cols, axis=1).ravel(), m)
    else:
        n = len(cols[0]) if cols else 0
        parts = [","] * (2 * m * n)
        for k, col in enumerate(cols):
            parts[2 * k :: 2 * m] = col
        if n:
            parts[2 * m - 1 :: 2 * m] = ["\n"] * n
        text = "".join(parts)
    # the header apart, so that the table's text is not copied once more
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines((header, "\n", text))
    else:
        sys.stdout.writelines((header, "\n", text))


def _emit_instance_json(out_path, obj) -> bool:
    if not out_path or not str(out_path).endswith(".json"):
        return False
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dump_instance(obj), fh, indent=2)
        fh.write("\n")
    return True


# rows per orjson pass: buffers of a few hundred KB, which write a 2^16-row
# table in about two thirds of the time of one pass, and free no large one
_BLOCK_ROWS = 4096


def _float_text(a: np.ndarray, m: int) -> str:
    """CSV rows of ``m`` cells each from the row-major float64 cells ``a``,
    every cell spelled as ``repr`` spells it, every row ended by a newline.

    orjson writes the same shortest round-trip digits as ``repr`` (Ryu
    against Gay's algorithm), one C pass per block of ``_BLOCK_ROWS`` rows,
    and every m-th comma becomes a newline in place.  Its notation differs
    for non-finite values (``null``) and outside [1e-4, 1e16) (``0.00001``,
    ``1e16`` where ``repr`` writes ``1e-05``, ``1e+16``): the cells one mask
    finds there are spelled again by ``repr``.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)  # a list or a strided column too
    out = []
    for lo in range(0, a.size, _BLOCK_ROWS * m):
        blk = a[lo : lo + _BLOCK_ROWS * m]
        buf = bytearray(orjson.dumps(blk, option=orjson.OPT_SERIALIZE_NUMPY))
        buf[-1] = 44  # "]" becomes the comma after the last cell
        b = np.frombuffer(buf, dtype=np.uint8)
        seps = np.flatnonzero(b == 44)  # seps[i] ends cell i
        b[seps[m - 1 :: m]] = 10
        mag = np.abs(blk)
        odd = np.flatnonzero(~(mag < 1e16) | (mag < 1e-4) & (mag != 0))
        view, prev = memoryview(buf), 1  # past the "["
        for i, x in zip(odd.tolist(), blk[odd].tolist()):
            out += (str(view[prev : seps[i - 1] + 1 if i else 1], "ascii"), repr(x))
            prev = seps[i]
        out.append(str(view[prev:], "ascii"))
    return "".join(out)


def _cells(xs) -> list:
    """Cells of many scalars at once, spelled as ``format_scalar`` spells
    them.

    A float64 array or a column of floats takes ``_float_text``'s one-cell
    rows.  Any other column spells a float or an int as its repr (which
    writes the infinities as inf and -inf) and anything else by
    ``format_scalar``.
    """
    kinds = {float} if isinstance(xs, np.ndarray) else set(map(type, xs))
    if kinds == {float}:
        return _float_text(xs, 1).split("\n")[:-1]
    if kinds <= {float, int}:
        return list(map(repr, xs))
    return [repr(x) if type(x) in (float, int) else format_scalar(x) for x in xs]


def _coord_columns(points, dim: int) -> list:
    """Cells of the points, one list per coordinate; the points are a list,
    or a float64 array when every coordinate is a float."""
    if dim == 1:
        return [_cells(points)]
    if isinstance(points, np.ndarray):
        return [_cells(points[:, k]) for k in range(dim)]
    return [_cells([p[k] for p in points]) for k in range(dim)]


def _rows(points, values, dim: int) -> list:
    """CSV columns of the points' coordinates followed by their values."""
    return [*_coord_columns(points, dim), _cells(values)]


def _grid_rows(g: GridFunction) -> list:
    """CSV columns of a grid function's samples: float64 arrays, which
    ``_emit`` writes at C speed, when every coordinate is a float."""
    if not g.float_points:
        return _rows(g.points, g.value_array, g.dim)
    return [*g.point_array.reshape(-1, g.dim).T, g.value_array]


def _cross(axis) -> tuple:
    """The 2D points (a, b) over an axis with itself, a outer; a float64
    axis gives Python floats."""
    _check_grid_size(len(axis) ** 2)
    if isinstance(axis, np.ndarray):
        axis = axis.tolist()
    return tuple((a, b) for a in axis for b in axis)


def _emit_pl(out_path, g: PLConvex1D, spec) -> int:
    """Write an exact result: as an instance file when the path ends in
    .json, else as its values at the probe grid ``spec``, or at
    ``theoremlab.primal_probes(g)`` when no grid is given."""
    if not _emit_instance_json(out_path, g):
        pts = parse_probe_grid(spec, exact=True) if spec else theoremlab.primal_probes(g)
        _emit(out_path, "x,value", _rows(pts, g.values_at(pts), 1))
    return 0


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _verb_conjugate(args, inst) -> int:
    if isinstance(inst, MaxAffine):  # 1D converts, 2D raises
        inst = transforms.maxaffine_to_pl(inst)
    if isinstance(inst, PLConvex1D):
        return _emit_pl(args.out, transforms.conjugate_exact(inst), args.dual_grid)
    if not isinstance(inst, GridFunction):
        raise TypeError("conjugate needs a piecewise-linear or grid instance")
    if not args.dual_grid:
        raise _UsageError("conjugate on a grid needs --dual-grid")
    axis = parse_probe_grid(args.dual_grid, exact=False)
    if inst.dim == 1:
        g = transforms.conjugate_llt(inst, axis)
    else:
        g = transforms.conjugate_brute(inst, _cross(axis))
    _emit(args.out, "x,value" if g.dim == 1 else "x,y,value", _grid_rows(g))
    return 0


def _verb_clconv(args, inst) -> int:
    if isinstance(inst, MaxAffine) and inst.dim == 1:
        inst = transforms.maxaffine_to_pl(inst)
    duals = None
    if isinstance(inst, GridFunction) and inst.dim == 2:
        if not args.dual_grid:
            raise _UsageError("clconv on a 2D grid needs --dual-grid")
        duals = _cross(parse_probe_grid(args.dual_grid, exact=False))
    g = transforms.cl_conv(inst, duals)
    if isinstance(g, PLConvex1D):
        return _emit_pl(args.out, g, args.probes)
    # the 2D hull comes back as a max of affine pieces
    if not args.probes:
        raise _UsageError("a 2D hull needs --probes to tabulate")
    axis = parse_probe_grid(args.probes, exact=False)
    pts = _cross(axis)
    if duals is None:
        _emit(args.out, "x,y,value", _rows(pts, g.values_at(pts), 2))
    else:  # a grid's hull, read as conjugate_brute reads a conjugate
        _emit(args.out, "x,y,value", _grid_rows(transforms._hull_2d_at(g, pts)))
    return 0


def _verb_infconv(args, f, g) -> int:
    try:
        h = transforms.inf_conv(f, g)
    except transforms.SizeLimitError as e:
        raise _UsageError(str(e)) from None
    if isinstance(h, PLConvex1D):
        return _emit_pl(args.out, h, args.probes)
    _emit(args.out, "x,value" if h.dim == 1 else "x,y,value", _grid_rows(h))
    return 0


def _verb_subdiff(args, inst) -> int:
    tol = args.tolerance if args.tolerance is not None else 0.0
    if not 0 <= tol < math.inf:
        raise _UsageError(f"--tolerance must be finite and at least 0, got {tol}")
    if isinstance(inst, PLConvex1D):
        pts = (
            parse_probe_grid(args.probes, exact=True)
            if args.probes
            else theoremlab.primal_probes(inst)
        )
        ivs = operators.subdiffs_exact(inst, pts)
        lo = ["" if iv is None else "-inf" if iv.lo is None else format_scalar(iv.lo)
              for iv in ivs]
        hi = ["" if iv is None else "inf" if iv.hi is None else format_scalar(iv.hi)
              for iv in ivs]
        _emit(args.out, "x,lo,hi", [list(map(format_scalar, pts)), lo, hi])
        return 0
    if not isinstance(inst, GridFunction):
        raise TypeError("subdiff needs a piecewise-linear or grid instance")
    if not args.dual_grid:
        raise _UsageError("subdiff on a grid needs --dual-grid")
    axis = parse_probe_grid(args.dual_grid, exact=False)
    duals = axis if inst.dim == 1 else _cross(axis)
    member = operators.grid_subdiff_matrix(inst, duals, tol)
    anchors = _coord_columns(
        inst.finite_arrays()[0] if inst.float_points else [p for p, _v in inst.finite_items()],
        inst.dim,
    )
    dcells = _coord_columns(duals, inst.dim)
    # the accepted (anchor, dual) pairs in row-major order
    ii, kk = (ix.tolist() for ix in member.nonzero())
    cols = [list(map(c.__getitem__, ii)) for c in anchors]
    cols += [list(map(c.__getitem__, kk)) for c in dcells]
    _emit(args.out, "x,xstar" if inst.dim == 1 else "x1,x2,xstar1,xstar2", cols)
    return 0


def _verb_fitz(args, inst) -> int:
    if not args.probes or not args.dual_grid:
        raise _UsageError("fitz needs --probes and --dual-grid")
    if isinstance(inst, OperatorGraph):
        src, dim = inst, inst.dim
        exact = all(
            not isinstance(c, float)
            for x, y in inst.pairs
            for c in ((x, y) if dim == 1 else (*x, *y))
        )
    elif isinstance(inst, PLConvex1D):
        src, dim, exact = operators.subdiff_structure(inst), 1, True
    else:
        raise TypeError("fitz needs a pair graph or a piecewise-linear instance")
    # the table holds one cell per (x, x*), after the 2D cross products
    n_cells = (_grid_count(args.probes) * _grid_count(args.dual_grid)) ** dim
    if n_cells > MAX_GRID_POINTS:
        raise _UsageError(
            f"fitz table of {n_cells} cells exceeds the limit of {MAX_GRID_POINTS}"
        )
    xs = parse_probe_grid(args.probes, exact=exact)
    ys = parse_probe_grid(args.dual_grid, exact=exact)
    if dim == 2:
        xs, ys = _cross(xs), _cross(ys)
    elif not exact:
        # the pair loop computes on Python floats
        xs, ys = xs.tolist(), ys.tolist()
    table = operators.fitzpatrick_table(src, xs, ys)
    # one row per (x, x*), x outer: each x cell repeats, the x* cells tile
    cols = [[c for c in col for _ in ys] for col in _coord_columns(xs, dim)]
    cols += [col * len(xs) for col in _coord_columns(ys, dim)]
    cols.append(_cells([v for row in table for v in row]))
    header = "x,xstar,value" if dim == 1 else "x1,x2,xstar1,xstar2,value"
    _emit(args.out, header, cols)
    return 0


def _verb_envelope(args, inst) -> int:
    if not args.probes:
        raise _UsageError("envelope needs --probes")
    if args.kind == "ncup" and args.n is None:
        raise _UsageError("--kind ncup needs --n")
    if args.kind == "smileeps" and args.eps is None:
        raise _UsageError("--kind smileeps needs --eps")
    if isinstance(inst, OperatorGraph):
        raise TypeError("envelopes need a function instance, not a bare graph")
    probes = parse_probe_grid(args.probes)
    eps = None
    if args.eps is not None:
        try:
            eps = parse_scalar(args.eps, exact=True).finite()
        except ValueError as e:
            raise _UsageError(f"--eps: {e}")
    rows = envelopes.envelope_result(inst, args.kind, probes, n=args.n, eps=eps)
    _emit(args.out, "x,value", [[format_scalar(x) for x, _ in rows],
                                [format_scalar(v) for _, v in rows]])
    return 0


def _verb_hull(args, inst) -> int:
    if isinstance(inst, Interval1D):
        hull = envelopes.portable_hull_interval(inst)
    elif isinstance(inst, PLConvex1D):
        hull = envelopes.portable_hull_interval(effective_domain(inst))
    elif isinstance(inst, GridFunction) and inst.dim == 1:
        xs = [p for p, _ in inst.finite_items()]
        if not xs:
            raise ValueError("no finite values to hull")
        hull = Interval1D(Fraction(min(xs)), Fraction(max(xs)))
    else:
        raise TypeError("hull handles intervals and one-dimensional functions")
    if _emit_instance_json(args.out, hull):
        return 0
    lo = "-inf" if hull.lo is None else format_scalar(hull.lo)
    hi = "inf" if hull.hi is None else format_scalar(hull.hi)
    _emit(args.out, "lo,hi", [[lo], [hi]])
    return 0


def _check_csv(out_path, checks) -> None:
    """The report of theorem checks, one row per check."""
    cols = [
        [c.theorem_id for c in checks],
        [c.instance for c in checks],
        [c.verdict for c in checks],
        ["" if c.margin is None else format_scalar(c.margin) for c in checks],
        [format_scalar(c.tolerance) for c in checks],
        [c.backend for c in checks],
    ]
    _emit(out_path, "theorem_id,instance_id,verdict,margin,tolerance,backend", cols)


def _verb_check(args, inst) -> int:
    res = theoremlab.run_check(args.theorem_id, inst)
    line = f"{res.theorem_id:<18} {res.instance:<30} {res.verdict}"
    if res.witness is not None:
        line += f"  at {res.witness!r}"
    print(line)
    if args.out:
        _check_csv(args.out, [res])
    if res.verdict == theoremlab.FAIL:
        return 1
    if res.verdict == theoremlab.NOT_APPLICABLE:
        return 3
    return 0


def _verb_suite(args) -> int:
    ids = args.theorem_ids or None
    if ids:
        for tid in ids:
            if tid not in theoremlab.REGISTRY:
                raise _UsageError(f"unknown theorem id {tid!r}")
    n = args.n if args.n is not None else 4
    if n < 0:
        raise _UsageError(f"-n must be at least 0, got {n}")
    report = theoremlab.run_suite(seed=args.seed, n_instances=n, theorem_ids=ids)
    sys.stdout.write(report.text())
    if args.out:
        _check_csv(args.out, report.checks)
    return 0 if report.all_ok else 1


def _verb_gallery(args) -> int:
    names = (
        theoremlab.GALLERY_NAMES if args.name == "all" else (args.name,)
    )
    checks = []
    bad = False
    for nm in names:
        g = theoremlab.gallery(nm)
        print(f"{nm}: {g.summary}")
        for c in g.checks:
            print(f"  {c.theorem_id:<40} {c.verdict}")
            checks.append(c)
            bad = bad or c.verdict == theoremlab.FAIL
    if args.out:
        _check_csv(args.out, checks)
    return 1 if bad else 0


_BENCH_SIZES = tuple(2**k for k in range(10, 17))


def _verb_bench(args) -> int:
    cols = [[] for _ in range(5)]
    for n in _BENCH_SIZES:
        xs = [-4.0 + 8.0 * k / (n - 1) for k in range(n)]
        vals = [x * x for x in xs]
        f = GridFunction(1, tuple(xs), tuple(vals))
        duals = tuple(-8.0 + 16.0 * k / (n - 1) for k in range(n))
        t0 = time.perf_counter()
        gb = transforms.conjugate_brute(f, duals)
        tb = time.perf_counter() - t0
        t0 = time.perf_counter()
        gl = transforms.conjugate_llt(f, duals)
        tl = time.perf_counter() - t0
        diff = float(np.abs(gb.value_array - gl.value_array).max())
        ratio = tb / tl if tl > 0 else float("inf")
        cells = (str(n), f"{tb:.6f}", f"{tl:.6f}", f"{ratio:.2f}", f"{diff:.3e}")
        for col, cell in zip(cols, cells):
            col.append(cell)
    _emit(args.out, "n,brute_seconds,llt_seconds,ratio,max_abs_diff", cols)
    return 0


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--instance", action="append", default=[],
                   help="instance JSON path, or gallery:<name>")
    p.add_argument("--probes", help="primal grid start:stop:count")
    p.add_argument("--dual-grid", dest="dual_grid",
                   help="dual grid start:stop:count")
    p.add_argument("--out", help="CSV output path (default stdout)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it has no choices that
    depend on state, and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="envcalc",
        description="convex transforms, envelope calculus, and theorem suites",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    for verb in ("conjugate", "clconv", "subdiff", "hull", "infconv", "fitz"):
        _add_common(sub.add_parser(verb))
    # the grid membership tolerance: subdiff is the only verb that reads one
    sub.choices["subdiff"].add_argument("--tolerance", type=float, default=None)

    pe = sub.add_parser("envelope")
    _add_common(pe)
    pe.add_argument("--kind", required=True, choices=envelopes.KINDS)
    pe.add_argument("--n", "-n", type=int, default=None)
    pe.add_argument("--eps", default=None)

    pc = sub.add_parser("check")
    pc.add_argument("theorem_id")
    _add_common(pc)

    ps = sub.add_parser("suite")
    ps.add_argument("theorem_ids", nargs="*")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--n", "-n", type=int, default=None)
    ps.add_argument("--out")

    pg = sub.add_parser("gallery")
    pg.add_argument("name", nargs="?", default="all")
    pg.add_argument("--out")

    pb = sub.add_parser("bench")
    pb.add_argument("--out")
    return ap


_VALUE_FLAGS = ("--probes", "--dual-grid", "--eps", "--tolerance")


def _join_value_flags(argv) -> list:
    # lets grid specs and numbers start with a dash: --probes -5:5:11
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


# verb -> (function, number of --instance objects it takes after args)
_VERBS = {
    "conjugate": (_verb_conjugate, 1),
    "clconv": (_verb_clconv, 1),
    "infconv": (_verb_infconv, 2),
    "subdiff": (_verb_subdiff, 1),
    "fitz": (_verb_fitz, 1),
    "envelope": (_verb_envelope, 1),
    "hull": (_verb_hull, 1),
    "check": (_verb_check, 1),
    "suite": (_verb_suite, 0),
    "gallery": (_verb_gallery, 0),
    "bench": (_verb_bench, 0),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_join_value_flags(argv))
    except SystemExit as e:
        return int(e.code or 0)

    run, count = _VERBS[args.verb]
    try:
        instances = [
            _resolve_instance(ref) for ref in getattr(args, "instance", [])
        ]
        if args.verb == "check" and args.theorem_id not in theoremlab.REGISTRY:
            raise _UsageError(f"unknown theorem id {args.theorem_id!r}")
        if args.verb == "gallery" and args.name != "all" \
                and args.name not in theoremlab.GALLERY_NAMES:
            raise _UsageError(f"unknown gallery {args.name!r}")
        if count and len(instances) != count:
            need = "one --instance" if count == 1 else "two --instance files"
            raise _UsageError(f"{args.verb} needs exactly {need}")
    except (_UsageError, OSError, KeyError, ValueError, TypeError, OverflowError,
            RecursionError) as e:
        # unparseable instance contents are an input problem, not a math one;
        # so are numbers past the float range (1e999, ints of 400 digits)
        # and JSON nested past the parser's recursion limit
        print(f"envcalc: {e}", file=sys.stderr)
        return 2

    try:
        return run(args, *instances)
    except _UsageError as e:
        print(f"envcalc: {e}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OverflowError) as e:
        print(f"envcalc: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
