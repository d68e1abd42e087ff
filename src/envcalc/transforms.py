"""Classical transforms: conjugates, closed convex hulls, inf-convolution.

Three conjugate routes with different cost/precision trade-offs:

* ``conjugate_exact``    rational, PLConvex1D -> PLConvex1D, zero error;
* ``conjugate_brute``    dense float sup over all finite grid points;
* ``conjugate_llt``      hull-then-march fast transform, 1D grids only.

All conjugates act on the closure of their argument: raised endpoint values
never change a supremum of affine minorants, so overrides are invisible here.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import mul

import numpy as np

from .extreal import ExtReal, POS_INF, ext_sup
from .funcrep import (
    GridFunction,
    Interval1D,
    MaxAffine,
    PLConvex1D,
    SampledSet,
    _frac,
    _float_hull,
    _grid_hull_1d,
    _hull_1d_exact,
    _scaled,
    dot,
    shadow,
)


class ImproperError(ValueError):
    """A transform produced (or received) a function with no finite values,
    or one touching -inf."""


class SizeLimitError(ValueError):
    """An input too large for a transform to materialise."""


# most finite sample pairs a grid inf_conv sums at once; at the limit, with
# every sum distinct, it peaks near 0.7 GB in 1D and 1.2 GB in 2D, mostly
# the result's Python points
MAX_INF_CONV_PAIRS = 1 << 22


# ---------------------------------------------------------------------------
# exact route
# ---------------------------------------------------------------------------


def conjugate_exact(f: PLConvex1D) -> PLConvex1D:
    """Exact conjugate sup_x [x*y - f(x)] of a piecewise-linear convex f.

    Breakpoints and slopes trade places: interior slopes of f become the dual
    breakpoints, a domain wall becomes a recession direction with slope equal
    to the wall position, and a finite recession slope becomes a dual wall.

    The dual breakpoints are the distinct finite entries of ``g.gaps``, in
    order.  Where y first appears, at gap j, every slope before it is below
    y and every one from it on is at least y, so y*b[i] - v[i] peaks at
    i = max(j - 1, 0): one pass over the gaps, O(m), with no slope
    compared.  The same b[i] is a maximizer all the way down to the
    previous dual breakpoint, so it is the slope of the dual segment that
    ends at y, and the result is built with those slopes, unchecked.  Each
    value y*b[i] - v[i] is one integer fraction over three denominators.
    Built once per f, and kept on it."""
    if not isinstance(f, PLConvex1D):
        raise TypeError("conjugate_exact takes a PLConvex1D")
    if "_conjugate" in f.__dict__:
        return f.__dict__["_conjugate"]
    g = f.closure()
    b, v = g.breakpoints, g.values
    firsts = [(j, y) for j, y in enumerate(g.gaps) if y is not None]
    ys, vals, maximizers = [], [], []
    # a single-point domain has no finite gap: its conjugate is affine
    for j, y in firsts or [(0, Fraction(0))]:
        if ys and y == ys[-1]:
            continue
        i = max(j - 1, 0)
        bi, vi = b[i], v[i]
        yd, bd, vd = y.denominator, bi.denominator, vi.denominator
        num = y.numerator * bi.numerator * vd - vi.numerator * yd * bd
        ys.append(y)
        vals.append(Fraction(num, yd * bd * vd))
        maximizers.append(bi)
    f.__dict__["_conjugate"] = conj = PLConvex1D._make(
        tuple(ys),
        tuple(vals),
        b[0] if g.left_recession is None else None,
        b[-1] if g.right_recession is None else None,
        slopes=tuple(maximizers[1:]),
    )
    return conj


def indicator(S) -> PLConvex1D | GridFunction:
    """Indicator function: 0 on the set, +inf off it."""
    if isinstance(S, SampledSet):
        return GridFunction(S.dim, S.points, tuple(0.0 for _ in S.points), label=S.label)
    if not isinstance(S, Interval1D):
        raise TypeError("indicator takes an Interval1D or a SampledSet")
    lo, hi = S.lo, S.hi
    if lo is not None and lo == hi:
        return PLConvex1D((lo,), (0,))
    bps = set()
    if lo is not None:
        bps.add(lo)
    if hi is not None:
        bps.add(hi)
    if not bps:
        bps.add(Fraction(0))
    # an open endpoint is modelled as a +inf override; on a half-line it
    # sits on the one breakpoint, next to the flat recession
    bps = tuple(sorted(bps))
    return PLConvex1D(
        bps,
        tuple(0 for _ in bps),
        left_recession=None if lo is not None else Fraction(0),
        right_recession=None if hi is not None else Fraction(0),
        override_left=POS_INF if (lo is not None and S.lo_open) else None,
        override_right=POS_INF if (hi is not None and S.hi_open) else None,
    )


def _inf_conv_exact(f: PLConvex1D, g: PLConvex1D) -> PLConvex1D:
    """The closed infimal convolution of two PL convex functions, in
    canonical form; raises ImproperError when no slope is shared.

    The epigraph of cl(f [] g) is the sum of the two epigraphs, so its
    slopes are those of f and g merged, kept inside the range both allow:
    from the largest left recession to the smallest right one (a wall
    allows every slope on its side).  The vertex where the slope passes e
    is the sum of the vertices where f's and g's slopes pass e, with the
    sum of their listed values, which are the closures'.  One sort of the
    slopes and two bisections per vertex: O((m + n) log(m + n)).
    """
    lefts = [r for r in (f.left_recession, g.left_recession) if r is not None]
    rights = [r for r in (f.right_recession, g.right_recession) if r is not None]
    lo = max(lefts) if lefts else None
    hi = min(rights) if rights else None
    if lo is not None and hi is not None and lo > hi:
        raise ImproperError("sum has empty domain (walls do not overlap)")
    fs, gs = f.slopes(), g.slopes()

    def vertex(e):
        i = 0 if e is None else bisect_right(fs, e)
        j = 0 if e is None else bisect_right(gs, e)
        return f.breakpoints[i] + g.breakpoints[j], f.values[i] + g.values[j]

    if lo is not None and lo == hi:
        x, v = vertex(lo)
        return PLConvex1D._make((Fraction(0),), (v - lo * x,), lo, lo)
    ts = sorted(
        {t for t in (*fs, *gs) if (lo is None or t > lo) and (hi is None or t < hi)}
    )
    bps, vals = zip(*map(vertex, (lo, *ts)))
    return PLConvex1D._make(bps, vals, lo, hi, slopes=tuple(ts))


def inf_conv(f, g):
    """Infimal convolution inf_u [f(u) + g(x - u)].

    The exact PL route merges the two slope sequences
    (``_inf_conv_exact``), so the result is the closed convolution.  The
    grid route enumerates finite pairs onto the sum grid; an empty infimum
    would mean +inf everywhere, which is improper.
    """
    if isinstance(f, PLConvex1D) and isinstance(g, PLConvex1D):
        return _inf_conv_exact(f, g)
    if isinstance(f, GridFunction) and isinstance(g, GridFunction):
        if f.dim != g.dim:
            raise ValueError("dimension mismatch")
        return _inf_conv_grid(f, g)
    raise TypeError("inf_conv takes two PLConvex1D or two matching GridFunctions")


def support_function(S, y) -> ExtReal:
    """sup of <x, y> over the set; empty sets give -inf by convention."""
    if isinstance(S, SampledSet):
        return ext_sup(dot(p, y, S.dim) for p in S.points)
    if isinstance(S, Interval1D):
        y = _frac(y) if not isinstance(y, float) else y
        if isinstance(y, float):
            raise TypeError("interval support function is exact; pass int/Fraction")
        if y > 0:
            return POS_INF if S.hi is None else ExtReal(S.hi * y)
        if y < 0:
            return POS_INF if S.lo is None else ExtReal(S.lo * y)
        return ExtReal(Fraction(0))
    raise TypeError("support_function takes an Interval1D or a SampledSet")


def maxaffine_to_pl(M: MaxAffine) -> PLConvex1D:
    """Exact 1D conversion of a finite line envelope to piecewise-linear form.

    The envelope of lines with slope s and intercept c is the conjugate of
    the point set {(s, -c)}, so one exact hull plus one exact conjugate does
    the whole job, including dropping lines that never attain the sup.
    """
    if not isinstance(M, MaxAffine) or M.dim != 1:
        raise TypeError("maxaffine_to_pl takes a 1D MaxAffine")
    if not M.pieces:
        raise ImproperError("empty max-affine is identically -inf")
    # the line through (a, lv) with slope s has intercept lv - a * s
    pts = [(Fraction(s), Fraction(a) * Fraction(s) - Fraction(lv)) for a, s, lv in M.pieces]
    xs, vs, slopes = _hull_1d_exact(pts)
    return conjugate_exact(PLConvex1D._make(xs, vs, slopes=slopes))


# ---------------------------------------------------------------------------
# grid routes
# ---------------------------------------------------------------------------

_CHUNK_CELLS = 1 << 22


def _finite_arrays(f: GridFunction):
    x, v = f.finite_arrays()
    if not len(v):
        raise ImproperError("conjugate of a function with no finite values")
    return x, v


def _in_range(dim, points, vals, what="the conjugate at dual") -> GridFunction:
    """The grid function of ``vals`` at ``points``, values of a conjugate,
    hull or inf-convolution of finite samples, which is finite at a finite
    point: an infinity is a value past the float range, refused as "{what}
    {point!r} is above (below) the float range" for the first such point;
    the values are searched only when one may be there."""
    try:
        g = GridFunction(dim, points, vals)
        if vals.max(initial=0.0) < np.inf:
            return g
    except ValueError:
        if vals.min(initial=0.0) != -np.inf:
            raise
    i = int(np.flatnonzero(np.isinf(vals))[0])
    p = points[i]
    p = p.item() if isinstance(p, np.generic) else p
    side = "above" if vals[i] > 0 else "below"
    raise ValueError(f"{what} {p!r} is {side} the float range") from None


def _big(a) -> float:
    """max |a| over a float array, from one min and one max: no temporary
    of a's size.  0 when a is empty, and NaN when a holds one."""
    return max(-float(a.min()), float(a.max())) if a.size else 0.0


# a float sum or product whose exact magnitude stays below this is finite
_RANGE = 2.0**1023


def _exact_scores(x, v, ys) -> list:
    """max over the samples (x, v) of <y, x> - v at each dual y of ys, on
    the ``_scaled`` ints of the floats, rounded once (``shadow``)."""
    (xs, dx), (vs, dv), (yk, dy) = (_scaled(a.ravel().tolist()) for a in (x, v, ys))
    dim, dyx = len(xs) // len(vs), dy * dx
    samples = list(zip(zip(*[iter(xs)] * dim), vs))
    return [shadow(max(sum(map(mul, y, p)) * dv - w * dyx for p, w in samples), dyx * dv)
            for y in zip(*[iter(yk)] * dim)]


def conjugate_brute(f: GridFunction, dual_points) -> GridFunction:
    """Dense conjugate over the finite grid points (``_dense_sup``); a
    value past the float range is refused, naming its dual (``_in_range``)."""
    if not isinstance(f, GridFunction):
        raise TypeError("conjugate_brute takes a GridFunction")
    x, v = _finite_arrays(f)
    duals = tuple(dual_points)
    return _in_range(f.dim, duals, _dense_sup(f.dim, x, v, np.array(duals, dtype=float)))


def _dense_sup(dim, x, v, ys) -> np.ndarray:
    """max over the samples (x, v) of <y, x> - v at each dual y of ys,
    chunked to bound memory.

    No score overflows when dim * max|y| * max|x| + max|v| is below
    2**1023 (Python float products overflow to inf quietly); when that
    bound fails, each dual with a score that is not finite is decided
    exactly (``_exact_scores``)."""
    out = np.empty(len(ys), dtype=float)
    fits = dim * _big(ys) * _big(x) + _big(v) < _RANGE
    step = max(1, _CHUNK_CELLS // max(len(x), 1))
    for start in range(0, len(ys), step):
        y = ys[start : start + step]
        with np.errstate(over="ignore", invalid="ignore"):
            scores = np.outer(y, x) if dim == 1 else y @ x.T
            scores -= v
        chunk = out[start : start + len(y)]
        scores.max(axis=1, out=chunk)
        if not fits:
            # the finite duals with a score that is not finite
            rows = np.flatnonzero(
                ~np.isfinite(scores).all(axis=1) & np.isfinite(y.reshape(len(y), -1)).all(axis=1))
            if len(rows):
                chunk[rows] = _exact_scores(x, v, y[rows])
    return out


def _inf_conv_grid(f: GridFunction, g: GridFunction) -> GridFunction:
    """inf_u [f(u) + g(x - u)] over finite sample pairs, one minimum per sum.

    The pair sums form an (n_f x n_g) grid in row-major order (f outer, g
    inner).  One stable ``lexsort`` of the sum points, 1D or 2D, puts each
    sum point's pairs together in row-major order, and each group (labelled
    by a ``cumsum`` of its start flags) takes its minimum value from the
    first pair that reaches it (so a tie of -0.0 and 0.0 keeps the first).
    A sum point is spelled as the Python sum of its first pair in row-major
    order, so equal sums such as -0.0 and 0.0, or 1 and 1.0, keep the
    spelling a dict keyed by the sums would give them.  When every point of
    two 1D inputs is a float, that sum is read from the float64 sums: numpy
    rounds float + float as Python does.
    """
    fx, fv = f.finite_arrays()
    gx, gv = g.finite_arrays()
    if not len(fv) or not len(gv):
        raise ImproperError("inf-convolution of improper grid functions")
    if len(fv) * len(gv) > MAX_INF_CONV_PAIRS:
        raise SizeLimitError(
            f"inf-convolution of {len(fv)} x {len(gv)} finite samples exceeds "
            f"the limit of {MAX_INF_CONV_PAIRS} pairs"
        )
    # sums past the float range are infinities, refused by ``_in_range``
    with np.errstate(over="ignore"):
        if f.dim == 1:
            sums = (fx[:, None] + gx[None, :]).reshape(-1, 1)
        else:
            sums = (fx[:, None, :] + gx[None, :, :]).reshape(-1, 2)
        vals = (fv[:, None] + gv[None, :]).reshape(-1)
    order = np.lexsort(sums.T[::-1])
    s, v = sums[order], vals[order]
    new = np.r_[True, (s[1:] != s[:-1]).any(axis=1)]
    starts, group = np.flatnonzero(new), np.cumsum(new) - 1
    # the positions reaching their group's minimum; the first of each group
    # gives the value
    reach = np.flatnonzero(v == np.minimum.reduceat(v, starts)[group])
    group = group[reach]
    best = v[reach[np.r_[True, group[1:] != group[:-1]]]]
    first = order[starts]
    if f.dim == 1 and f.float_points and g.float_points:
        return _in_range(1, sums[first, 0], best, "the inf-convolution at")
    fp = [p for p, _ in f.finite_items()]
    gp = [p for p, _ in g.finite_items()]
    pairs = zip(*(k.tolist() for k in np.divmod(first, len(gv))))
    if f.dim == 1:
        pts = tuple(fp[i] + gp[j] for i, j in pairs)
    else:
        pts = tuple(
            (fp[i][0] + gp[j][0], fp[i][1] + gp[j][1]) for i, j in pairs
        )
    return _in_range(f.dim, pts, best, "the inf-convolution at")


def conjugate_llt(f: GridFunction, dual_points) -> GridFunction:
    """Fast 1D conjugate: hull once, then a binary-search march over slopes.

    Matches ``conjugate_brute`` to float accuracy at a fraction of the cost;
    dual points need not be sorted.  A float64 array of duals is read as it
    stands.  The result's points are the float64 dual array when every dual
    is a float, else the duals as given, so an int keeps its spelling.

    The hull is decided exactly (``_float_hull``) and its slopes are the
    correctly rounded quotients of its ints, so they ascend.  When
    max|y| * max|x| + max|v| is not below 2**1023 a score may overflow:
    each dual with a window score that is not finite is decided exactly
    over the hull vertices, which hold every maximizer (``_exact_scores``).
    """
    if not isinstance(f, GridFunction) or f.dim != 1:
        raise TypeError("conjugate_llt takes a 1D GridFunction")
    x, v = _finite_arrays(f)
    if isinstance(dual_points, np.ndarray) and dual_points.dtype == np.float64:
        y = pts = dual_points
    else:
        duals = tuple(dual_points)
        y = np.array(duals, dtype=float)
        pts = y if set(map(type, duals)) <= {float} else duals
    fits = _big(y) * _big(x) + _big(v) < _RANGE
    keep, hull, dx, dv = _float_hull(x, v)
    hx, hv = x[keep], v[keep]
    slopes = np.array([shadow((c0 - c1) * dx, (x1 - x0) * dv)
                       for (x0, c0, _), (x1, c1, _) in zip(hull, hull[1:])], dtype=float)
    j = np.searchsorted(slopes, y, side="left")
    # the window j - 1, j, j + 1 (roundoff at slope ties), clipped by padding the
    # hull with its end vertices
    wx, wv = np.r_[hx[0], hx, hx[-1]], np.r_[hv[0], hv, hv[-1]]
    with np.errstate(over="ignore", invalid="ignore"):
        out, mid, hi = (y * wx[d:][j] - wv[d:][j] for d in (0, 1, 2))
    rows = [] if fits else np.flatnonzero(~np.isfinite([out, mid, hi]).all(axis=0) & np.isfinite(y))
    np.maximum(np.maximum(out, mid, out=out), hi, out=out)
    if len(rows):
        out[rows] = _exact_scores(hx, hv, y[rows])
    return _in_range(1, pts, out)


def cl_conv(f, dual_points=None):
    """Closed convex hull.

    Exact 1D representations close in place; 1D grids get an exact rational
    lower hull with walls at the extreme sample points, of the prefilter's
    candidates when every point is its own float64; 2D grids go through a
    double conjugate against ``dual_points`` and come back as a MaxAffine
    minorant carrier (exact on the sampled dual window, a lower bound off it).
    """
    if isinstance(f, PLConvex1D):
        return f.closure()
    if isinstance(f, MaxAffine):
        return f
    if not isinstance(f, GridFunction):
        raise TypeError(f"unsupported representation {type(f).__name__}")
    finite = f.finite_mask()
    if not finite.any():
        raise ImproperError("hull of a function with no finite values")
    if f.dim == 1:
        xs, vs, slopes = _grid_hull_1d(f)
        return PLConvex1D._make(xs, vs, slopes=slopes)
    if dual_points is None:
        raise ValueError("2D grid hull needs dual_points for the double conjugate")
    star = conjugate_brute(f, dual_points)
    pieces = tuple(
        ((0.0, 0.0), p, -val) for p, val in zip(star.points, star.value_array.tolist())
    )
    return MaxAffine(2, pieces)


def _hull_2d_at(h: MaxAffine, probes) -> GridFunction:
    """A 2D grid's ``cl_conv`` h, the sup over its dual window of
    <y, x> - f*(y), at the probes: ``_dense_sup`` of the dual samples
    (y, f*(y)), so a probe is decided as ``conjugate_brute`` decides a
    dual, and a value past the float range is refused, naming the first
    such probe."""
    ys, levels = (np.array(c, dtype=float) for c in zip(*((s, lv) for _a, s, lv in h.pieces)))
    vals = _dense_sup(2, ys, -levels, np.array(probes, dtype=float))
    return _in_range(2, probes, vals, "the closed convex hull at")
