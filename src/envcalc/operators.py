"""Operator graphs, subdifferentials, monotonicity, Fitzpatrick functions.

The exact backend carries two views of a subdifferential.  The flattened
``OperatorGraph`` is a finite pair list (what serialization, monotonicity and
pair-based suprema work on).  The attached ``SubdiffStructure1D`` keeps the
full continuum: a slope interval per breakpoint and a constant slope per open
segment, with ``None`` standing for an unbounded interval end at a domain
wall.  Envelope suprema need the structure; everything it asserts can be
cross-checked against the inequality-based membership test below.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .extreal import ExtReal, NEG_INF, POS_INF, as_extreal, ext_sup
from .funcrep import (
    GridFunction,
    Interval1D,
    PLConvex1D,
    _canon_point,
    _check_counts,
    _frac,
    dot,
    is_exact_scalar,
    line_envelope_values,
    point_sub,
    sorted_ranks,
)
from .transforms import conjugate_exact, indicator


@dataclass(frozen=True)
class SubdiffStructure1D:
    """Exact graph of the subdifferential of a piecewise-linear convex f.

    ``points`` holds (a, value, lo, hi): at breakpoint a (closure value
    attached) the subgradients form the interval [lo, hi], where None means
    the interval runs to -inf (left wall) or +inf (right wall).  ``segments``
    holds (xlo, xhi, slope, ref_x, ref_v): on the open interval (xlo, xhi)
    the subdifferential is the singleton {slope}, and the function restricted
    there is the line through (ref_x, ref_v); None interval ends mark
    recession rays.  Breakpoints with a raised (non-lsc) value have empty
    subdifferential and appear in neither list.

    Built alongside, in O(m), is one left-to-right candidate order that
    interleaves the points and segments (a left ray first, a right ray
    last).  Each candidate is an anchored support (a, v, lo, hi, ends): a
    point is its own anchor with its interval, a segment is its line through
    (ref_x, ref_v) with lo = hi = slope and ``ends`` = (xlo, xhi).  ``sups``
    and the Fitzpatrick line generator both walk this one order, and
    ``structure_contains`` bisects it.

    The lists are the ones ``subdiff_structure`` builds: the segments,
    ascending, tile the closure's domain, and each breakpoint that is not
    overridden is a point between its two segments.  So the order
    alternates points and segments, one comparison places the first point,
    and a candidate's admission key takes arithmetic only next to an
    overridden end.
    """

    points: tuple
    segments: tuple

    def __post_init__(self):
        pts = [(*p, None) for p in self.points]
        segs = [(rx, rv, g, g, (xlo, xhi)) for xlo, xhi, g, rx, rv in self.segments]
        lead = segs[:1] if segs and segs[0][4][0] is None else []
        rest = segs[len(lead):]
        # the first point comes before the first segment right of a left ray
        # iff it sits at that segment's lower end (its breakpoint is not
        # overridden)
        if pts and (not rest or pts[0][0] == rest[0][4][0]):
            first, second = pts, rest
        else:
            first, second = rest, pts
        order = lead + [c for pair in zip(first, second) for c in pair]
        order += first[len(second):] + second[len(first):]
        # position keys: candidate i lies wholly left of x iff pos[i] < (x, 1);
        # a right ray never does and, being last, is left out
        pos = [
            (a, 1) if ends is None else (ends[1], 0)
            for a, _v, _lo, _hi, ends in order
            if ends is None or ends[1] is not None
        ]
        # admission keys: the infimum of f over each candidate, as (0, value,
        # 1 if not attained), or (-1,) along a ray where f is unbounded
        # below; candidate i has an anchor with f(a) <= theta iff adm[i] <
        # (0, theta, 1)
        adm = []
        k = None  # the first minimal key: (-1,), or a minimizer of f
        for i, (a, v, lo, hi, ends) in enumerate(order):
            if ends is None:
                adm.append((0, v, 0))
                if k is None and (lo is None or lo.numerator <= 0) and (
                    hi is None or hi.numerator >= 0
                ):
                    k = i
                continue
            sign = lo.numerator
            if sign == 0:
                adm.append((0, v, 0))
                k = i if k is None else k
                continue
            # a sloped segment sits above its lower end; the value there is
            # the neighbouring point's, unless an override leaves no point
            low_end, j = (ends[0], i - 1) if sign > 0 else (ends[1], i + 1)
            if low_end is None:
                adm.append((-1,))
                k = i if k is None else k
            elif 0 <= j < len(order) and order[j][4] is None:
                adm.append((0, order[j][1], 1))
            else:
                adm.append((0, v + (low_end - a) * lo, 1))
        if k is None:
            # f is bounded below with no minimizer, so it is monotone and its
            # infimum lies at an overridden end: the first candidate when f
            # increases, the last when it decreases
            rising = order and order[0][3] is not None and order[0][3].numerator > 0
            k = len(order) - 1 if order and not rising else 0
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_pos", tuple(pos))
        object.__setattr__(self, "_adm_left", tuple(adm[k::-1]))
        object.__setattr__(self, "_adm_right", tuple(adm[k:]))
        object.__setattr__(self, "_argmin", k)

    def sups(self, xs, thetas=None) -> list:
        """The sup at each exact probe x of xs, in their order, of the
        supports of the candidates with an anchor where f <= theta, x's
        entry of ``thetas`` (None, or a None entry: no budget).  This is the
        only structure sup.

        Contiguity: {a : f(a) <= theta} is an interval, so the admitted
        candidates form one run, and the admission keys (the infimum of f
        over a candidate, tagged open or attained) are unimodal along the
        order.  Three ``sorted_ranks`` sweeps place the probes against the
        position keys and the budgets against each side's admission keys:
        O(m + p) comparisons when both come sorted, a sort each otherwise.
        """
        xs = list(xs)
        if not self._order:
            return [NEG_INF] * len(xs)
        n = len(xs)
        n_left, n_right = [len(self._adm_left)] * n, [len(self._adm_right)] * n
        if thetas is not None:
            budgeted = [q for q in range(n) if thetas[q] is not None]
            bounds = [(0, thetas[q], 1) for q in budgeted]
            for q, nl, nr in zip(
                budgeted,
                sorted_ranks(self._adm_left, bounds),
                sorted_ranks(self._adm_right, bounds),
            ):
                n_left[q], n_right[q] = nl, nr
        ps = sorted_ranks(self._pos, [(x, 1) for x in xs])
        return list(map(self._run_sup, xs, ps, n_left, n_right))

    def _run_sup(self, x, p, n_left, n_right) -> ExtReal:
        """The sup at x over the admitted run: the n_left candidates from
        the admission minimum leftward and the n_right from it rightward
        (the minimum counted on both sides), where p candidates lie wholly
        left of x.

        Unimodality: along the order, the support values at x never
        decrease across the candidates wholly left of x and never increase
        after them (a nearer anchor's subgradient is at least as steep
        toward x), so the run's sup is at its member nearest x on either
        side: two evaluations.
        """
        if n_left == 0:
            return NEG_INF
        order = self._order
        i = self._argmin - n_left + 1
        j = self._argmin + n_right - 1
        best = None
        for c in (min(p - 1, j), max(p, i)):
            if c < i or c > j:
                continue
            a, v, lo, hi, _ends = order[c]
            d = x - a
            if d == 0:
                val = v
            else:
                g = hi if d > 0 else lo
                if g is None:
                    return POS_INF
                val = v + d * g
            if best is None or val > best:
                best = val
        return ExtReal(best)

    def slope_range(self) -> Interval1D | None:
        """All slopes the subdifferential takes, as one interval.

        Slopes never decrease along the candidate order, so the interval
        runs from the first candidate's lo to the last one's hi (None ends
        are unbounded); an empty order gives None.
        """
        if not self._order:
            return None
        return Interval1D(self._order[0][2], self._order[-1][3])


def subdiff_structure(f: PLConvex1D) -> SubdiffStructure1D:
    if not isinstance(f, PLConvex1D):
        raise TypeError("subdiff_structure takes a PLConvex1D")
    b, v = f.breakpoints, f.values
    s = f.slopes()
    m = len(s)
    points = []
    for i in range(len(b)):
        if i == 0 and f.override_left is not None:
            continue
        if i == len(b) - 1 and f.override_right is not None:
            continue
        lo = s[i - 1] if i >= 1 else f.left_recession
        hi = s[i] if i < m else f.right_recession
        points.append((b[i], v[i], lo, hi))
    segments = [(b[i], b[i + 1], s[i], b[i], v[i]) for i in range(m)]
    if f.left_recession is not None:
        segments.insert(0, (None, b[0], f.left_recession, b[0], v[0]))
    if f.right_recession is not None:
        segments.append((b[-1], None, f.right_recession, b[-1], v[-1]))
    return SubdiffStructure1D(tuple(points), tuple(segments))


def _subdiff_at(f: PLConvex1D, j: int, x) -> Interval1D | None:
    """The subgradient interval at x, given j = bisect_right(f.breakpoints,
    x): the number of breakpoints at or left of x."""
    b, s = f.breakpoints, f.slopes()
    if j == 0:
        rec = f.left_recession
        return None if rec is None else Interval1D(rec, rec)
    if x == b[j - 1]:
        if (j == 1 and f.override_left is not None) or (
            j == len(b) and f.override_right is not None
        ):
            return None
        lo = s[j - 2] if j >= 2 else f.left_recession
        hi = s[j - 1] if j <= len(s) else f.right_recession
        return Interval1D(lo, hi)
    if j == len(b):
        rec = f.right_recession
        return None if rec is None else Interval1D(rec, rec)
    return Interval1D(s[j - 1], s[j - 1])


def subdiff_exact(f: PLConvex1D, x) -> Interval1D | None:
    """The subgradient interval at x, or None when it is empty: one
    bisection, O(log m)."""
    x = _frac(x)
    return _subdiff_at(f, bisect_right(f.breakpoints, x), x)


def subdiffs_exact(f: PLConvex1D, xs) -> list:
    """``[subdiff_exact(f, x) for x in xs]``, in the order of xs, from one
    ``sorted_ranks`` sweep of the probes over the breakpoints: O(m + p)
    comparisons at most when the probes come sorted."""
    xs = list(map(_frac, xs))
    ranks = sorted_ranks(f.breakpoints, xs, right=True)
    return [_subdiff_at(f, j, x) for j, x in zip(ranks, xs)]


def subgradient_test(f, tol=0):
    """The predicate (x, x*) -> is x* a subgradient of f at x?

    On a PLConvex1D, exactly (tol is unused): f(x) is finite, x* lies
    between the recession slopes, and cl f(y) >= f(x) + x*(y - x) at every
    breakpoint y, where cl f takes the listed ``values``: an override passes
    no slope that the adjacent segment rules out, and a raised end fails its
    y = x term.  cl f(y) - x* y is least at k = bisect_left(slopes, x*), so
    one comparison there decides every y: O(log m), and independent of
    subdiff_exact on purpose.  A GridFunction gets ``grid_subdiff_test``
    within tol; any other representation a predicate that raises TypeError.
    """
    if isinstance(f, GridFunction):
        return lambda x, xstar: grid_subdiff_test(f, x, xstar, tol)
    if not isinstance(f, PLConvex1D):
        def unsupported(x, xstar):
            raise TypeError("unsupported function representation")
        return unsupported
    b, v, s = f.breakpoints, f.values, f.slopes()
    lrec, rrec = f.left_recession, f.right_recession

    def test(x, xstar) -> bool:
        x, xstar = _frac(x), _frac(xstar)
        fx = f.value_at(x)
        if not fx.is_finite:
            return False
        k = bisect_left(s, xstar)
        if v[k] < fx.finite() + xstar * (b[k] - x):
            return False
        return (lrec is None or xstar >= lrec) and (rrec is None or xstar <= rrec)

    return test


def subdiff_test(f: PLConvex1D, x, xstar) -> bool:
    """One call of ``subgradient_test(f)``: the inequality route."""
    if not isinstance(f, PLConvex1D):
        raise TypeError("subdiff_test takes a PLConvex1D")
    return subgradient_test(f)(x, xstar)


_CHUNK_CELLS = 1 << 20


def _grid_membership(f: GridFunction, anchors, fa, duals, tol) -> np.ndarray:
    """(anchors x duals) bools: the affine minorant through (a, fa) with
    slope s stays below every finite sample y of f, within tol.

    Evaluates fy < fa + <s, y - a> - tol in the per-pair order: y - a
    first, the 2D dot as 0 + s0*d0 + s1*d1 (how Python's sum adds it up),
    then fa +, then - tol.  Chunked over anchors and duals so that no
    temporary holds more than about 2^20 cells (or one row of samples).
    A difference or product past the float range is the infinity it rounds
    to, which still decides the comparison, unless the right-hand side
    comes out NaN (0 * inf, or inf - inf in the 2D dot): such a cell is
    decided over the rationals its floats denote, or, with an infinite dual
    or tolerance, read as no violation.
    """
    ys, fy = f.finite_arrays()
    # a NaN needs an infinite term, and none arises while this bound on every
    # difference, product and sum stays finite, so the NaN scan is skipped
    big = [float(abs(u).max(initial=0)) for u in (ys, anchors, duals, fa)]
    scan = not (big[0] + big[1]) * big[2] * f.dim + big[3] + abs(float(tol)) < 1e308
    out = np.empty((len(anchors), len(duals)), dtype=bool)
    pstep = max(1, _CHUNK_CELLS // max(1, len(ys)))
    astep = max(1, _CHUNK_CELLS // max(1, len(ys) * min(len(duals), pstep)))
    with np.errstate(over="ignore", invalid="ignore"):
        for alo in range(0, len(anchors), astep):
            d = ys[None] - anchors[alo : alo + astep, None]
            ahi = alo + len(d)
            for plo in range(0, len(duals), pstep):
                s = duals[plo : plo + pstep]
                if f.dim == 1:
                    rhs = d[:, :, None] * s
                else:
                    rhs = d[:, :, None, 0] * s[:, 0]
                    rhs += 0.0
                    rhs += d[:, :, None, 1] * s[:, 1]
                rhs += fa[alo:ahi, None, None]
                rhs -= float(tol)
                below = fy[None, :, None] < rhs
                for i, k, j in zip(*np.isnan(rhs).nonzero()) if scan else ():
                    cs = [np.ravel(u).tolist() for u in (s[j], ys[k], anchors[alo + i])]
                    if all(map(math.isfinite, (*cs[0], tol))):
                        sj, y, a = ([Fraction(c) for c in u] for u in cs)
                        lhs = Fraction(fy[k]) + Fraction(tol) - Fraction(fa[alo + i])
                        gain = sum(u * (v - w) for u, v, w in zip(sj, y, a))
                        below[i, k, j] = lhs < gain
                out[alo:ahi, plo : plo + len(s)] = ~below.any(axis=1)
    return out


def _dual_array(duals, dim: int) -> np.ndarray:
    arr = np.array(duals, dtype=float)
    return arr if dim == 1 else arr.reshape(-1, 2)


def grid_subdiff_matrix(f: GridFunction, duals, tol=0) -> np.ndarray:
    """Sampled-backend membership for every finite sample against every
    dual: a bool matrix, rows in the finite samples' list order (those of
    ``finite_items``), columns in the order of ``duals``."""
    xs, fx = f.finite_arrays()
    return _grid_membership(f, xs, fx, _dual_array(duals, f.dim), tol)


def grid_subdiff_test(f: GridFunction, a, astar, tol=0) -> bool:
    """Sampled-backend membership: the affine minorant anchored at (a, f(a))
    stays below every finite sample, within tol.  The one-row case of
    ``grid_subdiff_matrix``."""
    fa = f.value_at(a)
    if not fa.is_finite:
        return False
    anchor = _dual_array((_canon_point(a, f.dim),), f.dim)
    row = _grid_membership(
        f, anchor, np.array((fa.finite(),)), _dual_array((astar,), f.dim), tol
    )
    return bool(row[0, 0])


def _nonneg_eps(eps) -> Fraction:
    eps = _frac(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return eps


def eps_subdiff_test(f: PLConvex1D, x, xstar, eps, conj=None) -> bool:
    """Approximate subgradient membership via the conjugate gap:
    f(x) + f*(xstar) <= x*xstar + eps; ``conj``, when given, is f*."""
    eps = _nonneg_eps(eps)
    x = _frac(x)
    xstar = _frac(xstar)
    fx = f.value_at(x)
    if not fx.is_finite:
        return False
    if conj is None:
        conj = conjugate_exact(f)
    fstar = conj.value_at(xstar)
    if fstar.is_pos_inf:
        return False
    return fx.finite() + fstar.finite() <= x * xstar + eps


def eps_subdiff_interval(f: PLConvex1D, x, eps) -> Interval1D | None:
    """The full set of eps-subgradients at x, as an exact closed interval,
    or None when it is empty.

    x* qualifies when f(y) >= c + x*(y - x) for every y, with c = f(x) - eps:
    at y = x that asks f(x) >= c, and elsewhere it bounds x* by the
    difference quotient (f(y) - c)/(y - x), from above right of x and from
    below left of it.  Along each segment and each recession ray the
    quotient is monotone, so its extremes sit at the breakpoints (read at
    the listed values, which are the closure's) and at the recession
    slopes: one pass, O(m).
    """
    eps = _nonneg_eps(eps)
    x = _frac(x)
    fx = f.value_at(x)
    if not fx.is_finite:
        return None
    c = fx.finite() - eps
    lo, hi = f.left_recession, f.right_recession
    for y, v in zip(f.breakpoints, f.values):
        if y == x:
            if v < c:
                return None
            continue
        q = (v - c) / (y - x)
        if y > x and (hi is None or q < hi):
            hi = q
        elif y < x and (lo is None or q > lo):
            lo = q
    if lo is not None and hi is not None and lo > hi:
        return None
    return Interval1D(lo, hi)


def normal_cone(C: Interval1D, x) -> Interval1D:
    """Outward normals to an interval at a member point; errors off the set."""
    if not isinstance(C, Interval1D):
        raise TypeError("normal_cone takes an Interval1D")
    x = _frac(x)
    if not C.contains(x):
        raise ValueError(f"{x} is not in the set")
    nd = subdiff_exact(indicator(C), x)
    assert nd is not None  # contains(x) rules the empty cases out
    return nd


# ---------------------------------------------------------------------------
# operator graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorGraph:
    """Finite list of (point, dual point) pairs, optionally backed by the
    exact structure it was flattened from."""

    dim: int
    pairs: tuple
    label: str | None = None
    structure: SubdiffStructure1D | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        seen = set()
        canon = []
        for x, y in self.pairs:
            key = (x, y)
            if key not in seen:
                seen.add(key)
                canon.append(key)
        object.__setattr__(self, "pairs", tuple(canon))


KINK_REPS = 3
RAY_STEPS = 3


def subdiff_graph(f: PLConvex1D, probes=()) -> OperatorGraph:
    """Flatten the subdifferential to finite pairs.

    Per breakpoint: both finite interval endpoints, ``KINK_REPS`` evenly
    spaced interior representatives, and ``RAY_STEPS`` outward unit steps
    where the interval is unbounded.  Per segment: the midpoint (finite) or
    a unit step into each ray, plus a pair for every supplied probe that
    lands in a segment interior, placed by one bisection: O(p log m).
    """
    st = subdiff_structure(f)
    pairs = set()
    for a, _v, lo, hi in st.points:
        if lo is not None and hi is not None:
            pairs.add((a, lo))
            pairs.add((a, hi))
            if lo < hi:
                for k in range(1, KINK_REPS + 1):
                    pairs.add((a, lo + Fraction(k, KINK_REPS + 1) * (hi - lo)))
        elif lo is None and hi is None:
            for k in range(-RAY_STEPS, RAY_STEPS + 1):
                pairs.add((a, Fraction(k)))
        elif lo is None:
            for k in range(RAY_STEPS + 1):
                pairs.add((a, hi - k))
        else:
            for k in range(RAY_STEPS + 1):
                pairs.add((a, lo + k))
    for xlo, xhi, slope, _rx, _rv in st.segments:
        if xlo is not None and xhi is not None:
            pairs.add(((xlo + xhi) / 2, slope))
        elif xlo is None:
            pairs.add((xhi - 1, slope))
        else:
            pairs.add((xlo + 1, slope))
    b, gap_slopes = f.breakpoints, (f.left_recession, *f.slopes(), f.right_recession)
    for p in map(_exactify, probes):
        j = bisect_right(b, p)
        if (j == 0 or p != b[j - 1]) and gap_slopes[j] is not None:
            pairs.add((p, gap_slopes[j]))
    return OperatorGraph(1, tuple(sorted(pairs)), label=f.label, structure=st)


def _exactify(x):
    # floats are promoted to the exact rational they denote; no rounding.
    if isinstance(x, float):
        return Fraction(x)
    return _frac(x)


def structure_contains(st: SubdiffStructure1D, x, xstar) -> bool:
    """Exact membership of (x, xstar) in the full subdifferential graph, in
    O(log m): the first candidate not wholly left of x is the point at x or
    the segment holding x, if f has subgradients at x."""
    x, xstar = _exactify(x), _exactify(xstar)
    p = bisect_left(st._pos, (x, 1))
    if p == len(st._order):
        return False
    a, _v, lo, hi, ends = st._order[p]
    # a segment not wholly left of x holds x unless it starts at or after x
    at_x = a == x if ends is None else ends[0] is None or ends[0] < x
    return at_x and (lo is None or lo <= xstar) and (hi is None or xstar <= hi)


@dataclass(frozen=True)
class MaximalityVerdict:
    is_maximal: bool
    witness: tuple | None
    related: int
    checked: int


def _exact_pair(p) -> bool:
    return (
        isinstance(p, (tuple, list))
        and len(p) == 2
        and is_exact_scalar(p[0])
        and is_exact_scalar(p[1])
    )


def _relation_test(G: OperatorGraph, candidates, tol):
    """Predicate (cx, cy) -> <cx - x, cy - y> >= -tol for every pair (x, y).

    On an exact 1D graph with exact candidates and tol == 0 the sign of
    each product is read off instead: pairs left of cx need y <= cy and
    pairs right of it need y >= cy, so one sort by anchor, a prefix max
    and a suffix min of the duals, and two bisections per candidate decide
    it.  Otherwise (floats, whose products may round to -0.0, tol > 0, 2D)
    every pair is tested.
    """
    ps = G.pairs
    if not (tol == 0 and _is_exact_graph(G) and all(map(_exact_pair, candidates))):
        return lambda cx, cy: all(
            dot(point_sub(cx, x, G.dim), point_sub(cy, y, G.dim), G.dim) >= -tol
            for x, y in ps
        )
    srt = sorted(ps, key=lambda p: p[0])
    anchors = [a for a, _b in srt]
    # below[i]: max dual of the first i pairs; above[i]: min dual of the rest
    below, above = [None], [None]
    for _a, b in srt:
        below.append(b if below[-1] is None or b > below[-1] else below[-1])
    for _a, b in reversed(srt):
        above.append(b if above[-1] is None or b < above[-1] else above[-1])
    above.reverse()

    def related(cx, cy) -> bool:
        lo = below[bisect_left(anchors, cx)]
        hi = above[bisect_right(anchors, cx)]
        return (lo is None or lo <= cy) and (hi is None or cy <= hi)

    return related


def is_maximal_relative(G: OperatorGraph, candidates, tol=0) -> MaximalityVerdict:
    """Probe maximality on a finite candidate window.

    A candidate monotonically related to every pair of G but lying outside
    the graph witnesses that G has a proper monotone extension.  Membership
    uses the exact structure when present, else the flattened pair list.
    The relation test costs O(log P) per candidate on an exact 1D graph at
    tol == 0 (after an O(P log P) sort) and O(P) otherwise; see
    ``_relation_test``.
    """
    candidates = list(candidates)
    is_related = _relation_test(G, candidates, tol)
    members = None
    related = 0
    witness = None
    checked = 0
    for cand in candidates:
        checked += 1
        cx, cy = cand
        if not is_related(cx, cy):
            continue
        related += 1
        if G.structure is not None:
            member = structure_contains(G.structure, cx, cy)
        else:
            if members is None:
                members = set(G.pairs)
            member = (cx, cy) in members
        if not member and witness is None:
            witness = (cx, cy)
    return MaximalityVerdict(witness is None, witness, related, checked)


def fitzpatrick(G: OperatorGraph, x, xstar) -> ExtReal:
    """sup over graph pairs (a, b) of <x - a, b> + <a, xstar>; the empty
    graph gives -inf by the supremum convention."""
    return ext_sup(
        dot(point_sub(x, a, G.dim), b, G.dim) + dot(a, xstar, G.dim)
        for a, b in G.pairs
    )


def _fitz_lines(order, x):
    """phi(x, .) over a candidate order as lines in x* and two cuts.

    ``order`` and x are scaled to ints (see ``fitzpatrick_table``): primal
    numbers (anchors, segment ends, x) over one denominator d1, dual
    numbers (subgradient ends, x*) over another d2, so every line gives
    d1 * d2 times its value at the scaled x*.  Returns None when
    phi(x, .) is +inf everywhere (a breakpoint whose subgradients are
    unbounded toward x), else (lines, lo_cut, hi_cut): phi(x, x*) is +inf
    for x* < lo_cut or x* > hi_cut (cuts from recession rays, None when
    absent) and the max of slope * x* + intercept over ``lines``
    otherwise.  Per breakpoint the inner sup is linear in the subgradient,
    so it sits at the interval end facing x: one line with the anchor as
    slope.  Along a segment every anchor carries the same slope and the
    term is linear in the anchor, so only the segment ends matter (open
    ends still count, since the sup need not be attained): one line per
    finite end.  Slopes come out in candidate order, so equal slopes are
    adjacent and merge into strictly increasing slopes, at most one per
    breakpoint.
    """
    lines = []
    lo_cut = hi_cut = None

    def add(slope, icpt):
        if lines and lines[-1][0] == slope:
            if icpt > lines[-1][1]:
                lines[-1] = (slope, icpt)
        else:
            lines.append((slope, icpt))

    for a, _v, lo, hi, ends in order:
        if ends is None:
            d = x - a
            g = hi if d > 0 else lo if d < 0 else 0
            if g is None:
                return None
            add(a, d * g)
            continue
        xlo, xhi = ends
        if xlo is None:
            lo_cut = lo
        else:
            add(xlo, lo * (x - xlo))
        if xhi is None:
            hi_cut = lo
        else:
            add(xhi, lo * (x - xhi))
    return lines, lo_cut, hi_cut


def _cut(lo_cut, hi_cut, xstar) -> bool:
    return (lo_cut is not None and xstar < lo_cut) or (
        hi_cut is not None and xstar > hi_cut
    )


def fitzpatrick_structured(st: SubdiffStructure1D, x, xstar) -> ExtReal:
    """Fitzpatrick value over the full 1D subdifferential, not a flattening."""
    return fitzpatrick_table(st, [x], [xstar])[0][0]


def _graph_order(G: OperatorGraph) -> list:
    """An exact 1D pair graph read as a structure that has only points:
    each distinct anchor a, ascending, with the interval [min b, max b] of
    its duals.  A pair's term <x - a, b> is linear in b, so over the duals
    of one anchor its sup sits at the interval end facing x, exactly as at
    a breakpoint."""
    ends = {}
    for a, b in G.pairs:
        lo, hi = ends.get(a, (b, b))
        ends[a] = (b if b < lo else lo, b if b > hi else hi)
    return [(a, None, lo, hi, None) for a, (lo, hi) in sorted(ends.items())]


def _is_exact_graph(G: OperatorGraph) -> bool:
    return G.dim == 1 and all(
        is_exact_scalar(a) and is_exact_scalar(b) for a, b in G.pairs
    )


def fitzpatrick_table(src, xs, xstars) -> list:
    """Rows of the Fitzpatrick function over xs x xstars, in the given orders.

    ``src`` is a ``SubdiffStructure1D`` (the values of
    ``fitzpatrick_structured``) or an ``OperatorGraph`` (the values of
    ``fitzpatrick``).  A structure, or an exact 1D graph with exact probes
    (read through ``_graph_order``), is scaled to ints once per table: the
    primal numbers over their lcm d1, the dual ones over theirs d2.  Per x
    the int lines of ``_fitz_lines`` (slopes already increasing) go through
    ``line_envelope_values`` at the sorted duals, and each value v becomes
    the cell Fraction(v, d1 * d2): O(m + p) int operations per row after
    one O(p log p) sort, for m breakpoints or distinct anchors.  A float or
    2D graph, or inexact probes, take ``fitzpatrick``'s pair loop per cell.
    """
    if isinstance(src, OperatorGraph):
        xs, xstars = list(xs), list(xstars)
        if not (_is_exact_graph(src) and all(map(is_exact_scalar, xs + xstars))):
            return [[fitzpatrick(src, x, y) for y in xstars] for x in xs]
        order = _graph_order(src)
    else:
        order = src._order
    xs = [_exactify(x) for x in xs]
    xstars = [_exactify(y) for y in xstars]
    primal = [*xs, *(q for c in order for q in (c[0], *(c[4] or ())))]
    dual = [*xstars, *(q for c in order for q in c[2:4])]
    d1 = math.lcm(*(q.denominator for q in primal if q is not None))
    d2 = math.lcm(*(q.denominator for q in dual if q is not None))

    def up(q, d):
        return None if q is None else q.numerator * (d // q.denominator)

    order = [
        (up(a, d1), None, up(lo, d2), up(hi, d2), ends and tuple(up(e, d1) for e in ends))
        for a, _v, lo, hi, ends in order
    ]
    ys = [up(y, d2) for y in xstars]
    by_value = sorted(range(len(ys)), key=ys.__getitem__)
    den = d1 * d2
    table = []
    for x in xs:
        gen = _fitz_lines(order, up(x, d1))
        row = [POS_INF] * len(xstars)
        table.append(row)
        if gen is None:
            continue
        lines, lo_cut, hi_cut = gen
        if not lines:
            row[:] = [NEG_INF] * len(xstars)
            continue
        cols = [col for col in by_value if not _cut(lo_cut, hi_cut, ys[col])]
        vals = line_envelope_values(lines, [ys[col] for col in cols])
        for col, (val, _i) in zip(cols, vals):
            row[col] = ExtReal(Fraction(val, den))
    return table


def ni_check(G: OperatorGraph, probe_pairs) -> ExtReal:
    """Minimum over probes of the Fitzpatrick margin phi(x, x*) - <x, x*>.

    Nonnegative margins are the numerical face of the negative-infimum
    property; a genuinely negative margin certifies its failure on the
    sampled window.
    """
    best = None
    for x, xstar in probe_pairs:
        margin = fitzpatrick(G, x, xstar) - dot(x, xstar, G.dim)
        if best is None or margin < best:
            best = margin
    if best is None:
        raise ValueError("need at least one probe pair")
    return best


def ni_nonneg(G: OperatorGraph, probe_pairs) -> bool:
    """True iff the Fitzpatrick margin is >= 0 at every probe pair.

    The margin rewrites as sup over graph pairs of <x - a, b - xstar>, so a
    single pair with nonnegative product settles a probe; that short-circuit
    makes large probe batteries cheap.  Agrees with ni_check >= 0.
    """
    count = 0
    for x, xstar in probe_pairs:
        count += 1
        if not any(
            dot(point_sub(x, a, G.dim), point_sub(b, xstar, G.dim), G.dim) >= 0
            for a, b in G.pairs
        ):
            return False
    if count == 0:
        raise ValueError("need at least one probe pair")
    return True


def graph_dump(G: OperatorGraph) -> dict:
    """JSON-ready description of a finite pair graph.

    Scalars keep their spelling through format_scalar, so exact pairs
    round-trip exactly and float pairs round-trip via repr.
    """
    from .extreal import format_scalar

    def enc(p):
        if G.dim == 1:
            return format_scalar(as_extreal(p))
        return [format_scalar(as_extreal(c)) for c in p]

    out = {
        "kind": "opgraph",
        "dim": G.dim,
        "pairs": [[enc(x), enc(y)] for x, y in G.pairs],
    }
    if G.label is not None:
        out["label"] = G.label
    return out


def graph_load(src) -> OperatorGraph:
    from .extreal import parse_scalar

    if not isinstance(src, dict) or src.get("kind") != "opgraph":
        raise ValueError("not an operator-graph description")
    _check_counts(src, "pairs")
    dim = int(src["dim"])

    def dec(e):
        if dim == 1:
            return parse_scalar(e).finite()
        return tuple(parse_scalar(c).finite() for c in e)

    pairs = tuple((dec(x), dec(y)) for x, y in src["pairs"])
    return OperatorGraph(dim, pairs, label=src.get("label"))
