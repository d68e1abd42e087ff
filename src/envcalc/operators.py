"""Operator graphs, subdifferentials, monotonicity, Fitzpatrick functions.

The exact backend carries two views of a subdifferential.  The flattened
``OperatorGraph`` (defined, read and written in ``funcrep``) is a finite pair
list, what monotonicity and pair-based suprema work on.  The attached ``SubdiffStructure1D`` keeps the
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
from functools import cached_property

import numpy as np

from .extreal import ExtReal, NEG_INF, POS_INF, ext_sup
from .funcrep import (
    GridFunction,
    Interval1D,
    OperatorGraph,
    PLConvex1D,
    _canon_point,
    _frac,
    dot,
    is_exact_scalar,
    line_envelope_values,
    point_sub,
    ranks,
    shadow,
)
from .transforms import conjugate_exact, indicator


@dataclass(frozen=True)
class SubdiffStructure1D:
    """Exact graph of the subdifferential of a piecewise-linear convex f,
    as ``subdiff_structure``, its only builder, walks it.

    ``_order`` runs left to right over anchored supports (a, v, lo, hi,
    ends).  A breakpoint a (closure value v attached) has the subgradient
    interval [lo, hi], None meaning it runs to -inf (left wall) or +inf
    (right wall), and ends None; a breakpoint with a raised (non-lsc) value
    has none and is left out.  A segment is its line through its left
    breakpoint (the first one for a left ray), lo = hi = its slope, and
    ``ends`` = (xlo, xhi), None past an end breakpoint.  ``sups``, the
    Fitzpatrick line generator and ``structure_contains`` walk this order.

    Candidate i lies wholly left of x iff _pos[i] < (x, 1) (a right ray,
    last, never does and is left out).  Its admission key is the infimum of
    f over it, as (0, value, 1 if not attained), or (-1,) along a ray where
    f is unbounded below, so it has an anchor with f(a) <= theta iff its
    key is < (0, theta, 1).  ``_adm_left`` and ``_adm_right`` list the keys
    from ``_argmin``, the first minimal one, leftward and rightward.
    ``points`` (a, value, lo, hi) and ``segments`` (xlo, xhi, slope, ref_x,
    ref_v) are read-only views of the order.
    """

    _order: tuple
    _pos: tuple
    _adm_left: tuple
    _adm_right: tuple
    _argmin: int

    @cached_property
    def points(self) -> tuple:
        return tuple(c[:4] for c in self._order if c[4] is None)

    @cached_property
    def segments(self) -> tuple:
        return tuple((*c[4], c[2], c[0], c[1]) for c in self._order if c[4] is not None)

    def sups(self, xs, thetas=None) -> list:
        """The sup at each exact probe x of xs, in their order, of the
        supports of the candidates with an anchor where f <= theta, x's
        entry of ``thetas`` (None, or a None entry: no budget).  This is the
        only structure sup.

        Contiguity: {a : f(a) <= theta} is an interval, so the admitted
        candidates form one run, and the admission keys (the infimum of f
        over a candidate, tagged open or attained) are unimodal along the
        order.  ``funcrep.ranks`` places the probes against the position
        keys and the budgets against each side's admission keys by float
        shadows (a (-1,) key's is -inf), deciding exactly only where the
        shadows tie: O(p log m) for p probes, in any order.  The shadows of
        the keys are built once per structure, on first use.
        """
        xs = list(xs)
        if not self._order:
            return [NEG_INF] * len(xs)
        n = len(xs)
        n_left, n_right = [len(self._adm_left)] * n, [len(self._adm_right)] * n
        if thetas is not None:
            budgeted = [q for q in range(n) if thetas[q] is not None]
            bounds = [(0, thetas[q], 1) for q in budgeted]
            sb = [shadow(thetas[q]) for q in budgeted]
            left, right = self._adm_shadows
            for q, nl, nr in zip(
                budgeted,
                ranks(self._adm_left, left, bounds, sb),
                ranks(self._adm_right, right, bounds, sb),
            ):
                n_left[q], n_right[q] = nl, nr
        ps = ranks(self._pos, self._pos_shadows, [(x, 1) for x in xs], map(shadow, xs))
        return list(map(self._run_sup, xs, ps, n_left, n_right))

    @cached_property
    def _pos_shadows(self) -> list:
        return [shadow(b) for b, _tag in self._pos]

    @cached_property
    def _adm_shadows(self) -> tuple:
        def side(keys):
            return [-math.inf if len(k) == 1 else shadow(k[1]) for k in keys]

        return side(self._adm_left), side(self._adm_right)

    def _run_sup(self, x, p, n_left, n_right) -> ExtReal:
        """The sup at x over the admitted run: the n_left candidates from
        the admission minimum leftward and the n_right from it rightward
        (the minimum counted on both sides), where p candidates lie wholly
        left of x.

        Unimodality: along the order, the support values at x never
        decrease across the candidates wholly left of x and never increase
        after them (a nearer anchor's subgradient is at least as steep
        toward x), so the run's sup is at its member nearest x on either
        side: two evaluations.  Each is v + g(x - a) as one integer
        fraction over the four denominators of x, a, v and g; the two are
        compared by cross products, the first kept on a tie, and only the
        winner becomes a Fraction.
        """
        if n_left == 0:
            return NEG_INF
        order = self._order
        i = self._argmin - n_left + 1
        j = self._argmin + n_right - 1
        xn, xd = x.numerator, x.denominator
        bn = bd = bv = None
        for c in (min(p - 1, j), max(p, i)):
            if c < i or c > j:
                continue
            a, v, lo, hi, _ends = order[c]
            ad = a.denominator
            dn = xn * ad - a.numerator * xd  # (x - a) xd ad
            if not dn:
                num, den, val = v.numerator, v.denominator, v
            else:
                g = hi if dn > 0 else lo
                if g is None:
                    return POS_INF
                vd, gd = v.denominator, g.denominator
                num = v.numerator * gd * xd * ad + vd * g.numerator * dn
                den, val = vd * gd * xd * ad, None
            if bd is None or num * bd > bn * den:
                bn, bd, bv = num, den, val
        return ExtReal(Fraction(bn, bd) if bv is None else bv)

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
    """The structure of f's subdifferential from one walk over ``f.gaps``:
    gap j's segment if it has a slope, then breakpoint j unless an override
    raises it.  A sloped segment's infimum is the listed value at its lower
    end, or it falls without bound toward an open side.  O(m), once per f."""
    if not isinstance(f, PLConvex1D):
        raise TypeError("subdiff_structure takes a PLConvex1D")
    if "_structure" in f.__dict__:
        return f.__dict__["_structure"]
    b, v, gaps = f.breakpoints, f.values, f.gaps
    n = len(b)
    first = 0 if f.override_left is None else 1
    last = n - 1 if f.override_right is None else n - 2
    order, pos, adm = [], [], []
    k = None
    for j, g in enumerate(gaps):
        if g is not None:
            a = j - 1 if j else 0
            ends = (b[j - 1] if j else None, b[j] if j < n else None)
            low = j - 1 if g.numerator > 0 else j  # the lower end's breakpoint
            if g.numerator == 0:
                key = (0, v[a], 0)
            elif not 0 <= low < n:
                key = (-1,)  # a ray that falls toward its open side
            else:
                key = (0, v[low], 1)
            if k is None and key[-1] != 1:  # flat, or unbounded below
                k = len(order)
            order.append((b[a], v[a], g, g, ends))
            adm.append(key)
            if j < n:
                pos.append((b[j], 0))
        if first <= j <= last:
            lo, hi = g, gaps[j + 1]
            if k is None and (lo is None or lo.numerator <= 0) and (
                hi is None or hi.numerator >= 0
            ):
                k = len(order)
            order.append((b[j], v[j], lo, hi, None))
            adm.append((0, v[j], 0))
            pos.append((b[j], 1))
    if k is None:
        # f is bounded below with no minimizer, so it is monotone and its
        # infimum lies at an overridden end: the first candidate when f
        # increases, the last when it decreases
        rising = order and order[0][3] is not None and order[0][3].numerator > 0
        k = len(order) - 1 if order and not rising else 0
    f.__dict__["_structure"] = st = SubdiffStructure1D(
        tuple(order), tuple(pos), tuple(adm[k::-1]), tuple(adm[k:]), k
    )
    return st


def subdiff_exact(f: PLConvex1D, x) -> Interval1D | None:
    """The subgradient interval at x, or None when it is empty: one probe
    of ``subdiffs_exact``."""
    return subdiffs_exact(f, (x,))[0]


def subdiffs_exact(f: PLConvex1D, xs) -> list:
    """``[subdiff_exact(f, x) for x in xs]``, in the order of xs.  One
    ``ranks`` call places the probes among the breakpoints by their float
    shadows (``PLConvex1D.shadows``), comparing exactly only where shadows
    tie: O(p log m) for p probes in any order.  With j breakpoints at or
    left of x, x is breakpoint j - 1 (empty at a raised end) or lies in
    gap j (empty on a wall)."""
    b, gaps = f.breakpoints, f.gaps
    raised = (f.override_left is not None, f.override_right is not None)
    xs = list(map(_frac, xs))
    out = []
    for j, x in zip(ranks(b, f.shadows, xs, map(shadow, xs), right=True), xs):
        if j and x == b[j - 1]:
            end = (j == 1 and raised[0]) or (j == len(b) and raised[1])
            out.append(None if end else Interval1D(gaps[j - 1], gaps[j]))
        else:
            g = gaps[j]
            out.append(None if g is None else Interval1D(g, g))
    return out


def subgradient_flags(f, pairs, tol=0, values=None) -> list:
    """Whether x* is a subgradient of f at x, for each pair (x, x*) of
    pairs, with f read once, by one ``values_at`` over the pairs' x
    (``values``, when given, are those values, in pair order).

    On a PLConvex1D, exactly (tol is unused): f(x) is finite, x* lies
    between the recession slopes, and cl f(y) >= f(x) + x*(y - x) at every
    breakpoint y, where cl f takes the listed ``values``: an override passes
    no slope that the adjacent segment rules out, and a raised end fails its
    y = x term.  cl f(y) - x* y is least at k = bisect_left(slopes, x*), so
    one comparison there decides every y: O(log m) per pair, and
    independent of subdiff_exact on purpose.  A GridFunction gets
    ``grid_subdiff_test`` within tol per pair; any other representation
    raises TypeError on a nonempty list.
    """
    if isinstance(f, GridFunction):
        return [grid_subdiff_test(f, x, xstar, tol) for x, xstar in pairs]
    if not isinstance(f, PLConvex1D):
        if pairs:
            raise TypeError("unsupported function representation")
        return []
    xs = [_frac(x) for x, _xstar in pairs]
    xstars = [_frac(xstar) for _x, xstar in pairs]
    if values is None:
        values = f.values_at(xs)
    b, v, s = f.breakpoints, f.values, f.slopes()
    lrec, rrec = f.left_recession, f.right_recession
    out = []
    for x, xstar, fx in zip(xs, xstars, values):
        k = bisect_left(s, xstar)
        out.append(
            fx.is_finite
            and v[k] >= fx.finite() + xstar * (b[k] - x)
            and (lrec is None or xstar >= lrec)
            and (rrec is None or xstar <= rrec)
        )
    return out


def subdiff_test(f: PLConvex1D, x, xstar) -> bool:
    """One pair of ``subgradient_flags``: the inequality route."""
    if not isinstance(f, PLConvex1D):
        raise TypeError("subdiff_test takes a PLConvex1D")
    return subgradient_flags(f, ((x, xstar),))[0]


_CHUNK_CELLS = 1 << 20
# the screen tests each anchor against this many of its nearest samples
_SCREEN_K = 8


def _grid_membership(f: GridFunction, anchors, fa, duals, tol) -> np.ndarray:
    """(anchors x duals) bools: the affine minorant through (a, fa) with
    slope s stays below every finite sample y of f, within tol.

    Evaluates fy < fa + <s, y - a> - tol in the per-pair order: y - a
    first, the 2D dot as 0 + s0*d0 + s1*d1 (how Python's sum adds it up),
    then fa +, then - tol.  Every input, 1D or 2D, goes through
    ``_screened_membership``.

    Error band.  Each cell rounds m = dim + 2 operations, one more when
    tol != 0 (y - a per coordinate, the products, + fa, - tol), so while no
    term overflows the computed right-hand side is within
    gamma_m (|fa| + sum_i |s_i| |y_i - a_i| + tol) + dim 2^-1074 of the
    exact one on the same floats, gamma_m = m u / (1 - m u), u = 2^-53
    (gamma_3 in 1D at tol = 0).  A verdict that differs from exact
    arithmetic on those floats therefore has a sample fy inside that band
    around fa + <s, y - a> - tol.
    A difference or product past the float range is the infinity it rounds
    to, which still decides the comparison, unless the right-hand side
    comes out NaN (0 * inf, or inf - inf in the 2D dot): such a cell is
    decided over the rationals its floats denote, or, with an infinite dual
    or tolerance, read as no violation.  A NaN tolerance is refused: every
    comparison with it is false, so every cell would pass.
    """
    if math.isnan(tol):
        raise ValueError("the membership tolerance is NaN")
    return _screened_membership(*f.finite_arrays(), anchors, fa, duals, tol)


def _rhs(d, s, fa, tol):
    """The cell's right-hand side, broadcast over the coordinates d = (d0,)
    or (d0, d1) and s alike: fl(fl(d0 s0 + fa) - tol) in 1D,
    fl(fl(fl(fl(0 + d0 s0) + d1 s1) + fa) - tol) in 2D."""
    rhs = d[0] * s[0]
    if len(d) == 2:
        rhs += 0.0
        rhs += d[1] * s[1]
    rhs += fa
    rhs -= tol
    return rhs


def _screened_membership(ys, fy, anchors, fa, duals, tol) -> np.ndarray:
    """Membership that screens before it sweeps, 1D points and duals read
    as one-coordinate columns.

    Each anchor is first tested against its ``_SCREEN_K`` nearest finite
    samples (an ``argpartition`` of squared distances); a pair that one of
    them violates is rejected.  Only the surviving (anchor, dual) pairs get
    the full row over every sample, so the gain is the share of pairs the
    screen rejects: a minorant through a smooth-looking sample cloud is
    usually cut off by a neighbour.  Every cell is ``_rhs``, and a NaN cell
    compares false in the screen, so it rejects only pairs the full row
    rejects; the row decides a NaN cell over the rationals its floats
    denote (skipped while a bound on every term stays finite).  With at
    most ``_SCREEN_K`` samples the screen is the full row, and only a
    possible NaN cell sends pairs on to the rows.  The rows hold the
    coordinates apart, (dim, pairs, samples), in chunks of ``_CHUNK_CELLS
    >> 4`` cells, which keeps a row's cell as cheap as a dense one when
    every pair survives; the screen's anchor chunks stay near
    ``_CHUNK_CELLS`` cells.
    """
    ys, anchors, duals = (u[:, None] if u.ndim == 1 else u for u in (ys, anchors, duals))
    n, p = len(ys), len(duals)
    alive = np.ones((len(anchors), p), dtype=bool)
    if not n or not p:
        return alive
    # a NaN needs an infinite term, and none arises while this bound on every
    # difference, product and sum stays finite, so the NaN scan is skipped
    ftol = float(tol)
    big = [float(abs(u).max(initial=0)) for u in (ys, anchors, duals, fa)]
    scan = not (big[0] + big[1]) * big[2] * ys.shape[1] + big[3] + abs(ftol) < 1e308
    k = min(_SCREEN_K, n)
    astep = max(1, _CHUNK_CELLS // max(n, k * p))
    with np.errstate(over="ignore", invalid="ignore"):
        for alo in range(0, len(anchors), astep):
            a = anchors[alo : alo + astep]
            dist = ((ys[None] - a[:, None]) ** 2).sum(axis=2)
            near = np.argpartition(dist, k - 1, axis=1)[:, :k] if k < n else np.arange(n)[None]
            d = (ys[near] - a[:, None]).transpose(2, 0, 1)
            rhs = _rhs(d[..., None], duals.T, fa[alo : alo + len(a), None, None], ftol)
            alive[alo : alo + len(a)] = ~(fy[near][:, :, None] < rhs).any(axis=1)
        if k == n and not scan:
            return alive  # the screen saw every sample
        rows, cols = alive.nonzero()
        yt = np.ascontiguousarray(ys.T)[:, None]
        step = max(1, (_CHUNK_CELLS >> 4) // n)
        for lo in range(0, len(rows), step):
            i, j = rows[lo : lo + step], cols[lo : lo + step]
            d = yt - anchors[i].T[:, :, None]
            rhs = _rhs(d, duals[j].T[:, :, None], fa[i, None], ftol)
            below = fy < rhs
            for r, c in zip(*np.isnan(rhs).nonzero()) if scan else ():
                s, y, a = (u.tolist() for u in (duals[j[r]], ys[c], anchors[i[r]]))
                if all(map(math.isfinite, (*s, tol))):
                    gain = sum(Fraction(u) * (Fraction(v) - Fraction(w)) for u, v, w in zip(s, y, a))
                    below[r, c] = Fraction(fy[c]) + Fraction(tol) - Fraction(fa[i[r]]) < gain
            alive[i, j] = ~below.any(axis=1)
    return alive


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


def eps_subdiff_test(f: PLConvex1D, x, xstar, eps) -> bool:
    """Approximate subgradient membership via the conjugate gap:
    f(x) + f*(xstar) <= x*xstar + eps."""
    eps = _nonneg_eps(eps)
    gap = eps_subdiff_gap(f, x, xstar)
    return gap is not None and gap <= eps


def eps_subdiff_gap(f: PLConvex1D, x, xstar, fx=None):
    """f(x) + f*(xstar) - x*xstar, the least eps for which xstar is an
    eps-subgradient at x, or None when f(x) or f*(xstar) is +inf; a caller
    with several eps reads f and f* once here.  ``fx``, when given, is
    f(x); f* (``conjugate_exact``) is read only when f(x) is finite."""
    x = _frac(x)
    xstar = _frac(xstar)
    if fx is None:
        fx = f.value_at(x)
    if not fx.is_finite:
        return None
    fstar = conjugate_exact(f).value_at(xstar)
    if fstar.is_pos_inf:
        return None
    return fx.finite() + fstar.finite() - x * xstar


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
    b, gaps = f.breakpoints, f.gaps
    for p in map(_exactify, probes):
        j = bisect_right(b, p)
        if (j == 0 or p != b[j - 1]) and gaps[j] is not None:
            pairs.add((p, gaps[j]))
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


def _relation_test(G: OperatorGraph, candidates, tol) -> list:
    """Per candidate (cx, cy): is <cx - x, cy - y> >= -tol for every pair
    (x, y)?

    On an exact 1D graph with exact candidates and tol == 0 the sign of
    each product is read off instead: pairs left of cx need y <= cy and
    pairs right of it need y >= cy, so one sort by anchor, a prefix max
    and a suffix min of the duals, and two ``ranks`` calls that place every
    candidate among the anchors by float shadows decide it.  Otherwise
    (floats, whose products may round to -0.0, tol > 0, 2D) every pair is
    tested.
    """
    ps = G.pairs
    if not (tol == 0 and _is_exact_graph(G) and all(map(_exact_pair, candidates))):
        return [
            all(dot(point_sub(cx, x, G.dim), point_sub(cy, y, G.dim), G.dim) >= -tol
                for x, y in ps)
            for cx, cy in candidates
        ]
    srt = sorted(ps, key=lambda p: p[0])
    anchors = [a for a, _b in srt]
    # below[i]: max dual of the first i pairs; above[i]: min dual of the rest
    below, above = [None], [None]
    for _a, b in srt:
        below.append(b if below[-1] is None or b > below[-1] else below[-1])
    for _a, b in reversed(srt):
        above.append(b if above[-1] is None or b < above[-1] else above[-1])
    above.reverse()
    shadows = list(map(shadow, anchors))
    cxs = [cx for cx, _cy in candidates]
    cx_shadows = list(map(shadow, cxs))
    out = []
    for (_cx, cy), i, j in zip(
        candidates,
        ranks(anchors, shadows, cxs, cx_shadows),
        ranks(anchors, shadows, cxs, cx_shadows, right=True),
    ):
        lo, hi = below[i], above[j]
        out.append((lo is None or lo <= cy) and (hi is None or cy <= hi))
    return out


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
    members = None
    related = 0
    witness = None
    checked = 0
    for (cx, cy), is_related in zip(candidates, _relation_test(G, candidates, tol)):
        checked += 1
        if not is_related:
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
