"""Differential tests: the exact sweep kernels against their direct routes.

The oracles below are the per-probe case analyses the kernels replaced:
a linear scan over every point and segment of the structure for the
budgeted support sup and for the Fitzpatrick function, a linear scan for
the subgradient interval, the quadratic max for the conjugate, the
quadratic chain DP for ``n_cup_envelope``, the ``Fraction`` line hull the
scaled-int ``line_envelope_at`` replaced, the per-call sample validation
behind the ``epi_cup_floor`` membership and, for the line-hull routes over
1D pair lists, the per-cell ``fitzpatrick`` pair loop, the per-probe
``MaxAffine.value_at``, the all-pairs relation test of
``is_maximal_relative``, the ``subdiff_exact`` containment that
``subgradient_flags`` must agree with (per-pair validation in
``upper_envelope`` and in the theorem checks), the max loop of
``star_cup`` and the conjugate-side max loops that cross-check the
anchor routes, the ``ext_sup`` generator of ``smile``, ``circ``'s own
anchor read and the two-pass ``portable_hull`` (with the domain samples
and ``portable_envelope`` around it), the structure walk that
``slope_range`` replaced, the point-chord lower hull that ``_hull_1d_exact`` ran before it shared
``_upper_hull``, the candidate selection of ``brondsted_search`` before
it judged candidates as ``BrondstedResult``s, the ``subdiff_exact``
lookup behind ``structure_contains``, and the hand-written binary search
that ``PLConvex1D.value_at`` ran before it took ``bisect_right``, and the
scans that four one-bisection kernels replaced: the breakpoint loop of
``subgradient_flags``, the cut loop of ``epi_cup_floor``, the segment scan
of ``subdiff_graph`` and the list scans of ``theoremlab._net_points``,
with the full (n - 1)-step chain DP that ``n_cup_envelope`` now stops at
its fixed point, the two-list build of ``subdiff_structure`` before it
walked ``PLConvex1D.gaps``, and the all-samples scan of the exact grid
graph before it read the hull's structure, and the probe-by-probe
comparison of two subdifferentials that ``theoremlab._graph_shape``
replaced in the check lab's operator identities.  They live here only, as
references; exact comparisons are exact and float comparisons are bit
for bit.

The one-probe routes ``PLConvex1D.value_at`` and ``subdiff_exact`` are
one probe of their batched forms (``values_at``, ``subdiffs_exact``), so
both answer to the binary-search and scan oracles above, compared by
``repr`` so that payload types count; ``SubdiffStructure1D.sups`` called
once per probe is the reference of ``sups`` over many probes, as the
one-probe envelope functions are of the check lab's probe tables,
``brondsted_search`` once per eps of ``brondsted_ladder`` and the one-pair
``subdiff_test`` of ``subgradient_flags``; the public ``PLConvex1D`` constructor is the
reference of the private ``_make``, and ``pl_restrict`` (an indicator
added with ``pl_add``) of the envelopes' O(1) restrictions.  ``pl_add``,
the general exact sum, is also the middle of the dual route
f [] g = (f* + g*)* that the exact ``inf_conv`` replaced, and
``eps_subdiff_test`` is the pointwise reference of ``eps_subdiff_interval``.
``n_cup_enum``, the literal chain enumeration, is the reference of
``n_cup`` (criterion 6), and ``ni_nonneg``, the short-circuit margin test
of the negative-infimum property, answers to ``ni_check``.
"""

import bisect
import contextlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from envcalc.extreal import (
    NEG_INF,
    POS_INF,
    ExtReal,
    MixedScalarError,
    as_extreal,
    ext_add,
    ext_sup,
    format_scalar,
    parse_scalar,
)
from envcalc.funcrep import (
    GridFunction,
    Interval1D,
    MaxAffine,
    PLConvex1D,
    SampledSet,
    _frac,
    _hull_1d_exact,
    dot,
    dump_instance,
    effective_domain,
    line_envelope_at,
    load_instance,
    pl_canonical,
    pl_equal,
    point_sub,
    ranks,
    shadow,
)
from envcalc.envelopes import (
    BrondstedResult,
    _subdiff_restriction,
    brondsted_ladder,
    brondsted_search,
    circ,
    circ_exact,
    cup_exact,
    cup_value,
    epi_cup_floor,
    epi_normal_graph,
    envelope_values,
    n_cup,
    n_cup_envelope,
    portable_envelope,
    portable_hull,
    portable_hull_interval,
    sharp_exact,
    sharp_value,
    smile,
    smile_eps_value,
    smile_value,
    star_cup,
    star_cup_exact,
    subdiff_domain,
    upper_envelope,
)
from envcalc.operators import (
    MaximalityVerdict,
    grid_subdiff_test,
    OperatorGraph,
    _exactify,
    eps_subdiff_interval,
    eps_subdiff_test,
    fitzpatrick,
    fitzpatrick_structured,
    fitzpatrick_table,
    is_maximal_relative,
    structure_contains,
    subdiff_exact,
    subdiff_graph,
    subdiff_structure,
    subdiff_test,
    subgradient_flags,
    subdiffs_exact,
)
from envcalc.theoremlab import (
    _EPS_LADDER,
    CheckContext,
    InstanceGenerator,
    _graph_shape,
    _grid_graph_exact,
    _grid_items_exact,
    _net_points,
    dual_probes,
    primal_probes,
)
from envcalc.transforms import (
    ImproperError,
    cl_conv,
    conjugate_brute,
    conjugate_exact,
    indicator,
    inf_conv,
    maxaffine_to_pl,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def pl_add(f: PLConvex1D, g: PLConvex1D) -> PLConvex1D:
    """Exact pointwise sum; raises ImproperError when the domains miss.

    The sum's breakpoints are the merged breakpoints of f and g inside the
    common domain, and each closure is evaluated there in one
    ``values_at`` sweep."""
    flo = None if f.left_recession is not None else f.breakpoints[0]
    fhi = None if f.right_recession is not None else f.breakpoints[-1]
    glo = None if g.left_recession is not None else g.breakpoints[0]
    ghi = None if g.right_recession is not None else g.breakpoints[-1]
    lo = max(x for x in (flo, glo) if x is not None) if (flo is not None or glo is not None) else None
    hi = min(x for x in (fhi, ghi) if x is not None) if (fhi is not None or ghi is not None) else None
    if lo is not None and hi is not None and lo > hi:
        raise ImproperError("sum has empty domain (walls do not overlap)")
    if lo is not None and lo == hi:
        val = ext_add(f.value_at(lo), g.value_at(lo))
        if val.is_pos_inf:
            raise ImproperError("sum is +inf everywhere (endpoint exclusions meet)")
        return PLConvex1D._make((lo,), (val.finite(),))
    xs = set()
    for h in (f, g):
        for x in h.breakpoints:
            if (lo is None or x >= lo) and (hi is None or x <= hi):
                xs.add(x)
    if lo is not None:
        xs.add(lo)
    if hi is not None:
        xs.add(hi)
    xs = tuple(sorted(xs))
    vals = tuple(
        a.finite() + c.finite()
        for a, c in zip(f.closure().values_at(xs), g.closure().values_at(xs))
    )
    lrec = (f.left_recession + g.left_recession) if lo is None else None
    rrec = (f.right_recession + g.right_recession) if hi is None else None
    ovl = ovr = None
    if lo is not None:
        actual = ext_add(f.value_at(lo), g.value_at(lo))
        if actual != vals[0]:
            ovl = actual
    if hi is not None:
        actual = ext_add(f.value_at(hi), g.value_at(hi))
        if actual != vals[-1]:
            ovr = actual
    return PLConvex1D._make(xs, vals, lrec, rrec, ovl, ovr)


def pl_restrict(f: PLConvex1D, iv: Interval1D) -> PLConvex1D:
    """f + indicator(iv): the same function confined to an interval, by
    the general route of ``pl_add``, O(m log m)."""
    return pl_add(f, indicator(iv))


def n_cup_enum(f, G: OperatorGraph, n: int, x) -> ExtReal:
    """Literal chain enumeration; exponential, for small graphs and tests."""
    if n not in (2, 3, 4):
        raise ValueError("n must be one of 2, 3, 4")
    ps = G.pairs
    if not ps:
        return NEG_INF
    best = NEG_INF
    for chain in itertools.product(ps, repeat=n):
        prev = x
        total = 0
        for a, b in chain:
            total = total + dot(b, point_sub(prev, a, G.dim), G.dim)
            prev = a
        fa = f.value_at(chain[-1][0])
        if not fa.is_finite:
            raise ValueError("anchor outside the domain")
        cand = as_extreal(total + fa.finite())
        if cand > best:
            best = cand
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


def inf_conv_dual_oracle(f, g):
    """The closed inf-convolution through the dual, (f* + g*)*: the
    result, or the ImproperError text when the sum is empty."""
    try:
        return conjugate_exact(pl_add(conjugate_exact(f), conjugate_exact(g)))
    except ImproperError as exc:
        return str(exc)


def threshold_sup_oracle(st_, x, theta=None):
    """sup of the supports whose anchor value passes the budget, by scan."""
    best = NEG_INF
    for a, v, lo, hi in st_.points:
        if theta is not None and v > theta:
            continue
        if x == a:
            cand = as_extreal(v)
        elif x > a:
            cand = POS_INF if hi is None else as_extreal(v + (x - a) * hi)
        else:
            cand = POS_INF if lo is None else as_extreal(v + (x - a) * lo)
        if cand > best:
            best = cand
    for xlo, xhi, slope, rx, rv in st_.segments:
        if theta is not None:
            if slope == 0:
                admit = rv <= theta
            else:
                if xlo is None:
                    lo_end = NEG_INF if slope > 0 else POS_INF
                else:
                    lo_end = as_extreal(rv + (xlo - rx) * slope)
                if xhi is None:
                    hi_end = POS_INF if slope > 0 else NEG_INF
                else:
                    hi_end = as_extreal(rv + (xhi - rx) * slope)
                inf_open = lo_end if lo_end < hi_end else hi_end
                admit = as_extreal(theta) > inf_open
            if not admit:
                continue
        cand = as_extreal(rv + (x - rx) * slope)
        if cand > best:
            best = cand
    return best


def fitzpatrick_oracle(st_, x, xstar):
    """Per point: the subgradient interval end facing x; per segment: the
    segment end facing x* (unbounded ends diverge)."""
    best = NEG_INF
    for a, _v, lo, hi in st_.points:
        coef = x - a
        if coef > 0:
            cand = POS_INF if hi is None else as_extreal(coef * hi + a * xstar)
        elif coef < 0:
            cand = POS_INF if lo is None else as_extreal(coef * lo + a * xstar)
        else:
            cand = as_extreal(a * xstar)
        if cand > best:
            best = cand
    for xlo, xhi, slope, _rx, _rv in st_.segments:
        coef = xstar - slope
        if coef > 0:
            cand = POS_INF if xhi is None else as_extreal(slope * x + coef * xhi)
        elif coef < 0:
            cand = POS_INF if xlo is None else as_extreal(slope * x + coef * xlo)
        else:
            cand = as_extreal(slope * x)
        if cand > best:
            best = cand
    return best


def subdiff_oracle(f, x):
    b, s = f.breakpoints, f.slopes()
    if x < b[0]:
        return None if f.left_recession is None else Interval1D(f.left_recession, f.left_recession)
    if x > b[-1]:
        return None if f.right_recession is None else Interval1D(f.right_recession, f.right_recession)
    if (x == b[0] and f.override_left is not None) or (
        x == b[-1] and f.override_right is not None
    ):
        return None
    for i, bi in enumerate(b):
        if x == bi:
            lo = s[i - 1] if i >= 1 else f.left_recession
            hi = s[i] if i < len(s) else f.right_recession
            return Interval1D(lo, hi)
        if x < bi:
            return Interval1D(s[i - 1], s[i - 1])


def conjugate_oracle(f):
    """(dual breakpoints, values, left recession, right recession)."""
    g = f.closure()
    duals = set(g.slopes())
    duals.update(r for r in (g.left_recession, g.right_recession) if r is not None)
    ys = tuple(sorted(duals)) or (F(0),)
    vals = tuple(max(y * b - v for b, v in zip(g.breakpoints, g.values)) for y in ys)
    return (
        ys,
        vals,
        g.breakpoints[0] if g.left_recession is None else None,
        g.breakpoints[-1] if g.right_recession is None else None,
    )


def n_cup_levels_oracle(f, G, n):
    """Chain levels after n - 1 steps of the quadratic DP."""
    ps = G.pairs
    level = []
    for a, _b in ps:
        fa = f.value_at(a)
        if not fa.is_finite:
            raise ValueError(f"anchor {a!r} has no finite value")
        level.append(fa.finite())
    for _ in range(n - 1):
        level = [
            max(
                level[p] + dot(ps[p][1], point_sub(aq, ps[p][0], G.dim), G.dim)
                for p in range(len(ps))
            )
            for aq, _bq in ps
        ]
    return level


def n_cup_oracle(f, G, n, x):
    """The quadratic DP n_cup ran for every probe."""
    if n not in (2, 3, 4):
        raise ValueError("n must be one of 2, 3, 4")
    ps = G.pairs
    if not ps:
        return NEG_INF
    level = n_cup_levels_oracle(f, G, n)
    return as_extreal(
        max(
            level[p] + dot(ps[p][1], point_sub(x, ps[p][0], G.dim), G.dim)
            for p in range(len(ps))
        )
    )


def subdiff_test_oracle(f, x, xstar):
    """Containment in the subgradient interval: xstar in subdiff_exact(f, x)."""
    iv = subdiff_exact(f, x)
    return iv is not None and iv.contains(_frac(xstar))


def subgradient_loop_oracle(f, x, xstar):
    """``subgradient_flags`` before its bisection: f(x) finite, cl f(y) >=
    f(x) + x*(y - x) at every breakpoint y, x* between the recessions."""
    x, xstar = _frac(x), _frac(xstar)
    fx = f.value_at(x)
    if not fx.is_finite:
        return False
    fx = fx.finite()
    if any(fy < fx + xstar * (y - x) for y, fy in zip(f.breakpoints, f.values)):
        return False
    lrec, rrec = f.left_recession, f.right_recession
    return (lrec is None or xstar >= lrec) and (rrec is None or xstar <= rrec)


def epi_cup_floor_loop_oracle(f, G_full):
    """``epi_cup_floor`` testing each sample at every breakpoint."""
    if G_full.dim != 2:
        raise ValueError("epigraph samples live in dimension 2")
    graph = tuple(zip(f.breakpoints, f.values))
    for (a, t), (astar, alpha) in G_full.pairs:
        fa = f.value_at(a)
        if not fa.is_finite or fa.finite() != t:
            raise ValueError(f"sample anchored off the graph: {(a, t)!r}")
        if alpha > 0:
            raise ValueError("epigraph normals cannot point upward")
        for y, fy in graph:
            if (y - a) * astar + (fy - t) * alpha > 0:
                raise ValueError(f"sample {(a, t, astar, alpha)!r} fails support")
        if f.left_recession is not None and -astar - f.left_recession * alpha > 0:
            raise ValueError("sample fails the left recession direction")
        if f.right_recession is not None and astar + f.right_recession * alpha > 0:
            raise ValueError("sample fails the right recession direction")
    return MaxAffine(1, tuple(
        (a, _exactify(astar) / -_exactify(alpha), _exactify(t))
        for (a, t), (astar, alpha) in G_full.pairs
        if alpha != 0
    ))


def subdiff_graph_scan_oracle(f, probes):
    """``subdiff_graph(f, probes)`` placing each probe by a scan of every
    segment of the structure."""
    pairs = set(subdiff_graph(f).pairs)
    for p in probes:
        p = _exactify(p)
        for xlo, xhi, slope, _rx, _rv in subdiff_structure(f).segments:
            if (xlo is None or p > xlo) and (xhi is None or p < xhi):
                pairs.add((p, slope))
    return tuple(sorted(pairs))


def n_cup_full_dp_oracle(f, G, n):
    """The pieces of ``n_cup_envelope`` after all n - 1 hull steps."""
    pieces = [(a, b, f.value_at(a).finite()) for a, b in G.pairs]
    anchors = [a for a, _b in G.pairs]
    for _ in range(n - 1):
        levels = MaxAffine(G.dim, pieces).values_at(anchors)
        pieces = [
            (a, b, lv.value if lv.is_finite else float(lv))
            for (a, b, _), lv in zip(pieces, levels)
        ]
    return tuple(pieces)


def net_points_scan_oracle(f, x, r):
    """``theoremlab._net_points`` with its two list scans."""
    out = [x]
    b = f.breakpoints
    left_ok = x > b[0] or f.left_recession is not None
    right_ok = x < b[-1] or f.right_recession is not None
    inner = [c for c in b if c < x]
    gap_l = x - max(inner) if inner else None
    inner = [c for c in b if c > x]
    gap_r = min(inner) - x if inner else None
    if left_ok:
        step = r if gap_l is None else min(r, gap_l)
        out.append(x - step / 2)
    elif right_ok:
        step = r if gap_r is None else min(r, gap_r)
        out.append(x + step / 2)
    return out


def star_cup_oracle(f, G, xstar):
    """max over the distinct anchors a of <xstar, a> - f(a), first max kept."""
    best = NEG_INF
    for a in {a for a, _b in G.pairs}:
        fa = f.value_at(a)
        if not fa.is_finite:
            raise ValueError(f"anchor {a!r} has no finite value")
        cand = as_extreal(dot(xstar, a, G.dim) - fa.finite())
        if cand > best:
            best = cand
    return best


def _budget_values_oracle(f, xs):
    """f at each point of xs, an exact function taking floats as the
    rationals they denote."""
    if isinstance(f, PLConvex1D):
        xs = [_exactify(x) for x in xs]
    return [f.value_at(x) for x in xs]


def smile_oracle(f, G, x):
    """``smile`` by its generator: f read at x, then at the anchors, and
    one ``ext_sup`` over the supports of the admitted pairs in pair order."""
    (fx,) = _budget_values_oracle(f, [x])
    anchors = [a for a, _b in G.pairs]
    values = _budget_values_oracle(f, anchors)
    for a, fa in zip(anchors, values):
        if not fa.is_finite:
            raise ValueError(f"anchor {a!r} has no finite value")
    return ext_sup(
        fa.finite() + dot(b, point_sub(x, a, G.dim), G.dim)
        for (a, b), fa in zip(G.pairs, values)
        if fx.is_pos_inf or fa.finite() <= fx.finite()
    )


def circ_oracle(f, G, dual_points, probes):
    """``circ`` with its own read of the distinct anchors and their levels."""
    anchors = tuple({a for a, _b in G.pairs})
    if not anchors:
        return tuple((x, NEG_INF) for x in probes)
    levels = []
    for a in anchors:
        fa = f.value_at(a)
        if not fa.is_finite:
            raise ValueError(f"anchor {a!r} has no finite value")
        levels.append(float(fa.finite()))
    conj = conjugate_brute(GridFunction(G.dim, anchors, tuple(levels)), tuple(dual_points))
    back = conjugate_brute(conj, tuple(probes))
    return tuple(zip(back.points, back.values))


def portable_hull_oracle(C, N_samples, tol=0):
    """``portable_hull`` in two passes: validate every sample against every
    sampled point, then keep the sampled points the predicate passes."""
    if C.dim != N_samples.dim:
        raise ValueError("dimension mismatch")
    for a, b in N_samples.pairs:
        if a not in set(C.points):
            raise ValueError(f"normal sample anchored off the set: {a!r}")
        for c in C.points:
            if dot(b, point_sub(c, a, C.dim), C.dim) > tol:
                raise ValueError(f"({a!r}, {b!r}) is not an outward normal")

    def member(x):
        return all(dot(b, point_sub(x, a, C.dim), C.dim) <= tol for a, b in N_samples.pairs)

    return member, SampledSet(C.dim, tuple(p for p in C.points if member(p)), label=C.label)


def domain_samples_oracle(f, G):
    """The domain's breakpoints or finite samples, then each new anchor."""
    if isinstance(f, PLConvex1D):
        pts = [b for b in f.breakpoints if effective_domain(f).contains(b)]
    else:
        pts = [p for p, _v in f.finite_items()]
    for a, _b in G.pairs:
        if a not in pts:
            pts.append(a)
    return SampledSet(G.dim, tuple(pts))


def portable_envelope_oracle(f, G, N_dom_samples, probes):
    """``portable_envelope`` through the two-pass hull, one probe at a time."""
    env = upper_envelope(f, G)
    member, _ = portable_hull_oracle(domain_samples_oracle(f, G), N_dom_samples)
    return tuple((x, env.value_at(x) if member(x) else POS_INF) for x in probes)


def _conjugate_at(f):
    """b -> f*(b) as a finite scalar, for the dual cross-check routes: the
    exact conjugate of a PLConvex1D, the max over a grid's finite samples."""
    if isinstance(f, PLConvex1D):
        conj = conjugate_exact(f)

        def fstar(b):
            return conj.value_at(b).finite()

    elif isinstance(f, GridFunction):
        items = f.finite_items()

        def fstar(b):
            return max(dot(y, b, f.dim) - fy for y, fy in items)

    else:
        raise TypeError("unsupported function representation")
    return fstar


def cup_dual_value_oracle(f, G, x):
    """max over the distinct duals b of <x, b> - f*(b), first max kept."""
    fstar = _conjugate_at(f)
    best = NEG_INF
    for b in {b for _a, b in G.pairs}:
        cand = as_extreal(dot(x, b, G.dim) - fstar(b))
        if cand > best:
            best = cand
    return best


def star_cup_dual_oracle(f, G, xstar):
    """max over the pairs (a, b) of <xstar - b, a> + f*(b), first max kept."""
    fstar = _conjugate_at(f)
    best = NEG_INF
    for a, b in G.pairs:
        cand = as_extreal(dot(point_sub(xstar, b, G.dim), a, G.dim) + fstar(b))
        if cand > best:
            best = cand
    return best


def _line_envelope_values_oracle(lines, ys):
    """The upper hull of lines with increasing slopes, swept over ascending
    ys, in the inputs' own arithmetic; a later line wins ties."""
    hull = []
    for s3, c3 in lines:
        while len(hull) >= 2:
            (s1, c1), (s2, c2) = hull[-2], hull[-1]
            # the middle line never tops both neighbours
            if (c1 - c3) * (s2 - s1) <= (c1 - c2) * (s3 - s1):
                hull.pop()
            else:
                break
        hull.append((s3, c3))
    out = []
    k = 0
    s, c = hull[0]
    for y in ys:
        val = s * y + c
        while k + 1 < len(hull):
            nxt = hull[k + 1][0] * y + hull[k + 1][1]
            if nxt < val:
                break
            k += 1
            s, c = hull[k]
            val = nxt
        out.append(val)
    return out


def line_envelope_at_oracle(lines, probes):
    """The ``Fraction`` ``line_envelope_at`` the scaled-int one replaced:
    equal slopes keep the first largest intercept, then one hull sweep."""
    best = {}
    for s, c in lines:
        if s not in best or c > best[s]:
            best[s] = c
    order = sorted(range(len(probes)), key=probes.__getitem__)
    vals = _line_envelope_values_oracle(sorted(best.items()), [probes[q] for q in order])
    out = [None] * len(probes)
    for q, v in zip(order, vals):
        out[q] = v
    return out


def epi_cup_membership_oracle(f, G_full, point):
    """Validate every sample against the closure at every breakpoint, then
    test the point."""
    if G_full.dim != 2:
        raise ValueError("epigraph samples live in dimension 2")
    x, v = point
    x = _exactify(x)
    v = _exactify(v)
    cl = f.closure()
    for (a, t), (astar, alpha) in G_full.pairs:
        fa = f.value_at(a)
        if not fa.is_finite or fa.finite() != t:
            raise ValueError(f"sample anchored off the graph: {(a, t)!r}")
        if alpha > 0:
            raise ValueError("epigraph normals cannot point upward")
        for y in f.breakpoints:
            fy = cl.value_at(y).finite()
            if (y - a) * astar + (fy - t) * alpha > 0:
                raise ValueError(f"sample {(a, t, astar, alpha)!r} fails support")
        if f.left_recession is not None and -astar - f.left_recession * alpha > 0:
            raise ValueError("sample fails the left recession direction")
        if f.right_recession is not None and astar + f.right_recession * alpha > 0:
            raise ValueError("sample fails the right recession direction")
    for (a, t), (astar, alpha) in G_full.pairs:
        if alpha == 0:
            continue
        if (x - a) * astar + (v - t) * alpha > 0:
            return False
    return True


def value_at_oracle(f, x):
    """``PLConvex1D.value_at`` with its hand-written binary search."""
    x = _frac(x)
    b, v = f.breakpoints, f.values
    if x < b[0]:
        if f.left_recession is None:
            return POS_INF
        return ExtReal(v[0] + f.left_recession * (x - b[0]))
    if x > b[-1]:
        if f.right_recession is None:
            return POS_INF
        return ExtReal(v[-1] + f.right_recession * (x - b[-1]))
    if x == b[0] and f.override_left is not None:
        return f.override_left
    if x == b[-1] and f.override_right is not None:
        return f.override_right
    lo, hi = 0, len(b) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if b[mid] <= x:
            lo = mid
        else:
            hi = mid
    if x == b[lo]:
        return ExtReal(v[lo])
    if x == b[hi]:
        return ExtReal(v[hi])
    t = (x - b[lo]) / (b[hi] - b[lo])
    return ExtReal(v[lo] + t * (v[hi] - v[lo]))


def pl_validation_oracle(breakpoints, values, left=None, right=None, ovl=None, ovr=None):
    """The public ``PLConvex1D`` constructor's validation in ``Fraction``
    arithmetic: the fields it sets, and the slopes last, as a tuple; the
    same ``ValueError``s in the same order."""
    bps = tuple(_frac(b) for b in breakpoints)
    vals = tuple(_frac(v) for v in values)
    if len(bps) == 0:
        raise ValueError("need at least one breakpoint")
    if len(bps) != len(vals):
        raise ValueError("breakpoints and values length mismatch")
    if any(b >= c for b, c in zip(bps, bps[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    sl = None if left is None else _frac(left)
    sr = None if right is None else _frac(right)
    s = tuple((vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i]) for i in range(len(bps) - 1))
    if any(a > b for a, b in zip(s, s[1:])):
        raise ValueError("interior slopes must be nondecreasing (convexity)")
    if sl is not None:
        if s and sl > s[0]:
            raise ValueError("left recession slope must not exceed first slope")
        if not s and sr is not None and sl > sr:
            raise ValueError("recession slopes out of order")
    if sr is not None and s and sr < s[-1]:
        raise ValueError("right recession slope must be at least the last slope")
    out = {}
    for side, ov in (("left", ovl), ("right", ovr)):
        if ov is not None:
            ov = as_extreal(F(ov) if isinstance(ov, int) else ov)
            if ov.is_neg_inf:
                raise ValueError("override cannot be -inf")
            if ov.is_finite:
                ov = ExtReal(_frac(ov.value))
            base = vals[0] if side == "left" else vals[-1]
            if ov.is_finite and ov.value < base:
                raise ValueError("override must not lie below the interpolated value")
            if ov.is_finite and ov.value == base:
                ov = None
            rec = sl if side == "left" else sr
            if ov is not None and rec is not None:
                raise ValueError(
                    "override requires a domain wall on that side "
                    "(raising an interior-domain value would break convexity)"
                )
            if ov is not None and len(bps) == 1 and left is None and right is None:
                raise ValueError("override on a single-point domain is just a value")
        out[side] = ov
    return bps, vals, sl, sr, out["left"], out["right"], s


def structure_lists_oracle(f):
    """``subdiff_structure``'s points and segments built apart, as two
    lists: a point per breakpoint no override raises, with its neighbours'
    slopes, and a segment per slope with each recession ray at its end."""
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
    return tuple(points), tuple(segments)


def grid_graph_oracle(f, duals):
    """The exact grid graph by scan: (a, s) for each finite sample a, in
    list order, and dual s whose minorant through (a, f(a)) stays under
    every finite sample, in ``Fraction`` comparisons."""
    items = _grid_items_exact(f)
    pairs = [
        (a, s)
        for a, fa in items
        for s in duals
        if all(fy >= fa + s * (y - a) for y, fy in items)
    ]
    return OperatorGraph(1, tuple(pairs), label=f.label)


def structure_build_oracle(points, segments):
    """``SubdiffStructure1D``'s derived fields built by a merge on breakpoint
    comparisons, admission keys in ``Fraction`` arithmetic and a tuple min:
    (_order, _pos, _adm_left, _adm_right, _argmin)."""
    order = []
    j = 0
    for xlo, xhi, slope, rx, rv in segments:
        while j < len(points) and xlo is not None and points[j][0] <= xlo:
            order.append((*points[j], None))
            j += 1
        order.append((rx, rv, slope, slope, (xlo, xhi)))
    order.extend((*p, None) for p in points[j:])
    pos = [
        (a, 1) if ends is None else (ends[1], 0)
        for a, _v, _lo, _hi, ends in order
        if ends is None or ends[1] is not None
    ]

    def key(cand):
        a, v, lo, _hi, ends = cand
        if ends is None or lo == 0:
            return (0, v, 0)
        low_end = ends[0] if lo > 0 else ends[1]
        if low_end is None:
            return (-1,)
        return (0, v + (low_end - a) * lo, 1)

    adm = [key(c) for c in order]
    k = min(range(len(adm)), key=adm.__getitem__) if adm else 0
    return tuple(order), tuple(pos), tuple(adm[k::-1]), tuple(adm[k:]), k


def epi_member(floor, point):
    """(x, v) meets every non-horizontal cut: v >= the cut floor at x."""
    x, v = point
    return as_extreal(_exactify(v)) >= floor.value_at(_exactify(x))


# ---------------------------------------------------------------------------
# instances and probes
# ---------------------------------------------------------------------------

small = st.fractions(min_value=0, max_value=3, max_denominator=3)


@st.composite
def pl_functions(draw, den=1):
    """Convex PL functions with m in 1..12, frequent slope ties and zero
    slopes, walls or recessions (sometimes equal to the edge slope), and
    finite or +inf overrides on walls.  Denominators are drawn up to a
    small bound times ``den``."""
    m = draw(st.integers(min_value=1, max_value=12))
    xs = [draw(st.fractions(min_value=-6, max_value=2, max_denominator=4 * den))]
    for _ in range(m - 1):
        xs.append(xs[-1] + draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4 * den)))
    s = draw(st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=2, max_denominator=3 * den)))
    slopes = []
    for _ in range(m - 1):
        slopes.append(s)
        s += draw(st.one_of(st.just(F(0)), small))
    vals = [draw(st.fractions(min_value=-4, max_value=4, max_denominator=4 * den))]
    for i in range(m - 1):
        vals.append(vals[i] + slopes[i] * (xs[i + 1] - xs[i]))
    first = slopes[0] if slopes else draw(st.fractions(min_value=-2, max_value=1, max_denominator=2 * den))
    last = slopes[-1] if slopes else first
    left = draw(st.one_of(st.none(), st.builds(lambda d: first - d, small)))
    right = draw(st.one_of(st.none(), st.builds(lambda d: last + d, small)))
    overrides = st.one_of(
        st.none(), st.just(POS_INF), st.builds(lambda d: d + F(1, 5), small)
    )
    ovl = ovr = None
    # a wall takes an override unless the domain is a single point
    if left is None and (m >= 2 or right is not None):
        ovl = draw(overrides)
        ovl = ovl if ovl is None or ovl is POS_INF else vals[0] + ovl
    if right is None and (m >= 2 or left is not None):
        ovr = draw(overrides)
        ovr = ovr if ovr is None or ovr is POS_INF else vals[-1] + ovr
    return PLConvex1D(tuple(xs), tuple(vals), left, right, ovl, ovr)


def primal_points(f, extra):
    """Breakpoints, segment midpoints and interior thirds, points beyond
    each end, plus the drawn extras."""
    b = f.breakpoints
    pts = set(b) | set(extra)
    for u, w in zip(b, b[1:]):
        pts.update(((u + w) / 2, u + (w - u) / 3))
    pts.update((b[0] - 1, b[0] - F(1, 3), b[-1] + F(1, 3), b[-1] + 2))
    return sorted(pts)


def dual_points(f, extra):
    """Slopes, recessions, gaps between them and points beyond, plus extras."""
    sl = set(f.slopes()) | {r for r in (f.left_recession, f.right_recession) if r is not None}
    sl |= {F(0)} | set(extra)
    srt = sorted(sl)
    pts = set(srt)
    for u, w in zip(srt, srt[1:]):
        pts.add((u + w) / 2)
    pts.update((srt[0] - 1, srt[-1] + 1))
    return sorted(pts)


extras = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), max_size=3)


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


@given(pl_functions(), extras)
@settings(max_examples=100, deadline=None)
def test_support_sup_matches_scan(f, extra):
    st_ = subdiff_structure(f)
    # budgets on breakpoint and override values tie with admission keys
    budgets = set(f.values[:: max(1, len(f.values) // 3)]) | {f.values[-1]}
    budgets |= {v.finite() for v in (f.override_left, f.override_right)
                if v is not None and v.is_finite}
    xs = primal_points(f, extra)
    assert st_.sups(xs) == [threshold_sup_oracle(st_, x) for x in xs]
    for theta in budgets:
        want = [threshold_sup_oracle(st_, x, theta) for x in xs]
        assert st_.sups(xs, [theta] * len(xs)) == want, theta
    for x in xs:
        fx = f.value_at(x)
        assert cup_value(f, x) == threshold_sup_oracle(st_, x)
        want = threshold_sup_oracle(st_, x, None if fx.is_pos_inf else fx.finite())
        assert smile_value(f, x) == want
        for eps in (F(1, 7), F(2)):
            want = threshold_sup_oracle(
                st_, x, None if fx.is_pos_inf else fx.finite() + eps
            )
            assert smile_eps_value(f, x, eps) == want


def _check_fitzpatrick_table(f, xextra, yextra, rnd):
    st_ = subdiff_structure(f)
    xs = primal_points(f, xextra)
    ys = dual_points(f, yextra)
    shuffled = ys + ys[: len(ys) // 2]
    rnd.shuffle(shuffled)
    for duals in (ys[::-1], shuffled):
        table = fitzpatrick_table(st_, xs, duals)
        assert len(table) == len(xs)
        for x, row in zip(xs, table):
            assert len(row) == len(duals)
            for y, got in zip(duals, row):
                want = fitzpatrick_oracle(st_, x, y)
                assert got == want, (x, y)
                assert type(got.value) is type(want.value), (x, y)
                assert fitzpatrick_structured(st_, x, y) == want


@given(pl_functions(), extras, extras, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_fitzpatrick_table_matches_scan(f, xextra, yextra, rnd):
    _check_fitzpatrick_table(f, xextra, yextra, rnd)


wide_extras = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=2**64), max_size=3
)


@given(pl_functions(den=2**62), wide_extras, wide_extras,
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_fitzpatrick_table_matches_scan_wide_denominators(f, xextra, yextra, rnd):
    """The table's two common denominators (primal, dual) are lcms of up to
    a few dozen 64-bit denominators."""
    _check_fitzpatrick_table(f, xextra, yextra, rnd)


@given(pl_functions(), extras)
@settings(max_examples=100, deadline=None)
def test_subdiff_and_conjugate_match_scans(f, extra):
    for x in primal_points(f, extra):
        assert subdiff_exact(f, x) == subdiff_oracle(f, x)
    g = conjugate_exact(f)
    assert (g.breakpoints, g.values, g.left_recession, g.right_recession) == conjugate_oracle(f)


@given(pl_functions(), extras)
@settings(max_examples=150, deadline=None)
def test_value_at_matches_binary_search(f, extra):
    """At, between and beyond the breakpoints, integral probes also spelled
    as ints: the same value with the same payload type."""
    for x in primal_points(f, extra):
        for p in (x, int(x)) if x.denominator == 1 else (x,):
            assert repr(f.value_at(p)) == repr(value_at_oracle(f, p)), p


# ---------------------------------------------------------------------------
# chain envelopes against the quadratic DP
# ---------------------------------------------------------------------------


class AnchorLevels:
    """A function known only at the graph anchors."""

    def __init__(self, table):
        self.table = table

    def value_at(self, a):
        return as_extreal(self.table[a])


exact_scalar = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def exact_pair_graphs(draw):
    """Arbitrary (not monotone) 1D pair graphs on ints mixed with
    Fractions: few anchors, so anchors repeat, and slopes from a small
    pool, so slopes tie across anchors; levels may be negative."""
    anchors = draw(st.lists(exact_scalar, min_size=1, max_size=5))
    slopes = draw(st.lists(exact_scalar, min_size=1, max_size=4))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(anchors), st.sampled_from(slopes)),
        min_size=1, max_size=14,
    ))
    table = {a: draw(exact_scalar) for a in anchors}
    return AnchorLevels(table), OperatorGraph(1, tuple(pairs)), anchors


@given(exact_pair_graphs(), st.lists(exact_scalar, max_size=4))
@settings(max_examples=300, deadline=None)
def test_ncup_hull_dp_matches_quadratic_dp(case, extra):
    f, G, anchors = case
    for n in (2, 3, 4):
        env = n_cup_envelope(f, G, n)
        assert [lv for _a, _b, lv in env.pieces] == n_cup_levels_oracle(f, G, n)
        for x in anchors + extra:
            want = n_cup_oracle(f, G, n, x)
            assert env.value_at(x) == want, (n, x)
            assert n_cup(f, G, n, x) == want


wide_scalar = st.one_of(
    exact_scalar,
    st.integers(min_value=-2**70, max_value=2**70),
    st.builds(F, st.integers(min_value=-2**80, max_value=2**80),
              st.integers(min_value=1, max_value=2**64)),
    # integral Fractions: their values must stay Fractions
    st.builds(F, st.integers(min_value=-9, max_value=9)),
)


@st.composite
def wide_lines(draw):
    """Lines with slopes from a small pool (so slopes tie, across int and
    Fraction spellings of one value too), intercepts of either sign, and
    probes that repeat; every number an int or a Fraction with a
    denominator up to 2^64."""
    slopes = draw(st.lists(wide_scalar, min_size=1, max_size=4))
    slopes += [F(s) if isinstance(s, int) else s for s in slopes[:1]]
    lines = draw(st.lists(st.tuples(st.sampled_from(slopes), wide_scalar),
                          min_size=1, max_size=12))
    probes = draw(st.lists(st.one_of(wide_scalar, st.sampled_from(slopes)), max_size=8))
    return lines, probes + probes[:2]


@given(wide_lines())
@settings(max_examples=400, deadline=None)
def test_line_envelope_at_matches_fraction_oracle(case):
    lines, probes = case
    got = line_envelope_at(iter(lines), probes)
    want = line_envelope_at_oracle(lines, probes)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def test_line_envelope_at_keeps_int_and_fraction_apart():
    # the tied slope 1 keeps its first spelling (int), the intercept is the
    # largest (a Fraction 3 beats the int 2); probes of both kinds
    lines = [(1, 2), (F(1), F(3)), (F(-1, 3), 5), (0, -7)]
    probes = [9, F(9), F(-12, 5), F(1, 2**64)]
    got = line_envelope_at(lines, probes)
    assert got == line_envelope_at_oracle(lines, probes) == [12, 12, 29 / F(5), 5 - F(1, 3 * 2**64)]
    assert [type(v) for v in got] == [F, F, F, F]
    assert [type(v) for v in line_envelope_at([(2, -3), (0, 1)], [5, 0])] == [int, int]


def _bits(v):
    return v.tag, repr(v.value)


float_scalar = st.one_of(
    st.sampled_from((0.0, -0.0, 0.25, -1.5, 2.0)),
    st.floats(min_value=-8, max_value=8, allow_nan=False, width=64),
)


@st.composite
def float_pair_graphs(draw):
    """Grid functions with pairs on their finite samples, 1D or 2D."""
    dim = draw(st.sampled_from((1, 2)))
    coord = float_scalar if dim == 1 else st.tuples(float_scalar, float_scalar)
    pts = draw(st.lists(coord, min_size=1, max_size=5, unique_by=lambda p: (
        (p + 0.0) if dim == 1 else (p[0] + 0.0, p[1] + 0.0))))
    vals = draw(st.lists(float_scalar, min_size=len(pts), max_size=len(pts)))
    slopes = draw(st.lists(coord, min_size=1, max_size=4))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(pts), st.sampled_from(slopes)),
        min_size=1, max_size=12,
    ))
    probes = pts[:2] + draw(st.lists(coord, max_size=4))
    return GridFunction(dim, tuple(pts), tuple(vals)), OperatorGraph(dim, tuple(pairs)), probes


@given(float_pair_graphs())
@settings(max_examples=200, deadline=None)
def test_ncup_float_and_2d_graphs_match_bit_for_bit(case):
    f, G, probes = case
    for n in (2, 3, 4):
        env = n_cup_envelope(f, G, n)
        levels = n_cup_levels_oracle(f, G, n)
        assert [repr(lv) for _a, _b, lv in env.pieces] == [repr(lv) for lv in levels]
        for x in probes:
            assert _bits(env.value_at(x)) == _bits(n_cup_oracle(f, G, n, x)), (n, x)


def test_ncup_empty_graph_and_depth():
    empty = OperatorGraph(1, ())
    for n in (2, 3, 4):
        assert n_cup(AnchorLevels({}), empty, n, F(1)) == NEG_INF
    for n in (1, 5):
        with pytest.raises(ValueError, match="n must be one of"):
            n_cup_envelope(AnchorLevels({}), empty, n)
    off = OperatorGraph(1, ((F(0), F(1)),))
    with pytest.raises(ValueError, match="no finite value"):
        n_cup_envelope(PLConvex1D((F(1), F(2)), (F(0), F(0))), off, 2)


def test_ncup_float_levels_past_the_float_range_are_refused():
    # the level at anchor 0 is 2e308: finite, but past the float range,
    # where the float DP of the oracle overflows to inf
    f = GridFunction(1, (0.0, 1.0, 2.0), (1e308, 1e308, 0.0))
    G = OperatorGraph(1, ((0.0, 1e308), (1.0, 1e308), (2.0, -1e308)))
    for n in (2, 3, 4):
        assert n_cup_levels_oracle(f, G, n)[0] == float("inf")
        with pytest.raises(ValueError, match="^the max-affine function at 0.0 is above the float range$"):
            n_cup_envelope(f, G, n)


# ---------------------------------------------------------------------------
# epigraph membership against per-call validation
# ---------------------------------------------------------------------------


def _outcome(call):
    try:
        return call()
    except ValueError as e:
        return ("ValueError", str(e))


def _epi_points(f, G):
    env = upper_envelope(f, G)
    pts = []
    for x in primal_points(f, []):
        e = env.value_at(x)
        base = e.finite() if e.is_finite else F(0)
        pts += [(x, base + d) for d in (F(-1, 3), F(0), F(1, 3))]
    return pts


def _seeded_functions():
    for seed in range(5):
        gen = InstanceGenerator(seed)
        yield gen.pl_convex()
        yield gen.pl_convex_with_override()


def test_epi_cup_member_matches_per_call_validation():
    rnd = random.Random(4)
    for f in _seeded_functions():
        G = subdiff_graph(f)
        if not G.pairs:
            continue
        G2 = epi_normal_graph(f, G)
        floor = epi_cup_floor(f, G2)
        pts = _epi_points(f, G)
        for p in pts:
            assert epi_member(floor, p) == epi_cup_membership_oracle(f, G2, p)
        again = epi_cup_floor(f, G2)
        assert [epi_member(again, p) for p in pts[::5]] == [epi_member(floor, p) for p in pts[::5]]
        # one extra sample, often invalid: both routes raise the same error
        # or both accept it and agree on every point
        for _ in range(6):
            if rnd.random() < 0.5:
                # a scaled copy of a graph normal: valid, and it constrains
                a, b = rnd.choice(G.pairs)
                k = rnd.choice((F(1, 2), F(3)))
                t, normal = f.value_at(a).finite(), (b * k, -k)
            else:
                a = rnd.choice(f.breakpoints)
                fa = f.value_at(a)
                t = (fa.finite() if fa.is_finite else F(0)) + rnd.choice((0, 0, 0, 1))
                normal = (F(rnd.randint(-12, 12), rnd.choice((1, 2, 3))),
                          rnd.choice((F(-1), F(-1, 2), F(0), F(1, 2))))
            bad = OperatorGraph(2, G2.pairs + (((a, t), normal),))
            got = _outcome(lambda: epi_cup_floor(f, bad))
            for p in pts[::7]:
                want = _outcome(lambda: epi_cup_membership_oracle(f, bad, p))
                assert (got if isinstance(got, tuple) else epi_member(got, p)) == want


V = PLConvex1D((F(0),), (F(0),), F(-1), F(1))  # |x|
HAT = PLConvex1D((F(-1), F(0), F(1)), (F(1), F(0), F(1)))  # |x| on [-1, 1]


@pytest.mark.parametrize("f,sample,message", [
    (V, ((F(0), F(5)), (F(0), F(-1))), "anchored off the graph"),
    (V, ((F(0), F(0)), (F(1), F(1))), "cannot point upward"),
    (HAT, ((F(0), F(0)), (F(2), F(-1))), "fails support"),
    (V, ((F(0), F(0)), (F(-2), F(-1))), "left recession"),
    (V, ((F(0), F(0)), (F(2), F(-1))), "right recession"),
])
def test_epi_cup_member_rejects_bad_samples(f, sample, message):
    G2 = OperatorGraph(2, (sample,))
    for call in (
        lambda: epi_cup_floor(f, G2),
        lambda: epi_member(epi_cup_floor(f, G2), (F(0), F(0))),
        lambda: epi_cup_membership_oracle(f, G2, (F(0), F(0))),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@st.composite
def epi_samples(draw):
    """A PL function and epigraph samples: the normals of a drawn subset of
    its graph pairs (some subsets empty, so only the horizontal wall normals
    or nothing remain), plus scaled copies of some of them."""
    f = draw(pl_functions())
    G = subdiff_graph(f)
    pairs = draw(st.lists(st.sampled_from(G.pairs), max_size=6)) if G.pairs else []
    G2 = epi_normal_graph(f, OperatorGraph(1, tuple(pairs)))
    extra = []
    for (a, t), (b, alpha) in draw(st.lists(st.sampled_from(G2.pairs), max_size=2)) if G2.pairs else []:
        k = draw(st.sampled_from((F(1, 2), F(3))))
        extra.append(((a, t), (b * k, alpha * k)))
    return f, OperatorGraph(2, G2.pairs + tuple(extra))


@given(epi_samples(), extras)
@settings(max_examples=60, deadline=None)
def test_epi_cup_floor_matches_cut_loop(case, extra):
    f, G2 = case
    floor = epi_cup_floor(f, G2)
    xs = primal_points(f, extra)
    vals = floor.values_at(xs)
    assert vals == [floor.value_at(x) for x in xs]
    if all(alpha == 0 for _p, (_s, alpha) in G2.pairs):
        assert vals == [NEG_INF] * len(xs)
    for x, fl in zip(xs, vals):
        base = fl.finite() if fl.is_finite else F(0)
        for v in (base - 1, base - F(1, 1000), base, base + F(1, 3)):
            want = epi_cup_membership_oracle(f, G2, (x, v))
            assert epi_member(floor, (x, v)) == want == (as_extreal(v) >= fl), (x, v)


def test_epi_cup_floor_without_cuts():
    # only the two horizontal wall normals: nothing constrains the point
    G2 = epi_normal_graph(HAT, OperatorGraph(1, ()))
    assert len(G2.pairs) == 2
    assert epi_cup_floor(HAT, G2).pieces == ()
    for p in ((F(0), F(-100)), (F(5), F(0))):
        assert epi_member(epi_cup_floor(HAT, G2), p) and epi_cup_membership_oracle(HAT, G2, p)


@given(pl_functions(), st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), max_size=2), extras)
@settings(max_examples=60, deadline=None)
def test_structure_tilt_matches_rebuild(f, sextra, extra):
    """The structure rebuilt from f.tilt(s) is f's structure shifted by -s
    (the subdifferential of f - <., s> is that of f, less s), and its sups
    are the oracle's and the tilt's smile."""
    base = subdiff_structure(f)
    xs = primal_points(f, extra)
    for s in dual_points(f, sextra)[::2]:
        g = f.tilt(s)
        got = subdiff_structure(g)
        assert got.points == tuple(
            (a, v - s * a, None if lo is None else lo - s, None if hi is None else hi - s)
            for a, v, lo, hi in base.points
        )
        assert got.segments == tuple(
            (xlo, xhi, sl - s, rx, rv - s * rx) for xlo, xhi, sl, rx, rv in base.segments
        )
        assert got.sups(xs) == [threshold_sup_oracle(got, x) for x in xs]
        for x in xs:
            # the budget off f, against the tilt's own value
            fx, gx = f.value_at(x), g.value_at(x)
            assert fx.is_pos_inf == gx.is_pos_inf
            if fx.is_pos_inf:
                continue
            theta = fx.finite() - s * x
            assert theta == gx.finite()
            assert got.sups([x], [theta]) == [threshold_sup_oracle(got, x, theta)]
            assert got.sups([x], [theta]) == [smile_value(g, x)]


def _structure_fields(st_):
    return st_._order, st_._pos, st_._adm_left, st_._adm_right, st_._argmin


@given(pl_functions(), st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), max_size=2))
@settings(max_examples=200, deadline=None)
def test_structure_build_matches_fraction_build(f, sextra):
    """The walk's points and segments are the lists built apart, and its
    order and keys the ones a merge and a ``Fraction`` min give."""
    # tilts below the least and above the greatest slope make f strictly
    # monotone, so an overridden end holds the infimum
    sl = sorted(dual_points(f, sextra))
    for g in [f, *(f.tilt(s) for s in [sl[0] - 1, *sl[::2], sl[-1] + 1])]:
        got, lists = subdiff_structure(g), structure_lists_oracle(g)
        assert (got.points, got.segments) == lists
        assert _structure_fields(got) == structure_build_oracle(*lists)


@st.composite
def grid_functions_1d(draw):
    """1D grids of 1..9 samples in drawn list order, each value on a line
    (collinear runs), on a parabola, free, or +inf; at least one is
    finite."""
    xs = draw(st.lists(
        st.one_of(st.integers(-16, 16).map(lambda k: k / 4),
                  st.floats(-4, 4).map(lambda x: round(x, 3))),
        min_size=1, max_size=9, unique=True))
    a, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    free = st.integers(-6, 6).map(lambda k: k / 2)
    vals = [draw(st.one_of(st.just(a * x + c), st.just(x * x / 2), free, st.just(math.inf)))
            for x in xs]
    if min(vals) == math.inf:
        vals[0] = 0.0
    return GridFunction(1, tuple(xs), tuple(map(float, vals)))


@given(grid_functions_1d(), extras)
@settings(max_examples=200, deadline=None)
def test_grid_graph_matches_scan(g, extra):
    hull = cl_conv(g)
    duals = [*dual_probes(hull), *extra]
    assert _grid_graph_exact(g, hull, duals) == grid_graph_oracle(g, duals)


@given(pl_functions())
@settings(max_examples=100, deadline=None)
def test_primal_probes_are_the_sorted_probe_set(f):
    b = f.breakpoints
    want = set(b) | {(u + w) / 2 for u, w in zip(b, b[1:])} | {b[0] - 1, b[-1] + 1}
    want |= {b[0] - 3} if f.left_recession is not None else set()
    want |= {b[-1] + 3} if f.right_recession is not None else set()
    got = primal_probes(f)
    assert got == tuple(sorted(want))
    assert all(type(x) is F for x in got)


def _spell(q):
    return format_scalar(ExtReal(q))


@st.composite
def pl_files(draw):
    """The instance dict of a ``pl_functions`` draw, often with one entry
    redrawn: a breakpoint, a value, a recession or an override."""
    f = draw(pl_functions())
    d = dump_instance(f)
    what = draw(st.sampled_from(
        ["none", "breakpoints", "values", "left_recession", "right_recession",
         "override_left", "override_right", "drop"]))
    q = st.fractions(min_value=-8, max_value=8, max_denominator=6).map(_spell)
    if what in ("breakpoints", "values"):
        i = draw(st.integers(0, len(d[what]) - 1))
        d[what][i] = draw(q)
    elif what == "drop":
        d["values"].pop()
    elif what != "none":
        d[what] = draw(st.one_of(q, st.sampled_from(["stop", "inf", "-inf"])))
        if what.startswith("override") and d[what] == "stop":
            del d[what]
    return d


@given(pl_files())
@settings(max_examples=400, deadline=None)
def test_load_instance_matches_fraction_validation(d):
    def parsed(key):
        r = d.get(key)
        return None if r is None or r == "stop" else parse_scalar(r, exact=True)

    def want():
        return pl_validation_oracle(
            tuple(parse_scalar(b, exact=True).finite() for b in d["breakpoints"]),
            tuple(parse_scalar(v, exact=True).finite() for v in d["values"]),
            *(None if r is None else r.finite() for r in map(parsed, ("left_recession", "right_recession"))),
            parsed("override_left"),
            parsed("override_right"),
        )

    def got():
        f = load_instance(d)
        return (f.breakpoints, f.values, f.left_recession, f.right_recession,
                f.override_left, f.override_right, f.slopes())

    a, b = _outcome(got), _outcome(want)
    assert a == b
    if a[0] != "ValueError":
        # every number the constructor sets is a Fraction
        nums = [*a[0], *a[1], *a[6], a[2], a[3], *(ov.value for ov in a[4:6] if ov is not None)]
        assert all(type(q) is F for q in nums if q is not None)


@given(pl_functions())
@settings(max_examples=20, deadline=None)
def test_structure_and_conjugate_are_built_once_per_function(f):
    """Both facts are kept on the frozen f, so a second call returns the
    same object; an equal function built anew builds its own."""
    assert subdiff_structure(f) is subdiff_structure(f)
    assert conjugate_exact(f) is conjugate_exact(f)
    g = PLConvex1D(f.breakpoints, f.values, f.left_recession, f.right_recession,
                   f.override_left, f.override_right)
    assert subdiff_structure(g) is not subdiff_structure(f)
    assert subdiff_structure(g) == subdiff_structure(f)
    assert pl_equal(conjugate_exact(g), conjugate_exact(f))


# ---------------------------------------------------------------------------
# line-hull routes over 1D pair lists against their per-probe loops
# ---------------------------------------------------------------------------


def maximal_relative_oracle(G, candidates, tol=0):
    """Every candidate tested against every pair, as before the shortcut."""
    related = 0
    witness = None
    checked = 0
    for cx, cy in candidates:
        checked += 1
        if not all(
            dot(point_sub(cx, x, G.dim), point_sub(cy, y, G.dim), G.dim) >= -tol
            for x, y in G.pairs
        ):
            continue
        related += 1
        if G.structure is not None:
            member = structure_contains(G.structure, cx, cy)
        else:
            member = (cx, cy) in set(G.pairs)
        if not member and witness is None:
            witness = (cx, cy)
    return MaximalityVerdict(witness is None, witness, related, checked)


def upper_envelope_oracle(f, G):
    """Pieces of ``upper_envelope`` with ``subdiff_test`` run per pair."""
    pieces = []
    for a, b in G.pairs:
        fa = f.value_at(a)
        if not fa.is_finite:
            raise ValueError(f"anchor {a!r} has no finite value")
        if not subdiff_test_oracle(f, a, b):
            raise ValueError(f"pair ({a!r}, {b!r}) fails the subgradient test")
        pieces.append((a, b, fa.finite()))
    return tuple(pieces)


def range_interval_oracle(f):
    """The walk over every point and segment of the structure."""
    st_ = subdiff_structure(f)
    vals = []
    lo_unb = hi_unb = False
    for _a, _v, lo, hi in st_.points:
        if lo is None:
            lo_unb = True
        else:
            vals.append(lo)
        if hi is None:
            hi_unb = True
        else:
            vals.append(hi)
    for _xlo, _xhi, s, _rx, _rv in st_.segments:
        vals.append(s)
    if not vals and not lo_unb and not hi_unb:
        return None
    return Interval1D(None if lo_unb else min(vals), None if hi_unb else max(vals))


@st.composite
def exact_graphs(draw, min_size=0):
    """Exact 1D pair graphs (possibly empty, possibly one pair) on a few
    anchors and duals mixing ints and Fractions, so anchors repeat and duals
    tie; probes are the anchors plus extras, shuffled, with repeats."""
    anchors = draw(st.lists(exact_scalar, min_size=1, max_size=5))
    duals = draw(st.lists(exact_scalar, min_size=1, max_size=4))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(anchors), st.sampled_from(duals)),
        min_size=min_size, max_size=14,
    ))
    probes = draw(st.permutations(anchors + duals + draw(st.lists(exact_scalar, max_size=4))))
    return OperatorGraph(1, tuple(pairs)), list(probes)


@given(exact_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_pair_graph_table_matches_pair_loop(case, rnd):
    G, probes = case
    xs = probes[: len(probes) // 2 + 1]
    ys = probes + probes[:2]
    rnd.shuffle(ys)
    table = fitzpatrick_table(G, xs, ys)
    assert len(table) == len(xs)
    for x, row in zip(xs, table):
        assert [v for v in row] == [fitzpatrick(G, x, y) for y in ys], x


def test_pair_graph_table_edge_cases():
    assert fitzpatrick_table(OperatorGraph(1, ()), [F(0), 1], [2, F(-1, 2)]) == [
        [NEG_INF, NEG_INF], [NEG_INF, NEG_INF]
    ]
    one = OperatorGraph(1, ((F(1), F(2)),))
    xs = [F(0), F(1), 3]
    assert fitzpatrick_table(one, xs, xs) == [
        [fitzpatrick(one, x, y) for y in xs] for x in xs
    ]
    # tied duals on one anchor and repeated anchors
    G = OperatorGraph(1, ((0, 1), (0, F(1)), (0, -2), (F(1, 2), 1), (F(1, 2), 5)))
    probes = [F(1, 2), 0, 0, F(-3), 2]
    assert fitzpatrick_table(G, probes, probes) == [
        [fitzpatrick(G, x, y) for y in probes] for x in probes
    ]


@given(float_pair_graphs())
@settings(max_examples=100, deadline=None)
def test_float_and_2d_graph_table_is_the_pair_loop(case):
    _f, G, probes = case
    table = fitzpatrick_table(G, probes, probes[::-1])
    for x, row in zip(probes, table):
        assert [_bits(v) for v in row] == [
            _bits(fitzpatrick(G, x, y)) for y in probes[::-1]
        ]


def test_exact_graph_with_float_probes_is_the_pair_loop():
    G = OperatorGraph(1, ((F(1, 3), F(1)), (F(2), F(-1, 7))))
    xs, ys = [0.1, F(1)], [F(1, 2), -0.0, 2.5]
    table = fitzpatrick_table(G, xs, ys)
    assert [[_bits(v) for v in row] for row in table] == [
        [_bits(fitzpatrick(G, x, y)) for y in ys] for x in xs
    ]


def _candidates(G, extra, rnd):
    cands = list(G.pairs) + [(a, b) for a in extra for b in extra[::-1]]
    cands += [(a, b) for a, _ in G.pairs[:4] for b in extra[:3]]
    rnd.shuffle(cands)
    return cands


@given(exact_graphs(), st.lists(exact_scalar, min_size=1, max_size=5),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_maximal_relative_shortcut_matches_pair_loop(case, extra, rnd):
    G, probes = case
    cands = _candidates(G, extra + probes[:3], rnd)
    for tol in (0, 0.0, F(1, 4)):
        assert is_maximal_relative(G, cands, tol) == maximal_relative_oracle(G, cands, tol)
    # an iterator is read once; a float candidate sends all to the loop
    assert is_maximal_relative(G, iter(cands)) == maximal_relative_oracle(G, cands)
    mixed = cands + [(0.5, 0.25)]
    assert is_maximal_relative(G, mixed) == maximal_relative_oracle(G, mixed)


@given(pl_functions(), extras, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_maximal_relative_shortcut_with_structure(f, extra, rnd):
    G = subdiff_graph(f)
    pts = primal_points(f, extra)[::3] + dual_points(f, extra)[::3]
    cands = _candidates(G, pts[:6], rnd)
    for graph in (G, OperatorGraph(G.dim, G.pairs, label=G.label)):
        assert graph.structure is None or graph is G
        assert is_maximal_relative(graph, cands) == maximal_relative_oracle(graph, cands)


@st.composite
def exact_pieces(draw):
    anchors = draw(st.lists(exact_scalar, min_size=1, max_size=5))
    slopes = draw(st.lists(exact_scalar, min_size=1, max_size=3))
    pieces = draw(st.lists(
        st.tuples(st.sampled_from(anchors), st.sampled_from(slopes), exact_scalar),
        max_size=10,
    ))
    probes = draw(st.lists(st.one_of(st.sampled_from(anchors), exact_scalar), max_size=8))
    return MaxAffine(1, tuple(pieces)), probes + probes[:2]


@given(exact_pieces())
@settings(max_examples=300, deadline=None)
def test_values_at_matches_value_at(case):
    env, probes = case
    assert env.values_at(probes) == [env.value_at(x) for x in probes]
    assert env.values_at(iter(probes)) == [env.value_at(x) for x in probes]


def test_values_at_tied_slopes_and_empty_pieces():
    assert MaxAffine(1, ()).values_at([F(1), 0, 2]) == [NEG_INF] * 3
    assert MaxAffine(1, ()).values_at([]) == []
    # equal slopes: only the largest intercept lv - s a can win
    env = MaxAffine(1, ((0, 1, 0), (F(1), 1, F(3)), (2, 1, F(1, 2)), (1, -1, 0)))
    xs = [3, F(-2), 0, 3, F(1, 2)]
    assert env.values_at(xs) == [env.value_at(x) for x in xs]


@given(float_pair_graphs())
@settings(max_examples=100, deadline=None)
def test_values_at_float_and_2d_pieces_bit_for_bit(case):
    f, G, probes = case
    env = n_cup_envelope(f, G, 2)
    assert [_bits(v) for v in env.values_at(probes)] == [
        _bits(env.value_at(x)) for x in probes
    ]
    if G.dim == 1:
        # exact pieces with float probes take value_at as well
        ex = MaxAffine(1, ((F(1), F(1, 2), F(3)),))
        assert [_bits(v) for v in ex.values_at(probes)] == [
            _bits(ex.value_at(x)) for x in probes
        ]


@given(pl_functions(), extras, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_upper_envelope_validation_matches_per_pair_test(f, extra, rnd):
    """Graph pairs plus one pair just outside the subgradient interval at a
    breakpoint or a drawn point (or off the domain), inserted anywhere:
    same pieces, or the same error at the same pair."""
    G0 = subdiff_graph(f)
    assert upper_envelope(f, G0).pieces == upper_envelope_oracle(f, G0)
    pairs = list(G0.pairs)
    a = rnd.choice(f.breakpoints + tuple(extra))
    iv = subdiff_exact(f, a)
    ends = [e for e in (iv.lo, iv.hi) if e is not None] if iv else []
    b = rnd.choice(ends or [F(0)]) + rnd.choice((F(-1, 7), F(1, 7)))
    pairs.insert(rnd.randrange(len(pairs) + 1), (a, b))
    G = OperatorGraph(1, tuple(pairs))
    want = _outcome(lambda: upper_envelope_oracle(f, G))
    assert _outcome(lambda: upper_envelope(f, G).pieces) == want


@given(pl_functions(), extras)
@settings(max_examples=150, deadline=None)
def test_check_subgradient_predicate_matches_subdiff_test(f, extra):
    """The one-pass predicate the checks use, and ``subdiff_test`` (one call
    of it), against the per-call loop at breakpoints, drawn points and
    points off the domain, for slopes at and next to the interval ends;
    the pair-list form, reading f itself or handed its values, gives the
    same bools."""
    b = f.breakpoints
    pairs, wants = [], []
    for a in b + tuple(extra) + (b[0] - 5, b[-1] + 5):
        iv = subdiff_exact(f, a)
        ends = [e for e in (iv.lo, iv.hi) if e is not None] if iv else []
        for s in ends or [F(0)]:
            for d in (F(-1, 7), F(0), F(1, 7)):
                want = subdiff_test_oracle(f, a, s + d)
                assert subdiff_test(f, a, s + d) == want
                pairs.append((a, s + d))
                wants.append(want)
    assert subgradient_flags(f, pairs) == wants
    values = f.values_at([a for a, _s in pairs])
    assert subgradient_flags(f, pairs, values=values) == wants


def test_upper_envelope_validation_errors():
    with pytest.raises(ValueError, match=r"pair \(Fraction\(0, 1\), 2\) fails"):
        upper_envelope(V, OperatorGraph(1, ((F(0), 1), (F(0), 2))))
    with pytest.raises(ValueError, match="no finite value"):
        upper_envelope(HAT, OperatorGraph(1, ((F(0), 0), (F(5), 0))))
    with pytest.raises(MixedScalarError):
        upper_envelope(V, OperatorGraph(1, ((F(0), 0.5),)))
    with pytest.raises(TypeError, match="unsupported"):
        upper_envelope(MaxAffine(1, ((0, 0, 0),)), OperatorGraph(1, ((0, 0),)))
    assert upper_envelope(MaxAffine(1, ()), OperatorGraph(1, ())).pieces == ()


def test_subgradient_test_dispatch():
    g = GridFunction(1, (-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    pairs = [(0.0, 1.0), (0.0, 1.2), (0.0, 1.5), (1.0, 0.5), (1.0, 2.0), (9.0, 0.0)]
    assert subgradient_flags(g, pairs, 0.25) == [
        grid_subdiff_test(g, a, s, 0.25) for a, s in pairs]
    assert subgradient_flags(g, [(0.0, 1.2)], 0.25) == [True]
    assert subgradient_flags(g, [(0.0, 1.2)]) == [False]
    with pytest.raises(TypeError, match="subdiff_test takes a PLConvex1D"):
        subdiff_test(g, 0, 0)
    with pytest.raises(TypeError, match="unsupported"):
        subgradient_flags(MaxAffine(1, ()), [(0, 0)])
    # the pair-list form raises only when it has a pair to judge
    assert subgradient_flags(MaxAffine(1, ()), []) == []
    with pytest.raises(MixedScalarError):
        subgradient_flags(V, [(F(0), 0.5)])


def _spelled(draw, q):
    """q, or an int where q is integral and the draw says so."""
    return int(q) if q.denominator == 1 and draw(st.booleans()) else q


@st.composite
def star_cases(draw):
    """(f, G, probes) for the anchor route ``star_cup``, one of three kinds.
    Float: a 1D or 2D grid with pairs on its samples.  PL: anchors at
    primal points (some off the domain) and duals at dual points (some off
    the conjugate's domain), ints mixed with Fractions.  Levels: a function
    known only at its anchors, with int and Fraction levels that tie.  One
    graph in eight is emptied."""
    kind = draw(st.sampled_from(("float", "pl", "levels")))
    if kind == "float":
        f, G, probes = draw(float_pair_graphs())
    elif kind == "levels":
        f, G, probes = draw(exact_pair_graphs())
        probes = probes + draw(st.lists(exact_scalar, max_size=3))
    else:
        f = draw(pl_functions())
        pts, duals = primal_points(f, []), dual_points(f, [])
        pairs = draw(st.lists(
            st.tuples(st.sampled_from(pts), st.sampled_from(duals)), min_size=1, max_size=8))
        G = OperatorGraph(1, tuple((_spelled(draw, a), _spelled(draw, b)) for a, b in pairs))
        probes = draw(st.lists(st.sampled_from(pts + duals), min_size=1, max_size=5))
        probes = [_spelled(draw, x) for x in probes]
    if draw(st.integers(0, 7)) == 0:
        G = OperatorGraph(G.dim, ())
    return f, G, probes


@given(star_cases())
@settings(max_examples=300, deadline=None)
def test_anchor_and_dual_routes_match_max_loops(case):
    """``star_cup`` (one MaxAffine) against its max loop: the same value
    spelled the same way (payload type and repr), or the same ValueError
    text."""
    f, G, probes = case
    for x in probes:
        want = _outcome(lambda: _bits(star_cup_oracle(f, G, x)))
        assert _outcome(lambda: _bits(star_cup(f, G, x))) == want, x
        if not G.pairs:
            assert want == _bits(NEG_INF)


def _rows(rows):
    return [(repr(x), _bits(v)) for x, v in rows]


_NORMALS = {
    1: (0, -0.0, 1, -1, F(1, 2), -0.5),
    2: ((0.0, 0.0), (1.0, 0.0), (-1.0, -0.0), (0, 1), (F(-1, 2), -1.0), (1.0, 1.0)),
}


@given(star_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_pair_routes_match_their_loops(case, data):
    """``smile``, ``star_cup``, ``circ``, ``portable_hull`` and
    ``portable_envelope`` against the loops they ran before they shared
    ``MaxAffine`` and one anchor read: the same payloads by ``repr``, or
    the same ValueError text.  Some float grids gain a sample at +inf,
    which an anchor may sit on, and a function known only at its anchors
    is probed by ``smile`` there; ``portable_envelope`` runs on the pairs
    that pass the subgradient test, with normals drawn on the domain
    samples."""
    f, G, probes = case
    if isinstance(f, GridFunction) and data.draw(st.booleans()):
        vals = list(f.value_array)
        vals[data.draw(st.integers(0, len(vals) - 1))] = math.inf
        f = GridFunction(f.dim, f.points, tuple(vals))
    for x in probes:
        if not isinstance(f, AnchorLevels) or x in f.table:
            want = _outcome(lambda: _bits(smile_oracle(f, G, x)))
            assert _outcome(lambda: _bits(smile(f, G, x))) == want, x
        want = _outcome(lambda: _bits(star_cup_oracle(f, G, x)))
        assert _outcome(lambda: _bits(star_cup(f, G, x))) == want, x
    want = _outcome(lambda: _rows(circ_oracle(f, G, probes, probes)))
    assert _outcome(lambda: _rows(circ(f, G, probes, probes))) == want
    if isinstance(f, AnchorLevels):
        return
    pairs = [(a, b) for a, b in G.pairs if f.value_at(a).is_finite]
    pairs = [p for p, ok in zip(pairs, subgradient_flags(f, pairs)) if ok]
    if isinstance(f, PLConvex1D) and data.draw(st.booleans()):
        pairs = subdiff_graph(f).pairs
    Gv = OperatorGraph(G.dim, tuple(pairs))
    C = domain_samples_oracle(f, Gv)
    normals = data.draw(st.lists(st.tuples(
        st.sampled_from(C.points), st.sampled_from(_NORMALS[G.dim])), max_size=3)) if C.points else []
    N = OperatorGraph(G.dim, tuple(normals))
    xs = list(probes) + list(C.points)

    def hull(route):
        member, kept = route(C, N)
        return kept, [member(x) for x in xs]

    assert _outcome(lambda: hull(portable_hull)) == _outcome(lambda: hull(portable_hull_oracle))
    want = _outcome(lambda: _rows(portable_envelope_oracle(f, Gv, N, xs)))
    assert _outcome(lambda: _rows(portable_envelope(f, Gv, N, xs))) == want


@st.composite
def rising_ray_functions(draw):
    """``pl_functions`` with both walls traded for rays that do not fall
    outward (left recession <= 0 <= right recession): every
    subdifferential is a bounded interval, and no anchor on a ray sits
    below its end breakpoint."""
    f = draw(pl_functions())
    s = f.slopes()
    left = min([F(0), *s[:1]]) - draw(small)
    right = max([F(0), *s[-1:]]) + draw(small)
    return PLConvex1D(f.breakpoints, f.values, left, right)


@given(rising_ray_functions(), extras)
@settings(max_examples=150, deadline=None)
def test_full_graph_pair_routes_equal_the_exact_envelopes(f, extra):
    """On the full graph (each breakpoint with both ends of its
    subdifferential) the pair routes ``upper_envelope`` and ``smile``
    equal the exact cup and smile of ``envelope_values`` at every probe."""
    pairs = [(a, e) for a, _v, lo, hi in subdiff_structure(f).points for e in (lo, hi)]
    G = OperatorGraph(1, tuple(pairs))
    xs = primal_points(f, extra)
    assert upper_envelope(f, G).values_at(xs) == envelope_values(f, "cup", xs)
    assert [smile(f, G, x) for x in xs] == envelope_values(f, "smile", xs)


@given(pl_functions())
@settings(max_examples=150, deadline=None)
def test_range_interval_matches_walk(f):
    assert subdiff_structure(f).slope_range() == range_interval_oracle(f)


@pytest.mark.parametrize("f", [
    V,                                                          # two rays
    HAT,                                                        # walls
    PLConvex1D((F(0),), (F(0),)),                               # a point, walls
    PLConvex1D((F(0),), (F(1),), None, F(2)),                   # wall and ray
    PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, POS_INF, None),  # open left
    PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(3), POS_INF),  # both raised
    PLConvex1D((F(0), F(1), F(2)), (F(1), F(0), F(1)), None, F(1), F(5), None),
])
def test_range_interval_matches_walk_on_fixed_shapes(f):
    assert subdiff_structure(f).slope_range() == range_interval_oracle(f)


# ---------------------------------------------------------------------------
# structure membership, the lower hull and the pair search against the
# routines they replaced
# ---------------------------------------------------------------------------


def _membership_duals(f, iv, extra):
    """f's dual points, plus the ends of iv, points inside it and points
    just outside each finite end."""
    ys = set(dual_points(f, extra))
    if iv is not None:
        for e in (iv.lo, iv.hi):
            if e is not None:
                ys.update((e, e - F(1, 7), e + F(1, 7)))
        if iv.lo is not None and iv.hi is not None:
            ys.add((iv.lo + iv.hi) / 2)
    return sorted(ys)


def _check_structure_contains(f, extra):
    st_ = subdiff_structure(f)
    for s in [None, *dual_points(f, [])[::2]]:
        g, sg = (f, st_) if s is None else (f.tilt(s), subdiff_structure(f.tilt(s)))
        for x in primal_points(f, extra):
            iv = subdiff_exact(g, x)
            for y in _membership_duals(g, iv, extra):
                want = iv is not None and iv.contains(y)
                assert structure_contains(sg, x, y) == want, (s, x, y)


@given(pl_functions(), extras)
@settings(max_examples=60, deadline=None)
def test_structure_contains_matches_subdiff_exact(f, extra):
    _check_structure_contains(f, extra)


@pytest.mark.parametrize("f", [
    V,                                                          # two rays
    HAT,                                                        # walls
    PLConvex1D((F(0),), (F(0),)),                               # a point, walls
    PLConvex1D((F(2),), (F(1),), F(-1), None),                  # a ray into a wall
    PLConvex1D((F(0),), (F(1),), None, F(2)),                   # wall and ray
    PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, POS_INF, None),  # open left
    PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(3), POS_INF),  # both raised
    PLConvex1D((F(0), F(1), F(2)), (F(1), F(0), F(1)), None, F(1), F(5), None),
])
def test_structure_contains_on_fixed_shapes(f):
    _check_structure_contains(f, [F(-3, 2), F(1, 2)])


def hull_1d_oracle(items):
    """The point-chord lower hull ``_hull_1d_exact`` ran on its own."""
    pts = sorted((F(x), F(v)) for x, v in items)
    merged = []
    for x, v in pts:
        if merged and merged[-1][0] == x:
            if v < merged[-1][1]:
                merged[-1] = (x, v)
        else:
            merged.append((x, v))
    hull = []
    for p in merged:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it is on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


# floats where the shared binary exponent of an axis is widest or a
# decision closest: the subnormal ends, 1e+-300, signed zeros
_HARD_FLOATS = (5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                1e300, -1e300, 0.0, -0.0, 1.0, -1.0)


@st.composite
def hull_points(draw):
    """Points as ints, Fractions or floats, with repeated x and collinear
    runs: each run puts a few points on one drawn line.  The floats reach
    the whole range (subnormals, 1e+-300, signed zeros) and take 1-ulp
    neighbours; one kind mixes ints, floats and Fractions over power-of-two
    and over other denominators in one list, and one samples a convex chain
    whose slopes repeat, so collinear runs lie on the hull itself."""
    kind = draw(st.sampled_from(("int", "fraction", "float", "wide", "mixed", "chain")))
    if kind == "chain":
        xs = sorted(draw(st.lists(st.integers(-20, 20), min_size=1, max_size=12, unique=True)))
        slopes = sorted(draw(st.lists(
            st.sampled_from((-2, -1, 0, F(1, 2), 1, 3)), min_size=len(xs), max_size=len(xs))))
        unit = draw(st.sampled_from((1, 0.25, F(1, 3))))
        v, items = draw(st.integers(-5, 5)), []
        for x0, x1, g in zip(xs, xs[1:] + xs[-1:], slopes):
            items.append((x0 * unit, v * unit))
            v += g * (x1 - x0)
        return draw(st.permutations(items))
    dyadic = st.builds(F, st.integers(-384, 384), st.sampled_from((1, 2, 64, 2**70)))
    fraction = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    if kind == "int":
        num = st.integers(-6, 6)
    elif kind == "fraction":
        num = st.one_of(fraction, dyadic)
    elif kind == "float":
        num = st.floats(min_value=-6, max_value=6, allow_nan=False).map(lambda v: round(v, 2))
    elif kind == "wide":
        num = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(_HARD_FLOATS))
    else:
        num = st.one_of(st.integers(-6, 6), st.floats(-6, 6), st.sampled_from(_HARD_FLOATS),
                        fraction, dyadic)
    items = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(num), draw(num)
        for x in draw(st.lists(num, min_size=1, max_size=5)):
            items.append((x, a * x + b))
    items += draw(st.lists(st.tuples(num, num), max_size=6))
    if items and draw(st.booleans()):
        items.append((items[0][0], draw(num)))  # a repeated x
    for x, v in draw(st.lists(st.sampled_from(items), max_size=3)):
        if isinstance(x, float) and isinstance(v, float):
            # 1-ulp neighbours of a drawn point
            toward = st.sampled_from((-math.inf, math.inf))
            items.append((math.nextafter(x, draw(toward)), math.nextafter(v, draw(toward))))
    # a float line may round past the float range
    items = [(x, v) for x, v in items if math.isfinite(x) and math.isfinite(v)]
    assume(items)
    return draw(st.permutations(items))


@given(hull_points())
@settings(max_examples=300, deadline=None)
@example([(5e-324, 1), (1, 0.5), (2.5, 1e300), (1e300, 7), (3, -5e-324)])
@example([(0.0, 1.0), (-0.0, 0.5), (1, -0.0), (2.0, 0)])
@example([(1.0, 0.0), (math.nextafter(1.0, 2.0), -5e-324), (math.nextafter(1.0, 0.0), 0.0)])
@example([(F(1, 3), F(1, 4)), (0.5, 1), (2, F(5, 2**70))])
# |x| joined to 2x - 1: runs of three and four collinear points on the hull
@example([(x, abs(x)) for x in range(-3, 1)] + [(x, 2 * x - 1) for x in range(1, 5)])
def test_hull_1d_exact_matches_point_chord_loop(items):
    bps, vals, slopes = _hull_1d_exact(items)
    assert list(zip(bps, vals)) == hull_1d_oracle(items)
    assert all(type(c) is F for c in (*bps, *vals, *slopes))
    assert list(slopes) == [
        (v1 - v0) / (b1 - b0) for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:])
    ]


_NUDGE = F(1, 2**40)


def brondsted_search_oracle(f, x, xstar, eps):
    """The pair search with its own copy of the two bounds, as before it
    judged candidates through ``BrondstedResult``."""
    x, xstar, eps = _exactify(x), _exactify(xstar), _exactify(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not f.value_at(x).is_finite:
        raise ValueError("x is outside the domain")
    if not eps_subdiff_test(f, x, xstar, eps):
        raise ValueError("xstar is not an eps-subgradient at x")
    st = subdiff_structure(f)
    scale = 1 + abs(xstar)
    finite_cands, extended_cands = [], []
    for a, _v, lo, hi in st.points:
        in_lower_ray = lo is None and (hi is None or xstar < hi)
        in_upper_ray = hi is None and lo is not None and xstar > lo
        if in_lower_ray or in_upper_ray:
            extended_cands.append((a, xstar))
            fin_end = lo if lo is not None else hi
            if fin_end is not None:
                finite_cands.append((a, fin_end))
        else:
            z = xstar
            if lo is not None and z < lo:
                z = lo
            if hi is not None and z > hi:
                z = hi
            finite_cands.append((a, z))
    excluded = set()
    if f.override_left is not None:
        excluded.add(f.breakpoints[0])
    if f.override_right is not None:
        excluded.add(f.breakpoints[-1])
    for xlo, xhi, slope, _rx, _rv in st.segments:
        z = x
        if xlo is not None and z < xlo:
            z = xlo
        if xhi is not None and z > xhi:
            z = xhi
        if z in excluded:
            h = _NUDGE
            if xlo is not None and xhi is not None:
                half = (xhi - xlo) / 2
                if half < h:
                    h = half
            z = z + h if z == xlo else z - h
        finite_cands.append((z, slope))

    def gaps(c):
        a, b = c
        return abs(x - a), abs(xstar - b)

    def ok(c):
        a, b = c
        pg, dg = gaps(c)
        if (pg * scale) ** 2 > eps or dg**2 > eps * scale**2:
            return False
        t = -((x - a) * b + eps)
        return t <= 0 or t * t <= eps

    def key(c):
        pg, dg = gaps(c)
        return max((pg * scale) ** 2, (dg / scale) ** 2)

    chosen = None
    found = False
    for pool in (finite_cands, extended_cands):
        passing = [c for c in pool if ok(c)]
        if passing:
            chosen = min(passing, key=key)
            found = True
            break
    if chosen is None:
        all_cands = finite_cands + extended_cands
        if not all_cands:
            raise ValueError("the subdifferential graph is empty")
        chosen = min(all_cands, key=key)
    a, b = chosen
    return BrondstedResult(
        point=a, dual=b, found=found, primal_gap=abs(x - a),
        dual_gap=abs(xstar - b), scale=scale, product=(x - a) * b,
    )


@given(pl_functions(), extras)
@settings(max_examples=40, deadline=None)
def test_brondsted_search_matches_candidate_loop(f, extra):
    """Whole results, spelled the same (repr), or the same ValueError, at
    the three eps of the check lab's ladder."""
    for x in primal_points(f, extra):
        iv = subdiff_exact(f, x)
        duals = [F(0), F(-3)] if iv is None else [
            e for e in (iv.lo, iv.hi) if e is not None] + [F(1, 2), F(-7, 3), F(40)]
        for xstar in duals:
            for eps in (F(1), F(1, 4), F(1, 100)):
                want = _outcome(
                    lambda: repr(brondsted_search_oracle(f, x, xstar, eps)))
                got = _outcome(lambda: repr(brondsted_search(f, x, xstar, eps)))
                assert got == want


def _ladder_outcomes(results):
    """repr of each result a ladder yields, then its ValueError, if any."""
    out = []
    try:
        for r in results:
            out.append(repr(r))
    except ValueError as e:
        out.append(("ValueError", str(e)))
    return out


def _override_probes(f):
    """Probes at and next to each overridden end, where a primal clamp
    lands on the end and steps ``_NUDGE`` into the segment."""
    b = f.breakpoints
    pts = []
    if f.override_left is not None:
        pts += [b[0], b[0] + _NUDGE / 2, b[0] + _NUDGE]
    if f.override_right is not None:
        pts += [b[-1], b[-1] - _NUDGE / 2, b[-1] - _NUDGE]
    return pts


@given(pl_functions(), extras)
@settings(max_examples=80, deadline=None)
@example(PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(1, 2), F(3)), [])
@example(PLConvex1D((F(0), F(1, 2**41)), (F(0), F(0)), None, None, F(1)), [])
def test_brondsted_ladder_matches_search_per_eps(f, extra):
    """The ladder, which builds a probe's candidates once for every eps of
    the check lab's ladder, against one ``brondsted_search`` per eps,
    compared by repr: the same results, then the same ValueError at the
    same eps.  Probes include the override ends, where the ``_NUDGE`` step
    applies, and duals include the ends of the eps-subdifferential at the
    largest eps, which the smaller ones may refuse."""
    for x in primal_points(f, extra) + _override_probes(f):
        iv = subdiff_exact(f, x)
        duals = [F(0), F(-3)] if iv is None else [
            e for e in (iv.lo, iv.hi) if e is not None] + [F(1, 2), F(-7, 3)]
        wide = eps_subdiff_interval(f, x, _EPS_LADDER[0])
        if wide is not None:
            duals += [e for e in (wide.lo, wide.hi) if e is not None]
        for xstar in duals:
            want = []
            for eps in _EPS_LADDER:
                want.append(_outcome(lambda: repr(brondsted_search(f, x, xstar, eps))))
                if want[-1][0] == "ValueError":
                    break
            got = brondsted_ladder(f, x, xstar, _EPS_LADDER)
            assert _ladder_outcomes(got) == want


def test_brondsted_ladder_nudges_off_a_raised_end():
    # the clamp of x onto the segment lands on the raised left end and
    # steps _NUDGE into the segment: the nearest pair at every eps
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(1, 1000))
    results = list(brondsted_ladder(f, F(0), F(1), _EPS_LADDER))
    assert [r.pair for r in results] == [(_NUDGE, F(1))] * 3
    assert all(r.found for r in results)
    assert [repr(r) for r in results] == [
        repr(brondsted_search(f, F(0), F(1), eps)) for eps in _EPS_LADDER]


@given(pl_functions(), extras, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_upper_envelope_first_error_matches_per_pair_loop(f, extra, rnd):
    """A pair failing the subgradient test and a pair anchored off the
    domain, each inserted anywhere in the graph: the same first
    ValueError as the per-pair loop, whichever comes first."""
    pairs = list(subdiff_graph(f).pairs)
    a = rnd.choice(f.breakpoints + tuple(extra))
    iv = subdiff_exact(f, a)
    ends = [e for e in (iv.lo, iv.hi) if e is not None] if iv else []
    bad_pair = (a, rnd.choice(ends or [F(0)]) + rnd.choice((F(-1, 7), F(1, 7))))
    off = rnd.choice((f.breakpoints[0] - 1, f.breakpoints[-1] + 1))
    if f.value_at(off).is_finite:
        off = f.breakpoints[0] - 1 if f.left_recession is None else None
    for p in (bad_pair, None if off is None else (off, F(0))):
        if p is not None:
            pairs.insert(rnd.randrange(len(pairs) + 1), p)
    G = OperatorGraph(1, tuple(pairs))
    want = _outcome(lambda: upper_envelope_oracle(f, G))
    assert _outcome(lambda: upper_envelope(f, G).pieces) == want


# ---------------------------------------------------------------------------
# batched evaluation and the private constructor
# ---------------------------------------------------------------------------


def _shuffled_probes(f, extra, rnd):
    """``primal_points`` (breakpoints, points between and beyond them,
    extras), integral ones also spelled as ints, a few repeated, in a
    shuffled order."""
    pts = primal_points(f, extra)
    pts += [int(x) for x in pts if x.denominator == 1]
    pts += rnd.choices(pts, k=3)
    rnd.shuffle(pts)
    return pts


# rationals that share a float, or whose floats are infinities or zero:
# q + k 2^-80, denominators up to 2^64, and magnitudes past 2^1024 and
# below 2^-1074
crowded = st.one_of(
    st.integers(-20, 20),
    st.fractions(-22, 22, max_denominator=3),
    st.builds(lambda q, k: q + F(k, 2**80), st.fractions(-3, 3, max_denominator=3),
              st.integers(-2, 2)),
    st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
    st.builds(lambda s, e, k: s * 2**e + k, st.sampled_from([1, -1]),
              st.integers(1020, 1100), st.integers(-1, 1)),
    st.builds(lambda s, e, k: s * F(2 + k, 2**e), st.sampled_from([1, -1]),
              st.integers(1070, 1100), st.integers(-1, 1)),
)


@given(st.lists(crowded, max_size=40), st.lists(crowded, max_size=12), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_ranks_is_bisect(a, keys, rnd):
    """The shadow kernel ranks as bisect on the rationals: on a list with
    duplicates, keys drawn from it and near it, and the tuple keys the
    structure sups rank, with (-1,) entries shadowed by -inf."""
    if a:
        a = sorted(a + rnd.choices(a, k=len(a) // 2))
        keys = keys + rnd.choices(a, k=4)
    sa = list(map(shadow, a))
    assert sa == sorted(sa)  # shadows are monotone
    for right, find in ((False, bisect.bisect_left), (True, bisect.bisect_right)):
        assert ranks(a, sa, keys, map(shadow, keys), right) == [find(a, k) for k in keys]
    pos = sorted({(b, t) for b in a for t in rnd.choices((0, 1), k=rnd.randint(1, 2))})
    tkeys = [(k, 1) for k in keys]
    want = [bisect.bisect_left(pos, k) for k in tkeys]
    assert ranks(pos, [shadow(b) for b, _t in pos], tkeys, map(shadow, keys)) == want
    adm = [(-1,)] * rnd.randint(0, 2) + sorted((0, v, rnd.randint(0, 1)) for v in a)
    sadm = [-math.inf if len(k) == 1 else shadow(k[1]) for k in adm]
    bounds = [(0, k, 1) for k in keys]
    want = [bisect.bisect_left(adm, k) for k in bounds]
    assert ranks(adm, sadm, bounds, map(shadow, keys)) == want


def test_shadow_rounds_and_saturates():
    assert shadow(F(1, 3)) == 1 / 3 and shadow(7) == 7.0
    assert shadow(F(1, 3) + F(1, 2**80)) == shadow(F(1, 3))
    assert shadow(2**1024) == math.inf and shadow(-(2**1024) + F(1, 3)) == -math.inf
    assert shadow(F(1, 2**1080)) == 0.0 and shadow(F(-1, 2**1080)) == 0.0


@st.composite
def crowded_functions(draw):
    """Convex PL functions whose breakpoints, values and slopes crowd into
    one float, or lie past the float range or below its least subnormal:
    each is a base plus steps of 2^-80, 2^-1100, 1/(2^64 - 1) or 2^1030."""
    big, tiny = F(2**1100), F(1, 2**1100)
    bases = st.sampled_from([F(0), F(1, 3), big, -big, tiny, -tiny, F(2**53 + 1)])
    steps = st.sampled_from([F(1, 2**80), tiny, F(1, 2**64 - 1), F(1), F(2**1030)])
    m = draw(st.integers(1, 7))
    xs = [draw(bases)]
    for _ in range(m - 1):
        xs.append(xs[-1] + draw(steps))
    s = draw(st.sampled_from([F(0), F(-1), F(1, 3), -big, tiny]))
    slopes = []
    for _ in range(m - 1):
        slopes.append(s)
        s += draw(st.sampled_from([F(0), F(1, 2**80), F(1), big]))
    vals = [draw(bases)]
    for i in range(m - 1):
        vals.append(vals[i] + slopes[i] * (xs[i + 1] - xs[i]))
    first = slopes[0] if slopes else s
    last = slopes[-1] if slopes else first
    rec = st.sampled_from([F(0), F(1, 2**80), F(1)])
    left = draw(st.one_of(st.none(), rec.map(lambda d: first - d)))
    right = draw(st.one_of(st.none(), rec.map(lambda d: last + d)))
    ovl = ovr = None
    overrides = st.one_of(st.none(), st.just(POS_INF), st.just(F(1, 2**80)), st.just(big))
    if left is None and (m >= 2 or right is not None):
        ovl = draw(overrides)
        ovl = ovl if ovl is None or ovl is POS_INF else vals[0] + ovl
    if right is None and (m >= 2 or left is not None):
        ovr = draw(overrides)
        ovr = ovr if ovr is None or ovr is POS_INF else vals[-1] + ovr
    return PLConvex1D(tuple(xs), tuple(vals), left, right, ovl, ovr)


def _crowded_probes(f, rnd):
    """``primal_points`` plus each breakpoint moved by 2^-81 and 2^-1101
    either way, shuffled."""
    near = [b + d for b in f.breakpoints for d in (F(1, 2**81), F(1, 2**1101))]
    near += [b - d for b in f.breakpoints for d in (F(1, 2**81), F(1, 2**1101))]
    pts = primal_points(f, near)
    rnd.shuffle(pts)
    return pts


@given(crowded_functions(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_batched_sweeps_on_crowded_functions(f, rnd):
    """values_at, subdiffs_exact and the structure sups, ranked on shadows
    that tie or saturate, against their one-probe oracles: bisection on the
    rationals and the scan of the structure, with budgets that tie the
    admission keys."""
    xs = _crowded_probes(f, rnd)
    vals = f.values_at(xs)
    assert repr(vals) == repr([value_at_oracle(f, x) for x in xs])
    assert repr(subdiffs_exact(f, xs)) == repr([subdiff_oracle(f, x) for x in xs])
    st_ = subdiff_structure(f)
    assert st_.sups(xs) == [threshold_sup_oracle(st_, x) for x in xs]
    pool = [None, *f.values, *(v.finite() for v in vals if v.is_finite)]
    pool += [v + d for v in f.values for d in (F(1, 2**81), -F(1, 2**81), F(2**1100))]
    thetas = [rnd.choice(pool) for _ in xs]
    want = [threshold_sup_oracle(st_, x, t) for x, t in zip(xs, thetas)]
    assert st_.sups(xs, thetas) == want


# distinct primes, so numbers drawn over distinct entries have pairwise
# coprime denominators: the small primes, and the largest primes below
# 2^31, 2^61, 2^63 and 2^64
COPRIME_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    2**31 - 1, 2**61 - 1, 2**63 - 25,
    2**64 - 59, 2**64 - 83, 2**64 - 95, 2**64 - 179, 2**64 - 189,
)


@st.composite
def coprime_cases(draw):
    """(f, probes, budgets, eps).  f is the lower hull of up to 8 drawn points
    whose coordinates, like its recessions and finite overrides, are ints
    or fractions over distinct primes of COPRIME_PRIMES; values take either
    sign, and a wall may carry a finite or +inf override.  The probes are
    the breakpoints (every support's anchor, where x - a is zero), their
    ints spelled as ints, numbers that share a breakpoint's numerator,
    midpoints, drawn ints and drawn fractions over the primes left; the
    budgets are None, f's values and overrides, f at the probes and drawn
    numbers; eps is a drawn number in [1, 4]."""
    primes = iter(draw(st.permutations(COPRIME_PRIMES)))

    def q(lo, hi):
        p = next(primes, None) or draw(st.sampled_from(COPRIME_PRIMES))
        if draw(st.integers(0, 3)) == 0:
            return draw(st.integers(lo, hi))
        return F(draw(st.integers(lo * p, hi * p)), p)

    b, v, slopes = map(list, _hull_1d_exact(
        [(q(-8, 8), q(-8, 8)) for _ in range(draw(st.integers(1, 8)))]))
    first = slopes[0] if slopes else q(-4, 4)
    last = slopes[-1] if slopes else first
    left = None if draw(st.booleans()) else first - q(0, 3)
    right = None if draw(st.booleans()) else last + q(0, 3)
    ovl = ovr = None
    if left is None and (len(b) >= 2 or right is not None):
        ovl = draw(st.sampled_from([None, POS_INF, v[0] + q(1, 4)]))
    if right is None and (len(b) >= 2 or left is not None):
        ovr = draw(st.sampled_from([None, POS_INF, v[-1] + q(1, 4)]))
    f = PLConvex1D(tuple(b), tuple(v), left, right, ovl, ovr)
    xs = [*f.breakpoints, *(int(x) for x in f.breakpoints if x.denominator == 1)]
    # beside each breakpoint, a probe with its numerator over another
    # denominator
    xs += [F(x.numerator, d) for x in b for d in {x.denominator - 1, x.denominator + 1} if d]
    xs += [(u + w) / 2 for u, w in zip(b, b[1:])]
    xs += draw(st.lists(st.integers(-10, 10), max_size=4))
    xs += [q(-10, 10) for _ in range(draw(st.integers(0, 4)))]
    xs = draw(st.permutations(xs))
    ends = (f.override_left, f.override_right)
    pool = [None, *f.values, *(o.finite() for o in ends if o is not None and o.is_finite)]
    pool += [fx.finite() for fx in f.values_at(xs) if fx.is_finite]
    pool += [q(-10, 10) for _ in range(2)]
    thetas = [draw(st.sampled_from(pool)) for _ in xs]
    return f, xs, thetas, q(1, 4)


def _exact_payloads(vals):
    """Every entry an ExtReal that is an infinity or holds a Fraction."""
    return all(
        type(e) is ExtReal and (not e.is_finite or type(e.value) is F) for e in vals
    )


@given(coprime_cases())
@settings(max_examples=150, deadline=None)
def test_integer_kernels_match_fraction_oracles_on_coprime_denominators(case):
    """values_at, the structure sups with and without budgets, the smile
    envelopes built on them, conjugate_exact and primal_probes each build
    a value as one integer fraction; against the Fraction-operator oracles,
    by repr, so payload types count."""
    f, xs, thetas, eps = case
    fxs = f.values_at(xs)
    assert repr(fxs) == repr([value_at_oracle(f, x) for x in xs])
    st_ = subdiff_structure(f)
    cup = st_.sups(xs)
    assert repr(cup) == repr([threshold_sup_oracle(st_, x) for x in xs])
    capped = st_.sups(xs, thetas)
    assert repr(capped) == repr([threshold_sup_oracle(st_, x, t) for x, t in zip(xs, thetas)])
    assert _exact_payloads(fxs + cup + capped)
    for kind, slack in (("smile", 0), ("smileeps", eps), ("smileeps", F(1, 2**64 - 59))):
        got = envelope_values(f, kind, xs, slack or None)
        want = [threshold_sup_oracle(st_, x, None if fx.is_pos_inf else fx.finite() + slack)
                for x, fx in zip(xs, fxs)]
        assert repr(got) == repr(want) and _exact_payloads(got)
    g = conjugate_exact(f)
    assert repr((g.breakpoints, g.values, g.left_recession, g.right_recession)) == repr(
        conjugate_oracle(f)
    )
    assert all(type(y) is F for y in g.breakpoints + g.values)
    b = f.breakpoints
    first = 2 if f.left_recession is not None else 1  # the index of b[0]
    mids = primal_probes(f)[first + 1:first + 2 * len(b) - 2:2]
    assert repr(mids) == repr(tuple((u + w) / 2 for u, w in zip(b, b[1:])))


@given(pl_functions(), extras, st.sampled_from((F(1, 100), F(1, 3), F(1), F(7))))
@settings(max_examples=100, deadline=None)
def test_smileeps_equals_smile_in_1d(f, extra, eps):
    """On the line the eps budget never changes the constrained envelope.
    At a point of the domain whose value is not raised, both are f(x).  At
    a raised wall end the adjacent candidate's values are near cl f(x),
    below the override, so both are the cup value.  Where f(x) = +inf both
    drop the budget.  A budget of f(x) - eps would lose the anchor x."""
    xs = primal_points(f, extra)
    assert envelope_values(f, "smileeps", xs, eps) == envelope_values(f, "smile", xs)


@given(pl_functions(), extras, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_values_at_matches_value_at_per_probe(f, extra, rnd):
    xs = _shuffled_probes(f, extra, rnd)
    want = [f.value_at(x) for x in xs]
    assert repr(f.values_at(xs)) == repr(want)
    assert repr(f.values_at(iter(xs))) == repr(want)
    assert repr(want) == repr([value_at_oracle(f, x) for x in xs])
    assert f.values_at([]) == []


def test_values_at_refuses_float_probes():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)))
    with pytest.raises(MixedScalarError):
        f.values_at([F(1, 2), 0.5])


@given(pl_functions(), extras, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_subdiffs_exact_matches_subdiff_exact(f, extra, rnd):
    xs = _shuffled_probes(f, extra, rnd)
    want = [subdiff_exact(f, x) for x in xs]
    assert repr(subdiffs_exact(f, xs)) == repr(want)
    assert repr(want) == repr([subdiff_oracle(f, x) for x in xs])


@given(pl_functions(), extras, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_sups_match_sup(f, extra, rnd):
    """Shuffled probes in one sweep against one sup per probe: no budget,
    then per-probe budgets mixed with None entries: values of f at the
    probes (the smile budgets), breakpoint values and finite overrides
    (ties with the admission keys) and far values."""
    st_ = subdiff_structure(f)
    xs = _shuffled_probes(f, extra, rnd)
    assert repr(st_.sups(xs)) == repr([st_.sups([x])[0] for x in xs])
    pool = [None, F(-50), F(50), *f.values]
    pool += [v.finite() for v in (f.override_left, f.override_right) if v is not None and v.is_finite]
    pool += [v.finite() for v in f.values_at(xs) if v.is_finite]
    thetas = [rnd.choice(pool) for _ in xs]
    want = [st_.sups([x], [t])[0] for x, t in zip(xs, thetas)]
    assert repr(st_.sups(xs, thetas)) == repr(want)
    assert want == [threshold_sup_oracle(st_, x, t) for x, t in zip(xs, thetas)]
    assert st_.sups([]) == [] and st_.sups([], []) == []


@given(pl_functions())
@settings(max_examples=100, deadline=None)
def test_check_context_tables_match_one_probe_values(f):
    """Each probe table of the check lab holds, at every probe, what the
    one-probe function gives there, payload types included; sharp is cup
    masked to +inf outside the closed normal hull."""
    ctx = CheckContext(f)
    xs = ctx.probes
    assert repr(ctx.f_at) == repr(tuple(f.value_at(x) for x in xs))
    assert repr(ctx.cup_at) == repr(tuple(cup_value(f, x) for x in xs))
    assert repr(ctx.sharp_at) == repr(tuple(sharp_value(f, x) for x in xs))
    assert repr(ctx.smile_at) == repr(tuple(smile_value(f, x) for x in xs))
    assert len(ctx.smile_eps_at) == len(_EPS_LADDER)
    for e, table in zip(_EPS_LADDER, ctx.smile_eps_at):
        assert repr(table) == repr(tuple(smile_eps_value(f, x, e) for x in xs))
    hull = portable_hull_interval(effective_domain(f))
    assert ctx.sharp_at == tuple(
        c if hull.contains(x) else POS_INF for x, c in zip(xs, ctx.cup_at)
    )
    dom = [x for x, *_ in ctx.rows(dom_only=True)]
    assert tuple(dom) == ctx.dom_probes


def _rebuilt(g):
    """g through the public, validating constructor."""
    return PLConvex1D(
        g.breakpoints,
        g.values,
        g.left_recession,
        g.right_recession,
        g.override_left,
        g.override_right,
        label=g.label,
    )


@given(
    pl_functions(),
    pl_functions(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    exact_pieces(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_derived_functions_rebuild_through_public_constructor(f, g, s, pieces, rnd):
    """Every function built by ``PLConvex1D._make`` has the fields (repr,
    so payload types too) and the slopes that the public constructor
    gives the same data; the sum also has f + g's values."""
    derived = [
        f.closure(),
        f.tilt(s),
        conjugate_exact(f),
        cup_exact(f),
        sharp_exact(f),
        _subdiff_restriction(f),
        star_cup_exact(f),
        circ_exact(f),
        pl_canonical(f),
        cl_conv(GridFunction(
            1,
            tuple(float(b) for b in f.breakpoints),
            tuple(float(v) + rnd.choice((0.0, 0.5, -0.25)) for v in f.values),
        )),
    ]
    env, _probes = pieces
    if env.pieces:
        derived.append(maxaffine_to_pl(env))
    with contextlib.suppress(ImproperError):
        derived.append(inf_conv(f, g))
    try:
        total = pl_add(f, g)
    except ImproperError:
        total = None
    if total is not None:
        derived.append(total)
        for x in primal_points(f, g.breakpoints):
            assert total.value_at(x) == ext_add(f.value_at(x), g.value_at(x))
    for h in derived:
        assert repr(_rebuilt(h)) == repr(h)
        assert repr(_rebuilt(h).slopes()) == repr(h.slopes())


@pytest.mark.parametrize(
    "f, g",
    [
        # a left wall raised to 2, the line x past it: the right end is
        # collinear with the recession
        (
            PLConvex1D((0, 1), (0, 1), None, 1, ExtReal(2)),
            PLConvex1D((0, F(5, 2)), (0, F(5, 2)), None, 1, ExtReal(2)),
        ),
        # the mirror image, a wall at 0 raised to 3
        (
            PLConvex1D((-1, 0), (1, 0), -1, None, None, ExtReal(3)),
            PLConvex1D((-3, 0), (3, 0), -1, None, None, ExtReal(3)),
        ),
        # three collinear breakpoints, the wall closed off at +inf
        (
            PLConvex1D((0, 1, 3), (0, 1, 3), None, 1, POS_INF),
            PLConvex1D((0, 7), (0, 7), None, 1, POS_INF),
        ),
    ],
)
def test_canonical_form_drops_a_collinear_end_next_to_a_marked_wall(f, g):
    """Dropping the end collinear with the recession leaves the marked wall
    as the one breakpoint of a half-line domain, which the public
    constructor accepts, so both spellings share one valid form."""
    cf = pl_canonical(f)
    assert repr(_rebuilt(cf)) == repr(cf)
    assert repr(_rebuilt(cf).slopes()) == repr(cf.slopes())
    assert len(cf.breakpoints) == 1
    assert repr(pl_canonical(g)) == repr(cf) and pl_equal(f, g)
    xs = primal_points(f, g.breakpoints)
    assert cf.values_at(xs) == f.values_at(xs)


# the line x on [0, inf) raised to 2 at 0, and its mirror image
_HALF_LINE = (F(0),), (F(0),), None, F(1), ExtReal(F(2)), None
_HALF_LINE_MIRROR = (F(0),), (F(0),), F(-1), None, None, ExtReal(F(2))


@pytest.mark.parametrize(
    "fields, spelled, side",
    [
        (_HALF_LINE, PLConvex1D((0, 1), (0, 1), None, 1, ExtReal(2)), 1),
        (_HALF_LINE_MIRROR, PLConvex1D((-1, 0), (1, 0), -1, None, None, ExtReal(2)), -1),
    ],
)
def test_marked_wall_on_a_half_line_has_one_breakpoint(fields, spelled, side):
    """A wall override with a recession on the other side: the public
    constructor, ``_make`` and the two-breakpoint spelling give one function,
    point for point, subgradient for subgradient, with one conjugate and
    the same exact envelopes."""
    public, made = PLConvex1D(*fields), PLConvex1D._make(*fields)
    assert repr(public) == repr(made)
    for f in (public, made):
        assert pl_equal(f, spelled) and pl_equal(spelled, f)
        assert repr(pl_canonical(spelled)) == repr(pl_canonical(f))
        xs = primal_points(f, (side * F(1, 2), side * 3))
        assert f.values_at(xs) == spelled.values_at(xs)
        assert [subdiff_exact(f, x) for x in xs] == [subdiff_exact(spelled, x) for x in xs]
        assert repr(conjugate_exact(f)) == repr(conjugate_exact(spelled))
        for envelope in (cup_exact, sharp_exact, star_cup_exact, circ_exact):
            assert pl_equal(envelope(f), envelope(spelled))
        # raised to 2 at the wall, the line beyond it, +inf behind it
        assert f.value_at(0) == ExtReal(2)
        assert f.value_at(side * 3) == ExtReal(3)
        assert f.value_at(-side) == POS_INF
        assert subdiff_exact(f, 0) is None
        assert subdiff_exact(f, side * 3) == Interval1D(side, side)
        # the conjugate is 0 up to the slope side and +inf past it
        star = conjugate_exact(f)
        assert star.value_at(side) == ExtReal(0)
        assert star.value_at(-7 * side) == ExtReal(0)
        assert star.value_at(2 * side) == POS_INF


@given(pl_functions())
@settings(max_examples=100, deadline=None)
def test_restrictions_match_sum_with_indicator(f):
    """The two restrictions, written as O(1) rebuilds, against
    ``pl_restrict``, which adds the interval's indicator with ``pl_add``:
    the same functions, and the same conjugate field for field."""
    hull = portable_hull_interval(effective_domain(f))
    assert pl_equal(sharp_exact(f), pl_restrict(cup_exact(f), hull))
    via_sum = pl_restrict(f, subdiff_domain(f))
    assert pl_equal(_subdiff_restriction(f), via_sum)
    assert repr(star_cup_exact(f)) == repr(conjugate_exact(via_sum))


# one shared slope, off zero: the result is affine, re-anchored at 0
@example(PLConvex1D((1,), (2,), 1, 1), PLConvex1D((0, 1), (0, 1), None, 1))
# no shared slope: a right recession of 1 against a left one of 2
@example(PLConvex1D((0,), (0,), None, 1), PLConvex1D((0,), (0,), 2, None))
@given(pl_functions(), pl_functions())
@settings(max_examples=60, deadline=None)
def test_inf_conv_matches_dual_route(f, g):
    """The merged slopes against (f* + g*)*: every field and the slopes by
    repr, or the same ImproperError text when no slope is shared; the
    result is its own canonical form."""
    want = inf_conv_dual_oracle(f, g)
    if isinstance(want, str):
        with pytest.raises(ImproperError) as exc:
            inf_conv(f, g)
        assert str(exc.value) == want
        return
    h = inf_conv(f, g)
    assert repr(h) == repr(want)
    assert repr(h.slopes()) == repr(want.slopes())
    assert pl_canonical(h) is h


_OUTSIDE = F(1, 1000)


@given(pl_functions(), extras, st.sampled_from((F(0), F(1, 7), F(1), F(7, 3))))
@settings(max_examples=50, deadline=None)
def test_eps_subdiff_interval_matches_gap_test(f, extra, eps):
    """The interval against the conjugate-gap test at the dual probes, at
    each finite end and 1/1000 outside it; an empty result admits no
    probe.  At eps = 0 it is the exact subdifferential."""
    for x in primal_points(f, extra):
        iv = eps_subdiff_interval(f, x, eps)
        if eps == 0:
            assert iv == subdiff_exact(f, x)
        probes = dual_points(f, extra)
        if iv is not None:
            for end, out in ((iv.lo, -_OUTSIDE), (iv.hi, _OUTSIDE)):
                if end is not None:
                    probes += [end, end + out]
        for y in probes:
            member = iv is not None and iv.contains(y)
            assert member == eps_subdiff_test(f, x, y, eps), (x, y)


@st.composite
def int_spelled_pieces(draw):
    """Pieces on ints, some spelled as Fractions, and probes at the
    crossing of every two lines (an int where it is integral), at the
    anchors and at one more int."""
    ints = st.integers(min_value=-6, max_value=6)
    spelled = st.one_of(ints, ints, ints.map(F))
    pieces = draw(st.lists(st.tuples(spelled, spelled, spelled), min_size=1, max_size=6))
    lines = [(s, lv - s * a) for a, s, lv in pieces]
    probes = [a for a, _s, _lv in pieces] + [draw(ints)]
    for (s1, c1), (s2, c2) in itertools.combinations(lines, 2):
        if s1 != s2:
            x = F(c2 - c1) / F(s1 - s2)
            probes.append(int(x) if x.denominator == 1 else x)
    return MaxAffine(1, tuple(pieces)), probes


@given(int_spelled_pieces())
@settings(max_examples=300, deadline=None)
def test_max_affine_value_at_keeps_the_payload_of_values_at(case):
    env, probes = case
    assert repr([env.value_at(x) for x in probes]) == repr(env.values_at(probes))


def test_max_affine_tie_payload():
    """At a crossing the steeper line gives the payload, probe by probe too;
    ``first_max_at`` keeps the first maximal piece's."""
    env = MaxAffine(1, ((0, 1, 0), (0, F(2), F(-2))))
    assert repr(env.value_at(2)) == repr(env.values_at([2])[0]) == "ExtReal(Fraction(2, 1))"
    assert repr(env.value_at(3)) == "ExtReal(Fraction(4, 1))"
    assert repr(env.first_max_at(2)) == "ExtReal(2)"  # the first maximal piece
    assert repr(MaxAffine(1, ((0, 1, 0),)).value_at(2)) == "ExtReal(2)"


# ---------------------------------------------------------------------------
# one-bisection kernels against the scans they replaced
# ---------------------------------------------------------------------------


@given(pl_functions(), extras, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_subgradient_bisection_matches_breakpoint_loop(f, extra, rnd):
    """At breakpoints, between them and off the domain (walls, rays, both
    override kinds), for x* exactly at a slope or a recession bound, next
    to one and between them: the loop, the subdiff_exact containment and
    the structure agree with the one-comparison predicate."""
    st_ = subdiff_structure(f)
    duals = dual_points(f, extra)
    for x in primal_points(f, extra):
        for y in rnd.sample(duals, min(len(duals), 8)) + list(f.slopes()[:2]):
            want = subgradient_loop_oracle(f, x, y)
            assert subdiff_test(f, x, y) == want == subdiff_test_oracle(f, x, y), (x, y)
            assert structure_contains(st_, x, y) == want, (x, y)


@st.composite
def epi_samples_with_faults(draw):
    """Epigraph samples, sometimes with one faulty sample inserted anywhere:
    anchored off the graph, pointing upward, or a valid normal tilted so it
    fails a breakpoint or a recession direction (a horizontal wall normal
    turned outward too)."""
    f, G2 = draw(epi_samples())
    pairs = list(G2.pairs)
    if pairs and draw(st.booleans()):
        (a, t), (b, alpha) = draw(st.sampled_from(pairs))
        bad = draw(st.sampled_from((
            ((a, t + 1), (b, alpha)),
            ((a, t), (b, F(1, 2))),
            ((a, t), (b + F(1, 7), alpha)),
            ((a, t), (b - F(1, 7), alpha)),
            ((a, t), (-b, alpha)),
        )))
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    return f, OperatorGraph(2, tuple(pairs))


@given(epi_samples_with_faults())
@settings(max_examples=80, deadline=None)
def test_epi_cup_floor_bisection_matches_cut_loop(case):
    """The same floor, or the same first failing sample with the same
    message."""
    f, G2 = case
    got = _outcome(lambda: epi_cup_floor(f, G2).pieces)
    assert got == _outcome(lambda: epi_cup_floor_loop_oracle(f, G2).pieces)


@given(pl_functions(), extras)
@settings(max_examples=50, deadline=None)
def test_subdiff_graph_bisection_matches_segment_scan(f, extra):
    """Probes on breakpoints, inside segments, on rays and beyond walls,
    as Fractions, ints and floats: the same pairs with the same types."""
    b = f.breakpoints
    probes = primal_points(f, extra) + [b[0] - 7, b[-1] + 7, int(b[0]) - 1, float(b[-1]) + 0.5]
    assert repr(subdiff_graph(f, probes).pairs) == repr(subdiff_graph_scan_oracle(f, probes))


@given(st.one_of(exact_pair_graphs().map(lambda c: c[:2]),
                 float_pair_graphs().map(lambda c: c[:2])))
@settings(max_examples=100, deadline=None)
def test_ncup_fixed_point_matches_full_dp(case):
    """Exact graphs on ints mixed with Fractions and float graphs with
    +-0.0 levels, 1D and 2D: the same pieces with the same payload types
    and signs of zero as the DP that runs all n - 1 steps."""
    f, G = case
    for n in (2, 3, 4):
        assert repr(n_cup_envelope(f, G, n).pieces) == repr(n_cup_full_dp_oracle(f, G, n)), n


def test_ncup_fixed_point_sees_type_and_sign_of_zero():
    """A step that keeps every level's value but not its payload is no
    fixed point: an int level that the hull returns as a Fraction, and a
    -0.0 level that comes back as 0.0."""
    exact = (AnchorLevels({F(1): 2}), OperatorGraph(1, ((F(1), 1),)))
    zero = (GridFunction(1, (0.0,), (-0.0,)), OperatorGraph(1, ((0.0, 0.0),)))
    for f, G in (exact, zero):
        (lv0,) = [lv for _a, _b, lv in n_cup_full_dp_oracle(f, G, 1)]
        for n in (2, 3, 4):
            (lv,) = [lv for _a, _b, lv in n_cup_envelope(f, G, n).pieces]
            assert lv == lv0 and repr(lv) != repr(lv0)
            assert repr(n_cup_envelope(f, G, n).pieces) == repr(n_cup_full_dp_oracle(f, G, n))


@given(pl_functions())
@settings(max_examples=40, deadline=None)
def test_ncup_on_subdifferential_graphs_matches_full_dp(f):
    G = subdiff_graph(f, primal_points(f, [])[::3])
    for n in (3, 4):
        assert repr(n_cup_envelope(f, G, n).pieces) == repr(n_cup_full_dp_oracle(f, G, n))


@given(pl_functions(), extras, st.sampled_from((F(1, 3), F(1), F(5))))
@settings(max_examples=40, deadline=None)
def test_net_points_bisection_matches_scans(f, extra, r):
    for x in primal_points(f, extra):
        assert repr(_net_points(f, x, r)) == repr(net_points_scan_oracle(f, x, r))


def operators_equal_oracle(f, g):
    """The probe route ``_graph_shape`` replaced: the subgradient intervals
    of f and g agree at f's primal probes and at g's."""
    xs = sorted(set(primal_probes(f)) | set(primal_probes(g)))
    return all(subdiff_exact(f, x) == subdiff_exact(g, x) for x in xs)


def _with_collinear_breakpoint(f, at):
    """f spelled with one more breakpoint, on the segment or ray ``at``
    picks (inside a segment, or past an end with a recession), carrying
    f's value there."""
    b = f.breakpoints
    sites = [(u + w) / 2 for u, w in zip(b, b[1:])]
    sites += [b[0] - 1] if f.left_recession is not None else []
    sites += [b[-1] + 1] if f.right_recession is not None else []
    if not sites:
        return f
    x = sites[at % len(sites)]
    xs = tuple(sorted((*b, x)))
    vals = tuple(v.finite() for v in f.closure().values_at(xs))
    return PLConvex1D(xs, vals, f.left_recession, f.right_recession,
                      f.override_left, f.override_right)


def _plus_constant(f, c):
    def up(v):
        return v if v is None or not v.is_finite else ExtReal(v.finite() + c)

    return PLConvex1D(f.breakpoints, tuple(v + c for v in f.values), f.left_recession,
                      f.right_recession, up(f.override_left), up(f.override_right))


@st.composite
def shape_pairs(draw):
    """(f, g, same): g is f, f respelled (a collinear breakpoint, a constant
    added), a tilt of f, or one of f's envelopes; ``same`` is True where the
    subdifferentials agree by construction, None where the oracle decides."""
    f = draw(pl_functions())
    kind = draw(st.sampled_from(("self", "collinear", "constant", "tilt", "cup", "sharp", "circ")))
    if kind == "self":
        return f, f, True
    if kind == "collinear":
        return f, _with_collinear_breakpoint(f, draw(st.integers(0, 12))), True
    if kind == "constant":
        return f, _plus_constant(f, draw(st.fractions(-3, 3, max_denominator=4))), True
    if kind == "tilt":
        return f, f.tilt(draw(st.fractions(-2, 2, max_denominator=3))), None
    return f, {"cup": cup_exact, "sharp": sharp_exact, "circ": circ_exact}[kind](f), None


@given(shape_pairs())
@settings(max_examples=300, deadline=None)
def test_graph_shape_decides_operator_equality(case):
    f, g, same = case
    want = operators_equal_oracle(f, g)
    assert (_graph_shape(f) == _graph_shape(g)) == want
    assert same is None or want is same
