"""Checkable statements, seeded instances, and worked galleries.

The registry binds short ids to executable checks.  Each check evaluates
both sides of its statement on one instance over a finite probe family and
reports a verdict with the worst margin seen.  An instance outside a
statement's hypotheses reports ``not-applicable`` rather than fail, so a
failing row always marks a genuine violation on the data.

Checks on exact instances run in rational arithmetic with zero tolerance.
The grid-backed checks here also happen to be exact: a finite grid carries
finitely many candidate support lines, so the comparisons stay in
``Fraction`` even when the sample values arrived as floats.

Writing a check: declare ``fn(tid, desc, ctx) -> TheoremCheck`` with
``@_check(tid, kinds, *gates)``, which registers ``tid: (fn, kinds)`` in
``REGISTRY`` and refuses an id twice.  ``ctx`` is the instance's
:class:`CheckContext`: ``ctx.inst`` plus lazily built, read-only facts
(probes, structure, domains, closure, conjugate, envelopes, graphs, the 1D
grid hull), shared by every check run on that instance.  Checks read f
and its subdifferential as tables, one batched sweep each: ``f_at``,
``cup_at``, ``sharp_at``, ``smile_at``, ``smile_eps_at`` and ``subdiff_at``
over the probes, zipped by ``ctx.rows``; ``circ_range_at`` over
``circ_probes``; the maxsdsp ``net``; and ``shape``, the subdifferential
as one object for ``_graph_shape`` comparisons.  A check body never
returns ``not-applicable``; the dispatcher behind ``run_check`` and
``run_suite`` does, with the gate's reason as the witness, when the
instance is not one of ``kinds`` or when one of the check's ``gates``
holds (``_LSC``, ``_GRAPH``, ``_GRID_1D``, or a check's own ``_Gate``).
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .extreal import (
    ExtReal,
    POS_INF,
    as_extreal,
    ext_add,
    ext_inf,
    ext_sub,
    format_scalar,
)
from .funcrep import (
    GRID_TOL,
    GridFunction,
    Interval1D,
    PLConvex1D,
    effective_domain,
    is_convex_on_grid,
    line_envelope_at,
    lsc_defect,
    pl_canonical,
    pl_equal,
)
from .transforms import cl_conv, conjugate_exact, indicator, support_function
from .operators import (
    OperatorGraph,
    fitzpatrick_table,
    grid_subdiff_matrix,
    grid_subdiff_test,
    is_maximal_relative,
    normal_cone,
    structure_contains,
    subdiffs_exact,
    subdiff_graph,
    subdiff_structure,
    subdiff_test,
    subgradient_flags,
)
from .envelopes import (
    _n_cup_chain,
    brondsted_ladder,
    circ_exact,
    cup_exact,
    envelope_values,
    epi_cup_floor,
    epi_normal_graph,
    portable_hull_interval,
    sharp_exact,
    star_cup_exact,
    subdiff_domain,
    upper_envelope,
)

F = Fraction


# ---------------------------------------------------------------------------
# probe policies
# ---------------------------------------------------------------------------


def primal_probes(f: PLConvex1D) -> tuple:
    """Breakpoints, segment midpoints, and a step beyond each domain end,
    ascending: each midpoint lies between its two breakpoints, and is one
    Fraction of the cross products."""
    b = f.breakpoints
    lo, hi = b[0], b[-1]
    pts = [lo - 3] if f.left_recession is not None else []
    pts.append(lo - 1)
    for x, y in zip(b, b[1:]):
        xd, yd = x.denominator, y.denominator
        pts += (x, Fraction(x.numerator * yd + y.numerator * xd, 2 * xd * yd))
    pts += (hi, hi + 1)
    if f.right_recession is not None:
        pts.append(hi + 3)
    return tuple(pts)


def dual_probes(f: PLConvex1D) -> tuple:
    """Slopes, gaps between consecutive slopes, zero, and outer slopes."""
    sl = [g for g in f.gaps if g is not None]
    cand = set(sl)
    cand.add(F(0))
    distinct = sorted(set(sl))
    for a, b in zip(distinct, distinct[1:]):
        cand.add((a + b) / 2)
    spread = max((abs(s) for s in cand), default=F(0)) + 1
    cand.add(spread)
    cand.add(-spread)
    return tuple(sorted(cand))


def _interval_intersect(A: Interval1D | None, B: Interval1D | None):
    if A is None or B is None:
        return None
    lo, lo_open = A.lo, A.lo_open
    if B.lo is not None and (lo is None or B.lo > lo or (B.lo == lo and B.lo_open)):
        lo, lo_open = B.lo, B.lo_open
    hi, hi_open = A.hi, A.hi_open
    if B.hi is not None and (hi is None or B.hi < hi or (B.hi == hi and B.hi_open)):
        hi, hi_open = B.hi, B.hi_open
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
    return Interval1D(lo, hi, lo_open, hi_open)


def _closed_hull(iv: Interval1D | None) -> Interval1D | None:
    """Topological closure: open flags dropped, finite ends kept."""
    if iv is None:
        return None
    return Interval1D(iv.lo, iv.hi)


def _some_slope(iv: Interval1D) -> Fraction:
    if iv.lo is not None and iv.hi is not None:
        return (iv.lo + iv.hi) / 2
    if iv.lo is not None:
        return iv.lo
    if iv.hi is not None:
        return iv.hi
    return F(0)


def _grid_items_exact(f: GridFunction):
    # float samples promote to the rationals they already are
    return [(F(p), F(v)) for p, v in f.finite_items()]


def _grid_graph_exact(f: GridFunction, hull: PLConvex1D, duals) -> OperatorGraph:
    """Grid subdifferential pairs decided in exact arithmetic, samples in
    list order.  An affine minorant through (a, f(a)) lies under every
    finite sample exactly when it lies under their closed convex hull, so
    (a, s) is a pair iff the hull meets f at a and has s as a subgradient
    there."""
    items = _grid_items_exact(f)
    st = subdiff_structure(hull)
    hx = hull.values_at([a for a, _fa in items])
    pairs = [(a, s) for (a, fa), h in zip(items, hx) if h == fa
             for s in duals if structure_contains(st, a, s)]
    return OperatorGraph(1, tuple(pairs), label=f.label)


def _graph_shape(f: PLConvex1D) -> tuple:
    """f's subdifferential as data: the (anchor, lo, hi, ends) of each
    candidate of the structure of f's canonical form, values dropped.  In
    1D the subdifferential at x is [f'-(x), f'+(x)], so two functions have
    the same subdifferential iff their shapes are equal: O(m)."""
    return tuple(c[:1] + c[2:] for c in subdiff_structure(pl_canonical(f))._order)


# ---------------------------------------------------------------------------
# the per-instance check context
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CheckContext:
    """One instance and the facts its checks share, each built on first use.

    The function fields read ``inst`` as a PLConvex1D, the ``grid_*``
    fields as a 1D GridFunction; a check reads only the fields its
    ``kinds`` and gates make meaningful.  Every field is an immutable value.
    """

    inst: object

    # probe families; dom_probes keeps the primal probes inside dom, in order
    probes = cached_property(lambda c: primal_probes(c.inst))
    dom_probes = cached_property(lambda c: tuple(x for x in c.probes if c.dom.contains(x)))
    duals = cached_property(lambda c: dual_probes(c.inst))
    # the subdifferential, its graphs and the domains
    shape = cached_property(lambda c: _graph_shape(c.inst))
    has_graph = cached_property(lambda c: bool(subdiff_structure(c.inst)._order))
    slope_range = cached_property(lambda c: subdiff_structure(c.inst).slope_range())
    graph = cached_property(lambda c: subdiff_graph(c.inst))
    probe_graph = cached_property(lambda c: subdiff_graph(c.inst, probes=c.probes))
    dom = cached_property(lambda c: effective_domain(c.inst))
    subdiff_domain = cached_property(lambda c: subdiff_domain(c.inst))
    hull_interval = cached_property(lambda c: portable_hull_interval(c.dom))
    # closure, conjugate and envelopes
    closure = cached_property(lambda c: c.inst.closure())
    lsc_defect = cached_property(lambda c: lsc_defect(c.inst))
    cup = cached_property(lambda c: cup_exact(c.inst))
    sharp = cached_property(lambda c: sharp_exact(c.inst))
    circ = cached_property(lambda c: circ_exact(c.inst))
    star_cup = cached_property(lambda c: star_cup_exact(c.inst))
    envelope = cached_property(lambda c: upper_envelope(c.inst, c.graph))
    # probe tables, in the order of probes: f, the exact envelopes from one
    # structure sweep each (smile_eps_at one table per eps of _EPS_LADDER),
    # and the subgradient intervals of f
    f_at = cached_property(lambda c: tuple(c.inst.values_at(c.probes)))
    cup_at = cached_property(lambda c: c._envelope_at("cup"))
    sharp_at = cached_property(lambda c: c._envelope_at("sharp"))
    smile_at = cached_property(lambda c: c._envelope_at("smile"))
    smile_eps_at = cached_property(
        lambda c: tuple(c._envelope_at("smileeps", e) for e in _EPS_LADDER))
    subdiff_at = cached_property(lambda c: tuple(subdiffs_exact(c.inst, c.probes)))
    # circ's table: the probes joined with circ's breakpoints, and there
    # circ's subdifferential cut to f's slope range
    circ_probes = cached_property(
        lambda c: tuple(sorted(set(c.probes) | set(c.circ.breakpoints))))
    circ_range_at = cached_property(lambda c: tuple(
        _interval_intersect(iv, c.slope_range)
        for iv in subdiffs_exact(c.circ, c.circ_probes)))
    # the maxsdsp net: x, f(x), r, a, the subgradients at a and f(a), per
    # domain probe x, radius r and net point a near x
    net = cached_property(lambda c: _net(c.inst, c.rows(c.f_at, dom_only=True)))
    # a 1D grid: its closed convex hull, the hull's dual probes, and the
    # grid graph over them decided in exact arithmetic
    grid_hull = cached_property(lambda c: cl_conv(c.inst))
    grid_duals = cached_property(lambda c: dual_probes(c.grid_hull))
    grid_graph = cached_property(
        lambda c: _grid_graph_exact(c.inst, c.grid_hull, c.grid_duals))

    def _envelope_at(self, kind, eps=None) -> tuple:
        return tuple(envelope_values(self.inst, kind, self.probes, eps))

    def rows(self, *tables, dom_only=False):
        """(probe, *entries) per probe, in probe order; dom_only keeps the
        probes of ``dom_probes``."""
        rows = zip(self.probes, *tables)
        return (r for r in rows if self.dom.contains(r[0])) if dom_only else rows


# ---------------------------------------------------------------------------
# check records and gates
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class TheoremCheck:
    theorem_id: str
    instance: str
    verdict: str
    backend: str
    tolerance: object = 0
    margin: object = None
    witness: object = None

    @property
    def ok(self) -> bool:
        return self.verdict != FAIL


def _min_margin(cur, new):
    new = as_extreal(new)
    if cur is None or new < as_extreal(cur):
        return new
    return cur


def _na(tid, desc, why, backend="exact"):
    return TheoremCheck(tid, desc, NOT_APPLICABLE, backend, witness=why)


def _done(tid, desc, ok, margin=None, witness=None, backend="exact"):
    return TheoremCheck(
        tid, desc, PASS if ok else FAIL, backend,
        margin=margin, witness=None if ok else witness,
    )


class _Gate(NamedTuple):
    """A statement hypothesis: when ``skip(ctx)`` holds, the check reports
    not-applicable with ``why`` instead of running."""

    skip: object
    why: str
    backend: str = "exact"


_NEEDS_LSC = "needs a lower semicontinuous instance (raised endpoint values)"
_LSC = _Gate(lambda ctx: ctx.lsc_defect, _NEEDS_LSC)
_GRAPH = _Gate(lambda ctx: not ctx.has_graph, "empty subdifferential graph")
_GRID_1D = _Gate(
    lambda ctx: isinstance(ctx.inst, GridFunction) and ctx.inst.dim != 1,
    "grid route is one-dimensional here", "grid",
)


_PL = (PLConvex1D,)
_PL_OR_GRID = (PLConvex1D, GridFunction)

# theorem id -> (check, the instance kinds it accepts), in declaration order
REGISTRY = {}


def _check(tid, kinds, *gates):
    """Register the check under ``tid`` for instances of ``kinds``, with the
    gates the dispatcher applies, in order, before the check; an id
    registered twice raises ValueError."""
    def mark(fn):
        if tid in REGISTRY:
            raise ValueError(f"theorem id {tid!r} is already registered")
        fn.gates = gates
        REGISTRY[tid] = (fn, kinds)
        return fn
    return mark


# ---------------------------------------------------------------------------
# coupling bound and closure checks
# ---------------------------------------------------------------------------


@_check("dfdom.ineq", _PL_OR_GRID, _GRID_1D)
def _check_dfdom_ineq(tid, desc, ctx):
    # a 1D grid reads as its closed convex hull with the exact grid graph;
    # witnesses name the sample as listed
    if isinstance(ctx.inst, GridFunction):
        wits = [p for p, _v in ctx.inst.finite_items()]
        xs = [F(p) for p in wits]
        h, src, duals, backend = ctx.grid_hull, ctx.grid_graph, ctx.grid_duals, "grid"
    else:
        wits = xs = ctx.probes
        h, src, duals, backend = ctx.closure, subdiff_structure(ctx.inst), ctx.duals, "exact"
    hs_at = conjugate_exact(h).values_at(duals)
    worst = None
    for w, hx, row in zip(wits, h.values_at(xs), fitzpatrick_table(src, xs, duals)):
        for s, hs, lhs in zip(duals, hs_at, row):
            rhs = ext_add(hx, hs)
            if lhs > rhs:
                return _done(tid, desc, False, ext_sub(rhs, lhs), (w, s), backend)
            worst = _min_margin(worst, ext_sub(rhs, lhs))
    return _done(tid, desc, True, worst, backend=backend)


@_check("dfdom.i", _PL_OR_GRID, _GRID_1D)
def _check_dfdom_i(tid, desc, ctx):
    if isinstance(ctx.inst, GridFunction):
        h, G, backend = ctx.grid_hull, ctx.grid_graph, "grid"
        sample = {a: as_extreal(v) for a, v in _grid_items_exact(ctx.inst)}
        values_at = functools.partial(map, sample.__getitem__)
    else:
        h, G, backend = ctx.closure, ctx.probe_graph, "exact"
        values_at = ctx.inst.values_at
    anchors = [a for a, _b in G.pairs]
    hs = h.values_at(anchors)
    flags = subgradient_flags(h, G.pairs, values=hs)
    for (a, b), ok, ha, fa in zip(G.pairs, flags, hs, values_at(anchors)):
        if not ok:
            return _done(tid, desc, False, witness=(a, b), backend=backend)
        if ha != fa:
            return _done(tid, desc, False, witness=a, backend=backend)
    if backend == "exact":
        fc_at = subdiffs_exact(ctx.closure, ctx.probes)
        for x, iv, ivc in ctx.rows(ctx.subdiff_at, fc_at):
            if ctx.subdiff_domain.contains(x) and iv != ivc:
                return _done(tid, desc, False, witness=x)
    return _done(tid, desc, True, backend=backend)


@_check("dfdom.e3", _PL, _Gate(lambda ctx: not ctx.lsc_defect,
                                "every domain point carries a subgradient; "
                                "no distinct majorant can agree there"))
def _check_dfdom_e3(tid, desc, ctx):
    f = ctx.inst
    ovl, ovr = f.override_left, f.override_right
    if ovl is not None and ovl.is_finite:
        ovl = ExtReal(ovl.value + 1)
    if ovr is not None and ovr.is_finite:
        ovr = ExtReal(ovr.value + 1)
    g = replace(f, override_left=ovl, override_right=ovr)
    return _done(tid, desc, ctx.shape == _graph_shape(g))


def grid_hull_graph(g: GridFunction, hull=None):
    """(hull, candidates, graph) of a 1D grid function.

    The candidates pair each finite sample, in list order, with the finite
    ends of the hull's subgradient interval there (repeats dropped); the
    graph keeps the candidates that pass the sampled membership test at
    zero tolerance, decided by one ``grid_subdiff_matrix`` over the
    distinct candidate slopes.  After the graph, the same ends at each
    listed +inf point strictly inside the hull's domain (a puncture) join
    the candidates.  ``hull`` defaults to ``cl_conv(g)``.
    """
    if hull is None:
        hull = cl_conv(g)

    def ends(pts):
        ivs = subdiffs_exact(hull, [Fraction(p) for p in pts])
        return dict.fromkeys((p, float(end)) for p, iv in zip(pts, ivs) if iv is not None
                             for end in (iv.lo, iv.hi) if end is not None)

    items = g.finite_items()
    cands = list(ends([p for p, _v in items]))
    duals = sorted({s for _p, s in cands})
    member = grid_subdiff_matrix(g, duals)
    row = {p: i for i, (p, _v) in enumerate(items)}
    col = {s: k for k, s in enumerate(duals)}
    pairs = tuple((p, s) for p, s in cands if member[row[p], col[s]])
    cands += ends([p for p, v in zip(g.points, g.value_array.tolist())
                   if v == math.inf and hull.breakpoints[0] < Fraction(p) < hull.breakpoints[-1]])
    return hull, cands, OperatorGraph(1, pairs)


@_check("dfdom.iv", (GridFunction,), _Gate(
    lambda ctx: ctx.inst.dim != 1, "the finite shadow of this item is one-dimensional"))
def _check_dfdom_iv(tid, desc, ctx):
    # a grid sample is closed already, so the claim reduces to "a maximal-
    # relative sampled subdifferential forces grid convexity" on the line,
    # with candidates at the punctures too; a failure names the first
    # listed point that carries no pair of the graph
    g = ctx.inst
    _hull, cands, G = grid_hull_graph(g, ctx.grid_hull)
    v = is_maximal_relative(G, cands, tol=GRID_TOL)
    if not v.is_maximal or is_convex_on_grid(g):
        return _done(tid, desc, True)
    anchored = {a for a, _s in G.pairs}
    return _done(tid, desc, False,
                 witness=next((p for p in g.points if p not in anchored), None))


_RADII = (F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16))
_EPS_LADDER = (F(1), F(1, 4), F(1, 100))


def _nearby_subdiff_point(D: Interval1D, x, r):
    if D.contains(x):
        return x
    # x is then a domain endpoint excluded from D by an override
    width = None if D.lo is None or D.hi is None else D.hi - D.lo
    step = r if width is None else min(r, width)
    if D.lo is not None and x <= D.lo:
        return D.lo + step / 2
    if D.hi is not None and x >= D.hi:
        return D.hi - step / 2
    return None


@_check("ba.density", _PL, _GRAPH)
def _check_ba_density(tid, desc, ctx):
    D = ctx.subdiff_domain
    if _closed_hull(D) != _closed_hull(ctx.dom):
        return _done(tid, desc, False, witness="closures differ")
    for x in ctx.dom_probes:
        for r in _RADII:
            a = _nearby_subdiff_point(D, x, r)
            if a is None or not D.contains(a) or abs(x - a) > r:
                return _done(tid, desc, False, witness=(x, r))
    return _done(tid, desc, True, margin=0)


# ---------------------------------------------------------------------------
# upper-envelope checks
# ---------------------------------------------------------------------------


@_check("fcupdiez.i", _PL)
def _check_fcupdiez_i(tid, desc, ctx):
    D = ctx.subdiff_domain
    worst = None
    for x, c, sh, fx in ctx.rows(ctx.cup_at, ctx.sharp_at, ctx.f_at):
        if not (c <= sh and sh <= fx):
            return _done(tid, desc, False, witness=x)
        if D.contains(x) and not (c == fx and sh == fx):
            return _done(tid, desc, False, witness=x)
        worst = _min_margin(worst, ext_sub(fx, c))
    return _done(tid, desc, True, worst)


@_check("fcupdiez.iii", _PL, _GRAPH)
def _check_fcupdiez_iii(tid, desc, ctx):
    f, env = ctx.inst, ctx.envelope
    floor = epi_cup_floor(f, epi_normal_graph(f, ctx.graph))
    xs = ctx.probes
    # the restriction identity is read off the closed forms, sv and cv
    for x, ev, cut, c, sv, cv in ctx.rows(env.values_at(xs), floor.values_at(xs),
                                          ctx.cup_at, ctx.sharp.values_at(xs),
                                          ctx.cup.values_at(xs)):
        base = ev.finite()
        for v in (base - 1, base, base + 1):
            if (as_extreal(v) >= cut) != (as_extreal(v) >= ev):
                return _done(tid, desc, False, witness=(x, v))
        if ctx.hull_interval.contains(x):
            if sv != cv:
                return _done(tid, desc, False, witness=x)
        elif not sv.is_pos_inf:
            return _done(tid, desc, False, witness=x)
        if ctx.dom.contains(x) and ev != c:
            return _done(tid, desc, False, witness=x)
    return _done(tid, desc, True)


@_check("fcupdiez.iv", _PL)
def _check_fcupdiez_iv(tid, desc, ctx):
    cupf, shf = ctx.cup, ctx.sharp
    pairs = ctx.probe_graph.pairs
    for p, c, sh in zip(pairs, subgradient_flags(cupf, pairs), subgradient_flags(shf, pairs)):
        if not (c and sh):
            return _done(tid, desc, False, witness=p)
    # cup and sharp keep f's breakpoints, which are probes already
    D = ctx.subdiff_domain
    rows = [(x, iv) for x, iv in ctx.rows(ctx.subdiff_at) if D.contains(x)]
    xs = [x for x, _iv in rows]
    for (x, iv), c, sh in zip(rows, subdiffs_exact(cupf, xs), subdiffs_exact(shf, xs)):
        if c != iv or sh != iv:
            return _done(tid, desc, False, witness=x)
    return _done(tid, desc, True)


@_check("fcupdiez.v", _PL)
def _check_fcupdiez_v(tid, desc, ctx):
    cupf, shf = ctx.cup, ctx.sharp
    ok = (
        pl_equal(cup_exact(cupf), cupf)
        and pl_equal(sharp_exact(cupf), cupf)
        and pl_equal(sharp_exact(shf), shf)
    )
    return _done(tid, desc, ok, witness="idempotence broken")


@_check("fcupdiez.viii", _PL)
def _check_fcupdiez_viii(tid, desc, ctx):
    for env in (ctx.cup, ctx.sharp):
        same_ops = ctx.shape == _graph_shape(env)
        same_dom = ctx.subdiff_domain == subdiff_domain(env)
        if same_ops != same_dom:
            return _done(tid, desc, False,
                         witness=(env.label or "envelope", same_ops, same_dom))
    return _done(tid, desc, True)


@_check("fcupdiez.ix", _PL, _GRAPH)
def _check_fcupdiez_ix(tid, desc, ctx):
    f, G, xs = ctx.inst, ctx.graph, ctx.probes
    want = ctx.envelope.values_at(xs)
    chains, env = [], None
    for n, nxt in zip((2, 3), _n_cup_chain(f, G, 3)):
        if nxt is not env:
            env, vals = nxt, nxt.values_at(xs)
        chains.append((n, vals))
    for k, x in enumerate(xs):
        for n, vals in chains:
            if vals[k] != want[k]:
                return _done(tid, desc, False, witness=(x, n))
    return _done(tid, desc, True, margin=0)


# ---------------------------------------------------------------------------
# double-conjugate hull checks
# ---------------------------------------------------------------------------


@_check("fcirc.i", _PL)
def _check_fcirc_i(tid, desc, ctx):
    D, xs = ctx.subdiff_domain, ctx.circ_probes
    worst = None
    fs = (ctx.cup, ctx.closure, ctx.circ, ctx.inst)
    for x, a, b, c, fx in zip(xs, *(h.values_at(xs) for h in fs)):
        if not (a <= b and b <= c):
            return _done(tid, desc, False, witness=x)
        if D.contains(x) and c != fx:
            return _done(tid, desc, False, witness=x)
        worst = _min_margin(worst, ext_sub(c, a))
    return _done(tid, desc, True, worst)


@_check("fcirc.ii", _PL)
def _check_fcirc_ii(tid, desc, ctx):
    circf = ctx.circ
    if not pl_equal(circ_exact(circf), circf):
        return _done(tid, desc, False, witness="hull of the hull moved")
    if not pl_equal(ctx.star_cup, conjugate_exact(circf)):
        return _done(tid, desc, False, witness="dual envelope vs hull conjugate")
    wit = None
    if not ctx.lsc_defect:
        starcirc = circ_exact(conjugate_exact(ctx.inst))
        if not pl_equal(starcirc, conjugate_exact(ctx.cup)):
            return _done(tid, desc, False, witness="conjugate-side hull")
        if not pl_equal(conjugate_exact(starcirc), ctx.cup):
            return _done(tid, desc, False, witness="conjugate-side hull, back")
    else:
        # conjugation cannot see raised endpoint values, so the two
        # cross identities genuinely fail there; they are not checked
        wit = "cross identities skipped at raised endpoints"
    return TheoremCheck(tid, desc, PASS, "exact", 0, witness=wit)


@_check("fcirc.iii", _PL, _LSC)
def _check_fcirc_iii(tid, desc, ctx):
    xs = ctx.circ_probes
    for x, lhs, rhs in zip(xs, subdiffs_exact(ctx.inst, xs), ctx.circ_range_at):
        if lhs != rhs:
            return _done(tid, desc, False, witness=x)
    pairs = ctx.graph.pairs
    for p, ok in zip(pairs, subgradient_flags(ctx.circ, pairs)):
        if not ok:
            return _done(tid, desc, False, witness=p)
    return _done(tid, desc, True)


@_check("fcirc.iv", _PL, _LSC)
def _check_fcirc_iv(tid, desc, ctx):
    D = ctx.subdiff_domain
    for x, rhs in zip(ctx.circ_probes, ctx.circ_range_at):
        if D.contains(x) != (rhs is not None):
            return _done(tid, desc, False, witness=x)
    return _done(tid, desc, True)


@_check("fcirc.v", _PL)
def _check_fcirc_v(tid, desc, ctx):
    circf = ctx.circ
    same_ops = ctx.shape == _graph_shape(circf)
    same_range = ctx.slope_range == subdiff_structure(circf).slope_range()
    return _done(tid, desc, same_ops == same_range,
                 witness=(same_ops, same_range))


@_check("maxcup", _PL, _LSC._replace(why="the subdifferential misses the raised "
                                         "endpoint, so it is not maximal"))
def _check_maxcup(tid, desc, ctx):
    ok = (
        pl_equal(ctx.cup, ctx.closure)
        and pl_equal(ctx.star_cup, conjugate_exact(ctx.inst))
        and pl_equal(ctx.cup, ctx.circ)
    )
    return _done(tid, desc, ok, witness="envelope moved a maximal instance")


# ---------------------------------------------------------------------------
# level-constrained envelope checks
# ---------------------------------------------------------------------------


@_check("fsp.i", _PL)
def _check_fsp_i(tid, desc, ctx):
    D = ctx.subdiff_domain
    for x, sm, c, sh, fx in ctx.rows(ctx.smile_at, ctx.cup_at, ctx.sharp_at, ctx.f_at):
        if not (sm <= c and c <= sh and sh <= fx):
            return _done(tid, desc, False, witness=x)
        if D.contains(x) and sm != fx:
            return _done(tid, desc, False, witness=x)
        if not ctx.dom.contains(x) and sm != c:
            return _done(tid, desc, False, witness=x)
    return _done(tid, desc, True)


def _probed_proper(vals) -> bool:
    return any(v.is_finite for v in vals) and not any(v.is_neg_inf for v in vals)


@_check("fsp.ii", _PL)
def _check_fsp_ii(tid, desc, ctx):
    lhs = _probed_proper(ctx.smile_at)
    rhs = ctx.has_graph and conjugate_exact(ctx.inst).value_at(F(0)) == ctx.star_cup.value_at(F(0))
    return _done(tid, desc, lhs == rhs, witness=(lhs, rhs))


@_check("fsp.iii", _PL)
def _check_fsp_iii(tid, desc, ctx):
    table = fitzpatrick_table(subdiff_structure(ctx.inst), ctx.probes, (F(0),))
    worst = None
    for x, (phi,), sm, fx in ctx.rows(table, ctx.smile_at, ctx.f_at):
        bound = ext_add(phi, fx)
        if sm > bound:
            return _done(tid, desc, False, ext_sub(bound, sm), x)
        worst = _min_margin(worst, ext_sub(bound, sm))
    return _done(tid, desc, True, worst)


@_check("spxstar", _PL)
def _check_spxstar(tid, desc, ctx):
    # smile of f - <., s> at f's probes, whose subdifferential is that of f, less s
    rhs = ctx.has_graph and pl_equal(conjugate_exact(ctx.inst), ctx.star_cup)
    for s in ctx.duals:
        if _probed_proper(envelope_values(ctx.inst.tilt(s), "smile", ctx.probes)) != rhs:
            return _done(tid, desc, False, witness=s)
    return _done(tid, desc, True)


# ---------------------------------------------------------------------------
# maximality equivalence checks (statements about closed instances)
# ---------------------------------------------------------------------------


@_check("maxsdsp.ii", _PL, _LSC)
def _check_maxsdsp_ii(tid, desc, ctx):
    xs, duals = ctx.dom_probes, ctx.duals
    worst = None
    for x, row in zip(xs, fitzpatrick_table(subdiff_structure(ctx.inst), xs, duals)):
        for s, phi in zip(duals, row):
            if phi < x * s:
                return _done(tid, desc, False, ext_sub(phi, as_extreal(x * s)), (x, s))
            worst = _min_margin(worst, ext_sub(phi, as_extreal(x * s)))
    return _done(tid, desc, True, worst)


def _smile_recovers_f(tid, desc, ctx, dom_only):
    for x, sm, fx in ctx.rows(ctx.smile_at, ctx.f_at, dom_only=dom_only):
        if sm != fx:
            return _done(tid, desc, False, witness=x)
    return _done(tid, desc, True, margin=0)


@_check("maxsdsp.iii", _PL, _LSC)
def _check_maxsdsp_iii(tid, desc, ctx):
    return _smile_recovers_f(tid, desc, ctx, dom_only=True)


@_check("maxsdsp.iv", _PL, _LSC)
def _check_maxsdsp_iv(tid, desc, ctx):
    return _smile_recovers_f(tid, desc, ctx, dom_only=False)


def _slope_bound(f: PLConvex1D) -> Fraction:
    return max([F(1), *(abs(g) for g in f.gaps if g is not None)])


def _net_points(f: PLConvex1D, x, r):
    """The point itself plus a same-piece neighbour, both within r."""
    out = [x]
    b = f.breakpoints
    left_ok = x > b[0] or f.left_recession is not None
    right_ok = x < b[-1] or f.right_recession is not None
    i, j = bisect_left(b, x), bisect_right(b, x)
    gap_l = x - b[i - 1] if i else None
    gap_r = b[j] - x if j < len(b) else None
    if left_ok:
        step = r if gap_l is None else min(r, gap_l)
        out.append(x - step / 2)
    elif right_ok:
        step = r if gap_r is None else min(r, gap_r)
        out.append(x + step / 2)
    return out


def _net(f: PLConvex1D, rows) -> tuple:
    """(x, f(x), r, a, the subgradients at a, f(a)) for each (x, f(x)) of
    rows, radius r of _RADII and net point a of x and r, in that order."""
    net = [(x, fx, r, a) for x, fx in rows for r in _RADII for a in _net_points(f, x, r)]
    pts = [row[3] for row in net]
    return tuple((*row, iv, fa) for row, iv, fa in
                 zip(net, subdiffs_exact(f, pts), f.values_at(pts)))


@_check("maxsdsp.v", _PL, _LSC)
def _check_maxsdsp_v(tid, desc, ctx):
    lam = _slope_bound(ctx.inst)
    for x, fx, r, a, iv, fa in ctx.net:
        if iv is None or abs(x - a) > r:
            return _done(tid, desc, False, witness=(x, r))
        if abs(fa.finite() - fx.finite()) > lam * r:
            return _done(tid, desc, False, witness=(x, r, "value"))
        bracket = (x - a) * _some_slope(iv) + fa.finite()
        if abs(bracket - fx.finite()) > 2 * lam * r:
            return _done(tid, desc, False, witness=(x, r, "bracket"))
    return _done(tid, desc, True, margin=0)


@_check("maxsdsp.vi", _PL, _LSC)
def _check_maxsdsp_vi(tid, desc, ctx):
    lam = _slope_bound(ctx.inst)
    for x, _fx, r, a, iv, _fa in ctx.net:
        if iv is None or abs((x - a) * _some_slope(iv)) > lam * r:
            return _done(tid, desc, False, witness=(x, r))
    return _done(tid, desc, True, margin=0)


@_check("maxsdsp.vii", _PL, _LSC)
def _check_maxsdsp_vii(tid, desc, ctx):
    f = ctx.inst
    for x, iv in ctx.rows(ctx.subdiff_at, dom_only=True):
        if iv is None:
            return _done(tid, desc, False, witness=x)
        ladder = brondsted_ladder(f, x, _some_slope(iv), _EPS_LADDER)
        for eps, res in zip(_EPS_LADDER, ladder):
            if not (res.found and res.renorm_ok(eps) and res.product_ok(eps)):
                return _done(tid, desc, False, witness=(x, eps))
    return _done(tid, desc, True, margin=0)


@_check("maxsdsp.closure", _PL, _LSC, _GRAPH)
def _check_maxsdsp_closure(tid, desc, ctx):
    ok1 = _closed_hull(ctx.subdiff_domain) == _closed_hull(ctx.dom)
    ok2 = _closed_hull(ctx.slope_range) == _closed_hull(effective_domain(conjugate_exact(ctx.inst)))
    return _done(tid, desc, ok1 and ok2,
                 witness=("domain side", ok1, "range side", ok2))


@_check("fspeps.ii", _PL, _LSC)
def _check_fspeps_ii(tid, desc, ctx):
    for x, fx, *vals in ctx.rows(ctx.f_at, *ctx.smile_eps_at, dom_only=True):
        # shrinking the budget can only shrink the admitted family
        for big, small in zip(vals, vals[1:]):
            if small > big:
                return _done(tid, desc, False, witness=x)
        if ext_inf(vals) != fx:
            return _done(tid, desc, False, witness=x)
    return _done(tid, desc, True, margin=0)


def _smile_eps_recovers_f(tid, desc, ctx, dom_only):
    for x, fx, *vals in ctx.rows(ctx.f_at, *ctx.smile_eps_at, dom_only=dom_only):
        for e, v in zip(_EPS_LADDER, vals):
            if v != fx:
                return _done(tid, desc, False, witness=(x, e))
    return _done(tid, desc, True, margin=0)


@_check("fspeps.iii", _PL, _LSC)
def _check_fspeps_iii(tid, desc, ctx):
    return _smile_eps_recovers_f(tid, desc, ctx, dom_only=True)


@_check("fspeps.iv", _PL, _LSC)
def _check_fspeps_iv(tid, desc, ctx):
    return _smile_eps_recovers_f(tid, desc, ctx, dom_only=False)


# ---------------------------------------------------------------------------
# separated-variables coupling for normal cones
# ---------------------------------------------------------------------------


@_check("ncfitz", (Interval1D,), _Gate(lambda ctx: ctx.inst.lo_open or ctx.inst.hi_open,
                                       "needs a closed set"))
def _check_ncfitz(tid, desc, ctx):
    C = ctx.inst
    probes = set()
    for end in (C.lo, C.hi):
        if end is not None:
            probes.update((end, end - 1, end + 1))
    if C.lo is not None and C.hi is not None:
        probes.add((C.lo + C.hi) / 2)
    if C.lo is None:
        probes.add((C.hi if C.hi is not None else F(0)) - 5)
    if C.hi is None:
        probes.add((C.lo if C.lo is not None else F(0)) + 5)
    duals = (F(-3), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3))
    xs = sorted(probes)
    for x, row in zip(xs, fitzpatrick_table(subdiff_structure(indicator(C)), xs, duals)):
        for s, phi in zip(duals, row):
            want = support_function(C, s) if C.contains(x) else POS_INF
            if phi != want:
                return _done(tid, desc, False, witness=(x, s))
    return _done(tid, desc, True, margin=0)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _dispatch(tid: str, desc: str, ctx: CheckContext) -> TheoremCheck:
    """Scope test, then the check's gates in order, then the check."""
    fn, kinds = REGISTRY[tid]
    if not isinstance(ctx.inst, kinds):
        backend = "grid" if isinstance(ctx.inst, GridFunction) else "exact"
        return _na(tid, desc,
                   f"{type(ctx.inst).__name__} is outside this statement's scope",
                   backend)
    for gate in getattr(fn, "gates", ()):
        if gate.skip(ctx):
            return _na(tid, desc, gate.why, gate.backend)
    return fn(tid, desc, ctx)


def run_check(theorem_id: str, inst, desc: str | None = None) -> TheoremCheck:
    """Run one registered check on a fresh context; unknown ids raise KeyError."""
    if theorem_id not in REGISTRY:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    if desc is None:
        desc = getattr(inst, "label", None) or type(inst).__name__
    return _dispatch(theorem_id, desc, CheckContext(inst))


# ---------------------------------------------------------------------------
# seeded instances
# ---------------------------------------------------------------------------

class InstanceGenerator:
    """Deterministic instance streams keyed by a seed.

    Exact families draw every coordinate from small rationals so that all
    downstream checks stay in ``Fraction``.  The grid family is float-valued
    on purpose: those instances exist to exercise the sampled backend.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def _pl_parts(self, min_m=1, max_m=8):
        rng = self._rng
        m = rng.randint(min_m, max_m)
        x = F(rng.randint(-12, 6))
        xs = [x]
        for _ in range(m - 1):
            x += F(rng.randint(1, 9), rng.choice((1, 2, 4)))
            xs.append(x)
        s = F(rng.randint(-9, 5), rng.choice((1, 2, 3)))
        slopes = []
        for _ in range(m - 1):
            slopes.append(s)
            s += F(rng.randint(0, 7), rng.choice((1, 2, 3)))
        v = F(rng.randint(-9, 9))
        vals = [v]
        for i in range(m - 1):
            v += slopes[i] * (xs[i + 1] - xs[i])
            vals.append(v)
        return xs, vals, slopes

    def pl_convex(self) -> PLConvex1D:
        rng = self._rng
        xs, vals, slopes = self._pl_parts()
        if slopes:
            base_l, base_r = slopes[0], slopes[-1]
        else:
            base_l = base_r = F(rng.randint(-4, 4))
        left = None
        if rng.randint(0, 1):
            left = base_l - F(rng.randint(0, 6), 2)
        right = None
        if rng.randint(0, 1):
            right = base_r + F(rng.randint(0, 6), 2)
        return PLConvex1D(tuple(xs), tuple(vals), left, right)

    def pl_convex_with_override(self, tiny_defect: bool = False) -> PLConvex1D:
        rng = self._rng
        xs, vals, slopes = self._pl_parts(min_m=2)
        side = rng.choice(("left", "right", "both"))
        if tiny_defect:
            defect = F(rng.randint(1, 9), 10**6)
        else:
            defect = F(rng.randint(1, 8), rng.choice((1, 2, 4)))
        ovl = ovr = None
        left = right = None
        if side in ("left", "both"):
            ovl = vals[0] + defect
        elif rng.randint(0, 1):
            left = slopes[0] - F(rng.randint(0, 6), 2)
        if side in ("right", "both"):
            ovr = vals[-1] + defect
        elif rng.randint(0, 1):
            right = slopes[-1] + F(rng.randint(0, 6), 2)
        return PLConvex1D(tuple(xs), tuple(vals), left, right, ovl, ovr)

    def grid_nonconvex(self) -> GridFunction:
        rng = self._rng
        k = rng.randint(5, 12)
        xs = set()
        while len(xs) < k:
            xs.add(round(rng.uniform(-4.0, 4.0), 3))
        xs = sorted(xs)
        vals = [round(rng.uniform(-3.0, 3.0), 3) for _ in xs]
        f = GridFunction(1, tuple(xs), tuple(vals))
        if is_convex_on_grid(f):
            j = len(xs) // 2
            t = (xs[j] - xs[j - 1]) / (xs[j + 1] - xs[j - 1])
            chord = vals[j - 1] + t * (vals[j + 1] - vals[j - 1])
            vals[j] = chord + round(rng.uniform(0.5, 2.0), 3)
            f = GridFunction(1, tuple(xs), tuple(vals))
        return f

    def indicator_set(self) -> Interval1D:
        rng = self._rng
        lo = F(rng.randint(-6, 2), rng.choice((1, 2)))
        kind = rng.randint(0, 9)
        if kind == 0:
            return Interval1D(lo, lo)  # a single point
        if kind == 1:
            return Interval1D(lo, None)
        if kind == 2:
            return Interval1D(None, lo)
        hi = lo + F(rng.randint(1, 8), rng.choice((1, 2)))
        lo_open = rng.randint(0, 3) == 0
        hi_open = rng.randint(0, 3) == 0
        return Interval1D(lo, hi, lo_open, hi_open)

    def operator_graph(self) -> OperatorGraph:
        rng = self._rng
        k = rng.randint(2, 7)
        xs = sorted(rng.sample(range(-9, 10), k))
        ys = []
        y = F(rng.randint(-6, 2))
        for _ in range(k):
            ys.append(y)
            y += F(rng.randint(0, 5), rng.choice((1, 2)))
        if rng.randint(0, 3) == 0 and k >= 2 and ys[0] != ys[-1]:
            ys[0], ys[-1] = ys[-1], ys[0]  # breaks monotonicity
        pairs = tuple((F(a), b) for a, b in zip(xs, ys))
        return OperatorGraph(1, pairs)

    def generate(self, family: str, count: int, **kw) -> list:
        if family not in _MAKERS:
            raise ValueError(f"unknown family {family!r}")
        out = []
        for i in range(count):
            inst = _MAKERS[family](self, **kw)
            if hasattr(inst, "label") and not isinstance(inst, Interval1D):
                inst = replace(inst, label=f"{family}[{i}]")
            out.append(inst)
        return out


# family -> the InstanceGenerator method that draws one of its instances
_MAKERS = {
    "pl-convex": InstanceGenerator.pl_convex,
    "pl-convex-with-override": InstanceGenerator.pl_convex_with_override,
    "grid-nonconvex": InstanceGenerator.grid_nonconvex,
    "indicator-set": InstanceGenerator.indicator_set,
    "operator-graph": InstanceGenerator.operator_graph,
}
FAMILIES = tuple(_MAKERS)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    checks: tuple

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.verdict == PASS)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.verdict == FAIL)

    @property
    def n_not_applicable(self) -> int:
        return sum(1 for c in self.checks if c.verdict == NOT_APPLICABLE)

    @property
    def all_ok(self) -> bool:
        return self.n_fail == 0

    def lines(self) -> list:
        out = []
        for c in self.checks:
            line = f"{c.theorem_id:<18} {c.instance:<30} {c.verdict}"
            if c.margin is not None:
                line += f"  margin={format_scalar(c.margin)}"
            if c.verdict == FAIL and c.witness is not None:
                line += f"  at {c.witness!r}"
            out.append(line)
        out.append(
            f"checks: {len(self.checks)}  pass: {self.n_pass}  "
            f"fail: {self.n_fail}  not-applicable: {self.n_not_applicable}"
        )
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def run_suite(seed: int = 0, n_instances: int = 4, theorem_ids=None) -> SuiteReport:
    """Run the registry over seeded instances; deterministic for fixed args.

    Every id sees the instances its statement can accept: the exact families
    for function statements, grids for the sampled coupling bounds, interval
    sets for the normal-cone identity.  An empty id selection, or
    n_instances = 0, succeeds with zero checks; a negative n_instances
    raises ValueError.
    """
    if n_instances < 0:
        raise ValueError(f"n_instances must be at least 0, got {n_instances}")
    if theorem_ids is None:
        ids = sorted(REGISTRY)
    else:
        ids = sorted(set(theorem_ids))
        for tid in ids:
            if tid not in REGISTRY:
                raise KeyError(f"unknown theorem id {tid!r}")
    gen = InstanceGenerator(seed)
    pools = {PLConvex1D: [], GridFunction: [], Interval1D: []}
    for kind, family in ((PLConvex1D, "pl-convex"),
                         (PLConvex1D, "pl-convex-with-override"),
                         (GridFunction, "grid-nonconvex"),
                         (Interval1D, "indicator-set")):
        pools[kind] += [(f"{family}[{i}]", CheckContext(inst))
                        for i, inst in enumerate(gen.generate(family, n_instances))]
    # one context per instance, shared by every id that accepts it
    checks = [
        _dispatch(tid, desc, ctx)
        for tid in ids
        for kind, pool in pools.items() if kind in REGISTRY[tid][1]
        for desc, ctx in pool
    ]
    return SuiteReport(seed, tuple(checks))


# ---------------------------------------------------------------------------
# galleries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GalleryResult:
    name: str
    summary: str
    checks: tuple
    objects: dict

    @property
    def all_ok(self) -> bool:
        return all(c.verdict == PASS for c in self.checks)


def _gallery_quadratic() -> GalleryResult:
    ts = [F(-2) + F(k, 100) for k in range(401)]
    G = OperatorGraph(1, tuple((t, t) for t in ts), label="identity-slope graph")
    t = np.array([float(u) for u in ts])
    xs = np.linspace(-2.0, 2.0, 41)
    # sup over the graph of x*b + a*y - a*b with a = b = t depends on the
    # float sum s = x + y only, so it is computed once per distinct sum
    sums, cell = np.unique(xs[:, None] + xs[None, :], return_inverse=True)
    phi = (sums[:, None] * t - t * t).max(axis=1)
    diff = np.abs(phi - sums * sums / 4)[cell.reshape(-1)]
    worst = float(diff.max())
    ok = worst <= GRID_TOL
    wit = None
    if not ok:
        i, j = divmod(int(diff.argmax()), 41)
        wit = (xs[i], xs[j])
    # exact spot checks on a coarse sub-lattice of the same window
    spots = [F(-2) + F(i, 2) for i in range(9)]
    table = fitzpatrick_table(G, spots, spots)
    for x, row in zip(spots, table):
        for y, phi in zip(spots, row):
            if phi != as_extreal((x + y) ** 2 / 4):
                ok, wit = False, (x, y)
    c1 = TheoremCheck(
        "gallery.quadratic.coupling-square", "halved square slopes",
        PASS if ok else FAIL, "grid", GRID_TOL, margin=worst, witness=wit,
    )

    # the tangent of the halved square at anchor a is the line of slope a
    # and intercept -a^2/2, and the conjugate's term at y is the same line
    # at y, so one line envelope gives both sups; (x0, y0) is a spot, so
    # phi(x0, y0) is a cell of the spot table
    x0, y0 = F(1), F(-1)
    cup1, star1 = line_envelope_at([(a, -a * a / 2) for a, _ in G.pairs], [x0, y0])
    phi0 = table[spots.index(x0)][spots.index(y0)]
    gap = cup1 + star1 - phi0.finite()
    c2 = TheoremCheck(
        "gallery.quadratic.strict-coupling-gap", "halved square slopes",
        PASS if gap > 0 else FAIL, "exact", 0, margin=gap, witness=(x0, y0),
    )
    return GalleryResult(
        "quadratic",
        "dense graph of the identity slope map; the coupling hull is a "
        "perfect square and sits strictly under the envelope sum",
        (c1, c2),
        {"graph": G},
    )


def _gallery_open_interval() -> GalleryResult:
    C = Interval1D(F(0), F(1), True, True)
    f = replace(indicator(C), label="open-unit-interval indicator")
    probes = [F(-5) + F(k, 4) for k in range(41)]
    ok_cup, ok_sharp = (
        all(v == as_extreal(0) for v in envelope_values(f, kind, probes))
        for kind in ("cup", "sharp")
    )
    c1 = TheoremCheck("gallery.open-interval.cup", f.label,
                      PASS if ok_cup else FAIL, "exact", 0, margin=0)
    c2 = TheoremCheck("gallery.open-interval.sharp", f.label,
                      PASS if ok_sharp else FAIL, "exact", 0, margin=0)
    circf = circ_exact(f)
    closedC = Interval1D(F(0), F(1))
    want = indicator(closedC)
    ok_circ = pl_equal(circf, want) and circf.values_at(probes) == want.values_at(probes)
    c3 = TheoremCheck("gallery.open-interval.circ", f.label,
                      PASS if ok_circ else FAIL, "exact", 0, margin=0)
    ok_nc = True
    wit = None
    for x, got in zip(probes, subdiffs_exact(circf, probes)):
        if closedC.contains(x):
            if got != normal_cone(closedC, x):
                ok_nc, wit = False, x
        elif got is not None:
            ok_nc, wit = False, x
    Gc = subdiff_graph(circf, probes=probes)
    for (a, b), iv in zip(Gc.pairs, subdiffs_exact(circf, [a for a, _b in Gc.pairs])):
        if iv is None or not iv.contains(b):
            ok_nc, wit = False, (a, b)
    c4 = TheoremCheck("gallery.open-interval.normal-cone", f.label,
                      PASS if ok_nc else FAIL, "exact", 0, witness=wit)
    return GalleryResult(
        "open-interval",
        "indicator of the open unit interval: envelopes flatten to zero, "
        "the double-conjugate hull closes the set, and its subdifferential "
        "is the closed interval's normal cone",
        (c1, c2, c3, c4),
        {"instance": f, "circ": circf, "graph": Gc, "probes": tuple(probes)},
    )


def _halfcircle_instance() -> PLConvex1D:
    # chord discretization with rational points: x = -(1-t^2)/(1+t^2),
    # value -2t/(1+t^2), t = k/24 -- both coordinates stay rational
    left = []
    for k in range(25):
        t = F(k, 24)
        x = -(1 - t * t) / (1 + t * t)
        y = -2 * t / (1 + t * t)
        left.append((x, y))
    right = [(-x, y) for x, y in left[:-1]]
    pts = left + list(reversed(right))
    xs = tuple(p[0] for p in pts)
    vs = tuple(p[1] for p in pts)
    return PLConvex1D(xs, vs, None, None, F(1), F(1), label="raised half-disc arc")


def _gallery_half_circle() -> GalleryResult:
    g = _halfcircle_instance()
    defect = lsc_defect(g)
    c1 = TheoremCheck(
        "gallery.half-circle.lsc-defect", g.label,
        PASS if defect == [F(-1), F(1)] else FAIL, "exact", 0, witness=defect,
    )
    G = subdiff_graph(g)
    sweep = []
    for k in range(401):
        if k % 8 == 0:
            continue  # those 51 slots go to graph pairs below
        x = F(-3) + F(6) * F(k, 400)
        y = F(-10) + F(20) * F((11 * k) % 401, 400)
        sweep.append((x, y))
    inside = [p for p in G.pairs if abs(p[1]) <= 10]
    picks = [inside[(i * (len(inside) - 1)) // 50] for i in range(51)]
    cands = sweep + picks
    verdict = is_maximal_relative(G, cands)
    ok2 = verdict.is_maximal and verdict.related >= 51 and verdict.checked == 401
    c2 = TheoremCheck(
        "gallery.half-circle.maximal-relative", g.label,
        PASS if ok2 else FAIL, "exact", 0,
        witness=(verdict.witness, verdict.related, verdict.checked),
    )
    window = Interval1D(F(-10), F(10))
    probes = primal_probes(g)
    ok3 = True
    wit = None
    for x, a, b in zip(probes, subdiffs_exact(g, probes), subdiffs_exact(g.closure(), probes)):
        if _interval_intersect(a, window) != _interval_intersect(b, window):
            ok3, wit = False, x
            break
    c3 = TheoremCheck(
        "gallery.half-circle.closure-graph-window", g.label,
        PASS if ok3 else FAIL, "exact", 0, witness=wit,
    )
    return GalleryResult(
        "half-circle",
        "arc values with both endpoints raised to 1: not lsc, yet no pair "
        "of the probe window extends the subdifferential, and the graph "
        "agrees with the closure's inside the window (the closure's "
        "endpoint rays start at slope 24, outside it)",
        (c1, c2, c3),
        {"instance": g, "graph": G, "verdict": verdict,
         "candidates": tuple(cands)},
    )


def _gallery_two_patch() -> GalleryResult:
    xs = (0.0, 0.25, 0.5, 0.75, 1.0) + tuple(
        round(1.0 + 0.1 * k, 10) for k in range(1, 11)
    )
    vals = (0.0, math.inf, math.inf, math.inf, math.inf) + (0.0,) * 10
    g = GridFunction(1, xs, vals, label="point plus far patch")
    c1 = TheoremCheck(
        "gallery.two-patch.nonconvex", g.label,
        PASS if not is_convex_on_grid(g) else FAIL, "grid", GRID_TOL,
    )
    hull = cl_conv(g)
    want = PLConvex1D((F(0), F(2)), (F(0), F(0)))
    c2 = TheoremCheck(
        "gallery.two-patch.clconv", g.label,
        PASS if pl_equal(hull, want) else FAIL, "exact", 0,
    )
    missing = [0.25, 0.5, 0.75, 1.0]
    ok3 = subdiff_test(hull, F(1, 2), F(0)) and all(
        not grid_subdiff_test(g, x, 0.0) for x in missing
    )
    c3 = TheoremCheck(
        "gallery.two-patch.strict-inclusion", g.label,
        PASS if ok3 else FAIL, "exact", 0, witness=(0.5, 0.0),
    )
    # candidates stay over the hull's domain: beyond it the full normal
    # rays at 0 and 2 defeat every extension, but a finite sample cannot
    Gh = subdiff_graph(hull, probes=(F(1, 2),))
    cands = []
    for k in range(201):
        x = F(2) * F(k, 200)
        y = F(-6) + F(12) * F((7 * k) % 201, 200)
        cands.append((x, y))
    cands += [p for p in Gh.pairs if abs(p[1]) <= 6][:40]
    v = is_maximal_relative(Gh, cands)
    c4 = TheoremCheck(
        "gallery.two-patch.hull-maximal-relative", g.label,
        PASS if v.is_maximal else FAIL, "exact", 0, witness=v.witness,
    )
    return GalleryResult(
        "two-patch",
        "a lone point plus a separated flat patch: the hull closes the gap "
        "to a flat function on [0,2], whose subdifferential strictly "
        "contains the sampled one, witnessed at (0.5, 0)",
        (c1, c2, c3, c4),
        {"instance": g, "hull": hull, "witness": (0.5, 0.0), "graph": Gh},
    )


def _quadrant_pair():
    axis = [round(0.1 * i, 10) for i in range(21)]
    pts = tuple((x, y) for x in axis for y in axis)
    fvals = tuple(-math.sqrt(x * y) for x, y in pts)

    def raised(x, y, v):
        on_edge = (x == 0.0 or y == 0.0) and not (x == 0.0 and y == 0.0)
        return v + 1.0 if on_edge else v

    gvals = tuple(raised(x, y, v) for (x, y), v in zip(pts, fvals))
    f = GridFunction(2, pts, fvals, label="quadrant geometric-mean dip")
    g = GridFunction(2, pts, gvals, label="quadrant dip, edges raised")
    return f, g


def _listed_subdiff_matrix(f: GridFunction, duals, tol):
    """grid_subdiff_matrix with a row for every listed point; a +inf
    sample carries no subgradient, so its row is all False."""
    out = np.zeros((len(f.points), len(duals)), dtype=bool)
    out[f.finite_mask()] = grid_subdiff_matrix(f, duals, tol)
    return out


def _gallery_quadrant() -> GalleryResult:
    f, g = _quadrant_pair()
    c1 = TheoremCheck(
        "gallery.quadrant.base-convex", f.label,
        PASS if is_convex_on_grid(f) else FAIL, "grid", GRID_TOL,
    )
    c2 = TheoremCheck(
        "gallery.quadrant.raised-nonconvex", g.label,
        PASS if not is_convex_on_grid(g) else FAIL, "grid", GRID_TOL,
    )
    duals = tuple(
        (round(-3.0 + 0.5 * i, 10), round(-3.0 + 0.5 * j, 10))
        for i in range(9)
        for j in range(9)
    )
    # membership over every listed point (the two share their point list),
    # scanned in row-major order up to the first disagreement
    mf, mg = (_listed_subdiff_matrix(h, duals, GRID_TOL) for h in (f, g))
    nd = len(duals)
    miss = np.flatnonzero(mf != mg)
    ok = not len(miss)
    stop = mf.size if ok else int(miss[0])
    wit = None if ok else (f.points[stop // nd], duals[stop % nd])
    pairs = [
        (f.points[k // nd], duals[k % nd])
        for k in np.flatnonzero(mf.ravel()[:stop]).tolist()
    ]
    c3 = TheoremCheck(
        "gallery.quadrant.graph-agreement", f.label,
        PASS if ok and len(pairs) >= 1 else FAIL, "grid", GRID_TOL, witness=wit,
    )
    return GalleryResult(
        "quadrant",
        "negative geometric mean on a quadrant grid, edges raised off the "
        "origin: convexity is lost but the sampled subdifferential never "
        "notices, because no raised point carries a subgradient",
        (c1, c2, c3),
        {"f": f, "g": g,
         "graph": OperatorGraph(2, tuple(pairs), label=f.label),
         "duals": duals},
    )


_GALLERY_BUILDERS = {
    "quadratic": _gallery_quadratic,
    "open-interval": _gallery_open_interval,
    "half-circle": _gallery_half_circle,
    "two-patch": _gallery_two_patch,
    "quadrant": _gallery_quadrant,
}
GALLERY_NAMES = tuple(_GALLERY_BUILDERS)


@functools.lru_cache(maxsize=None)
def gallery(name: str) -> GalleryResult:
    """Build a named worked example; results are cached per process."""
    if name not in _GALLERY_BUILDERS:
        raise KeyError(f"unknown gallery {name!r}")
    return _GALLERY_BUILDERS[name]()
