"""Envelopes rebuilt from subdifferential data.

Every construction here answers one question: how much of a convex function
can be recovered knowing only (part of) its subdifferential?  The basic
building block is the supremum of affine supports anchored on the graph,
optionally filtered by a value budget on the anchor:

* no budget          -> the plain upper envelope of the supports;
* budget f(x)        -> anchors may not exceed the value at the probe;
* budget f(x) + eps  -> the relaxed variant of the same.

The exact 1D backend evaluates these suprema over the full interval
structure of the subdifferential, so equalities can be asserted with zero
tolerance.  The pair-route variants work from a finite list of graph pairs
and therefore compute lower bounds of the same quantities; they exist so
that sampled (grid) instances get the same vocabulary.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .extreal import ExtReal, NEG_INF, POS_INF
from .funcrep import (
    GridFunction,
    Interval1D,
    MaxAffine,
    PLConvex1D,
    SampledSet,
    dot,
    effective_domain,
    lsc_defect,
    point_sub,
)
from .operators import (
    OperatorGraph,
    _exactify,
    eps_subdiff_gap,
    subdiff_graph,
    subdiff_structure,
    subgradient_flags,
)
from .transforms import conjugate_brute, conjugate_exact


# ---------------------------------------------------------------------------
# exact engine
# ---------------------------------------------------------------------------


def envelope_values(f: PLConvex1D, kind: str, xs, eps=None) -> list:
    """The exact envelope ``kind`` at every probe of xs, in their order,
    from one ``sups`` of f's structure (``subdiff_structure``).

    cup sups every support; sharp is cup inside the closed normal hull of
    the domain and +inf outside; smile admits only anchors with f(a) <=
    f(x), smileeps those with f(a) <= f(x) + eps, with the budgets read
    by one ``f.values_at`` and dropped where f(x) = +inf.
    """
    xs = [_exactify(x) for x in xs]
    st = subdiff_structure(f)
    if kind in ("cup", "sharp"):
        vals = st.sups(xs)
        if kind == "sharp":
            hull = portable_hull_interval(effective_domain(f))
            vals = [v if hull.contains(x) else POS_INF for x, v in zip(xs, vals)]
        return vals
    slack = 0 if kind == "smile" else _positive_eps(eps)
    budgets = [None if fx.is_pos_inf else fx.finite() for fx in f.values_at(xs)]
    if slack:
        budgets = [t if t is None else t + slack for t in budgets]
    return st.sups(xs, budgets)


def cup_value(f: PLConvex1D, x) -> ExtReal:
    """Exact upper envelope of all subdifferential supports at one probe."""
    return envelope_values(f, "cup", [x])[0]


def sharp_value(f: PLConvex1D, x) -> ExtReal:
    """Upper envelope plus the indicator of the normal-hull of the domain."""
    return envelope_values(f, "sharp", [x])[0]


def smile_value(f: PLConvex1D, x) -> ExtReal:
    """Exact constrained envelope: only anchors with f(a) <= f(x) count;
    where f(x) = +inf the constraint is dropped and cup_value remains."""
    return envelope_values(f, "smile", [x])[0]


def smile_eps_value(f: PLConvex1D, x, eps) -> ExtReal:
    """Exact relaxed constrained envelope: anchors with f(a) <= f(x) + eps."""
    return envelope_values(f, "smileeps", [x], eps)[0]


def _positive_eps(eps):
    eps = _exactify(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def subdiff_domain(f: PLConvex1D) -> Interval1D:
    """Points with a nonempty subdifferential; open at overridden endpoints."""
    b = f.breakpoints
    lo = None if f.left_recession is not None else b[0]
    hi = None if f.right_recession is not None else b[-1]
    return Interval1D(
        lo,
        hi,
        lo is not None and f.override_left is not None,
        hi is not None and f.override_right is not None,
    )


def portable_hull_interval(iv: Interval1D) -> Interval1D:
    """The set cut out by the outward normals of an interval.

    Interior points contribute the zero normal only, so every constraint
    comes from a closed finite endpoint; an open or infinite end constrains
    nothing and that side becomes unbounded.
    """
    lo = None if (iv.lo is None or iv.lo_open) else iv.lo
    hi = None if (iv.hi is None or iv.hi_open) else iv.hi
    return Interval1D(lo, hi)


def cup_exact(f: PLConvex1D) -> PLConvex1D:
    """The upper envelope as a function.

    Without overrides it is the closure.  A raised endpoint removes that
    breakpoint's supports; the steepest remaining support on that side is the
    adjacent segment's line, so the wall is replaced by a recession with the
    adjacent slope.  Next to a lone breakpoint that line is the recession
    ray on the other side.
    """
    g = f.closure()
    if f.override_left is None and f.override_right is None:
        return g
    lrec = g.gaps[1] if f.override_left is not None else g.left_recession
    rrec = g.gaps[-2] if f.override_right is not None else g.right_recession
    return PLConvex1D._make(
        g.breakpoints, g.values, lrec, rrec, label=f.label, slopes=g.slopes()
    )


def sharp_exact(f: PLConvex1D) -> PLConvex1D:
    """The upper envelope restricted to the closed normal hull of the
    domain.  Each finite end of that hull is a wall of f, which is also an
    end breakpoint of ``cup_exact(f)``, so the restriction puts a wall back
    at each such end and keeps everything else: O(1) beyond ``cup_exact``.
    """
    g = cup_exact(f)
    hull = portable_hull_interval(effective_domain(f))
    return PLConvex1D._make(
        g.breakpoints,
        g.values,
        g.left_recession if hull.lo is None else None,
        g.right_recession if hull.hi is None else None,
        slopes=g.slopes(),
    )


def _subdiff_restriction(f: PLConvex1D) -> PLConvex1D:
    """f restricted to the points carrying subgradients, ``subdiff_domain``.
    That is f's domain left open at each raised wall end, so the
    restriction turns each finite override into +inf and keeps everything
    else: O(1)."""
    return PLConvex1D._make(
        f.breakpoints,
        f.values,
        f.left_recession,
        f.right_recession,
        None if f.override_left is None else POS_INF,
        None if f.override_right is None else POS_INF,
        slopes=f.slopes(),
    )


def star_cup_exact(f: PLConvex1D) -> PLConvex1D:
    """Conjugate of f restricted to the points carrying subgradients."""
    return conjugate_exact(_subdiff_restriction(f))


def circ_exact(f: PLConvex1D) -> PLConvex1D:
    """Double conjugate of the restriction: the closed convex function the
    subdifferential data reconstructs."""
    return conjugate_exact(star_cup_exact(f))


# ---------------------------------------------------------------------------
# pair routes
# ---------------------------------------------------------------------------


def _values(f, xs) -> list:
    """f at each point of xs: one ``values_at`` where f has it, else
    ``value_at`` per point (a grid, or any function known by its values)."""
    values_at = getattr(f, "values_at", None)
    return values_at(xs) if values_at else list(map(f.value_at, xs))


def _levels(f, anchors, values=None) -> list:
    """f(a) as a finite scalar per anchor a: the levels of the supports
    anchored there, from one ``_values`` read (``values``, when given, are
    f's values at the anchors).  The first anchor without a finite value
    raises."""
    if values is None:
        values = _values(f, anchors)
    for a, fa in zip(anchors, values):
        if not fa.is_finite:
            raise ValueError(f"anchor {a!r} has no finite value")
    return [fa.finite() for fa in values]


def _anchor_levels(f, G: OperatorGraph) -> dict:
    """f's finite level at each distinct anchor of G, in set order."""
    anchors = list({a for a, _b in G.pairs})
    return dict(zip(anchors, _levels(f, anchors)))


def upper_envelope(f, G: OperatorGraph, tol=0) -> MaxAffine:
    """Max of the affine supports anchored at the graph pairs.

    Every pair must pass ``subgradient_flags(f, pairs, tol)`` and anchor
    at a finite value; the first pair, in list order, that does not raises.
    f is read once at the anchors, and the flags judge the pairs before the
    first anchor without a finite value from those values.  An
    empty graph yields the empty max, which is -inf everywhere (improper).
    """
    anchors = [a for a, _b in G.pairs]
    values = _values(f, anchors)
    bad = next((i for i, fa in enumerate(values) if not fa.is_finite), len(values))
    for (a, b), ok in zip(G.pairs, subgradient_flags(f, G.pairs[:bad], tol, values[:bad])):
        if not ok:
            raise ValueError(f"pair ({a!r}, {b!r}) fails the subgradient test")
    levels = _levels(f, anchors, values)
    return MaxAffine(G.dim, tuple((a, b, lv) for (a, b), lv in zip(G.pairs, levels)),
                     label=G.label)


def star_cup(f, G: OperatorGraph, xstar) -> ExtReal:
    """sup over graph anchors a of <xstar, a> - f(a); -inf on the empty graph.

    The terms are pieces anchored at the origin.  At xstar = 0 this is minus
    the infimum of f over the anchor set.  On a tie the first maximal anchor
    gives the payload (``first_max_at``).
    """
    o = 0 if G.dim == 1 else (0, 0)
    pieces = tuple((o, a, -lv) for a, lv in _anchor_levels(f, G).items())
    return MaxAffine(G.dim, pieces).first_max_at(xstar)


def circ(f, G: OperatorGraph, dual_points, probes) -> tuple:
    """Sampled double conjugation of f restricted to the graph anchors.

    Returns (probe, value) rows.  Finite dual grids undershoot, so this is a
    lower bound of the exact construction; equality statements live on the
    exact backend (circ_exact).
    """
    levels = _anchor_levels(f, G)
    if not levels:
        return tuple((x, NEG_INF) for x in probes)
    restricted = GridFunction(G.dim, tuple(levels), tuple(map(float, levels.values())))
    conj = conjugate_brute(restricted, tuple(dual_points))
    back = conjugate_brute(conj, tuple(probes))
    return tuple(zip(back.points, back.values))


def n_cup_envelope(f, G: OperatorGraph, n: int) -> MaxAffine:
    """Envelope over chains of n graph pairs, as a max of affine pieces.

    A chain couples the probe to the first anchor, each anchor to the next,
    and pays f at the last anchor.  Maximizing anchor by anchor from the
    tail leaves one piece (a_p, b_p, level_p) per pair: from f(a_p), each
    step sets level_q = max_p level_p + <b_p, a_q - a_p> by ``values_at``
    (one line hull, O(P log P), on an exact 1D graph, O(P^2) otherwise).
    A step may keep q's own pair, so levels never fall, and once one leaves
    every level identical (type, value, a float's sign of zero) the rest
    repeat it: the DP stops there, after one step on a subdifferential
    graph.  A level past the float range is refused; the empty graph gives
    -inf everywhere.  The tests enumerate the chains as an oracle.
    """
    if n not in (2, 3, 4):
        raise ValueError("n must be one of 2, 3, 4")
    *_, env = _n_cup_chain(f, G, n)
    return env


def _n_cup_chain(f, G: OperatorGraph, n: int):
    """``n_cup_envelope(f, G, k)`` for k = 2, ..., n in turn, from one run
    of its DP: one step per k until the levels stop changing, and from then
    on the last envelope again, as the same object."""
    anchors = [a for a, _b in G.pairs]
    pieces = [(a, b, lv) for (a, b), lv in zip(G.pairs, _levels(f, anchors))]
    env, fixed = None, False
    for _ in range(n - 1):
        if not fixed:
            levels = MaxAffine(G.dim, pieces).values_at(anchors)
            new = [
                (a, b, lv.value if lv.is_finite else float(lv))
                for (a, b, _), lv in zip(pieces, levels)
            ]
            fixed = all(
                type(p) is type(q) and p == q and (type(p) is not float or p.hex() == q.hex())
                for (_, _, p), (_, _, q) in zip(pieces, new)
            )
            if not fixed:
                pieces = new
            if not fixed or env is None:
                env = MaxAffine(G.dim, tuple(pieces), label=G.label)
        yield env


def n_cup(f, G: OperatorGraph, n: int, x) -> ExtReal:
    """Value of ``n_cup_envelope(f, G, n)`` at one probe; callers with many
    probes build the envelope once."""
    return n_cup_envelope(f, G, n).value_at(x)


def smile(f, G: OperatorGraph, x) -> ExtReal:
    """Pair-route constrained envelope: the sup of the supports anchored at
    pairs with f(a) <= f(x) only, in pair order (``first_max_at``).

    The constraint is dropped when f(x) = +inf, matching smile_value.
    """
    pts = [x, *(a for a, _b in G.pairs)]
    # f is read once; an exact function takes float probes as the rationals
    # they denote, as subdiff_graph does, so budgets compare exactly
    fx, *values = _values(f, [_exactify(p) for p in pts] if isinstance(f, PLConvex1D) else pts)
    levels = _levels(f, pts[1:], values)
    return MaxAffine(G.dim, tuple(
        (a, b, lv) for (a, b), lv in zip(G.pairs, levels) if fx.is_pos_inf or lv <= fx.finite()
    )).first_max_at(x)


# ---------------------------------------------------------------------------
# portable hull (sampled route)
# ---------------------------------------------------------------------------


def portable_hull(C: SampledSet, N_samples: OperatorGraph, tol=0):
    """Membership predicate for the set cut out by sampled outward normals.

    Each sample (a, a*) must anchor on C and satisfy <c - a, a*> <= tol for
    every sampled point c, else it is rejected.  The predicate keeps x iff
    <x - a, a*> <= tol for all samples; with no samples everything passes.
    Also returns the sampled points that pass: C itself, since the
    validation is the predicate at every sampled point (a NaN product or
    tol fails both).
    """
    if C.dim != N_samples.dim:
        raise ValueError("dimension mismatch")
    cpts = set(C.points)
    for a, b in N_samples.pairs:
        if a not in cpts:
            raise ValueError(f"normal sample anchored off the set: {a!r}")
        if not all(dot(b, point_sub(c, a, C.dim), C.dim) <= tol for c in C.points):
            raise ValueError(f"({a!r}, {b!r}) is not an outward normal")

    def member(x):
        return all(dot(b, point_sub(x, a, C.dim), C.dim) <= tol for a, b in N_samples.pairs)

    return member, C


def _domain_samples(f, G: OperatorGraph) -> SampledSet:
    if isinstance(f, PLConvex1D):
        dom = effective_domain(f)
        pts = [b for b in f.breakpoints if dom.contains(b)]
    elif isinstance(f, GridFunction):
        pts = [p for p, _v in f.finite_items()]
    else:
        raise TypeError("unsupported function representation")
    return SampledSet(G.dim, tuple(dict.fromkeys([*pts, *(a for a, _b in G.pairs)])))


def portable_envelope(f, G: OperatorGraph, N_dom_samples: OperatorGraph, probes) -> tuple:
    """Value table of the envelope confined to the sampled normal-hull of the
    domain: envelope value inside, +inf outside."""
    env = upper_envelope(f, G)
    member, _ = portable_hull(_domain_samples(f, G), N_dom_samples)
    inside = [member(x) for x in probes]
    vals = iter(env.values_at([x for x, m in zip(probes, inside) if m]))
    return tuple((x, next(vals) if m else POS_INF) for x, m in zip(probes, inside))


# ---------------------------------------------------------------------------
# epigraph route
# ---------------------------------------------------------------------------


def epi_normal_graph(f: PLConvex1D, G: OperatorGraph | None = None) -> OperatorGraph:
    """Outward normal samples of the epigraph.

    Each graph pair (a, a*) lifts to the normal (a*, -1) at (a, f(a)).  A
    closed domain wall additionally carries a horizontal normal, which is
    exactly the alpha = 0 case the membership test must ignore.
    """
    if G is None:
        G = subdiff_graph(f)
    levels = _levels(f, [a for a, _b in G.pairs])
    pairs = [((a, lv), (b, Fraction(-1))) for (a, b), lv in zip(G.pairs, levels)]
    if f.left_recession is None and f.override_left is None:
        pairs.append(
            ((f.breakpoints[0], f.values[0]), (Fraction(-1), Fraction(0)))
        )
    if f.right_recession is None and f.override_right is None:
        pairs.append(
            ((f.breakpoints[-1], f.values[-1]), (Fraction(1), Fraction(0)))
        )
    return OperatorGraph(2, tuple(pairs), label=f.label)


def epi_cup_floor(f: PLConvex1D, G_full: OperatorGraph) -> MaxAffine:
    """The non-horizontal support inequalities as one MaxAffine.

    Samples are validated first: anchors must sit on the graph of f, normals
    may not point upward, and each must support the epigraph along every
    recession direction and at every breakpoint, read at the closure's
    (listed) values, so an override admits no cut the adjacent segment
    rules out.  With alpha <= 0, (y - a) a* + (cl f(y) - t) alpha is concave
    along the breakpoints, greatest at k = #{j : a* + alpha s_j > 0}: one
    bisection per sample, O(P log m).  A cut (a, t, a*, alpha) with alpha < 0
    holds at (x, v) exactly when v >= t + (x - a) a*/(-alpha), so the cuts
    become the pieces (a, a*/(-alpha), t); horizontal cuts constrain nothing.
    """
    if G_full.dim != 2:
        raise ValueError("epigraph samples live in dimension 2")
    b, v, s = f.breakpoints, f.values, f.slopes()
    fas = f.values_at([a for (a, _t), _n in G_full.pairs])
    for ((a, t), (astar, alpha)), fa in zip(G_full.pairs, fas):
        if not fa.is_finite or fa.finite() != t:
            raise ValueError(f"sample anchored off the graph: {(a, t)!r}")
        if alpha > 0:
            raise ValueError("epigraph normals cannot point upward")
        k = bisect_left(s, 0, key=lambda sj: -astar - alpha * sj)
        if (b[k] - a) * astar + (v[k] - t) * alpha > 0:
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


# ---------------------------------------------------------------------------
# approximate-subgradient pair search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrondstedResult:
    """Outcome of the graph scan for a nearby exact pair.

    Distances are carried exactly; ``found`` certifies the renormalized
    bounds (primal gap scaled up by 1 + |x*|, dual gap scaled down by it,
    both at most sqrt(eps)) together with the coupling lower bound
    <x - a, a*> >= -(eps + sqrt(eps)).  Comparisons against sqrt(eps) are
    done on squares, so no roots are ever taken.
    """

    point: object
    dual: object
    found: bool
    primal_gap: Fraction
    dual_gap: Fraction
    scale: Fraction
    product: Fraction

    @property
    def pair(self):
        return (self.point, self.dual)

    def renorm_ok(self, eps) -> bool:
        return _renorm_ok(self.primal_gap, self.dual_gap, self.scale, _exactify(eps))

    def product_ok(self, eps) -> bool:
        return _product_ok(self.product, _exactify(eps))


def _renorm_ok(primal_gap, dual_gap, scale, eps) -> bool:
    return (primal_gap * scale) ** 2 <= eps and dual_gap**2 <= eps * scale**2


def _product_ok(product, eps) -> bool:
    t = -(product + eps)
    return t <= 0 or t * t <= eps


_NUDGE = Fraction(1, 2**40)


def brondsted_search(f: PLConvex1D, x, xstar, eps) -> BrondstedResult:
    """Scan the exact graph for a pair close to (x, x*) in the scaled norms:
    the one-eps case of ``brondsted_ladder``.

    Candidates are the per-breakpoint dual clamps and the per-segment primal
    clamps; a clamp landing on an endpoint without subgradients steps a hair
    into the segment.  Dual clamps distinguish finite subgradient data from
    unbounded interval ends: finite-data candidates are preferred, and a
    dual point inside an unbounded end is used only when no finite-data
    candidate meets the bounds.  ``found=False`` reports the best failing
    candidate; for lsc convex input that outcome indicates a bug upstream.
    """
    return next(brondsted_ladder(f, x, xstar, (eps,)))


def brondsted_ladder(f: PLConvex1D, x, xstar, epss):
    """``brondsted_search(f, x, xstar, eps)`` for each eps of
    epss in turn, as a generator: the candidates, with their gaps, products
    and keys, are built once, with f(x) and f*(x*) read once, and each eps
    filters them.  Each eps's preconditions are checked when it is reached.

    A candidate meets the renormalized bounds at eps exactly when
    max((primal gap * scale)^2, (dual gap / scale)^2) is at most eps, that
    is when its key max(primal gap * scale^2, dual gap)^2 is at most
    eps * scale^2.  So each family is sorted once by key (stably: of equal
    keys the first listed wins) and an eps scans it only up to its first
    key above eps * scale^2.
    """
    x = _exactify(x)
    xstar = _exactify(xstar)
    finite = None
    for eps in epss:
        eps = _positive_eps(eps)
        if finite is None:
            fx = f.value_at(x)
            if not fx.is_finite:
                raise ValueError("x is outside the domain")
            gap = eps_subdiff_gap(f, x, xstar, fx)
        if gap is None or gap > eps:
            raise ValueError("xstar is not an eps-subgradient at x")
        if finite is None:
            finite, extended, scale = _brondsted_candidates(f, x, xstar)
        row, found = _brondsted_pick(finite, extended, eps * scale * scale, eps)
        _key, pg, dg, product, a, b = row
        yield BrondstedResult(a, b, found, pg, dg, scale, product)


def _brondsted_candidates(f: PLConvex1D, x, xstar):
    """(finite-data rows, extended rows, scale) of ``brondsted_ladder``:
    each row (key, primal gap, dual gap, product, a, b) for a candidate
    pair (a, b), each family sorted stably by key."""
    st = subdiff_structure(f)
    scale = 1 + abs(xstar)

    finite_cands = []
    extended_cands = []
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

    excluded = set(lsc_defect(f))  # the raised ends
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

    s2 = scale * scale

    def rows(cands):
        out = []
        for a, b in cands:
            pg, dg = abs(x - a), abs(xstar - b)
            m = max(pg * s2, dg)
            out.append((m * m, pg, dg, (x - a) * b, a, b))
        out.sort(key=itemgetter(0))
        return out

    return rows(finite_cands), rows(extended_cands), scale


def _brondsted_pick(finite, extended, bound, eps):
    """(row, True) for the least-key candidate that meets the bounds at eps
    (the bounds of ``BrondstedResult.renorm_ok`` and ``product_ok``; its
    key is at most ``bound``, eps * scale^2), finite-data ones first;
    failing that, (the least-key row overall, False)."""
    for rows in (finite, extended):
        for row in rows:
            if row[0] > bound:
                break
            if _product_ok(row[3], eps):
                return row, True
    best = finite[:1] + extended[:1]
    if not best:
        raise ValueError("the subdifferential graph is empty")
    return min(best, key=itemgetter(0)), False


# ---------------------------------------------------------------------------
# command-line entry point
# ---------------------------------------------------------------------------

KINDS = ("cup", "sharp", "starcup", "circ", "ncup", "smile", "smileeps")


def envelope_result(f, kind: str, probes, n: int | None = None, eps=None) -> tuple:
    """The (probe, value) rows of one envelope of a PLConvex1D, evaluated on
    its interval structure; the command line's entry.  Kinds: cup, sharp,
    starcup, circ, ncup, smile, smileeps.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown envelope kind {kind!r}")
    if not isinstance(f, PLConvex1D):
        raise TypeError("envelopes need a PLConvex1D instance")
    if kind == "ncup" and n is None:
        raise ValueError("ncup needs n")
    if kind == "smileeps" and eps is None:
        raise ValueError("smileeps needs eps")
    if kind == "starcup":
        return tuple(zip(probes, star_cup_exact(f).values_at(probes)))
    if kind == "circ":
        return tuple(zip(probes, circ_exact(f).values_at(probes)))
    if kind == "ncup":
        env = n_cup_envelope(f, subdiff_graph(f, probes=probes), n)
        return tuple(zip(probes, env.values_at([_exactify(p) for p in probes])))
    return tuple(zip(probes, envelope_values(f, kind, probes, eps)))
