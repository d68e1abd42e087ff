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

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .extreal import ExtReal, NEG_INF, POS_INF, as_extreal, ext_sup
from .funcrep import (
    GridFunction,
    Interval1D,
    MaxAffine,
    PLConvex1D,
    SampledSet,
    dot,
    effective_domain,
    point_sub,
)
from .operators import (
    OperatorGraph,
    _exactify,
    eps_subdiff_test,
    subdiff_graph,
    subdiff_structure,
    subgradient_test,
)
from .transforms import conjugate_brute, conjugate_exact


# ---------------------------------------------------------------------------
# exact engine
# ---------------------------------------------------------------------------


def envelope_values(f: PLConvex1D, kind: str, xs, eps=None, st=None) -> list:
    """The exact envelope ``kind`` at every probe of xs, in their order,
    from one ``st.sups`` (``st`` is f's structure, built when None).

    cup sups every support; sharp is cup inside the closed normal hull of
    the domain and +inf outside; smile admits only anchors with f(a) <=
    f(x), smileeps those with f(a) <= f(x) + eps, with the budgets read
    by one ``f.values_at`` and dropped where f(x) = +inf.
    """
    xs = [_exactify(x) for x in xs]
    if st is None:
        st = subdiff_structure(f)
    if kind in ("cup", "sharp"):
        vals = st.sups(xs)
        if kind == "sharp":
            hull = portable_hull_interval(effective_domain(f))
            vals = [v if hull.contains(x) else POS_INF for x, v in zip(xs, vals)]
        return vals
    slack = 0 if kind == "smile" else _positive_eps(eps)
    fxs = f.values_at(xs)
    return st.sups(xs, [None if fx.is_pos_inf else fx.finite() + slack for fx in fxs])


def cup_value(f: PLConvex1D, x, st=None) -> ExtReal:
    """Exact upper envelope of all subdifferential supports at one probe."""
    return envelope_values(f, "cup", [x], st=st)[0]


def sharp_value(f: PLConvex1D, x, st=None) -> ExtReal:
    """Upper envelope plus the indicator of the normal-hull of the domain."""
    return envelope_values(f, "sharp", [x], st=st)[0]


def smile_value(f: PLConvex1D, x, st=None) -> ExtReal:
    """Exact constrained envelope: only anchors with f(a) <= f(x) count;
    where f(x) = +inf the constraint is dropped and cup_value remains."""
    return envelope_values(f, "smile", [x], st=st)[0]


def smile_eps_value(f: PLConvex1D, x, eps, st=None) -> ExtReal:
    """Exact relaxed constrained envelope: anchors with f(a) <= f(x) + eps."""
    return envelope_values(f, "smileeps", [x], eps, st)[0]


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
    s = g.slopes()
    first = s[0] if s else g.right_recession
    last = s[-1] if s else g.left_recession
    lrec = first if f.override_left is not None else g.left_recession
    rrec = last if f.override_right is not None else g.right_recession
    return PLConvex1D._make(
        g.breakpoints, g.values, lrec, rrec, label=f.label, slopes=s
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


def _level(f, a, value_at=None):
    """f(a) as a finite scalar: the level of the support anchored at a.
    ``value_at(f, a)``, when given, reads f(a) in place of f.value_at(a)."""
    fa = f.value_at(a) if value_at is None else value_at(f, a)
    if not fa.is_finite:
        raise ValueError(f"anchor {a!r} has no finite value")
    return fa.finite()


def upper_envelope(f, G: OperatorGraph, tol=0) -> MaxAffine:
    """Max of the affine supports anchored at the graph pairs.

    Every pair must pass ``subgradient_test(f, tol)`` and anchor at a
    finite value; violations raise.  An empty graph yields the empty max,
    which is -inf everywhere (improper).
    """
    member = subgradient_test(f, tol)
    pieces = []
    for a, b in G.pairs:
        fa = _level(f, a)
        if not member(a, b):
            raise ValueError(f"pair ({a!r}, {b!r}) fails the subgradient test")
        pieces.append((a, b, fa))
    return MaxAffine(G.dim, tuple(pieces), label=G.label)


def _star_pieces(f, G: OperatorGraph) -> MaxAffine:
    """xstar -> <xstar, a> - f(a) over the graph anchors a, as pieces
    anchored at the origin."""
    o = 0 if G.dim == 1 else (0, 0)
    anchors = {a for a, _b in G.pairs}
    return MaxAffine(G.dim, tuple((o, a, -_level(f, a)) for a in anchors))


def star_cup(f, G: OperatorGraph, xstar) -> ExtReal:
    """sup over graph anchors a of <xstar, a> - f(a); -inf on the empty graph.

    At xstar = 0 this is minus the infimum of f over the anchor set.  On a
    tie the first maximal anchor gives the payload (``first_max_at``).
    """
    return _star_pieces(f, G).first_max_at(xstar)


def circ(f, G: OperatorGraph, dual_points, probes) -> tuple:
    """Sampled double conjugation of f restricted to the graph anchors.

    Returns (probe, value) rows.  Finite dual grids undershoot, so this is a
    lower bound of the exact construction; equality statements live on the
    exact backend (circ_exact).
    """
    anchors = tuple({a for a, _b in G.pairs})
    if not anchors:
        return tuple((x, NEG_INF) for x in probes)
    vals = tuple(float(_level(f, a)) for a in anchors)
    restricted = GridFunction(G.dim, anchors, vals)
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
    graph.  Overflowing float levels stay float infinities; the empty graph
    gives -inf everywhere.  n_cup_enum enumerates the chains as an oracle.
    """
    if n not in (2, 3, 4):
        raise ValueError("n must be one of 2, 3, 4")
    pieces = [(a, b, _level(f, a)) for a, b in G.pairs]
    anchors = [a for a, _b in G.pairs]
    for _ in range(n - 1):
        levels = MaxAffine(G.dim, pieces).values_at(anchors)
        new = [
            (a, b, lv.value if lv.is_finite else float(lv))
            for (a, b, _), lv in zip(pieces, levels)
        ]
        if all(type(p) is type(q) and p == q and (type(p) is not float or p.hex() == q.hex())
               for (_, _, p), (_, _, q) in zip(pieces, new)):
            break
        pieces = new
    return MaxAffine(G.dim, tuple(pieces), label=G.label)


def n_cup(f, G: OperatorGraph, n: int, x) -> ExtReal:
    """Value of ``n_cup_envelope(f, G, n)`` at one probe; callers with many
    probes build the envelope once."""
    return n_cup_envelope(f, G, n).value_at(x)


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


def _budget_value(f, x) -> ExtReal:
    # an exact function takes float probes as the rationals they denote, as
    # subdiff_graph does, so budgets compare exactly; grids look floats up
    if isinstance(f, PLConvex1D):
        x = _exactify(x)
    return f.value_at(x)


def _budgeted_sup(f, G: OperatorGraph, x, slack) -> ExtReal:
    """sup of the supports anchored at pairs with f(a) <= f(x) + slack; the
    budget is dropped when f(x) = +inf."""
    fx = _budget_value(f, x)
    pieces = ((a, b, _level(f, a, _budget_value)) for a, b in G.pairs)
    return ext_sup(
        fa + dot(b, point_sub(x, a, G.dim), G.dim)
        for a, b, fa in pieces
        if fx.is_pos_inf or fa <= fx.finite() + slack
    )


def smile(f, G: OperatorGraph, x) -> ExtReal:
    """Pair-route constrained envelope: anchors with f(a) <= f(x) only.

    The constraint is dropped when f(x) = +inf, matching smile_value.
    """
    return _budgeted_sup(f, G, x, 0)


def smile_eps(f, G: OperatorGraph, x, eps) -> ExtReal:
    """Pair-route relaxed constrained envelope: f(a) <= f(x) + eps."""
    return _budgeted_sup(f, G, x, _positive_eps(eps))


# ---------------------------------------------------------------------------
# portable hull (sampled route)
# ---------------------------------------------------------------------------


def portable_hull(C: SampledSet, N_samples: OperatorGraph, tol=0):
    """Membership predicate for the set cut out by sampled outward normals.

    Each sample (a, a*) must anchor on C and satisfy <c - a, a*> <= tol for
    every sampled point c, else it is rejected.  The predicate keeps x iff
    <x - a, a*> <= tol for all samples; with no samples everything passes.
    Also returns the sampled points that pass (all of them, by construction:
    the set always contains its own samples).
    """
    if C.dim != N_samples.dim:
        raise ValueError("dimension mismatch")
    cpts = set(C.points)
    for a, b in N_samples.pairs:
        if a not in cpts:
            raise ValueError(f"normal sample anchored off the set: {a!r}")
        for c in C.points:
            if dot(b, point_sub(c, a, C.dim), C.dim) > tol:
                raise ValueError(f"({a!r}, {b!r}) is not an outward normal")

    def member(x):
        return all(
            dot(b, point_sub(x, a, C.dim), C.dim) <= tol for a, b in N_samples.pairs
        )

    passed = tuple(p for p in C.points if member(p))
    return member, SampledSet(C.dim, passed, label=C.label)


def _domain_samples(f, G: OperatorGraph) -> SampledSet:
    pts = []
    if isinstance(f, PLConvex1D):
        dom = effective_domain(f)
        for b in f.breakpoints:
            if dom.contains(b):
                pts.append(b)
    elif isinstance(f, GridFunction):
        pts = [p for p, _v in f.finite_items()]
    else:
        raise TypeError("unsupported function representation")
    seen = set(pts)
    for a, _b in G.pairs:
        if a not in seen:
            seen.add(a)
            pts.append(a)
    return SampledSet(G.dim, tuple(pts))


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
    pairs = [((a, _level(f, a)), (b, Fraction(-1))) for a, b in G.pairs]
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
    for (a, t), (astar, alpha) in G_full.pairs:
        fa = f.value_at(a)
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


def brondsted_search(f: PLConvex1D, x, xstar, eps, st=None, conj=None) -> BrondstedResult:
    """Scan the exact graph for a pair close to (x, x*) in the scaled norms.

    Candidates are the per-breakpoint dual clamps and the per-segment primal
    clamps; a clamp landing on an endpoint without subgradients steps a hair
    into the segment.  Dual clamps distinguish finite subgradient data from
    unbounded interval ends: finite-data candidates are preferred, and a
    dual point inside an unbounded end is used only when no finite-data
    candidate meets the bounds.  ``found=False`` reports the best failing
    candidate; for lsc convex input that outcome indicates a bug upstream.
    ``st`` and ``conj``, when given, are f's structure and conjugate.
    """
    x = _exactify(x)
    xstar = _exactify(xstar)
    eps = _positive_eps(eps)
    if not f.value_at(x).is_finite:
        raise ValueError("x is outside the domain")
    if not eps_subdiff_test(f, x, xstar, eps, conj=conj):
        raise ValueError("xstar is not an eps-subgradient at x")
    if st is None:
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
        # the bounds of BrondstedResult.renorm_ok and product_ok
        return _renorm_ok(*gaps(c), scale, eps) and _product_ok((x - c[0]) * c[1], eps)

    def key(c):
        pg, dg = gaps(c)
        return max((pg * scale) ** 2, (dg / scale) ** 2)

    passing = [c for c in finite_cands if ok(c)] or [c for c in extended_cands if ok(c)]
    cands = passing or finite_cands + extended_cands
    if not cands:
        raise ValueError("the subdifferential graph is empty")
    a, b = min(cands, key=key)
    return BrondstedResult(
        a, b, bool(passing), abs(x - a), abs(xstar - b), scale, (x - a) * b
    )


# ---------------------------------------------------------------------------
# command-line entry point
# ---------------------------------------------------------------------------

KINDS = ("cup", "sharp", "starcup", "circ", "ncup", "smile", "smileeps")


def envelope_result(
    f,
    kind: str,
    probes,
    n: int | None = None,
    eps=None,
    dual_points=None,
    backend: str = "exact",
) -> tuple:
    """The (probe, value) rows of one envelope; the command line's entry.

    Both backends need a PLConvex1D.  The exact backend evaluates the
    interval structure; the grid backend runs the pair routes on
    ``subdiff_graph(f, probes)``.  Kinds: cup, sharp, starcup, circ, ncup,
    smile, smileeps.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown envelope kind {kind!r}")
    if not isinstance(f, PLConvex1D):
        raise TypeError(f"the {backend} backend needs a PLConvex1D instance")
    if kind == "ncup" and n is None:
        raise ValueError("ncup needs n")
    if kind == "smileeps" and eps is None:
        raise ValueError("smileeps needs eps")
    if backend == "exact":
        if kind == "starcup":
            return tuple(zip(probes, star_cup_exact(f).values_at(probes)))
        if kind == "circ":
            return tuple(zip(probes, circ_exact(f).values_at(probes)))
        if kind == "ncup":
            env = n_cup_envelope(f, subdiff_graph(f, probes=probes), n)
            return tuple(zip(probes, env.values_at([_exactify(p) for p in probes])))
        return tuple(zip(probes, envelope_values(f, kind, probes, eps)))
    G = subdiff_graph(f, probes=probes)
    if kind == "cup":
        return tuple(zip(probes, upper_envelope(f, G).values_at(probes)))
    if kind == "sharp":
        # without supplied normal samples the sampled hull is everything
        return portable_envelope(f, G, OperatorGraph(G.dim, ()), probes)
    if kind == "starcup":
        return tuple(zip(probes, _star_pieces(f, G).values_at(probes)))
    if kind == "circ":
        if dual_points is None:
            raise ValueError("circ needs a dual grid")
        return circ(f, G, dual_points, probes)
    if kind == "ncup":
        return tuple(zip(probes, n_cup_envelope(f, G, n).values_at(probes)))
    if kind == "smile":
        return tuple((p, smile(f, G, p)) for p in probes)
    return tuple((p, smile_eps(f, G, p, eps)) for p in probes)
