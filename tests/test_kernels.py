"""Differential tests: the exact sweep kernels against their direct routes.

The oracles below are the per-probe case analyses the kernels replaced:
a linear scan over every point and segment of the structure for the
budgeted support sup and for the Fitzpatrick function, a linear scan for
the subgradient interval, and the quadratic max for the conjugate.  They
live here only, as references; every comparison is exact.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from envcalc.extreal import NEG_INF, POS_INF, as_extreal
from envcalc.funcrep import Interval1D, PLConvex1D
from envcalc.envelopes import cup_value, smile_eps_value, smile_value
from envcalc.operators import (
    fitzpatrick_structured,
    fitzpatrick_table,
    subdiff_exact,
    subdiff_structure,
)
from envcalc.transforms import conjugate_exact


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def threshold_sup_oracle(st_, x, theta=None, strict=False):
    """sup of the supports whose anchor value passes the budget, by scan."""
    best = NEG_INF
    for a, v, lo, hi in st_.points:
        if theta is not None and ((v >= theta) if strict else (v > theta)):
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
                admit = (rv < theta) if strict else (rv <= theta)
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


# ---------------------------------------------------------------------------
# instances and probes
# ---------------------------------------------------------------------------

small = st.fractions(min_value=0, max_value=3, max_denominator=3)


@st.composite
def pl_functions(draw):
    """Convex PL functions with m in 1..12, frequent slope ties and zero
    slopes, walls or recessions (sometimes equal to the edge slope), and
    finite or +inf overrides on walls."""
    m = draw(st.integers(min_value=1, max_value=12))
    xs = [draw(st.fractions(min_value=-6, max_value=2, max_denominator=4))]
    for _ in range(m - 1):
        xs.append(xs[-1] + draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)))
    s = draw(st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=2, max_denominator=3)))
    slopes = []
    for _ in range(m - 1):
        slopes.append(s)
        s += draw(st.one_of(st.just(F(0)), small))
    vals = [draw(st.fractions(min_value=-4, max_value=4, max_denominator=4))]
    for i in range(m - 1):
        vals.append(vals[i] + slopes[i] * (xs[i + 1] - xs[i]))
    first = slopes[0] if slopes else draw(st.fractions(min_value=-2, max_value=1, max_denominator=2))
    last = slopes[-1] if slopes else first
    left = draw(st.one_of(st.none(), st.builds(lambda d: first - d, small)))
    right = draw(st.one_of(st.none(), st.builds(lambda d: last + d, small)))
    overrides = st.one_of(
        st.none(), st.just(POS_INF), st.builds(lambda d: d + F(1, 5), small)
    )
    ovl = ovr = None
    if m >= 2 and left is None:
        ovl = draw(overrides)
        ovl = ovl if ovl is None or ovl is POS_INF else vals[0] + ovl
    if m >= 2 and right is None:
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
    for x in primal_points(f, extra):
        fx = f.value_at(x)
        assert st_.sup(x) == threshold_sup_oracle(st_, x)
        assert cup_value(f, x, st=st_) == threshold_sup_oracle(st_, x)
        for strict in (False, True):
            want = threshold_sup_oracle(
                st_, x, None if fx.is_pos_inf else fx.finite(), strict
            )
            assert smile_value(f, x, st=st_, strict=strict) == want
        for eps in (F(1, 7), F(2)):
            want = threshold_sup_oracle(
                st_, x, None if fx.is_pos_inf else fx.finite() + eps
            )
            assert smile_eps_value(f, x, eps, st=st_) == want
        for theta in budgets:
            for strict in (False, True):
                assert st_.sup(x, theta, strict) == threshold_sup_oracle(
                    st_, x, theta, strict
                ), (x, theta, strict)


@given(pl_functions(), extras, extras, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_fitzpatrick_table_matches_scan(f, xextra, yextra, rnd):
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
                assert fitzpatrick_structured(st_, x, y) == want


@given(pl_functions(), extras)
@settings(max_examples=100, deadline=None)
def test_subdiff_and_conjugate_match_scans(f, extra):
    for x in primal_points(f, extra):
        assert subdiff_exact(f, x) == subdiff_oracle(f, x)
    g = conjugate_exact(f)
    assert (g.breakpoints, g.values, g.left_recession, g.right_recession) == conjugate_oracle(f)
