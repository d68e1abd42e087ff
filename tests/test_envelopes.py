import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from envcalc.extreal import NEG_INF, POS_INF, as_extreal
from envcalc.funcrep import (
    Interval1D,
    PLConvex1D,
    SampledSet,
    pl_equal,
)
from envcalc.operators import OperatorGraph, eps_subdiff_interval, subdiff_graph
from envcalc.transforms import conjugate_exact
from envcalc.envelopes import (
    BrondstedResult,
    brondsted_search,
    circ,
    circ_exact,
    cup_exact,
    cup_value,
    envelope_result,
    epi_cup_floor,
    epi_normal_graph,
    n_cup,
    portable_hull,
    portable_hull_interval,
    sharp_exact,
    sharp_value,
    smile,
    smile_eps_value,
    smile_value,
    star_cup,
    star_cup_exact,
    upper_envelope,
)

from test_funcrep import ABS, convex_pl
from test_kernels import cup_dual_value_oracle, epi_member, n_cup_enum, star_cup_dual_oracle

OPEN_UNIT = PLConvex1D((F(0), F(1)), (F(0), F(0)), None, None, POS_INF, POS_INF)
RAISED = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(2), None)


# ---------------------------------------------------------------------------
# exact family on closed instances
# ---------------------------------------------------------------------------


def test_abs_equals_all_its_envelopes():
    for x in (F(-3), F(-1, 2), F(0), F(1), F(7, 3)):
        v = ABS.value_at(x)
        assert cup_value(ABS, x) == v
        assert sharp_value(ABS, x) == v
        assert smile_value(ABS, x) == v
    assert pl_equal(circ_exact(ABS), ABS)
    conj = star_cup_exact(ABS)
    assert conj.value_at(F(1, 2)) == 0
    assert conj.value_at(F(2)).is_pos_inf


def test_open_interval_indicator_family():
    for x in (F(-5), F(0), F(1, 2), F(1), F(5)):
        assert cup_value(OPEN_UNIT, x) == 0
        assert sharp_value(OPEN_UNIT, x) == 0
    closed = PLConvex1D((F(0), F(1)), (F(0), F(0)))
    assert pl_equal(circ_exact(OPEN_UNIT), closed)


def test_cup_drops_raised_endpoint():
    assert RAISED.value_at(F(0)) == 2
    assert cup_value(RAISED, F(0)) == 0
    # the wall is gone too: supports extend past the old endpoint
    assert cup_value(RAISED, F(-1)) == -1
    g = cup_exact(RAISED)
    assert g.value_at(F(-1)) == -1


def test_sharp_restricts_to_portable_hull():
    # the raised endpoint keeps a closed finite end, so its normal survives
    assert sharp_value(RAISED, F(-1)).is_pos_inf
    assert cup_value(RAISED, F(-1)) == -1
    assert sharp_value(RAISED, F(1, 2)) == F(1, 2)
    g = sharp_exact(RAISED)
    assert g.value_at(F(-1)).is_pos_inf


def test_portable_hull_interval_drops_open_ends():
    assert portable_hull_interval(Interval1D(F(0), F(1), True, True)) == Interval1D(
        None, None
    )
    assert portable_hull_interval(Interval1D(F(0), F(1), True, False)) == Interval1D(
        None, F(1)
    )
    assert portable_hull_interval(Interval1D(F(0), F(1))) == Interval1D(F(0), F(1))


@given(convex_pl(), st.fractions(min_value=-8, max_value=4, max_denominator=6))
@settings(max_examples=40, deadline=None)
def test_envelope_chain_ordering(f, x):
    lo = smile_value(f, x)
    mid = cup_value(f, x)
    hi = sharp_value(f, x)
    assert lo <= mid <= hi <= f.value_at(x)


@given(convex_pl(), st.fractions(min_value=-8, max_value=4, max_denominator=6))
@settings(max_examples=30, deadline=None)
def test_smile_recovers_lsc_convex(f, x):
    assert smile_value(f, x) == f.value_at(x)
    assert smile_eps_value(f, x, F(1, 10)) == f.value_at(x)
    assert smile_eps_value(f, x, F(1)) == f.value_at(x)


# ---------------------------------------------------------------------------
# conjugate-side identities
# ---------------------------------------------------------------------------


@given(convex_pl())
@settings(max_examples=30, deadline=None)
def test_star_cup_at_zero_is_minus_infimum(f):
    if f.left_recession is not None and f.left_recession > 0:
        inf = NEG_INF
    elif f.right_recession is not None and f.right_recession < 0:
        inf = NEG_INF
    else:
        inf = as_extreal(min(f.values))
    got = star_cup_exact(f).value_at(F(0))
    if inf.is_neg_inf:
        assert got.is_pos_inf
    else:
        assert got == as_extreal(-inf.finite())


@given(convex_pl())
@settings(max_examples=25, deadline=None)
def test_conjugate_route_identities(f):
    assert pl_equal(star_cup_exact(f), conjugate_exact(circ_exact(f)))
    assert pl_equal(
        circ_exact(conjugate_exact(f)), conjugate_exact(cup_exact(f))
    )


@given(convex_pl())
@settings(max_examples=25, deadline=None)
def test_circ_is_idempotent(f):
    g = circ_exact(f)
    assert pl_equal(circ_exact(g), g)


def test_circ_identities_on_raised_endpoint():
    assert pl_equal(star_cup_exact(RAISED), conjugate_exact(circ_exact(RAISED)))
    g = circ_exact(RAISED)
    # double conjugation flattens the raise back onto the closure
    assert g.value_at(F(0)) == 0
    assert pl_equal(circ_exact(g), g)


# ---------------------------------------------------------------------------
# pair routes against the exact backend
# ---------------------------------------------------------------------------


@given(convex_pl(), st.fractions(min_value=-6, max_value=4, max_denominator=4))
@settings(max_examples=30, deadline=None)
def test_cup_dual_route_matches_support_route(f, x):
    G = subdiff_graph(f)
    env = upper_envelope(f, G)
    assert cup_dual_value_oracle(f, G, x) == env.value_at(x)


@given(convex_pl(), st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=30, deadline=None)
def test_star_cup_routes_agree(f, xstar):
    G = subdiff_graph(f)
    assert star_cup(f, G, xstar) == star_cup_dual_oracle(f, G, xstar)


def test_star_cup_empty_graph():
    assert star_cup(ABS, OperatorGraph(1, ()), F(0)).is_neg_inf


@given(convex_pl(), st.fractions(min_value=-4, max_value=4, max_denominator=2))
@settings(max_examples=20, deadline=None)
def test_sampled_circ_is_lower_bound(f, x):
    # dual points drawn from the graph keep the inner conjugate exact
    # there, so truncation can only undershoot
    G = subdiff_graph(f)
    duals = sorted({b for _a, b in G.pairs})
    rows = circ(f, G, duals, [x])
    exact = circ_exact(f).value_at(x)
    for _p, v in rows:
        # the sampled route runs on floats; the exact value may be +inf
        if not exact.is_pos_inf:
            assert float(v) <= float(exact.finite()) + 1e-9


# ---------------------------------------------------------------------------
# chained envelopes
# ---------------------------------------------------------------------------


def test_ncup_dp_matches_enumeration_on_abs():
    G = subdiff_graph(ABS)
    for n in (2, 3):
        for x in (F(-2), F(0), F(1, 3), F(3)):
            assert n_cup(ABS, G, n, x) == n_cup_enum(ABS, G, n, x)


def test_ncup_rejects_bad_depth():
    G = subdiff_graph(ABS)
    with pytest.raises(ValueError):
        n_cup(ABS, G, 1, F(0))
    with pytest.raises(ValueError):
        n_cup(ABS, G, 5, F(0))


@given(convex_pl(), st.fractions(min_value=-6, max_value=4, max_denominator=4))
@settings(max_examples=25, deadline=None)
def test_chains_collapse_to_single_supports(f, x):
    # subgradient pairs only lose value along a chain, so depth never helps
    G = subdiff_graph(f)
    base = upper_envelope(f, G).value_at(x)
    for n in (2, 3, 4):
        assert n_cup(f, G, n, x) == base
    assert n_cup(f, G, 2, x) == n_cup_enum(f, G, 2, x)


def test_smile_pair_route_matches_exact_on_abs():
    G = subdiff_graph(ABS)
    for x in (F(-2), F(0), F(1), F(5, 2)):
        assert smile(ABS, G, x) == smile_value(ABS, x)


# ---------------------------------------------------------------------------
# epigraph route
# ---------------------------------------------------------------------------


@given(
    convex_pl(),
    st.fractions(min_value=-5, max_value=4, max_denominator=4),
    st.fractions(min_value=-6, max_value=8, max_denominator=4),
)
@settings(max_examples=25, deadline=None)
def test_epi_membership_is_envelope_comparison(f, x, v):
    G2 = epi_normal_graph(f)
    vals = [
        t + astar * (x - a)
        for (a, t), (astar, alpha) in G2.pairs
        if alpha != 0
    ]
    want = as_extreal(v) >= as_extreal(max(vals))
    assert epi_member(epi_cup_floor(f, G2), (x, v)) == want


def test_epi_membership_validates_samples():
    bad_anchor = OperatorGraph(2, (((F(0), F(5)), (F(0), F(-1))),))
    with pytest.raises(ValueError):
        epi_cup_floor(ABS, bad_anchor)
    upward = OperatorGraph(2, (((F(1), F(1)), (F(1), F(1))),))
    with pytest.raises(ValueError):
        epi_cup_floor(ABS, upward)


def test_wall_normals_are_horizontal_and_ignored():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)))
    G2 = epi_normal_graph(f)
    horiz = [(p, n) for p, n in G2.pairs if n[1] == 0]
    assert {n[0] for _p, n in horiz} == {F(-1), F(1)}
    # past the wall only the slanted supports decide; the steepest sampled
    # dual at the left endpoint is -2, giving the value 2 at x = -1
    floor = epi_cup_floor(f, G2)
    assert epi_member(floor, (F(-1), F(2)))
    assert not epi_member(floor, (F(-1), F(3, 2)))


def test_open_ends_bound_pairs_and_cuts_through_the_closure():
    # on the open interval (0, 1) the only subgradient at 1/2 is 0; the
    # closure's value 0 at the open ends rules every other slope out
    with pytest.raises(ValueError, match="fails the subgradient test"):
        upper_envelope(OPEN_UNIT, OperatorGraph(1, ((F(1, 2), F(-1, 2)),)))
    assert upper_envelope(OPEN_UNIT, OperatorGraph(1, ((F(1, 2), F(0)),))).pieces
    sample = OperatorGraph(2, (((F(1, 2), F(0)), (F(-1, 2), F(-1))),))
    with pytest.raises(ValueError, match="fails support"):
        epi_cup_floor(OPEN_UNIT, sample)


# ---------------------------------------------------------------------------
# sampled hulls
# ---------------------------------------------------------------------------


def test_portable_hull_sampled_membership():
    C = SampledSet(1, (F(0), F(1, 2), F(1)))
    N = OperatorGraph(1, ((F(0), F(-1)), (F(1), F(1))))
    member, kept = portable_hull(C, N)
    assert member(F(1, 2)) and member(F(0)) and member(F(1))
    assert not member(F(2)) and not member(F(-1, 4))
    assert kept.points == C.points


def test_portable_hull_rejects_inward_sample():
    C = SampledSet(1, (F(0), F(1)))
    with pytest.raises(ValueError):
        portable_hull(C, OperatorGraph(1, ((F(0), F(1)),)))
    with pytest.raises(ValueError):
        portable_hull(C, OperatorGraph(1, ((F(1, 2), F(1)),)))
    # a NaN tol fails the predicate at every sampled point, so no sample
    # passes the validation, which is that predicate
    with pytest.raises(ValueError, match="not an outward normal"):
        portable_hull(C, OperatorGraph(1, ((F(1), F(1)),)), math.nan)


# ---------------------------------------------------------------------------
# approximate pair search
# ---------------------------------------------------------------------------


def test_brondsted_exact_membership_has_zero_gaps():
    res = brondsted_search(ABS, F(1, 2), F(1), F(1, 10000))
    assert res.found
    assert res.primal_gap == 0 and res.dual_gap == 0
    assert res.pair == (F(1, 2), F(1))
    assert res.product == 0


def test_brondsted_near_raised_endpoint():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(1, 10**6), None)
    eps = F(1, 100)
    iv = eps_subdiff_interval(f, F(0), eps)
    assert iv is not None and iv.lo is None
    res = brondsted_search(f, F(0), iv.hi, eps)
    assert res.found
    assert res.renorm_ok(eps) and res.product_ok(eps)
    assert (F(0) - res.point) ** 2 <= eps


def test_brondsted_reports_unreachable_dual():
    # the raise deletes the endpoint's dual fan; a dual deep inside the
    # deleted fan has no nearby exact pair, and the search says so
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(1, 10**6), None)
    res = brondsted_search(f, F(0), F(-10), F(1, 100))
    assert not res.found
    assert not res.renorm_ok(F(1, 100))


def test_product_bound_arithmetic():
    def mk(product):
        return BrondstedResult(F(0), F(0), True, F(0), F(0), F(1), product)

    # threshold at -(eps + sqrt(eps)) with eps = 1/4 sits at -3/4
    assert mk(F(-3, 4)).product_ok(F(1, 4))
    assert not mk(F(-1)).product_ok(F(1, 4))
    assert mk(F(5)).product_ok(F(1, 4))


# ---------------------------------------------------------------------------
# uniform entry point
# ---------------------------------------------------------------------------


def test_envelope_result_exact_cup_table():
    rows = envelope_result(ABS, "cup", (F(-1), F(0), F(1)))
    assert rows == tuple(zip((F(-1), F(0), F(1)), map(as_extreal, (1, 0, 1))))


def test_envelope_result_rejects_unknown_kind():
    with pytest.raises(ValueError):
        envelope_result(ABS, "frown", (F(0),))
