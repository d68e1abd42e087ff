from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from envcalc.extreal import POS_INF
from envcalc.funcrep import GridFunction, Interval1D, PLConvex1D, dump_instance, load_instance
from envcalc.operators import (
    OperatorGraph,
    eps_subdiff_interval,
    eps_subdiff_test,
    fitzpatrick,
    fitzpatrick_structured,
    grid_subdiff_matrix,
    grid_subdiff_test,
    is_maximal_relative,
    ni_check,
    normal_cone,
    subdiff_exact,
    subdiff_graph,
    subdiff_structure,
    subdiff_test,
)
from envcalc.transforms import conjugate_exact

from test_funcrep import ABS, convex_pl
from test_kernels import ni_nonneg


# ---------------------------------------------------------------------------
# exact subdifferentials
# ---------------------------------------------------------------------------


def test_abs_subdiff_intervals():
    assert subdiff_exact(ABS, F(0)) == Interval1D(F(-1), F(1))
    assert subdiff_exact(ABS, F(2)) == Interval1D(F(1), F(1))
    assert subdiff_exact(ABS, F(-1, 2)) == Interval1D(F(-1), F(-1))


def test_wall_gives_unbounded_interval():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)))
    iv = subdiff_exact(f, F(0))
    assert iv.lo is None and iv.hi == F(1)
    assert subdiff_exact(f, F(-1)) is None


def test_override_point_has_no_subgradients():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(2), None)
    assert subdiff_exact(f, F(0)) is None
    assert subdiff_exact(f, F(1)).hi is None


@given(convex_pl(),
       st.fractions(min_value=-9, max_value=5, max_denominator=4),
       st.fractions(min_value=-6, max_value=6, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_interval_route_matches_inequality_route(f, x, s):
    iv = subdiff_exact(f, x)
    member = iv is not None and iv.contains(s)
    assert member == subdiff_test(f, x, s)


@given(convex_pl(),
       st.fractions(min_value=-9, max_value=5, max_denominator=4),
       st.fractions(min_value=-6, max_value=6, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_subdiff_membership_is_fenchel_equality(f, x, s):
    # (x, s) in the graph iff Fenchel-Young holds with equality
    fx = f.value_at(x)
    fs = conjugate_exact(f).value_at(s)
    if not (fx.is_finite and fs.is_finite):
        assert not subdiff_test(f, x, s)
        return
    gap = fx.finite() + fs.finite() - x * s
    assert (gap == 0) == subdiff_test(f, x, s)


def test_eps_subdiff_relaxes():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(1, 100), None)
    # no exact subgradient at the raised endpoint, but eps ones exist
    assert subdiff_exact(f, F(0)) is None
    assert eps_subdiff_test(f, F(0), F(0), F(1, 10))
    iv = eps_subdiff_interval(f, F(0), F(1, 10))
    assert iv is not None and iv.contains(F(0))
    assert eps_subdiff_interval(f, F(0), F(1, 1000)) is None


# the indicator of the open interval (0, 1), and 0 on [0, 1] raised to 1 at 0
OPEN_UNIT = PLConvex1D((F(0), F(1)), (F(0), F(0)), None, None, POS_INF, POS_INF)
RAISED_LEFT = PLConvex1D((F(0), F(1)), (F(0), F(0)), None, None, F(1), None)


def test_subdiff_test_reads_the_closure_at_open_and_raised_ends():
    # the open ends carry no value, but the closure's 0 there still bounds
    # the slope: only 0 is a subgradient at 1/2
    assert [s for s in (F(-1), F(0), F(1)) if subdiff_test(OPEN_UNIT, F(1, 2), s)] == [F(0)]
    # at a raised end the subdifferential is empty, whatever the slope
    assert subdiff_exact(RAISED_LEFT, F(0)) is None
    for s in (F(-1), F(0), F(-100)):
        assert not subdiff_test(RAISED_LEFT, F(0), s)
    assert subdiff_test(RAISED_LEFT, F(1, 2), F(0))


def test_grid_subdiff_test_matches_hull():
    g = GridFunction(1, (0.0, 1.0, 2.0), (0.0, 0.5, 2.0))
    assert grid_subdiff_test(g, 0.0, -1.0)
    assert grid_subdiff_test(g, 1.0, 0.5)
    assert not grid_subdiff_test(g, 1.0, 2.0)


def test_grid_subdiff_matrix_refuses_a_nan_tolerance():
    # a NaN makes every comparison false, which would pass every cell
    bump = GridFunction(1, (0.0, 1.0, 2.0), (0.0, 5.0, 0.0))
    duals = (-1.0, 0.0, 1.0)
    assert grid_subdiff_matrix(bump, duals).sum() == 4
    with pytest.raises(ValueError, match="NaN"):
        grid_subdiff_matrix(bump, duals, float("nan"))


# ---------------------------------------------------------------------------
# normal cones
# ---------------------------------------------------------------------------


def test_normal_cone_values():
    C = Interval1D(F(0), F(1))
    assert normal_cone(C, F(0)) == Interval1D(None, F(0))
    assert normal_cone(C, F(1)) == Interval1D(F(0), None)
    assert normal_cone(C, F(1, 2)) == Interval1D(F(0), F(0))


def test_normal_cone_outside_raises():
    with pytest.raises(ValueError):
        normal_cone(Interval1D(F(0), F(1)), F(2))


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def test_subdiff_graph_is_monotone():
    G = subdiff_graph(ABS)
    assert G.pairs
    # monotone: every pair is monotonically related to every pair
    assert is_maximal_relative(G, G.pairs).related == len(G.pairs)


@given(convex_pl())
@settings(max_examples=40, deadline=None)
def test_subdiff_graph_monotone_property(f):
    G = subdiff_graph(f)
    assert is_maximal_relative(G, G.pairs).related == len(G.pairs)


def test_graph_members_pass_subdiff_test():
    f = PLConvex1D((F(-2), F(0), F(3)), (F(4), F(0), F(6)), None, F(2))
    for a, b in subdiff_graph(f, probes=(F(1),)).pairs:
        assert subdiff_test(f, a, b)


def test_monotone_violation_detected():
    G = OperatorGraph(1, ((F(0), F(1)), (F(1), F(0))))
    assert is_maximal_relative(G, G.pairs).related < len(G.pairs)
    # the float, 2D and tol paths of the relation test
    for H in (
        OperatorGraph(1, ((0.0, 1.0), (1.0, 0.0))),
        OperatorGraph(2, (((0, 0), (1, 0)), ((1, 0), (0, 0)))),
    ):
        assert is_maximal_relative(H, H.pairs).related < len(H.pairs)
    assert is_maximal_relative(G, G.pairs, tol=1).related == len(G.pairs)


def test_maximal_relative_finds_gap():
    # drop the vertical segment at the kink of |x|; (0, 0) extends the rest
    pairs = tuple((a, b) for a, b in subdiff_graph(ABS).pairs if a != 0)
    G = OperatorGraph(1, pairs)
    v = is_maximal_relative(G, [(F(0), F(0))])
    assert not v.is_maximal
    assert v.witness == (F(0), F(0))
    full = subdiff_graph(ABS)
    assert is_maximal_relative(full, [(F(0), F(0))]).is_maximal


def test_graph_json_round_trip():
    G = subdiff_graph(ABS)
    back = load_instance(dump_instance(G))
    assert back.pairs == G.pairs
    assert back.dim == G.dim


# ---------------------------------------------------------------------------
# coupling function
# ---------------------------------------------------------------------------


def test_fitzpatrick_pair_route_quadratic_point():
    ts = [F(-2) + F(k, 100) for k in range(401)]
    G = OperatorGraph(1, tuple((t, t) for t in ts))
    assert fitzpatrick(G, F(1), F(1)) == F(1)


def test_fitzpatrick_empty_graph_is_neg_inf():
    assert fitzpatrick(OperatorGraph(1, ()), F(0), F(0)).is_neg_inf


@given(convex_pl(),
       st.fractions(min_value=-8, max_value=4, max_denominator=4),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_structured_dominates_pair_route(f, x, s):
    st_ = subdiff_structure(f)
    G = subdiff_graph(f)
    assert fitzpatrick(G, x, s) <= fitzpatrick_structured(st_, x, s)


@given(convex_pl())
@settings(max_examples=25, deadline=None)
def test_coupling_margin_nonneg_on_window(f):
    # inside the hull of the breakpoints every probe sees a compatible pair,
    # so the margin of the sampled graph stays nonnegative there
    G = subdiff_graph(f)
    b0, bm = f.breakpoints[0], f.breakpoints[-1]
    xs = [b0 + (bm - b0) * F(k, 4) for k in range(5)]
    ss = [F(-3) + F(3, 2) * k for k in range(5)]
    probes = [(x, s) for x in xs for s in ss]
    assert ni_nonneg(G, probes)
    assert ni_check(G, probes) >= 0


def test_ni_detects_nonmonotone():
    G = OperatorGraph(1, ((F(0), F(2)), (F(1), F(-2))))
    # both products are negative at (2, 3), so the margin dips below zero
    probes = [(F(2), F(3))]
    assert not ni_nonneg(G, probes)
    assert ni_check(G, probes) < 0
