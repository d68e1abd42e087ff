import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from envcalc.extreal import POS_INF, as_extreal, ext_add
from envcalc.funcrep import (
    GridFunction,
    Interval1D,
    MaxAffine,
    PLConvex1D,
    SampledSet,
    pl_equal,
)
from envcalc.transforms import (
    ImproperError,
    cl_conv,
    conjugate_brute,
    conjugate_exact,
    conjugate_llt,
    indicator,
    inf_conv,
    maxaffine_to_pl,
    support_function,
)
from envcalc.operators import subdiff_exact

from test_funcrep import ABS, convex_pl
from test_kernels import pl_add, pl_restrict, primal_points


def test_abs_conjugate_is_unit_interval_indicator():
    g = conjugate_exact(ABS)
    assert g.value_at(F(0)) == F(0)
    assert g.value_at(F(1)) == F(0)
    assert g.value_at(F(-1)) == F(0)
    assert g.value_at(F(2)).is_pos_inf
    assert g.value_at(F(1, 2)) == F(0)


def test_conjugate_swaps_walls_and_recessions():
    f = PLConvex1D((F(0), F(1)), (F(0), F(2)), None, None)  # walls both sides
    g = conjugate_exact(f)
    # bounded domain makes the conjugate finite everywhere
    assert g.value_at(F(100)).is_finite
    assert g.value_at(F(-100)).is_finite
    h = conjugate_exact(PLConvex1D((F(0),), (F(0),), F(-1), F(1)))
    assert h.value_at(F(0)) == F(0)
    assert h.value_at(F(2)).is_pos_inf


def test_conjugate_ignores_endpoint_overrides():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(5), None)
    assert pl_equal(conjugate_exact(f), conjugate_exact(f.closure()))


def test_biconjugate_is_closure():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(5), F(2))
    assert pl_equal(conjugate_exact(conjugate_exact(f)), f.closure())


@given(convex_pl(),
       st.fractions(min_value=-9, max_value=5, max_denominator=6),
       st.fractions(min_value=-6, max_value=6, max_denominator=6))
@settings(max_examples=120, deadline=None)
def test_fenchel_young_inequality(f, x, s):
    fs = conjugate_exact(f).value_at(s)
    lhs = ext_add(f.value_at(x), fs)
    assert lhs >= x * s


@given(convex_pl())
@settings(max_examples=60, deadline=None)
def test_biconjugate_idempotent(f):
    g = conjugate_exact(conjugate_exact(f))
    assert pl_equal(conjugate_exact(conjugate_exact(g)), g)


def test_pl_add_values():
    h = pl_add(ABS, ABS)
    for x in (F(-2), F(0), F(1, 3), F(2)):
        assert h.value_at(x) == 2 * abs(x)


def test_indicator_open_ends_become_overrides():
    f = indicator(Interval1D(F(0), F(1), True, False))
    assert f.override_left is not None and f.override_left.is_pos_inf
    assert f.value_at(F(0)).is_pos_inf
    assert f.value_at(F(1)) == F(0)


@pytest.mark.parametrize(
    "iv, spelled",
    [
        # [0, inf) open at 0, and (-inf, 0) open at 0, as two breakpoints
        (Interval1D(F(0), None, True, False), PLConvex1D((0, 1), (0, 0), None, 0, POS_INF)),
        (Interval1D(None, F(0), False, True), PLConvex1D((-1, 0), (0, 0), 0, None, None, POS_INF)),
    ],
)
def test_indicator_of_an_open_half_line_has_one_breakpoint(iv, spelled):
    f = indicator(iv)
    assert f.breakpoints == (F(0),)
    assert pl_equal(f, spelled)
    xs = primal_points(spelled, (F(-5), F(5)))
    assert [subdiff_exact(f, x) for x in xs] == [subdiff_exact(spelled, x) for x in xs]
    assert repr(conjugate_exact(f)) == repr(conjugate_exact(spelled))


def test_pl_restrict_tightens_domain():
    g = pl_restrict(ABS, Interval1D(F(0), None))
    assert g.value_at(F(-1)).is_pos_inf
    assert g.value_at(F(1)) == F(1)


def test_inf_conv_abs_with_point():
    point = indicator(Interval1D(F(2), F(2)))
    h = inf_conv(ABS, point)
    for x in (F(0), F(2), F(5)):
        assert h.value_at(x) == ABS.value_at(x - 2)


def test_inf_conv_abs_self():
    h = inf_conv(ABS, ABS)
    for x in (F(-3), F(0), F(1)):
        assert h.value_at(x) == ABS.value_at(x)


def test_support_function_interval():
    C = Interval1D(F(-2), F(3))
    assert support_function(C, F(1)) == F(3)
    assert support_function(C, F(-1)) == F(2)
    assert support_function(C, F(0)) == F(0)
    assert support_function(Interval1D(F(0), None), F(1)).is_pos_inf


def test_support_function_sampled():
    S = SampledSet(1, (0.0, 2.0, -1.0))
    assert support_function(S, 1.0) == 2.0
    assert support_function(S, -1.0) == 1.0


def test_maxaffine_to_pl():
    e = MaxAffine(1, ((F(0), F(-1), F(0)), (F(0), F(1), F(0))))
    f = maxaffine_to_pl(e)
    for x in (F(-2), F(0), F(3)):
        assert f.value_at(x) == abs(x)


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------


def test_cl_conv_pl_is_closure():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(5), None)
    assert pl_equal(cl_conv(f), f.closure())


def test_cl_conv_two_patch_bridges_gap():
    xs = (0.0, 0.25, 0.5, 0.75, 1.0) + tuple(
        round(1.0 + 0.1 * k, 10) for k in range(1, 11)
    )
    vals = (0.0, math.inf, math.inf, math.inf, math.inf) + (0.0,) * 10
    g = GridFunction(1, xs, vals)
    hull = cl_conv(g)
    assert isinstance(hull, PLConvex1D)
    assert pl_equal(hull, PLConvex1D((F(0), F(2)), (F(0), F(0))))


def test_cl_conv_grid_nonconvex_drops_to_hull():
    g = GridFunction(1, (0.0, 1.0, 2.0), (0.0, 3.0, 0.0))
    hull = cl_conv(g)
    assert hull.value_at(F(1)) == F(0)
    assert hull.value_at(F(0)) == F(0)
    assert hull.value_at(F(3)).is_pos_inf


def test_cl_conv_2d_under_values():
    pts = tuple((float(i), float(j)) for i in range(3) for j in range(3))
    vals = tuple(abs(x - 1) + abs(y - 1) for x, y in pts)
    duals = tuple((a / 2, b / 2) for a in range(-4, 5) for b in range(-4, 5))
    env = cl_conv(GridFunction(2, pts, vals), dual_points=duals)
    for p, v in zip(pts, vals):
        assert env.value_at(p).finite() <= v + 1e-9
    # the dual grid contains the true slopes, so values match here
    assert abs(env.value_at((1.0, 1.0)).finite()) <= 1e-9


# ---------------------------------------------------------------------------
# fast transform agreement
# ---------------------------------------------------------------------------


def _parabola_grid(n):
    xs = [-4.0 + 8.0 * k / (n - 1) for k in range(n)]
    return GridFunction(1, tuple(xs), tuple(x * x for x in xs))


def test_llt_matches_brute_small():
    f = _parabola_grid(257)
    duals = tuple(-8.0 + 16.0 * k / 100 for k in range(101))
    a = conjugate_brute(f, duals)
    b = conjugate_llt(f, duals)
    for va, vb in zip(a.values, b.values):
        assert abs(va.value - vb.value) <= 1e-9


@given(st.lists(
    st.tuples(st.integers(-40, 40), st.integers(-30, 30)),
    min_size=2, max_size=25, unique_by=lambda t: t[0],
))
@settings(max_examples=80, deadline=None)
def test_llt_matches_brute_random(items):
    pts = tuple(x / 4.0 for x, _ in items)
    vals = tuple(v / 4.0 for _, v in items)
    f = GridFunction(1, pts, vals)
    duals = tuple(-6.0 + 12.0 * k / 20 for k in range(21))
    a = conjugate_brute(f, duals)
    b = conjugate_llt(f, duals)
    for va, vb in zip(a.values, b.values):
        assert abs(va.value - vb.value) <= 1e-9


def test_improper_rejected():
    g = GridFunction(1, (0.0, 1.0), (math.inf, math.inf))
    with pytest.raises(ImproperError):
        cl_conv(g)
