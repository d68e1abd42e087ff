"""Differential tests of the array-native grid kernels.

Each batched route is compared with the scalar route it replaced, kept here
as an oracle: the per-pair membership loop for ``grid_subdiff_matrix`` and
``grid_subdiff_test``, the dict inf-convolution for the sorted one, and the
dense ``conjugate_brute`` for ``conjugate_llt``.  The float hull prefilter
is checked against the two hull loops run over all samples, ``_llt_hull``
and ``_hull_1d_exact``.
"""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envcalc import operators, transforms
from envcalc.funcrep import GridFunction, _hull_1d_exact, dot, point_sub
from envcalc.operators import grid_subdiff_matrix, grid_subdiff_test
from envcalc.transforms import (
    MAX_INF_CONV_PAIRS,
    ImproperError,
    SizeLimitError,
    _hull_candidates,
    _llt_hull,
    cl_conv,
    conjugate_brute,
    conjugate_llt,
    inf_conv,
)

INF = math.inf


# ---------------------------------------------------------------------------
# oracles: the scalar routes the kernels replaced
# ---------------------------------------------------------------------------


def subdiff_loop(f, a, astar, tol=0):
    """Per-pair membership: the affine minorant through (a, f(a)) stays
    below every finite sample, within tol."""
    fa = f.value_at(a)
    if not fa.is_finite:
        return False
    fa = fa.finite()
    for y, fy in f.finite_items():
        if fy < fa + dot(astar, point_sub(y, a, f.dim), f.dim) - tol:
            return False
    return True


def inf_conv_dict(f, g):
    """Pair sums collected in a dict, keys sorted: (points, values)."""
    acc = {}
    for u, fu in f.finite_items():
        for w, gw in g.finite_items():
            x = u + w if f.dim == 1 else (u[0] + w[0], u[1] + w[1])
            val = fu + gw
            if x not in acc or val < acc[x]:
                acc[x] = val
    pts = tuple(sorted(acc))
    return pts, tuple(acc[p] for p in pts)


# ---------------------------------------------------------------------------
# batched membership against the per-pair loop
# ---------------------------------------------------------------------------

# quarter steps keep every sum and product exact, so a sample lands exactly
# on the tolerance edge often; arbitrary floats exercise the rounding order
quarter = st.integers(-12, 12).map(lambda k: k / 4)
coord = st.one_of(quarter, st.floats(-3, 3, allow_nan=False, width=64))
value = st.one_of(quarter, st.floats(-3, 3, width=64), st.just(INF))
tols = st.sampled_from((0, 0.0, 0.25, 0.5, 1e-9))


@st.composite
def membership_cases(draw, dim):
    point = coord if dim == 1 else st.tuples(coord, coord)
    pts = draw(st.lists(point, min_size=1, max_size=9, unique=True))
    vals = draw(st.lists(value, min_size=len(pts), max_size=len(pts)))
    dual = coord if dim == 1 else st.tuples(coord, coord)
    duals = draw(st.lists(dual, min_size=1, max_size=6))
    tol = draw(tols)
    # put one sample exactly on the edge fy == fa + <s, y - a> - tol of one
    # (anchor, dual) pair, or one ulp either side of it
    finite = [i for i, v in enumerate(vals) if v < INF]
    if finite and len(pts) > 1:
        i = draw(st.sampled_from(finite))
        j = draw(st.sampled_from([k for k in range(len(pts)) if k != i]))
        s = draw(st.sampled_from(duals))
        edge = vals[i] + dot(s, point_sub(pts[j], pts[i], dim), dim) - tol
        if math.isfinite(edge):
            vals[j] = draw(st.sampled_from(
                (edge, math.nextafter(edge, -INF), math.nextafter(edge, INF))))
    return GridFunction(dim, tuple(pts), tuple(vals)), tuple(duals), tol


def _check_membership(f, duals, tol, chunk):
    with mock.patch.object(operators, "_CHUNK_CELLS", chunk):
        chunked = grid_subdiff_matrix(f, duals, tol)
    whole = grid_subdiff_matrix(f, duals, tol)
    items = f.finite_items()
    assert whole.shape == (len(items), len(duals)) and whole.dtype == bool
    assert np.array_equal(chunked, whole)
    for i, (p, _v) in enumerate(items):
        for k, s in enumerate(duals):
            want = subdiff_loop(f, p, s, tol)
            assert bool(whole[i, k]) == want
            assert grid_subdiff_test(f, p, s, tol) == want
    # a +inf sample or an unlisted point carries no subgradient
    for p, v in zip(f.points, f.value_array.tolist()):
        if v == INF:
            assert not grid_subdiff_test(f, p, duals[0], tol)


@given(membership_cases(1), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_batched_membership_matches_loop_1d(case, chunk):
    f, duals, tol = case
    _check_membership(f, duals, tol, chunk)
    assert not grid_subdiff_test(f, 99.0, duals[0], tol)


@given(membership_cases(2), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_batched_membership_matches_loop_2d(case, chunk):
    f, duals, tol = case
    _check_membership(f, duals, tol, chunk)
    assert not grid_subdiff_test(f, (99.0, 99.0), duals[0], tol)


def test_membership_on_the_tolerance_edge():
    # from the anchor (0, 0) with slope 1 the sample (2, 2 - tol) sits
    # exactly on the edge and passes; one ulp lower it fails
    tol = 0.25
    f = GridFunction(1, (0.0, 2.0), (0.0, 2.0 - tol))
    assert grid_subdiff_matrix(f, (1.0,), tol).tolist() == [[True], [True]]
    below = GridFunction(1, (0.0, 2.0), (0.0, math.nextafter(2.0 - tol, -INF)))
    assert grid_subdiff_matrix(below, (1.0,), tol).tolist() == [[False], [True]]


def test_membership_decides_nan_cells_exactly():
    # from either sample the two products of the 2D dot overflow to
    # opposite infinities and sum to NaN in floats; over the rationals the
    # dot is (s1 + s2) 1e300 times the sign of the step
    f = GridFunction(2, ((0.0, 0.0), (1e300, 1e300)), (0.0, 0.0))
    assert grid_subdiff_matrix(f, [(1e10, -1e10)]).tolist() == [[True], [True]]
    tilted = (1e10, math.nextafter(-1e10, 0.0))
    assert grid_subdiff_matrix(f, [tilted]).tolist() == [[False], [True]]
    assert not grid_subdiff_test(f, (0.0, 0.0), tilted)


# ---------------------------------------------------------------------------
# sorted inf-convolution against the dict
# ---------------------------------------------------------------------------

# few distinct coordinates, so sums repeat; -0.0, 0.0 and 0 collide as keys
axis_pool = (-1, -0.5, -0.0, 0.0, 0, 0.5, 1, 1.0, 1.5)
value_pool = (-0.0, 0.0, 0.25, 0.5, 1.0, -1.0, INF)


def _grid(dim):
    point = (
        st.sampled_from(axis_pool)
        if dim == 1
        else st.tuples(st.sampled_from(axis_pool), st.sampled_from(axis_pool))
    )
    return st.lists(point, min_size=1, max_size=8, unique=True).flatmap(
        lambda pts: st.lists(
            st.sampled_from(value_pool), min_size=len(pts), max_size=len(pts)
        ).map(lambda vals: GridFunction(dim, tuple(pts), tuple(vals)))
    )


def _spelled(points, values):
    return [repr(p) for p in points], [repr(v) for v in values]


@pytest.mark.parametrize("dim", [1, 2])
def test_inf_conv_matches_dict(dim):
    @given(_grid(dim), _grid(dim))
    @settings(max_examples=300, deadline=None)
    def check(f, g):
        pts, vals = inf_conv_dict(f, g)
        if not pts:
            with pytest.raises(ImproperError):
                inf_conv(f, g)
            return
        h = inf_conv(f, g)
        assert _spelled(h.points, h.value_array.tolist()) == _spelled(pts, vals)

    check()


def test_inf_conv_keeps_first_spelling():
    f = GridFunction(1, (-0.0, 1), (0.0, 1.0))
    g = GridFunction(1, (0.0, 2), (-0.0, 2.0))
    h = inf_conv(f, g)
    # row-major sums: -0.0 + 0.0, -0.0 + 2, 1 + 0.0, 1 + 2
    assert [repr(p) for p in h.points] == ["0.0", "1.0", "2.0", "3"]
    assert [repr(v) for v in h.value_array.tolist()] == ["0.0", "1.0", "2.0", "3.0"]
    # the sum 1 comes first as the int 0 + 1, then as 1.0 + 0.0 with a
    # smaller value: the value moves, the spelling stays
    h = inf_conv(GridFunction(1, (0, 1.0), (0.5, 0.0)),
                 GridFunction(1, (1, 0.0), (0.0, 0.25)))
    assert [repr(p) for p in h.points] == ["0.0", "1", "2.0"]
    assert h.value_array.tolist() == [0.75, 0.25, 0.0]


def test_inf_conv_refuses_too_many_pairs():
    n = 1 << 11
    f = GridFunction(1, tuple(range(n + 1)), np.zeros(n + 1))
    g = GridFunction(1, tuple(range(n)), np.zeros(n))
    # 2^22 + 2^11 pairs: refused before any pair sum is built
    with pytest.raises(SizeLimitError, match=f"limit of {MAX_INF_CONV_PAIRS} pairs"):
        inf_conv(f, g)


def test_inf_conv_pair_limit_counts_finite_samples():
    f = GridFunction(1, (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 4.0, INF))
    g = GridFunction(1, (0.0, 1.0), (0.0, 1.0))
    with mock.patch.object(transforms, "MAX_INF_CONV_PAIRS", 6):
        assert len(inf_conv(f, g).points) == 4  # 3 x 2 finite pairs
        with pytest.raises(SizeLimitError):
            inf_conv(f, GridFunction(1, (0.0, 1.0, 2.0), (0.0, 1.0, 4.0)))


# ---------------------------------------------------------------------------
# linear-time conjugate against the dense one
# ---------------------------------------------------------------------------

# Error bound.  conjugate_llt evaluates y*x - v on a subset of the samples
# with the same operations as conjugate_brute, so it is never above it.  It
# falls below it where rounding hides the maximizing sample:
# * each hull test drops a sample that may sit below the kept chord by a few
#   ulps of the values, and drops can chain, so up to n of those;
# * near-collinear runs keep their ties, and the float slopes of a run can
#   come out of order by the rounding of (v_k - v_j) / (x_k - x_j), a few
#   ulps of max|v| / (smallest x gap); the march may then stop anywhere in
#   the run, which costs that slope error times the run's span;
# * a hull slope that underflows into the subnormals has an absolute error
#   of a few 2**-1074, again times the span.
# With u = 2**-53, S = max|y| * max|x| + max|v| and W = span / smallest gap
# over the finite samples:
#     0 <= brute - llt <= 4u * S * (n + W) + 2**-1060 * span
# The largest ratio to the first term seen over 6000 generated cases was
# about 2**-57 (u / 16).
LLT_REL = 4 * 2.0 ** -53
LLT_ABS = 2.0 ** -1060


@st.composite
def adversarial_grids(draw):
    n = draw(st.integers(2, 40))
    xs = sorted(draw(st.lists(
        st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True)))
    kind = draw(st.sampled_from(("collinear", "repeated-slopes", "random")))
    if kind == "collinear":
        a = draw(st.floats(-5, 5))
        b = draw(st.floats(-5, 5))
        wiggle = st.sampled_from((0.0, 2.0**-52, -(2.0**-52), 2.0**-50, -(2.0**-50), 1e-13))
        vals = [(a * x + b) * (1 + draw(wiggle)) for x in xs]
    elif kind == "repeated-slopes":
        slopes = sorted(draw(st.lists(
            st.sampled_from((-2.0, -0.5, 0.0, 0.0, 1.0 / 3, 1.0 / 3, 3.0)),
            min_size=n - 1, max_size=n - 1)))
        vals = [0.0]
        for s, (x0, x1) in zip(slopes, zip(xs, xs[1:])):
            vals.append(vals[-1] + s * (x1 - x0))
    else:
        vals = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    sx = draw(st.sampled_from((1.0, 1e-6, 1e150 / 10**6)))
    sv = draw(st.sampled_from((1.0, 1e150 / 10**6, 1e150)))
    pts = [x * sx for x in xs]
    vals = [v * sv for v in vals]
    for k in draw(st.lists(st.integers(0, n - 1), max_size=n // 3)):
        vals[k] = INF
    f = GridFunction(1, tuple(pts), tuple(vals))
    fx, fv = f.finite_arrays()
    # duals at the sample slopes (where ties between samples sit) and between
    span = max(abs(sv / sx) * 8, 1.0)
    duals = [float(s) for s in np.diff(fv) / np.diff(fx)] if len(fv) > 1 else []
    duals += draw(st.lists(st.floats(-span, span), min_size=1, max_size=10))
    return f, tuple(dict.fromkeys(duals))


@given(adversarial_grids())
@settings(max_examples=400, deadline=None)
def test_llt_matches_brute_on_adversarial_floats(case):
    f, duals = case
    fx, fv = f.finite_arrays()
    if not len(fv):
        with pytest.raises(ImproperError):
            conjugate_llt(f, duals)
        return
    brute = conjugate_brute(f, duals).value_array
    llt = conjugate_llt(f, duals).value_array
    xs = np.sort(fx)
    span = xs[-1] - xs[0]
    spread = span / np.diff(xs).min() if len(xs) > 1 else 0.0
    scale = np.abs(np.array(duals)).max() * np.abs(fx).max() + np.abs(fv).max()
    assert (llt <= brute).all()
    bound = LLT_REL * scale * (len(fv) + spread) + LLT_ABS * span
    assert (brute - llt).max() <= bound


# ---------------------------------------------------------------------------
# the hull prefilter against the hull loops over all samples
# ---------------------------------------------------------------------------


@st.composite
def near_linear_grids(draw):
    """A line with relative noise of at most 1e-15: the samples where a
    chord test sits closest to its rounding error."""
    n = draw(st.integers(3, 60))
    xs = sorted(draw(st.lists(
        st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True)))
    a = draw(st.floats(-5, 5))
    b = draw(st.floats(-5, 5))
    noise = st.floats(-1e-15, 1e-15)
    vals = [(a * x + b) * (1 + draw(noise)) for x in xs]
    sx = draw(st.sampled_from((1.0, 1e-6, 3.0)))
    return GridFunction(1, tuple(x * sx for x in xs), tuple(vals)), ()


def _llt_keep(x, v):
    """The kept hull indices as ``conjugate_llt`` finds them."""
    cand = _hull_candidates(x, v)
    return cand[_llt_hull(x[cand].tolist(), v[cand].tolist())]


def _all_samples(x, v):
    return np.arange(len(x))


def _check_llt_keeps_the_loop_hull(f, duals):
    x, v = f.finite_arrays()
    order = np.argsort(x, kind="stable")
    x, v = x[order], v[order]
    cand = _hull_candidates(x, v)
    assert (np.diff(cand) > 0).all() and set(cand.tolist()) <= set(range(len(x)))
    assert _llt_keep(x, v).tolist() == _llt_hull(x.tolist(), v.tolist()).tolist()
    if len(v) and duals:
        got = conjugate_llt(f, duals).value_array
        with mock.patch.object(transforms, "_hull_candidates", _all_samples):
            want = conjugate_llt(f, duals).value_array
        assert got.tobytes() == want.tobytes()


def _check_cl_conv_is_the_exact_hull(f):
    hull = _hull_1d_exact(f.finite_items())
    g = cl_conv(f)
    assert repr(g.breakpoints) == repr(tuple(x for x, _ in hull))
    assert repr(g.values) == repr(tuple(v for _, v in hull))
    assert g.left_recession is None and g.right_recession is None


@given(st.one_of(adversarial_grids(), near_linear_grids()))
@settings(max_examples=400, deadline=None)
def test_prefilter_keeps_the_llt_hull(case):
    """``_llt_hull`` on the candidates keeps exactly the indices it keeps
    on all samples, so ``conjugate_llt`` gives the same bytes."""
    _check_llt_keeps_the_loop_hull(*case)


@st.composite
def exact_hull_grids(draw):
    """1D grids for ``cl_conv``: the adversarial floats, ints and floats
    mixed, ints past 2**53 (some sharing a float) and Fractions."""
    kind = draw(st.sampled_from(("adversarial", "near-linear", "mixed", "big", "fraction")))
    if kind == "adversarial":
        return draw(adversarial_grids())[0]
    if kind == "near-linear":
        return draw(near_linear_grids())[0]
    n = draw(st.integers(1, 40))
    ks = sorted(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True)))
    if kind == "mixed":
        pts = [k if draw(st.booleans()) else k + 0.5 for k in ks]
    elif kind == "big":
        pts = [2**53 + k for k in ks]
    else:
        pts = [F(k, 3) for k in ks]
    vals = draw(st.lists(
        st.one_of(st.floats(-1e3, 1e3), st.integers(-20, 20)), min_size=n, max_size=n))
    if not draw(st.integers(0, 3)):
        vals[draw(st.integers(0, n - 1))] = INF
    return GridFunction(1, tuple(pts), tuple(vals))


@given(exact_hull_grids())
@settings(max_examples=400, deadline=None)
def test_cl_conv_matches_exact_hull_of_all_samples(f):
    if not f.finite_items():
        with pytest.raises(ImproperError):
            cl_conv(f)
        return
    _check_cl_conv_is_the_exact_hull(f)


@pytest.mark.parametrize("pts, prefiltered", [
    ((2**53, 2**53 + 1, 2**53 + 2, 2**53 + 3), False),
    ((-(2**53), 0, 1), False),
    ((F(1, 3), 1.0, 2.0), False),
    ((0, 0.5, 1, 1.5), True),
    ((0.0, 0.5, 1.0, 1.5), True),
])
def test_cl_conv_prefilters_only_points_equal_to_their_floats(pts, prefiltered):
    f = GridFunction(1, pts, tuple(float(-i * i) for i in range(len(pts))))
    with mock.patch.object(transforms, "_hull_candidates", wraps=_hull_candidates) as spy:
        _check_cl_conv_is_the_exact_hull(f)
    assert spy.called == prefiltered


def _fixed_hull_inputs():
    x = np.linspace(-3.0, 5.0, 1001)
    ramp = 0.1 * x + 0.7
    return {
        "concave": (x, -(x**2)),
        "collinear": (x, 2.0 * x + 1.0),
        "cascade": (x, np.r_[ramp[:-1], -1e3]),
    }


@pytest.mark.parametrize("name", ["concave", "collinear", "cascade"])
def test_prefilter_on_fixed_shapes(name):
    """A concave run peels down to its ends, a collinear one keeps every
    sample (no chord test clears the margin), and a collinear ramp ending
    in a deep drop leaves the whole cascade of pops to the loops."""
    x, v = _fixed_hull_inputs()[name]
    n = len(x)
    cand = _hull_candidates(x, v).tolist()
    keep = _llt_keep(x, v).tolist()
    assert keep == _llt_hull(x.tolist(), v.tolist()).tolist()
    if name == "concave":
        assert cand == keep == [0, n - 1]
    elif name == "collinear":
        assert cand == list(range(n)) and len(keep) >= 2
    else:
        assert keep == [0, n - 1] and len(cand) > n // 2
    f = GridFunction(1, tuple(x.tolist()), tuple(v.tolist()))
    _check_llt_keeps_the_loop_hull(f, tuple(np.linspace(-4.0, 4.0, 17).tolist()))
    _check_cl_conv_is_the_exact_hull(f)


# ---------------------------------------------------------------------------
# GridFunction validation and the ExtReal edge
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,points", [
    (1, (0.0, 1.0)),
    (2, ((0.0, 0.0), (1.0, 0.5))),
])
@pytest.mark.parametrize("bad,message", [
    (math.nan, "NaN"),
    (-INF, "-inf"),
])
def test_grid_rejects_nan_and_neg_inf(dim, points, bad, message):
    with pytest.raises(ValueError, match=message):
        GridFunction(dim, points, (1.0, bad))


@pytest.mark.parametrize("dim,points", [
    (1, (INF, 0.0)),
    (1, (0.0, -INF)),
    (1, (math.nan, 0.0)),
    (1, ("inf", 0.0)),
    (2, ((INF, 0.0), (1.0, 0.5))),
    (2, ((0.0, 0.0), (1.0, -INF))),
    (2, ((0.0, math.nan), (1.0, 0.5))),
])
def test_grid_rejects_non_finite_points(dim, points):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        GridFunction(dim, points, (0.0, 1.0))


def test_inf_conv_has_no_nan_points():
    # an infinite point used to be accepted, and -inf + inf gave a nan sum
    with pytest.raises(ValueError, match="coordinates must be finite"):
        inf_conv(GridFunction(1, (-INF, 0.0), (0.0, 1.0)),
                 GridFunction(1, (INF, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("dim,points", [
    (1, (0.0, 1.0, 0.0)),
    (1, (-0.0, 0.0)),
    (1, (1, 1.0)),
    (2, ((0.0, 1.0), (1.0, 0.0), (0.0, 1.0))),
    (2, ((-0.0, 1.0), (0.0, 1.0))),
])
def test_grid_rejects_duplicate_points(dim, points):
    with pytest.raises(ValueError, match="duplicate grid points"):
        GridFunction(dim, points, tuple(0.0 for _ in points))


def test_grid_accepts_points_that_share_only_a_float():
    # 2**53 + 1 rounds to the float 2**53 but is a different number
    g = GridFunction(1, (2**53, 2**53 + 1), (0.0, 1.0))
    assert g.value_at(2**53 + 1).finite() == 1.0


def test_grid_arrays_and_boxed_edge():
    g = GridFunction(2, ((0, 1), (0.5, -0.0)), (1, INF), label="g")
    assert g.points == ((0, 1), (0.5, -0.0))
    assert g.point_array.dtype == np.float64 and g.point_array.shape == (2, 2)
    assert g.value_array.tolist() == [1.0, INF]
    assert [type(v.finite()) for v in g.values[:1]] == [float]
    assert g.values[1].is_pos_inf
    assert g.value_at((0.0, 1.0)).finite() == 1.0
    assert g.value_at((0.5, 0.0)).is_pos_inf
    assert g.finite_items() == [((0, 1), 1.0)]
    assert g == GridFunction(2, ((0, 1), (0.5, -0.0)), (1.0, INF), label="g")
    with pytest.raises(ValueError):
        g.value_array[0] = 2.0
