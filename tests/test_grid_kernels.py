"""Differential tests of the array-native grid kernels.

Each batched route is compared with the scalar route it replaced, kept here
as an oracle: the per-pair membership loop for ``grid_subdiff_matrix`` and
``grid_subdiff_test``, the dict inf-convolution for the sorted one, and the
dense ``conjugate_brute`` for ``conjugate_llt``.  ``_llt_hull``, the float
hull loop ``conjugate_llt`` ran before it shared ``funcrep._upper_hull``, is
kept here as the reference for that loop on (x, -v), and, run on the
samples' Fractions, as the exact hull the llt march now reads.  The float
hull prefilter is checked against the hull loops run over all samples,
``_llt_hull`` and ``_hull_1d_exact``, and the 1D ``is_convex_on_grid``
against its per-sample loop over the hull of all samples.  The membership
screen, the one route in 1D and 2D, is checked byte for byte against the
dense membership loop kept here (NaN cells included, at scales where terms
overflow) and against the per-pair loop, the float verdicts against exact arithmetic within their stated band,
the float routes of ``inf_conv`` and of grid loading against the
Python-scalar routes they replaced, and the column CSV writer against the
row join.  The in-place kernels (the llt march's window maximum, the
prefilter's peel rounds and the inf-convolution's cumsum group labels) are
checked byte for byte against the expression forms they replaced, and the
type counts of grid loading against the set scans.  Both grid conjugates
are checked against ``Fraction`` evaluation near the ends of the float
range, and, with the membership matrix and the 1D hull, against the exact
backend on dyadic samples of a ``PLConvex1D`` and, in 2D, of a separable
sum of two.
"""

import bisect
import contextlib
import io
import math
import re
from decimal import Decimal
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from envcalc import cli, funcrep, operators, theoremlab, transforms
from envcalc.extreal import ExtReal, parse_scalar
from envcalc.funcrep import (
    GridFunction,
    MaxAffine,
    PLConvex1D,
    SampledSet,
    _grid_values,
    _hull_1d_exact,
    _hull_candidates,
    _upper_hull,
    dot,
    is_convex_on_grid,
    load_instance,
    point_sub,
)
from envcalc.operators import grid_subdiff_matrix, grid_subdiff_test, subdiffs_exact
from envcalc.transforms import (
    MAX_INF_CONV_PAIRS,
    ImproperError,
    SizeLimitError,
    cl_conv,
    conjugate_brute,
    conjugate_exact,
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


def dense_membership(ys, fy, anchors, fa, duals, tol):
    """The dense membership loop: every (anchor, sample, dual) cell at once,
    fy < fa + <s, y - a> - tol in the per-pair order (the 2D dot as
    0 + s0 d0 + s1 d1), a NaN cell decided over the rationals its floats
    denote, or, with an infinite dual or tolerance, read as no violation."""
    y, a, s = (u[:, None] if u.ndim == 1 else u for u in (ys, anchors, duals))
    with np.errstate(over="ignore", invalid="ignore"):
        d = y[None] - a[:, None]
        rhs = d[:, :, None, 0] * s[:, 0]
        if s.shape[1] == 2:
            rhs += 0.0
            rhs += d[:, :, None, 1] * s[:, 1]
        rhs += fa[:, None, None]
        rhs -= float(tol)
    below = fy[None, :, None] < rhs
    for i, k, j in zip(*np.isnan(rhs).nonzero()):
        if math.isfinite(tol) and np.isfinite(s[j]).all():
            gain = sum(F(u) * (F(v) - F(w)) for u, v, w in zip(s[j].tolist(), y[k].tolist(), a[i].tolist()))
            below[i, k, j] = F(fy[k]) + F(tol) - F(fa[i]) < gain
    return ~below.any(axis=1)


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


# ---------------------------------------------------------------------------
# the membership screen against the dense loop
# ---------------------------------------------------------------------------


SCALES = (1.0, 1e-300, 1e-160, 1e100, 1e153, 1e154, 1e300, 5e307)


@st.composite
def scaled_grids(draw, dim, scales=SCALES):
    """(f, duals, tol): ``membership_cases`` with the duals shuffled,
    repeated and joined by both zeros, scaled from 1e-300 to 5e307: at the
    larger scales a product or a 1D difference overflows, and the NaN scan
    turns on."""
    f, duals, tol = draw(membership_cases(dim))
    zeros = (0.0, -0.0) if dim == 1 else ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0))
    duals = list(duals) + draw(st.lists(st.sampled_from(duals), max_size=4))
    duals += draw(st.lists(st.sampled_from(zeros), max_size=2))
    duals = np.array(draw(st.permutations(duals)), dtype=float)
    scale = draw(st.sampled_from(scales))
    if scale != 1.0:
        pts = f.point_array * scale
        with np.errstate(over="ignore"):
            vals = f.value_array * scale
        # tiny points can round to one subnormal, and a negative value past
        # the float range to -inf
        assume(len(np.unique(pts, axis=0)) == len(pts) and (vals > -INF).all())
        f = GridFunction(dim, pts, vals)
    return f, duals * scale, tol


@st.composite
def scaled_cases(draw, dim):
    """``scaled_grids`` as a screen case, every finite sample an anchor."""
    f, duals, tol = draw(scaled_grids(dim))
    ys, fy = f.finite_arrays()
    return ys, fy, ys, fy, duals, tol, False


@st.composite
def screen_cases(draw):
    """(ys, fy, anchors, fa, duals, tol, every pair survives): scaled draws
    from ``membership_cases`` in 1D and 2D, lattice points (ties in
    distance), one finite sample among +inf ones, and a zig-zag line whose
    anchors sit so far below their samples that no near sample rejects a
    pair."""
    kind = draw(st.sampled_from(("random", "random-1d", "lattice", "single", "zigzag")))
    if kind.startswith("random"):
        return draw(scaled_cases(1 if kind == "random-1d" else 2))
    if kind == "zigzag":
        n = draw(st.integers(9, 40))
        ys = np.array([(float(i), 0.5 * (-1) ** i) for i in range(n)])
        fy = -((ys[:, 0] / 4) ** 2) + draw(st.sampled_from((0.0, 0.25))) * (-1) ** np.arange(n)
        duals = np.array(draw(st.lists(st.tuples(quarter, quarter), min_size=1, max_size=6))) / 24
        return ys, fy, ys, fy - 100.0, duals, draw(tols), True
    side = st.integers(-3, 3).map(float)
    pts = draw(st.lists(st.tuples(side, side), min_size=1, max_size=20, unique=True))
    if kind == "lattice":
        vals = draw(st.lists(value, min_size=len(pts), max_size=len(pts)))
    else:
        vals = [INF] * len(pts)
        vals[draw(st.integers(0, len(pts) - 1))] = draw(quarter)
    duals = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    f, tol = GridFunction(2, tuple(pts), tuple(vals)), draw(tols)
    ys, fy = f.finite_arrays()
    return ys, fy, ys, fy, np.array(duals, dtype=float).reshape(-1, 2), tol, False


def _case(f, anchors, fa, duals):
    ys, fy = f.finite_arrays()
    return ys, fy, np.array(anchors), np.array(fa), np.array(duals), 0.0, False


# from the anchor (0, 1) the sample (1, 1 + u), u = 2^-52, is violated once
# fl(1 + s) rounds up to 1 + 2u, that is from s = 1.5u on (a tie, to even)
U52 = 2.0**-52
TIE = _case(GridFunction(1, (0.0, 1.0), (1.0, 1.0 + U52)), (0.0, 1.0), (1.0, 1.0 + U52),
            tuple(k * U52 / 4 for k in range(12)) + (-U52, 1.5 * U52))
# every anchor's minorant stays below an empty sample set
EMPTY = _case(GridFunction(1, (0.0, 1.0), (INF, INF)), (0.5, 2.0), (0.0, 1.0), (1.0, -1.0, 0.0))


@given(screen_cases(), st.integers(1, 40))
@example(TIE, 40)
@example(EMPTY, 1)
@settings(max_examples=600, deadline=None)
def test_screen_matches_the_dense_loop(case, chunk):
    ys, fy, anchors, fa, duals, tol, all_survive = case
    sizes = []
    cell = operators._rhs

    def spy(*args):
        rhs = cell(*args)
        sizes.append(rhs.shape)
        return rhs

    with mock.patch.object(operators, "_CHUNK_CELLS", chunk), \
            mock.patch.object(operators, "_rhs", spy):
        got = operators._screened_membership(ys, fy, anchors, fa, duals, tol)
    want = dense_membership(ys, fy, anchors, fa, duals, tol)
    assert got.dtype == bool and got.tobytes() == want.tobytes()
    n, p = len(ys), len(duals)
    k = min(operators._SCREEN_K, n)
    # no temporary grows past the chunk, one row of samples or one anchor's
    # screen
    assert all(math.prod(s) <= max(chunk, n, k * p) for s in sizes)
    if all_survive:
        assert sum(s[0] for s in sizes if len(s) == 2) == len(anchors) * p


def _check_1d(f, duals, tol):
    got = grid_subdiff_matrix(f, duals, tol)
    ys, fy = f.finite_arrays()
    assert got.tobytes() == dense_membership(ys, fy, ys, fy, duals, tol).tobytes()
    for i, (p, _v) in enumerate(f.finite_items()):
        for k, s in enumerate(duals.tolist()):
            assert bool(got[i, k]) == subdiff_loop(f, p, s, tol)
    return got


# below 5e307 no 1D difference overflows, so no cell is NaN and the per-pair
# float loop is an oracle too
@given(scaled_grids(1, SCALES[:-1]))
@settings(max_examples=500, deadline=None)
def test_threshold_membership_matches_dense_loop(case):
    f, duals, tol = case
    _check_1d(f, duals, tol)


def test_threshold_membership_with_no_finite_sample():
    f = GridFunction(1, (0.0, 1.0), (INF, INF))
    _ys, _fy, anchors, fa, duals, tol, _ = EMPTY
    got = operators._grid_membership(f, anchors, fa, duals, tol)
    assert got.tolist() == [[True] * 3] * 2
    assert grid_subdiff_matrix(f, (1.0,), 0.0).shape == (0, 1)


def test_threshold_membership_bisects_where_the_estimate_misses():
    # the 1.5u round-to-even tie of TIE, where a quotient estimate of the
    # switching dual lands just past u
    f = GridFunction(1, (0.0, 1.0), (1.0, 1.0 + U52))
    duals = TIE[4]
    got = _check_1d(f, duals, 0.0)
    assert got[0].tolist() == [s < 1.5 * U52 for s in duals.tolist()]


# ---------------------------------------------------------------------------
# the error band of the float verdicts against exact arithmetic
# ---------------------------------------------------------------------------

U = F(1, 2**53)


def _exact_rhs(fa, s, y, a, tol, dim):
    s, y, a = ((x,) if dim == 1 else x for x in (s, y, a))
    dot = sum(F(si) * (F(yi) - F(ai)) for si, yi, ai in zip(s, y, a))
    size = abs(F(fa)) + sum(abs(F(si)) * abs(F(yi) - F(ai)) for si, yi, ai in zip(s, y, a))
    m = dim + 2 + (tol != 0)
    band = m * U / (1 - m * U) * (size + F(tol)) + dim * F(1, 2**1074)
    return F(fa) + dot - F(tol), band


@pytest.mark.parametrize("dim", [1, 2])
def test_float_verdicts_differ_from_exact_only_inside_the_band(dim):
    """Every verdict of ``grid_subdiff_matrix`` that differs from exact
    arithmetic on the same floats has a sample within the band of
    ``_grid_membership``'s docstring: all the exactly violating samples of
    a wrong accept, and one sample of a wrong reject."""
    @given(membership_cases(dim))
    @settings(max_examples=300, deadline=None)
    def check(case):
        f, duals, tol = case
        got = grid_subdiff_matrix(f, duals, tol)
        items = f.finite_items()
        for i, (a, fa) in enumerate(items):
            for j, s in enumerate(duals):
                cells = [(F(fy), *_exact_rhs(fa, s, y, a, tol, dim)) for y, fy in items]
                violated = [(fy, rhs, band) for fy, rhs, band in cells if fy < rhs]
                if bool(got[i, j]) == (not violated):
                    continue
                if got[i, j]:
                    assert all(rhs - fy <= band for fy, rhs, band in violated)
                else:
                    assert any(abs(fy - rhs) <= band for fy, rhs, band in cells)

    check()


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
    # in 1D the step between +-1e308 overflows, and inf * 0 is NaN: over the
    # rationals the slope 0 from (-1e308, 1) passes above the sample
    # (1e308, 0), which a NaN comparison would miss
    line = GridFunction(1, (-1e308, 1e308), (1.0, 0.0))
    assert grid_subdiff_matrix(line, (0.0,)).tolist() == [[False], [True]]
    assert not grid_subdiff_test(line, -1e308, 0.0)


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


def _llt_hull(x: list, v: list):
    """Lower hull indices of sorted 1D samples, ties kept: the loop
    ``conjugate_llt`` ran before it shared ``_upper_hull``."""
    idx: list = []
    for i, (xi, vi) in enumerate(zip(x, v)):
        while len(idx) >= 2:
            j, k = idx[-2], idx[-1]
            if (v[k] - v[j]) * (xi - x[j]) > (vi - v[j]) * (x[k] - x[j]):
                idx.pop()
            else:
                break
        idx.append(i)
    return np.array(idx, dtype=int)


def _upper_hull_keep(x: list, v: list) -> list:
    """The indices ``_upper_hull`` keeps of the lines (x, -v)."""
    return [i for _s, _c, i in _upper_hull([(xi, -vi) for xi, vi in zip(x, v)])]


def _llt_keep(x, v):
    """The kept hull indices as ``conjugate_llt`` finds them."""
    cand = _hull_candidates(x, v)
    return cand[_upper_hull_keep(x[cand].tolist(), v[cand].tolist())]


# sorted float axes where the chord products tie exactly, pass 1e308 and
# overflow to +-inf, come out NaN (inf * 0, a repeated x against an
# overflowing difference), or are signed zeros, at scales of 1e+-300
_HULL_FLOATS = st.sampled_from((
    -1.7e308, -1e308, -1e300, -3.0, -1.0, -0.5, -1e-300, -5e-324, -0.0,
    0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 3.0, 1e300, 1e308, 1.7e308,
))


@given(
    st.lists(_HULL_FLOATS, min_size=1, max_size=12).map(sorted),
    st.lists(st.one_of(_HULL_FLOATS, st.integers(-4, 4).map(float)), min_size=12, max_size=12),
    st.sampled_from((1.0, 1e-300, 1e300)),
)
@settings(max_examples=600, deadline=None)
@example([0.0, 1.0, 2.0], [0.0, 1.0, 2.0] + [0.0] * 9, 1.0)
@example([-1e308, 0.0, 1e308], [1.7e308, -1.7e308, 1.7e308] + [0.0] * 9, 1.0)
@example([1.0, 1.0, 2.0], [1e308, -1e308, 0.0] + [0.0] * 9, 1.0)
@example([-0.0, 0.0, 1.0], [0.0, -0.0, 0.0] + [0.0] * 9, 1.0)
def test_upper_hull_on_negated_values_keeps_the_llt_hull(xs, vs, scale):
    """``_upper_hull`` on the lines (x, -v) compares the same two IEEE
    products as ``_llt_hull``, so it keeps exactly its indices, ties,
    infinities, NaNs and signed zeros included."""
    v = [w * scale for w in vs[: len(xs)]]
    assert _upper_hull_keep(xs, v) == _llt_hull(xs, v).tolist()


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
        with mock.patch.object(funcrep, "_hull_candidates", _all_samples):
            want = conjugate_llt(f, duals).value_array
        assert got.tobytes() == want.tobytes()


def _check_cl_conv_is_the_exact_hull(f):
    bps, vals, slopes = _hull_1d_exact(f.finite_items())
    g = cl_conv(f)
    assert repr(g.breakpoints) == repr(bps)
    assert repr(g.values) == repr(vals)
    assert repr(g.slopes()) == repr(slopes)
    assert g.left_recession is None and g.right_recession is None


@given(st.one_of(adversarial_grids(), near_linear_grids()))
@settings(max_examples=400, deadline=None)
def test_prefilter_keeps_the_llt_hull(case):
    """``_upper_hull`` on the candidates keeps exactly the indices
    ``_llt_hull`` keeps on all samples, so ``conjugate_llt`` gives the same
    bytes."""
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
    with mock.patch.object(funcrep, "_hull_candidates", wraps=_hull_candidates) as spy:
        _check_cl_conv_is_the_exact_hull(f)
    assert spy.called == prefiltered


def convex_verdict_oracle(f, tol=1e-9):
    """The 1D ``is_convex_on_grid`` before it shared ``cl_conv``'s route:
    the exact hull of every finite sample, then each sample against the
    hull's float interpolation, one at a time."""
    items = f.finite_items()
    if len(items) <= 1:
        return True
    bps, vals, _ = _hull_1d_exact(items)
    hx, hy = [float(x) for x in bps], [float(y) for y in vals]

    def hull_val(x):
        j = bisect.bisect_right(hx, x) - 1
        if j < 0 or x > hx[-1]:
            return None
        if j == len(hx) - 1:
            return hy[-1]
        t = (x - hx[j]) / (hx[j + 1] - hx[j])
        return hy[j] + t * (hy[j + 1] - hy[j])
    for x, v in items:
        hv = hull_val(float(x))
        if hv is not None and float(v) > hv + tol:
            return False
    lo, hi = min(x for x, _ in items), max(x for x, _ in items)
    off = [p for p, v in zip(f.points, f.value_array.tolist()) if v == INF]
    return not any(lo < p < hi for p in off)


@st.composite
def convexity_grids(draw):
    """1D grids for ``is_convex_on_grid``: the hull grids, and samples of
    x^2 on ints and quarter floats with one bump near the tolerance and
    listed +inf points, at the ends or inside (punctures)."""
    if draw(st.booleans()):
        return draw(exact_hull_grids())
    n = draw(st.integers(2, 40))
    ks = sorted(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True)))
    pts = [k // 4 if k % 4 == 0 and draw(st.booleans()) else k * 0.25 for k in ks]
    vals = [float(p) ** 2 for p in pts]
    vals[draw(st.integers(0, n - 1))] += draw(st.sampled_from((0.0, 5e-10, 2e-9, 1e-3)))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        vals[i] = INF
    return GridFunction(1, tuple(pts), tuple(vals))


@given(convexity_grids())
@settings(max_examples=300, deadline=None)
def test_convex_verdict_matches_all_samples_oracle(f):
    assert is_convex_on_grid(f) == convex_verdict_oracle(f)


def _gallery_1d_grids():
    """two-patch's grid, and every row and column of the quadrant pair as
    a 1D grid."""
    grids = [theoremlab.gallery("two-patch").objects["instance"]]
    for g in theoremlab._quadrant_pair():
        rows = {}
        for (x, y), v in zip(g.points, g.value_array.tolist()):
            rows.setdefault(("row", x), []).append((y, v))
            rows.setdefault(("col", y), []).append((x, v))
        grids += [GridFunction(1, *zip(*r)) for r in rows.values()]
    return grids


def test_convex_verdict_matches_oracle_on_gallery_grids():
    grids = _gallery_1d_grids()
    verdicts = [is_convex_on_grid(g) for g in grids]
    assert verdicts == [convex_verdict_oracle(g) for g in grids]
    assert verdicts[0] is False and True in verdicts and False in verdicts[1:]


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
# the in-place kernels against the expression forms they replaced, byte for
# byte (so signed zeros and infinities count)
# ---------------------------------------------------------------------------


def stacked_window_march(f, duals):
    """``conjugate_llt``'s values by the march it replaced: the window
    j - 1, j, j + 1 as one stacked (3, n) index array and a max over its
    rows, on the exact lower hull of all samples, ties kept (``_llt_hull``
    run on the samples' Fractions), with the correctly rounded quotients
    of its exact slopes; and, per dual, whether its three window scores
    are finite."""
    x, v = f.finite_arrays()
    order = np.argsort(x, kind="stable")
    x, v = x[order], v[order]
    keep = _llt_hull(list(map(F, x.tolist())), list(map(F, v.tolist())))
    hx, hv = x[keep], v[keep]
    slopes = np.array([funcrep.shadow((F(b) - F(a)) / (F(d) - F(c)))
                       for a, b, c, d in zip(hv, hv[1:], hx, hx[1:])], dtype=float)
    y = np.array(duals, dtype=float)
    j = np.searchsorted(slopes, y, side="left")
    cand = np.stack([np.clip(j + d, 0, len(hx) - 1) for d in (-1, 0, 1)])
    with np.errstate(over="ignore"):
        vals = y[None, :] * hx[cand] - hv[cand]
    return vals.max(axis=0), np.isfinite(vals).all(axis=0)


def expression_peel(x, v):
    """``_hull_candidates`` with each round's predicate built as one
    expression, every term gathered afresh."""
    c = np.arange(len(x))
    parity = 1
    with np.errstate(all="ignore"):
        while len(c) >= 3:
            j, k, i = c[parity - 1 : -2 : 2], c[parity:-1:2], c[parity + 1 :: 2]
            a = (v[k] - v[j]) * (x[i] - x[j])
            b = (v[i] - v[j]) * (x[k] - x[j])
            drop = a - b > funcrep._PEEL_MARGIN * (np.abs(a) + np.abs(b)) + funcrep._TINY
            n_drop = int(np.count_nonzero(drop))
            if n_drop:
                keep = np.ones(len(c), dtype=bool)
                keep[parity:-1:2] = ~drop
                c = c[keep]
            if n_drop < funcrep._PEEL_STOP * (len(c) + n_drop):
                break
            parity = 3 - parity
    return c


def repeat_searchsorted_inf_conv(f, g):
    """``inf_conv`` of two grids by the group step it replaced: an argsort
    in 1D, and each group's minimum spread by ``np.repeat`` and its
    reaching positions labelled by ``np.searchsorted``."""
    fx, fv = f.finite_arrays()
    gx, gv = g.finite_arrays()
    with np.errstate(over="ignore"):
        if f.dim == 1:
            sums = (fx[:, None] + gx[None, :]).reshape(-1, 1)
        else:
            sums = (fx[:, None, :] + gx[None, :, :]).reshape(-1, 2)
        vals = (fv[:, None] + gv[None, :]).reshape(-1)
    if f.dim == 1:
        order = np.argsort(sums[:, 0], kind="stable")
    else:
        order = np.lexsort(sums.T[::-1])
    s, v = sums[order], vals[order]
    starts = np.flatnonzero(np.r_[True, (s[1:] != s[:-1]).any(axis=1)])
    low = np.minimum.reduceat(v, starts)
    reach = np.flatnonzero(v == np.repeat(low, np.diff(np.r_[starts, len(v)])))
    group = np.searchsorted(starts, reach, "right")
    best = v[reach[np.r_[True, group[1:] != group[:-1]]]]
    first = order[starts]
    if f.dim == 1 and f.float_points and g.float_points:
        return GridFunction(1, sums[first, 0], best)
    fp = [p for p, _ in f.finite_items()]
    gp = [p for p, _ in g.finite_items()]
    pairs = zip(*(k.tolist() for k in np.divmod(first, len(gv))))
    if f.dim == 1:
        return GridFunction(1, tuple(fp[i] + gp[j] for i, j in pairs), best)
    return GridFunction(2, tuple((fp[i][0] + gp[j][0], fp[i][1] + gp[j][1]) for i, j in pairs), best)


@st.composite
def march_cases(draw):
    """1D grids and duals for the march: the adversarial draws, one-vertex
    hulls, duals exactly on the hull slopes and products past the float
    range."""
    kind = draw(st.sampled_from(("adversarial", "one-vertex", "on-slopes", "overflow")))
    if kind == "adversarial":
        return draw(adversarial_grids())
    if kind == "one-vertex":
        x = draw(st.floats(-1e6, 1e6))
        f = GridFunction(1, (x, x + 1.0), (draw(st.floats(-1e6, 1e6)), INF))
        return f, tuple(dict.fromkeys(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))))
    scale = 1e200 if kind == "overflow" else 1.0
    xs = sorted(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=12, unique=True)))
    vals = [draw(st.sampled_from((-0.0, 0.0, 1.0, 2.0))) + k * k for k in xs]
    f = GridFunction(1, tuple(k * scale for k in xs), tuple(vals))
    x, v = f.finite_arrays()
    keep = _llt_hull(x.tolist(), v.tolist())
    duals = (np.diff(v[keep]) / np.diff(x[keep])).tolist() + [-0.0, 0.0, -scale, scale]
    duals += draw(st.lists(st.integers(-40, 40), max_size=4))
    return f, tuple(dict.fromkeys(map(float, duals)))


@given(march_cases())
@settings(max_examples=300, deadline=None)
@example((GridFunction(1, (-2, -1, 0, 1, 2), (2, 1, 0, 1, 2)), (-1.0, -0.5, -0.0, 0.5, 1.0)))
@example((GridFunction(1, (-1e200, 1e200), (0.0, 1e300)), (1e200, -1e200, 0.0)))
# a collinear run whose float slopes straddle -1e6: the window's j - 1 wins
@example((GridFunction(1, (-2e-06, -1e-06, 0.0, 1e-06, 2e-06, 3e-06, 0.00042899999999999997,
                           0.000927, 0.022334),
                       (2.0, 1.0, 0.0, -1.0, -2.0, -3.0, -429.0, -927.0, -22334.0)),
          (-1000000.0, -999999.9999999999, -1000000.0000000001, 0.0)))
def test_llt_march_matches_the_stacked_window(case):
    """Bit for bit at each dual whose window scores are finite.  A dual
    with a score past the float range is decided exactly instead, and
    refused when its value is past the range too
    (``test_grid_conjugates_at_the_float_range_edges``)."""
    f, duals = case
    want, finite = stacked_window_march(f, duals)
    try:
        got = conjugate_llt(f, duals).value_array
    except ValueError as e:
        assert not finite.all() and "the float range" in str(e)
        return
    assert got[finite].tobytes() == want[finite].tobytes()


# coordinates and values near the ends of the float range: products reach
# 1e600 and 1e-600, few mantissas make overflowing products cancel, and a
# value near 1e308 brings a product just past the range back into it
edge_float = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 1e308, -1e308, 1.5e308)),
    st.builds(lambda m, e: m * 10.0**e, st.integers(-3, 3), st.sampled_from((-300, -150, 150, 300))),
)


@st.composite
def edge_conjugate_cases(draw):
    """(f, duals): 1D or 2D grids of 1 to 5 samples and 1 to 5 distinct
    duals, every number from ``edge_float``."""
    dim = draw(st.sampled_from((1, 2)))
    point = edge_float if dim == 1 else st.tuples(edge_float, edge_float)
    canon = (lambda p: p + 0.0) if dim == 1 else (lambda p: (p[0] + 0.0, p[1] + 0.0))
    pts = draw(st.lists(point, min_size=1, max_size=5, unique_by=canon))
    vals = draw(st.lists(edge_float, min_size=len(pts), max_size=len(pts)))
    duals = draw(st.lists(point, min_size=1, max_size=5, unique_by=canon))
    return GridFunction(dim, tuple(pts), tuple(vals)), tuple(duals)


@given(edge_conjugate_cases())
@settings(max_examples=300, deadline=None)
@example((GridFunction(2, ((1e200, -1e200),), (0.0,)), ((1e200, 1e200),)))
@example((GridFunction(1, (1e200, 2e200), (1.0, 4.0)), (1e200,)))
@example((GridFunction(1, (1e200, 2e200), (0.0, 0.0)), (-1e200, 0.0, 1e200)))
# no score overflows, but the float hull test of (0, 0) does, and kept it
@example((GridFunction(1, (-1e300, 1e308, 0.0), (-1e307, -1.0, 0.0)), (0.0, 1.0)))
# the maximizer's product overflows to -inf, which its value -1.7e308 brings
# back to -1e307, while the other window score, -2e307, is finite
@example((GridFunction(1, (-1.8e298, 0.0), (-1.7e308, 2e307)), (1e10,)))
def test_grid_conjugates_at_the_float_range_edges(case):
    """``conjugate_brute`` (1D and 2D) and ``conjugate_llt`` against the
    max of <y, x> - v in Fractions on the floats read.  When some dual's
    value is past the float range, the route refuses the first such dual,
    in dual order, as above or below it; else every value is within
    (dim + 2) u S + 2**-1070 of the exact one, with S the largest
    sum_k |y_k x_k| + |v| over the samples (each score takes dim + 1
    roundings), and the llt within its own bound of that (see
    ``LLT_REL``).  No numpy warning escapes (pytest turns envcalc's
    RuntimeWarnings into errors)."""
    f, duals = case
    x, v = f.finite_arrays()
    dim = f.dim
    rows = [(list(map(F, p)), F(w)) for p, w in zip(x.reshape(len(v), dim).tolist(), v.tolist())]
    exact, scale = [], []
    for y in duals:
        yk = [F(c) for c in ((y,) if dim == 1 else y)]
        exact.append(max(sum(a * b for a, b in zip(yk, p)) - w for p, w in rows))
        scale.append(max(sum(abs(a * b) for a, b in zip(yk, p)) + abs(w) for p, w in rows))
    past = next(((y, q) for y, q in zip(duals, exact) if not math.isfinite(funcrep.shadow(q))), None)
    routes = [(conjugate_brute, 0)]
    if dim == 1:
        xs = sorted(p[0] for p, _w in rows)
        span = xs[-1] - xs[0]
        spread = span / min(b - a for a, b in zip(xs, xs[1:])) if len(xs) > 1 else 0
        routes.append((conjugate_llt, F(LLT_REL) * max(scale) * (len(xs) + spread) + F(LLT_ABS) * span))
    for route, extra in routes:
        if past is not None:
            y, q = past
            side = "above" if q > 0 else "below"
            with pytest.raises(ValueError, match=f"^the conjugate at dual {re.escape(repr(y))} is {side} the float range$"):
                route(f, duals)
            continue
        got = route(f, duals).value_array.tolist()
        for g, q, S in zip(got, exact, scale):
            assert abs(F(g) - q) <= (dim + 2) * F(2.0**-53) * S + F(2.0**-1070) + extra, (route, g, q)


def _noisy_square(n, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-3.0, 3.0, n))
    return GridFunction(1, x, x * x + rng.normal(0.0, 0.05, n)), np.linspace(-8.0, 8.0, n)


def _scaled_square(n):
    x = np.linspace(-1e300, 1e300, n)
    return GridFunction(1, x, (x / 1e150) ** 2), np.linspace(-2.0, 2.0, n)


@pytest.mark.parametrize("f, duals", [
    _scaled_square(1 << 13),
    (GridFunction(1, (1e200, 2e200), (0.0, 0.0)), (-1e200, 0.0, 1e200)),
    (GridFunction(1, (1e200, 2e200), (1.0, 4.0)), (1e200,)),
    _noisy_square(1 << 10),
    # ints sharing the float 2**53: only the lower sample can be a vertex
    (GridFunction(1, (2**53, 2**53 + 1, 0), (1.0, 0.0, 5.0)), (0.0, 1.0)),
    (GridFunction(1, (2**53, 2**53 + 1), (0.0, 0.0)), (-1.0, 1.0)),
], ids=["scaled-1e300", "below", "above", "noisy-square", "shared-float", "shared-float-tie"])
def test_llt_never_hands_off_to_brute(f, duals):
    """``conjugate_llt`` answers every input itself, past its old range
    bound too: with ``conjugate_brute`` patched to raise, it gives the
    unpatched brute's bytes, or its refusal."""
    want = _outcome(lambda: conjugate_brute(f, duals).value_array)
    with mock.patch.object(transforms, "conjugate_brute", side_effect=AssertionError("brute ran")):
        got = _outcome(lambda: conjugate_llt(f, duals).value_array)
    assert got == want


@st.composite
def peel_cases(draw):
    """Sorted distinct samples for the prefilter: the adversarial draws,
    terms near the subnormals and ``_TINY``, and products that overflow to
    +-inf (a NaN difference then drops nothing)."""
    kind = draw(st.sampled_from(("adversarial", "near-linear", "tiny", "overflow")))
    if kind in ("adversarial", "near-linear"):
        f = draw(adversarial_grids())[0] if kind == "adversarial" else draw(near_linear_grids())[0]
        x, v = f.finite_arrays()
        order = np.argsort(x, kind="stable")
        return x[order], v[order]
    n = draw(st.integers(1, 40))
    ks = sorted(draw(st.lists(st.integers(-10**4, 10**4), min_size=n, max_size=n, unique=True)))
    terms = st.integers(-10**4, 10**4)
    if kind == "tiny":
        sx = draw(st.sampled_from((1.0, 2.0**-1074, 2.0**-1060, funcrep._TINY)))
        sv = draw(st.sampled_from((2.0**-1074, funcrep._TINY, 1e-300)))
    else:
        sx, sv = draw(st.sampled_from(((1e200, 1e200), (1.0, 1.7e308), (1e300, 1e10))))
        terms = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
    vals = [draw(terms) * sv for _ in ks]
    return np.array(ks, dtype=float) * sx, np.array(vals, dtype=float)


@given(peel_cases())
@settings(max_examples=400, deadline=None)
@example((np.array([0.0]), np.array([1.0])))
@example((np.array([0.0, 1.0, 2.0]), np.array([5e-324, 1e-323, 5e-324])))
@example((np.array([-1e200, 0.0, 1e200]), np.array([-1.7e308, 1.7e308, -1.7e308])))
def test_peel_matches_the_expression_round(case):
    x, v = case
    assert _hull_candidates(x, v).tobytes() == expression_peel(x, v).tobytes()


def _lattice_grid(dim):
    """Integer-lattice grids: few coordinates, so sums repeat, with -0.0
    samples and -0.0/0.0 values, so groups tie on signed zeros."""
    axis = st.sampled_from((-2.0, -1.0, -0.0, 0.0, 1.0, 2.0))
    point = axis if dim == 1 else st.tuples(axis, axis)
    vals = st.sampled_from((-0.0, 0.0, -1.0, 1.0, INF))
    return st.lists(point, min_size=1, max_size=10, unique=True).flatmap(
        lambda pts: st.lists(vals, min_size=len(pts), max_size=len(pts))
        .map(lambda vs: GridFunction(dim, tuple(pts), tuple(vs))))


@pytest.mark.parametrize("dim", [1, 2])
def test_inf_conv_groups_match_repeat_searchsorted(dim):
    @given(_lattice_grid(dim), _lattice_grid(dim))
    @settings(max_examples=300, deadline=None)
    def check(f, g):
        if not (f.finite_mask().any() and g.finite_mask().any()):
            return
        h, want = inf_conv(f, g), repeat_searchsorted_inf_conv(f, g)
        assert [repr(p) for p in h.points] == [repr(p) for p in want.points]
        assert h.point_array.tobytes() == want.point_array.tobytes()
        assert h.value_array.tobytes() == want.value_array.tobytes()

    check()


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
    (1, (-INF, 0.0)),
    (2, ((INF, 0.0), (1.0, 0.5))),
    (2, ((0.0, 0.0), (1.0, -INF))),
    (2, ((0.0, math.nan), (1.0, 0.5))),
])
def test_grid_rejects_non_finite_points(dim, points):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        GridFunction(dim, points, (0.0, 1.0))


@pytest.mark.parametrize("dim,points", [
    (1, ("inf", 0.0)),
    (1, ("1.5", 0.0)),
    (2, ((0.0, 0.0), ("1.5", 0.5))),
])
def test_grid_rejects_string_coordinates(dim, points):
    """A coordinate spelled as a string is refused, as ``load_instance``
    refuses it, rather than read through ``float()``."""
    with pytest.raises(TypeError, match="cannot parse scalar from str"):
        GridFunction(dim, points, (0.0, 1.0))
    with pytest.raises(TypeError, match="cannot parse scalar from str"):
        SampledSet(dim, points)
    with pytest.raises(TypeError, match="cannot parse scalar from str"):
        MaxAffine(dim, ((points[1], points[0], 0.0),))


@pytest.mark.parametrize("dim,points,name", [
    (1, (b"1.5", 0.0), "bytes"),
    (1, (Decimal("0.1"), 0.0), "Decimal"),
    (1, (np.bool_(True), 0.0), "bool"),
    (2, ((0.0, 0.0), (b"1.5", 0.5)), "bytes"),
    (2, ((0.0, 0.0), (1.0, Decimal("0.5"))), "Decimal"),
])
def test_grid_rejects_coordinates_that_are_not_reals(dim, points, name):
    """Only a ``numbers.Real`` is a coordinate: ``float()`` would read
    bytes and round a Decimal without a word."""
    for build in (lambda: GridFunction(dim, points, (0.0, 1.0)),
                  lambda: SampledSet(dim, points),
                  lambda: MaxAffine(dim, ((points[1], points[0], 0.0),))):
        with pytest.raises(TypeError, match=f"^cannot parse scalar from {name}$"):
            build()


def test_grid_reads_numpy_scalar_coordinates_as_floats():
    pts = (np.float64(0.5), np.float32(1.5), np.int64(2))
    for g in (GridFunction(1, pts, (0.0, 1.0, 2.0)), SampledSet(1, pts)):
        assert [repr(p) for p in g.points] == ["0.5", "1.5", "2.0"]
    h = MaxAffine(2, (((np.int64(1), 0.5), (np.float32(2.5), 0), 0.0),))
    assert repr(h.pieces[0][:2]) == "((1.0, 0.5), (2.5, 0))"


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


# ---------------------------------------------------------------------------
# float64 columns: grid loading, array points, the float routes, CSV columns
# ---------------------------------------------------------------------------


def _outcome(fn):
    """The array ``fn`` returns, as bytes, or its exception's type and text."""
    try:
        return fn().tobytes()
    except Exception as e:  # the oracle and the route must fail alike
        return type(e), str(e)


def values_comprehension(vals):
    """The per-cell grid value parse that ``_grid_values`` replaced."""
    if not set(map(type, vals)) <= {float, int}:
        vals = [v if type(v) in (float, int) else float(parse_scalar(v, exact=False))
                for v in vals]
    try:
        return np.array(vals, dtype=float)
    except OverflowError:
        raise ValueError("a grid value is too large for a float") from None


value_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**20, 10**20),
    st.sampled_from(("inf", "Infinity", "1/2", "-inf", "nan", "0.25", "7", "1e400",
                     "x", None, True, [1], 10**400, -(2**1030))),
)


@given(st.lists(value_cells, max_size=8), st.sampled_from(("first", "last", "none")))
@settings(max_examples=400, deadline=None)
@example(["inf", 0.5, "1/2", 2**1030, True, None, [1]], "none")
@example([2**1030, "1/2", 1.0, [1], "inf", None, True], "none")
@example([1, "1/2", None, 0.5, "inf", True, 2**1030], "last")
@example(["1/2", 3, "inf", 2**1030, "-inf", 0.25], "none")
def test_string_cells_parse_like_the_comprehension(vals, where):
    if where == "first":
        vals = ["inf", *vals]
    elif where == "last":
        vals = [*vals, "inf"]
    assert _outcome(lambda: _grid_values(vals)) == _outcome(lambda: values_comprehension(vals))


def test_load_reads_string_cells_into_the_value_array():
    d = {"kind": "grid", "dim": 1, "points": [0.0, 1.0, 2.0], "values": ["inf", 1, "1/2"]}
    g = load_instance(d)
    assert g.value_array.tolist() == [INF, 1.0, 0.5] and g.float_points
    assert g == GridFunction(1, (0.0, 1.0, 2.0), (INF, 1.0, 0.5))


@pytest.mark.parametrize("dim, points", [
    (1, [0.5, -0.0]),
    (1.0, [0.5, -0.0]),
    (2, [[0.5, -0.0], [1.0, 2.0]]),
])
def test_load_hands_float_points_over_as_one_array(dim, points):
    # the tuple is built on read, and a float dim still loads
    g = load_instance({"kind": "grid", "dim": dim, "points": points, "values": [1, 2][:len(points)]})
    assert "_built_points" not in g.__dict__ and g.float_points
    assert [repr(p) for p in g.points] == [repr(p if dim == 1 else tuple(p)) for p in points]


def points_by_set(d):
    """The ``_points`` type scan the type counts replaced: a set of the
    coordinate types."""
    dim = d["dim"]
    pts = funcrep._tuples(d, "points", d["points"]) if dim == 2 else d["points"]
    kinds = set(map(type, (c for p in pts for c in p) if dim == 2 else pts))
    for p in () if kinds <= {float, int, F} else pts:
        if str in map(type, p if isinstance(p, (list, tuple)) else (p,)):
            raise TypeError(f"{d['kind']} instance key 'points' holds a str coordinate, not a number")
    return pts, kinds <= {float}


point_cells = st.one_of(
    st.floats(-1e6, 1e6), st.integers(-10**6, 10**6),
    st.sampled_from(("1.5", "x", True, None, F(1, 3), 2**1030)),
    st.lists(st.one_of(st.floats(-9, 9), st.just("2")), min_size=1, max_size=1),
)


@given(st.lists(point_cells, max_size=8), st.sampled_from((1, 2)))
@settings(max_examples=300, deadline=None)
@example([0, 1.5, 2], 1)
@example([0.5, "1.5", 2.0], 1)
@example([0.5, 1, F(1, 2), "x"], 1)
@example([[0.5], ["2"], 1.0], 1)
def test_points_counts_match_the_set_scan(cells, dim):
    d = {"kind": "grid", "dim": dim, "points": cells if dim == 1 else [[c, 0.0] for c in cells]}

    def outcome(read):
        try:
            pts, floats = read(d)
        except TypeError as e:
            return str(e)
        return [repr(p) for p in pts], floats

    assert outcome(funcrep._points) == outcome(points_by_set)


def test_load_keeps_int_float_point_mixes_off_the_float_route():
    g = load_instance({"kind": "grid", "dim": 1, "points": [0, 1.5, 2], "values": [0.0, 1.0, 4.0]})
    assert not g.float_points and [repr(p) for p in g.points] == ["0", "1.5", "2"]
    with pytest.raises(TypeError, match="holds a str coordinate"):
        load_instance({"kind": "grid", "dim": 1, "points": [0.5, "1.5"], "values": [0.0, 1.0]})


unique_floats = st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=8, unique=True)


@given(unique_floats, st.sampled_from((1, 2)))
@settings(max_examples=300, deadline=None)
def test_grid_from_a_float_array_equals_the_one_from_the_tuple(xs, dim):
    pts = tuple(xs) if dim == 1 else tuple(zip(xs, reversed(xs)))
    vals = tuple(float(k) for k in range(len(pts)))
    arr = np.array(pts, dtype=float).reshape((len(pts),) if dim == 1 else (len(pts), 2))

    def build(p):
        g = GridFunction(dim, p, vals)
        return g, [repr(q) for q in g.points], g.point_array.tobytes(), g.float_points

    try:
        want = build(pts)
    except ValueError as e:  # -0.0 and 0.0 are one point
        with pytest.raises(ValueError, match=str(e)):
            build(arr)
        return
    got = build(arr)
    assert got[0] == want[0] and got[1:] == want[1:]
    assert got[3] is True


@given(unique_floats, st.sampled_from((1, 2)))
@settings(max_examples=200, deadline=None)
def test_points_built_on_read_equal_the_eager_tuple(xs, dim):
    pts = tuple(xs) if dim == 1 else tuple(zip(xs, reversed(xs)))
    vals = tuple(float(k) for k in range(len(pts)))
    arr = np.array(pts, dtype=float).reshape((len(pts),) if dim == 1 else (len(pts), 2))
    lazy = GridFunction(dim, arr, vals)
    assert "_built_points" not in lazy.__dict__
    eager = GridFunction(dim, pts, vals)
    assert [repr(p) for p in lazy.points] == [repr(p) for p in eager.points]
    assert lazy.points is lazy.points and lazy == eager and hash(lazy) == hash(eager)
    assert [type(c) for p in lazy.points for c in ((p,) if dim == 1 else p)] == [float] * (len(pts) * dim)


def test_float_points_flag():
    assert GridFunction(1, (0.0, 1.5), (0.0, 0.0)).float_points
    assert not GridFunction(1, (0, 1.5), (0.0, 0.0)).float_points
    assert not GridFunction(2, ((0.0, F(1, 2)),), (0.0,)).float_points
    assert GridFunction(2, ((0.0, 1.0), (1.0, 0.0)), (0.0, 0.0)).float_points


def test_llt_keeps_int_duals_and_reads_float_duals_from_its_array():
    f = GridFunction(1, (-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    g = conjugate_llt(f, (0, 1, 2.5, -3.0))
    assert [repr(p) for p in g.points] == ["0", "1", "2.5", "-3.0"]
    assert not g.float_points
    h = conjugate_llt(f, (-0.0, 1.0, 2.5, -3.0))
    assert [repr(p) for p in h.points] == ["-0.0", "1.0", "2.5", "-3.0"]
    assert h.float_points and h.value_array.tolist() == g.value_array.tolist()


def _pair_route(f):
    """The same grid with ``float_points`` cleared, which sends it through
    ``inf_conv``'s Python sums."""
    g = GridFunction(f.dim, f.points, f.value_array)
    object.__setattr__(g, "float_points", False)
    return g


float_axis = (-1.5, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0**-60, 1e300, 1.7e308)


@given(*[st.lists(st.sampled_from(float_axis), min_size=1, max_size=6, unique=True)
         .flatmap(lambda pts: st.lists(st.sampled_from(value_pool), min_size=len(pts),
                                       max_size=len(pts))
                  .map(lambda vals: GridFunction(1, tuple(pts), tuple(vals))))] * 2)
@settings(max_examples=300, deadline=None)
def test_inf_conv_float_route_matches_the_pair_route(f, g):
    got = _outcome(lambda: inf_conv(f, g).point_array)
    want = _outcome(lambda: inf_conv(_pair_route(f), _pair_route(g)).point_array)
    assert got == want
    if isinstance(got, bytes):
        h, k = inf_conv(f, g), inf_conv(_pair_route(f), _pair_route(g))
        assert _spelled(h.points, h.value_array.tolist()) == _spelled(k.points, k.value_array.tolist())


# ---------------------------------------------------------------------------
# the exact and grid backends on one function
# ---------------------------------------------------------------------------


@st.composite
def walled_eighths(draw, most=8):
    """A PLConvex1D of at most ``most`` breakpoints, with walls at both
    ends, breakpoints and values in (1/8)Z (integer slopes over gaps in
    (1/8)Z), and its grid: the breakpoints and the midpoints between them,
    every number a dyadic that a float holds exactly."""
    m = draw(st.integers(1, most))
    bps = [F(draw(st.integers(-24, 8)), 8)]
    for _ in range(m - 1):
        bps.append(bps[-1] + F(draw(st.integers(1, 12)), 8))
    slopes = sorted(draw(st.lists(st.integers(-4, 4), min_size=m - 1, max_size=m - 1)))
    vals = [F(draw(st.integers(-16, 16)), 8)]
    for s, (a, b) in zip(slopes, zip(bps, bps[1:])):
        vals.append(vals[-1] + s * (b - a))
    f = PLConvex1D(tuple(bps), tuple(vals))
    xs = sorted(set(bps) | {(a + b) / 2 for a, b in zip(bps, bps[1:])})
    g = GridFunction(1, tuple(map(float, xs)), tuple(float(v.finite()) for v in f.values_at(xs)))
    return f, g, xs


@given(walled_eighths())
@settings(max_examples=200, deadline=None)
def test_grid_routes_equal_the_exact_backend_on_dyadic_samples(case):
    """On a sampled dyadic function every grid route is exact: both grid
    conjugates equal ``conjugate_exact`` at duals in (1/4)Z float for
    float, tol-0 membership equals ``subdiffs_exact``, and the grid's
    closed hull is f at the samples, which ``is_convex_on_grid`` calls
    convex."""
    f, g, xs = case
    duals = [F(k, 4) for k in range(-20, 21)]
    want = [float(v.finite()) for v in conjugate_exact(f).values_at(duals)]
    ys = list(map(float, duals))
    assert conjugate_llt(g, ys).value_array.tolist() == want
    assert conjugate_brute(g, ys).value_array.tolist() == want
    ivs = subdiffs_exact(f, xs)
    assert grid_subdiff_matrix(g, ys, 0).tolist() == [[iv.contains(y) for y in duals] for iv in ivs]
    assert cl_conv(g).values_at(xs) == f.values_at(xs)
    assert is_convex_on_grid(g)


@given(walled_eighths(4), walled_eighths(4))
@settings(max_examples=50, deadline=None)
def test_2d_grid_routes_equal_the_separable_exact_oracle(gcase, hcase):
    """f(x1, x2) = g(x1) + h(x2) sampled on the product of two dyadic
    grids, whose conjugate and subdifferential split over the two
    coordinates, is the one exact oracle of the 2D routes:
    ``conjugate_brute`` equals g*(y1) + h*(y2) at duals in (1/4)Z^2 float
    for float, tol-0 membership equals dg(x1) x dh(x2) from
    ``subdiffs_exact``, and ``is_convex_on_grid`` calls f convex."""
    (g, _gg, gx), (h, _hg, hx) = gcase, hcase
    axis = [F(k, 4) for k in range(-12, 13, 3)]
    gs, hs = (conjugate_exact(u).values_at(axis) for u in (g, h))
    want = [float((a + b).finite()) for a in gs for b in hs]
    duals = [(float(a), float(b)) for a in axis for b in axis]
    pts = [(float(a), float(b)) for a in gx for b in hx]
    vals = [float((u + w).finite()) for u in g.values_at(gx) for w in h.values_at(hx)]
    f = GridFunction(2, tuple(pts), tuple(vals))
    assert conjugate_brute(f, duals).value_array.tolist() == want
    dg, dh = subdiffs_exact(g, gx), subdiffs_exact(h, hx)
    member = [[u.contains(a) and w.contains(b) for a in axis for b in axis] for u in dg for w in dh]
    assert grid_subdiff_matrix(f, duals, 0).tolist() == member
    assert is_convex_on_grid(f)


@given(walled_eighths(), walled_eighths())
@settings(max_examples=50, deadline=None)
def test_grid_inf_conv_bounds_the_exact_one_and_meets_it_at_its_breakpoints(fcase, gcase):
    """The grid inf-convolution of two dyadic samples is an inf over fewer
    pairs than the exact one of the functions sampled, so it is at least
    that one at every sum point; each breakpoint of the exact result is a
    sum of breakpoints, both sampled, where the two are equal as floats."""
    (f, fg, _fx), (g, gg, _gx) = fcase, gcase
    h = transforms._inf_conv_exact(f, g)
    grid = inf_conv(fg, gg)
    at = dict(zip(map(F, grid.points), grid.value_array.tolist()))
    for (z, v), w in zip(at.items(), h.values_at(list(at))):
        assert F(v) >= w.finite(), z
    assert [at[b] for b in h.breakpoints] == [float(v) for v in h.values]


# (1e200, -1e200) at 0 and (0, 0) at 1, hulled over the one dual
# (1e200, 1e200): 1e200 (x1 + x2), whose two products cancel exactly at
# (-1e200, 1e200) and reach about 2e400 at (1e200, 1e200)
_CANCEL_HULL = GridFunction(2, ((1e200, -1e200), (0.0, 0.0)), (0.0, 1.0))


def test_max_affine_decides_an_overflowing_probe_exactly():
    h = cl_conv(_CANCEL_HULL, ((1e200, 1e200),))
    assert repr(h.values_at([(-1e200, 1e200)])) == repr([ExtReal(0.0)])
    # finite terms keep their float value
    assert repr(h.values_at([(1.0, 2.0)])) == repr([ExtReal(3e200)])


@pytest.mark.parametrize("h, probe, msg", [
    (cl_conv(_CANCEL_HULL, ((1e200, 1e200),)), (1e200, 1e200), "(1e+200, 1e+200) is above"),
    (MaxAffine(1, ((0.0, 1e200, 0.0),)), 1e200, "1e+200 is above"),
    (MaxAffine(1, ((0.0, 1e200, 0.0),)), -1e200, "-1e+200 is below"),
])
def test_max_affine_refuses_a_value_past_the_float_range(h, probe, msg):
    # a max of finite pieces is finite: past the range it is refused, not +inf
    with pytest.raises(ValueError, match=f"^the max-affine function at {re.escape(msg)} the float range$"):
        h.values_at([probe])


def test_inf_conv_mixes_keep_python_sums():
    h = inf_conv(GridFunction(1, (1,), (0.0,)), GridFunction(1, (0.5, 1), (0.0, 1.0)))
    assert [repr(p) for p in h.points] == ["1.5", "2"]
    assert not h.float_points


cells_text = st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
                     max_size=4)


@given(st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(cells_text, min_size=n, max_size=n), min_size=m, max_size=m))))
@settings(max_examples=300, deadline=None)
def test_emit_columns_matches_the_row_join(cols):
    header = "a,b"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(None, header, cols)
    assert out.getvalue() == "\n".join([header, *map(",".join, zip(*cols))]) + "\n"


def test_emit_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError):
        cli._emit(None, "a,b", [["1", "2"], ["3"]])
