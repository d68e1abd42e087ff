import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from envcalc import funcrep
from envcalc.extreal import ExtReal, POS_INF, parse_scalar
from envcalc.funcrep import (
    GridFunction,
    Interval1D,
    MaxAffine,
    OperatorGraph,
    PLConvex1D,
    SampledSet,
    dump_instance,
    effective_domain,
    is_convex_on_grid,
    load_instance,
    lsc_defect,
    pl_canonical,
    pl_equal,
)

ABS = PLConvex1D((F(-1), F(0), F(1)), (F(1), F(0), F(1)), F(-1), F(1))


# ---------------------------------------------------------------------------
# constructor rules
# ---------------------------------------------------------------------------


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        PLConvex1D((F(0), F(0)), (F(0), F(1)))


def test_slopes_must_be_nondecreasing():
    with pytest.raises(ValueError):
        PLConvex1D((F(0), F(1), F(2)), (F(0), F(2), F(3)))


def test_recessions_bound_edge_slopes():
    with pytest.raises(ValueError):
        PLConvex1D((F(0), F(1)), (F(0), F(1)), F(2), None)
    with pytest.raises(ValueError):
        PLConvex1D((F(0), F(1)), (F(0), F(1)), None, F(0))
    PLConvex1D((F(0), F(1)), (F(0), F(1)), F(1), F(1))


def test_single_point_recession_order():
    with pytest.raises(ValueError):
        PLConvex1D((F(0),), (F(0),), F(1), F(0))
    PLConvex1D((F(0),), (F(0),), F(-1), F(1))


def test_override_needs_wall():
    with pytest.raises(ValueError):
        PLConvex1D((F(0), F(1)), (F(0), F(1)), F(0), None, F(2), None)


def test_override_below_base_rejected():
    with pytest.raises(ValueError):
        PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(-1), None)


def test_override_equal_to_base_is_dropped():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(0), None)
    assert f.override_left is None


def test_override_on_single_breakpoint_rejected():
    with pytest.raises(ValueError):
        PLConvex1D((F(0),), (F(0),), None, None, F(1), None)


def test_override_coerces_to_extreal():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, 2, None)
    assert f.override_left == ExtReal(F(2))


# ---------------------------------------------------------------------------
# evaluation and structure
# ---------------------------------------------------------------------------


def test_value_at_walls_and_recessions():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, F(2))
    assert f.value_at(F(-1)).is_pos_inf
    assert f.value_at(F(2)) == F(3)
    assert f.value_at(F(1, 2)) == F(1, 2)


def test_override_value_and_closure():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(5), None)
    assert f.value_at(F(0)) == F(5)
    assert f.closure().value_at(F(0)) == F(0)
    g = f.closure()
    assert g.override_left is None
    assert g.value_at(F(0)) == F(0)
    assert lsc_defect(f) == [F(0)]
    assert lsc_defect(g) == []


def test_tilt():
    f = PLConvex1D((F(0), F(2)), (F(0), F(4)), None, F(3))
    t = f.tilt(F(1))
    assert t.value_at(F(2)) == f.value_at(F(2)) - F(2)
    assert t.breakpoints == f.breakpoints


def test_effective_domain_flags():
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, POS_INF, None)
    dom = effective_domain(f)
    assert dom == Interval1D(F(0), F(1), True, False)
    g = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(7), None)
    # a finite override keeps the endpoint inside the domain
    assert effective_domain(g) == Interval1D(F(0), F(1))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_canonical_drops_interior_collinear():
    f = PLConvex1D((F(0), F(1), F(2)), (F(0), F(1), F(2)))
    g = pl_canonical(f)
    assert g.breakpoints == (F(0), F(2))


def test_canonical_drops_endpoint_matching_recession():
    f = PLConvex1D((F(0), F(1), F(2)), (F(0), F(0), F(2)), F(0), None)
    g = pl_canonical(f)
    assert g.breakpoints == (F(1), F(2))
    assert pl_equal(f, g)


def test_canonical_keeps_overridden_endpoint():
    # interior merge may not absorb an endpoint whose value is raised
    f = PLConvex1D((F(0), F(1), F(2)), (F(0), F(1), F(2)), None, None, F(3), None)
    g = pl_canonical(f)
    assert g.breakpoints == (F(0), F(2))
    assert g.override_left == ExtReal(F(3))


def test_canonical_reanchors_affine():
    f = PLConvex1D((F(5),), (F(10),), F(2), F(2))
    g = PLConvex1D((F(-1),), (F(-2),), F(2), F(2))
    assert pl_equal(f, g)
    assert pl_canonical(f).breakpoints == (F(0),)


def test_pl_equal_distinguishes_functions():
    assert not pl_equal(ABS, ABS.tilt(F(1)))
    assert pl_equal(ABS, PLConvex1D(ABS.breakpoints, ABS.values, F(-1), F(1)))


@st.composite
def convex_pl(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    xs = [draw(st.fractions(min_value=-8, max_value=-7, max_denominator=4))]
    for _ in range(m - 1):
        xs.append(
            xs[-1] + draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4))
        )
    slopes = []
    s = draw(st.fractions(min_value=-5, max_value=0, max_denominator=3))
    for _ in range(m - 1):
        slopes.append(s)
        s += draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
    vals = [draw(st.fractions(min_value=-4, max_value=4, max_denominator=4))]
    for i in range(m - 1):
        vals.append(vals[i] + slopes[i] * (xs[i + 1] - xs[i]))
    left = draw(st.one_of(st.none(), st.just((slopes[0] if slopes else F(0)) - 1)))
    right = draw(st.one_of(st.none(), st.just((slopes[-1] if slopes else F(0)) + 1)))
    return PLConvex1D(tuple(xs), tuple(vals), left, right)


@given(convex_pl(), st.fractions(min_value=-10, max_value=4, max_denominator=8),
       st.fractions(min_value=-10, max_value=4, max_denominator=8),
       st.fractions(min_value=0, max_value=1, max_denominator=16))
@settings(max_examples=100, deadline=None)
def test_values_are_convex_along_segments(f, a, b, t):
    # chord above the function between any two points, the working definition
    fa, fb = f.value_at(a), f.value_at(b)
    if not (fa.is_finite and fb.is_finite):
        return
    mid = a + t * (b - a)
    chord = (1 - t) * fa.finite() + t * fb.finite()
    assert f.value_at(mid) <= chord


@given(convex_pl())
@settings(max_examples=60, deadline=None)
def test_canonical_preserves_values(f):
    g = pl_canonical(f)
    probes = set(f.breakpoints) | set(g.breakpoints)
    probes.add(f.breakpoints[0] - 2)
    probes.add(f.breakpoints[-1] + 2)
    for x in probes:
        assert f.value_at(x) == g.value_at(x)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_rejects_neg_inf():
    with pytest.raises(ValueError):
        GridFunction(1, (0.0,), (-math.inf,))


def test_grid_accepts_listed_pos_inf():
    g = GridFunction(1, (0.0, 1.0), (math.inf, 2.0))
    assert g.value_at(0.0).is_pos_inf
    assert g.finite_items() == [(1.0, 2.0)]


def per_cell_grid_values(vals):
    """The reference value reader: a type test on every cell, in list order,
    and one ``np.array`` conversion."""
    cells = list(vals)
    for i in [i for i, v in enumerate(vals) if type(v) not in (float, int)]:
        cells[i] = float(parse_scalar(vals[i], exact=False))
    try:
        return np.array(cells, dtype=float)
    except OverflowError:
        raise ValueError("a grid value is too large for a float") from None


def _outcome(read, vals):
    try:
        return read(vals).tobytes()
    except Exception as e:  # the type and message must match, not just raise
        return type(e), str(e)


@given(st.lists(st.one_of(
    st.floats(), st.integers(-10**6, 10**6),
    st.sampled_from(["inf", "1/2", True, None, [1], "-inf", "x", False, 2**1024, -(2**1030)]),
), max_size=30))
@settings(max_examples=500, deadline=None)
@example([0.5, "inf", 1.0, "1/2", None, True, [1], 2.0])
@example([1.0, "inf", 3, "1/2"])
@example([2**1024, "inf", True, "1/2", 0.5, [1], None])
@example(["1/2", 2**1024, 1.0, "inf", 3, "-inf"])
@example([[1], None, "inf", True, 2**1030, "1/2"])
@example([3, 2**1024, 0.5])
def test_grid_values_scan_keeps_the_per_cell_error_order(vals):
    assert _outcome(funcrep._grid_values, vals) == _outcome(per_cell_grid_values, vals)


def test_grid_value_off_list_is_pos_inf():
    g = GridFunction(1, (0.0,), (1.0,))
    assert g.value_at(3.0).is_pos_inf


def test_convexity_on_grid_1d():
    assert is_convex_on_grid(GridFunction(1, (0.0, 1.0, 2.0), (0.0, 0.5, 2.0)))
    assert not is_convex_on_grid(GridFunction(1, (0.0, 1.0, 2.0), (0.0, 2.0, 0.5)))


def test_convexity_puncture_rule():
    # a listed +inf strictly inside the finite hull breaks convexity
    g = GridFunction(1, (0.0, 1.0, 2.0), (0.0, math.inf, 0.0))
    assert not is_convex_on_grid(g)
    h = GridFunction(1, (0.0, 1.0, 2.0), (math.inf, 0.0, 1.0))
    assert is_convex_on_grid(h)


def test_convexity_on_grid_2d():
    pts = tuple((x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0))
    vals = tuple(x * x + y * y for x, y in pts)
    assert is_convex_on_grid(GridFunction(2, pts, vals))
    # a downward dent stays on the lower hull; only an upward bump breaks it
    bumped = tuple(
        v + 3.0 if p == (1.0, 1.0) else v for p, v in zip(pts, vals)
    )
    assert not is_convex_on_grid(GridFunction(2, pts, bumped))


def test_maxaffine_empty_is_improper():
    e = MaxAffine(1, ())
    assert e.value_at(0).is_neg_inf
    with pytest.raises(ValueError):
        effective_domain(e)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("obj", [
    ABS,
    PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(4), POS_INF),
    GridFunction(1, (0.0, 0.5), (1.0, math.inf), label="g"),
    GridFunction(2, ((0.0, 0.0), (1.0, 0.5)), (1.0, 2.0)),
    SampledSet(1, (0.0, 2.0)),
    MaxAffine(1, ((0.0, 1.0, 0.5),)),
    Interval1D(F(0), None, True, False),
])
def test_dump_load_round_trip(obj):
    d = dump_instance(obj)
    back = load_instance(json.loads(json.dumps(d)))
    assert back == obj


@pytest.mark.parametrize("G", [
    pytest.param(OperatorGraph(1, ((0, -1), (F(1, 2), F(1, 4)))), id="1d-exact"),
    pytest.param(OperatorGraph(1, ((0.0, -1.5), (1e-05, 1e16)), label="g"), id="1d-float"),
    pytest.param(OperatorGraph(2, (((0, F(1, 3)), (-2, 0)),), label="plane"), id="2d-exact"),
    pytest.param(OperatorGraph(2, (((0.5, 0.0), (1.0, -0.25)),)), id="2d-float"),
])
def test_opgraph_round_trip(G):
    d = dump_instance(G)
    assert d["kind"] == "opgraph" and d.get("label") == G.label
    back = load_instance(json.loads(json.dumps(d)))
    # by repr: exact pairs come back exact and float pairs as the same floats
    assert repr(back) == repr(G)


def test_load_instance_reads_an_opgraph_path_and_no_json_text(tmp_path):
    G = OperatorGraph(2, (((F(1), F(0)), (0.5, F(-1, 3))),), label="g")
    text = json.dumps(dump_instance(G))
    path = tmp_path / "g.json"
    path.write_text(text)
    assert load_instance(str(path)) == G
    with pytest.raises(OSError):  # the text is taken for a file name
        load_instance(text)
    # like every other kind, an empty label is not written
    assert "label" not in dump_instance(OperatorGraph(1, (), label=""))


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"grid.json"', "null"])
def test_load_instance_refuses_a_file_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "top.json"
    path.write_text(text)
    with pytest.raises(TypeError) as err:
        load_instance(str(path))
    msg = str(err.value)
    assert "\n" not in msg and str(path) in msg and "not hold a JSON object" in msg


def test_load_rejects_unknown_kind():
    with pytest.raises(ValueError):
        load_instance({"kind": "mystery"})


@pytest.mark.parametrize("build", [
    lambda: GridFunction(1, (0.0, False), (0.0, 1.0)),
    lambda: GridFunction(1, (True,), (0.0,)),
    lambda: GridFunction(2, ((0.0, True), (1.0, 1.0)), (0.0, 1.0)),
    lambda: SampledSet(1, (0.0, True)),
    lambda: SampledSet(2, ((False, 0.0),)),
], ids=["grid-1d-false", "grid-1d-true", "grid-2d", "set-1d", "set-2d"])
def test_boolean_coordinates_are_refused(build):
    with pytest.raises(TypeError, match="^cannot parse scalar from bool$"):
        build()
