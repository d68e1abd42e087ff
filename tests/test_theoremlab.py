from dataclasses import FrozenInstanceError, replace
from fractions import Fraction as F

import pytest

from envcalc.extreal import NEG_INF, as_extreal
from envcalc.funcrep import (
    GridFunction, Interval1D, MaxAffine, PLConvex1D, lsc_defect, pl_equal,
)
from envcalc.operators import (
    MaximalityVerdict,
    OperatorGraph,
    grid_subdiff_test,
    subdiff_exact,
    subdiff_test,
)
from envcalc.cli import main
from envcalc import theoremlab
from envcalc.envelopes import circ_exact
from envcalc.theoremlab import (
    CheckContext,
    _dispatch,
    FAMILIES,
    GALLERY_NAMES,
    InstanceGenerator,
    REGISTRY,
    SuiteReport,
    gallery,
    run_check,
    run_suite,
)

from test_funcrep import ABS

EXPECTED_IDS = [
    "ba.density",
    "dfdom.e3",
    "dfdom.i",
    "dfdom.ineq",
    "dfdom.iv",
    "fcirc.i",
    "fcirc.ii",
    "fcirc.iii",
    "fcirc.iv",
    "fcirc.v",
    "fcupdiez.i",
    "fcupdiez.iii",
    "fcupdiez.iv",
    "fcupdiez.ix",
    "fcupdiez.v",
    "fcupdiez.viii",
    "fsp.i",
    "fsp.ii",
    "fsp.iii",
    "fspeps.ii",
    "fspeps.iii",
    "fspeps.iv",
    "maxcup",
    "maxsdsp.closure",
    "maxsdsp.ii",
    "maxsdsp.iii",
    "maxsdsp.iv",
    "maxsdsp.v",
    "maxsdsp.vi",
    "maxsdsp.vii",
    "ncfitz",
    "spxstar",
]


# ---------------------------------------------------------------------------
# registry and single checks
# ---------------------------------------------------------------------------


def test_registry_ids_are_stable():
    assert sorted(REGISTRY) == EXPECTED_IDS


def test_registering_an_id_twice_raises():
    fn, kinds = REGISTRY["maxcup"]
    with pytest.raises(ValueError, match="already registered"):
        theoremlab._check("maxcup", kinds)(fn)
    assert REGISTRY["maxcup"] == (fn, kinds)
    assert list(REGISTRY).count("maxcup") == 1


def test_run_check_unknown_id():
    with pytest.raises(KeyError):
        run_check("nope.i", ABS)


def test_run_check_type_mismatch_is_not_applicable():
    c = run_check("ncfitz", ABS)
    assert c.verdict == "not-applicable"
    assert c.ok


def test_run_check_pass_on_matching_instance():
    c = run_check("maxcup", ABS)
    assert c.verdict == "pass"
    assert c.theorem_id == "maxcup"


NEEDS_LSC = "needs a lower semicontinuous instance (raised endpoint values)"
LSC_GATED = {
    **{tid: NEEDS_LSC for tid in (
        "fcirc.iii", "fcirc.iv", "fspeps.ii", "fspeps.iii", "fspeps.iv",
        "maxsdsp.closure", "maxsdsp.ii", "maxsdsp.iii", "maxsdsp.iv",
        "maxsdsp.v", "maxsdsp.vi", "maxsdsp.vii",
    )},
    "maxcup": "the subdifferential misses the raised endpoint, so it is not maximal",
}


@pytest.mark.parametrize("tid", sorted(LSC_GATED))
def test_lsc_gated_checks_skip_raised_instances(tid):
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(2), None)
    c = run_check(tid, f)
    assert c.verdict == "not-applicable"
    assert c.witness == LSC_GATED[tid]


def test_raised_endpoint_breaks_domain_identity():
    # what the gate protects against: double conjugation restores the
    # endpoint's subgradients while the raised function has none there
    f = PLConvex1D((F(0), F(1)), (F(0), F(1)), None, None, F(2), None)
    assert subdiff_exact(f, F(0)) is None
    assert subdiff_exact(circ_exact(f), F(0)) is not None


# ---------------------------------------------------------------------------
# the grid shadow of the continuity item
# ---------------------------------------------------------------------------


def test_grid_shadow_passes_both_ways():
    convex = GridFunction(1, (0.0, 1.0, 2.0, 3.0), (0.0, 0.2, 1.0, 2.5))
    assert run_check("dfdom.iv", convex).verdict == "pass"
    bump = GridFunction(1, (0.0, 1.0, 2.0), (0.0, 3.0, 0.0))
    assert run_check("dfdom.iv", bump).verdict == "pass"


def test_grid_shadow_is_one_dimensional():
    g = GridFunction(2, ((0.0, 0.0), (1.0, 0.0)), (0.0, 1.0))
    assert run_check("dfdom.iv", g).verdict == "not-applicable"


# ---------------------------------------------------------------------------
# seeded suites
# ---------------------------------------------------------------------------


def test_suite_is_deterministic():
    a = run_suite(seed=5, n_instances=2)
    b = run_suite(seed=5, n_instances=2)
    assert a.text() == b.text()
    assert a.all_ok


def _suite_rows(seed, n_instances):
    """(id, instance, desc) in run_suite's row order."""
    gen = InstanceGenerator(seed)
    pools = {PLConvex1D: [], GridFunction: [], Interval1D: []}
    for kind, family in ((PLConvex1D, "pl-convex"),
                         (PLConvex1D, "pl-convex-with-override"),
                         (GridFunction, "grid-nonconvex"),
                         (Interval1D, "indicator-set")):
        for i, inst in enumerate(gen.generate(family, n_instances)):
            pools[kind].append((inst, f"{family}[{i}]"))
    return [
        (tid, inst, desc)
        for tid in sorted(REGISTRY)
        for kind, pool in pools.items() if kind in REGISTRY[tid][1]
        for inst, desc in pool
    ]


@pytest.mark.parametrize("seed", [0, 4, 9, 42])
def test_shared_context_matches_fresh_contexts(seed):
    # run_suite shares one context per instance across every id; a check
    # that left state behind in it would differ from a fresh run_check
    fresh = tuple(run_check(tid, inst, desc) for tid, inst, desc in _suite_rows(seed, 2))
    assert run_suite(seed=seed, n_instances=2).checks == fresh


def test_check_context_is_frozen_and_caches():
    ctx = CheckContext(ABS)
    assert ctx.graph is ctx.graph and ctx.probes is ctx.probes
    with pytest.raises(FrozenInstanceError):
        ctx.inst = ABS


def test_suite_counts_add_up():
    r = run_suite(seed=3, n_instances=2)
    assert r.n_pass + r.n_fail + r.n_not_applicable == len(r.checks)
    assert r.n_fail == 0


def test_suite_rejects_unknown_ids():
    with pytest.raises(KeyError):
        run_suite(seed=0, n_instances=1, theorem_ids=("maxcup", "bogus"))


def test_suite_empty_selection():
    r = run_suite(seed=0, n_instances=1, theorem_ids=())
    assert r.checks == ()
    assert r.all_ok


def test_suite_csv_shape(tmp_path, capsys):
    r = run_suite(seed=2, n_instances=1, theorem_ids=("maxcup", "ncfitz"))
    argv = ["suite", "maxcup", "ncfitz", "--seed", "2", "-n", "1", "--out"]
    p = tmp_path / "report.csv"
    assert main(argv + [str(p)]) == 0
    assert capsys.readouterr().out == r.text()
    raw = p.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "theorem_id,instance_id,verdict,margin,tolerance,backend"
    assert len(lines) == len(r.checks) + 1
    assert main(argv + [str(tmp_path / "again.csv")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == raw


def test_generator_families_and_determinism():
    assert FAMILIES == (
        "pl-convex",
        "pl-convex-with-override",
        "grid-nonconvex",
        "indicator-set",
        "operator-graph",
    )
    a = InstanceGenerator(7).generate("pl-convex", 3)
    b = InstanceGenerator(7).generate("pl-convex", 3)
    assert a == b
    with pytest.raises(ValueError):
        InstanceGenerator(0).generate("no-such-family", 1)


def test_generator_family_shapes():
    gen = InstanceGenerator(11)
    for f in gen.generate("pl-convex", 4):
        assert isinstance(f, PLConvex1D) and not lsc_defect(f)
    for f in gen.generate("pl-convex-with-override", 4, tiny_defect=True):
        pts = lsc_defect(f)
        assert pts
        for p in pts:
            gap = f.value_at(p).finite() - f.closure().value_at(p).finite()
            assert 0 < gap <= F(9, 10**6)
    for g in gen.generate("grid-nonconvex", 3):
        assert isinstance(g, GridFunction) and g.dim == 1
    for s in gen.generate("indicator-set", 3):
        assert isinstance(s, Interval1D)


# ---------------------------------------------------------------------------
# galleries
# ---------------------------------------------------------------------------


def test_gallery_names_and_unknown():
    assert GALLERY_NAMES == (
        "quadratic",
        "open-interval",
        "half-circle",
        "two-patch",
        "quadrant",
    )
    with pytest.raises(KeyError):
        gallery("nope")


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_every_gallery_reproduces_its_verdicts(name):
    g = gallery(name)
    assert g.checks
    for c in g.checks:
        assert c.verdict == "pass", c.theorem_id


# each gallery's objects and their types, so the registry x gallery runs
# below are listed without building the galleries at collection
GALLERY_OBJECT_TYPES = {
    "quadratic": {"graph": OperatorGraph},
    "open-interval": {"instance": PLConvex1D, "circ": PLConvex1D,
                      "graph": OperatorGraph, "probes": tuple},
    "half-circle": {"instance": PLConvex1D, "graph": OperatorGraph,
                    "verdict": MaximalityVerdict, "candidates": tuple},
    "two-patch": {"instance": GridFunction, "hull": PLConvex1D,
                  "witness": tuple, "graph": OperatorGraph},
    "quadrant": {"f": GridFunction, "g": GridFunction,
                 "graph": OperatorGraph, "duals": tuple},
}
GALLERY_CHECKS = [
    (name, key, tid)
    for name, objects in GALLERY_OBJECT_TYPES.items()
    for key, kind in objects.items()
    for tid, (_fn, kinds) in REGISTRY.items()
    if issubclass(kind, kinds)
]


def test_gallery_object_types_are_listed():
    got = {name: {k: type(v) for k, v in gallery(name).objects.items()}
           for name in GALLERY_NAMES}
    assert got == GALLERY_OBJECT_TYPES
    assert len(GALLERY_CHECKS) == 129


@pytest.mark.parametrize("name, key, tid", GALLERY_CHECKS)
def test_every_check_agrees_with_every_gallery_object(name, key, tid):
    """The galleries' worked examples satisfy every registered statement
    that accepts them: no check reports FAIL on one."""
    got = run_check(tid, gallery(name).objects[key])
    assert got.verdict != "fail", got


def test_half_circle_objects():
    g = gallery("half-circle")
    f = g.objects["instance"]
    assert lsc_defect(f) == [F(-1), F(1)]
    v = g.objects["verdict"]
    assert v.is_maximal and v.checked == 401 and v.related >= 51


def test_two_patch_objects():
    g = gallery("two-patch")
    hull = g.objects["hull"]
    assert pl_equal(hull, PLConvex1D((F(0), F(2)), (F(0), F(0))))
    x, s = g.objects["witness"]
    assert (x, s) == (0.5, 0.0)
    assert subdiff_test(hull, F(1, 2), F(0))
    assert not grid_subdiff_test(g.objects["instance"], x, s)


def test_quadrant_objects():
    g = gallery("quadrant")
    assert g.objects["graph"].pairs
    assert g.objects["f"].dim == 2 and g.objects["g"].dim == 2


# ---------------------------------------------------------------------------
# seeded-bug detection: mutations flip gallery verdicts
# ---------------------------------------------------------------------------


def test_removing_the_raise_flips_the_defect_verdict():
    f = gallery("half-circle").objects["instance"]
    healed = replace(f, override_left=None, override_right=None)
    assert lsc_defect(f) and not lsc_defect(healed)


def test_filling_the_puncture_flips_strict_inclusion():
    g = gallery("two-patch")
    inst = g.objects["instance"]
    x, s = g.objects["witness"]
    filled = GridFunction(1, inst.points, tuple(0.0 for _ in inst.points))
    assert not grid_subdiff_test(inst, x, s)
    assert grid_subdiff_test(filled, x, s)


def test_dropping_the_coupling_term_breaks_the_bound():
    # the sup of <x,b> + <a,y> alone exceeds f(x) + f*(y); only the full
    # coupled form stays below it
    from envcalc.operators import fitzpatrick, subdiff_graph
    from envcalc.transforms import conjugate_exact

    G = subdiff_graph(ABS)
    x = y = F(1)
    bound = ABS.value_at(x).finite() + conjugate_exact(ABS).value_at(y).finite()
    assert fitzpatrick(G, x, y) <= bound
    dropped = max(x * b + a * y for a, b in G.pairs)
    assert dropped > bound


# ---------------------------------------------------------------------------
# planted defects: a wrong table or kernel makes a check fail, and the
# witness names the planted probe or pair
# ---------------------------------------------------------------------------


def _planted(inst, **tables):
    """A context whose listed fields hold the given wrong values; the
    context's cached fields live in its __dict__."""
    ctx = CheckContext(inst)
    ctx.__dict__.update(tables)
    return ctx


def test_maxsdsp_vii_fails_at_a_probe_without_subgradients():
    ctx = CheckContext(ABS)
    x0 = ctx.dom_probes[len(ctx.dom_probes) // 2]
    table = tuple(None if x == x0 else iv for x, iv in zip(ctx.probes, ctx.subdiff_at))
    got = _dispatch("maxsdsp.vii", "abs", _planted(ABS, subdiff_at=table))
    assert (got.verdict, got.witness) == ("fail", x0)
    assert _dispatch("maxsdsp.vii", "abs", CheckContext(ABS)).verdict == "pass"


def test_dfdom_i_fails_on_a_closure_with_a_raised_end():
    # |x| on [-1, 1]; a "closure" that keeps a raised right end carries no
    # subgradient there, so the first graph pair at x = 1 fails
    f = PLConvex1D((F(-1), F(0), F(1)), (F(1), F(0), F(1)))
    wrong = replace(f, override_right=as_extreal(F(2)))
    got = _dispatch("dfdom.i", "hat", _planted(f, closure=wrong))
    assert (got.verdict, got.witness) == ("fail", (F(1), F(1)))
    assert _dispatch("dfdom.i", "hat", CheckContext(f)).verdict == "pass"


def test_quadratic_gallery_fails_on_a_wrong_coupling_cell(monkeypatch):
    real = theoremlab.fitzpatrick_table
    x0, y0 = F(1), F(-1)

    def planted(src, xs, ys):
        table = real(src, xs, ys)
        i, j = xs.index(x0), ys.index(y0)
        table[i][j] = as_extreal(table[i][j].finite() + 1)
        return table

    monkeypatch.setattr(theoremlab, "fitzpatrick_table", planted)
    square, gap = theoremlab._gallery_quadratic().checks
    assert (square.verdict, square.witness) == ("fail", (x0, y0))
    assert (gap.verdict, gap.witness, gap.margin) == ("fail", (x0, y0), 0)


@pytest.mark.parametrize("tid, inst, cell, delta", [
    # h(x) + h*(x*) bounds the cell from above, with equality on the graph
    ("dfdom.ineq", ABS, (F(1), F(1)), 2),
    ("dfdom.ineq", GridFunction(1, (-1.0, 0.0, 1.0), (1.0, 0.0, 1.0)), (F(1), F(1)), 2),
    # f(x) + phi(x, 0) bounds smile(x) from above; the witness is x
    ("fsp.iii", ABS, (F(1), F(0)), -2),
    # <x, x*> bounds the cell from below, with equality on the graph
    ("maxsdsp.ii", ABS, (F(1), F(1)), -2),
    # the indicator's cell is the support function exactly
    ("ncfitz", Interval1D(F(0), F(1)), (F(1), F(1)), 2),
])
def test_fitzpatrick_readers_fail_on_a_wrong_cell(monkeypatch, tid, inst, cell, delta):
    real = theoremlab.fitzpatrick_table
    x0, y0 = cell

    def planted(src, xs, ys):
        table = real(src, xs, ys)
        i, j = list(xs).index(x0), list(ys).index(y0)
        table[i][j] = as_extreal(table[i][j].finite() + delta)
        return table

    assert run_check(tid, inst).verdict == "pass"
    monkeypatch.setattr(theoremlab, "fitzpatrick_table", planted)
    got = run_check(tid, inst)
    assert got.verdict == "fail"
    assert got.witness == (x0 if tid == "fsp.iii" else cell)


def test_half_circle_gallery_fails_on_a_wrong_closure_interval(monkeypatch):
    real = theoremlab.subdiffs_exact

    def planted(f, xs):
        out = real(f, xs)
        if f.override_left is None:  # the closure's intervals
            out[list(xs).index(F(0))] = Interval1D(F(5), F(6))
        return out

    monkeypatch.setattr(theoremlab, "subdiffs_exact", planted)
    window = theoremlab._gallery_half_circle().checks[2]
    assert window.theorem_id == "gallery.half-circle.closure-graph-window"
    assert (window.verdict, window.witness) == ("fail", F(0))


HAT = PLConvex1D((F(-1), F(0), F(1)), (F(1), F(0), F(1)))  # |x| on [-1, 1]


@pytest.mark.parametrize("tid, table, k, inside", [
    # cup <= sharp <= f, with equality where f has a subgradient
    ("fcupdiez.i", "cup_at", None, True),
    # smile <= cup, with equality to f where f has a subgradient
    ("fsp.i", "smile_at", None, True),
    # smile recovers f on the domain, and off it (+inf there)
    ("maxsdsp.iii", "smile_at", None, True),
    ("maxsdsp.iv", "smile_at", None, False),
    # smile_eps grows with eps and recovers f, on the domain and off it;
    # k picks the eps table of _EPS_LADDER that takes the wrong cell
    ("fspeps.ii", "smile_eps_at", 1, True),
    ("fspeps.iii", "smile_eps_at", 1, True),
    ("fspeps.iv", "smile_eps_at", 1, False),
])
def test_envelope_table_readers_fail_on_a_wrong_cell(tid, table, k, inside):
    """One wrong cell in the envelope table a check reads, at a domain
    probe or at the first probe (outside the domain): f + 1, or 0 where f
    is +inf.  The witness names the probe, with its eps where the check
    walks the eps ladder."""
    ctx = CheckContext(HAT)
    assert _dispatch(tid, "hat", ctx).verdict == "pass"
    x0 = ctx.dom_probes[len(ctx.dom_probes) // 2] if inside else ctx.probes[0]
    assert ctx.dom.contains(x0) == inside
    i = ctx.probes.index(x0)
    fx = ctx.f_at[i]
    wrong = as_extreal(fx.finite() + 1 if fx.is_finite else 0)

    def plant(col):
        return col[:i] + (wrong,) + col[i + 1:]

    good = getattr(ctx, table)
    bad = plant(good) if k is None else good[:k] + (plant(good[k]),) + good[k + 1:]
    got = _dispatch(tid, "hat", _planted(HAT, **{table: bad}))
    want = (x0, theoremlab._EPS_LADDER[k]) if tid in ("fspeps.iii", "fspeps.iv") else x0
    assert (got.verdict, got.witness) == ("fail", want)


# |x| on [-1, 1] with its corner cut between -1/4 and 1/4: closed, convex,
# on the same domain and slope range as HAT, and above it only inside
# (-1/4, 1/4), where the probe 0 is the one probe it moves
CUT_HAT = PLConvex1D((F(-1), F(-1, 4), F(0), F(1, 4), F(1)),
                     (F(1), F(1, 4), F(1, 8), F(1, 4), F(1)))


def _with_cell(col, probes, x0, cell):
    i = list(probes).index(x0)
    return col[:i] + (cell,) + col[i + 1:]


@pytest.mark.parametrize("tid, plant, witness", [
    # circ <= f with equality on the subdifferential's domain: the cut
    # corner lifts circ above f at 0
    ("fcirc.i", lambda c: {"circ": CUT_HAT}, F(0)),
    # circ is its own hull: a raised right end is not
    ("fcirc.ii", lambda c: {"circ": replace(HAT, override_right=as_extreal(F(2)))},
     "hull of the hull moved"),
    # star_cup is circ's conjugate: raise it at the dual breakpoint 1
    ("fcirc.ii", lambda c: {"star_cup": PLConvex1D((F(-1), F(1)), (F(0), F(1, 8)), F(-1), F(1))},
     "dual envelope vs hull conjugate"),
    # the subdifferential of f is circ's, cut to f's slope range: one wrong
    # interval at 1/2, or a circ whose corner at 0 carries fewer slopes
    ("fcirc.iii", lambda c: {"circ_range_at": _with_cell(
        c.circ_range_at, c.circ_probes, F(1, 2), Interval1D(F(0), F(1)))}, F(1, 2)),
    ("fcirc.iii", lambda c: {"circ": CUT_HAT, "circ_probes": c.circ_probes,
                             "circ_range_at": c.circ_range_at}, (F(0), F(-1))),
    # circ's cut subdifferential is nonempty exactly on f's subdifferential
    # domain: empty at the domain probe 1/2, or nonempty at -2, off it
    ("fcirc.iv", lambda c: {"circ_range_at": _with_cell(
        c.circ_range_at, c.circ_probes, F(1, 2), None)}, F(1, 2)),
    ("fcirc.iv", lambda c: {"circ_range_at": _with_cell(
        c.circ_range_at, c.circ_probes, F(-2), Interval1D(F(0), F(0)))}, F(-2)),
    # same subdifferential iff same slope range: the cut corner changes
    # the first and keeps the second
    ("fcirc.v", lambda c: {"circ": CUT_HAT}, (False, True)),
    # a maximal instance's circ is its closure, and star_cup its conjugate
    ("maxcup", lambda c: {"circ": CUT_HAT}, "envelope moved a maximal instance"),
    ("maxcup", lambda c: {"star_cup": PLConvex1D((F(-1), F(1)), (F(0), F(1, 8)), F(-1), F(1))},
     "envelope moved a maximal instance"),
])
def test_hull_readers_fail_on_a_wrong_circ(tid, plant, witness):
    """The smallest wrong ``circ``, ``circ_range_at`` or ``star_cup`` in
    the context makes each double-conjugate hull check FAIL, with the
    planted probe, pair or identity as witness."""
    ctx = CheckContext(HAT)
    assert _dispatch(tid, "hat", ctx).verdict == "pass"
    got = _dispatch(tid, "hat", _planted(HAT, **plant(ctx)))
    assert (got.verdict, got.witness) == ("fail", witness)


def _with_net_row(ctx, **cells):
    """ctx's net with its middle row changed in the named cells; on HAT
    that row has x = 0 and r = 1/4, the net checks' witness."""
    k = len(ctx.net) // 2
    row = dict(zip(("x", "fx", "r", "a", "iv", "fa"), ctx.net[k]))
    row.update({name: cell(row) for name, cell in cells.items()})
    return {"net": ctx.net[:k] + (tuple(row.values()),) + ctx.net[k + 1:]}


@pytest.mark.parametrize("tid, inst, plant, witness", [
    # f's shape against the shape of f with its raised end raised further:
    # the closure's shape carries the end's subgradients, f's does not
    ("dfdom.e3", replace(HAT, override_right=as_extreal(F(2))),
     lambda c: {"shape": theoremlab._graph_shape(HAT)}, None),
    # the subdifferential's domain must close to the domain's closure
    ("ba.density", HAT, lambda c: {"subdiff_domain": Interval1D(F(-1), F(1, 2))},
     "closures differ"),
    # a -inf smile cell makes the probed smile improper
    ("fsp.ii", HAT, lambda c: {"smile_at": _with_cell(c.smile_at, c.probes, F(0), NEG_INF)},
     (False, True)),
    # a net point a moved 2r from x, or f(a) raised by 3r, past lam * r
    ("maxsdsp.v", HAT, lambda c: _with_net_row(c, a=lambda row: row["a"] + 2 * row["r"]),
     (F(0), F(1, 4))),
    ("maxsdsp.v", HAT, lambda c: _with_net_row(
        c, fa=lambda row: as_extreal(row["fa"].finite() + 3 * row["r"])),
     (F(0), F(1, 4), "value")),
    # a subgradient of slope 3 at a, with |x - a| = r / 2 and lam = 1
    ("maxsdsp.vi", HAT, lambda c: _with_net_row(c, iv=lambda row: Interval1D(F(3), F(3))),
     (F(0), F(1, 4))),
    # the slope range must close to the conjugate's domain
    ("maxsdsp.closure", HAT, lambda c: {"slope_range": Interval1D(F(-1), F(2))},
     ("domain side", True, "range side", False)),
    # the upper envelope equals cup on the domain: one wrong cup cell at
    # 1/2; the epigraph cuts and the envelope agree on v >= value: every
    # piece raised by 1 breaks that at the first probe, -2, where the
    # envelope reads 6 and the cuts 5; sharp equals cup on the hull: the
    # cut corner moves it at 0
    ("fcupdiez.iii", HAT, lambda c: {"cup_at": _with_cell(
        c.cup_at, c.probes, F(1, 2), as_extreal(F(3, 2)))}, F(1, 2)),
    ("fcupdiez.iii", HAT, lambda c: {"envelope": MaxAffine(
        1, tuple((a, s, lv + 1) for a, s, lv in c.envelope.pieces))}, (F(-2), F(5))),
    ("fcupdiez.iii", HAT, lambda c: {"sharp": CUT_HAT}, F(0)),
    # cup and sharp carry f's subgradients: a wrong interval at 1/2, or a
    # cup whose cut corner at 0 lacks the probe graph's pair (0, -1)
    ("fcupdiez.iv", HAT, lambda c: {"subdiff_at": _with_cell(
        c.subdiff_at, c.probes, F(1, 2), Interval1D(F(0), F(1)))}, F(1, 2)),
    ("fcupdiez.iv", HAT, lambda c: {"cup": CUT_HAT}, (F(0), F(-1))),
    # cup and sharp are fixed points: a raised end is not
    ("fcupdiez.v", HAT, lambda c: {"cup": replace(HAT, override_right=as_extreal(F(2)))},
     "idempotence broken"),
    ("fcupdiez.v", HAT, lambda c: {"sharp": replace(HAT, override_right=as_extreal(F(2)))},
     "idempotence broken"),
    # same subdifferential iff same subdifferential domain: a shape of the
    # cut corner, or a domain open at -1, breaks one side only
    ("fcupdiez.viii", HAT, lambda c: {"shape": theoremlab._graph_shape(CUT_HAT)},
     ("envelope", False, True)),
    ("fcupdiez.viii", HAT, lambda c: {"subdiff_domain": Interval1D(F(-1), F(1), True)},
     ("envelope", True, False)),
    # the n-cup chain reaches the envelope: a piece of level 1/2 at 0
    # raises the planted envelope at the probe 0 only
    ("fcupdiez.ix", HAT, lambda c: {"envelope": MaxAffine(
        1, (*c.envelope.pieces, (F(0), F(0), F(1, 2))))}, (F(0), 2)),
    # the smile of every tilt is proper iff f* is star_cup: a raised
    # star_cup breaks that at the first dual, -2
    ("spxstar", HAT, lambda c: {"star_cup": PLConvex1D(
        (F(-1), F(1)), (F(0), F(1, 8)), F(-1), F(1))}, F(-2)),
])
def test_table_readers_fail_on_a_planted_table(tid, inst, plant, witness):
    """The smallest wrong table each check reads makes it FAIL: a shape, a
    subdifferential domain, a smile or cup cell, a subgradient interval,
    one net row, a slope range, an envelope, cup, sharp or star_cup.
    Where the check names a probe, the witness is the planted one (a net
    row's probe and radius, then the failing clause)."""
    ctx = CheckContext(inst)
    assert _dispatch(tid, "planted", ctx).verdict == "pass"
    got = _dispatch(tid, "planted", _planted(inst, **plant(ctx)))
    assert (got.verdict, got.witness) == ("fail", witness)


def test_spxstar_fails_on_an_improper_smile_of_one_tilt(monkeypatch):
    """A smile kernel that reads -inf at one probe of the tilt by the dual
    1 only: the check names that dual."""
    tilt = HAT.tilt(F(1))
    real = theoremlab.envelope_values

    def planted(f, kind, xs, eps=None):
        vals = real(f, kind, xs, eps)
        return [NEG_INF, *vals[1:]] if f == tilt else vals

    assert _dispatch("spxstar", "hat", CheckContext(HAT)).verdict == "pass"
    monkeypatch.setattr(theoremlab, "envelope_values", planted)
    got = _dispatch("spxstar", "hat", CheckContext(HAT))
    assert (got.verdict, got.witness) == ("fail", F(1))


def test_dfdom_iv_fails_on_a_hull_that_misses_a_sample():
    # samples 0, 5, 0 at x = 0, 1, 2: the true hull's slope 0 at x = 1 is a
    # candidate that the raised sample cannot carry, so the sampled graph is
    # not maximal and the check passes.  A "hull" cut short at x = 1/2
    # offers no candidate at 1 or 2; the graph {(0, 0)} is then maximal on
    # a nonconvex grid, and the witness is the first sample left without a pair
    g = GridFunction(1, (0.0, 1.0, 2.0), (0.0, 5.0, 0.0))
    assert _dispatch("dfdom.iv", "bump", CheckContext(g)).verdict == "pass"
    short = PLConvex1D((F(0), F(1, 2)), (F(0), F(0)))
    got = _dispatch("dfdom.iv", "bump", _planted(g, grid_hull=short))
    assert (got.verdict, got.witness) == ("fail", 1.0)
