"""End-to-end acceptance gate.

Each test runs one numbered criterion at its stated tolerance and time
budget, prints a single verdict line, and appends it to the summary block
emitted after the run.  Exact criteria compare rational values with zero
tolerance; sampled ones use the stated float bounds.
"""

import time
from fractions import Fraction as F

import conftest
from test_kernels import n_cup_enum, ni_nonneg

from envcalc.extreal import NEG_INF, POS_INF, as_extreal, ext_add, ext_inf, ext_sup
from envcalc.funcrep import GridFunction, Interval1D, PLConvex1D, lsc_defect, pl_equal
from envcalc.transforms import (
    conjugate_brute,
    conjugate_exact,
    conjugate_llt,
)
from envcalc.operators import (
    OperatorGraph,
    eps_subdiff_interval,
    fitzpatrick,
    fitzpatrick_structured,
    grid_subdiff_test,
    normal_cone,
    subdiff_exact,
    subdiff_graph,
    subdiff_structure,
    subdiff_test,
)
from envcalc.envelopes import (
    brondsted_search,
    circ,
    circ_exact,
    cup_exact,
    cup_value,
    portable_envelope,
    sharp_value,
    smile,
    smile_eps_value,
    smile_value,
    star_cup,
    star_cup_exact,
    upper_envelope,
    n_cup,
)
from envcalc.theoremlab import (
    InstanceGenerator,
    gallery,
    grid_hull_graph,
    primal_probes,
)


def record(number, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    tail = f" [{detail}]" if detail else ""
    line = f"criterion {number:2d}: {verdict}  ({elapsed:.2f}s / {budget:.0f}s){tail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert verdict == "PASS", line


def seeded_pl(count=200):
    return InstanceGenerator(42).generate("pl-convex", count)


def grid_span(vals, lo_pad, hi_pad, count):
    lo, hi = min(vals) - lo_pad, max(vals) + hi_pad
    return [lo + (hi - lo) * F(k, count - 1) for k in range(count)]


def slope_pool(f):
    pool = list(f.slopes())
    for rec in (f.left_recession, f.right_recession):
        if rec is not None:
            pool.append(rec)
    return pool or [F(0)]


def test_criterion_01_conventions():
    t0 = time.perf_counter()
    ok = (
        (POS_INF + NEG_INF) is POS_INF
        and (NEG_INF + POS_INF) is POS_INF
        and ext_sup([]) is NEG_INF
        and ext_inf([]) is POS_INF
    )
    record(1, ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_quadratic_fitzpatrick():
    t0 = time.perf_counter()
    ts = [-2.0 + k / 100.0 for k in range(401)]
    G = OperatorGraph(1, tuple((t, t) for t in ts))
    grid = [-2.0 + k / 10.0 for k in range(41)]
    worst = 0.0
    for x in grid:
        for y in grid:
            v = fitzpatrick(G, x, y).finite()
            worst = max(worst, abs(v - (x + y) ** 2 / 4))
    record(2, worst <= 1e-9, time.perf_counter() - t0, 5.0,
           detail=f"max |phi - (x+y)^2/4| = {worst:.2e}")


def test_criterion_03_open_interval_chain():
    t0 = time.perf_counter()
    f = PLConvex1D((F(0), F(1)), (F(0), F(0)), None, None, POS_INF, POS_INF)
    probes = [F(-5) + F(k, 4) for k in range(41)]
    ok = all(cup_value(f, x) == 0 and sharp_value(f, x) == 0 for x in probes)
    g = circ_exact(f)
    C = Interval1D(F(0), F(1))
    for x in probes:
        want = as_extreal(0) if C.contains(x) else POS_INF
        ok = ok and g.value_at(x) == want
        iv = subdiff_exact(g, x)
        ok = ok and iv == (normal_cone(C, x) if C.contains(x) else None)
    record(3, ok, time.perf_counter() - t0, 5.0)


def test_criterion_04_equivalence_battery():
    t0 = time.perf_counter()
    ok = True
    for f in seeded_pl():
        for x in primal_probes(f):
            fx = f.value_at(x)
            ok = ok and smile_value(f, x) == fx
            ok = ok and smile_eps_value(f, x, F(1, 10)) == fx
            ok = ok and smile_eps_value(f, x, F(1)) == fx
        G = subdiff_graph(f)
        # probe window: breakpoint hull crossed with the sampled dual range,
        # where every probe sees a compatible pair of the finite sample
        b0, bm = f.breakpoints[0], f.breakpoints[-1]
        xs = [b0 + (bm - b0) * F(k, 20) for k in range(21)]
        ys = grid_span(sorted({b for _a, b in G.pairs}), 2, 2, 21)
        ok = ok and ni_nonneg(G, [(x, y) for x in xs for y in ys])
        b = f.breakpoints
        for x in (b[0], b[len(b) // 2], b[-1]):
            iv = subdiff_exact(f, x)
            if iv is None:
                ok = False
                continue
            xstar = iv.lo if iv.lo is not None else (iv.hi or F(0))
            for eps in (F(1, 100), F(1, 10**4), F(1, 10**6)):
                r = brondsted_search(f, x, xstar, eps)
                ok = ok and r.found and r.renorm_ok(eps) and r.product_ok(eps)
        if not ok:
            break
    record(4, ok, time.perf_counter() - t0, 60.0)


def _pl_chains_ok(f):
    st = subdiff_structure(f)
    clf = f.closure()
    fstar = conjugate_exact(f)
    cup = cup_exact(f)
    starcup = star_cup_exact(f)
    circf = circ_exact(f)
    xs = primal_probes(f)[::2]
    ss = grid_span(slope_pool(f), 2, 2, 7)
    for x in xs:
        lo = smile_value(f, x)
        mid = cup_value(f, x)
        hi = sharp_value(f, x)
        if not (lo <= mid <= hi <= f.value_at(x)):
            return False
        if not (mid <= clf.value_at(x) <= circf.value_at(x)):
            return False
        for s in ss:
            phi = fitzpatrick_structured(st, x, s)
            if not phi <= ext_add(clf.value_at(x), fstar.value_at(s)):
                return False
            if not phi <= ext_add(cup.value_at(x), starcup.value_at(s)):
                return False
    return True


def _grid_chains_ok(g, tol=1e-9):
    hull, _cands, G = grid_hull_graph(g)
    env = upper_envelope(g, G, tol=tol)
    pts = [p for p, _v in g.finite_items()]
    lo_pt, hi_pt = min(pts), max(pts)
    normals = OperatorGraph(1, ((lo_pt, -1.0), (hi_pt, 1.0)))
    outside = [lo_pt - 1.0, hi_pt + 1.0]
    sharp_rows = dict(portable_envelope(g, G, normals, pts + outside))
    duals = sorted({b for _a, b in G.pairs})
    circ_rows = dict(circ(g, G, duals, pts))
    for x in pts:
        # smile's anchor set can be empty after float slope filtering; its
        # -inf is then a trivially valid lower bound
        lo = smile(g, G, x)
        ev = env.value_at(x)
        if not float(lo) <= float(ev) + tol:
            return False
        sv = sharp_rows[x]
        if sv.is_pos_inf or not float(ev) <= float(sv) + tol:
            return False
        gx = g.value_at(x)
        if gx.is_finite and not float(sv) <= float(gx.finite()) + tol:
            return False
        hv = float(hull.value_at(F(x)).finite())
        if not float(ev) <= hv + tol:
            return False
        if not hv <= float(circ_rows[x]) + tol:
            return False
    for x in outside:
        if not sharp_rows[x].is_pos_inf:
            return False
    hstar = conjugate_exact(hull)
    for x in pts[:7]:
        for s in duals[:7]:
            phi = float(fitzpatrick(G, x, s))
            bound = hull.value_at(F(x)) + hstar.value_at(F(s))
            if not phi <= float(bound) + tol:
                return False
            impr = float(env.value_at(x)) + float(star_cup(g, G, s))
            if not phi <= impr + tol:
                return False
    return True


def test_criterion_05_envelope_chains():
    t0 = time.perf_counter()
    gen = InstanceGenerator(42)
    ok = all(_pl_chains_ok(f) for f in gen.generate("pl-convex", 200))
    ok = ok and all(_grid_chains_ok(g) for g in gen.generate("grid-nonconvex", 50))
    record(5, ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_nfold_collapse():
    t0 = time.perf_counter()
    ok = True
    enum_runs = 0
    for f in seeded_pl(50):
        G = subdiff_graph(f)
        env = upper_envelope(f, G)
        probes = primal_probes(f)
        for n in (2, 3):
            ok = ok and all(n_cup(f, G, n, x) == env.value_at(x) for x in probes)
        if len(G.pairs) <= 60:
            x = probes[len(probes) // 2]
            ok = ok and n_cup_enum(f, G, 2, x) == env.value_at(x)
            enum_runs += 1
    record(6, ok and enum_runs > 0, time.perf_counter() - t0, 120.0,
           detail=f"enumeration cross-checked on {enum_runs}/50 graphs")


def test_criterion_07_conjugate_identities():
    t0 = time.perf_counter()
    ok = True
    for f in seeded_pl():
        if (f.left_recession is not None and f.left_recession > 0) or (
            f.right_recession is not None and f.right_recession < 0
        ):
            inf_over_dom = NEG_INF
        else:
            inf_over_dom = as_extreal(min(f.values))
        got = star_cup_exact(f).value_at(F(0))
        if inf_over_dom is NEG_INF:
            ok = ok and got.is_pos_inf
        else:
            ok = ok and got == as_extreal(-inf_over_dom.finite())
        starcup = star_cup_exact(f)
        circstar = conjugate_exact(circ_exact(f))
        left = circ_exact(conjugate_exact(f))
        right = conjugate_exact(cup_exact(f))
        for s in grid_span(slope_pool(f), 2, 2, 21):
            ok = ok and starcup.value_at(s) == circstar.value_at(s)
            ok = ok and left.value_at(s) == right.value_at(s)
        if not ok:
            break
    record(7, ok, time.perf_counter() - t0, 30.0)


def test_criterion_08_gallery_verdicts():
    t0 = time.perf_counter()
    hc = gallery("half-circle")
    v = hc.objects["verdict"]
    ok = (
        lsc_defect(hc.objects["instance"]) == [F(-1), F(1)]
        and v.is_maximal
        and v.checked == 401
    )
    tp = gallery("two-patch")
    x, s = tp.objects["witness"]
    ok = ok and (x, s) == (0.5, 0.0)
    ok = ok and subdiff_test(tp.objects["hull"], F(1, 2), F(0))
    ok = ok and not grid_subdiff_test(tp.objects["instance"], x, s)
    qd = gallery("quadrant")
    ok = ok and all(c.verdict == "pass" for c in qd.checks)
    ok = ok and len(qd.objects["graph"].pairs) > 0
    for gal in (hc, tp):
        ok = ok and all(c.verdict == "pass" for c in gal.checks)
    record(8, ok, time.perf_counter() - t0, 30.0)


def test_criterion_09_brondsted_bounds():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for f in InstanceGenerator(42).generate(
        "pl-convex-with-override", 50, tiny_defect=True
    ):
        ends = []
        if f.override_left is not None:
            ends.append(("left", f.breakpoints[0]))
        if f.override_right is not None:
            ends.append(("right", f.breakpoints[-1]))
        for side, x in ends:
            ok = ok and subdiff_exact(f, x) is None
            for eps in (F(1, 100), F(1, 10**4)):
                iv = eps_subdiff_interval(f, x, eps)
                if iv is None:
                    ok = False
                    continue
                xstar = iv.hi if side == "left" else iv.lo
                r = brondsted_search(f, x, xstar, eps)
                ok = ok and r.found
                ok = ok and (x - r.point) ** 2 <= eps
                ok = ok and r.dual_gap**2 <= eps * r.scale**2
                checked += 1
        if not ok:
            break
    record(9, ok and checked >= 50, time.perf_counter() - t0, 30.0,
           detail=f"{checked} endpoint searches")


def test_criterion_10_performance_backend():
    t0 = time.perf_counter()

    def make(n):
        xs = [-4.0 + 8.0 * k / (n - 1) for k in range(n)]
        g = GridFunction(1, tuple(xs), tuple(x * x / 2.0 for x in xs))
        duals = tuple(-8.0 + 16.0 * k / (n - 1) for k in range(n))
        return g, duals

    g, duals = make(4096)
    brute = conjugate_brute(g, duals)
    fast = conjugate_llt(g, duals)
    diff = max(
        abs(a.finite() - b.finite()) for a, b in zip(brute.values, fast.values)
    )
    ok = diff <= 1e-9

    g, duals = make(2**16)
    ratio = 0.0
    for _attempt in range(2):
        t1 = time.perf_counter()
        conjugate_brute(g, duals)
        brute_s = time.perf_counter() - t1
        t1 = time.perf_counter()
        conjugate_llt(g, duals)
        llt_s = time.perf_counter() - t1
        ratio = brute_s / llt_s
        if ratio >= 20:
            break
    ok = ok and ratio >= 20
    record(10, ok, time.perf_counter() - t0, 120.0,
           detail=f"diff {diff:.1e}, speedup {ratio:.1f}x")
