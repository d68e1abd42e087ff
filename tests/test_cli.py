import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envcalc import cli
from envcalc.cli import build_parser, main, parse_probe_grid
from envcalc.extreal import MAX_EXACT_DIGITS, as_extreal, format_scalar
from envcalc.funcrep import (
    MAX_GRID_POINTS,
    GridFunction,
    PLConvex1D,
    dump_instance,
    load_instance,
    pl_equal,
)
from envcalc.operators import OperatorGraph, graph_dump, subdiff_graph
from envcalc.theoremlab import REGISTRY, InstanceGenerator, TheoremCheck, run_suite

from test_funcrep import ABS


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def abs_file(tmp_path):
    return write_json(tmp_path / "abs.json", dump_instance(ABS))


@pytest.fixture
def grid_file(tmp_path):
    g = GridFunction(1, (0.0, 1.0, 2.0), (0.0, 0.5, 2.0))
    return write_json(tmp_path / "grid.json", dump_instance(g))


# ---------------------------------------------------------------------------
# probe grids
# ---------------------------------------------------------------------------


def test_probe_grid_parses_counts_and_negatives():
    assert parse_probe_grid("-1:1:3") == (F(-1), F(0), F(1))
    assert parse_probe_grid("2:5:1") == (F(2),)
    got = parse_probe_grid("0:1:2", exact=False)
    assert got == (0.0, 1.0) and all(isinstance(v, float) for v in got)


@pytest.mark.parametrize("bad", ["1:2", "a:b:3", "0:1:0", "::"])
def test_probe_grid_rejects_malformed(bad):
    from envcalc.cli import _UsageError

    with pytest.raises(_UsageError):
        parse_probe_grid(bad)


_grid_ends = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=60).map(format_scalar),
    st.decimals(min_value=-50, max_value=50, places=3).map(str),
)


@given(_grid_ends, _grid_ends, st.integers(min_value=1, max_value=40))
@settings(max_examples=300, deadline=None)
def test_exact_probe_grid_is_start_plus_step_k(lo, hi, count):
    start, stop = F(lo), F(hi)
    want = [start]
    if count > 1:
        step = (stop - start) / (count - 1)
        want = [start + step * k for k in range(count - 1)] + [stop]
    got = parse_probe_grid(f"{lo}:{hi}:{count}")
    assert got == tuple(want)
    assert all(type(q) is F for q in got)


# ---------------------------------------------------------------------------
# value verbs
# ---------------------------------------------------------------------------


def test_conjugate_exact_csv(abs_file, tmp_path):
    out = tmp_path / "conj.csv"
    rc = main(["conjugate", "--instance", abs_file,
               "--dual-grid", "-2:2:5", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines() == [
        "x,value", "-2,inf", "-1,0", "0,0", "1,0", "2,inf",
    ]


def test_conjugate_grid_backend(grid_file, tmp_path, monkeypatch):
    monkeypatch.setenv("ENVCALC_BACKEND", "grid")
    out = tmp_path / "conj.csv"
    rc = main(["conjugate", "--instance", grid_file,
               "--dual-grid", "0:1:3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value" and len(lines) == 4


def test_subdiff_rows(abs_file, tmp_path):
    out = tmp_path / "sd.csv"
    assert main(["subdiff", "--instance", abs_file, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,lo,hi"
    assert "0,-1,1" in lines


def test_envelope_cup_on_open_interval_gallery(tmp_path):
    out = tmp_path / "cup.csv"
    rc = main(["envelope", "--kind", "cup", "--instance", "gallery:open-interval",
               "--probes", "-5:5:11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 12
    assert all(line.endswith(",0") for line in lines[1:])


def test_fitz_on_quadratic_gallery(tmp_path):
    out = tmp_path / "fitz.csv"
    rc = main(["fitz", "--instance", "gallery:quadratic",
               "--probes", "1:1:1", "--dual-grid", "1:1:1", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1] == "1,1,1"


def test_envelope_ncup_needs_n(abs_file):
    assert main(["envelope", "--kind", "ncup", "--instance", abs_file,
                 "--probes", "0:1:2"]) == 2


def test_envelope_ncup_matches_cup(abs_file, tmp_path, capsys):
    rc = main(["envelope", "--kind", "ncup", "-n", "2", "--instance", abs_file,
               "--probes", "-1:1:3"])
    assert rc == 0
    ncup_out = capsys.readouterr().out
    rc = main(["envelope", "--kind", "cup", "--instance", abs_file,
               "--probes", "-1:1:3"])
    assert rc == 0
    assert capsys.readouterr().out == ncup_out


def test_hull_of_interval(tmp_path):
    src = write_json(tmp_path / "iv.json",
                     {"kind": "interval", "lo": "0", "hi": "1", "lo_open": True})
    out = tmp_path / "hull.csv"
    assert main(["hull", "--instance", src, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "-inf,1"


# ---------------------------------------------------------------------------
# instance re-emission round trip
# ---------------------------------------------------------------------------


def test_clconv_json_round_trip(tmp_path):
    f = PLConvex1D((F(-2), F(0), F(3)), (F(4), F(0), F(6)), None, F(2))
    src = write_json(tmp_path / "f.json", dump_instance(f))
    out = tmp_path / "cl.json"
    assert main(["clconv", "--instance", src, "--out", str(out)]) == 0
    back = load_instance(json.loads(out.read_text()))
    assert back == f.closure()
    # a closed instance re-emits itself
    out2 = tmp_path / "cl2.json"
    assert main(["clconv", "--instance", str(out), "--out", str(out2)]) == 0
    assert load_instance(json.loads(out2.read_text())) == back


def test_conjugate_json_round_trip(abs_file, tmp_path):
    out = tmp_path / "conj.json"
    assert main(["conjugate", "--instance", abs_file, "--out", str(out)]) == 0
    twice = tmp_path / "conj2.json"
    assert main(["conjugate", "--instance", str(out), "--out", str(twice)]) == 0
    back = load_instance(json.loads(twice.read_text()))
    assert pl_equal(back, ABS)


def test_infconv_json_identity(abs_file, tmp_path):
    out = tmp_path / "ic.json"
    rc = main(["infconv", "--instance", abs_file, "--instance", abs_file,
               "--out", str(out)])
    assert rc == 0
    assert pl_equal(load_instance(json.loads(out.read_text())), ABS)


def test_hull_json_reparses(abs_file, tmp_path):
    out = tmp_path / "hull.json"
    assert main(["hull", "--instance", abs_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "interval"
    load_instance(payload)


# ---------------------------------------------------------------------------
# checks, suites, galleries
# ---------------------------------------------------------------------------


def test_check_pass_and_csv(abs_file, tmp_path, capsys):
    out = tmp_path / "check.csv"
    rc = main(["check", "maxcup", "--instance", abs_file, "--out", str(out)])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
    assert out.read_text().splitlines()[0].startswith("theorem_id,")


def test_check_not_applicable_exits_3(abs_file):
    assert main(["check", "ncfitz", "--instance", abs_file]) == 3


def test_check_unknown_id_exits_2(abs_file):
    assert main(["check", "zz.nope", "--instance", abs_file]) == 2


def test_check_failure_exits_1(abs_file, capsys):
    # wire a synthetic always-fail check to exercise the failure path;
    # registry statements hold on valid instances, so none can fail honestly
    def fail_check(tid, desc, f):
        return TheoremCheck(tid, desc, "fail", "exact")

    REGISTRY["zz.control"] = (fail_check, (PLConvex1D,))
    try:
        assert main(["check", "zz.control", "--instance", abs_file]) == 1
        assert main(["suite", "zz.control", "--seed", "0", "-n", "1"]) == 1
    finally:
        del REGISTRY["zz.control"]
    capsys.readouterr()


def test_suite_small_run_exits_0(capsys):
    rc = main(["suite", "--seed", "42", "-n", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fail: 0" in out


def test_suite_unknown_id_exits_2(capsys):
    assert main(["suite", "zz.nope", "--seed", "0", "-n", "1"]) == 2
    capsys.readouterr()


def test_suite_negative_count_exits_2(capsys):
    assert main(["suite", "--seed", "0", "-n", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("envcalc: ")
    with pytest.raises(ValueError):
        run_suite(0, -1)
    # zero instances is a valid, empty run
    assert main(["suite", "--seed", "0", "-n", "0"]) == 0
    assert "checks: 0" in capsys.readouterr().out


def test_verb_table_names_the_parser_verbs():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(sub.choices) == set(cli._VERBS)


def test_gallery_verb(capsys):
    assert main(["gallery", "half-circle"]) == 0
    assert "pass" in capsys.readouterr().out
    assert main(["gallery", "nope"]) == 2


# ---------------------------------------------------------------------------
# exit codes for bad input
# ---------------------------------------------------------------------------


def test_unknown_verb_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_instance_file_exits_2(tmp_path):
    assert main(["conjugate", "--instance", str(tmp_path / "no.json")]) == 2


def test_malformed_instance_exits_2(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text("{not json")
    assert main(["conjugate", "--instance", str(src)]) == 2
    src2 = write_json(tmp_path / "bad2.json", {"kind": "mystery"})
    assert main(["conjugate", "--instance", src2]) == 2


_EXACT_VERBS = [
    ["conjugate"], ["subdiff"], ["fitz"],
    *(["envelope", "--kind", k] for k in ("cup", "sharp", "starcup", "circ", "smile")),
    ["envelope", "--kind", "smileeps", "--eps", "1/2"],
    ["envelope", "--kind", "ncup", "--n", "2"],
]


@pytest.mark.parametrize("mirror", [False, True])
def test_marked_wall_on_a_half_line_loads_and_matches_its_spelling(tmp_path, capsys, mirror):
    """A one-breakpoint file with a wall override and a recession beyond it
    loads (it used to exit 2) and gives its two-breakpoint spelling's exit
    code and output under every exact verb and every check."""
    if mirror:
        one = PLConvex1D((0,), (0,), -1, None, None, as_extreal(2))
        two = PLConvex1D((-1, 0), (1, 0), -1, None, None, as_extreal(2))
    else:
        one = PLConvex1D((0,), (0,), None, 1, as_extreal(2))
        two = PLConvex1D((0, 1), (0, 1), None, 1, as_extreal(2))
    files = [write_json(tmp_path / f"{i}.json", dump_instance(f)) for i, f in enumerate((one, two))]
    assert pl_equal(load_instance(files[0]), one)
    grids = ["--probes", "-3:3:13", "--dual-grid", "-3:3:13"]
    runs = [verb + grids for verb in _EXACT_VERBS] + [["check", t] for t in sorted(REGISTRY)]
    for argv in runs:
        seen = []
        for path in files:
            rc = main(argv + ["--instance", path])
            seen.append((rc, capsys.readouterr()))
        assert seen[0] == seen[1], argv
        assert seen[0][0] in (0, 1, 3), argv


def _one_line_error(err):
    return err.startswith("envcalc: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["envelope", "--kind", "cup", "--probes", "0:1/0:3"],
    ["fitz", "--probes", "0:1:3", "--dual-grid", "0:1/0:3"],
])
def test_zero_denominator_in_grid_spec_exits_2(abs_file, argv, capsys):
    assert main(argv + ["--instance", abs_file]) == 2
    assert _one_line_error(capsys.readouterr().err)


def test_zero_denominator_in_instance_exits_2(tmp_path, capsys):
    d = dump_instance(ABS)
    d["breakpoints"][0] = "1/0"
    src = write_json(tmp_path / "zero.json", d)
    assert main(["conjugate", "--instance", src]) == 2
    assert _one_line_error(capsys.readouterr().err)


# one entry past the limit, and none of the entries parses: the count is
# checked first
@pytest.mark.parametrize("kind, key, rest", [
    ("plconvex1d", "breakpoints", {"values": [0]}),
    ("grid", "values", {"dim": 1, "points": [0.0]}),
    ("indicator", "points", {"dim": 1}),
    ("maxaffine", "pieces", {"dim": 1}),
    ("opgraph", "pairs", {"dim": 1}),
])
def test_oversized_instance_exits_2_before_parsing(tmp_path, capsys, kind, key, rest):
    n = MAX_GRID_POINTS + 1
    src = write_json(tmp_path / "big.json", {"kind": kind, key: [None] * n, **rest})
    assert main(["conjugate", "--instance", src]) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err)
    assert f"{kind} instance lists {n} {key}, above the limit of {MAX_GRID_POINTS}" in err


@pytest.mark.parametrize("entry", ["instance", "probes", "dual-grid", "eps"])
def test_huge_exponent_exits_2_without_hanging(tmp_path, abs_file, entry):
    """Each exact entry point refuses a decimal whose exponent would build
    10**999999999.  The CLI runs in a subprocess under a wall-clock limit, so
    a parse that tries to build it fails here instead of hanging the run."""
    e = "1e999999999"
    huge = {"kind": "plconvex1d", "breakpoints": ["0", e], "values": ["0", "0"]}
    argv = {
        "instance": ["conjugate", "--instance", write_json(tmp_path / "huge.json", huge)],
        "probes": ["envelope", "--kind", "cup", "--instance", abs_file, "--probes", f"0:{e}:3"],
        "dual-grid": ["conjugate", "--instance", abs_file, "--dual-grid", f"0:{e}:3"],
        "eps": ["envelope", "--kind", "smileeps", "--instance", abs_file,
                "--probes", "-1:1:3", "--eps", e],
    }[entry]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-m", "envcalc.cli", *argv], capture_output=True,
                       text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 2 and _one_line_error(r.stderr), (r.returncode, r.stderr)
    assert f"'{e}' has over {MAX_EXACT_DIGITS} digits as an exact rational" in r.stderr


def test_eps_is_parsed_exactly(abs_file, monkeypatch, capsys):
    from envcalc import envelopes

    seen = []
    real = envelopes.envelope_result

    def spy(*args, **kwargs):
        seen.append(kwargs["eps"])
        return real(*args, **kwargs)

    monkeypatch.setattr(envelopes, "envelope_result", spy)
    # a float route rounds 1e-10 to 0 at denominator 10**9 and cannot read 1/3
    for spec in ("1/3", "0.25", "0.0000000001"):
        assert main(["envelope", "--kind", "smileeps", "--eps", spec,
                     "--instance", abs_file, "--probes", "-1:1:3"]) == 0
    assert seen == [F(1, 3), F(1, 4), F(1, 10**10)]
    assert main(["envelope", "--kind", "smileeps", "--eps", "1/0",
                 "--instance", abs_file, "--probes", "-1:1:3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["smile", "smileeps"])
def test_grid_backend_smile_on_exact_file(abs_file, monkeypatch, capsys, kind):
    monkeypatch.setenv("ENVCALC_BACKEND", "grid")
    probes = ["--probes", "-2:1:7"]
    assert main(["envelope", "--kind", "cup", "--instance", abs_file] + probes) == 0
    cup_rows = capsys.readouterr().out
    extra = ["--eps", "0.5"] if kind == "smileeps" else []
    assert main(["envelope", "--kind", kind, "--instance", abs_file] + probes + extra) == 0
    # float probes keep float cells; on a closed instance smile equals cup
    assert capsys.readouterr().out == cup_rows
    assert cup_rows.splitlines()[1] == "-2.0,2.0"


def test_bad_backend_env_exits_2(abs_file, monkeypatch):
    monkeypatch.setenv("ENVCALC_BACKEND", "quantum")
    assert main(["conjugate", "--instance", abs_file]) == 2


def test_forced_exact_on_grid_exits_3(grid_file, monkeypatch):
    monkeypatch.setenv("ENVCALC_BACKEND", "exact")
    assert main(["conjugate", "--instance", grid_file,
                 "--dual-grid", "0:1:3"]) == 3


def test_envelope_on_bare_graph_exits_3(tmp_path):
    G = subdiff_graph(ABS)
    src = write_json(tmp_path / "g.json", graph_dump(G))
    assert main(["envelope", "--kind", "cup", "--instance", src,
                 "--probes", "0:1:2"]) == 3


@pytest.mark.parametrize("backend", [None, "exact", "grid"])
def test_envelope_on_grid_instance_exits_3(grid_file, monkeypatch, capsys, backend):
    # both backends need a piecewise-linear instance
    if backend is not None:
        monkeypatch.setenv("ENVCALC_BACKEND", backend)
    assert main(["envelope", "--kind", "cup", "--instance", grid_file,
                 "--probes", "0:1:3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_line_error(err)


@pytest.mark.parametrize("backend", ["exact", "grid"])
@pytest.mark.parametrize("kind", ["cup", "starcup", "smile"])
def test_envelope_out_csv_is_the_rows(abs_file, tmp_path, monkeypatch, backend, kind):
    from envcalc import envelopes

    monkeypatch.setenv("ENVCALC_BACKEND", backend)
    out = tmp_path / "env.csv"
    assert main(["envelope", "--kind", kind, "--instance", abs_file,
                 "--probes", "-2:1:7", "--out", str(out)]) == 0
    probes = parse_probe_grid("-2:1:7", exact=backend == "exact")
    rows = envelopes.envelope_result(ABS, kind, probes, backend=backend)
    want = "x,value\n" + "".join(
        f"{format_scalar(as_extreal(x))},{format_scalar(v)}\n" for x, v in rows
    )
    assert out.read_bytes() == want.encode()


def test_tolerance_only_on_subdiff(abs_file, grid_file, capsys):
    assert main(["conjugate", "--instance", abs_file, "--tolerance", "1"]) == 2
    assert main(["subdiff", "--instance", grid_file, "--dual-grid", "0:2:5",
                 "--tolerance", "1e-9"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("values, member", [((0.0, -1.0), "-1e+308"), ((0.0, 1.0), "1e+308")])
def test_grid_subdiff_decides_overflowing_steps_exactly(tmp_path, capsys, values, member):
    # the step between the samples overflows to inf, and slope 0 times inf
    # is NaN in floats; over the rationals only the lower sample has slope 0
    g = GridFunction(1, (1e308, -1e308), values)
    name = write_json(tmp_path / "far.json", dump_instance(g))
    assert main(["subdiff", "--instance", name, "--dual-grid", "0:0:1"]) == 0
    assert capsys.readouterr().out == f"x,xstar\n{member},0.0\n"


def test_exports_resolve():
    import envcalc

    assert [n for n in envcalc.__all__ if not hasattr(envcalc, n)] == []


# ---------------------------------------------------------------------------
# bench and process entry
# ---------------------------------------------------------------------------


def test_bench_emits_timing_table(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,brute_seconds,llt_seconds,ratio,max_abs_diff"
    assert len(lines) == 8
    assert lines[1].startswith("1024,") and lines[7].startswith("65536,")
    for line in lines[1:]:
        assert float(line.split(",")[4]) <= 1e-9


def test_module_and_script_entry(abs_file):
    r = subprocess.run(
        [sys.executable, "-m", "envcalc.cli", "subdiff", "--instance", abs_file],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "x,lo,hi"
    r2 = subprocess.run(
        [sys.executable, "-m", "envcalc.cli", "check", "zz.nope",
         "--instance", abs_file],
        capture_output=True, text=True,
    )
    assert r2.returncode == 2


def test_cached_parser_repeats_every_outcome(abs_file, grid_file, capsys):
    # main reuses one parser per process; a second pass over the same argv
    # table must see exactly what the first pass saw
    table = [
        ["conjugate", "--instance", abs_file, "--dual-grid", "-2:2:5"],
        ["subdiff", "--instance", grid_file, "--dual-grid", "0:1:3"],
        ["check", "maxcup", "--instance", abs_file],
        ["suite", "maxcup", "--seed", "1", "-n", "1"],
        ["--help"],
        ["check", "--help"],
        ["check", "zz.nope", "--instance", abs_file],
        ["conjugate", "--instance", abs_file, "--no-such-flag"],
    ]
    passes = []
    for _ in range(2):
        outcomes = []
        for argv in table:
            rc = main(argv)
            outcomes.append((rc, *capsys.readouterr()))
        passes.append(outcomes)
    assert passes[0] == passes[1]
    assert [rc for rc, _out, _err in passes[0]] == [0, 0, 0, 0, 0, 0, 2, 2]
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# grid files and probe-grid sizes
# ---------------------------------------------------------------------------


def test_integer_valued_grid_file_gives_float_cells(tmp_path, capsys):
    f = write_json(tmp_path / "f.json",
                   {"kind": "grid", "dim": 1, "points": [0, 1, 2], "values": [0, 1.5, 4]})
    g = write_json(tmp_path / "g.json",
                   {"kind": "grid", "dim": 1, "points": [0, 1, 2, 3], "values": [1, 0, 1, 4]})
    assert main(["infconv", "--instance", f, "--instance", g]) == 0
    # points keep their spelling; values are floats on every row
    assert capsys.readouterr().out.splitlines() == [
        "x,value", "0,1.0", "1,0.0", "2,1.0", "3,2.5", "4,5.0", "5,8.0",
    ]
    inst = load_instance(f)
    assert inst.value_array.dtype == np.float64
    assert [type(v) for _p, v in inst.finite_items()] == [float] * 3


class _AxisThatMustNotBeCrossed:
    def __len__(self):
        return 1 << 11

    def __iter__(self):
        raise AssertionError("the cross product was built")


def test_probe_grid_sizes_are_bounded():
    from envcalc.cli import MAX_GRID_POINTS, _UsageError, _cross

    assert MAX_GRID_POINTS == 1 << 20
    with pytest.raises(_UsageError, match="exceeds the limit"):
        parse_probe_grid(f"0:1:{MAX_GRID_POINTS + 1}", exact=False)
    with pytest.raises(_UsageError, match="exceeds the limit"):
        _cross(_AxisThatMustNotBeCrossed())
    assert len(_cross((0.0, 1.0))) == 4


def test_oversized_fitz_table_exits_2(tmp_path, capsys):
    pl = write_json(tmp_path / "pl.json", dump_instance(
        PLConvex1D((F(0), F(1), F(2)), (F(1), F(0), F(1)))))
    # each grid is within the limit, the 2^20 * 5 cells are not
    assert main(["fitz", "--instance", pl, "--probes", "0:1:1048576",
                 "--dual-grid", "0:1:5"]) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err) and "fitz table of 5242880 cells" in err
    g2 = write_json(tmp_path / "g2.json", graph_dump(
        OperatorGraph(2, (((F(0), F(0)), (F(1), F(0))),))))
    # 2D: 33^2 x 32^2 cells
    assert main(["fitz", "--instance", g2, "--probes", "0:1:33",
                 "--dual-grid", "0:1:32"]) == 2
    assert "fitz table of 1115136 cells" in capsys.readouterr().err
    # 2D: one axis of 1025 points crosses to 1025^2 x 1 cells
    assert main(["fitz", "--instance", g2, "--probes", "0:1:1025",
                 "--dual-grid", "0:1:1"]) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err) and "fitz table of 1050625 cells" in err
    assert main(["fitz", "--instance", pl, "--probes", "0:1:1024",
                 "--dual-grid", "0:1:2"]) == 0


def test_oversized_probe_grids_exit_2(grid_file, tmp_path, capsys):
    assert main(["conjugate", "--instance", grid_file,
                 "--dual-grid", f"0:1:{(1 << 20) + 1}"]) == 2
    assert _one_line_error(capsys.readouterr().err)
    g2 = write_json(tmp_path / "g2.json", dump_instance(
        GridFunction(2, ((0.0, 0.0), (1.0, 0.0)), (0.0, 1.0))))
    # 1025 axis points cross to 1025^2 > 2^20 pairs
    assert main(["subdiff", "--instance", g2, "--dual-grid", "0:1:1025"]) == 2
    assert _one_line_error(capsys.readouterr().err)


def test_oversized_infconv_exits_2(tmp_path, capsys):
    n = 1 << 11
    f = write_json(tmp_path / "f.json", {"kind": "grid", "dim": 1,
                                         "points": list(range(n + 1)), "values": [0.0] * (n + 1)})
    g = write_json(tmp_path / "g.json", {"kind": "grid", "dim": 1,
                                         "points": list(range(n)), "values": [0.0] * n})
    assert main(["infconv", "--instance", f, "--instance", g]) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err) and str(1 << 22) in err


@pytest.mark.parametrize("points", ["[Infinity, 0.0]", "[[0.0, 1.0], [-Infinity, 0.0]]"])
def test_grid_file_with_infinite_point_exits_2(tmp_path, capsys, points):
    dim = 2 if points.startswith("[[") else 1
    path = tmp_path / "g.json"
    path.write_text(
        f'{{"kind": "grid", "dim": {dim}, "points": {points}, "values": [0.0, 1.0]}}'
    )
    assert main(["conjugate", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err) and "finite" in err


# ---------------------------------------------------------------------------
# 1D maxaffine files
# ---------------------------------------------------------------------------

MA_1D = {"kind": "maxaffine", "dim": 1, "pieces": [
    {"anchor": 0, "slope": -1, "level": 0}, {"anchor": 0, "slope": 2, "level": 1},
]}


@pytest.mark.parametrize("backend", [None, "exact"])
def test_maxaffine_1d_file_takes_the_exact_route(tmp_path, capsys, monkeypatch, backend):
    # max(-x, 2x + 1) converts to its PL form before a backend is chosen
    if backend is not None:
        monkeypatch.setenv("ENVCALC_BACKEND", backend)
    ma = write_json(tmp_path / "ma.json", MA_1D)
    assert main(["conjugate", "--instance", ma, "--dual-grid", "-1:2:4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x,value", "-1,0", "0,-1/3", "1,-2/3", "2,-1"]
    assert main(["clconv", "--instance", ma, "--probes", "0:1:3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["x,value", "0,1", "1/2,2", "1,3"]
    assert main(["clconv", "--instance", ma]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x,value"


def _ma_with_level(level):
    return {"kind": "maxaffine", "dim": 1, "pieces": [
        {"anchor": 0, "slope": -1, "level": 0}, {"anchor": 0, "slope": 2, "level": level}]}


def test_maxaffine_string_level_parses_at_load(tmp_path, capsys):
    # "1/2" is read as Fraction(1, 2), as every other string scalar of a file
    ma = load_instance(_ma_with_level("1/2"))
    assert ma.pieces[1][2] == F(1, 2) and type(ma.pieces[1][2]) is F
    assert load_instance(dump_instance(ma)) == ma
    # JSON numbers pass through unchanged
    for level in (1, 0.5):
        lv = load_instance(_ma_with_level(level)).pieces[1][2]
        assert lv == level and type(lv) is type(level)
    path = write_json(tmp_path / "ma.json", _ma_with_level("1/2"))
    assert main(["clconv", "--instance", path, "--probes", "0:1:3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["x,value", "0,1/2", "1/2,3/2", "1,5/2"]


@pytest.mark.parametrize("level", ["abc", "1/0", "inf", "1/x"])
@pytest.mark.parametrize("verb", ["clconv", "conjugate", "envelope"])
def test_maxaffine_junk_level_exits_2_at_load(tmp_path, capsys, level, verb):
    # refused while loading (exit 2), no longer on first use (exit 3)
    path = write_json(tmp_path / "ma.json", _ma_with_level(level))
    argv = {"clconv": ["clconv", "--probes", "0:1:3"], "conjugate": ["conjugate"],
            "envelope": ["envelope", "--kind", "cup", "--probes", "0:1:3"]}[verb]
    assert main(argv + ["--instance", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line_error(captured.err)


def test_maxaffine_2d_file_still_refused_by_conjugate(tmp_path, capsys):
    ma = write_json(tmp_path / "ma2.json", {"kind": "maxaffine", "dim": 2, "pieces": [
        {"anchor": [0, 0], "slope": [1, 0], "level": 0}]})
    assert main(["conjugate", "--instance", ma]) == 3
    assert _one_line_error(capsys.readouterr().err)


_HUGE = 10**400


@pytest.mark.parametrize("argv, payloads, rc", [
    # 1e999 reads as a float infinity, which no Fraction takes
    (["conjugate"], ['{"kind": "plconvex1d", "breakpoints": [1e999], "values": [0]}'], 2),
    (["envelope", "--kind", "circ", "--probes", "0:1:2"],
     ['{"kind": "opgraph", "dim": 1e999, "pairs": []}'], 2),
    (["clconv", "--probes", "-2:1:4"], [json.dumps({"kind": "maxaffine", "dim": 2, "pieces": [
        {"anchor": [0, 0], "slope": [0, _HUGE], "level": 2}]})], 3),
    # sums past the float range: refused without a numpy warning
    (["infconv"], [json.dumps({"kind": "grid", "dim": 1, "points": [0.0, 1.0],
                               "values": [-1e308, -1e308]})] * 2, 3),
    (["infconv"], [json.dumps({"kind": "grid", "dim": 1, "points": [1e308, 1.0],
                               "values": [0.0, 1.0]})] * 2, 3),
])
def test_numbers_past_the_float_range_exit_with_one_line(tmp_path, capsys, argv, payloads, rc):
    for i, text in enumerate(payloads):
        path = tmp_path / f"i{i}.json"
        path.write_text(text)
        argv = argv + ["--instance", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == rc
    assert _one_line_error(capsys.readouterr().err)


def test_grid_conjugate_past_the_float_range_warns_nothing(tmp_path, capsys):
    # slope -2 times the sample at 1e308 rounds to -inf inside the LLT
    # window; the fuzz test below once drew this file
    g = {"kind": "grid", "dim": 1, "points": [1e308, -1.573, -0.635, 0.037, 2.064],
         "values": [-1.309, 1.535, -1.497, 2.897, -1.139]}
    path = write_json(tmp_path / "far.json", g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["conjugate", "--dual-grid", "-2:2:3", "--instance", path]) == 0
    assert capsys.readouterr().err == ""


def test_grid_subdiff_past_the_float_range_warns_nothing(tmp_path, capsys):
    # the membership products of the sample at 1e308 round to +-inf, which
    # still decide each comparison; the fuzz test below once drew this file
    g = {"kind": "grid", "dim": 1, "points": [1e308, -1.573, -0.635, 0.037, 2.064],
         "values": [-1.309, 1.535, -1.497, 2.897, -1.139]}
    path = write_json(tmp_path / "far.json", g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["subdiff", "--dual-grid", "-2:1:1", "--instance", path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "x,xstar\n-0.635,-2.0\n"


# ---------------------------------------------------------------------------
# the CLI under random instance files
# ---------------------------------------------------------------------------

_good_scalar = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-3/4", "0.5", "2", 0.25, -1.5, 2.0]),
)
_bad_scalar = st.one_of(
    st.sampled_from([
        10**400, -(10**400), 2**64, 1e308, -1e308, float("inf"), float("-inf"),
        float("nan"), "1/0", "inf", "-inf", "abc", "", "1e999", None, True, [], {},
    ]),
    st.integers(-(10**30), 10**30),
)
_scalar = st.one_of(_good_scalar, _good_scalar, _good_scalar, _bad_scalar)
_point = st.one_of(_scalar, st.lists(_scalar, min_size=1, max_size=3))
_dim = st.one_of(st.sampled_from([1, 1, 2, 2]), _bad_scalar)


def _fields(**strategies):
    """A dict strategy whose keys are each sometimes left out."""
    return st.fixed_dictionaries({}, optional=strategies)


_raw_instances = st.one_of(
    st.builds(lambda d: {"kind": "plconvex1d", **d}, _fields(
        breakpoints=st.lists(_scalar, max_size=4), values=st.lists(_scalar, max_size=4),
        left_recession=st.one_of(_scalar, st.just("stop")),
        right_recession=st.one_of(_scalar, st.just("stop")),
        override_left=_scalar, override_right=_scalar, label=st.just("fz"))),
    st.builds(lambda d: {"kind": "grid", **d}, _fields(
        dim=_dim, points=st.lists(_point, max_size=4), values=st.lists(_scalar, max_size=4))),
    st.builds(lambda d: {"kind": "indicator", **d}, _fields(
        dim=_dim, points=st.lists(_point, max_size=4))),
    st.builds(lambda d: {"kind": "interval", **d}, _fields(
        lo=_scalar, hi=_scalar, lo_open=st.booleans(), hi_open=_scalar)),
    st.builds(lambda d: {"kind": "maxaffine", **d}, _fields(
        dim=_dim, pieces=st.lists(_fields(anchor=_point, slope=_point, level=_scalar),
                                  max_size=3))),
    st.builds(lambda d: {"kind": "opgraph", **d}, _fields(
        dim=_dim, pairs=st.lists(st.lists(_point, min_size=2, max_size=2), max_size=4))),
    st.one_of(st.just({"kind": "mystery"}), st.lists(_scalar, max_size=2), _scalar),
)


def _valid_payload(seed: int, which: int):
    gen = InstanceGenerator(seed)
    rnd = random.Random(seed)
    small = [rnd.randint(-3, 3) for _ in range(4)]
    objs = (
        lambda: dump_instance(gen.pl_convex()),
        lambda: dump_instance(gen.pl_convex_with_override()),
        lambda: dump_instance(gen.grid_nonconvex()),
        lambda: dump_instance(gen.indicator_set()),
        lambda: graph_dump(gen.operator_graph()),
        lambda: dump_instance(GridFunction(
            2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
            tuple(float(v) for v in small))),
        lambda: {"kind": "maxaffine", "dim": 1, "pieces": [
            {"anchor": 0, "slope": small[0], "level": small[1]},
            {"anchor": small[2], "slope": small[3] + 4, "level": 0}]},
        lambda: {"kind": "maxaffine", "dim": 2, "pieces": [
            {"anchor": [0, 0], "slope": small[:2], "level": small[2]}]},
        lambda: {"kind": "indicator", "dim": 1, "points": [0.0, 0.5, 2.0]},
    )
    return json.loads(json.dumps(objs[which % len(objs)]()))


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    elif path:
        yield path


@st.composite
def _instances(draw):
    """A well-formed instance file with up to two entries replaced by junk
    or dropped, or (one time in four) a file of random fields."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_raw_instances)
    payload = _valid_payload(draw(st.integers(0, 10**6)), draw(st.integers(0, 8)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        path = draw(st.sampled_from(list(_leaves(payload))))
        parent = payload
        for k in path[:-1]:
            parent = parent[k]
        if isinstance(parent, dict) and draw(st.integers(0, 4)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.one_of(_bad_scalar, _good_scalar))
    return payload


_grid_spec = st.one_of(
    st.builds(
        lambda a, b, n: f"{a}:{b}:{n}",
        st.sampled_from(["-2", "-1/2", "0", "1/3"]),
        st.sampled_from(["1", "5/2", "3"]),
        st.integers(1, 4),
    ),
    st.builds(
        lambda a, b, n: f"{a}:{b}:{n}",
        st.sampled_from(["0", "1/0", "x", "1e999", "0.5"]),
        st.sampled_from(["1", "-2", "1.5", "inf"]),
        st.sampled_from(["1", "0", "-1", "z"]),
    ),
)
_CHEAP_GALLERIES = ("quadratic", "open-interval", "half-circle", "two-patch")


@st.composite
def _cli_runs(draw):
    """(verb argv, instance payloads, ENVCALC_BACKEND or None)."""
    verb = draw(st.sampled_from([
        "conjugate", "clconv", "subdiff", "hull", "infconv", "fitz", "envelope",
        "check", "suite", "gallery",
    ]))
    n_inst = {"infconv": 2, "suite": 0, "gallery": 0}.get(verb, 1)
    payloads = [draw(_instances()) for _ in range(n_inst)]
    argv = [verb]
    if verb == "check":
        argv.append(draw(st.sampled_from(sorted(REGISTRY))))
    elif verb == "suite":
        argv += [draw(st.sampled_from(sorted(REGISTRY))), "--seed", str(draw(st.integers(0, 50))),
                 "-n", "1"]
    elif verb == "gallery":
        argv.append(draw(st.sampled_from(_CHEAP_GALLERIES)))
    elif verb == "envelope":
        argv += ["--kind", draw(st.sampled_from(
            ["cup", "sharp", "starcup", "circ", "ncup", "smile", "smileeps"]))]
        if draw(st.integers(0, 3)) > 0:
            argv += ["--n", str(draw(st.integers(1, 5)))]
        if draw(st.booleans()):
            argv += ["--eps", draw(st.sampled_from(["1/3", "0.25", "0", "-1", "x"]))]
    flags = ["--probes", "--dual-grid"] if verb not in ("suite", "gallery") else []
    for flag in flags:
        if draw(st.integers(0, 5)) > 0:
            argv += [flag, draw(_grid_spec)]
    if verb == "subdiff" and draw(st.booleans()):
        argv += ["--tolerance", "0.125"]
    backend = draw(st.sampled_from([None, "exact", "grid"]))
    return argv, payloads, backend


@given(_cli_runs())
@settings(max_examples=500, deadline=None)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, run):
    """Random instance files and grid specs under every verb (bench aside,
    for its run time) and both backends: main returns 0-3, raises nothing
    and warns nothing; an exit 2 is one ``envcalc:`` line, and so is an
    exit 3 unless it is ``check``'s not-applicable verdict on stdout."""
    argv, payloads, backend = run
    d = tmp_path_factory.mktemp("fz")
    for i, payload in enumerate(payloads):
        path = d / f"i{i}.json"
        path.write_text(json.dumps(payload))
        argv += ["--instance", str(path)]
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.pop("ENVCALC_BACKEND", None)
    if backend is not None:
        os.environ["ENVCALC_BACKEND"] = backend
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
    finally:
        os.environ.pop("ENVCALC_BACKEND", None)
        if old is not None:
            os.environ["ENVCALC_BACKEND"] = old
    assert rc in (0, 1, 2, 3), (argv, payloads)
    # a warning would print to stderr next to the error line
    assert not caught, (argv, payloads, [str(w.message) for w in caught])
    verdict_na = argv[0] == "check" and rc == 3 and not err.getvalue() \
        and "not-applicable" in out.getvalue()
    if rc == 2 or (rc == 3 and not verdict_na):
        assert _one_line_error(err.getvalue()), (argv, payloads, err.getvalue())
