import json
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from envcalc.cli import build_parser, main, parse_probe_grid
from envcalc.funcrep import (
    GridFunction,
    PLConvex1D,
    dump_instance,
    load_instance,
    pl_equal,
)
from envcalc.operators import OperatorGraph, graph_dump, subdiff_graph
from envcalc.theoremlab import REGISTRY, TheoremCheck

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
