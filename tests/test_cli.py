import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from envcalc import cli, transforms
from envcalc.cli import build_parser, main, parse_probe_grid
from envcalc.extreal import MAX_EXACT_DIGITS, NEG_INF, POS_INF, as_extreal, format_scalar
from envcalc.funcrep import (
    MAX_GRID_POINTS,
    GridFunction,
    PLConvex1D,
    dump_instance,
    load_instance,
    pl_equal,
)
from envcalc.operators import OperatorGraph, subdiff_graph
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
    assert got.dtype == np.float64 and got.tolist() == [0.0, 1.0]
    one = parse_probe_grid("2:5:1", exact=False)
    assert one.dtype == np.float64 and one.tolist() == [2.0]


@pytest.mark.parametrize("bad", ["1:2", "a:b:3", "0:1:0", "::"])
def test_probe_grid_rejects_malformed(bad):
    from envcalc.cli import _UsageError

    with pytest.raises(_UsageError):
        parse_probe_grid(bad)


@pytest.mark.parametrize("argv", [
    ["subdiff", "--instance", "GRID", "--dual-grid"],
    ["conjugate", "--instance", "GRID", "--dual-grid"],
])
def test_float_probe_grid_past_the_float_range_exits_2(tmp_path, capsys, argv):
    # stop - start overflows, which would make the step, and then the
    # probes, inf and nan
    g = GridFunction(1, (0.0, 1.0, 2.0), (0.0, 1.0, 4.0))
    name = write_json(tmp_path / "grid.json", dump_instance(g))
    argv = [name if a == "GRID" else a for a in argv]
    assert main([*argv, "-1e308:1e308:3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "envcalc: probe grid '-1e308:1e308:3' spans past the float range\n"


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


def float_grid_oracle(start, stop, count):
    """The per-k comprehension that the numpy float probe grid replaced."""
    if count == 1:
        return (start,)
    step = (stop - start) / (count - 1)
    pts = [start + step * k for k in range(count)]
    pts[-1] = stop
    return tuple(pts)


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(st.sampled_from((1, 2)), st.integers(min_value=1, max_value=300)),
)
@settings(max_examples=300, deadline=None)
@example(-8.3, 7.1, 1 << 16)
@example(0.0, 1.7976931348623157e308, 4)  # the last point rounds past the range
@example(-0.0, 0.0, 3)
def test_float_probe_grid_is_start_plus_step_k(start, stop, count):
    spec = f"{start!r}:{stop!r}:{count}"
    if count > 1 and not math.isfinite((stop - start) / (count - 1)):
        with pytest.raises(cli._UsageError, match="float range"):
            parse_probe_grid(spec, exact=False)
        return
    got = parse_probe_grid(spec, exact=False)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (count,)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in float_grid_oracle(start, stop, count)]


# ---------------------------------------------------------------------------
# cell spelling
# ---------------------------------------------------------------------------


def repr_cells(xs):
    """The oracle of the float cells: CPython's repr, one cell at a time."""
    return list(map(repr, xs))


def assert_float_cells(xs):
    want = repr_cells(xs)
    assert cli._cells(xs) == want
    assert cli._cells(np.array(xs, dtype=np.float64)) == want


@given(st.lists(st.floats(allow_subnormal=True), max_size=40))
@settings(max_examples=400, deadline=None)
@example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324])
def test_float_cells_match_repr(xs):
    assert_float_cells(xs)


def test_float_cells_match_repr_next_to_the_notation_edges():
    # orjson switches to exponent form below 1e-4 and from 1e16 in its
    # own notation, so the cells around those edges are the ones re-spelled
    xs = []
    for edge in (1e-4, 1e16):
        for sign in (1.0, -1.0):
            up = down = sign * edge
            xs.append(up)
            for _ in range(50):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                xs += [up, down]
    assert_float_cells(xs)


def test_float_cells_match_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20231019)
    bits = rng.integers(0, 1 << 64, size=1_000_000, dtype=np.uint64)
    # and as many whose exponent lies where orjson keeps its own notation
    inner = (bits & np.uint64((1 << 52) - 1)) | (
        rng.integers(1023 - 14, 1023 + 54, size=bits.size, dtype=np.uint64) << np.uint64(52)
    )
    for a in (bits.view(np.float64), inner.view(np.float64)):
        assert cli._cells(a) == repr_cells(a.tolist())


def test_float_cells_of_empty_and_strided_columns():
    assert cli._cells(np.empty(0)) == [] and cli._cells([]) == []
    a = np.linspace(-3.0, 3.0, 28).reshape(14, 2) ** 7
    for column in (a[:, 1], a[::-3, 0], a.ravel()[::5]):
        assert not column.flags.c_contiguous
        assert cli._cells(column) == repr_cells(column.tolist())


# cells orjson spells apart from repr, and their neighbours across the edges
ODD_CELLS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-05, 9.999999999999999e-05,
             1e-4, 9999999999999998.0, 1e16, -1e300)


def repr_rows(a, m):
    """The oracle of the float rows: each row's repr cells joined by commas."""
    return "".join(",".join(map(repr, row)) + "\n" for row in a.reshape(-1, m).tolist())


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
def test_float_text_matches_the_repr_rows(m, n):
    rng = np.random.default_rng(100 * m + n)
    a = rng.standard_normal(n * m) * 10.0 ** rng.integers(-3, 15, n * m)
    block = cli._BLOCK_ROWS * m
    # the first and last cell of every block, and so of the table
    edges = [k for lo in range(0, n * m, block) for k in (lo, min(lo + block, n * m) - 1)]
    for x in ODD_CELLS:
        a[edges] = x
        assert cli._float_text(a, m) == repr_rows(a, m)
    if n:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(None, "h", list(a.reshape(n, m).T))
        assert out.getvalue() == "h\n" + repr_rows(a, m)


@pytest.mark.parametrize("dim, spec", [(1, "-1e-05:2e16:4097"), (2, "-3:3:21")])
def test_grid_conjugate_out_file_and_stdout_agree(tmp_path, capsys, dim, spec):
    axis = np.linspace(-1.0, 1.0, 11).tolist()
    pts = axis if dim == 1 else [[x, y] for x in axis for y in axis]
    vals = [1e-05 * k for k in range(len(pts))]
    vals[3] = "inf"
    path = write_json(tmp_path / "g.json", {"kind": "grid", "dim": dim,
                                            "points": pts, "values": vals})
    out = tmp_path / "conj.csv"
    argv = ["conjugate", "--instance", path, "--dual-grid", spec]
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert out.read_bytes() == text.encode()
    rows = text.splitlines()[1:]
    assert len(rows) == int(spec.rsplit(":", 1)[1]) ** dim


def test_non_float_cells_keep_their_spelling():
    assert cli._cells([0, 1, 2]) == ["0", "1", "2"]
    assert cli._cells([0, 1.5, -2]) == ["0", "1.5", "-2"]
    assert cli._cells([F(1, 3), F(2), 0.25, 7]) == ["1/3", "2", "0.25", "7"]
    assert cli._cells(
        [as_extreal(F(-7, 2)), as_extreal(2.5), POS_INF, NEG_INF, as_extreal(3)]
    ) == ["-7/2", "2.5", "inf", "-inf", "3"]


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


def test_conjugate_grid_backend(grid_file, tmp_path):
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


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000],
                         ids=["arrays", "objects"])
def test_deeply_nested_instance_exits_2_with_one_line(tmp_path, capsys, text):
    """JSON nested past the parser's recursion limit is a malformed input,
    not a failed check (exit 1) and not a traceback."""
    src = tmp_path / "deep.json"
    src.write_text(text)
    assert main(["conjugate", "--instance", str(src)]) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err) and "recursion" in err


@pytest.mark.parametrize("kind, key, rest", [
    ("plconvex1d", "breakpoints", {}),
    ("plconvex1d", "values", {"breakpoints": ["0"]}),
    ("grid", "dim", {"points": [0], "values": [0]}),
    ("indicator", "points", {"dim": 1}),
    ("maxaffine", "anchor", {"dim": 1, "pieces": [{"slope": 1, "level": 0}]}),
    ("opgraph", "pairs", {"dim": 1}),
])
def test_missing_key_names_the_kind_and_the_key(tmp_path, capsys, kind, key, rest):
    src = write_json(tmp_path / "short.json", {"kind": kind, **rest})
    assert main(["conjugate", "--instance", src]) == 2
    err = capsys.readouterr().err
    assert err == f"envcalc: {kind} instance lacks the required key {key!r}\n"


@pytest.mark.parametrize("payload", ["PATH", "TEXT", ["PATH"]], ids=["path", "text", "list"])
def test_instance_file_that_is_not_an_object_exits_2(abs_file, tmp_path, capsys, payload):
    # a string at the top level, JSON text included, would otherwise be
    # read as the path of another instance
    subs = {"PATH": abs_file, "TEXT": json.dumps(dump_instance(ABS))}
    payload = [subs[p] for p in payload] if isinstance(payload, list) else subs[payload]
    src = write_json(tmp_path / "outer.json", payload)
    assert main(["conjugate", "--instance", src]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"envcalc: instance file {src!r} does not hold a JSON object\n"


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


@pytest.mark.parametrize("value", ["1e400", "-2.5E+308", "1" + "0" * 400, 10**400],
                         ids=["decimal", "negative-decimal", "int-string", "json-int"])
def test_grid_value_past_the_float_range_exits_2(tmp_path, capsys, value):
    """Every finite spelling of a grid value past the float range is
    refused alike; a decimal used to load as +inf, off the domain."""
    src = write_json(tmp_path / "huge.json",
                     {"kind": "grid", "dim": 1, "points": [0, 1], "values": ["0", value]})
    assert main(["clconv", "--instance", src]) == 2
    err = capsys.readouterr().err
    assert _one_line_error(err) and "too large for a float" in err


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


# a JSON string where a list belongs used to be read character by character
@pytest.mark.parametrize("kind, key, rest", [
    ("plconvex1d", "breakpoints", {"values": ["3", "4"]}),
    ("plconvex1d", "values", {"breakpoints": ["1", "2"]}),
    ("grid", "values", {"dim": 1, "points": [0.0, 1.0]}),
    ("grid", "points", {"dim": 1, "values": [1.0, 2.0]}),
    ("indicator", "points", {"dim": 1}),
    ("maxaffine", "pieces", {"dim": 1}),
    ("opgraph", "pairs", {"dim": 1}),
])
@pytest.mark.parametrize("verb", ["conjugate", "infconv"])
def test_string_where_a_list_belongs_exits_2(tmp_path, capsys, kind, key, rest, verb):
    src = write_json(tmp_path / "str.json", {"kind": kind, key: "12", **rest})
    assert main([verb, *["--instance", src] * (2 if verb == "infconv" else 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and _one_line_error(err)
    assert f"{kind} instance key {key!r} holds a str, not a list" in err


# a JSON string where a 2D point or a pair belongs used to be read character
# by character: "12" loaded as the point (1, 2)
@pytest.mark.parametrize("payload, key", [
    ({"kind": "grid", "dim": 2, "points": ["12", "34"], "values": [0.0, 1.0]}, "points"),
    ({"kind": "grid", "dim": 2, "points": [[0.0, 1.0], "34"], "values": [0.0, 1.0]}, "points"),
    ({"kind": "indicator", "dim": 2, "points": [[1, 2], "34"]}, "points"),
    ({"kind": "maxaffine", "dim": 2,
      "pieces": [{"anchor": "12", "slope": [1, 2], "level": 0}]}, "anchor"),
    ({"kind": "maxaffine", "dim": 2,
      "pieces": [{"anchor": [1, 2], "slope": "12", "level": 0}]}, "slope"),
    ({"kind": "opgraph", "dim": 2, "pairs": [[[0, 0], "12"]]}, "pairs"),
    ({"kind": "opgraph", "dim": 1, "pairs": ["12"]}, "pairs"),
], ids=["grid", "grid-second", "indicator", "maxaffine-anchor", "maxaffine-slope",
        "opgraph-2d", "opgraph-pair"])
@pytest.mark.parametrize("argv", [
    ["conjugate", "--dual-grid", "0:1:2"],
    ["subdiff", "--dual-grid", "0:1:2"],
])
def test_string_where_a_point_belongs_exits_2(tmp_path, capsys, payload, key, argv):
    src = write_json(tmp_path / "str.json", payload)
    assert main([*argv, "--instance", src]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"envcalc: {payload['kind']} instance key {key!r} holds a str entry, not a list\n"


# a coordinate spelled as a JSON string used to go through float(): "12"
# loaded as 12.0, and "1/2" failed with Python's own message
@pytest.mark.parametrize("payload", [
    {"kind": "grid", "dim": 1, "points": ["12", "3"], "values": [0.0, 1.0]},
    {"kind": "grid", "dim": 1, "points": [0.0, "1/2"], "values": [0.0, 1.0]},
    {"kind": "grid", "dim": 2, "points": [[0.0, 0.0], ["1", "2"]], "values": [0.0, 1.0]},
    {"kind": "indicator", "dim": 1, "points": [1.0, "2"]},
], ids=["grid-1d", "grid-1d-ratio", "grid-2d", "indicator"])
def test_string_coordinate_exits_2(tmp_path, capsys, payload):
    src = write_json(tmp_path / "str.json", payload)
    assert main(["conjugate", "--dual-grid", "-1:1:3", "--instance", src]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"envcalc: {payload['kind']} instance key 'points' holds a str coordinate, not a number\n"


@pytest.mark.parametrize("payload", [
    {"kind": "grid", "dim": 1, "points": [0.0, False], "values": [0.0, 1.0]},
    {"kind": "grid", "dim": 2, "points": [[0.0, False], [1.0, 1.0]], "values": [0.0, 1.0]},
    {"kind": "indicator", "dim": 1, "points": [True, 2.0]},
], ids=["grid-1d", "grid-2d", "indicator"])
@pytest.mark.parametrize("argv", [
    ["conjugate", "--dual-grid", "-1:1:3"],
    ["subdiff", "--dual-grid", "-1:1:3"],
    ["hull"],
    ["check", "dfdom.iv"],
])
def test_boolean_coordinate_exits_2(tmp_path, capsys, payload, argv):
    """A boolean coordinate is refused when the instance loads, as a boolean
    value is; a false point used to read as 0 (and subdiff failed late)."""
    src = write_json(tmp_path / "bool.json", payload)
    assert main([*argv, "--instance", src]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "envcalc: cannot parse scalar from bool\n"


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


def test_envelope_on_bare_graph_exits_3(tmp_path):
    G = subdiff_graph(ABS)
    src = write_json(tmp_path / "g.json", dump_instance(G))
    assert main(["envelope", "--kind", "cup", "--instance", src,
                 "--probes", "0:1:2"]) == 3


@pytest.mark.parametrize("dual", [
    pytest.param(None, id="None"),
    pytest.param("0:1/2:3", id="exact"),
    pytest.param("0:0.5:3", id="grid"),
])
def test_envelope_on_grid_instance_exits_3(grid_file, capsys, dual):
    # every envelope route needs a piecewise-linear instance; envelope
    # reads no --dual-grid, so no spelling of one picks another route
    extra = [] if dual is None else ["--dual-grid", dual]
    assert main(["envelope", "--kind", "cup", "--instance", grid_file,
                 "--probes", "0:1:3", *extra]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_line_error(err)


@pytest.mark.parametrize("kind", ["cup", "starcup", "smile"])
def test_envelope_out_csv_is_the_rows(abs_file, tmp_path, kind):
    from envcalc import envelopes

    out = tmp_path / "env.csv"
    assert main(["envelope", "--kind", kind, "--instance", abs_file,
                 "--probes", "-2:1:7", "--out", str(out)]) == 0
    probes = parse_probe_grid("-2:1:7")
    rows = envelopes.envelope_result(ABS, kind, probes)
    want = "x,value\n" + "".join(
        f"{format_scalar(as_extreal(x))},{format_scalar(v)}\n" for x, v in rows
    )
    assert out.read_bytes() == want.encode()


def test_tolerance_only_on_subdiff(abs_file, grid_file, capsys):
    assert main(["conjugate", "--instance", abs_file, "--tolerance", "1"]) == 2
    assert main(["subdiff", "--instance", grid_file, "--dual-grid", "0:2:5",
                 "--tolerance", "1e-9"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_subdiff_refuses_a_nan_infinite_or_negative_tolerance(tmp_path, capsys, tol):
    # every comparison with a NaN tolerance is false, so every pair would
    # pass, slope 0 at the raised sample x = 1 included
    bump = write_json(tmp_path / "bump.json",
                      dump_instance(GridFunction(1, (0.0, 1.0, 2.0), (0.0, 5.0, 0.0))))
    argv = ["subdiff", "--instance", bump, "--dual-grid", "-1:1:3", "--tolerance"]
    assert main(argv + ["0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert main(argv + [tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line_error(captured.err) and "--tolerance" in captured.err


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
    g2 = write_json(tmp_path / "g2.json", dump_instance(
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


@pytest.mark.parametrize("levels", [
    pytest.param(None, id="None"),
    pytest.param(("0", "1"), id="exact"),
])
def test_maxaffine_1d_file_takes_the_exact_route(tmp_path, capsys, levels):
    # max(-x, 2x + 1) converts to its PL form before the route is chosen,
    # whether its levels are JSON numbers or exact strings
    payload = MA_1D if levels is None else {**MA_1D, "pieces": [
        {**piece, "level": lv} for piece, lv in zip(MA_1D["pieces"], levels)]}
    ma = write_json(tmp_path / "ma.json", payload)
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
    # window, and at slope 2 the conjugate, about 2e308, is past the float
    # range: refused in one line, where an inf was once printed; the fuzz
    # test below once drew this file
    g = {"kind": "grid", "dim": 1, "points": [1e308, -1.573, -0.635, 0.037, 2.064],
         "values": [-1.309, 1.535, -1.497, 2.897, -1.139]}
    path = write_json(tmp_path / "far.json", g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["conjugate", "--dual-grid", "-2:2:3", "--instance", path]) == 3
        assert main(["conjugate", "--dual-grid", "-2:0:3", "--instance", path]) == 0
    out, err = capsys.readouterr()
    assert err == "envcalc: the conjugate at dual 2.0 is above the float range\n"
    assert out == "x,value\n-2.0,2.7670000000000003\n-1.0,2.132\n0.0,1.497\n"


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


def test_grid_conjugate_below_the_float_range_names_the_dual(tmp_path, capsys):
    # every product y*x at y = -1e200 overflows to -inf; the input is proper,
    # only the conjugate value there is out of the float range
    path = write_json(tmp_path / "far.json",
                      {"kind": "grid", "dim": 1, "points": [1e200, 2e200], "values": [0, 0]})
    assert main(["conjugate", "--dual-grid", "-1e200:1e200:3", "--instance", path]) == 3
    err = capsys.readouterr().err
    assert err == "envcalc: the conjugate at dual -1e+200 is below the float range\n"


_SQUARE = {"kind": "grid", "dim": 2, "points": [[0, 0], [0, 1], [1, 0], [1, 1]],
           "values": [0, 1, 1, 2]}


def test_clconv_on_a_2d_grid_takes_the_dual_grid(tmp_path, capsys):
    # x + y on the unit square's corners is affine: its hull is x + y itself
    path = write_json(tmp_path / "square.json", _SQUARE)
    argv = ["clconv", "--instance", path, "--probes", "0:1:3"]
    assert main(argv + ["--dual-grid", "-2:2:5"]) == 0
    axis = (0.0, 0.5, 1.0)
    assert capsys.readouterr().out == "x,y,value\n" + "".join(
        f"{a!r},{b!r},{a + b!r}\n" for a in axis for b in axis)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "envcalc: clconv on a 2D grid needs --dual-grid\n"


@pytest.mark.parametrize("f, g, side", [
    # 1e308 + 1e308 at 0 is finite but past the float range, not off the domain
    ({"points": [0.0, 1.0], "values": [1e308, 0.0]}, {"points": [0.0], "values": [1e308]}, "above"),
    # -1e308 - 1e308 at 0: the grid is proper, only that value is past the range
    ({"points": [0.0, 1.0], "values": [-1e308, 0.0]}, {"points": [0.0, 1.0], "values": [-1e308, 0.0]},
     "below"),
])
def test_grid_infconv_past_the_float_range_names_the_sum_point(tmp_path, capsys, f, g, side):
    paths = [write_json(tmp_path / f"{k}.json", {"kind": "grid", "dim": 1, **h})
             for k, h in (("f", f), ("g", g))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["infconv", "--instance", paths[0], "--instance", paths[1]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"envcalc: the inf-convolution at 0.0 is {side} the float range\n"


# (1e200, -1e200) at 0 and (0, 0) at 1: the hull at (x1, x2) over the one
# dual (1e200, 1e200) is 1e200 (x1 + x2): 0 where x1 = -x2, past the range
# at (1e200, 1e200) and (-1e200, -1e200)
_CANCEL_2D = {"kind": "grid", "dim": 2, "points": [[1e200, -1e200], [0, 0]], "values": [0, 1]}


@pytest.mark.parametrize("probes, msg", [
    ("1e200:1e200:1", "the closed convex hull at (1e+200, 1e+200) is above the float range"),
    ("-1e200:1e200:2", "the closed convex hull at (-1e+200, -1e+200) is below the float range"),
])
def test_clconv_2d_table_past_the_float_range_names_the_probe(tmp_path, capsys, probes, msg):
    path = write_json(tmp_path / "cancel.json", _CANCEL_2D)
    argv = ["clconv", "--instance", path, "--dual-grid", "1e200:1e200:1", "--probes", probes]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"envcalc: {msg}\n"


def test_clconv_2d_table_decides_a_cancelling_cell_exactly():
    # the two products at (-1e200, 1e200) overflow to opposite infinities,
    # and the exact value is 0
    f = GridFunction(2, tuple(map(tuple, _CANCEL_2D["points"])), tuple(_CANCEL_2D["values"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = transforms._hull_2d_at(transforms.cl_conv(f, ((1e200, 1e200),)), ((-1e200, 1e200),))
    assert h.value_array.tolist() == [0.0]


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
        lambda: dump_instance(gen.operator_graph()),
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
    """(verb argv, instance payloads)."""
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
    return argv, payloads


@given(_cli_runs())
@settings(max_examples=500, deadline=None)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, run):
    """Random instance files and grid specs under every verb (bench aside,
    for its run time): main returns 0-3, raises nothing and warns nothing;
    an exit 2 is one ``envcalc:`` line, and so is an exit 3 unless it is
    ``check``'s not-applicable verdict on stdout."""
    argv, payloads = run
    d = tmp_path_factory.mktemp("fz")
    for i, payload in enumerate(payloads):
        path = d / f"i{i}.json"
        path.write_text(json.dumps(payload))
        argv += ["--instance", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc in (0, 1, 2, 3), (argv, payloads)
    # a warning would print to stderr next to the error line
    assert not caught, (argv, payloads, [str(w.message) for w in caught])
    verdict_na = argv[0] == "check" and rc == 3 and not err.getvalue() \
        and "not-applicable" in out.getvalue()
    if rc == 2 or (rc == 3 and not verdict_na):
        assert _one_line_error(err.getvalue()), (argv, payloads, err.getvalue())
