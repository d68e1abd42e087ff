"""CLI outputs pinned byte for byte.

The files under ``tests/golden/`` hold the stdout of four commands as the
exact kernels printed it before the line-hull routes replaced the per-probe
pair loops; suite text for a fixed seed must never change.  To inspect one
by hand, from the repository root:

    PYTHONPATH=src python -m envcalc.cli suite --seed 0 | cmp - tests/golden/suite_seed0.txt

``suite_n2_sha256.txt`` and ``suite_n4_sha256.txt`` pin more suite text by
digest: one line per seed, "<seed> <sha256 of run_suite(seed, n).text() in
UTF-8>" for n = 2 and n = 4.  ``ops_sha256.txt`` pins every benchmark op,
suite and gallery by ``tools/digest.py``; CI compares it, and the last test
here checks that the digest sees a one-byte change.
"""

import hashlib
import importlib.util
import os
import sys

import pytest

from envcalc.cli import main
from envcalc.theoremlab import run_suite

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "suite_seed0.txt": ["suite", "--seed", "0"],
    "suite_seed42.txt": ["suite", "--seed", "42"],
    "gallery_all.txt": ["gallery", "all"],
    "fitz_opgraph.csv": [
        "fitz", "--instance", os.path.join(GOLDEN, "opgraph.json"),
        "--probes", "-2:3:11", "--dual-grid", "-3:3:13",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert out == want


def _pinned_digests(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    return [pytest.param(int(seed), digest, id=f"seed{seed}") for seed, digest in rows]


@pytest.mark.parametrize("seed, digest", _pinned_digests("suite_n2_sha256.txt"))
def test_suite_text_matches_pinned_digest(seed, digest):
    text = run_suite(seed, 2).text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("seed, digest", _pinned_digests("suite_n4_sha256.txt"))
def test_suite_text_at_n4_matches_pinned_digest(seed, digest):
    text = run_suite(seed, 4).text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_op_digest_repeats_and_sees_one_changed_byte(tmp_path):
    digest = _tool("digest")
    sys.path.insert(0, os.path.join(ROOT, "envbench"))
    try:
        import inputs
    finally:
        sys.path.remove(os.path.join(ROOT, "envbench"))
    op = next(o for o in inputs.build("exact", 1, str(tmp_path), 1)
              if "--out" in o["argv"])
    first = digest.run_op(main, op["argv"], str(tmp_path))
    # the second run writes its --out file afresh
    os.remove(tmp_path / first[3][0][0])
    second = digest.run_op(main, op["argv"], str(tmp_path))
    rc, out, err, files = first
    assert rc == 0 and out == "" and len(files) == 1
    assert digest.digest(first) == digest.digest(second)
    flipped = out + "x" if not out else chr(ord(out[0]) ^ 1) + out[1:]
    assert digest.digest((rc, flipped, err, files)) != digest.digest(first)
    name, data = files[0]
    changed = [(name, bytes([data[0] ^ 1]) + data[1:])]
    assert digest.digest((rc, out, err, changed)) != digest.digest(first)
