"""CLI outputs pinned byte for byte.

The files under ``tests/golden/`` hold the stdout of four commands as the
exact kernels printed it before the line-hull routes replaced the per-probe
pair loops; suite text for a fixed seed must never change.  To inspect one
by hand, from the repository root:

    PYTHONPATH=src python -m envcalc.cli suite --seed 0 | cmp - tests/golden/suite_seed0.txt

``suite_n2_sha256.txt`` and ``suite_n4_sha256.txt`` pin more suite text by
digest: one line per seed, "<seed> <sha256 of run_suite(seed, n).text() in
UTF-8>" for n = 2 and n = 4.
"""

import hashlib
import os

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
