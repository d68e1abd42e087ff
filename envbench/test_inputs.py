"""The benchmark's inputs are a pure function of the workload seed.

    python3 -m pytest envbench/test_inputs.py
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402


def _snapshot(tmp_path, workload, seed, cycles):
    d = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    d.mkdir()
    ops = inputs.build(workload, seed, str(d), cycles)
    files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    return json.dumps(ops, sort_keys=True).encode(), files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_files_and_ops(tmp_path, workload):
    assert _snapshot(tmp_path, workload, 7, 2) == _snapshot(tmp_path, workload, 7, 2)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_changes_values_not_shapes(tmp_path, workload):
    ops_a, files_a = _snapshot(tmp_path, workload, 7, 2)
    ops_b, files_b = _snapshot(tmp_path, workload, 8, 2)
    assert files_a.keys() == files_b.keys()
    assert files_a != files_b
    names = [op["name"] for op in json.loads(ops_a)]
    assert names == [op["name"] for op in json.loads(ops_b)]
