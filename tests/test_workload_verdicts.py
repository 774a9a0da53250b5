"""Every task of the four benchmark workloads, built at seed 1, returns its
expected verdict in one untimed pass, so that a change which moves a
benchmark verdict fails here before any benchmark run.

The workload modules are imported from perfbench/ directly; perfbench/run.py
is not, since it pins the BLAS threads of the process it runs in, so its
verdict comparison is repeated here."""

import importlib
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

WORKLOADS = ("classical_alphabet", "quantum_factors", "coding_pipeline", "cli_bundles")


def _plain(v):
    """A verdict as plain data: tuples as lists, numpy scalars as Python ones."""
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    return v.item() if hasattr(v, "item") else v


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_task_returns_its_expected_verdict(workload, tmp_path):
    module = importlib.import_module(workload)
    tasks = module.build(np.random.default_rng(1), workdir=str(tmp_path), root=str(ROOT))
    assert len(tasks) >= 100
    results = [(task.tid, _plain(task.run()), _plain(task.expected)) for task in tasks]
    assert [r for r in results if r[1] != r[2]] == []
