"""Self-checks for the benchmark's tracer, run on shortened task lists: the
first task of each kind on every rung below the top.

    PYTHONPATH=src python3 -m pytest -q -s perfbench/test_trace_coverage.py

Checks that every function named in the per-layer metrics records at least
one call on at least one workload (so an alias bound by ``from .x import f``
cannot hide calls), that every layer records self time, that tracing changes
no verdict and repeats its kernel counts exactly, that the wrappers are
removed afterwards, and that BENCHMARK.json lists exactly the metrics the
runner prints.  Prints trace.overhead_ratio per workload (run with -s).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import numpy as np  # noqa: E402
import pytest  # noqa: E402
from tracing import Tracer  # noqa: E402


def _traced(tasks):
    tracer = Tracer(run.LAYERS, run.KERNELS)
    with tracer.installed():
        traced = run.run_pass(tasks, tracer)
    return tracer, traced


def _shortened(module, tasks):
    kinds = {}
    for task in tasks:
        if task.rung != module.TOP_RUNG:
            kinds.setdefault((task.rung, task.tid.split("/")[1]), task)
    return list(kinds.values())


@pytest.fixture(scope="module")
def traces():
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, modname in run.WORKLOADS.items():
            module = importlib.import_module(modname)
            tasks = _shortened(module, module.build(np.random.default_rng(3),
                                                    workdir=workdir, root=ROOT))
            plain = run.run_pass(tasks)
            first, traced = _traced(tasks)
            second, _ = _traced(tasks)
            out[name] = (tasks, plain, traced, first, second)
    return out


def test_every_named_function_is_called(traces):
    seen = {}
    for _, _, _, tracer, _ in traces.values():
        for name, (calls, _) in tracer.totals().items():
            seen[name] = seen.get(name, 0) + calls
    missing = [name for name in run.NAMED if seen.get(name, 0) == 0]
    assert not missing, f"no calls recorded for {missing}"


def test_every_layer_records_self_time(traces):
    for layer in run.LAYERS:
        total = sum(s for *_, tracer, _ in traces.values()
                    for name, (_, s) in tracer.totals().items() if name.split(".")[0] == layer)
        assert total > 0.0, layer


def test_tracing_changes_no_verdict(traces):
    for name, (tasks, plain, traced, *_) in traces.items():
        print(f"trace.overhead_ratio {name} = {traced.wall / plain.wall:.3f}")
        assert not any(plain.failed), name
        assert run.verdict_digest(tasks, plain) == run.verdict_digest(tasks, traced), name


def test_kernel_and_call_counts_repeat(traces):
    for name, (*_, first, second) in traces.items():
        assert first.kernels == second.kernels, name
        assert {n: c for n, (c, _) in first.totals().items()} == \
            {n: c for n, (c, _) in second.totals().items()}, name


def test_wrappers_are_removed():
    from covgraphs import graphs, relations

    original, eigh = relations.support_of, np.linalg.eigh
    with Tracer(run.LAYERS, run.KERNELS).installed():
        assert graphs.support_of is relations.support_of is not original
        assert np.linalg.eigh is not eigh
    assert graphs.support_of is original and relations.support_of is original
    assert np.linalg.eigh is eigh


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
