"""One round of every benchmark workload passes the benchmark's own checks.

Each workload of ``perfbench/`` is built from its inputs, run for one round
through the worker's job, saved, and verified with the matching
``checks.verify_*``, all in this process.  A round with a failed solve, a
job or check that raises on the package's API or output files, or a failed
check fails the test, where it would stop or fail a ``perfbench/run.py`` run.
A traced round checks that the tracer can still wrap what it counts.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1


def _verify(workload, inputs, out):
    rng = wl.workload_rng(workload, SEED, "check")
    if workload == "solve_voronoi_k8":
        return checks.verify_voronoi(inputs, out / "experiment", rng)
    with np.load(out / "outputs.npz") as data:
        outputs = dict(data)
    if workload == "solve_importance_k8":
        return checks.verify_importance(inputs, outputs, rng)
    return checks.verify_meta(inputs, outputs, rng)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_round_passes_the_benchmark_checks(workload, tmp_path):
    inputs = wl.make_inputs(workload, SEED)
    job = worker.JOBS[workload](inputs, tmp_path)
    attempted, failed, result = job.round()
    assert attempted > 0 and failed == 0 and result is not None
    job.save(result, tmp_path)
    bound, fails = _verify(workload, inputs, tmp_path)
    assert fails == []
    assert np.isfinite(bound)


def test_a_traced_round_counts_factorizations_and_projections(tmp_path):
    # The tracer counts factorizations through the name ``families.cho_factor``
    # and one projection per solver step; uninstalling restores every name.
    def namespaces():
        modules = [importlib.import_module(f"pacbayes.{name}") for name in tracer.LAYERS]
        owners = [sys.modules["pacbayes"], *modules]
        for layer, names in tracer.TRACED_CLASSES.items():
            owners += [getattr(importlib.import_module(f"pacbayes.{layer}"), n) for n in names]
        return {owner: dict(vars(owner)) for owner in owners}

    before = namespaces()
    inputs = wl.make_inputs("solve_importance_k8", SEED)
    job = worker.JOBS["solve_importance_k8"](inputs, tmp_path)
    spans = tracer.Tracer()
    spans.install()
    try:
        attempted, failed, results = job.round()
    finally:
        spans.uninstall()
    assert attempted > 0 and failed == 0
    summary = spans.summary()
    steps = sum(len(trace) for _, trace, _ in results)
    assert summary["families.cholesky.calls"] > 0
    assert summary["weighting.project.calls"] == steps > 0
    after = namespaces()
    for owner, names in before.items():
        assert all(after[owner][name] is value for name, value in names.items()), owner
