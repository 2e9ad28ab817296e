"""One round of every benchmark workload passes the benchmark's own checks.

Each workload of ``perfbench/`` is built from its inputs, run for one round
through the worker's job, saved, and verified with the matching
``checks.verify_*``, all in this process.  A round with a failed solve, a
job or check that raises on the package's API or output files, or a failed
check fails the test, where it would stop or fail a ``perfbench/run.py`` run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
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
