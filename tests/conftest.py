"""Run the suite's BLAS at one thread unless the caller chose otherwise.

pytest imports this file before any test module imports numpy, so the
settings reach the BLAS library when it loads; the demo subprocesses inherit
them.  On a small machine a multi-threaded BLAS spends more time handing the
solver's small matrix products between threads than it saves.
"""

import os

import pytest

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: this process may use n CPUs, at one BLAS thread each.

    A meta batch of m tasks is then solved by min(n, m) forked workers, or
    in this process when that is 1, whatever machine runs the test.
    """

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        for var in _BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")

    return use
