"""Run the suite's BLAS at one thread unless the caller chose otherwise.

pytest imports this file before any test module imports numpy, so the
settings reach the BLAS library when it loads; the demo subprocesses inherit
them.  On a small machine a multi-threaded BLAS spends more time handing the
solver's small matrix products between threads than it saves.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
