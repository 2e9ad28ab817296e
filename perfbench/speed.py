"""Fixed probes of the machine's speed, run at intervals while rounds are timed.

On a shared host the same round of work can run 20-50% slower for tens of
seconds at a time, and a run of 30 s cannot average that away.  While an
untraced round runs, a ``SIGALRM`` timer interrupts it every
``PROBE_INTERVAL_S`` and runs two fixed probes in the main thread:
``Sampler.probe_compute``, small Gaussian computations that are interpreter
and LAPACK bound like the solver loop, and ``Sampler.probe_memory``, a 32 MB
product and argmin that is memory bound like the Voronoi search.  The
probes' time is taken out of the round's wall time, and ``scaled_round_s``
scales the round to the speed at which the workload's probes take their
``NOMINAL_S``.  The probes call nothing in ``pacbayes``, so a change to the
program moves the scaled time about as it moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

PROBE_INTERVAL_S = 0.5
# Median time of each part of the probe on an idle 2-core Xeon at 2.1 GHz,
# numpy 2.4.
NOMINAL_S = {"compute": 0.0095, "memory": 0.013}
K = 8


class Sampler:
    """Runs both probes every ``interval`` seconds of wall time between ``start`` and ``stop``."""

    def __init__(self, interval=PROBE_INTERVAL_S):
        self.interval = interval
        rng = np.random.default_rng(20241010)
        a = rng.standard_normal((K, K))
        self._precision = a @ a.T + K * np.eye(K)
        self._shift = rng.standard_normal(K)
        self._x = rng.standard_normal((64, K))
        self._draws = rng.standard_normal((4096, K))
        self._points = rng.standard_normal((K, 1024))
        # Allocated once, so that the probe adds a constant 32 MB to resident memory.
        self._scores = np.empty((4096, 1024))
        self.times = {kind: [] for kind in NOMINAL_S}
        self.error = None
        self._previous = None

    def probe_compute(self):
        """Fixed work: 128 small Gaussian log densities at k = 8."""
        for _ in range(128):
            factor = cho_factor(self._precision)
            mean = cho_solve(factor, self._shift)
            d = self._x - mean
            np.einsum("ij,jk,ik->i", d, self._precision, d)
            np.linalg.slogdet(self._precision)

    def probe_memory(self):
        """Fixed work: two passes of a 32 MB product and row-wise argmin."""
        total = 0
        for _ in range(2):
            np.matmul(self._draws, self._points, out=self._scores)
            total += int(np.argmin(self._scores, axis=1).sum())
        return total

    def _handler(self, signum, frame):
        try:
            for kind, fn in (("compute", self.probe_compute), ("memory", self.probe_memory)):
                t = time.perf_counter()
                fn()
                self.times[kind].append(time.perf_counter() - t)
        except Exception as exc:  # reported after the round, not inside the program
            self.error = exc

    def start(self):
        self.times = {kind: [] for kind in NOMINAL_S}
        self.error = None
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        """Stop the timer; the probe times of this interval, by kind."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.error is not None:
            raise RuntimeError("speed probe failed") from self.error
        return {kind: list(times) for kind, times in self.times.items()}


def scaled_round_s(net_round_s, probe_s, kinds):
    """Median net round time, scaled by the nominal over the run's mean time of the probes ``kinds``."""
    if not all(probe_s[kind] for kind in kinds):
        raise ValueError("no probe ran during the timed rounds")
    nominal = sum(NOMINAL_S[kind] for kind in kinds)
    measured = sum(statistics.fmean(probe_s[kind]) for kind in kinds)
    return statistics.median(net_round_s) * nominal / measured
