"""Deterministic derivation of random sub-streams.

Every stochastic routine in the package receives an integer master seed (or a
``numpy.random.SeedSequence``) and derives child streams from it by path, so
that reruns are bit-identical and independent roles never share a stream.
Generators are Philox (counter based), which produces identical streams across
platforms.

``SeedSequence`` pads its entropy with zero words, so a path that ends in 0
would give the stream of the same path without that 0 (``(s, 0, 0)`` is the
stream of the bare seed ``s``).  Every path therefore ends in a role code, and
the role codes are nonzero; :func:`child_seed` rejects a path that ends in 0.
"""

from __future__ import annotations

import numpy as np

# Role codes used as the last path element when deriving sub-streams.  None
# is 0: SeedSequence would ignore a trailing 0.
ROLE_WEIGHTS = 1
ROLE_REPORT = 2
ROLE_SHUFFLE = 3
ROLE_TASK = 4
ROLE_EVAL = 5
ROLE_DRAW = 6


def child_seed(seed, *path):
    """Return a SeedSequence for ``seed`` extended by integer path elements.

    ``seed`` may be an int or an existing SeedSequence; in the latter case the
    path is appended to its entropy and spawn key.  A nonempty path must end
    in a nonzero element (a role code), so that distinct paths from one seed
    give distinct streams.
    """
    if path and int(path[-1]) == 0:
        raise ValueError("a seed path must end in a nonzero role code")
    if isinstance(seed, np.random.SeedSequence):
        base = list(np.atleast_1d(seed.entropy)) + list(seed.spawn_key)
    else:
        base = [int(seed)]
    return np.random.SeedSequence(tuple(base) + tuple(int(p) for p in path))


def child_int(seed, *path):
    """Derive a 64-bit integer seed, for APIs that want a plain int."""
    state = child_seed(seed, *path).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def make_rng(seed, *path):
    """Philox generator for the sub-stream addressed by ``path``."""
    return np.random.Generator(np.random.Philox(child_seed(seed, *path)))
