"""Keep the posteriors of the solves that ``pacbayes.meta`` runs.

``evaluate_prior`` returns only a mean score; the benchmark needs each
held-out posterior to estimate the bound with its own code.  While the
context is open, the ``run_supac_ce`` name inside ``pacbayes.meta`` is
replaced by a pass-through that appends each returned posterior to a list.
"""

from __future__ import annotations

import contextlib


@contextlib.contextmanager
def solves(into):
    import pacbayes.meta as meta

    inner = meta.run_supac_ce

    def capturing(*args, **kwargs):
        result = inner(*args, **kwargs)
        into.append(result[0])
        return result

    meta.run_supac_ce = capturing
    try:
        yield into
    finally:
        meta.run_supac_ce = inner
