"""Risk functionals and the append-only evaluation ledger.

Risks are pure callables mapping a batch of predictors (n, k) to a float
vector (n,); every training query goes through :meth:`EvalStack.record` so
budget accounting stays exact.  Two concrete risk types are provided: an
affine function of the sufficient statistic (closed forms available, used for
verification) and the bounded synthetic benchmark risk.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .families import ConfigError, GaussianFamily


def eval_risk(risk, x):
    """Evaluate a risk on predictors, enforcing shape and finiteness.

    Parameters
    ----------
    risk : callable
        Object with a ``predictor_dim`` attribute, mapping (n, k) -> (n,).
    x : array_like
        Single predictor (k,) or batch (n, k).

    Returns
    -------
    float or numpy.ndarray
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    k = getattr(risk, "predictor_dim", pts.shape[1])
    if pts.shape[1] != k:
        raise ValueError(f"risk expects predictors with {k} coordinates")
    vals = np.asarray(risk(pts), dtype=float).reshape(-1)
    if vals.shape != (pts.shape[0],):
        raise ValueError("risk must return one value per predictor")
    if not np.all(np.isfinite(vals)):
        raise ValueError("risk returned non-finite values")
    return float(vals[0]) if single else vals


@dataclass(frozen=True, eq=False)
class QuadraticRisk:
    """Affine function of the sufficient statistic: R(x) = eta . T(x) + offset.

    Lies inside the span the projection targets, so posterior averages, the
    objective gradient and the optimum are all available in closed form.
    """

    family: GaussianFamily
    eta: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float).copy()
        if eta.shape != (self.family.dim,):
            raise ValueError(f"eta must have shape ({self.family.dim},)")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def predictor_dim(self):
        return self.family.predictor_dim

    def __call__(self, x):
        return self.family.suff_stat(np.atleast_2d(np.asarray(x, float))) @ self.eta + self.offset

    def expected_value(self, theta):
        """pi_theta[R] = eta . grad g(theta) + offset."""
        return float(self.eta @ self.family.mean_suff_stat(theta) + self.offset)

    def gibbs_posterior(self, theta_p, lam):
        """Closed-form minimizer theta_p - eta / lam of the penalized objective."""
        return np.asarray(theta_p, dtype=float) - self.eta / float(lam)


@dataclass(frozen=True, eq=False)
class TanhSyntheticRisk:
    """Bounded benchmark risk tanh((cos(u) + u) / 10), u = omega ||A (x - x0)||^2.

    Global minimum at x0; concentric local minima where u = pi/2 + 2 pi m.
    Values lie in (-1, 1) and saturate near 1 far from x0.
    """

    omega: float
    a_matrix: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float).copy()
        x0 = np.asarray(self.x0, dtype=float).copy()
        if x0.ndim != 1 or a.shape != (x0.size, x0.size):
            raise ValueError("a_matrix must be square with side len(x0)")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "x0", x0)

    @property
    def predictor_dim(self):
        return self.x0.size

    def __call__(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        diff = (pts - self.x0) @ self.a_matrix.T
        u = self.omega * np.sum(diff * diff, axis=1)
        return np.tanh((np.cos(u) + u) / 10.0)


@dataclass(frozen=True, eq=False)
class CustomRisk:
    """Wrap a user-supplied pure callable as a risk."""

    fn: object
    predictor_dim: int

    def __call__(self, x):
        return self.fn(np.atleast_2d(np.asarray(x, dtype=float)))


# Fields of each serializable risk kind: (required, optional).
_RISK_FIELDS = {
    "tanh_synthetic": (("omega", "a_matrix", "x0"), ()),
    "quadratic_in_f": (("eta",), ("offset",)),
}


def risk_to_dict(risk):
    """JSON-ready parameters of a serializable risk."""
    if isinstance(risk, TanhSyntheticRisk):
        return {
            "kind": "tanh_synthetic",
            "omega": float(risk.omega),
            "a_matrix": risk.a_matrix.tolist(),
            "x0": risk.x0.tolist(),
        }
    if isinstance(risk, QuadraticRisk):
        return {
            "kind": "quadratic_in_f",
            "eta": risk.eta.tolist(),
            "offset": float(risk.offset),
        }
    raise ValueError(f"cannot serialize risk of type {type(risk).__name__}")


def risk_from_dict(data, family=None):
    """Inverse of :func:`risk_to_dict`; quadratic risks need the family.

    Every required field of the kind must be present and no other field may
    be.  A malformed object raises :class:`ConfigError` whose ``field`` is
    the offending key and whose message starts with it.
    """
    if "kind" not in data:
        raise ConfigError("kind: missing required field", field="kind")
    kind = data["kind"]
    if kind not in _RISK_FIELDS:
        raise ConfigError(f"kind: unknown risk kind {kind!r}", field="kind")
    required, optional = _RISK_FIELDS[kind]
    for name in required:
        if name not in data:
            raise ConfigError(f"{name}: missing required field", field=name)
    unknown = sorted(set(data) - {"kind", *required, *optional})
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown field for risk kind {kind!r}", field=unknown[0])
    if kind == "tanh_synthetic":
        return TanhSyntheticRisk(
            omega=float(data["omega"]),
            a_matrix=np.asarray(data["a_matrix"], dtype=float),
            x0=np.asarray(data["x0"], dtype=float),
        )
    if family is None:
        raise ValueError("quadratic risks need the family to deserialize")
    return QuadraticRisk(
        family=family,
        eta=np.asarray(data["eta"], dtype=float),
        offset=float(data.get("offset", 0.0)),
    )


class EvalStack:
    """Append-only ledger of risk evaluations.

    Each entry stores the predictor, its risk value and the solver step that
    paid for it; each step is charged once.  ``query_count`` is the budget
    actually spent; reuse of old entries is free.  ``generation_params``
    maps a step to the natural parameter its batch was drawn from, when the
    recorder gave one; it is kept in memory only, so a ledger read back from
    CSV has none.  While a solve holds the ledger (:meth:`_holding`), T(x)
    of each entry and its log density under that parameter are kept too.
    Which entries repeat an earlier point exactly (:meth:`_copies`) is
    worked out once per entry, when a Voronoi search first reads it.
    """

    def __init__(self, predictor_dim):
        self.predictor_dim = int(predictor_dim)
        self._points = np.empty((0, self.predictor_dim))
        self._values = np.empty(0)
        self._steps = np.empty(0, dtype=int)
        self.generation_params = {}
        # (family, {name: [table, rows filled]}) while a solve holds the ledger.
        self._held = None
        # Which of the first entries repeat an earlier point, and the indices
        # of the distinct points among them, sorted by the points' bytes.
        self._copy_mask = np.empty(0, dtype=bool)
        self._distinct_order = np.empty(0, dtype=np.int64)

    def __len__(self):
        return self._values.size

    @property
    def query_count(self):
        return self._values.size

    @property
    def points(self):
        return self._points

    @property
    def values(self):
        return self._values

    @property
    def steps(self):
        return self._steps

    def record(self, points, values, step, theta=None):
        """Append a batch of evaluations charged to ``step``, at least :meth:`next_step`.

        ``theta``, if given, is the natural parameter the batch was drawn
        from; it is stored in ``generation_params`` under ``step``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.asarray(values, dtype=float).reshape(-1)
        if pts.shape != (vals.size, self.predictor_dim):
            raise ValueError("points and values shapes do not align")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("refusing to record non-finite evaluations")
        step = int(step)
        if step < self.next_step():
            raise ValueError(f"step {step} is already charged; the next step is {self.next_step()}")
        self._points = np.concatenate([self._points, pts], axis=0)
        self._values = np.concatenate([self._values, vals])
        self._steps = np.concatenate([self._steps, np.full(vals.size, step, dtype=int)])
        if theta is not None:
            self.generation_params[step] = np.array(theta, dtype=float)
        return self

    @contextmanager
    def _holding(self, family, rows):
        """Hold T(x) and generating log densities under ``family`` until the block exits.

        Each table is allocated once, for ``rows`` entries, so the kernel maps
        its pages only as entries fill them.
        """
        empty = {"suff_stat": np.empty((rows, family.dim)), "log_density": np.empty(rows)}
        self._held = family, {name: [table, 0] for name, table in empty.items()}
        try:
            yield self
        finally:
            self._held = None

    def _held_rows(self, name, family, evaluate):
        """Table ``name`` of every entry; ``evaluate(start)`` gives the rows from ``start`` on.

        A table held in ``family`` evaluates only the entries appended since
        its last read; otherwise every entry is evaluated.
        """
        held = self._held[1][name] if self._held is not None and self._held[0] == family else None
        if held is None or len(held[0]) < len(self):
            return evaluate(0)
        table, filled = held
        if filled < len(self):
            table[filled : len(self)] = evaluate(filled)
            held[1] = len(self)
        return table[: len(self)]

    def _suff_stat(self, family):
        """T(x) of every entry."""
        return self._held_rows("suff_stat", family, lambda i: family.suff_stat(self._points[i:]))

    def _generation_log_density(self, family, generation_params):
        """Log density of each entry under the parameter that drew its step's batch.

        ``generation_params`` maps each step to that parameter.  A hold keeps
        the densities only under the ledger's own ``generation_params``.
        """

        def evaluate(start):
            steps, points = self._steps[start:], self._points[start:]
            log_den = np.empty(steps.size)
            for step in np.unique(steps).tolist():
                if step not in generation_params:
                    raise ValueError(
                        f"missing generation parameter for step {step}: importance weighting needs "
                        "the parameter that drew each batch, and a ledger read with "
                        "EvalStack.from_csv has none"
                    )
                mask = steps == step
                log_den[mask] = family.log_density(generation_params[step], points[mask])
            return log_den

        if generation_params is not self.generation_params:
            return evaluate(0)
        return self._held_rows("log_density", family, evaluate)

    def _copies(self):
        """True for each entry whose point repeats an earlier entry's exactly.

        -0.0 and 0.0 count as equal.  The mask is extended by the entries
        appended since the last call, which are looked up among the earlier
        distinct points in the order of their bytes.
        """
        done = self._copy_mask.size
        if done < len(self):
            points = self._points + 0.0  # adding 0.0 maps -0.0 to 0.0
            keys = points.view(f"V{points.itemsize * self.predictor_dim}").ravel()
            # Each distinct new key, where its first occurrence is, and
            # whether an earlier entry holds it already.
            new, first, inverse = np.unique(keys[done:], return_index=True, return_inverse=True)
            known = keys[self._distinct_order]
            pos = np.searchsorted(known, new)
            seen = pos < known.size
            seen[seen] = known[pos[seen]] == new[seen]
            copies = np.ones(len(keys) - done, dtype=bool)
            copies[first] = False
            copies |= seen[inverse]
            self._distinct_order = np.insert(self._distinct_order, pos[~seen], done + first[~seen])
            self._copy_mask = np.concatenate([self._copy_mask, copies])
        return self._copy_mask

    def next_step(self):
        """Smallest step index not yet charged (0 on an empty stack)."""
        return int(self._steps.max()) + 1 if self._steps.size else 0

    def to_csv(self, path):
        """Write the ledger as CSV with columns step, x_1..x_k, risk."""
        header = ["step"] + [f"x_{i + 1}" for i in range(self.predictor_dim)] + ["risk"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for s, row, v in zip(self._steps, self._points, self._values):
                writer.writerow([int(s)] + [repr(float(c)) for c in row] + [repr(float(v))])

    @classmethod
    def from_csv(cls, path):
        """Read a ledger written by :meth:`to_csv`."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[0] != "step" or header[-1] != "risk":
                raise ValueError("unrecognized evaluation stack header")
            k = len(header) - 2
            stack = cls(k)
            steps, pts, vals = [], [], []
            for row in reader:
                steps.append(int(row[0]))
                pts.append([float(c) for c in row[1:-1]])
                vals.append(float(row[-1]))
        if steps:
            stack._points = np.asarray(pts, dtype=float)
            stack._values = np.asarray(vals, dtype=float)
            stack._steps = np.asarray(steps, dtype=int)
        return stack

