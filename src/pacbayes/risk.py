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
    paid for it.  ``query_count`` is the budget actually spent; reuse of old
    entries is free.  ``generation_params`` maps a step to the natural
    parameter its batch was drawn from, when the recorder gave one; it is
    kept in memory only, so a ledger read back from CSV has none.  The log
    density of each entry under the parameter that drew its batch is
    memoised the same way, one float per stored entry.  While a solve holds
    the ledger (:meth:`_holding_suff_stat`), T(x) of each entry is kept too.
    """

    def __init__(self, predictor_dim):
        self.predictor_dim = int(predictor_dim)
        self._points = np.empty((0, self.predictor_dim))
        self._values = np.empty(0)
        self._steps = np.empty(0, dtype=int)
        self.generation_params = {}
        # Log density of the first entries under their steps' parameters, the
        # family it was taken in, and each covered step's parameter bytes.
        self._log_den = np.empty(0)
        self._log_den_family = None
        self._log_den_theta = {}
        # (family, T table, rows filled) while a solve holds the ledger.
        self._held_suff_stat = None

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
        """Append a batch of evaluations charged to ``step``.

        ``theta``, if given, is the natural parameter the batch was drawn
        from; it is stored in ``generation_params`` under ``step``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.asarray(values, dtype=float).reshape(-1)
        if pts.shape != (vals.size, self.predictor_dim):
            raise ValueError("points and values shapes do not align")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("refusing to record non-finite evaluations")
        self._points = np.concatenate([self._points, pts], axis=0)
        self._values = np.concatenate([self._values, vals])
        self._steps = np.concatenate([self._steps, np.full(vals.size, int(step), dtype=int)])
        if int(step) in self._log_den_theta:
            # The step's batch grew, so its densities are evaluated anew.
            self._log_den, self._log_den_theta = np.empty(0), {}
        if theta is not None:
            self.generation_params[int(step)] = np.array(theta, dtype=float)
        return self

    def _generation_log_density(self, family, generation_params):
        """Log density of each entry under the parameter that drew its step's batch.

        ``generation_params`` maps each step to that parameter.  Densities
        are evaluated one step's batch at a time and memoised; a later call
        evaluates only the entries appended since.  The memo is rebuilt for
        another family, when a covered step's parameter differs in its
        bytes, and after a record to a covered step.
        """
        done = self._log_den.size
        ledger_steps = self._log_den_theta.keys() | set(np.unique(self._steps[done:]).tolist())
        thetas = {}
        for step in sorted(ledger_steps):
            if step not in generation_params:
                raise ValueError(
                    f"missing generation parameter for step {step}: importance weighting "
                    "needs the parameter that drew each batch, and a ledger read with "
                    "EvalStack.from_csv has none"
                )
            thetas[step] = np.asarray(generation_params[step], dtype=float)
        if family != self._log_den_family or any(
            thetas[step].tobytes() != key for step, key in self._log_den_theta.items()
        ):
            self._log_den, self._log_den_family, self._log_den_theta = np.empty(0), family, {}
            done = 0
        steps = self._steps[done:]
        log_den = np.empty(steps.size)
        for step in np.unique(steps).tolist():
            mask = steps == step
            log_den[mask] = family.log_density(thetas[step], self._points[done:][mask])
            self._log_den_theta[step] = thetas[step].tobytes()
        self._log_den = np.concatenate([self._log_den, log_den])
        return self._log_den

    @contextmanager
    def _holding_suff_stat(self, family, rows):
        """Keep T(x) under ``family`` of up to ``rows`` entries until the block exits.

        The table is allocated once, so the kernel maps its pages only as
        entries fill them.
        """
        self._held_suff_stat = family, np.empty((rows, family.dim)), 0
        try:
            yield self
        finally:
            self._held_suff_stat = None

    def _suff_stat(self, family):
        """T(x) of every entry; a held table evaluates only appended entries."""
        held = self._held_suff_stat
        if held is None or held[0] != family or len(held[1]) < len(self):
            return family.suff_stat(self._points)
        _, table, filled = held
        if filled < len(self):
            table[filled : len(self)] = family.suff_stat(self._points[filled:])
            self._held_suff_stat = family, table, len(self)
        return table[: len(self)]

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

