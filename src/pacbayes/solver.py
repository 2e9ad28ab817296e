"""Surrogate descent on the Catoni PAC-Bayes objective.

The reduced objective over the posterior parameter theta is

    Obj(theta) = pi_theta[R] + lam * KL(pi_theta || pi_prior),

and the full bound adds the theta-independent constant
C^2 / (8 lam n) - lam log(delta).  Each step projects the reweighted
evaluation ledger onto span(1, T); for the resulting surrogate the penalized
minimizer is the closed form theta_prior - eta / lam, toward which the
iterate moves under a KL trust region.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np
from scipy.linalg import solve_triangular

from .families import ConfigError, DomainError, params_from_json
from .risk import EvalStack, eval_risk
from .seeding import ROLE_DRAW, ROLE_EVAL, ROLE_WEIGHTS, child_seed
from .weighting import (
    GRAM_CONDITION_LIMIT,
    _DrawSet,
    _NearestPoints,
    exact_voronoi_weights_1d,
    importance_weights,
    project,
)

_WEIGHTINGS = ("voronoi", "exact1d", "importance")
# Bracket width at which damped_update's bisection stops, and its halving cap.
_BISECTION_TOL = 1e-9
_BISECTION_MAX_ITER = 200


def _is_integer(value):
    """An integer that is not a bool (Python counts ``True`` as 1)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _require_integers(config, *names):
    """Reject config fields that do not hold integers (2.0 and True included)."""
    for name in names:
        if not _is_integer(getattr(config, name)):
            raise ValueError(f"{name} must be an integer")


def _require_reals(config, *names):
    """Reject config fields that do not hold real numbers (True included)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a real number")


@dataclass
class CatoniConfig:
    """Hyperparameters of the objective and of the surrogate solver.

    Parameters
    ----------
    lam : float
        Inverse temperature multiplying the KL term.
    delta : float
        Confidence level of the bound, in (0, 1).
    n_data : int
        Sample size appearing in the bound constant.
    c_range : float
        Range radius of the risk (|R| <= c_range).
    kl_max : float
        Trust region radius for one update, measured in KL; may be inf.
    alpha_max : float
        Damping cap on the step toward the surrogate minimizer, in (0, 1].
    n_initial_queries : int
        Risk evaluations drawn at the first step.
    n_queries_per_step : int
        Risk evaluations drawn at each later step; 0 reuses the ledger only.
    query_schedule : sequence of int, optional
        Explicit per-step draw counts; the last entry repeats.  Overrides the
        two fields above when given.
    n_mc_weights : int
        Monte Carlo samples for the Voronoi weight estimate.  A solve draws
        one set of this many standard normals and whitens every step's
        ledger against it, so each step's weights are exact Monte Carlo
        estimates in that step's metric, but their errors are correlated
        across steps.
    max_steps : int
        Hard cap on solver steps.
    convergence_kl_tol : float
        Stop once the realized KL step falls below this.
    weighting : str
        One of "voronoi", "exact1d", "importance".
    record_trace : bool
        Disable to skip the per-step reporting pass (the trace stays empty).
    """

    lam: float
    delta: float = 0.05
    n_data: int = 100
    c_range: float = 2.0
    kl_max: float = 1.0
    alpha_max: float = 0.5
    n_initial_queries: int = 160
    n_queries_per_step: int = 32
    query_schedule: tuple = None
    n_mc_weights: int = 40_000
    max_steps: int = 300
    convergence_kl_tol: float = 1e-8
    weighting: str = "voronoi"
    record_trace: bool = True

    def __post_init__(self):
        _require_integers(
            self, "n_data", "n_initial_queries", "n_queries_per_step", "n_mc_weights", "max_steps"
        )
        _require_reals(self, "lam", "delta", "c_range", "kl_max", "alpha_max", "convergence_kl_tol")
        if not isinstance(self.record_trace, bool):
            raise ValueError("record_trace must be a bool")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.n_data < 1:
            raise ValueError("n_data must be at least 1")
        if not self.c_range > 0:
            raise ValueError("c_range must be positive")
        if not self.kl_max > 0:
            raise ValueError("kl_max must be positive (inf allowed)")
        if not 0 < self.alpha_max <= 1:
            raise ValueError("alpha_max must lie in (0, 1]")
        if self.query_schedule is not None:
            sched = tuple(self.query_schedule)
            if not sched or not all(_is_integer(v) and v >= 0 for v in sched):
                raise ValueError("query_schedule entries must be nonnegative integers")
            self.query_schedule = tuple(int(v) for v in sched)
        if self.n_initial_queries < 0 or self.n_queries_per_step < 0:
            raise ValueError("query counts must be nonnegative")
        if self.n_mc_weights < 1:
            raise ValueError("n_mc_weights must be at least 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.convergence_kl_tol < 0:
            raise ValueError("convergence_kl_tol must be nonnegative")
        if self.weighting not in _WEIGHTINGS:
            raise ValueError(f"weighting must be one of {_WEIGHTINGS}")

    def queries_at(self, step):
        """Draw count for a given solver step."""
        if self.query_schedule is not None:
            idx = min(step, len(self.query_schedule) - 1)
            return self.query_schedule[idx]
        return self.n_initial_queries if step == 0 else self.n_queries_per_step


def bound_offset(config):
    """Constant part of the bound: c_range^2 / (8 lam n) - lam log(delta)."""
    return float(
        config.c_range**2 / (8.0 * config.lam * config.n_data)
        - config.lam * math.log(config.delta)
    )


def catoni_objective(mean_risk, kl, lam):
    """Reduced objective: mean risk plus lam times KL to the prior."""
    return float(mean_risk + lam * kl)


def catoni_bound(mean_risk, kl, config):
    """Full high-probability bound: the objective plus its constant offset."""
    return catoni_objective(mean_risk, kl, config.lam) + bound_offset(config)


def surrogate_argmin(theta_p, eta, lam):
    """Exact minimizer theta_p - eta / lam of the surrogate objective."""
    return np.asarray(theta_p, dtype=float) - np.asarray(eta, dtype=float) / float(lam)


def _ray_kl(family, theta, delta):
    """KL(pi_{theta + alpha delta} || pi_theta) as a function of alpha.

    The precision and b = Lambda mu are linear in the natural parameter, so
    with Lambda_0 = L L^T at ``theta`` and the eigendecomposition
    V diag(e) V^T of the whitened step L^-1 dLambda L^-T, the parameter
    at alpha has precision L V (I + alpha diag(e)) V^T L^T and

        2 KL = sum 1 / s - k + ||c(alpha) / s - c_0||^2 + sum log s,

    with s = 1 + alpha e and c(alpha) = V^T L^-1 b(alpha).  Each trial
    costs O(k).  The function returns None where some s <= 0, which is
    exactly where the parameter leaves the domain.  ``theta`` outside the
    domain raises :class:`DomainError` from the factorization.
    """
    factored = family._factor(theta)
    chol, b0, k = factored.factor[0], factored.b, family.predictor_dim
    d_lam, d_b = family.precision_mean_form(delta)
    # L^-1 [dLambda | b_0 | db] in one solve; theta and delta are finite here.
    rhs = np.column_stack([d_lam, b0, d_b])
    white = solve_triangular(chol, rhs, lower=True, check_finite=False)
    step = solve_triangular(chol, white[:, :k].T, lower=True, check_finite=False)
    eig, vecs = np.linalg.eigh(step)
    c0, dc = (vecs.T @ white[:, k:]).T

    def kl(alpha):
        s = 1.0 + alpha * eig
        if not np.all(s > 0):
            return None
        r = (c0 + alpha * dc) / s - c0
        return 0.5 * float(np.sum(1.0 / s) - eig.size + r @ r + np.sum(np.log(s)))

    return kl


def damped_update(family, theta, theta_cand, kl_max, alpha_max):
    """Largest damped step toward ``theta_cand`` within the trust region.

    Finds the largest alpha <= alpha_max such that theta + alpha (theta_cand -
    theta) stays in the domain and within KL ``kl_max`` of ``theta``.  The KL
    along the ray is nondecreasing in alpha, so bisection applies; the lower
    (feasible) endpoint is returned once the bracket is within
    ``_BISECTION_TOL`` or after ``_BISECTION_MAX_ITER`` halvings.  Every
    trial reads the KL from one eigendecomposition along the ray.
    ``theta`` outside the domain raises :class:`DomainError`, and a
    non-finite ``theta_cand`` a ValueError.

    Returns
    -------
    (numpy.ndarray, float)
        The damped iterate and the alpha actually used.
    """
    theta = np.asarray(theta, dtype=float)
    theta_cand = np.asarray(theta_cand, dtype=float)
    if not np.all(np.isfinite(theta_cand)):
        raise ValueError("candidate theta_cand contains non-finite entries")
    delta = theta_cand - theta
    ray_kl = _ray_kl(family, theta, delta)
    if not np.any(delta):
        return theta.copy(), float(alpha_max)

    def feasible(alpha):
        kl = ray_kl(alpha)
        return kl is not None and kl <= kl_max

    if feasible(alpha_max):
        return theta + alpha_max * delta, float(alpha_max)
    lo, hi = 0.0, float(alpha_max)
    for _ in range(_BISECTION_MAX_ITER):
        if hi - lo <= _BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return theta + lo * delta, lo


def estimate_mean_risk(stack, weights):
    """Weighted ledger average; weights are expected to sum to one."""
    if len(stack) == 0:
        raise ValueError("evaluation stack is empty")
    return float(np.dot(np.asarray(weights, dtype=float), stack.values))


def _cell_codec(field):
    """Column name, writer and reader for one field of a record dataclass."""
    if field.type in ("int", int):
        return field.name, int, int
    if field.type in ("float", float):
        return field.name, lambda v: repr(float(v)), float
    return field.name + "_json", lambda v: json.dumps([float(x) for x in v]), params_from_json


class RecordTable:
    """Rows of one record dataclass, written to and read from CSV.

    Subclasses name the dataclass in ``record``.  Its ``int`` fields are
    written as integers and its ``float`` fields as ``repr(float)``; its one
    array field is written as a JSON list under the column ``<name>_json``.
    """

    record = None

    def __init__(self):
        self.records = []

    def __len__(self):
        return len(self.records)

    def append(self, record):
        self.records.append(record)

    @classmethod
    def _columns(cls):
        """(field, column, write, read) for each field of the record, in order."""
        return [(f.name, *_cell_codec(f)) for f in fields(cls.record)]

    def column(self, name):
        """Values of one scalar column as an array."""
        if name not in [field for field, column, _, _ in self._columns() if field == column]:
            raise KeyError(name)
        return np.asarray([getattr(r, name) for r in self.records])

    def to_csv(self, path):
        columns = self._columns()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([column for _, column, _, _ in columns])
            for r in self.records:
                writer.writerow([write(getattr(r, field)) for field, _, write, _ in columns])

    @classmethod
    def from_csv(cls, path):
        columns = cls._columns()
        table = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != [column for _, column, _, _ in columns]:
                raise ValueError(f"unrecognized {cls.__name__} header")
            for row in reader:
                cells = zip(columns, row, strict=True)
                table.append(cls.record(**{field: read(cell) for (field, _, _, read), cell in cells}))
        return table


@dataclass
class TraceRecord:
    step: int
    queries: int
    obj_cat: float
    pb_cat: float
    kl_to_prior: float
    alpha: float
    theta: np.ndarray


class SolverTrace(RecordTable):
    """Per-step history of a solver run.

    Each record describes a completed step: cumulative ledger queries, the
    objective/bound estimates at the post-update iterate, its KL to the
    prior, the damping factor used, and the iterate itself.
    """

    record = TraceRecord

    @property
    def query_grid(self):
        return np.asarray([r.queries for r in self.records], dtype=int)

    @property
    def thetas(self):
        return [r.theta for r in self.records]


def _weights_for(config, family, theta, draws):
    """Weigher ``weigh(stack)`` of ``config.weighting`` at ``theta``.

    A Voronoi weigher searches with the solve's ``draws`` and keeps its
    search, so a later call on the grown ledger scores only the rows
    appended since.  Other weightings ignore ``draws``.
    """
    if config.weighting == "voronoi":
        return _NearestPoints(family, theta, draws).weights
    if config.weighting == "exact1d":
        return lambda stack: exact_voronoi_weights_1d(stack, family, theta)
    return lambda stack: importance_weights(stack, family, theta, stack.generation_params)


def _check_solvable(config, family, cold=True):
    """Raise ConfigError, naming the field, if the first step of a solve must fail.

    ``exact1d`` weighting needs a one-dimensional family.  A cold solve, one
    on an empty ledger, must draw more than ``family.dim`` evaluations at its
    first step: with fewer, the projection's centred Gram matrix has rank
    below ``dim``.  A warm solve may draw nothing at its first step.
    """
    if config.weighting == "exact1d" and family.predictor_dim != 1:
        raise ConfigError(
            f"weighting: exact1d needs a one-dimensional family, not predictor_dim "
            f"{family.predictor_dim}",
            field="weighting",
        )
    n_first = config.queries_at(0)
    if cold and n_first <= family.dim:
        field = "n_initial_queries" if config.query_schedule is None else "query_schedule"
        raise ConfigError(
            f"{field}: the first step on an empty ledger draws {n_first} evaluations, and "
            f"the first projection needs more than {family.dim} (the family's dimension)",
            field=field,
        )


def run_supac_ce(risk, family, theta_p, theta0, config, seed, stack=None):
    """Minimize the Catoni objective by damped surrogate projection steps.

    Parameters
    ----------
    risk : callable
        Pure risk to minimize in expectation.
    family : GaussianFamily
    theta_p : array_like
        Prior natural parameter (also the center of the KL penalty).
    theta0 : array_like
        Starting iterate, inside the domain.
    config : CatoniConfig
    seed : int or numpy.random.SeedSequence
        Master seed.  Each step's batch comes from the stream
        ``(seed, step, ROLE_DRAW)``.  A Voronoi solve draws one set of
        ``n_mc_weights`` standard normals from ``(seed, 0, ROLE_WEIGHTS)``
        and weighs every step, and every report, against it.  Each step's
        weights are then an exact Monte Carlo estimate in that step's
        metric.  But the iterate of step s depends on the same draws that
        weigh step s, so the weight errors are correlated across steps and
        the path can follow them.
    stack : EvalStack, optional
        Warm-start ledger; new draws are appended to it and the trace query
        column keeps counting from its current total.  Each batch is
        recorded with the iterate it was drawn from, which importance
        weighting needs for every step in the ledger.  Without one, the
        first step must draw more than ``family.dim`` evaluations.

    Raises
    ------
    ConfigError
        Before any draw, for ``exact1d`` weighting on a family of more than
        one dimension, and for a first step on an empty ledger that draws
        too few evaluations to fit the first projection.

    Returns
    -------
    (theta, trace, stack)
        Final iterate, per-step :class:`SolverTrace`, and the ledger.
    """
    theta_p = np.asarray(theta_p, dtype=float)
    theta = np.asarray(theta0, dtype=float).copy()
    for name, value in (("prior", theta_p), ("initial point", theta)):
        if not family.in_domain(value):
            raise DomainError(f"{name} lies outside the family domain")
    if stack is None:
        stack = EvalStack(family.predictor_dim)
    elif stack.predictor_dim != family.predictor_dim:
        raise ValueError("stack predictor dimension does not match the family")
    _check_solvable(config, family, cold=len(stack) == 0)
    step_offset = stack.next_step()
    trace = SolverTrace()
    # One draw set serves every Voronoi search of the solve.
    draws = None
    if config.weighting == "voronoi":
        draws = _DrawSet(
            config.n_mc_weights, family.predictor_dim, child_seed(seed, 0, ROLE_WEIGHTS)
        )
    # The reporting pass's weigher at the next iterate, carried into the next step.
    weigh = None

    # T(x) of each ledger row is evaluated once for this solve, then dropped.
    rows = len(stack) + sum(config.queries_at(step) for step in range(config.max_steps))
    with stack._holding_suff_stat(family, rows):
        for step in range(config.max_steps):
            n_draw = config.queries_at(step)
            if n_draw > 0:
                points = family.sample(theta, n_draw, child_seed(seed, step, ROLE_DRAW))
                values = eval_risk(risk, points)
                stack.record(points, values, step_offset + step, theta=theta)
            if weigh is None:
                weigh = _weights_for(config, family, theta, draws)
            # Free the weigher before the report builds the next one.
            weights, weigh = weigh(stack), None
            fit = project(stack, weights, family, theta)
            if step == 0 and not (
                np.isfinite(fit.gram_condition) and fit.gram_condition <= GRAM_CONDITION_LIMIT
            ):
                raise ValueError(
                    "projection Gram matrix is ill conditioned at the first step; "
                    f"need more than {family.dim} distinct evaluations "
                    f"(ledger holds {len(stack)}); increase n_initial_queries"
                )
            theta_cand = surrogate_argmin(theta_p, fit.eta, config.lam)
            theta_next, alpha = damped_update(
                family, theta, theta_cand, config.kl_max, config.alpha_max
            )
            step_kl = family.kl(theta_next, theta)
            if config.record_trace:
                # The report weighs at theta_next, so the next step reuses its weigher.
                weigh = _weights_for(config, family, theta_next, draws)
                mean_risk = estimate_mean_risk(stack, weigh(stack))
                kl_prior = family.kl(theta_next, theta_p)
                trace.append(
                    TraceRecord(
                        step=step,
                        queries=stack.query_count,
                        obj_cat=catoni_objective(mean_risk, kl_prior, config.lam),
                        pb_cat=catoni_bound(mean_risk, kl_prior, config),
                        kl_to_prior=kl_prior,
                        alpha=alpha,
                        theta=theta_next.copy(),
                    )
                )
            theta = theta_next
            # KL is nonnegative; clamp roundoff so tol = 0 disables the stop.
            if max(step_kl, 0.0) < config.convergence_kl_tol:
                break
    return theta, trace, stack


def evaluate_objective(risk, family, theta, theta_p, config, n_samples=10_000, seed=0):
    """Fresh-sample estimate of the objective and bound at ``theta``.

    Draws ``n_samples`` new predictors from pi_theta (not recorded in any
    ledger) and combines their mean risk with the exact KL term.  This is the
    common test-time protocol for comparing methods.

    Returns
    -------
    (float, float)
        Objective estimate and bound estimate.
    """
    points = family.sample(theta, n_samples, child_seed(seed, 0, ROLE_EVAL))
    mean_risk = float(np.mean(eval_risk(risk, points)))
    kl = family.kl(theta, theta_p)
    return (
        catoni_objective(mean_risk, kl, config.lam),
        catoni_bound(mean_risk, kl, config),
    )
