"""Gradient-descent baselines on the Catoni objective.

The gradient of the objective in natural coordinates is

    grad Obj(theta) = pi_theta[R (T - grad g)] + lam I(theta) (theta - theta_p),

whose first term is estimated by the score-function average over fresh draws
while the KL term is exact.  Plain descent and a Nesterov lookahead variant
are provided; both keep iterates inside the domain by halving the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import DomainError
from .risk import eval_risk
from .seeding import ROLE_DRAW, ROLE_REPORT, child_seed
from .solver import (
    SolverTrace,
    TraceRecord,
    _require_integers,
    _require_reals,
    catoni_bound,
    catoni_objective,
)

_MIN_SCALE = 1e-12


@dataclass
class GDConfig:
    """Settings for the descent baselines.

    Parameters
    ----------
    step_size : float
        Step size in natural coordinates.
    momentum : float
        Nesterov momentum in [0, 1); 0 gives plain descent.
    per_step : int
        Fresh risk evaluations per gradient estimate.
    max_queries : int
        Training evaluation budget; the run stops before exceeding it.
    diag_samples : int
        Fresh draws per step for the trace objective estimate.  These are
        diagnostics and are not charged against ``max_queries``.
    """

    step_size: float
    momentum: float = 0.0
    per_step: int = 32
    max_queries: int = 2000
    diag_samples: int = 1000

    def __post_init__(self):
        _require_integers(self, "per_step", "max_queries", "diag_samples")
        _require_reals(self, "step_size", "momentum")
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.per_step < 1:
            raise ValueError("per_step must be at least 1")
        if self.max_queries < self.per_step:
            raise ValueError("max_queries must cover at least one step")
        if self.diag_samples < 1:
            raise ValueError("diag_samples must be at least 1")


def catoni_gradient_estimate(family, theta, theta_p, points, values, lam):
    """Score-function estimate of the objective gradient at ``theta``.

    ``points`` must be drawn from pi_theta; ``values`` are their risks.  The
    risk term averages R(x) (T(x) - grad g(theta)); the KL term
    lam I(theta) (theta - theta_p) is exact.
    """
    theta = np.asarray(theta, dtype=float)
    theta_p = np.asarray(theta_p, dtype=float)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("gradient estimate needs at least one sample")
    t = np.atleast_2d(family.suff_stat(points))
    if t.shape[0] != values.size:
        raise ValueError("points and values shapes do not align")
    score = t - family.mean_suff_stat(theta)
    grad_risk = score.T @ values / values.size
    grad_kl = family.fisher_info(theta) @ (theta - theta_p)
    return grad_risk + float(lam) * grad_kl


def _shrink_into_domain(family, base, direction):
    """Largest halved fraction of ``direction`` keeping ``base + .`` inside."""
    scale = 1.0
    while scale > _MIN_SCALE and not family.in_domain(base + scale * direction):
        scale *= 0.5
    return scale if scale > _MIN_SCALE else 0.0


def run_gd(risk, family, theta_p, theta0, config, catoni, seed):
    """Minimize the objective by (Nesterov) stochastic gradient descent.

    Parameters
    ----------
    risk, family, theta_p, theta0
        As in the surrogate solver.
    config : GDConfig
    catoni : CatoniConfig
        Supplies lam and the bound constants.
    seed : int or numpy.random.SeedSequence

    Returns
    -------
    (theta, trace)
        Final iterate and a :class:`SolverTrace` whose query column counts
        training evaluations only.
    """
    theta_p = np.asarray(theta_p, dtype=float)
    theta = np.asarray(theta0, dtype=float).copy()
    for name, value in (("prior", theta_p), ("initial point", theta)):
        if not family.in_domain(value):
            raise DomainError(f"{name} lies outside the family domain")
    velocity = np.zeros(family.dim)
    trace = SolverTrace()
    queries = 0
    step = 0
    while queries + config.per_step <= config.max_queries:
        lookahead = theta
        if config.momentum > 0 and np.any(velocity):
            scale_m = _shrink_into_domain(family, theta, config.momentum * velocity)
            lookahead = theta + scale_m * config.momentum * velocity
        points = family.sample(lookahead, config.per_step, child_seed(seed, step, ROLE_DRAW))
        values = eval_risk(risk, points)
        queries += config.per_step
        grad = catoni_gradient_estimate(family, lookahead, theta_p, points, values, catoni.lam)
        velocity = config.momentum * velocity - config.step_size * grad
        scale = _shrink_into_domain(family, theta, velocity)
        velocity = scale * velocity
        theta = theta + velocity
        diag = family.sample(theta, config.diag_samples, child_seed(seed, step, ROLE_REPORT))
        mean_risk = float(np.mean(eval_risk(risk, diag)))
        kl_prior = family.kl(theta, theta_p)
        trace.append(
            TraceRecord(
                step=step,
                queries=queries,
                obj_cat=catoni_objective(mean_risk, kl_prior, catoni.lam),
                pb_cat=catoni_bound(mean_risk, kl_prior, catoni),
                kl_to_prior=kl_prior,
                alpha=scale,
                theta=theta.copy(),
            )
        )
        step += 1
    return theta, trace
