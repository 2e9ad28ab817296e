"""Prior optimization across a collection of tasks.

The meta objective is the sum over tasks of the optimized Catoni objective,
each task solved at the shared prior theta_p.  At the inner optima the
envelope theorem collapses the meta gradient to the closed form

    grad_p M = sum_i lam_i (grad g(theta_p) - grad g(theta_hat_i)),

so one mean-statistic evaluation per task posterior suffices.  Stochastic
meta descent shuffles tasks into batches, re-solves each batch member (warm
restarting from its previous posterior and ledger), and moves the prior under
a KL trust region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .families import DomainError
from .risk import (
    EvalStack, QuadraticRisk, TanhSyntheticRisk, eval_risk, risk_from_dict, risk_to_dict
)
from .seeding import ROLE_EVAL, ROLE_SHUFFLE, ROLE_TASK, child_int, child_seed, make_rng
from .solver import (
    CatoniConfig,
    RecordTable,
    _require_integers,
    _require_reals,
    catoni_objective,
    damped_update,
    run_supac_ce,
)


@dataclass(frozen=True, eq=False)
class TaskEnvironment:
    """Shared distribution the synthetic task minima are drawn from.

    ``center`` lies on the sphere of radius 2; ``cov`` has all but two
    eigenvalues pinned at 0.05^2, the remaining two drawn log-uniformly in
    [e^-1, e].
    """

    center: np.ndarray
    cov: np.ndarray

    @property
    def predictor_dim(self):
        return self.center.size

    @classmethod
    def sample(cls, seed, predictor_dim):
        k = int(predictor_dim)
        if k < 2:
            raise ValueError("synthetic environments need predictor_dim >= 2")
        rng = make_rng(seed)
        z = rng.standard_normal(k)
        center = 2.0 * z / np.linalg.norm(z)
        eigs = np.full(k, 0.05**2)
        eigs[-2:] = np.exp(rng.uniform(-0.5, 0.5, size=2)) ** 2
        gauss = rng.standard_normal((k, k))
        q, r = np.linalg.qr(gauss)
        q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
        cov = (q * eigs) @ q.T
        return cls(center=center, cov=0.5 * (cov + cov.T))


@dataclass
class TaskSpec:
    """One learning task: a risk, its temperature, and its reusable state."""

    risk: object
    lam: float
    stack: EvalStack
    posterior: np.ndarray = None


def sample_synthetic_task(seed, predictor_dim, env=None, lam=0.1):
    """Draw a synthetic bounded-risk task.

    The risk is tanh((cos(u) + u) / 10) with u = omega ||A (x - x0)||^2,
    where x0 ~ N(center, cov) under ``env``, omega ~ U(3 pi / 2, 5 pi / 2)
    and A has independent N(delta_ij, 0.05^2) entries.  When ``env`` is not
    given a fresh environment is drawn from the same seed; passing a shared
    environment makes tasks related, which is what gives the prior something
    to learn.
    """
    k = int(predictor_dim)
    if k < 3:
        raise ValueError("synthetic tasks need predictor_dim >= 3")
    if env is None:
        env = TaskEnvironment.sample(child_seed(seed, 0, ROLE_TASK), k)
    elif env.predictor_dim != k:
        raise ValueError("environment dimension does not match predictor_dim")
    rng = make_rng(seed, 1, ROLE_TASK)
    x0 = env.center + np.linalg.cholesky(env.cov) @ rng.standard_normal(k)
    omega = rng.uniform(1.5 * np.pi, 2.5 * np.pi)
    a_matrix = np.eye(k) + 0.05 * rng.standard_normal((k, k))
    risk = TanhSyntheticRisk(omega=omega, a_matrix=a_matrix, x0=x0)
    return TaskSpec(risk=risk, lam=float(lam), stack=EvalStack(k))


def tasks_to_json(tasks):
    """Serialize task parameters (not ledgers) for exact replay."""
    return json.dumps(
        [{"lambda": float(t.lam), "risk": risk_to_dict(t.risk)} for t in tasks]
    )


def tasks_from_json(text, family=None):
    """Rebuild tasks from :func:`tasks_to_json` output, with fresh ledgers."""
    items = json.loads(text)
    tasks = []
    for item in items:
        risk = risk_from_dict(item["risk"], family=family)
        tasks.append(
            TaskSpec(risk=risk, lam=float(item["lambda"]), stack=EvalStack(risk.predictor_dim))
        )
    return tasks


def meta_gradient(family, theta_p, posteriors, lams):
    """Sum over tasks of lam_i (grad g(theta_p) - grad g(posterior_i))."""
    mean_p = family.mean_suff_stat(theta_p)
    grad = np.zeros(family.dim)
    for theta_i, lam_i in zip(posteriors, lams, strict=True):
        grad += float(lam_i) * (mean_p - family.mean_suff_stat(theta_i))
    return grad


def _solve_and_score(family, task, idx, theta_p, inner_config, n_eval, seed, branch,
                     theta0=None, stack=None):
    """Solve task ``idx`` at prior ``theta_p`` and estimate its objective.

    The solve runs with the task's own temperature from ``theta0`` (default
    the prior) on ``stack`` (default a fresh ledger, which the solve grows
    as :func:`run_supac_ce` does), and its streams follow the path
    (seed, branch, idx).  It returns (objective, posterior, ledger) and
    stores nothing on the task.  The objective is exact when the risk has
    closed forms.  Any failure is re-raised as one ValueError that names
    the task, chained to its cause.
    """
    if inner_config.lam != task.lam:
        inner_config = replace(inner_config, lam=task.lam)
    try:
        theta, _, stack = run_supac_ce(
            task.risk,
            family,
            theta_p,
            theta_p if theta0 is None else theta0,
            inner_config,
            child_int(seed, branch, idx, ROLE_TASK),
            stack=stack,
        )
        if isinstance(task.risk, QuadraticRisk):
            mean_risk = task.risk.expected_value(theta)
        else:
            points = family.sample(theta, n_eval, child_seed(seed, branch, idx, ROLE_EVAL))
            mean_risk = float(np.mean(eval_risk(task.risk, points)))
    except Exception as exc:
        raise ValueError(f"inner solve failed for task {idx}: {exc}") from exc
    return catoni_objective(mean_risk, family.kl(theta, theta_p), task.lam), theta, stack


def meta_objective(family, theta_p, tasks, inner_config, seed, n_eval=2000):
    """Sum of optimized task objectives at prior ``theta_p``.

    Each task is solved cold by the surrogate solver, from ``theta_p`` on a
    fresh ledger, so the tasks are left untouched and the objective can be
    probed at several priors (e.g. for finite differences).  Only
    :func:`run_meta_sgd` stores posteriors and ledgers on tasks.
    """
    total = 0.0
    for idx, task in enumerate(tasks):
        total += _solve_and_score(family, task, idx, theta_p, inner_config, n_eval, seed, 0)[0]
    return total


@dataclass
class MetaConfig:
    """Settings for stochastic meta descent on the prior.

    ``inner_first`` configures the initial calibration solve of each task;
    ``inner_warm`` (defaulting to the same) configures later re-solves, which
    typically need far fewer fresh queries.  ``meta_step_size`` is expressed
    in units of 1 / lam; ``meta_kl_max`` bounds the KL between successive
    priors.
    """

    epochs: int
    inner_first: CatoniConfig
    inner_warm: CatoniConfig = None
    batch_size: int = 10
    meta_step_size: float = 1.0
    meta_kl_max: float = 0.2
    n_eval: int = 2000

    def __post_init__(self):
        _require_integers(self, "epochs", "batch_size", "n_eval")
        _require_reals(self, "meta_step_size", "meta_kl_max")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.inner_warm is None:
            self.inner_warm = self.inner_first
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not self.meta_step_size > 0:
            raise ValueError("meta_step_size must be positive")
        if not self.meta_kl_max > 0:
            raise ValueError("meta_kl_max must be positive")
        if self.n_eval < 1:
            raise ValueError("n_eval must be at least 1")


@dataclass
class MetaRecord:
    epoch: int
    batch: int
    meta_obj: float
    kl_step: float
    theta_p: np.ndarray


class MetaTrace(RecordTable):
    """Per-batch history of the prior updates."""

    record = MetaRecord

    def priors_by_epoch(self):
        """Prior at the end of each epoch, in epoch order."""
        out = {}
        for r in self.records:
            out[r.epoch] = r.theta_p
        return [out[e] for e in sorted(out)]


def run_meta_sgd(family, tasks, theta_p0, config, seed):
    """Optimize the prior by batched meta gradient steps.

    Tasks are shuffled each epoch and processed in batches: every batch
    member is re-solved at the current prior (first visit uses
    ``config.inner_first`` from the prior itself, later visits warm-restart
    from the stored posterior with ``config.inner_warm``), then the prior
    moves against the batch-mean meta gradient, scaled by
    ``meta_step_size / mean(lam)`` and clipped to the KL trust region.

    This is the one writer of task state: after each solve it stores the
    task's posterior and its grown ledger on the task, so the next visit
    warm-restarts from them.  The recorded ``meta_obj`` is the batch
    estimate of the full task-sum objective.

    Returns
    -------
    (theta_p, MetaTrace)
    """
    theta_p = np.asarray(theta_p0, dtype=float).copy()
    if not family.in_domain(theta_p):
        raise DomainError("initial prior lies outside the family domain")
    if not tasks:
        raise ValueError("at least one task is required")
    trace = MetaTrace()
    for epoch in range(config.epochs):
        order = make_rng(seed, epoch, ROLE_SHUFFLE).permutation(len(tasks))
        for batch_idx in range(0, len(order), config.batch_size):
            batch = order[batch_idx : batch_idx + config.batch_size]
            objectives = []
            for ti in batch:
                task = tasks[int(ti)]
                inner = config.inner_first if task.posterior is None else config.inner_warm
                objective, task.posterior, task.stack = _solve_and_score(
                    family, task, int(ti), theta_p, inner, config.n_eval, seed, epoch,
                    task.posterior, task.stack,
                )
                objectives.append(objective)
            posteriors = [tasks[int(ti)].posterior for ti in batch]
            lams = [tasks[int(ti)].lam for ti in batch]
            grad = meta_gradient(family, theta_p, posteriors, lams) / len(batch)
            step_vec = -(config.meta_step_size / float(np.mean(lams))) * grad
            theta_p_new, _ = damped_update(
                family, theta_p, theta_p + step_vec, config.meta_kl_max, 1.0
            )
            trace.append(
                MetaRecord(
                    epoch=epoch,
                    batch=batch_idx // config.batch_size,
                    meta_obj=len(tasks) * float(np.mean(objectives)),
                    kl_step=family.kl(theta_p_new, theta_p),
                    theta_p=theta_p_new.copy(),
                )
            )
            theta_p = theta_p_new
    return theta_p, trace


def evaluate_prior(family, tasks, theta_p, inner_config, seed, n_eval=10_000):
    """Mean optimized objective of ``theta_p`` over held-out tasks.

    Every task gets a full independent solve from the prior (fresh ledger;
    the task objects are not modified), and its objective is estimated with
    ``n_eval`` fresh draws at the solved posterior.
    """
    scores = [
        _solve_and_score(family, task, idx, theta_p, inner_config, n_eval, seed, 1)[0]
        for idx, task in enumerate(tasks)
    ]
    return float(np.mean(scores))
