"""Prior optimization across a collection of tasks.

The meta objective is the sum over tasks of the optimized Catoni objective,
each task solved at the shared prior theta_p.  At the inner optima the
envelope theorem collapses the meta gradient to the closed form

    grad_p M = sum_i lam_i (grad g(theta_p) - grad g(theta_hat_i)),

so one mean-statistic evaluation per task posterior suffices.  Stochastic
meta descent shuffles tasks into batches, re-solves each batch member (warm
restarting from its previous posterior and ledger), and moves the prior under
a KL trust region.  The solves of one batch are independent given the
prior, so :func:`run_meta_sgd` may hand them to forked worker processes.
"""

from __future__ import annotations

import json
import os
import pickle
import traceback
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .families import DomainError
from .risk import QuadraticRisk, TanhSyntheticRisk, eval_risk, risk_from_dict, risk_to_dict
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


# Synthetic tasks need a predictor of at least this dimension.
_SYNTHETIC_MIN_DIM = 3


@dataclass
class TaskSpec:
    """One learning task: a risk, its temperature, and the state :func:`run_meta_sgd` stores."""

    risk: object
    lam: float
    stack: object = None
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
    if k < _SYNTHETIC_MIN_DIM:
        raise ValueError(f"synthetic tasks need predictor_dim >= {_SYNTHETIC_MIN_DIM}")
    if env is None:
        env = TaskEnvironment.sample(child_seed(seed, 0, ROLE_TASK), k)
    elif env.predictor_dim != k:
        raise ValueError("environment dimension does not match predictor_dim")
    rng = make_rng(seed, 1, ROLE_TASK)
    x0 = env.center + np.linalg.cholesky(env.cov) @ rng.standard_normal(k)
    omega = rng.uniform(1.5 * np.pi, 2.5 * np.pi)
    a_matrix = np.eye(k) + 0.05 * rng.standard_normal((k, k))
    risk = TanhSyntheticRisk(omega=omega, a_matrix=a_matrix, x0=x0)
    return TaskSpec(risk=risk, lam=float(lam))


def tasks_to_json(tasks):
    """Serialize task parameters (not ledgers) for exact replay."""
    return json.dumps(
        [{"lambda": float(t.lam), "risk": risk_to_dict(t.risk)} for t in tasks]
    )


def tasks_from_json(text, family=None):
    """Rebuild tasks from :func:`tasks_to_json` output, with no ledgers."""
    return [
        TaskSpec(risk=risk_from_dict(item["risk"], family=family), lam=float(item["lambda"]))
        for item in json.loads(text)
    ]


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

    The solves run in this process, as :func:`evaluate_prior`'s do: callers
    may wrap ``pacbayes.meta.run_supac_ce`` to collect every posterior (the
    benchmark's held-out capture does), and a forked worker would collect
    into its own copy.
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


def _visit(family, tasks, config, seed, epoch, theta_p, ti):
    """Solve task ``ti`` of a meta batch from what its last visit stored.

    A first visit solves from the prior with ``config.inner_first``; a later
    one warm-restarts from the stored posterior and ledger with
    ``config.inner_warm``.
    """
    task = tasks[ti]
    inner = config.inner_first if task.posterior is None else config.inner_warm
    return _solve_and_score(
        family, task, ti, theta_p, inner, config.n_eval, seed, epoch, task.posterior, task.stack
    )


# Environment variables that set how many threads a process's BLAS runs.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _batch_workers(n_tasks):
    """How many forked processes solve a batch of ``n_tasks``; 1 means this process.

    The CPUs this process may use, divided by the BLAS threads each process
    runs (the largest of the BLAS thread variables that are set; with none
    set, BLAS takes every CPU), and at most one process per task.  A process
    that runs threads besides its main one cannot fork safely, so it solves
    in process, as does a platform without ``fork``.
    """
    import multiprocessing
    import threading

    if n_tasks < 2 or threading.active_count() > 1:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    threads = [os.environ.get(var, "") for var in _BLAS_THREAD_VARS]
    blas_threads = max((int(t) for t in threads if t.isdigit() and int(t) > 0), default=cpus)
    return max(1, min(cpus // blas_threads, n_tasks))


def _portable(exc):
    """``exc`` if it survives pickling both ways, else a RuntimeError with its traceback."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError("".join(traceback.format_exception(exc)))
    return exc


_worker_solve = None  # the batch's solve, in a forked worker


def _start_worker(solve):
    """Pool initializer: keep the solve that the forked worker inherited."""
    global _worker_solve
    _worker_solve = solve


def _solve_in_worker(ti):
    """``(result, None, None)``, or ``(None, error, cause)`` when the solve fails.

    A failure is sent back as a value rather than raised, because the pool
    would replace the error's cause with the worker's traceback.  The error
    is the ValueError of :func:`_solve_and_score`, which always pickles.
    """
    try:
        return _worker_solve(ti), None, None
    except Exception as exc:
        return None, exc, _portable(exc.__cause__)


def _solve_batch(solve, batch):
    """``[solve(ti) for ti in batch]``, over forked workers where :func:`_batch_workers` allows.

    The workers are forked afresh for each batch with the ``fork`` start
    method, so each inherits ``solve``, with the tasks and the prior it
    reads, and nothing is pickled on the way in; only the results come back.
    A failure raises the error of the earliest failing task in batch order,
    chained to its cause as the in-process loop does.  A cause that cannot
    be pickled and rebuilt (say an exception class whose constructor takes
    two arguments) is chained as a RuntimeError holding its formatted
    traceback.  A worker that dies raises ``BrokenProcessPool``.  Every
    worker is joined before this returns or raises.
    """
    workers = _batch_workers(len(batch))
    if workers == 1:
        return [solve(ti) for ti in batch]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Named, not defaulted: Python 3.14 changes the default on Linux to forkserver.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_start_worker, initargs=(solve,)
    ) as pool:
        replies = list(pool.map(_solve_in_worker, batch))
    results = []
    for result, exc, cause in replies:
        if exc is not None:
            raise exc from cause
        results.append(result)
    return results


def run_meta_sgd(family, tasks, theta_p0, config, seed):
    """Optimize the prior by batched meta gradient steps.

    Tasks are shuffled each epoch and processed in batches: every batch
    member is re-solved at the current prior (first visit uses
    ``config.inner_first`` from the prior itself, later visits warm-restart
    from the stored posterior with ``config.inner_warm``), then the prior
    moves against the batch-mean meta gradient, scaled by
    ``meta_step_size / mean(lam)`` and clipped to the KL trust region.

    The solves of a batch run in worker processes: one per CPU this process
    may use, divided by the BLAS threads per process (read from
    ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``;
    with none set, BLAS takes every CPU and the batch is solved here), and
    at most one per task.  A process that runs other threads, or a platform
    without ``fork``, solves in process.  The test suite and the benchmark
    run BLAS at one thread, and so should a caller: on a 2-core machine
    with OpenBLAS, 4 epochs over 10 tasks at k = 8 took 1.7-2.0 s at one
    thread and 8.6-10.5 s with no thread variable set, about 5x.  The
    workers are forked afresh for each batch, with the ``fork`` start method
    named explicitly (Python 3.14 changes the Linux default), so tasks are
    never pickled and a risk holding a lambda or a closure works.  A risk's
    side effects, such as a call counter, then happen in the workers and
    are lost with them.  Each solve's streams follow (seed, epoch, task
    index), whichever process runs it.

    This is the one writer of task state: after each batch it stores every
    task's posterior and grown ledger on the task, in batch order, so the
    next visit warm-restarts from them.  The recorded ``meta_obj`` is the
    batch estimate of the full task-sum objective, summed in batch order, so
    every result is the same bytes for any worker count.

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
            batch = [int(ti) for ti in order[batch_idx : batch_idx + config.batch_size]]
            solve = partial(_visit, family, tasks, config, seed, epoch, theta_p)
            objectives = []
            for ti, (objective, posterior, stack) in zip(batch, _solve_batch(solve, batch)):
                tasks[ti].posterior, tasks[ti].stack = posterior, stack
                objectives.append(objective)
            posteriors = [tasks[ti].posterior for ti in batch]
            lams = [tasks[ti].lam for ti in batch]
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
    ``n_eval`` fresh draws at the solved posterior.  The solves run in this
    process (see :func:`meta_objective`).  At least one task is required.
    """
    if not tasks:
        raise ValueError("at least one task is required")
    scores = [
        _solve_and_score(family, task, idx, theta_p, inner_config, n_eval, seed, 1)[0]
        for idx, task in enumerate(tasks)
    ]
    return float(np.mean(scores))
