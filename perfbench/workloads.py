"""Workload inputs and settings, generated from the benchmark seed.

Task parameters follow the recipe documented in
``pacbayes.meta.sample_synthetic_task`` but are drawn here, from a numpy
Generator seeded by ``(seed, workload code)``; the program only receives the
finished numbers, as explicit ``tanh_synthetic`` risks or task JSON.

This module imports nothing from ``pacbayes``.
"""

from __future__ import annotations

import zlib

import numpy as np

K = 8
SOLVE_LAMBDA = 0.01
META_LAMBDA = 0.1

# Criterion 6's solver settings: 160 + 57 * 32 = 1984 queries over 58 steps.
SOLVE_SETTINGS = {
    "lambda": SOLVE_LAMBDA,
    "kl_max": 1.0,
    "alpha_max": 0.5,
    "n_initial_queries": 160,
    "n_queries_per_step": 32,
    "n_mc_weights": 10_000,
    "max_steps": 58,
    "convergence_kl_tol": 0.0,
    "record_trace": True,
}

# Criterion 8's inner settings; the warm schedule has zero-draw steps.
META_FIRST = {
    "lambda": META_LAMBDA,
    "kl_max": 1.0,
    "alpha_max": 0.5,
    "query_schedule": (100, 100, 100, 100, 50, 50, 50, 50, 50, 50, 50, 50),
    "n_mc_weights": 10_000,
    "max_steps": 12,
    "convergence_kl_tol": 0.0,
    "record_trace": False,
}
META_WARM = dict(META_FIRST, query_schedule=(20, 0, 20, 0), max_steps=4)
# Three epochs over 20 tasks: 20 first solves and 40 warm re-solves.
META = {
    "epochs": 3,
    "n_train": 20,
    "n_heldout": 4,
    "batch_size": 10,
    "meta_step_size": 1.5,
    "meta_kl_max": 0.2,
    "n_eval": 2000,
    "heldout_n_eval": 10_000,
}
N_IMPORTANCE_TASKS = 10

# A solve task is redrawn until at least this share of the standard normal
# prior's mass has risk below 0.9 (estimated with SIGNAL_DRAWS draws).  Below
# it the 160 initial queries often hold no point off the risk plateau, the
# solver never leaves the prior, and the bound reads the prior's (about 1.53
# against about 0.81), so a single solve's bound would be bimodal across seeds.
SIGNAL_LEVEL = 0.9
SIGNAL_SHARE = 5e-3
SIGNAL_DRAWS = 20_000

WORKLOADS = ("solve_voronoi_k8", "solve_importance_k8", "meta_k8")

# The speed probes (``speed.py``) whose slowdown ``run_s`` is scaled by.  The
# Voronoi search, about 95% of the Voronoi solve and of meta, streams 64 MB
# distance blocks through products, argmins and fresh pages: both probes.
# The importance solves touch no large array and spend their time in small
# k = 8 factorisations and the interpreter: the compute probe alone.
PROBES = {
    "solve_voronoi_k8": ("compute", "memory"),
    "solve_importance_k8": ("compute",),
    "meta_k8": ("compute", "memory"),
}


def workload_rng(workload, seed, stream):
    """Generator for one named stream of one workload and seed."""
    words = [int(seed), zlib.crc32(workload.encode()), zlib.crc32(stream.encode())]
    return np.random.default_rng(np.random.SeedSequence(words))


def sample_environment(rng, k=K):
    """Task environment: center on the radius-2 sphere, two wide eigenvalues."""
    z = rng.standard_normal(k)
    center = 2.0 * z / np.linalg.norm(z)
    eigs = np.full(k, 0.05**2)
    eigs[-2:] = np.exp(rng.uniform(-0.5, 0.5, size=2)) ** 2
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    cov = (q * eigs) @ q.T
    return {"center": center, "cov": 0.5 * (cov + cov.T)}


def sample_task(rng, env, lam, k=K):
    """One tanh task: x0 ~ N(center, cov), omega ~ U(1.5 pi, 2.5 pi), A ~ N(I, 0.05^2)."""
    x0 = env["center"] + np.linalg.cholesky(env["cov"]) @ rng.standard_normal(k)
    omega = float(rng.uniform(1.5 * np.pi, 2.5 * np.pi))
    a_matrix = np.eye(k) + 0.05 * rng.standard_normal((k, k))
    return {"lambda": float(lam), "omega": omega, "a_matrix": a_matrix, "x0": x0}


def prior_signal(task, rng, k=K):
    """Share of standard normal draws whose risk lies below SIGNAL_LEVEL."""
    x = rng.standard_normal((SIGNAL_DRAWS, k))
    d = (x - task["x0"]) @ task["a_matrix"].T
    u = task["omega"] * np.sum(d * d, axis=1)
    return float(np.mean(np.tanh((np.cos(u) + u) / 10.0) < SIGNAL_LEVEL))


def sample_solve_task(rng, k=K):
    """A criterion-6 task (own environment), redrawn until the prior sees signal."""
    while True:
        task = sample_task(rng, sample_environment(rng, k), SOLVE_LAMBDA, k)
        if prior_signal(task, rng, k) >= SIGNAL_SHARE:
            return task


def seed_int(rng):
    return int(rng.integers(0, 2**31 - 1))


def risk_config(task):
    """The task as an explicit ``tanh_synthetic`` risk block."""
    return {
        "kind": "tanh_synthetic",
        "omega": task["omega"],
        "a_matrix": task["a_matrix"].tolist(),
        "x0": task["x0"].tolist(),
    }


def make_inputs(workload, seed):
    """All inputs of one workload run, as plain numbers and JSON-ready dicts."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = workload_rng(workload, seed, "inputs")
    if workload == "solve_voronoi_k8":
        task = sample_solve_task(rng)
        config = {
            "method": "supac_ce",
            "family": {"structure": "full", "predictor_dim": K},
            "risk": risk_config(task),
            "prior": "standard",
            "supac_ce": dict(SOLVE_SETTINGS),
            "repeats": 1,
            "master_seed": seed_int(rng),
        }
        return {"tasks": [task], "config": config}
    if workload == "solve_importance_k8":
        tasks = [sample_solve_task(rng) for _ in range(N_IMPORTANCE_TASKS)]
        settings = dict(SOLVE_SETTINGS, weighting="importance")
        return {"tasks": tasks, "settings": settings, "seeds": [seed_int(rng) for _ in tasks]}
    env = sample_environment(rng)
    n = META["n_train"] + META["n_heldout"]
    tasks = [sample_task(rng, env, META_LAMBDA) for _ in range(n)]
    return {
        "tasks": tasks,
        "first": dict(META_FIRST),
        "warm": dict(META_WARM),
        "meta": dict(META),
        "meta_seed": seed_int(rng),
        "heldout_seed": seed_int(rng),
    }


def tasks_json_items(tasks):
    """Task list in the layout ``pacbayes.meta.tasks_from_json`` reads."""
    return [{"lambda": t["lambda"], "risk": risk_config(t)} for t in tasks]
