"""Correctness checks on a workload's outputs.

Each ``check_*`` function compares one kind of program output with the
benchmark's own computation (``oracle``) or with a property the method must
have, and returns a list of failure messages (empty when the output passes).
The ``verify_*`` functions gather a workload's outputs, call the checks, and
also return the end-to-end ``bound`` metric, which is estimated with the
oracle's sampler, risk and KL from a stream the program never sees.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle
import workloads as wl

# Draws per fresh-sample bound estimate and per Voronoi cell-mass estimate.
N_BOUND = 20_000
N_CELLS = 40_000
# Tolerances for quantities both sides compute exactly, up to roundoff.
KL_RTOL = 1e-7
WEIGHT_RTOL = 1e-6
ETA_RTOL = 1e-6
TRUST_SLACK = 1e-9
# Largest |z| accepted between two Monte Carlo cell-mass estimates, and the
# smallest number of draws per compared group of cells.
CELL_Z_MAX = 6.5
CELL_MIN_COUNT = 50.0


# -- single checks ----------------------------------------------------------


def check_budget(label, steps, trace_queries, schedule, total=None):
    """Ledger rows per step match ``schedule`` and the ledger holds ``total`` rows.

    ``total`` defaults to the schedule's sum; the trace ``queries`` column,
    when given, must be the schedule's running sum.
    """
    fails = []
    steps = np.asarray(steps)
    expected = np.asarray(schedule, dtype=int)
    total = int(expected.sum()) if total is None else int(total)
    got = np.asarray([np.sum(steps == s) for s in range(len(expected))])
    if not np.array_equal(got, expected):
        fails.append(f"{label}: ledger rows per step {got.tolist()} != schedule {expected.tolist()}")
    if steps.size != total:
        fails.append(f"{label}: ledger holds {steps.size} rows, budget gives {total}")
    if trace_queries is not None:
        want = np.cumsum(expected)
        got_q = np.asarray(trace_queries, dtype=int)
        if not np.array_equal(got_q, want):
            fails.append(f"{label}: trace queries {got_q.tolist()} != cumulative schedule")
    return fails


def check_trace_kl(label, thetas, kl_to_prior, theta_prior, theta_start, kl_max, k):
    """Each row's KL to the prior is right and each step stays in the trust region."""
    fails = []
    prev = np.asarray(theta_start, dtype=float)
    for row, (theta, kl_rec) in enumerate(zip(thetas, kl_to_prior)):
        kl_own = oracle.gaussian_kl(theta, theta_prior, k)
        if abs(kl_rec - kl_own) > KL_RTOL * max(1.0, abs(kl_own)):
            fails.append(f"{label}: row {row} kl_to_prior {kl_rec!r}, own KL {kl_own!r}")
        step_kl = oracle.gaussian_kl(theta, prev, k)
        if step_kl > kl_max * (1.0 + TRUST_SLACK) + TRUST_SLACK:
            fails.append(f"{label}: row {row} step KL {step_kl:.6g} exceeds kl_max {kl_max}")
        prev = np.asarray(theta, dtype=float)
    return fails


def check_cell_masses(label, w_prog, n_prog, w_own, n_own, values):
    """Two Monte Carlo estimates of the same Voronoi cell masses agree.

    Given a cell's total count over both estimates, the program's share of it
    is binomial.  Cells are grouped in order of their total count until each
    group holds at least CELL_MIN_COUNT draws; grouping on the totals keeps
    the split unbiased.  Every group's split, and the difference of the two
    weighted mean risks, must lie within CELL_Z_MAX standard errors.
    """
    w_prog = np.asarray(w_prog, dtype=float)
    w_own = np.asarray(w_own, dtype=float)
    values = np.asarray(values, dtype=float)
    if w_prog.shape != w_own.shape:
        return [f"{label}: {w_prog.size} weights for {w_own.size} ledger points"]
    fails = []
    if np.any(w_prog < 0) or abs(w_prog.sum() - 1.0) > 1e-9:
        fails.append(f"{label}: weights are negative or sum to {w_prog.sum()!r}")
    c1, c2 = w_prog * n_prog, w_own * n_own
    total = c1 + c2
    order = np.argsort(-total, kind="stable")
    group = np.zeros(total.size, dtype=int)
    group[order] = np.floor(np.cumsum(total[order]) / CELL_MIN_COUNT).astype(int)
    g1, gt = np.bincount(group, weights=c1), np.bincount(group, weights=total)
    share = n_prog / (n_prog + n_own)
    live = gt > 0
    z = np.abs(g1 - share * gt)[live] / np.sqrt(gt[live] * share * (1.0 - share))
    if z.size and z.max() > CELL_Z_MAX:
        worst = int(np.flatnonzero(live)[z.argmax()])
        fails.append(
            f"{label}: cell group {worst} holds {g1[worst]:.0f} of {gt[worst]:.0f} draws "
            f"against {share * gt[worst]:.1f} expected (|z| = {z.max():.1f})"
        )
    m1, m2 = float(w_prog @ values), float(w_own @ values)
    se = math.sqrt(
        max(w_prog @ values**2 - m1**2, 0.0) / n_prog + max(w_own @ values**2 - m2**2, 0.0) / n_own
    )
    if abs(m1 - m2) > CELL_Z_MAX * se + 1e-12:
        fails.append(f"{label}: weighted mean risk {m1:.6f} vs own {m2:.6f} (se {se:.2g})")
    return fails


def check_close(label, got, want, rtol):
    """Arrays equal up to ``rtol`` of the reference's largest magnitude."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-300)
    if not err <= rtol * scale:
        return [f"{label}: max deviation {err:.3g} exceeds {rtol:g} x {scale:.3g}"]
    return []


def check_meta_trace(label, priors, kl_steps, theta_p0, meta_kl_max, k):
    """Each recorded ``kl_step`` is right and successive priors stay within ``meta_kl_max``."""
    fails = []
    prev = np.asarray(theta_p0, dtype=float)
    for row, (theta, kl_rec) in enumerate(zip(priors, kl_steps)):
        kl_own = oracle.gaussian_kl(theta, prev, k)
        if abs(kl_rec - kl_own) > KL_RTOL * max(1.0, abs(kl_own)):
            fails.append(f"{label}: batch {row} kl_step {kl_rec!r}, own KL {kl_own!r}")
        if kl_own > meta_kl_max * (1.0 + TRUST_SLACK) + TRUST_SLACK:
            fails.append(f"{label}: batch {row} prior step KL {kl_own:.6g} > {meta_kl_max}")
        prev = np.asarray(theta, dtype=float)
    return fails


def check_below(label, value, reference, what):
    if not value < reference:
        return [f"{label}: bound {value:.6f} is not below {what} {reference:.6f}"]
    return []


# -- gathering outputs ------------------------------------------------------


def _stack(points, values, steps):
    from pacbayes import EvalStack

    stack = EvalStack(points.shape[1])
    for step in np.unique(steps):
        mask = steps == step
        stack.record(points[mask], values[mask], int(step))
    return stack


def _family():
    from pacbayes import GaussianFamily

    return GaussianFamily(wl.K, structure="full")


def _ledger_values_check(label, points, values, task):
    """Stored risk values are the task's risk at the stored points."""
    own = oracle.tanh_risk(points, task["omega"], task["a_matrix"], task["x0"])
    return check_close(f"{label} ledger risks", values, own, 1e-12)


def _cells(label, points, values, steps, theta, rng):
    from pacbayes import voronoi_weights

    stack = _stack(points, values, steps)
    w_prog = voronoi_weights(stack, _family(), theta, n_mc=N_CELLS, seed=wl.seed_int(rng))
    w_own = oracle.nearest_cell_masses(points, theta, wl.K, rng, N_CELLS)
    return check_cell_masses(f"{label} voronoi weights", w_prog, N_CELLS, w_own, N_CELLS, values), w_prog


def _projection(label, points, values, steps, weights, theta):
    from pacbayes import project

    fit = project(_stack(points, values, steps), weights, _family(), theta)
    eta_own, _ = oracle.weighted_least_squares(points, values, weights)
    return check_close(f"{label} projection eta", fit.eta, eta_own, ETA_RTOL)


def read_experiment(outdir):
    """Trace, ledger and posterior files that ``run_experiment`` wrote."""
    outdir = Path(outdir)
    with open(outdir / "trace_000.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(outdir / "stack_000.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        ledger = np.asarray([[float(c) for c in row] for row in reader])
    return {
        "trace_queries": np.asarray([int(r["queries"]) for r in rows]),
        "trace_kl": np.asarray([float(r["kl_to_prior"]) for r in rows]),
        "trace_thetas": np.asarray([json.loads(r["theta_json"]) for r in rows]),
        "steps": ledger[:, 0].astype(int),
        "points": ledger[:, 1:-1],
        "values": ledger[:, -1],
        "theta": np.asarray(json.loads((outdir / "posterior_000.json").read_text())),
    }


def _solve_checks(label, out, task, settings, z, theta_p):
    """Checks shared by the solve workloads; returns (bound, failures)."""
    k = wl.K
    schedule = [settings["n_initial_queries"]] + [settings["n_queries_per_step"]] * (
        settings["max_steps"] - 1
    )
    fails = check_budget(label, out["steps"], out["trace_queries"], schedule)
    fails += _ledger_values_check(label, out["points"], out["values"], task)
    fails += check_trace_kl(
        label, out["trace_thetas"], out["trace_kl"], theta_p, theta_p, settings["kl_max"], k
    )
    if len(out["trace_thetas"]) and not np.array_equal(out["trace_thetas"][-1], out["theta"]):
        fails.append(f"{label}: final posterior differs from the last trace row")
    bound = oracle.catoni_bound(out["theta"], theta_p, task, z, k)
    prior_bound = oracle.catoni_bound(theta_p, theta_p, task, z, k)
    fails += check_below(label, bound, prior_bound, "the prior's bound")
    return bound, fails


# -- workloads --------------------------------------------------------------


def verify_voronoi(inputs, outdir, rng):
    from pacbayes import CatoniConfig, GDConfig, TanhSyntheticRisk, run_gd

    k = wl.K
    task = inputs["tasks"][0]
    settings = inputs["config"]["supac_ce"]
    theta_p = oracle.standard_normal_theta(k)
    z = rng.standard_normal((N_BOUND, k))
    out = read_experiment(outdir)
    label = "solve_voronoi_k8"
    bound, fails = _solve_checks(label, out, task, settings, z, theta_p)
    cell_fails, weights = _cells(label, out["points"], out["values"], out["steps"], out["theta"], rng)
    fails += cell_fails
    fails += _projection(label, out["points"], out["values"], out["steps"], weights, out["theta"])
    # Criterion 6's descent-baseline grid on the same task and a 2000-query budget.
    risk = TanhSyntheticRisk(task["omega"], task["a_matrix"], task["x0"])
    fam = _family()
    best = math.inf
    for momentum in (0.0, 0.5):
        for per_step in (80, 160):
            for step_size in (0.025, 0.05):
                cfg = GDConfig(step_size=step_size, momentum=momentum, per_step=per_step,
                               max_queries=2000, diag_samples=10)
                theta, _ = run_gd(risk, fam, theta_p, theta_p, cfg,
                                  CatoniConfig(lam=task["lambda"]), seed=wl.seed_int(rng))
                best = min(best, oracle.catoni_bound(theta, theta_p, task, z, k))
    fails += check_below(label, bound, best, "the best descent baseline's bound")
    return bound, fails


def verify_importance(inputs, data, rng):
    from pacbayes import importance_weights

    k = wl.K
    theta_p = oracle.standard_normal_theta(k)
    z = rng.standard_normal((N_BOUND, k))
    settings = inputs["settings"]
    bounds, fails = [], []
    for i, task in enumerate(inputs["tasks"]):
        label = f"solve_importance_k8 task {i}"
        out = {key: data[f"task{i}_{key}"] for key in
               ("steps", "points", "values", "trace_queries", "trace_kl", "trace_thetas", "theta")}
        bound, task_fails = _solve_checks(label, out, task, settings, z, theta_p)
        bounds.append(bound)
        fails += task_fails
        # The batch drawn at step s came from the iterate before step s.
        generation = {0: theta_p}
        generation.update({s + 1: th for s, th in enumerate(out["trace_thetas"][:-1])})
        stack = _stack(out["points"], out["values"], out["steps"])
        w_prog = importance_weights(stack, _family(), out["theta"], generation)
        w_own = oracle.importance_ratios(out["points"], out["steps"], out["theta"], generation, k)
        fails += check_close(f"{label} importance weights", w_prog, w_own, WEIGHT_RTOL)
        fails += _projection(label, out["points"], out["values"], out["steps"], w_prog, out["theta"])
    return float(np.mean(bounds)), fails


def verify_meta(inputs, data, rng):
    k = wl.K
    meta = inputs["meta"]
    theta_p0 = oracle.standard_normal_theta(k)
    prior = data["prior"]
    z = rng.standard_normal((N_BOUND, k))
    n_train = meta["n_train"]
    train, heldout = inputs["tasks"][:n_train], inputs["tasks"][n_train:]
    fails = []
    # Every epoch visits every task once; visits after the first are warm.
    first_schedule = inputs["first"]["query_schedule"]
    total = sum(first_schedule) + sum(inputs["warm"]["query_schedule"]) * (meta["epochs"] - 1)
    for i, task in enumerate(train):
        label = f"meta_k8 task {i}"
        steps, points, values = (data[f"task{i}_{key}"] for key in ("steps", "points", "values"))
        fails += check_budget(label, steps, None, first_schedule, total)
        fails += _ledger_values_check(label, points, values, task)
    priors = data["meta_priors"]
    fails += check_meta_trace(
        "meta_k8", priors, data["meta_kl_step"], theta_p0, meta["meta_kl_max"], k
    )
    if not np.array_equal(priors[-1], prior):
        fails.append("meta_k8: learned prior differs from the last meta trace row")
    cell_fails, _ = _cells(
        "meta_k8 task 0", data["task0_points"], data["task0_values"], data["task0_steps"],
        data["task0_posterior"], rng,
    )
    fails += cell_fails
    bound = float(np.mean([oracle.catoni_bound(th, prior, t, z, k)
                           for th, t in zip(data["heldout_posteriors"], heldout)]))
    # The learned prior itself, before any solve, must bound the held-out tasks
    # better than the initial prior: meta-learning moved it toward the tasks.
    at_learned = np.mean([oracle.catoni_bound(prior, prior, t, z, k) for t in heldout])
    at_initial = np.mean([oracle.catoni_bound(theta_p0, theta_p0, t, z, k) for t in heldout])
    fails += check_below("meta_k8 held-out, learned prior", float(at_learned), float(at_initial),
                         "the initial prior's")
    return bound, fails
