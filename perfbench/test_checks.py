"""The benchmark's own tests: each correctness check passes on honest output
and fails on a deliberately corrupted copy of it.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from pacbayes import (  # noqa: E402
    CatoniConfig,
    GaussianFamily,
    TanhSyntheticRisk,
    importance_weights,
    project,
    run_supac_ce,
    voronoi_weights,
)

K = wl.K
SCHEDULE = [120] + [24] * 5


@pytest.fixture(scope="module")
def solve():
    """A small importance-weighted solve on a workload-style task."""
    rng = wl.workload_rng("tests", 0, "inputs")
    task = wl.sample_solve_task(rng)
    fam = GaussianFamily(K, structure="full")
    prior = oracle.standard_normal_theta(K)
    cfg = CatoniConfig(lam=task["lambda"], n_initial_queries=SCHEDULE[0], n_queries_per_step=SCHEDULE[1],
                       max_steps=len(SCHEDULE), convergence_kl_tol=0.0, weighting="importance")
    risk = TanhSyntheticRisk(task["omega"], task["a_matrix"], task["x0"])
    theta, trace, stack = run_supac_ce(risk, fam, prior, prior, cfg, seed=11)
    generation = {0: prior}
    generation.update({s + 1: th for s, th in enumerate(trace.thetas[:-1])})
    return {
        "task": task, "fam": fam, "prior": prior, "theta": theta, "stack": stack,
        "thetas": np.asarray(trace.thetas), "kl": trace.column("kl_to_prior"),
        "queries": trace.query_grid, "generation": generation, "kl_max": cfg.kl_max,
    }


def test_oracle_agrees_with_the_program(solve):
    fam, theta, prior = solve["fam"], solve["theta"], solve["prior"]
    x = solve["stack"].points[:50]
    assert np.allclose(oracle.suff_stat(x), fam.suff_stat(x), rtol=0, atol=1e-12)
    assert oracle.gaussian_kl(theta, prior, K) == pytest.approx(fam.kl(theta, prior), rel=1e-9)
    assert np.allclose(oracle.log_density(theta, x, K), fam.log_density(theta, x), rtol=1e-10)
    mean, cov = oracle.moments(theta, K)
    assert np.allclose(mean, fam.moments_from_natural(theta).mean)
    task = solve["task"]
    risk = TanhSyntheticRisk(task["omega"], task["a_matrix"], task["x0"])
    assert np.allclose(oracle.tanh_risk(x, task["omega"], task["a_matrix"], task["x0"]), risk(x))
    z = np.random.default_rng(0).standard_normal((20_000, K))
    draws = oracle.sample(theta, z, K)
    assert np.allclose(draws.mean(axis=0), mean, atol=5 * np.sqrt(np.diag(cov).max() / z.shape[0]))


def test_budget_detects_a_dropped_ledger_row(solve):
    steps = solve["stack"].steps
    assert checks.check_budget("ok", steps, solve["queries"], SCHEDULE) == []
    assert checks.check_budget("dropped", np.delete(steps, 7), solve["queries"], SCHEDULE)
    queries = solve["queries"].copy()
    queries[-1] += 1
    assert checks.check_budget("queries", steps, queries, SCHEDULE)
    assert checks.check_budget("total", steps, None, SCHEDULE, total=sum(SCHEDULE) + 40)


def test_ledger_values_detect_a_changed_risk(solve):
    stack, task = solve["stack"], solve["task"]
    assert checks._ledger_values_check("ok", stack.points, stack.values, task) == []
    values = stack.values.copy()
    values[3] += 1e-6
    assert checks._ledger_values_check("changed", stack.points, values, task)


def test_trace_kl_detects_a_perturbed_row_and_a_long_step(solve):
    args = (solve["prior"], solve["prior"], solve["kl_max"], K)
    assert checks.check_trace_kl("ok", solve["thetas"], solve["kl"], *args) == []
    kl = solve["kl"].copy()
    kl[2] *= 1.0 + 1e-4
    assert checks.check_trace_kl("kl", solve["thetas"], kl, *args)
    thetas = solve["thetas"].copy()
    far = oracle.natural_from_moments(np.full(K, 3.0), np.eye(K))
    thetas[3] = far
    kl = solve["kl"].copy()
    kl[3] = oracle.gaussian_kl(far, solve["prior"], K)
    assert any("exceeds kl_max" in m for m in checks.check_trace_kl("step", thetas, kl, *args))


def test_cell_masses_detect_mass_moved_between_cells(solve):
    stack, theta, fam = solve["stack"], solve["theta"], solve["fam"]
    n = 20_000
    w_prog = voronoi_weights(stack, fam, theta, n_mc=n, seed=5)
    w_own = oracle.nearest_cell_masses(stack.points, theta, K, np.random.default_rng(6), n)
    assert checks.check_cell_masses("ok", w_prog, n, w_own, n, stack.values) == []
    moved = w_prog.copy()
    heavy, light = np.argmax(moved), np.argmin(moved)
    moved[light] += moved[heavy] / 2
    moved[heavy] /= 2
    assert checks.check_cell_masses("moved", moved, n, w_own, n, stack.values)
    assert checks.check_cell_masses("short", w_prog[:-1], n, w_own, n, stack.values)


def test_importance_weights_detect_a_reweighted_point(solve):
    stack, theta = solve["stack"], solve["theta"]
    w_prog = importance_weights(stack, solve["fam"], theta, solve["generation"])
    w_own = oracle.importance_ratios(stack.points, stack.steps, theta, solve["generation"], K)
    assert checks.check_close("ok", w_prog, w_own, checks.WEIGHT_RTOL) == []
    bad = w_prog.copy()
    i = int(np.argmax(bad))
    bad[i] *= 1.001
    assert checks.check_close("bad", bad / bad.sum(), w_own, checks.WEIGHT_RTOL)


def test_projection_detects_a_perturbed_coefficient(solve):
    stack, theta = solve["stack"], solve["theta"]
    w = importance_weights(stack, solve["fam"], theta, solve["generation"])
    fit = project(stack, w, solve["fam"], theta)
    eta_own, _ = oracle.weighted_least_squares(stack.points, stack.values, w)
    assert checks.check_close("ok", fit.eta, eta_own, checks.ETA_RTOL) == []
    eta = fit.eta.copy()
    eta[K + 2] += 1e-4 * np.abs(eta_own).max()
    assert checks.check_close("eta", eta, eta_own, checks.ETA_RTOL)


def test_meta_trace_detects_long_steps_and_wrong_kl():
    prior0 = oracle.standard_normal_theta(K)
    priors = [oracle.natural_from_moments(np.full(K, 0.1 * (i + 1)), np.eye(K)) for i in range(4)]
    prev = [prior0] + priors[:-1]
    kl = np.asarray([oracle.gaussian_kl(p, q, K) for p, q in zip(priors, prev)])
    assert checks.check_meta_trace("ok", priors, kl, prior0, 0.2, K) == []
    bad_kl = kl.copy()
    bad_kl[1] *= 1.01
    assert checks.check_meta_trace("kl", priors, bad_kl, prior0, 0.2, K)
    assert checks.check_meta_trace("long", priors, kl, prior0, 0.01, K)


def test_bound_checks_detect_no_improvement(solve):
    z = np.random.default_rng(1).standard_normal((5_000, K))
    at_theta = oracle.catoni_bound(solve["theta"], solve["prior"], solve["task"], z, K)
    at_prior = oracle.catoni_bound(solve["prior"], solve["prior"], solve["task"], z, K)
    assert checks.check_below("ok", at_theta, at_prior, "the prior's bound") == []
    assert checks.check_below("worse", at_prior, at_theta, "the solve's bound")


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meta_k8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "no pacbayes package" in proc.stderr


def test_workload_inputs_depend_only_on_the_seed():
    a = json.dumps(wl.make_inputs("solve_voronoi_k8", 3)["config"])
    b = json.dumps(wl.make_inputs("solve_voronoi_k8", 3)["config"])
    c = json.dumps(wl.make_inputs("solve_voronoi_k8", 4)["config"])
    assert a == b != c


def test_speed_probe_runs_during_a_round_and_scales_it():
    import time

    import speed

    sampler = speed.Sampler(interval=0.05)
    sampler.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 0.5:
        sum(range(1000))
    probes = sampler.stop()
    assert set(probes) == set(speed.NOMINAL_S) == {kind for kinds in wl.PROBES.values() for kind in kinds}
    assert len(probes["compute"]) == len(probes["memory"]) >= 3
    assert all(t > 0 for times in probes.values() for t in times)
    # The same net time at twice the nominal probe time scales to half of it.
    slow = {"compute": [speed.NOMINAL_S["compute"]] * 4, "memory": [2 * speed.NOMINAL_S["memory"]] * 4}
    assert speed.scaled_round_s([4.0, 3.0, 5.0], slow, ("memory",)) == pytest.approx(2.0)
    assert speed.scaled_round_s([4.0, 3.0, 5.0], slow, ("compute",)) == pytest.approx(4.0)
    nominal = speed.NOMINAL_S["compute"] + speed.NOMINAL_S["memory"]
    both = 4.0 * nominal / (nominal + speed.NOMINAL_S["memory"])
    assert speed.scaled_round_s([4.0, 3.0, 5.0], slow, ("compute", "memory")) == pytest.approx(both)
    with pytest.raises(ValueError):
        speed.scaled_round_s([4.0], {"compute": [], "memory": []}, ("compute",))
