"""Score-function gradient estimates and the descent baselines."""

import numpy as np
import pytest

from pacbayes import (
    CatoniConfig,
    CustomRisk,
    GaussianFamily,
    GDConfig,
    QuadraticRisk,
    run_gd,
    standard_normal_params,
)
from pacbayes.baselines import catoni_gradient_estimate

from _oracles import batch_mean_se


def test_gd_config_validation():
    with pytest.raises(ValueError):
        GDConfig(step_size=0.0)
    with pytest.raises(ValueError):
        GDConfig(step_size=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        GDConfig(step_size=0.1, per_step=0)
    with pytest.raises(ValueError):
        GDConfig(step_size=0.1, per_step=100, max_queries=50)
    with pytest.raises(ValueError, match="per_step"):
        GDConfig(step_size=0.1, per_step=32.0)
    # float fields reject booleans (True would run at step size 1.0)
    with pytest.raises(ValueError, match="step_size"):
        GDConfig(step_size=True)
    with pytest.raises(ValueError, match="momentum"):
        GDConfig(step_size=0.1, momentum=False)


def test_gradient_estimate_zero_mean_for_constant_risk():
    # constant risk at theta = theta_p: the score has zero expectation
    fam = GaussianFamily(1)
    theta = standard_normal_params(fam)
    n = 100_000
    points = fam.sample(theta, n, seed=1)
    values = np.full(n, 0.7)
    per_sample = fam.suff_stat(points) - fam.mean_suff_stat(theta)
    estimate = catoni_gradient_estimate(fam, theta, theta, points, values, lam=0.5)
    for j in range(fam.dim):
        mean, se = batch_mean_se(0.7 * per_sample[:, j])
        assert abs(mean - 0.0) < 4.0 * se
        assert estimate[j] == pytest.approx(mean, abs=1e-12)


def test_gradient_estimate_matches_closed_form_for_in_span_risk():
    # expectation is I(theta) (eta + lam (theta - theta_p))
    fam = GaussianFamily(2, structure="diag")
    rng = np.random.default_rng(3)
    theta_p = standard_normal_params(fam)
    theta = fam.natural_from_moments(np.array([0.5, -0.2]), np.diag([0.8, 1.3]))
    eta = 0.4 * rng.standard_normal(fam.dim)
    risk = QuadraticRisk(fam, eta=eta, offset=0.1)
    lam = 0.3
    expect = fam.fisher_info(theta) @ (eta + lam * (theta - theta_p))
    n = 200_000
    points = fam.sample(theta, n, seed=5)
    values = risk(points)
    estimate = catoni_gradient_estimate(fam, theta, theta_p, points, values, lam)
    per_sample = (fam.suff_stat(points) - fam.mean_suff_stat(theta)) * values[:, None]
    kl_term = lam * (fam.fisher_info(theta) @ (theta - theta_p))
    for j in range(fam.dim):
        mean, se = batch_mean_se(per_sample[:, j])
        assert abs(estimate[j] - (mean + kl_term[j])) < 1e-12
        assert abs(expect[j] - estimate[j]) < 4.0 * se + 1e-12


def test_gradient_estimate_vanishes_at_gibbs_posterior():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    eta = np.array([0.3, 0.15])
    risk = QuadraticRisk(fam, eta=eta)
    lam = 1.0
    theta_hat = risk.gibbs_posterior(theta_p, lam)
    n = 200_000
    points = fam.sample(theta_hat, n, seed=7)
    estimate = catoni_gradient_estimate(
        fam, theta_hat, theta_p, points, risk(points), lam
    )
    per_sample = (fam.suff_stat(points) - fam.mean_suff_stat(theta_hat)) * risk(points)[:, None]
    for j in range(fam.dim):
        _, se = batch_mean_se(per_sample[:, j])
        assert abs(estimate[j]) < 4.0 * se


def test_gradient_estimate_input_validation():
    fam = GaussianFamily(1)
    theta = standard_normal_params(fam)
    with pytest.raises(ValueError):
        catoni_gradient_estimate(fam, theta, theta, np.empty((0, 1)), np.empty(0), 1.0)
    with pytest.raises(ValueError):
        catoni_gradient_estimate(fam, theta, theta, np.zeros((3, 1)), np.zeros(2), 1.0)


def test_gd_descends_in_span_risk():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    eta = np.array([0.5, 0.2])
    risk = QuadraticRisk(fam, eta=eta)
    catoni = CatoniConfig(lam=1.0)
    cfg = GDConfig(step_size=0.08, per_step=4096, max_queries=4096 * 50, diag_samples=10)
    theta, trace = run_gd(risk, fam, theta_p, theta_p, cfg, catoni, seed=11)
    theta_hat = risk.gibbs_posterior(theta_p, 1.0)
    assert fam.kl(theta, theta_hat) < 1e-3

    def exact_objective(th):
        return risk.expected_value(th) + fam.kl(th, theta_p)

    objs = [exact_objective(th) for th in trace.thetas]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
    assert objs[-1] < exact_objective(theta_p)


def test_gd_stationary_at_prior_for_zero_risk():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = CustomRisk(lambda x: np.zeros(np.atleast_2d(x).shape[0]), predictor_dim=1)
    catoni = CatoniConfig(lam=1.0)
    cfg = GDConfig(step_size=0.05, per_step=64, max_queries=64 * 20, diag_samples=10)
    theta, _ = run_gd(risk, fam, theta_p, theta_p, cfg, catoni, seed=13)
    # zero risk makes the score term vanish identically, not just on average
    np.testing.assert_array_equal(theta, theta_p)


def test_gd_trace_deterministic(tmp_path):
    fam = GaussianFamily(2, structure="diag")
    theta_p = standard_normal_params(fam)
    rng = np.random.default_rng(17)
    risk = QuadraticRisk(fam, eta=0.3 * rng.standard_normal(fam.dim))
    catoni = CatoniConfig(lam=0.5)
    cfg = GDConfig(step_size=0.02, momentum=0.5, per_step=32, max_queries=320, diag_samples=50)
    blobs = []
    for run in range(2):
        _, trace = run_gd(risk, fam, theta_p, theta_p, cfg, catoni, seed=19)
        path = tmp_path / f"gd_{run}.csv"
        trace.to_csv(path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_gd_query_accounting_and_budget():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=np.array([0.1, 0.05]))
    catoni = CatoniConfig(lam=1.0)
    cfg = GDConfig(step_size=0.01, per_step=80, max_queries=2000, diag_samples=10)
    _, trace = run_gd(risk, fam, theta_p, theta_p, cfg, catoni, seed=23)
    grid = trace.query_grid
    assert len(grid) == 2000 // 80
    np.testing.assert_array_equal(grid, 80 * np.arange(1, 26))
    assert grid[-1] <= 2000


def test_gd_and_solver_share_query_abscissae():
    # with per_step 32 and a 160/32 schedule every solver abscissa is a GD one
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=np.array([0.3, 0.1]))
    catoni = CatoniConfig(
        lam=1.0,
        alpha_max=0.5,
        kl_max=1.0,
        n_initial_queries=160,
        n_queries_per_step=32,
        n_mc_weights=200,
        max_steps=8,
        convergence_kl_tol=0.0,
    )
    from pacbayes import run_supac_ce

    _, solver_trace, _ = run_supac_ce(risk, fam, theta_p, theta_p, catoni, seed=29)
    cfg = GDConfig(step_size=0.02, per_step=32, max_queries=416, diag_samples=10)
    _, gd_trace = run_gd(risk, fam, theta_p, theta_p, cfg, catoni, seed=29)
    assert set(solver_trace.query_grid) <= set(gd_trace.query_grid)


def test_nesterov_momentum_stays_in_domain():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=np.array([1.0, 0.6]))
    catoni = CatoniConfig(lam=0.5)
    cfg = GDConfig(step_size=0.2, momentum=0.9, per_step=32, max_queries=32 * 40, diag_samples=10)
    theta, trace = run_gd(risk, fam, theta_p, theta_p, cfg, catoni, seed=31)
    assert fam.in_domain(theta)
    for th in trace.thetas:
        assert fam.in_domain(th)
