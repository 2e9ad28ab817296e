"""Risk functionals and the append-only evaluation ledger."""

import numpy as np
import pytest

from pacbayes import (
    CustomRisk,
    EvalStack,
    GaussianFamily,
    QuadraticRisk,
    TanhSyntheticRisk,
    standard_normal_params,
)
from pacbayes.risk import eval_risk

from _oracles import gauss_expect, random_spd


def test_quadratic_risk_values_and_shapes():
    fam = GaussianFamily(1)
    risk = QuadraticRisk(fam, eta=np.array([0.0, 1.0]))
    assert eval_risk(risk, np.array([3.0])) == pytest.approx(9.0)
    batch = eval_risk(risk, np.array([[1.0], [2.0], [-2.0]]))
    np.testing.assert_allclose(batch, [1.0, 4.0, 4.0])
    shifted = QuadraticRisk(fam, eta=np.array([2.0, 0.0]), offset=-1.0)
    assert eval_risk(risk, np.array([3.0])) == pytest.approx(9.0)
    assert eval_risk(shifted, np.array([3.0])) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        QuadraticRisk(fam, eta=np.zeros(3))


def test_quadratic_risk_expected_value_matches_quadrature():
    fam = GaussianFamily(2, structure="full")
    rng = np.random.default_rng(3)
    for _ in range(5):
        eta = rng.standard_normal(fam.dim)
        offset = rng.standard_normal()
        risk = QuadraticRisk(fam, eta=eta, offset=offset)
        mean = rng.standard_normal(2)
        cov = random_spd(rng, 2)
        theta = fam.natural_from_moments(mean, cov)
        quad = gauss_expect(risk, mean, cov)
        np.testing.assert_allclose(risk.expected_value(theta), quad, rtol=1e-9)


def test_quadratic_risk_gibbs_posterior_is_penalized_minimizer():
    # theta_p - eta / lam minimizes eta . grad g + lam KL(. || theta_p).
    fam = GaussianFamily(1)
    rng = np.random.default_rng(9)
    theta_p = fam.natural_from_moments([0.5], [[1.4]])
    risk = QuadraticRisk(fam, eta=np.array([0.3, 0.2]), offset=0.1)
    lam = 0.7
    theta_hat = risk.gibbs_posterior(theta_p, lam)
    np.testing.assert_allclose(theta_hat, theta_p - risk.eta / lam)

    def objective(theta):
        return risk.expected_value(theta) + lam * fam.kl(theta, theta_p)

    best = objective(theta_hat)
    for _ in range(50):
        probe = theta_hat + 1e-3 * rng.standard_normal(2)
        if fam.in_domain(probe):
            assert objective(probe) >= best - 1e-12


def test_tanh_synthetic_values():
    k = 3
    x0 = np.array([0.4, -0.2, 1.0])
    risk = TanhSyntheticRisk(omega=2.0 * np.pi, a_matrix=np.eye(k), x0=x0)
    assert eval_risk(risk, x0) == pytest.approx(np.tanh(0.1), rel=1e-12)
    assert np.tanh(0.1) == pytest.approx(0.09966799, abs=1e-7)
    # first local ring: u = pi/2 + 2 pi, value tanh((cos(5 pi/2) + 5 pi/2)/10)
    u_ring = np.pi / 2.0 + 2.0 * np.pi
    radius = np.sqrt(u_ring / risk.omega)
    x = x0 + np.array([radius, 0.0, 0.0])
    np.testing.assert_allclose(
        eval_risk(risk, x), np.tanh(np.pi / 4.0), rtol=1e-10
    )
    assert np.tanh(np.pi / 4.0) == pytest.approx(0.6557942, abs=1e-6)


def test_tanh_synthetic_global_minimum_and_range():
    rng = np.random.default_rng(15)
    for trial in range(5):
        k = 3
        x0 = rng.standard_normal(k)
        a = np.eye(k) + 0.05 * rng.standard_normal((k, k))
        risk = TanhSyntheticRisk(omega=rng.uniform(4.7, 7.9), a_matrix=a, x0=x0)
        at_min = eval_risk(risk, x0)
        x = x0 + rng.standard_normal((1000, k)) * 3.0
        vals = eval_risk(risk, x)
        assert np.all(vals >= at_min)
        away = np.linalg.norm(x - x0, axis=1) > 0.5
        assert np.all(vals[away] > at_min)
        # strictly inside (-1, 1); float64 tanh saturates to 1.0 exactly
        assert np.all(np.abs(vals) <= 1.0)
        near = np.linalg.norm(x - x0, axis=1) < 1.0
        assert np.all(np.abs(vals[near]) < 1.0)


def test_custom_risk_and_eval_risk_validation():
    risk = CustomRisk(lambda x: np.sum(x, axis=1), predictor_dim=2)
    assert eval_risk(risk, np.array([1.0, 2.0])) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        eval_risk(risk, np.zeros(3))
    bad_shape = CustomRisk(lambda x: np.zeros((2, 2)), predictor_dim=2)
    with pytest.raises(ValueError):
        eval_risk(bad_shape, np.zeros((2, 2)))
    bad_value = CustomRisk(lambda x: np.full(x.shape[0], np.inf), predictor_dim=2)
    with pytest.raises(ValueError):
        eval_risk(bad_value, np.zeros((3, 2)))


def test_eval_stack_accounting():
    stack = EvalStack(2)
    assert len(stack) == 0 and stack.query_count == 0 and stack.next_step() == 0
    pts = np.arange(6.0).reshape(3, 2)
    stack.record(pts, [0.1, 0.2, 0.3], step=0)
    assert stack.query_count == 3
    stack.record(pts + 10.0, [1.0, 2.0, 3.0], step=1)
    assert stack.query_count == 6
    np.testing.assert_array_equal(stack.steps, [0, 0, 0, 1, 1, 1])
    np.testing.assert_allclose(stack.points[:3], pts)
    np.testing.assert_allclose(stack.values[3:], [1.0, 2.0, 3.0])
    assert stack.next_step() == 2
    # appending an empty batch leaves the ledger unchanged
    stack.record(np.empty((0, 2)), np.empty(0), step=2)
    assert stack.query_count == 6
    assert stack.next_step() == 2


def test_eval_stack_rejects_bad_input():
    stack = EvalStack(2)
    with pytest.raises(ValueError):
        stack.record(np.zeros((2, 2)), [1.0], step=0)
    with pytest.raises(ValueError):
        stack.record(np.zeros((1, 3)), [1.0], step=0)
    with pytest.raises(ValueError):
        stack.record(np.zeros((1, 2)), [np.nan], step=0)
    assert len(stack) == 0


def test_eval_stack_csv_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    stack = EvalStack(3)
    stack.record(rng.standard_normal((4, 3)), rng.standard_normal(4), step=0)
    stack.record(rng.standard_normal((2, 3)), rng.standard_normal(2), step=3)
    path = tmp_path / "stack.csv"
    stack.to_csv(path)
    back = EvalStack.from_csv(path)
    assert back.predictor_dim == 3
    np.testing.assert_array_equal(back.points, stack.points)
    np.testing.assert_array_equal(back.values, stack.values)
    np.testing.assert_array_equal(back.steps, stack.steps)
    empty = EvalStack(3)
    empty.to_csv(path)
    assert len(EvalStack.from_csv(path)) == 0


def test_quadratic_risk_lies_in_projection_span():
    # R = eta . T + c means the residual against span(1, T) is zero.
    fam = GaussianFamily(2, structure="diag")
    rng = np.random.default_rng(27)
    eta = rng.standard_normal(fam.dim)
    risk = QuadraticRisk(fam, eta=eta, offset=0.4)
    x = rng.standard_normal((20, 2))
    design = np.column_stack([np.ones(20), fam.suff_stat(x)])
    coef, residual, *_ = np.linalg.lstsq(design, eval_risk(risk, x), rcond=None)
    np.testing.assert_allclose(coef, np.concatenate([[0.4], eta]), atol=1e-10)
