"""Gaussian family coordinates, moments, information and serialization."""

import numpy as np
import pytest

from pacbayes import DomainError, GaussianFamily, standard_normal_params
from pacbayes.families import params_from_json, params_to_json

from _oracles import (
    batch_mean_se,
    family_moments,
    fd_grad,
    fd_jacobian,
    gaussian_kl,
    normalization_1d,
    normalization_2d_full,
    random_spd,
    random_theta,
)


def test_suff_stat_values():
    fam1 = GaussianFamily(1)
    np.testing.assert_allclose(fam1.suff_stat(np.array([0.0])), [0.0, 0.0])
    np.testing.assert_allclose(fam1.suff_stat(np.array([2.0])), [2.0, 4.0])
    fam2 = GaussianFamily(2, structure="full")
    np.testing.assert_allclose(
        fam2.suff_stat(np.array([1.0, -1.0])), [1.0, -1.0, 1.0, -1.0, 1.0]
    )


def test_suff_stat_batch_shape_and_errors():
    fam = GaussianFamily(3, structure="diag")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 3))
    t = fam.suff_stat(x)
    assert t.shape == (7, fam.dim)
    np.testing.assert_allclose(t[2], fam.suff_stat(x[2]))
    with pytest.raises(ValueError):
        fam.suff_stat(np.zeros((4, 2)))


def test_layout_dims_and_pairs():
    assert GaussianFamily(1).dim == 2
    assert GaussianFamily(2, structure="full").dim == 5
    assert GaussianFamily(4, structure="diag").dim == 8
    fam = GaussianFamily(4, structure="block", blocks=[(0, 1), (2, 3)])
    assert fam.dim == 4 + 6
    assert fam.quad_pairs() == [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3)]
    with pytest.raises(ValueError):
        GaussianFamily(3, structure="block", blocks=[(0, 1)])
    with pytest.raises(ValueError):
        GaussianFamily(2, structure="hourglass")


def test_natural_from_moments_hand_values():
    fam = GaussianFamily(1)
    np.testing.assert_allclose(
        fam.natural_from_moments([0.0], [[1.0]]), [0.0, -0.5]
    )
    # mean 1, var 0.5: Lambda = 2, b = 2, quadratic coordinate -1
    np.testing.assert_allclose(
        fam.natural_from_moments([1.0], [[0.5]]), [2.0, -1.0]
    )
    fam2 = GaussianFamily(2, structure="diag")
    np.testing.assert_allclose(
        fam2.natural_from_moments([0.0, 0.0], np.diag([1.0, 4.0])),
        [0.0, 0.0, -0.5, -0.125],
    )


def test_natural_from_moments_rejects_bad_covariance():
    fam = GaussianFamily(2, structure="full")
    with pytest.raises(ValueError):
        fam.natural_from_moments([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        fam.natural_from_moments([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    fam_diag = GaussianFamily(2, structure="diag")
    with pytest.raises(ValueError):
        fam_diag.natural_from_moments([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])


def test_log_partition_known_values():
    fam = GaussianFamily(1)
    np.testing.assert_allclose(
        fam.log_partition(np.array([0.0, -0.5])), 0.5 * np.log(2.0 * np.pi)
    )
    # mean 1, var 0.5 gives 1 - log(2)/2 + log(2 pi)/2
    np.testing.assert_allclose(
        fam.log_partition(np.array([2.0, -1.0])), 1.5723649429247002, rtol=1e-12
    )
    rng = np.random.default_rng(11)
    for _ in range(10):
        mu = rng.uniform(-3.0, 3.0)
        theta = fam.natural_from_moments([mu], [[1.0]])
        expect = 0.5 * mu**2 + 0.5 * np.log(2.0 * np.pi)
        np.testing.assert_allclose(fam.log_partition(theta), expect, rtol=1e-12)


def test_log_partition_normalizes_density():
    # exp(theta . T - g) must integrate to one (checked by scipy quadrature).
    fam1 = GaussianFamily(1)
    fam2 = GaussianFamily(2, structure="full")
    rng = np.random.default_rng(23)
    for _ in range(5):
        theta = random_theta(fam1, rng)
        z = normalization_1d(theta)
        np.testing.assert_allclose(np.log(z), fam1.log_partition(theta), atol=1e-6)
    for _ in range(3):
        theta = random_theta(fam2, rng)
        z = normalization_2d_full(theta)
        np.testing.assert_allclose(np.log(z), fam2.log_partition(theta), atol=1e-6)


def test_log_density_matches_normal_pdf():
    from scipy.stats import multivariate_normal

    fam = GaussianFamily(2, structure="full")
    rng = np.random.default_rng(5)
    theta = random_theta(fam, rng)
    mean, cov = family_moments(fam, theta)
    x = rng.standard_normal((6, 2))
    np.testing.assert_allclose(
        fam.log_density(theta, x),
        multivariate_normal(mean, cov).logpdf(x),
        rtol=1e-10,
    )


def test_mean_suff_stat_known_values():
    fam = GaussianFamily(1)
    np.testing.assert_allclose(fam.mean_suff_stat(np.array([0.0, -0.5])), [0.0, 1.0])
    np.testing.assert_allclose(
        fam.mean_suff_stat(fam.natural_from_moments([1.0], [[0.5]])), [1.0, 1.5]
    )


def test_mean_suff_stat_is_log_partition_gradient():
    # grad g vs central finite differences, 1e-5 relative.
    rng = np.random.default_rng(7)
    for fam in (GaussianFamily(1), GaussianFamily(2, structure="full")):
        for _ in range(5):
            theta = random_theta(fam, rng)
            fd = fd_grad(fam.log_partition, theta, h=1e-5)
            np.testing.assert_allclose(fam.mean_suff_stat(theta), fd, rtol=1e-5)


def test_mean_suff_stat_matches_monte_carlo():
    fam = GaussianFamily(2, structure="full")
    rng = np.random.default_rng(13)
    theta = random_theta(fam, rng)
    draws = fam.sample(theta, 1_000_000, seed=99)
    t = fam.suff_stat(draws)
    expect = fam.mean_suff_stat(theta)
    for j in range(fam.dim):
        mean, se = batch_mean_se(t[:, j])
        assert abs(mean - expect[j]) < 4.0 * se


def test_fisher_info_standard_normal():
    fam = GaussianFamily(1)
    np.testing.assert_allclose(
        fam.fisher_info(np.array([0.0, -0.5])), [[1.0, 0.0], [0.0, 2.0]], atol=1e-12
    )


def test_fisher_info_is_mean_suff_stat_jacobian():
    rng = np.random.default_rng(29)
    for fam in (
        GaussianFamily(1),
        GaussianFamily(2, structure="full"),
        GaussianFamily(3, structure="block", blocks=[(0, 1), (2,)]),
    ):
        for _ in range(4):
            theta = random_theta(fam, rng)
            fd = fd_jacobian(fam.mean_suff_stat, theta, h=1e-5)
            np.testing.assert_allclose(fam.fisher_info(theta), fd, rtol=1e-5, atol=1e-7)


def test_fisher_info_matches_sample_covariance():
    fam = GaussianFamily(2, structure="full")
    rng = np.random.default_rng(31)
    theta = random_theta(fam, rng)
    draws = fam.sample(theta, 1_000_000, seed=3)
    t = fam.suff_stat(draws)
    centered = t - fam.mean_suff_stat(theta)
    info = fam.fisher_info(theta)
    for i in range(fam.dim):
        for j in range(i, fam.dim):
            mean, se = batch_mean_se(centered[:, i] * centered[:, j])
            assert abs(mean - info[i, j]) < 4.0 * se


def test_fisher_info_symmetric_positive_definite():
    rng = np.random.default_rng(37)
    fam = GaussianFamily(3, structure="full")
    for _ in range(10):
        theta = random_theta(fam, rng)
        info = fam.fisher_info(theta)
        np.testing.assert_allclose(info, info.T, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(info) > 0)


def test_fisher_diagonal_equals_the_diagonal_of_fisher_info():
    rng = np.random.default_rng(43)
    families = (
        GaussianFamily(4, structure="full"),
        GaussianFamily(4, structure="diag"),
        GaussianFamily(5, structure="block", blocks=[(0, 3), (1, 2, 4)]),
    )
    for fam in families:
        for _ in range(200):
            theta = random_theta(fam, rng, mean_scale=2.0)
            np.testing.assert_array_equal(fam._fisher_diag(theta), np.diag(fam.fisher_info(theta)))


def test_kl_known_values():
    fam = GaussianFamily(1)
    theta = fam.natural_from_moments([0.3], [[0.7]])
    assert fam.kl(theta, theta) == pytest.approx(0.0, abs=1e-12)
    std = standard_normal_params(fam)
    shifted = fam.natural_from_moments([1.0], [[1.0]])
    np.testing.assert_allclose(fam.kl(std, shifted), 0.5, rtol=1e-12)
    wide = fam.natural_from_moments([0.0], [[2.0]])
    np.testing.assert_allclose(fam.kl(wide, std), 0.15342640972002752, rtol=1e-12)


def test_kl_matches_closed_form_and_quadrature():
    rng = np.random.default_rng(41)
    for fam in (GaussianFamily(1), GaussianFamily(2, structure="full")):
        for _ in range(8):
            theta1 = random_theta(fam, rng)
            theta2 = random_theta(fam, rng)
            m1, c1 = family_moments(fam, theta1)
            m2, c2 = family_moments(fam, theta2)
            np.testing.assert_allclose(
                fam.kl(theta1, theta2), gaussian_kl(m1, c1, m2, c2), rtol=1e-9
            )
    # direct quadrature of the log-ratio, 1e-6 tolerance
    fam = GaussianFamily(1)
    from _oracles import gauss_expect

    for _ in range(5):
        theta1 = random_theta(fam, rng)
        theta2 = random_theta(fam, rng)
        m1, c1 = family_moments(fam, theta1)
        log_ratio = lambda x: fam.log_density(theta1, x) - fam.log_density(theta2, x)
        quad = gauss_expect(log_ratio, m1, c1, n_nodes=80)
        np.testing.assert_allclose(fam.kl(theta1, theta2), quad, atol=1e-6)


def test_sample_deterministic_and_calibrated():
    fam = GaussianFamily(2, structure="full")
    theta = standard_normal_params(fam)
    a = fam.sample(theta, 100, seed=42)
    b = fam.sample(theta, 100, seed=42)
    np.testing.assert_array_equal(a, b)
    n = 1_000_000
    draws = fam.sample(theta, n, seed=1)
    assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(n))


def test_sample_block_structure_uncorrelated_across_blocks():
    fam = GaussianFamily(4, structure="block", blocks=[(0, 1), (2, 3)])
    rng = np.random.default_rng(17)
    theta = random_theta(fam, rng)
    draws = fam.sample(theta, 400_000, seed=8)
    centered = draws - draws.mean(axis=0)
    for i in (0, 1):
        for j in (2, 3):
            mean, se = batch_mean_se(centered[:, i] * centered[:, j])
            assert abs(mean) < 4.0 * se


def test_moments_round_trip():
    # moments -> natural -> moments within 1e-10 relative, per structure.
    rng = np.random.default_rng(53)
    families = (
        GaussianFamily(1),
        GaussianFamily(3, structure="full"),
        GaussianFamily(3, structure="diag"),
        GaussianFamily(4, structure="block", blocks=[(0, 2), (1, 3)]),
    )
    for fam in families:
        for _ in range(100):
            k = fam.predictor_dim
            mean = 3.0 * rng.standard_normal(k)
            cov = np.zeros((k, k))
            for block in fam.blocks:
                ix = np.ix_(block, block)
                cov[ix] = random_spd(rng, len(block))
            theta = fam.natural_from_moments(mean, cov)
            back = fam.moments_from_natural(theta)
            np.testing.assert_allclose(back.mean, mean, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(back.cov, cov, rtol=1e-10, atol=1e-12)


def test_domain_checks():
    fam = GaussianFamily(1)
    assert fam.in_domain(np.array([0.0, -0.5]))
    assert not fam.in_domain(np.array([0.0, 0.5]))
    assert not fam.in_domain(np.array([np.nan, -0.5]))
    with pytest.raises(DomainError):
        fam.log_partition(np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        fam.moments_from_natural(np.array([0.0, 0.0]))
    fam2 = GaussianFamily(2, structure="full")
    # indefinite precision: diagonal fine, off-diagonal too large
    bad = fam2.natural_from_moments([0.0, 0.0], np.eye(2)).copy()
    bad[3] = 5.0
    assert not fam2.in_domain(bad)
    # damped_update reads a DomainError from kl as a candidate outside the domain
    good = fam2.natural_from_moments([0.0, 0.0], np.eye(2))
    not_finite = good.copy()
    not_finite[0] = np.nan
    for theta1 in (bad, not_finite):
        with pytest.raises(DomainError):
            fam2.kl(theta1, good)


def test_family_serialization_round_trip():
    for fam in (
        GaussianFamily(2, structure="full"),
        GaussianFamily(3, structure="diag"),
        GaussianFamily(4, structure="block", blocks=[(0, 1), (2, 3)]),
    ):
        back = GaussianFamily.from_json(fam.to_json())
        assert back == fam
        assert back.dim == fam.dim


def test_params_json_round_trip():
    rng = np.random.default_rng(61)
    theta = rng.standard_normal(9)
    back = params_from_json(params_to_json(theta))
    np.testing.assert_array_equal(back, theta)
    with pytest.raises(ValueError):
        params_to_json(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        params_from_json("{}")


def test_standard_normal_params():
    fam = GaussianFamily(3, structure="full")
    theta = standard_normal_params(fam)
    moments = fam.moments_from_natural(theta)
    np.testing.assert_allclose(moments.mean, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(moments.cov, np.eye(3), atol=1e-14)
