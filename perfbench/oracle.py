"""Reference computations the benchmark checks the program against.

Everything here is written from the Gaussian formulas directly, with numpy
and scipy alone: nothing is imported from ``pacbayes``.  A natural parameter
theta = (b, q) of a full-covariance family in R^k is read as

    Lambda_ii = -2 q_ii,  Lambda_ij = -q_ij (i < j),  mean = Lambda^-1 b,

with the quadratic coordinates in row-major upper-triangle order, and the
sufficient statistic is T(x) = (x_1 .. x_k, x_i x_j for i <= j).

Random draws come from numpy Generators the caller makes from the benchmark
seed, never from the program's seeding module.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

_LOG_2PI = math.log(2.0 * math.pi)


def quad_pairs(k):
    """Index pairs (i, j), i <= j, in the order the statistic stacks them."""
    rows, cols = np.triu_indices(k)
    return rows, cols


def natural_dim(k):
    return k + k * (k + 1) // 2


def suff_stat(x):
    """T(x) for a batch of predictors of shape (n, k)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rows, cols = quad_pairs(x.shape[1])
    return np.hstack([x, x[:, rows] * x[:, cols]])


def precision_and_shift(theta, k):
    """(Lambda, b) encoded by a full-covariance natural parameter."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (natural_dim(k),):
        raise ValueError(f"expected {natural_dim(k)} natural coordinates, got {theta.shape}")
    rows, cols = quad_pairs(k)
    q = theta[k:]
    lam = np.zeros((k, k))
    lam[rows, cols] = -q
    lam[cols, rows] = -q
    lam[np.diag_indices(k)] = -2.0 * q[rows == cols]
    return lam, theta[:k].copy()


def moments(theta, k):
    """(mean, cov) of the member with natural parameter ``theta``."""
    lam, b = precision_and_shift(theta, k)
    cov = np.linalg.inv(lam)
    cov = 0.5 * (cov + cov.T)
    return cov @ b, cov


def natural_from_moments(mean, cov):
    """Natural parameter of N(mean, cov) in the full-covariance family."""
    mean = np.asarray(mean, dtype=float)
    k = mean.size
    lam = np.linalg.inv(np.asarray(cov, dtype=float))
    lam = 0.5 * (lam + lam.T)
    rows, cols = quad_pairs(k)
    q = np.where(rows == cols, -0.5 * lam[rows, cols], -lam[rows, cols])
    return np.concatenate([lam @ mean, q])


def standard_normal_theta(k):
    return natural_from_moments(np.zeros(k), np.eye(k))


def gaussian_kl(theta1, theta2, k):
    """KL(N1 || N2) from the mean/covariance closed form."""
    m1, s1 = moments(theta1, k)
    m2, s2 = moments(theta2, k)
    lam2, _ = precision_and_shift(theta2, k)
    diff = m2 - m1
    _, logdet1 = np.linalg.slogdet(s1)
    _, logdet2 = np.linalg.slogdet(s2)
    return float(
        0.5 * (np.trace(lam2 @ s1) + diff @ lam2 @ diff - k + logdet2 - logdet1)
    )


def log_density(theta, x, k):
    """log N(x; mean, cov) for each row of ``x``."""
    lam, _ = precision_and_shift(theta, k)
    mean, _ = moments(theta, k)
    d = np.atleast_2d(np.asarray(x, dtype=float)) - mean
    _, logdet_lam = np.linalg.slogdet(lam)
    return -0.5 * np.einsum("ni,ij,nj->n", d, lam, d) + 0.5 * logdet_lam - 0.5 * k * _LOG_2PI


def sample(theta, z, k):
    """Map standard normal draws ``z`` (n, k) to draws from pi_theta."""
    mean, cov = moments(theta, k)
    return mean + np.asarray(z, dtype=float) @ np.linalg.cholesky(cov).T


def tanh_risk(x, omega, a_matrix, x0):
    """tanh((cos u + u) / 10) with u = omega ||A (x - x0)||^2."""
    d = (np.atleast_2d(np.asarray(x, dtype=float)) - np.asarray(x0)) @ np.asarray(a_matrix).T
    u = float(omega) * np.sum(d * d, axis=1)
    return np.tanh((np.cos(u) + u) / 10.0)


def bound_offset(lam, delta, n_data, c_range):
    return c_range**2 / (8.0 * lam * n_data) - lam * math.log(delta)


def catoni_bound(theta, theta_prior, task, z, k, *, delta=0.05, n_data=100, c_range=2.0):
    """Fresh-sample Catoni bound at ``theta``.

    ``task`` is a dict with ``omega``, ``a_matrix``, ``x0`` and ``lambda``;
    ``z`` are the standard normal draws to push through pi_theta.
    """
    lam = float(task["lambda"])
    r = tanh_risk(sample(theta, z, k), task["omega"], task["a_matrix"], task["x0"])
    kl = gaussian_kl(theta, theta_prior, k)
    return float(r.mean()) + lam * kl + bound_offset(lam, delta, n_data, c_range)


def whiten(points, theta, k):
    mean, cov = moments(theta, k)
    chol = np.linalg.cholesky(cov)
    return solve_triangular(chol, (np.asarray(points) - mean).T, lower=True).T


def nearest_cell_masses(points, theta, k, rng, n_mc, chunk=1000):
    """Brute-force Monte Carlo Voronoi cell masses under pi_theta.

    Each standard normal draw from ``rng`` is assigned to the stored point
    nearest to it in the whitened metric, by explicit distances.
    """
    xw = whiten(points, theta, k)
    counts = np.zeros(xw.shape[0], dtype=np.int64)
    done = 0
    while done < n_mc:
        m = min(chunk, n_mc - done)
        z = rng.standard_normal((m, k))
        counts += np.bincount(cdist(z, xw, "sqeuclidean").argmin(axis=1), minlength=xw.shape[0])
        done += m
    return counts / float(n_mc)


def importance_ratios(points, steps, theta, generation, k):
    """Self-normalised pi_theta / pi_generation weights for a ledger.

    ``generation`` maps each step index to the natural parameter its batch
    was drawn from.
    """
    points = np.asarray(points, dtype=float)
    log_w = log_density(theta, points, k)
    for step in np.unique(steps):
        mask = steps == step
        log_w[mask] -= log_density(generation[int(step)], points[mask], k)
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


def weighted_least_squares(points, values, weights):
    """(eta, c) minimising sum_i w_i (R_i - eta . T(x_i) - c)^2."""
    design = np.hstack([np.ones((len(values), 1)), suff_stat(points)])
    root = np.sqrt(np.asarray(weights, dtype=float))
    coef, *_ = np.linalg.lstsq(design * root[:, None], np.asarray(values) * root, rcond=None)
    return coef[1:], float(coef[0])
