"""Independent numerical oracles shared across the test suite.

Every helper here recomputes a quantity the library provides in closed form,
by a different route: Gauss-Hermite quadrature for Gaussian expectations,
direct scipy integration for normalization, central finite differences for
gradients, and the textbook mean/covariance form of the Gaussian KL.
"""

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy import integrate


def gauss_nodes(mean, cov, n_nodes=64):
    """Tensor-product Gauss-Hermite nodes and weights for N(mean, cov).

    Returns points of shape (n_nodes**k, k) and weights summing to one, so
    that ``weights @ f(points)`` approximates E[f] under the Gaussian.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    k = mean.size
    z, w = hermegauss(n_nodes)
    w = w / np.sqrt(2.0 * np.pi)
    grids = np.meshgrid(*([z] * k), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wprod = np.ones(pts.shape[0])
    for i in range(k):
        wgrid = np.meshgrid(*([w] * k), indexing="ij")[i]
        wprod = wprod * wgrid.reshape(-1)
    chol = np.linalg.cholesky(cov)
    return mean + pts @ chol.T, wprod


def gauss_expect(f, mean, cov, n_nodes=64):
    """Quadrature estimate of E[f(x)] under N(mean, cov)."""
    pts, w = gauss_nodes(mean, cov, n_nodes)
    return float(w @ np.asarray(f(pts), dtype=float).reshape(-1))


def moments_1d(theta):
    """Hand inversion of 1-D natural coordinates theta = (b, q)."""
    b, q = float(theta[0]), float(theta[1])
    lam = -2.0 * q
    var = 1.0 / lam
    return b * var, var


def moments_2d_full(theta):
    """Hand inversion of 2-D full natural coordinates (b1, b2, q11, q12, q22)."""
    b = np.asarray(theta[:2], dtype=float)
    lam = np.array(
        [
            [-2.0 * theta[2], -theta[3]],
            [-theta[3], -2.0 * theta[4]],
        ]
    )
    cov = np.linalg.inv(lam)
    return cov @ b, 0.5 * (cov + cov.T)


def family_moments(family, theta):
    """Oracle mean/cov for the 1-D and 2-D-full layouts used in tests."""
    if family.predictor_dim == 1:
        mean, var = moments_1d(theta)
        return np.array([mean]), np.array([[var]])
    if family.predictor_dim == 2 and family.structure == "full":
        return moments_2d_full(theta)
    raise ValueError("oracle only covers 1-D and 2-D full layouts")


def quad_expect(family, theta, f, n_nodes=64):
    """Quadrature estimate of pi_theta[f] without using the library moments."""
    mean, cov = family_moments(family, theta)
    return gauss_expect(f, mean, cov, n_nodes)


def quad_projection(family, theta, risk, n_nodes=64):
    """Population projection of a risk onto span(1, T) under pi_theta.

    Solves the normal equations Cov[T] eta = Cov[T, R] by quadrature and
    returns (eta, offset).
    """
    mean, cov = family_moments(family, theta)
    pts, w = gauss_nodes(mean, cov, n_nodes)
    t = family.suff_stat(pts)
    r = np.asarray(risk(pts), dtype=float).reshape(-1)
    t_mean = w @ t
    r_mean = float(w @ r)
    tc = t - t_mean
    gram = tc.T @ (tc * w[:, None])
    cross = tc.T @ (w * (r - r_mean))
    eta = np.linalg.solve(gram, cross)
    return eta, r_mean - float(eta @ t_mean)


def normalization_1d(theta):
    """Direct integral of exp(theta . T(x)) over the real line."""
    b, q = float(theta[0]), float(theta[1])
    val, _ = integrate.quad(lambda x: np.exp(b * x + q * x * x), -np.inf, np.inf)
    return float(val)


def normalization_2d_full(theta):
    """Direct double integral of exp(theta . T(x)) over the plane."""
    b1, b2, q11, q12, q22 = (float(v) for v in theta)

    def integrand(y, x):
        return np.exp(b1 * x + b2 * y + q11 * x * x + q12 * x * y + q22 * y * y)

    val, _ = integrate.dblquad(integrand, -np.inf, np.inf, -np.inf, np.inf)
    return float(val)


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def fd_jacobian(f, x, h=1e-5):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        cols.append((np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2.0 * h))
    return np.stack(cols, axis=1)


def gaussian_kl(mean1, cov1, mean2, cov2):
    """Closed-form KL(N1 || N2) in mean/covariance coordinates."""
    mean1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    mean2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    cov2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    k = mean1.size
    inv2 = np.linalg.inv(cov2)
    diff = mean2 - mean1
    _, logdet1 = np.linalg.slogdet(cov1)
    _, logdet2 = np.linalg.slogdet(cov2)
    return 0.5 * float(
        np.trace(inv2 @ cov1) + diff @ inv2 @ diff - k + logdet2 - logdet1
    )


def batch_mean_se(values, n_batches=100):
    """Monte Carlo mean and its standard error from batch means."""
    values = np.asarray(values, dtype=float).reshape(-1)
    usable = (values.size // n_batches) * n_batches
    means = values[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))


def sort_quantile(values, q):
    """Order-statistic quantile with linear interpolation, written out."""
    vals = np.sort(np.asarray(values, dtype=float).reshape(-1))
    pos = q * (vals.size - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return float((1.0 - frac) * vals[lo] + frac * vals[hi])


def random_spd(rng, k, scale=1.0):
    """Random symmetric positive definite matrix with a sane spectrum."""
    a = rng.standard_normal((k, k))
    q, r = np.linalg.qr(a)
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    eigs = scale * np.exp(rng.uniform(-1.0, 1.0, size=k))
    return (q * eigs) @ q.T


def random_theta(family, rng, mean_scale=1.0, var_scale=1.0):
    """Random in-domain natural parameter via random moments."""
    k = family.predictor_dim
    mean = mean_scale * rng.standard_normal(k)
    if family.structure == "full":
        cov = random_spd(rng, k, scale=var_scale)
    else:
        cov = np.zeros((k, k))
        for block in family.blocks:
            ix = np.ix_(block, block)
            cov[ix] = random_spd(rng, len(block), scale=var_scale)
    return family.natural_from_moments(mean, cov)
