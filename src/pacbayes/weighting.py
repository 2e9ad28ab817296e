"""Reuse weights for stored evaluations and projection onto span(1, T).

The solver never discards a risk evaluation.  To recycle the ledger at a new
distribution, each stored point receives the probability mass of its Voronoi
cell under that distribution (estimated by Monte Carlo nearest-neighbor
counts in the whitened metric).  The weighted least-squares projection of the
stored risk values onto the affine span of the sufficient statistic then
yields the surrogate coefficients the solver minimizes in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr

# Gram condition number beyond which a ridge is added before solving.
GRAM_CONDITION_LIMIT = 1e12
_RIDGE_SCALE = 1e-10
# Floats per (draws x stored points) score block in the 1-NN search: about
# 1 MB, so each block stays in cache while it is built and reduced.
_CHUNK_BUDGET = 131_072


@dataclass(frozen=True, eq=False)
class SurrogateFit:
    """Result of projecting risk values onto span(1, T).

    Attributes
    ----------
    eta : numpy.ndarray
        Coefficients on the sufficient statistic.
    offset : float
        Constant coordinate of the projection.
    weighted_rss : float
        Weight-averaged squared residual of the fit.
    gram_condition : float
        Condition number of the (scaled, centered) Gram matrix before any
        ridge is applied.
    """

    eta: np.ndarray
    offset: float
    weighted_rss: float
    gram_condition: float


def _whitened_points(stack, family, theta):
    if len(stack) == 0:
        raise ValueError("evaluation stack is empty")
    mean, cov = family.moments_from_natural(theta)
    chol = np.linalg.cholesky(cov)
    return solve_triangular(chol, (stack.points - mean).T, lower=True).T


def voronoi_weights(stack, family, theta, n_mc=40_000, seed=0):
    """Monte Carlo estimate of the Voronoi cell masses under pi_theta.

    Draws ``n_mc`` samples from pi_theta, assigns each to its nearest stored
    point in the Mahalanobis metric of pi_theta, and returns the normalized
    assignment counts.  Ties break toward the lowest index, so the result is
    deterministic given the seed.

    Returns
    -------
    numpy.ndarray
        Nonnegative weights aligned with the stack entries, summing to 1.
    """
    n_mc = int(n_mc)
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    xw = _whitened_points(stack, family, theta)
    n_pts = xw.shape[0]
    # Whitened samples from pi_theta are exactly standard normal draws.
    rng = np.random.Generator(np.random.Philox(seed))
    xn2 = np.sum(xw * xw, axis=1)
    counts = np.zeros(n_pts, dtype=np.int64)
    chunk = max(1, _CHUNK_BUDGET // n_pts)
    done = 0
    while done < n_mc:
        m = min(chunk, n_mc - done)
        z = rng.standard_normal((m, family.predictor_dim))
        # ||x - z||^2 = ||x||^2 - 2 x.z + ||z||^2; the last term is constant
        # per row and cannot change the argmin over stored points.
        scores = z @ xw.T
        scores *= -2.0
        scores += xn2
        counts += np.bincount(np.argmin(scores, axis=1), minlength=n_pts)
        done += m
    return counts / float(n_mc)


def exact_voronoi_weights_1d(stack, family, theta):
    """Closed-form Voronoi cell masses for one-dimensional families.

    Cells are the intervals between midpoints of the sorted distinct stored
    points; masses are normal CDF differences.  Exact duplicates receive the
    cell mass on their first occurrence and zero afterwards.
    """
    if family.predictor_dim != 1:
        raise ValueError("exact cell masses require a one-dimensional family")
    if len(stack) == 0:
        raise ValueError("evaluation stack is empty")
    mean, cov = family.moments_from_natural(theta)
    mu, sd = float(mean[0]), float(np.sqrt(cov[0, 0]))
    pts = stack.points[:, 0]
    order = np.argsort(pts, kind="stable")
    sorted_pts = pts[order]
    # The stable sort puts each value's first occurrence first among its copies.
    first = np.concatenate([[True], sorted_pts[1:] != sorted_pts[:-1]])
    distinct = sorted_pts[first]
    mids = 0.5 * (distinct[1:] + distinct[:-1])
    upper = np.concatenate([ndtr((mids - mu) / sd), [1.0]])
    lower = np.concatenate([[0.0], upper[:-1]])
    weights = np.zeros(len(stack))
    weights[order[first]] = upper - lower
    return weights


def uniform_weights(stack, step=None):
    """Equal weights over the whole ledger, or over one step's batch."""
    if len(stack) == 0:
        raise ValueError("evaluation stack is empty")
    if step is None:
        return np.full(len(stack), 1.0 / len(stack))
    mask = stack.steps == int(step)
    total = int(mask.sum())
    if total == 0:
        raise ValueError(f"no evaluations recorded for step {step}")
    return mask / float(total)


def importance_weights(stack, family, theta, generation_params):
    """Self-normalized density-ratio weights d(pi_theta) / d(pi_generation).

    ``generation_params`` maps each ledger step index to the natural
    parameter the batch was drawn from.  Each batch's log density under its
    generating parameter is memoised on the stack, so repeated calls pay
    only for the numerator.
    """
    if len(stack) == 0:
        raise ValueError("evaluation stack is empty")
    log_num = family.log_density(theta, stack.points)
    log_den = np.empty(len(stack))
    for step in np.unique(stack.steps).tolist():
        if step not in generation_params:
            raise ValueError(f"missing generation parameter for step {step}")
        log_den[stack.steps == step] = stack._batch_log_density(
            step, family, generation_params[step]
        )
    log_w = log_num - log_den
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


def project(stack, weights, family, theta):
    """Weighted least-squares projection of the stored risks onto span(1, T).

    Solves min over (eta, c) of sum_i w_i (R_i - eta . T(x_i) - c)^2 via the
    centered normal equations.  Columns are scaled by the square root of the
    Fisher diagonal at ``theta`` before solving, which preconditions the Gram
    matrix in the metric the surrogate is used in.  A ridge of
    ``1e-10 * trace / dim`` is added only when the scaled Gram condition
    number exceeds 1e12.

    Returns
    -------
    SurrogateFit
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(stack),):
        raise ValueError("weights must align with the stack entries")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    wn = w / total
    t = family.suff_stat(stack.points)
    y = stack.values
    t_bar = wn @ t
    y_bar = float(wn @ y)
    tc = t - t_bar
    scale = np.sqrt(np.diag(family.fisher_info(theta)))
    scale = np.where(scale > 0, scale, 1.0)
    z = tc / scale
    gram = z.T @ (wn[:, None] * z)
    rhs = z.T @ (wn * (y - y_bar))
    gram_condition = float(np.linalg.cond(gram))
    if not np.isfinite(gram_condition) or gram_condition > GRAM_CONDITION_LIMIT:
        ridge = _RIDGE_SCALE * np.trace(gram) / family.dim
        gram = gram + ridge * np.eye(family.dim)
    try:
        eta_scaled = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise ValueError(
            "projection Gram matrix is singular; provide more distinct evaluation points"
        ) from None
    eta = eta_scaled / scale
    offset = y_bar - float(t_bar @ eta)
    resid = y - (t @ eta + offset)
    return SurrogateFit(
        eta=eta,
        offset=offset,
        weighted_rss=float(wn @ (resid * resid)),
        gram_condition=gram_condition,
    )
