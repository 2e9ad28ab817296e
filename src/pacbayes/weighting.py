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
# Floats per (draws x scored points) score block in the 1-NN search: about
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


class _NearestPoints:
    """Nearest ledger row of each of ``n_mc`` draws from pi_theta.

    Rows are compared in the Mahalanobis metric of pi_theta, in which the
    draws are standard normals.  Each draw keeps its best row index and
    score, so ``weights`` on a ledger that has grown since the last call
    scores only the appended rows.  A draw moves to a later row only when
    its score is strictly lower, so ties keep the lowest index.  An exact
    copy of an earlier row never takes a draw: BLAS may round one score
    differently in products of different shapes, and the copy would win
    wherever its rounding came out lower.
    """

    def __init__(self, family, theta, n_mc, seed):
        n_mc = int(n_mc)
        if n_mc < 1:
            raise ValueError("n_mc must be at least 1")
        self._mean, cov = family.moments_from_natural(theta)
        self._chol = np.linalg.cholesky(cov)
        # Whitened samples from pi_theta are exactly standard normal draws.
        rng = np.random.Generator(np.random.Philox(seed))
        self._draws = rng.standard_normal((n_mc, family.predictor_dim))
        self._best = np.zeros(n_mc, dtype=np.int64)
        self._score = np.full(n_mc, np.inf)
        self._n_rows = 0
        self._first = {}  # row bytes -> index of the row's first occurrence

    def weights(self, stack):
        """Normalized cell counts over ``stack``, which may only have grown."""
        if len(stack) == 0:
            raise ValueError("evaluation stack is empty")
        if len(stack) > self._n_rows:
            self._add_rows(stack.points[self._n_rows :])
        return np.bincount(self._best, minlength=len(stack)) / float(len(self._draws))

    def _add_rows(self, points):
        start, n_new = self._n_rows, len(points)
        # Adding 0.0 maps -0.0 to 0.0, so both spellings of a point share a key.
        keys = (points + 0.0).view(f"V{points.itemsize * points.shape[1]}").ravel().tolist()
        is_copy = np.array([self._first.setdefault(k, i) != i for i, k in enumerate(keys, start)])
        xw = solve_triangular(self._chol, (points - self._mean).T, lower=True).T
        # ||x - z||^2 = ||x||^2 - 2 x.z + ||z||^2; the last term is constant
        # per draw and cannot change the argmin over stored points.
        xn2 = np.sum(xw * xw, axis=1)
        xn2[is_copy] = np.inf
        neg2_xw_t = (-2.0 * xw).T
        n_mc = len(self._draws)
        arg = np.empty(n_mc, dtype=np.int64)
        score = np.empty(n_mc)
        chunk = max(1, _CHUNK_BUDGET // n_new)
        rows = np.arange(min(chunk, n_mc))
        for lo in range(0, n_mc, chunk):
            hi = min(lo + chunk, n_mc)
            scores = self._draws[lo:hi] @ neg2_xw_t
            scores += xn2
            arg[lo:hi] = np.argmin(scores, axis=1)
            score[lo:hi] = scores[rows[: hi - lo], arg[lo:hi]]
        better = score < self._score
        self._best[better] = arg[better] + start
        self._score[better] = score[better]
        self._n_rows += n_new


def voronoi_weights(stack, family, theta, n_mc=40_000, seed=0):
    """Monte Carlo estimate of the Voronoi cell masses under pi_theta.

    Draws ``n_mc`` samples from pi_theta, assigns each to its nearest stored
    point in the Mahalanobis metric of pi_theta, and returns the normalized
    assignment counts.  Ties break toward the lowest index, and an exact
    duplicate of an earlier point gets no mass, so the result is
    deterministic given the seed.

    Returns
    -------
    numpy.ndarray
        Nonnegative weights aligned with the stack entries, summing to 1.
    """
    return _NearestPoints(family, theta, n_mc, seed).weights(stack)


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
    parameter the batch was drawn from.  The ledger memoises each entry's
    log density under its generating parameter, so repeated calls pay only
    for the numerator and for the entries appended since.
    """
    if len(stack) == 0:
        raise ValueError("evaluation stack is empty")
    g = family.log_partition(theta)
    log_num = stack._suff_stat(family) @ np.asarray(theta, dtype=float) - g
    log_w = log_num - stack._generation_log_density(family, generation_params)
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
    t = stack._suff_stat(family)
    y = stack.values
    t_bar = wn @ t
    y_bar = float(wn @ y)
    scale = np.sqrt(family._fisher_diag(theta))
    scale = np.where(scale > 0, scale, 1.0)
    z = t - t_bar
    z /= scale
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
