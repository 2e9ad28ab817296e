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
from numbers import Integral

import numpy as np
from scipy.linalg import solve_triangular

# Gram condition number beyond which a ridge is added before solving.
GRAM_CONDITION_LIMIT = 1e12
_RIDGE_SCALE = 1e-10
# Scores per (draws x scored points) block in the 1-NN search: 0.5 MB of
# float32, so each block stays in cache while it is built and reduced.
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


class _DrawSet:
    """``n_mc`` standard normal draws in ``k`` dimensions, for nearest-point searches.

    Whitened samples from any pi_theta are exactly standard normal draws, so
    one set serves a search at every theta.  It holds the draws ``z``, their
    norms, the float32 ``[z, 1]`` copy that scores a block of rows in one
    product, and the reach 2 max ||z||.  The arrays are read-only: a solve
    hands one set to every step's search.  ``n_mc`` must be a positive
    integer (not a bool).
    """

    def __init__(self, n_mc, k, seed):
        if isinstance(n_mc, bool) or not isinstance(n_mc, Integral):
            raise ValueError(f"n_mc must be an integer, got {n_mc!r}")
        if n_mc < 1:
            raise ValueError("n_mc must be at least 1")
        n_mc = int(n_mc)
        rng = np.random.Generator(np.random.Philox(seed))
        self.z = rng.standard_normal((n_mc, k))
        self.norms = np.sqrt(np.einsum("ij,ij->i", self.z, self.z))
        # [z, 1] in float32: one product with [-2 x; ||x||^2] scores a block.
        self.z32 = np.ones((n_mc, k + 1), dtype=np.float32)
        self.z32[:, :k] = self.z
        # ||x - z|| >= ||x|| - ||z|| > ||z|| + ||x0|| >= ||x0 - z|| for any row
        # x beyond reach; the 1e-6 margin dwarfs the float64 scores' rounding.
        self.reach = 2.0 * self.norms.max()
        for array in (self.z, self.norms, self.z32):
            array.flags.writeable = False


class _NearestPoints:
    """Nearest ledger row of each draw of a :class:`_DrawSet`, under pi_theta.

    Rows are compared in the Mahalanobis metric of pi_theta, in which the
    draws are standard normals.  The search only whitens rows and reads the
    draws; it never writes into them, so one set can serve many searches.
    Each draw keeps its best row index, so ``weights`` on a ledger that has
    grown since the last call scores only the appended rows.  The search
    does only the work that can change an assignment, and each rule is
    exact:

    * Reach.  A row whose whitened norm exceeds (2 max ||z|| + ||x0||)
      (1 + 1e-6), where x0 is the least-norm row scored so far, is farther
      from every draw than x0 and is not scored.
    * Screen.  The first batch is scored draw by draw in one float32
      product; a draw whose two best float32 scores lie within their
      rounding bound of each other is scored again in float64, so the result
      is the float64 nearest row.
    * Growth.  A later batch is reduced to each draw's least float32 score;
      only the draws whose current float64 score that bound cannot rule out
      beating are scored in float64 and merged.
    * On demand.  Each draw's float64 score for its row is computed when
      the search first grows, so a search that never grows never pays for it.

    Ties keep the lowest index, and a draw moves to a later row only when
    its score is strictly lower.  An exact copy of an earlier row (as the
    ledger marks it) is not scored and never takes a draw: BLAS may round
    one score differently in products of different shapes, and the copy
    would win wherever its rounding came out lower.  The mean and covariance
    factor come from the family's memo of ``theta``.
    """

    def __init__(self, family, theta, draws):
        factored = family._factor(theta)
        self._mean, self._chol = factored.mean, factored.cov_factor
        self._draws, self._norms, self._draws32 = draws.z, draws.norms, draws.z32
        self._reach = draws.reach
        self._least = np.inf
        self._best = np.zeros(len(self._draws), dtype=np.int64)
        # Each draw's float64 score for its row, or None until the search
        # first grows; till then the first batch's (-2 x, ||x||^2, winner).
        self._score = None
        self._first = None
        self._n_rows = 0

    def weights(self, stack):
        """Normalized cell counts over ``stack``, which may only have grown."""
        if len(stack) == 0:
            raise ValueError("evaluation stack is empty")
        start = self._n_rows
        if len(stack) < start:
            raise ValueError(
                f"the search has scored {start} rows but the stack holds {len(stack)}; "
                "a stack may only grow"
            )
        if len(stack) > start:
            self._add_rows(stack.points[start:], stack._copies()[start:])
        return np.bincount(self._best, minlength=len(stack)) / float(len(self._draws))

    def _add_rows(self, points, is_copy):
        start = self._n_rows
        self._n_rows += len(points)
        xw = solve_triangular(self._chol, (points - self._mean).T, lower=True).T
        # ||x - z||^2 = ||x||^2 - 2 x.z + ||z||^2; the last term is constant
        # per draw and cannot change the argmin over stored points.
        xn2 = np.sum(xw * xw, axis=1)
        norms = np.sqrt(xn2)
        self._least = min(self._least, np.min(norms, where=~is_copy, initial=np.inf))
        cols = np.flatnonzero(~is_copy & (norms <= (self._reach + self._least) * (1.0 + 1e-6)))
        if cols.size == 0:
            return
        xn2 = xn2[cols]
        neg2_xw = -2.0 * xw[cols]
        # The float32 screen's rounding bound.  With u = 2^-24, a score is the
        # (k+1)-term dot product [z, 1] . [-2x, ||x||^2].  Rounding z, -2x and
        # ||x||^2 to float32 moves each term t by at most (2u + u^2)|t|, and
        # a float32 dot product of n terms, summed in any order, is off by at
        # most n u / (1 - n u) sum|t|.  By Cauchy-Schwarz,
        # sum|t| <= 2 ||z|| ||x|| + ||x||^2 <= 2 ||z|| xmax + xmax^2, where
        # xmax is the largest whitened norm among the batch's scored rows.  So
        # each float32 score lies within e(z) = (k + 3) u (2 ||z|| xmax +
        # xmax^2) of its exact value, to first order; one more u covers the
        # second-order terms and the float64 scores' own rounding.  With
        # 2^-40 <= xmax <= 2^40 nothing overflows and underflow's absolute
        # errors stay far below e(z); outside that range there is no float32
        # screen (aug is None) and every draw is scored in float64.
        k = self._draws.shape[1]
        xmax = np.sqrt(xn2.max())
        e = (k + 4) * 2.0**-24 * (2.0 * xmax * self._norms + xmax * xmax)
        aug = None
        if 2.0**-40 <= xmax <= 2.0**40:
            aug = np.empty((k + 1, cols.size), dtype=np.float32)
            aug[:k] = neg2_xw.T
            aug[k] = xn2
        if self._first is None and self._score is None:
            arg = self._nearest(aug, neg2_xw, xn2, e)
            self._best = cols[arg] + start
            self._first = neg2_xw, xn2, arg
        else:
            self._merge(aug, neg2_xw, xn2, e, cols + start)

    def _nearest(self, aug, neg2_xw, xn2, e):
        """Index among the batch's rows of each draw's nearest row.

        If the float32 winner is not the nearest row, the nearest row's
        float32 score is at most 2 e(z) above the winner's, so only draws
        whose two best float32 scores lie that close are scored in float64.
        """
        n_mc, m = len(self._draws), len(xn2)
        chunk = max(1, _CHUNK_BUDGET // m)
        arg = np.empty(n_mc, dtype=np.int64)
        gap = np.zeros(n_mc, dtype=np.float32)
        if aug is not None:
            block = np.empty((min(chunk, n_mc), m), dtype=np.float32)
            row_starts = np.arange(0, block.size, m)
            for lo in range(0, n_mc, chunk):
                hi = min(lo + chunk, n_mc)
                scores = np.matmul(self._draws32[lo:hi], aug, out=block[: hi - lo])
                best = np.argmin(scores, axis=1, out=arg[lo:hi])
                flat = scores.reshape(-1)
                winners = row_starts[: hi - lo] + best
                m1 = flat[winners]
                flat[winners] = np.inf
                # A lone row leaves the runner-up at inf: an infinite gap.
                gap[lo:hi] = scores.min(axis=1) - m1
        ambiguous = np.flatnonzero(gap <= 2.0 * e)
        for lo in range(0, ambiguous.size, chunk):
            draws = ambiguous[lo : lo + chunk]
            arg[draws] = self._settle(draws, neg2_xw, xn2)
        return arg

    def _merge(self, aug, neg2_xw, xn2, e, rows):
        """Move each draw that a row of a later batch beats to that row.

        The batch's least float32 score lies within e(z) of its least exact
        score, and any row's float64 score within e(z) of its exact one, so a
        draw whose least float32 score is more than 2 e(z) above its current
        score keeps its row; only the others are scored in float64.
        """
        n_mc, m = len(self._draws), len(xn2)
        chunk = max(1, _CHUNK_BUDGET // m)
        score = self._scores()
        if aug is None:
            contested = np.arange(n_mc)
        else:
            least = np.empty(n_mc, dtype=np.float32)
            # Blocks with one line per batch row: the minimum over rows runs
            # along the leading axis, vectorized across draws.
            block = np.empty((m, min(chunk, n_mc)), dtype=np.float32)
            for lo in range(0, n_mc, chunk):
                hi = min(lo + chunk, n_mc)
                scores = np.matmul(aug.T, self._draws32[lo:hi].T, out=block[:, : hi - lo])
                np.minimum.reduce(scores, axis=0, out=least[lo:hi])
            contested = np.flatnonzero(least - 2.0 * e <= score)
        for lo in range(0, contested.size, chunk):
            draws = contested[lo : lo + chunk]
            arg = self._settle(draws, neg2_xw, xn2)
            new = np.einsum("ij,ij->i", self._draws[draws], neg2_xw[arg]) + xn2[arg]
            better = new < score[draws]
            moved = draws[better]
            self._best[moved] = rows[arg[better]]
            score[moved] = new[better]

    def _settle(self, draws, neg2_xw, xn2):
        """Float64 nearest row among the batch's rows of each of ``draws``."""
        scores = self._draws[draws] @ neg2_xw.T
        scores += xn2
        return np.argmin(scores, axis=1)

    def _scores(self):
        """Each draw's float64 score for its row, computed on first use."""
        if self._score is None:
            neg2_xw, xn2, arg = self._first
            self._score = np.einsum("ij,ij->i", self._draws, neg2_xw[arg]) + xn2[arg]
            self._first = None
        return self._score


def voronoi_weights(stack, family, theta, n_mc=40_000, seed=0):
    """Monte Carlo estimate of the Voronoi cell masses under pi_theta.

    Draws ``n_mc`` standard normals from a Philox stream seeded by ``seed``,
    which are exactly the whitened samples of pi_theta, assigns each to its
    nearest stored point in the Mahalanobis metric of pi_theta, and returns
    the normalized assignment counts.  ``n_mc`` must be a positive integer
    (not a bool).  A point whose whitened norm exceeds twice the longest
    draw's plus the least point norm cannot be any draw's nearest and is not
    scored.  The search screens every other pair in float32 and settles each
    draw whose two nearest points the screen cannot tell apart in float64,
    so the assignment is the float64 one.  Ties break toward the lowest
    index, and an exact duplicate of an earlier point gets no mass, so the
    result is deterministic given the seed.

    Each call draws its own set.  :func:`~pacbayes.solver.run_supac_ce`
    draws one set per solve and whitens every step's ledger against it, so
    its weights at each step equal this function's at that step's theta
    with the solve's draw seed.

    Returns
    -------
    numpy.ndarray
        Nonnegative weights aligned with the stack entries, summing to 1.
    """
    draws = _DrawSet(n_mc, family.predictor_dim, seed)
    return _NearestPoints(family, theta, draws).weights(stack)


def exact_voronoi_weights_1d(stack, family, theta):
    """Closed-form Voronoi cell masses for one-dimensional families.

    Cells are the intervals between midpoints of the sorted distinct stored
    points; masses are normal CDF differences.  Exact duplicates receive the
    cell mass on their first occurrence and zero afterwards.
    """
    # Imported here, its only use: scipy.special takes about 60 ms to load.
    from scipy.special import ndtr

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
    # The Gram matrix is symmetric positive semi-definite: its condition
    # number is the ratio of its extreme eigenvalues, with no SVD.
    eig = np.abs(np.linalg.eigvalsh(gram))
    gram_condition = float(eig.max()) / float(eig.min()) if eig.min() > 0 else np.inf
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
