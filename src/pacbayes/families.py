"""Gaussian exponential families in natural coordinates.

A family over predictors x in R^k is parameterized by the natural vector
theta = (b, q) against Lebesgue measure,

    pi_theta(x) = exp(theta . T(x) - g(theta)),

where the sufficient statistic T stacks the linear monomials x_1 .. x_k
followed by the quadratic monomials x_i x_j for the index pairs allowed by the
covariance structure (row-major upper triangle within each block).  The
coordinates relate to the usual mean/precision parameterization (mu, Lambda)
through

    b = Lambda mu,   q_ii = -Lambda_ii / 2,   q_ij = -Lambda_ij  (i < j),

so that theta . T(x) = b.x - x.Lambda x / 2 exactly.  The open domain Theta is
the set of theta whose precision Lambda is symmetric positive definite; it is
checked by attempting a Cholesky factorization.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

_LOG_2PI = float(np.log(2.0 * np.pi))

_STRUCTURES = ("full", "diag", "block")
# Distinct natural parameters whose factorizations a family keeps: a solve
# step reads the prior, the iterate and the next iterate.
_MEMO_SIZE = 4


class DomainError(ValueError):
    """Natural parameter lies outside the family's open domain."""


class ConfigError(ValueError):
    """Invalid configuration or serialized input; carries the offending field name."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class Moments(NamedTuple):
    """Mean/covariance description of a member distribution."""

    mean: np.ndarray
    cov: np.ndarray


def _normalize_blocks(predictor_dim, structure, blocks):
    if structure == "full":
        return (tuple(range(predictor_dim)),)
    if structure == "diag":
        return tuple((i,) for i in range(predictor_dim))
    if structure != "block":
        raise ValueError(f"unknown structure {structure!r}; expected one of {_STRUCTURES}")
    if blocks is None:
        raise ValueError("structure 'block' requires an explicit block partition")
    groups = tuple(tuple(sorted(int(i) for i in b)) for b in blocks)
    flat = sorted(i for b in groups for i in b)
    if flat != list(range(predictor_dim)):
        raise ValueError("blocks must partition the predictor indices exactly once")
    return groups


def _read_only(array):
    array.flags.writeable = False
    return array


def cho_factor(a):
    """Lower Cholesky factor of the finite float64 matrix ``a``, or LinAlgError.

    Calls LAPACK's ``dpotrf`` with the arguments that
    ``scipy.linalg.cho_factor(a, lower=True)`` passes, so the factor has the
    same bits, without that function's per-call checks.  The factor is
    Fortran-ordered, and its strict upper triangle keeps ``a``'s entries.
    Every factorization in this module goes through this name, so wrapping
    it counts them.
    """
    factor, info = dpotrf(a, lower=1, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    return factor


def _cho_solve(factor, b):
    """``scipy.linalg.cho_solve((factor, True), b)`` by LAPACK's ``dpotrs``, unchecked."""
    return dpotrs(factor, b, lower=1)[0]


def _solve_lower(factor, b):
    """``scipy.linalg.solve_triangular(factor, b, lower=True)`` by LAPACK's ``dtrtrs``.

    ``factor`` is a finite lower-triangular float64 matrix with a positive
    diagonal.  LAPACK reads Fortran order, so a C-ordered factor (as
    ``numpy.linalg.cholesky`` returns) is passed as its transpose, an upper
    factor, and solved transposed, the call scipy makes for it.
    """
    if factor.flags.f_contiguous:
        return dtrtrs(factor, b, lower=1)[0]
    return dtrtrs(factor.T, b, lower=0, trans=1)[0]


class _Factored:
    """One natural parameter inside the domain, factored once.

    Holds the lower Cholesky factor of the precision and b = Lambda mu; the
    mean, the covariance, g(theta) and the covariance's Cholesky factor are
    each computed on first use.  Every array is read-only, so a caller cannot
    change what later calls read.
    """

    def __init__(self, factor, b):
        self.factor, self.b = _read_only(factor), _read_only(b)

    @cached_property
    def mean(self):
        return _read_only(_cho_solve(self.factor, self.b))

    @cached_property
    def cov(self):
        cov = _cho_solve(self.factor, np.eye(self.b.size))
        return _read_only(0.5 * (cov + cov.T))

    @cached_property
    def log_partition(self):
        logdet = 2.0 * float(np.sum(np.log(np.diag(self.factor))))
        return float(0.5 * self.b @ self.mean - 0.5 * logdet + 0.5 * self.b.size * _LOG_2PI)

    @cached_property
    def cov_factor(self):
        try:
            return _read_only(np.linalg.cholesky(self.cov))
        except np.linalg.LinAlgError:
            raise DomainError("covariance factorization failed") from None


def _quad_cov(mean, cov, i, j, k, l):
    """Cov(x_i x_j, x_k x_l) under N(mean, cov), elementwise over index arrays."""
    c_ik, c_jl, c_il, c_jk = cov[i, k], cov[j, l], cov[i, l], cov[j, k]
    m_i, m_j, m_k, m_l = mean[i], mean[j], mean[k], mean[l]
    return (
        c_ik * c_jl
        + c_il * c_jk
        + m_i * m_k * c_jl
        + m_i * m_l * c_jk
        + m_j * m_k * c_il
        + m_j * m_l * c_ik
    )


class GaussianFamily:
    """Gaussian exponential family with a declared covariance structure.

    Parameters
    ----------
    predictor_dim : int
        Dimension k of the predictor space.
    structure : {"full", "diag", "block"}
        Which entries of the precision matrix are free.  "full" allows all,
        "diag" only the diagonal, "block" the entries inside the given blocks.
    blocks : sequence of sequences of int, optional
        Partition of {0, .., k-1}; required when ``structure == "block"``.

    Attributes
    ----------
    dim : int
        Length d of the natural parameter / sufficient statistic vector.
    blocks : tuple of tuple of int
        Normalized partition actually in use (singletons for "diag", one
        block for "full").
    """

    def __init__(self, predictor_dim, structure="full", blocks=None):
        predictor_dim = int(predictor_dim)
        if predictor_dim < 1:
            raise ValueError("predictor_dim must be a positive integer")
        self.predictor_dim = predictor_dim
        self.structure = str(structure)
        self.blocks = _normalize_blocks(predictor_dim, self.structure, blocks)
        rows, cols = [], []
        for block in self.blocks:
            for pos, i in enumerate(block):
                for j in block[pos:]:
                    rows.append(i)
                    cols.append(j)
        # Quadratic index pairs (i <= j), row-major within each block.
        self._qi = np.asarray(rows, dtype=int)
        self._qj = np.asarray(cols, dtype=int)
        self.dim = predictor_dim + len(rows)
        # theta bytes -> _Factored, least recently used first.
        self._memo = {}

    # ------------------------------------------------------------------
    # layout helpers

    def __repr__(self):
        return (
            f"GaussianFamily(predictor_dim={self.predictor_dim}, "
            f"structure={self.structure!r}, dim={self.dim})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, GaussianFamily)
            and self.predictor_dim == other.predictor_dim
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.predictor_dim, self.blocks))

    def quad_pairs(self):
        """Index pairs (i, j), i <= j, addressed by the quadratic coordinates."""
        return list(zip(self._qi.tolist(), self._qj.tolist()))

    def _check_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"natural parameter must have shape ({self.dim},), got {theta.shape}")
        return theta

    def precision_mean_form(self, theta):
        """Return (Lambda, b) for ``theta``, without checking definiteness."""
        theta = self._check_theta(theta)
        k = self.predictor_dim
        b = theta[:k].copy()
        lam = np.zeros((k, k))
        q = theta[k:]
        lam[self._qi, self._qj] = -q
        lam[self._qj, self._qi] = -q
        idx = np.arange(k)
        lam[idx, idx] *= 2.0  # diagonal pairs carry -Lambda_ii / 2
        return lam, b

    def _factor(self, theta):
        """The :class:`_Factored` record of ``theta``, or DomainError.

        Records are keyed by the parameter's bytes and kept for the last
        ``_MEMO_SIZE`` distinct parameters; only successful factorizations
        are kept.
        """
        theta = self._check_theta(theta)
        key = theta.tobytes()
        memo = self._memo
        record = memo.pop(key, None)
        if record is None:
            if not np.all(np.isfinite(theta)):
                raise DomainError("natural parameter contains non-finite entries")
            lam, b = self.precision_mean_form(theta)
            try:
                record = _Factored(cho_factor(lam), b)
            except np.linalg.LinAlgError:
                raise DomainError("precision matrix is not positive definite") from None
        memo[key] = record
        if len(memo) > _MEMO_SIZE:
            del memo[next(iter(memo))]
        return record

    def in_domain(self, theta):
        """True when ``theta`` has a symmetric positive definite precision."""
        try:
            self._factor(theta)
        except (DomainError, ValueError):
            return False
        return True

    # ------------------------------------------------------------------
    # sufficient statistic and parameter maps

    def suff_stat(self, x):
        """Evaluate T(x).

        Parameters
        ----------
        x : array_like
            Single predictor of shape (k,) or a batch of shape (n, k).

        Returns
        -------
        numpy.ndarray
            Shape (d,) for a single predictor, (n, d) for a batch.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.ndim != 2 or pts.shape[1] != self.predictor_dim:
            raise ValueError(f"predictors must have {self.predictor_dim} coordinates")
        quad = pts[:, self._qi] * pts[:, self._qj]
        t = np.concatenate([pts, quad], axis=1)
        return t[0] if single else t

    def natural_from_moments(self, mean, cov):
        """Map (mean, cov) to natural coordinates.

        ``cov`` must be symmetric positive definite and exactly zero outside
        the declared blocks (up to a tiny tolerance).
        """
        k = self.predictor_dim
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape != (k,):
            raise ValueError(f"mean must have shape ({k},)")
        if cov.shape != (k, k):
            raise ValueError(f"cov must have shape ({k}, {k})")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and cov must be finite")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(cov).max())):
            raise ValueError("cov must be symmetric")
        allowed = np.zeros((k, k), dtype=bool)
        allowed[self._qi, self._qj] = True
        allowed[self._qj, self._qi] = True
        off = np.abs(cov[~allowed])
        if off.size and off.max() > 1e-10 * max(1.0, np.abs(np.diag(cov)).max()):
            raise ValueError("cov has nonzero entries outside the declared blocks")
        # Invert block by block so the precision keeps the same zero pattern.
        lam = np.zeros((k, k))
        for block in self.blocks:
            ix = np.ix_(block, block)
            sub = 0.5 * (cov[ix] + cov[ix].T)
            try:
                factor = cho_factor(sub)
            except np.linalg.LinAlgError:
                raise ValueError("cov must be positive definite") from None
            lam[ix] = _cho_solve(factor, np.eye(len(block)))
        lam = 0.5 * (lam + lam.T)
        b = lam @ mean
        diag_pair = self._qi == self._qj
        qvals = lam[self._qi, self._qj]
        q = np.where(diag_pair, -0.5 * qvals, -qvals)
        return np.concatenate([b, q])

    def moments_from_natural(self, theta):
        """Map natural coordinates to a :class:`Moments` pair of read-only arrays."""
        record = self._factor(theta)
        return Moments(mean=record.mean, cov=record.cov)

    # ------------------------------------------------------------------
    # log partition and derived quantities

    def log_partition(self, theta):
        """Log normalizer g(theta) against Lebesgue measure."""
        return self._factor(theta).log_partition

    def log_density(self, theta, x):
        """Log density of pi_theta at x (vectorized over rows of x)."""
        t = self.suff_stat(x)
        g = self._factor(theta).log_partition
        theta = self._check_theta(theta)
        return t @ theta - g

    def _mean_suff_stat(self, mean, cov):
        quad = mean[self._qi] * mean[self._qj] + cov[self._qi, self._qj]
        return np.concatenate([mean, quad])

    def mean_suff_stat(self, theta):
        """E[T] under pi_theta, which equals grad g(theta)."""
        return self._mean_suff_stat(*self.moments_from_natural(theta))

    def fisher_info(self, theta):
        """Fisher information I(theta) = Cov[T] under pi_theta.

        Assembled from the Gaussian moment identities
        Cov(x_a, x_i x_j) = mu_i S_aj + mu_j S_ai and
        Cov(x_i x_j, x_k x_l) = S_ik S_jl + S_il S_jk + mu_i mu_k S_jl
        + mu_i mu_l S_jk + mu_j mu_k S_il + mu_j mu_l S_ik, with S the
        covariance.
        """
        mean, cov = self.moments_from_natural(theta)
        k, d = self.predictor_dim, self.dim
        qi, qj = self._qi, self._qj
        info = np.empty((d, d))
        info[:k, :k] = cov
        cross = cov[:, qj] * mean[qi][None, :] + cov[:, qi] * mean[qj][None, :]
        info[:k, k:] = cross
        info[k:, :k] = cross.T
        info[k:, k:] = _quad_cov(mean, cov, qi[:, None], qj[:, None], qi[None, :], qj[None, :])
        return info

    def _fisher_diag(self, theta):
        """``diag(fisher_info(theta))``, from the same expressions on the diagonal only."""
        mean, cov = self.moments_from_natural(theta)
        qi, qj = self._qi, self._qj
        return np.concatenate([np.diag(cov), _quad_cov(mean, cov, qi, qj, qi, qj)])

    def kl(self, theta1, theta2):
        """KL divergence KL(pi_theta1 || pi_theta2).

        Uses the exponential-family identity
        KL = (theta1 - theta2) . grad g(theta1) - g(theta1) + g(theta2).
        Raises :class:`DomainError` when either parameter lies outside the
        domain.
        """
        theta1 = self._check_theta(theta1)
        theta2 = self._check_theta(theta2)
        first = self._factor(theta1)
        m1 = self._mean_suff_stat(first.mean, first.cov)
        second = self._factor(theta2)
        return float((theta1 - theta2) @ m1 - first.log_partition + second.log_partition)

    # ------------------------------------------------------------------
    # sampling

    def sample(self, theta, n, seed):
        """Draw ``n`` predictors from pi_theta.

        Parameters
        ----------
        theta : array_like
            Natural parameter inside the domain.
        n : int
            Number of draws, at least 1.
        seed : int or numpy.random.SeedSequence
            Stream identifier; equal seeds give bit-identical draws.
        """
        n = int(n)
        if n < 1:
            raise ValueError("n must be at least 1")
        record = self._factor(theta)
        chol = record.cov_factor
        rng = np.random.Generator(np.random.Philox(seed))
        z = rng.standard_normal((n, self.predictor_dim))
        return record.mean + z @ chol.T

    # ------------------------------------------------------------------
    # construction from a config

    @classmethod
    def from_dict(cls, data):
        return cls(
            predictor_dim=data["predictor_dim"],
            structure=data.get("structure", "full"),
            blocks=data.get("blocks"),
        )


def params_to_json(theta):
    """Serialize a natural parameter as a flat JSON array."""
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1:
        raise ValueError("natural parameter must be a flat vector")
    return json.dumps([float(v) for v in arr])


def params_from_json(text):
    """Inverse of :func:`params_to_json`."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a flat JSON array of coordinates")
    return np.asarray(data, dtype=float)


def standard_normal_params(family):
    """Natural coordinates of N(0, I) in ``family``."""
    k = family.predictor_dim
    return family.natural_from_moments(np.zeros(k), np.eye(k))
