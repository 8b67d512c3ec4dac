"""Affine standardization of targets.

Fitting works best when the target has roughly zero mean and unit scale, so
we estimate first and second moments by self-normalized importance sampling,
form the transform z_std = L^{-1}(z - mu) with L the Cholesky factor of the
estimated covariance, and fit in standardized coordinates.  The pushforward
target and the pullback of the fitted density are exact changes of variables,
so nothing about the fit itself is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .density import OfeDensity
from .exceptions import ProposalSupportError, TransformError
from .utils import as_batch


@dataclass(frozen=True)
class StandardizingTransform:
    """z_std = chol^{-1} (z - mean), with chol lower triangular."""

    mean: np.ndarray
    chol: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        chol = np.atleast_2d(np.asarray(self.chol, dtype=float))
        if chol.shape != (mean.size, mean.size):
            raise TransformError("chol shape does not match mean")
        if np.any(np.triu(chol, 1) != 0.0):
            raise TransformError("chol must be lower triangular")
        if np.any(np.diag(chol) <= 0.0):
            raise TransformError("chol must have a positive diagonal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "chol", chol)

    @classmethod
    def from_moments(cls, mean, cov) -> "StandardizingTransform":
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        try:
            chol = cholesky(cov, lower=True)
        except np.linalg.LinAlgError as exc:
            raise TransformError("estimated covariance is not positive definite") from exc
        return cls(mean, chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def log_det(self) -> float:
        return float(np.sum(np.log(np.diag(self.chol))))

    def to_standard(self, z):
        z = as_batch(z, self.dim)
        return solve_triangular(self.chol, (z - self.mean).T, lower=True).T

    def from_standard(self, z_std):
        return self.mean + as_batch(z_std, self.dim) @ self.chol.T

    def scale_moments(self, mean_std, cov_std):
        """Map moments of the standardized density back to original coordinates."""
        mean = self.mean + self.chol @ np.asarray(mean_std, dtype=float)
        cov = self.chol @ np.asarray(cov_std, dtype=float) @ self.chol.T
        return mean, cov


class StandardizedTarget:
    """Pushforward of a target through a standardizing transform.

    log p_std(z_std) = log p(T(z_std)) + log|det chol| and the score picks up
    a factor of chol^T; both follow from the change of variables
    z = chol @ z_std + mean.
    """

    def __init__(self, target, transform: StandardizingTransform):
        if target.dim != transform.dim:
            raise TransformError("target and transform dimensions differ")
        self.target = target
        self.transform = transform
        self.dim = target.dim

    def log_density(self, z_std):
        z = self.transform.from_standard(z_std)
        return self.target.log_density(z) + self.transform.log_det

    def score(self, z_std):
        z = self.transform.from_standard(z_std)
        return self.target.score(z) @ self.transform.chol

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.transform.to_standard(self.target.sample(rng, n))


def pull_density(q_std: OfeDensity, transform: StandardizingTransform) -> OfeDensity:
    """Attach a transform so a density fitted in standardized coordinates
    evaluates, samples, and reports moments in original coordinates."""
    if q_std.transform is not None:
        raise TransformError("density already carries a transform")
    return OfeDensity(q_std.basis, q_std.coeffs, transform)


def estimate_moments(target, proposal, n_samples: int, rng: np.random.Generator):
    """Self-normalized importance estimates of target mean and covariance.

    The covariance gets a small diagonal ridge, 1e-8 * trace/dim, so the
    Cholesky factorization downstream cannot fail on a rank-deficient
    estimate.
    """
    z = proposal.sample(rng, n_samples)
    log_w = target.log_density(z) - np.log(proposal.density(z))
    log_w = np.asarray(log_w, dtype=float)
    finite = np.isfinite(log_w)
    if not np.any(finite):
        raise ProposalSupportError("no proposal draw landed in the target's support")
    log_w[~finite] = -np.inf
    w = np.exp(log_w - np.max(log_w[finite]))
    w /= w.sum()
    mean = w @ z
    centered = z - mean
    cov = (w[:, None] * centered).T @ centered
    dim = z.shape[1]
    cov += 1e-8 * (np.trace(cov) / dim) * np.eye(dim)
    return mean, cov


def estimate_transform(target, proposal, n_samples: int, rng: np.random.Generator) -> StandardizingTransform:
    mean, cov = estimate_moments(target, proposal, n_samples, rng)
    return StandardizingTransform.from_moments(mean, cov)
