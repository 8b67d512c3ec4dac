"""Affine standardization of targets.

Fitting works best when the target has roughly zero mean and unit scale, so
we estimate first and second moments by self-normalized importance sampling,
form the transform z_std = L^{-1}(z - mu) with L the Cholesky factor of the
estimated covariance, and fit in standardized coordinates.  The pushforward
target is an exact change of variables, and so is the fitted density read
back as `OfeDensity(basis, coeffs, transform)`, so nothing about the fit
itself is approximate.  `density` imports this module, not the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .exceptions import ProposalSupportError, TransformError
from .utils import as_batch, as_floats


@dataclass(frozen=True)
class StandardizingTransform:
    """z_std = chol^{-1} (z - mean), with chol lower triangular.

    `inv_chol` is chol^{-1}, computed once, so mapping a batch to standard
    coordinates is one small matrix product.
    """

    mean: np.ndarray
    chol: np.ndarray
    inv_chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = as_floats(self.mean, "mean", 1, TransformError)
        chol = as_floats(self.chol, "chol", 2, TransformError)
        if chol.shape != (mean.size, mean.size):
            raise TransformError("chol shape does not match mean")
        if np.any(np.triu(chol, 1) != 0.0):
            raise TransformError("chol must be lower triangular")
        if np.any(np.diag(chol) <= 0.0):
            raise TransformError("chol must have a positive diagonal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "inv_chol", np.linalg.inv(chol))

    @classmethod
    def from_moments(cls, mean, cov) -> "StandardizingTransform":
        try:
            chol = np.linalg.cholesky(cov)
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
        return (as_batch(z, self.dim) - self.mean) @ self.inv_chol.T

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


@_blas.pinned()
def estimate_moments(target, proposal, n_samples: int, rng: np.random.Generator):
    """Self-normalized importance estimates of target mean and covariance.

    The covariance gets a small diagonal ridge, 1e-8 * trace/dim, so the
    Cholesky factorization downstream cannot fail on a rank-deficient
    estimate.  The weighted sums over the draws are BLAS products, which
    sum in a different order at a different thread count, so the call runs
    with BLAS pinned (`_blas.pinned`).
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
