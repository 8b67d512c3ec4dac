"""Synthetic benchmark targets.

Every target exposes a normalized log density and its analytic gradient (the
score), both of an (n, D) batch of points, and an exact sampler, so forward KL
against a fitted density is well defined.  The 2-D mixture, funnel, and cross fixtures and the sinh-arcsinh
triples reproduce standard benchmark parameter sets; `make_target` builds
targets by name for the experiment harness.  Sums and maxima over a
point's few coordinates or a mixture's few components run along the
columns (`utils.row_sums`), with the bits of numpy's row reductions: a row
reduction per point is slower than the work it does.

Conventions that the formulas rely on:

* Funnel: p(z) = N(z1 | 0, sigma2) * N(z2 | 0, exp(z1/2)), where the second
  argument of N is the VARIANCE in both factors.
* Sinh-arcsinh: the density uses the forward map
  S_d(z) = sinh(tau_d * asinh(z_d) - s_d); the sampler applies its exact
  inverse z_d = sinh((asinh(w_d) + s_d) / tau_d) to w ~ N(0, cov).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError
from .standardize import StandardizingTransform
from .utils import as_batch, as_floats, row_sums

LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of an (n, m) array, shifted by each row's largest finite entry.

    The row maxima and sums run along the columns (`row_sums`), as a mixture
    has few components and many points.
    """
    top = a[:, 0].copy()
    for column in a.T[1:]:
        np.maximum(top, column, out=top)
    top[~np.isfinite(top)] = 0.0
    return np.log(row_sums(np.exp(a - top[:, None]))) + top


@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal with arbitrary symmetric positive definite covariance.

    It is a standard normal mapped by `StandardizingTransform(mean, L)`, L
    the Cholesky factor of the covariance, whose L^-1 and the score's
    precision L^-T L^-1 are computed once: evaluation is one small matrix
    product per batch.
    """

    mean: np.ndarray
    cov: np.ndarray
    _transform: StandardizingTransform = field(init=False, repr=False)
    _precision: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = as_floats(self.mean, "mean", 1)
        cov = as_floats(self.cov, "cov", 2)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean")
        # cholesky reads only the lower triangle, so it would silently
        # replace an asymmetric matrix with its symmetric lower part.
        if np.any(np.abs(cov - cov.T) > 1e-12 * np.max(np.abs(cov))):
            raise ValueError("covariance must be symmetric")
        transform = StandardizingTransform(mean, np.linalg.cholesky(cov))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_transform", transform)
        object.__setattr__(self, "_precision", transform.inv_chol.T @ transform.inv_chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_density(self, z):
        y = self._transform.to_standard(z)
        ld = -0.5 * self.dim * LOG_2PI - self._transform.log_det
        return ld - 0.5 * row_sums(y * y)

    def score(self, z):
        return -(as_batch(z, self.dim) - self.mean) @ self._precision

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._transform.from_standard(rng.standard_normal((n, self.dim)))


class GaussianMixture:
    """Finite mixture of Gaussians with analytic responsibility-weighted score.

    A zero weight is allowed: its log weight is -inf and its component drops
    out of the density and the score.
    """

    def __init__(self, weights, means, covs):
        weights = as_floats(weights, "weights", 1)
        if not np.all(weights >= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to one")
        self.weights = weights
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(weights)
        means, covs = list(means), list(covs)
        if not len(means) == len(covs) == weights.size:
            raise ValueError("one mean/cov pair per weight required")
        self.components = [Gaussian(m, c) for m, c in zip(means, covs)]
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ValueError("all components must share a dimension")
        self.dim = dims.pop()

    def _component_logs(self, z):
        return np.stack([c.log_density(z) for c in self.components], axis=1)

    def log_density(self, z):
        z = as_batch(z, self.dim)
        lp = self._component_logs(z) + self._log_weights
        return logsumexp(lp)

    def score(self, z):
        z = as_batch(z, self.dim)
        lp = self._component_logs(z) + self._log_weights
        resp = np.exp(lp - logsumexp(lp)[:, None])
        out = np.zeros_like(z)
        for k, c in enumerate(self.components):
            out += resp[:, k : k + 1] * c.score(z)
        return out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        counts = rng.multinomial(n, self.weights)
        # No name holds the component draws, so they are freed before the gather.
        out = np.concatenate([c.sample(rng, m) for c, m in zip(self.components, counts) if m > 0])
        return out[rng.permutation(n)]


@dataclass(frozen=True)
class Funnel:
    """2-D funnel: z1 ~ N(0, sigma2), z2 | z1 ~ N(0, exp(z1/2))."""

    sigma2: float = 1.2
    dim: int = field(default=2, init=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma2", float(as_floats(self.sigma2, "sigma2", 0)))
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")

    def log_density(self, z):
        z = as_batch(z, 2)
        z1, z2 = z[:, 0], z[:, 1]
        return (
            -0.5 * np.log(2.0 * np.pi * self.sigma2)
            - 0.5 * z1**2 / self.sigma2
            - 0.5 * LOG_2PI
            - 0.25 * z1
            - 0.5 * z2**2 * np.exp(-0.5 * z1)
        )

    def score(self, z):
        z = as_batch(z, 2)
        z1, z2 = z[:, 0], z[:, 1]
        inv_var = np.exp(-0.5 * z1)
        return np.stack(
            [-z1 / self.sigma2 - 0.25 + 0.25 * z2**2 * inv_var, -z2 * inv_var],
            axis=1,
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z1 = np.sqrt(self.sigma2) * rng.standard_normal(n)
        z2 = np.exp(0.25 * z1) * rng.standard_normal(n)
        return np.stack([z1, z2], axis=1)


class SinhArcsinh:
    """Sinh-arcsinh normal: a Gaussian warped per dimension by skew s and tail weight tau."""

    def __init__(self, s, tau, cov):
        self.s = as_floats(s, "s", 1)
        self.tau = as_floats(tau, "tau", 1)
        if not np.all(self.tau > 0):
            raise ValueError("tau must be strictly positive")
        self.base = Gaussian(np.zeros(self.s.size), cov)
        if self.s.shape != self.tau.shape or self.s.size != self.base.dim:
            raise ValueError("s, tau, and cov dimensions must agree")
        self.dim = self.base.dim

    def _warp(self, z):
        # y = tau*asinh(z) - s, S = sinh(y), dS/dz = tau*cosh(y)/sqrt(1+z^2)
        y = self.tau * np.arcsinh(z) - self.s
        return y, np.sinh(y)

    def log_density(self, z):
        z = as_batch(z, self.dim)
        y, big_s = self._warp(z)
        # log cosh, immune to overflow for large |y|
        log_c = np.abs(y) + np.log1p(np.exp(-2.0 * np.abs(y))) - np.log(2.0)
        return (
            self.base.log_density(big_s)
            + row_sums(log_c + np.log(self.tau) - 0.5 * np.log1p(z**2))
        )

    def score(self, z):
        z = as_batch(z, self.dim)
        y, big_s = self._warp(z)
        root = np.sqrt(1.0 + z**2)
        ds = self.tau * np.cosh(y) / root
        return -z / (1.0 + z**2) + self.tau * np.tanh(y) / root + ds * self.base.score(big_s)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        w = self.base.sample(rng, n)
        return np.sinh((np.arcsinh(w) + self.s) / self.tau)


# ---------------------------------------------------------------------------
# Fixture parameter sets.

def bimodal_1d() -> GaussianMixture:
    """Two well-separated 1-D modes, roughly centered and unit scale."""
    return GaussianMixture(
        weights=[0.55, 0.45],
        means=[[-1.0], [1.2]],
        covs=[[[0.36]], [[0.36]]],
    )


def mixture_2d() -> GaussianMixture:
    """Three-component 2-D Gaussian mixture benchmark."""
    sigma = [[2.0, 0.1], [0.1, 2.0]]
    half = [[0.5, 0.0], [0.0, 0.5]]
    return GaussianMixture(
        weights=[0.4, 0.3, 0.3],
        means=[[-1.0, 1.0], [1.1, 1.1], [-1.0, -1.0]],
        covs=[sigma, half, half],
    )


def funnel_2d() -> Funnel:
    return Funnel(sigma2=1.2)


def cross_2d() -> GaussianMixture:
    """Four narrow Gaussians arranged in a cross."""
    v = 0.15**0.9
    s1 = [[v, 0.0], [0.0, 1.0]]
    s2 = [[1.0, 0.0], [0.0, v]]
    return GaussianMixture(
        weights=[0.25, 0.25, 0.25, 0.25],
        means=[[0.0, 2.0], [-2.0, 0.0], [2.0, 0.0], [0.0, -2.0]],
        covs=[s1, s2, s2, s1],
    )


_SINH_2D = {
    "slight_skew_tails": ([0.2, 0.2], [1.1, 1.1]),
    "more_skew_tails": ([0.2, 0.5], [1.1, 1.1]),
    "heavier_tails": ([0.2, 0.2], [1.4, 1.1]),
}

_SINH_5D = {
    1: ([0.0, 0.0, 0.2, 0.2, 0.2], [1.0, 1.0, 1.0, 1.0, 1.1]),
    2: ([0.0, 0.0, 0.6, 0.4, -0.5], [1.0, 1.0, 1.0, 1.0, 1.1]),
    3: ([0.2, 0.2, 0.2, 0.2, 0.2], [1.1, 1.1, 1.0, 1.4, 1.6]),
}


def sinh_arcsinh_2d(variant: str = "slight_skew_tails") -> SinhArcsinh:
    """2-D sinh-arcsinh fixtures with identity base covariance."""
    s, tau = _SINH_2D[variant]
    return SinhArcsinh(s, tau, np.eye(2))


def sinh_arcsinh_5d(variant: int = 1) -> SinhArcsinh:
    """5-D sinh-arcsinh fixtures over a banded base covariance."""
    cov = 2.2 * np.eye(5)
    for i, j in [(0, 1), (2, 3), (0, 4)]:
        cov[i, j] = cov[j, i] = 0.3
    s, tau = _SINH_5D[variant]
    return SinhArcsinh(s, tau, cov)


TARGET_REGISTRY = {
    "gaussian": Gaussian,
    "mixture": GaussianMixture,
    "funnel": Funnel,
    "sinh_arcsinh": SinhArcsinh,
    "bimodal1d": bimodal_1d,
    "mixture2d": mixture_2d,
    "funnel2d": funnel_2d,
    "cross2d": cross_2d,
    "sinh2d_slight_skew_tails": lambda: sinh_arcsinh_2d("slight_skew_tails"),
    "sinh2d_more_skew_tails": lambda: sinh_arcsinh_2d("more_skew_tails"),
    "sinh2d_heavier_tails": lambda: sinh_arcsinh_2d("heavier_tails"),
    "sinh5d_1": lambda: sinh_arcsinh_5d(1),
    "sinh5d_2": lambda: sinh_arcsinh_5d(2),
    "sinh5d_3": lambda: sinh_arcsinh_5d(3),
}


def make_target(name: str, **params):
    """Construct a registered target by name; a bad name or parameter is a ConfigError."""
    try:
        ctor = TARGET_REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown target {name!r}; known: {sorted(TARGET_REGISTRY)}") from None
    try:
        return ctor(**params)
    except (TypeError, ValueError) as exc:  # LinAlgError is a ValueError
        raise ConfigError(f"bad parameters for target {name!r}: {exc}") from None
