"""Synthetic benchmark targets.

Every target exposes a normalized log density and its analytic gradient (the
score), both of an (n, D) batch of points, and an exact sampler, so forward KL
against a fitted density is well defined.  The 2-D mixture, funnel, and cross fixtures and the sinh-arcsinh
triples reproduce standard benchmark parameter sets; `make_target` builds
targets by name for the experiment harness.

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
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

from .exceptions import ConfigError
from .utils import as_batch

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal with arbitrary symmetric positive definite covariance."""

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", cholesky(cov, lower=True))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_density(self, z):
        z = as_batch(z, self.dim)
        y = solve_triangular(self._chol, (z - self.mean).T, lower=True)
        ld = -0.5 * self.dim * LOG_2PI - np.sum(np.log(np.diag(self._chol)))
        return ld - 0.5 * np.sum(y * y, axis=0)

    def score(self, z):
        z = as_batch(z, self.dim)
        y = solve_triangular(self._chol, (z - self.mean).T, lower=True)
        return -solve_triangular(self._chol, y, lower=True, trans="T").T

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        xi = rng.standard_normal((n, self.dim))
        return self.mean + xi @ self._chol.T


class GaussianMixture:
    """Finite mixture of Gaussians with analytic responsibility-weighted score."""

    def __init__(self, weights, means, covs):
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to one")
        self.weights = weights
        self.components = [Gaussian(m, c) for m, c in zip(means, covs)]
        if len(self.components) != weights.size:
            raise ValueError("one mean/cov pair per weight required")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ValueError("all components must share a dimension")
        self.dim = dims.pop()

    def _component_logs(self, z):
        return np.stack([c.log_density(z) for c in self.components], axis=1)

    def log_density(self, z):
        z = as_batch(z, self.dim)
        lp = self._component_logs(z) + np.log(self.weights)
        return logsumexp(lp, axis=1)

    def score(self, z):
        z = as_batch(z, self.dim)
        lp = self._component_logs(z) + np.log(self.weights)
        resp = np.exp(lp - logsumexp(lp, axis=1, keepdims=True))
        out = np.zeros_like(z)
        for k, c in enumerate(self.components):
            out += resp[:, k : k + 1] * c.score(z)
        return out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        counts = rng.multinomial(n, self.weights)
        parts = [c.sample(rng, m) for c, m in zip(self.components, counts) if m > 0]
        out = np.concatenate(parts, axis=0)
        return out[rng.permutation(n)]


@dataclass(frozen=True)
class Funnel:
    """2-D funnel: z1 ~ N(0, sigma2), z2 | z1 ~ N(0, exp(z1/2))."""

    sigma2: float = 1.2
    dim: int = field(default=2, init=False)

    def __post_init__(self):
        if not self.sigma2 > 0:
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
        self.s = np.atleast_1d(np.asarray(s, dtype=float))
        self.tau = np.atleast_1d(np.asarray(tau, dtype=float))
        if np.any(self.tau <= 0):
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
            + np.sum(log_c + np.log(self.tau) - 0.5 * np.log1p(z**2), axis=1)
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
    except TypeError as exc:
        raise ConfigError(f"bad parameters for target {name!r}: {exc}") from None
