"""Proposal distributions for the importance-sampled divergence estimator.

Both kinds evaluate an exactly normalized density and draw i.i.d. samples
from a caller-owned numpy Generator.  When a standardizing transform is in
use, proposals live in the standardized coordinate system.  Defaults follow
the usual protocol: a centered uniform box of half-width 6 after
standardization, or an isotropic Gaussian with variance 9 for heavier tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .utils import as_batch


def _check_peak(peak, what: str) -> None:
    """Refuse a proposal whose largest density is not a positive finite float."""
    if not (np.isfinite(peak) and peak > 0.0):
        raise ValueError(f"{what} has a peak density of {peak}, which is not representable")


@dataclass(frozen=True)
class UniformBox:
    """Uniform density on the axis-aligned box [lo_1, hi_1] x ... x [lo_D, hi_D]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lo, dtype=float))
        hi = np.atleast_1d(np.array(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("lo and hi must be finite")
        if np.any(lo >= hi):
            raise ValueError("need lo < hi in every dimension")
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            volume = np.prod(hi - lo)
            _check_peak(1.0 / volume, f"a box of volume {volume}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def centered(cls, halfwidth: float, dim: int) -> "UniformBox":
        return cls(np.full(dim, -float(halfwidth)), np.full(dim, float(halfwidth)))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def density(self, z):
        z = as_batch(z, self.dim)
        inside = np.all((z >= self.lo) & (z <= self.hi), axis=1)
        return inside / np.prod(self.hi - self.lo)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("need at least one sample")
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))


@dataclass(frozen=True)
class IsotropicGaussian:
    """N(mean, variance * I)."""

    mean: np.ndarray
    variance: float
    dim: int = field(init=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.array(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if not 0 < self.variance < np.inf:
            raise ValueError("variance must be positive and finite")
        variance = float(self.variance)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            norm = np.power(2.0 * np.pi * variance, mean.shape[0] / 2.0)
            _check_peak(1.0 / norm, f"variance {variance} in {mean.shape[0]} dimensions")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "dim", mean.shape[0])

    def density(self, z):
        z = as_batch(z, self.dim)
        d2 = np.sum((z - self.mean) ** 2, axis=1)
        return np.exp(-0.5 * d2 / self.variance) / (2.0 * np.pi * self.variance) ** (self.dim / 2.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("need at least one sample")
        return self.mean + np.sqrt(self.variance) * rng.standard_normal((n, self.dim))


Proposal = UniformBox | IsotropicGaussian

