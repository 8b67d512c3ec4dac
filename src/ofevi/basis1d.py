"""One-dimensional orthonormal basis families.

Each family is normalized so that the squares of its basis functions
integrate to one over the family's support.  Indexing is 1-based: phi_1 is
the lowest-order (constant or weighted-constant) function.  The real-line
family consists of weighted probabilist's Hermite polynomials,

    phi_{k+1}(z) = (sqrt(2*pi) * k!)^(-1/2) * exp(-z^2/4) * H_k(z),

evaluated through the normalized three-term recurrence so that no factorial
or raw polynomial value is ever formed.  The other families are normalized
Legendre polynomials on [-1, 1], the Fourier functions {1, cos, sin,
cos 2., sin 2., ...} on [0, 2*pi], and weighted Laguerre functions
exp(-z/2) * L_k(z) on [0, inf).  A family is `BasisFamily(kind)` and
`basis_tables` evaluates it.  One cap, `MAX_ORDER = 64`, holds for every
family: the tables, quadrature, moments and sampling are checked at every
order up to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import OrderLimitError, SupportError

HERMITE = "hermite"
LEGENDRE = "legendre"
FOURIER = "fourier"
LAGUERRE = "laguerre"

MAX_ORDER = 64

_SUPPORTS = {
    HERMITE: (-math.inf, math.inf),
    LEGENDRE: (-1.0, 1.0),
    FOURIER: (0.0, 2.0 * math.pi),
    LAGUERRE: (0.0, math.inf),
}


@dataclass(frozen=True)
class BasisFamily:
    """A 1-D orthonormal family, identified by its kind."""

    kind: str

    def __post_init__(self):
        if self.kind not in _SUPPORTS:
            raise ValueError(f"unknown basis kind {self.kind!r}")

    @property
    def support(self) -> tuple[float, float]:
        return _SUPPORTS[self.kind]

    def check_order(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"basis index must be >= 1, got {k}")
        if k > MAX_ORDER:
            raise OrderLimitError(f"basis index {k} exceeds MAX_ORDER={MAX_ORDER}")

    def check_support(self, z: np.ndarray) -> None:
        lo, hi = self.support
        z = np.asarray(z)
        if not np.all(np.isfinite(z)) or np.any(z < lo) or np.any(z > hi):
            raise SupportError(f"point outside {self.kind} support [{lo}, {hi}]")


def _hermite_tables(order, z, derivatives):
    # Normalized values carried through z*phi_k = sqrt(k)*phi_{k+1} + sqrt(k-1)*phi_{k-1};
    # one extra order is produced because phi'_k needs phi_{k+1}.
    n = z.shape[0]
    top = order + 1 if derivatives else order
    vals = np.empty((max(top, 2), n))
    vals[0] = (2.0 * math.pi) ** (-0.25) * np.exp(-0.25 * z * z)
    vals[1] = z * vals[0]
    for k in range(2, top):
        vals[k] = (z * vals[k - 1] - math.sqrt(k - 1) * vals[k - 2]) / math.sqrt(k)
    if not derivatives:
        return vals[:order], None
    grads = np.empty((order, n))
    # phi'_k = (sqrt(k-1)*phi_{k-1} - sqrt(k)*phi_{k+1}) / 2
    grads[0] = -0.5 * vals[1]
    for k in range(2, order + 1):
        grads[k - 1] = 0.5 * (math.sqrt(k - 1) * vals[k - 2] - math.sqrt(k) * vals[k])
    return vals[:order], grads


def _legendre_tables(order, z, derivatives):
    n = z.shape[0]
    p = np.empty((order, n))
    p[0] = 1.0
    if order >= 2:
        p[1] = z
    for k in range(2, order):
        p[k] = ((2 * k - 1) * z * p[k - 1] - (k - 1) * p[k - 2]) / k
    scale = np.sqrt((2.0 * np.arange(1, order + 1) - 1.0) / 2.0)[:, None]
    if not derivatives:
        return p * scale, None
    dp = np.empty((order, n))
    dp[0] = 0.0
    if order >= 2:
        dp[1] = 1.0
    for k in range(2, order):
        dp[k] = dp[k - 2] + (2 * k - 1) * p[k - 1]
    return p * scale, dp * scale


def _fourier_tables(order, z, derivatives):
    n = z.shape[0]
    vals = np.empty((order, n))
    grads = np.empty((order, n)) if derivatives else None
    vals[0] = (2.0 * math.pi) ** (-0.5)
    if derivatives:
        grads[0] = 0.0
    inv_sqrt_pi = math.pi ** (-0.5)
    for k in range(2, order + 1):
        m = k // 2
        if k % 2 == 0:
            vals[k - 1] = np.cos(m * z) * inv_sqrt_pi
            if derivatives:
                grads[k - 1] = -m * np.sin(m * z) * inv_sqrt_pi
        else:
            vals[k - 1] = np.sin(m * z) * inv_sqrt_pi
            if derivatives:
                grads[k - 1] = m * np.cos(m * z) * inv_sqrt_pi
    return vals, grads


def _laguerre_tables(order, z, derivatives):
    # Standard Laguerre polynomials are orthonormal against exp(-z), so the
    # weighted functions exp(-z/2)*L_k(z) need no extra scale.
    n = z.shape[0]
    lag = np.empty((order, n))
    lag[0] = 1.0
    if order >= 2:
        lag[1] = 1.0 - z
    for k in range(2, order):
        lag[k] = ((2 * k - 1 - z) * lag[k - 1] - (k - 1) * lag[k - 2]) / k
    w = np.exp(-0.5 * z)
    if not derivatives:
        return lag * w, None
    dlag = np.empty((order, n))
    dlag[0] = 0.0
    if order >= 2:
        dlag[1] = -1.0
    for k in range(2, order):
        dlag[k] = dlag[k - 1] - lag[k - 1]
    return lag * w, (dlag - 0.5 * lag) * w


_TABLE_BUILDERS = {
    HERMITE: _hermite_tables,
    LEGENDRE: _legendre_tables,
    FOURIER: _fourier_tables,
    LAGUERRE: _laguerre_tables,
}


def basis_tables(
    family: BasisFamily, order: int, z, derivatives: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Values and derivatives of phi_1..phi_order at points z.

    Parameters
    ----------
    family : BasisFamily
    order : int
        Highest basis index to evaluate (inclusive, 1-based).
    z : array_like, shape (n,)
    derivatives : bool
        False skips the derivatives, and grads is None; vals are the same
        bits either way.

    Returns
    -------
    vals, grads : ndarray, shape (order, n)
        vals[k-1, i] = phi_k(z_i) and grads[k-1, i] = phi'_k(z_i).
    """
    family.check_order(order)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    family.check_support(z)
    return _TABLE_BUILDERS[family.kind](order, z, derivatives)
