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
order up to it.  A table holds values only: phi'_1..phi'_K lie in the span of
phi_1..phi_{K+1}, so `ProductBasis.tables` forms a derivative table as one exact
(K, K+1) matrix per family (`derivative_matrix`) times the values one order up.
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
        z, big = np.asarray(z), np.finfo(float).max
        # Infinite edges stand in as the largest float, and a nan is the min and the max:
        # one closed test of the two refuses +-inf and nan.
        if z.size and not (np.min(z) >= max(lo, -big) and np.max(z) <= min(hi, big)):
            raise SupportError(f"point outside {self.kind} support [{lo}, {hi}]")


def _three_term(order, first, second, step):
    """Rows p_0..p_{order-1} of the three-term recurrence p_k = (a_k p_{k-1} - b_k p_{k-2}) / c_k.

    `step(k, scratch)` returns (a_k, b_k, c_k); the array a_k may be written into
    `scratch`, which the b term then reuses, so each row is built in its own slot.
    """
    rows = np.empty((max(order, 2), second.shape[0]))
    rows[0], rows[1] = first, second
    scratch = np.empty(second.shape[0])
    for k in range(2, order):
        a, b, c = step(k, scratch)
        row = rows[k]
        np.multiply(a, rows[k - 1], out=row)
        row -= np.multiply(b, rows[k - 2], out=scratch)
        row /= c
    return rows[:order]


def _hermite_tables(order, z):
    # Normalized values carried through z*phi_k = sqrt(k)*phi_{k+1} + sqrt(k-1)*phi_{k-1}.
    first = (2.0 * math.pi) ** (-0.25) * np.exp(-0.25 * z * z)
    return _three_term(order, first, z * first, lambda k, _: (z, math.sqrt(k - 1), math.sqrt(k)))


def _legendre_tables(order, z):
    p = _three_term(order, 1.0, z, lambda k, s: (np.multiply(2 * k - 1, z, out=s), k - 1, k))
    p *= np.sqrt((2.0 * np.arange(1, order + 1) - 1.0) / 2.0)[:, None]
    return p


def _fourier_tables(order, z):
    vals = np.empty((order, z.shape[0]))
    vals[0] = (2.0 * math.pi) ** (-0.5)
    inv_sqrt_pi = math.pi ** (-0.5)
    for k in range(2, order + 1):
        m = k // 2
        vals[k - 1] = (np.cos(m * z) if k % 2 == 0 else np.sin(m * z)) * inv_sqrt_pi
    return vals


def _laguerre_tables(order, z):
    # Standard Laguerre polynomials are orthonormal against exp(-z), so the
    # weighted functions exp(-z/2)*L_k(z) need no extra scale.
    p = _three_term(order, 1.0, 1.0 - z, lambda k, s: (np.subtract(2 * k - 1, z, out=s), k - 1, k))
    p *= np.exp(-0.5 * z)
    return p


_TABLE_BUILDERS = {
    HERMITE: _hermite_tables,
    LEGENDRE: _legendre_tables,
    FOURIER: _fourier_tables,
    LAGUERRE: _laguerre_tables,
}


def derivative_matrix(family: BasisFamily, order: int) -> np.ndarray:
    """D (order, order + 1) with phi'_k = sum_j D[k-1, j-1] phi_j.

    With psi_n = phi_{n+1}: Hermite psi'_n = (sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}) / 2;
    Legendre psi'_n = sum of sqrt((2n+1)(2m+1)) psi_m over m < n with n - m odd; Fourier
    cos(m.)' = -m sin(m.) and sin(m.)' = m cos(m.), so an even order needs phi_{order+1};
    Laguerre psi'_n = -psi_n / 2 - sum_{m<n} psi_m.
    """
    n = np.arange(order)
    d = np.zeros((order, order + 1))
    if family.kind == HERMITE:
        d[n[1:], n[:-1]] = 0.5 * np.sqrt(n[1:])
        d[n, n + 1] = -0.5 * np.sqrt(n + 1.0)
    elif family.kind == LEGENDRE:
        s = np.sqrt(2.0 * n + 1.0)
        d[:, :order] = np.where((n[:, None] > n) & ((n[:, None] - n) % 2 == 1), np.outer(s, s), 0.0)
    elif family.kind == FOURIER:
        cos, sin = n[1::2], n[2::2]
        d[cos, cos + 1] = -((cos + 1) // 2)
        d[sin, sin - 1] = sin // 2
    else:
        d[:, :order] = -np.tri(order, k=-1) - 0.5 * np.eye(order)
    return d


def basis_tables(family: BasisFamily, order: int, z) -> np.ndarray:
    """Values of phi_1..phi_order at points z.

    Parameters
    ----------
    family : BasisFamily
    order : int
        Highest basis index to evaluate (inclusive, 1-based): at most MAX_ORDER + 1,
        the values one order up that the derivatives at the cap read.
    z : array_like, shape (n,)
        Evaluated on a contiguous copy when strided: each row of the table's
        recurrence is a pass over z.

    Returns
    -------
    vals : ndarray, shape (order, n)
        vals[k-1, i] = phi_k(z_i).
    """
    family.check_order(order - 1 if order == MAX_ORDER + 1 else order)
    z = np.ascontiguousarray(z, dtype=float)
    family.check_support(z)
    return _TABLE_BUILDERS[family.kind](order, z)
