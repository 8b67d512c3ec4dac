"""Cartesian products of 1-D basis families.

A D-dimensional basis function is a product of one 1-D function per
dimension.  Its multi-index (m_1, ..., m_D), 0-based with m_d < K_d, maps to
a row of the K = prod(K_d) features in numpy C order (last dimension
fastest): row `np.ravel_multi_index(m, orders)`, and back through
`np.unravel_index`.  The layout is load-bearing: weight vectors reshape to
tensors of shape (K_1, ..., K_D) in that order, and the contraction code in
`density` relies on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas
from .basis1d import BasisFamily, basis_tables, derivative_matrix
from .utils import as_batch, as_integer, as_list


@dataclass(frozen=True)
class ProductBasis:
    families: tuple[BasisFamily, ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        orders = as_list(self.orders, "orders")
        object.__setattr__(self, "orders", tuple(as_integer(k, "orders", 1) for k in orders))
        if len(self.families) != len(self.orders):
            raise ValueError("families and orders must have equal length")
        if not self.families:
            raise ValueError("product basis needs at least one dimension")
        for fam, k in zip(self.families, self.orders):
            fam.check_order(k)

    @classmethod
    def uniform(cls, family: BasisFamily, order: int, dim: int) -> "ProductBasis":
        """Same family and order in every dimension."""
        return cls((family,) * dim, (order,) * dim)

    @property
    def dim(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @_blas.pinned()
    def tables(self, z: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-dimension values and derivatives, each (K_d, n), at points z of shape (n, D).

        A derivative table is `derivative_matrix(f, K_d)` @ the values one
        order up, a GEMM run with BLAS pinned, so that its bits do not
        depend on the thread count also outside a fit.
        """
        z = as_batch(z, self.dim)
        vals, grads = [], []
        for d, (fam, kd) in enumerate(zip(self.families, self.orders)):
            up = basis_tables(fam, kd + 1, z[:, d])
            vals.append(up[:kd])
            grads.append(derivative_matrix(fam, kd) @ up)
        return vals, grads

    def feature_matrix(self, z: np.ndarray) -> np.ndarray:
        """All K product-basis values at each point: shape (K, n)."""
        return self.feature_gradients(z)[0]

    def feature_gradients(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Product values (K, n) and their gradients (K, n, D), a view of one (K, D, n) array."""
        vals, grads = self.tables(z)
        n, last = vals[0].shape[1], self.orders[-1]
        feats, out = np.empty((self.size, n)), np.empty((self.size, self.dim, n))
        _combine(vals, feats.reshape(-1, last, n))
        split = out.reshape(-1, last, self.dim, n)
        for d in range(self.dim):
            _combine(vals[:d] + [grads[d]] + vals[d + 1 :], split[:, :, d, :])
        return feats, out.transpose(0, 2, 1)


def _combine(tables: list[np.ndarray], out: np.ndarray) -> None:
    """Row-major outer product of per-dimension tables, each (K_d, n), written into `out`.

    `out` has shape (K / K_D, K_D, n), such as a strided view of a larger
    array.  The product starts from a row of ones, which every factor
    multiplies exactly, so one path serves every D.
    """
    acc = np.ones((1, tables[0].shape[1]))
    for t in tables[:-1]:
        acc = (acc[:, None, :] * t[None, :, :]).reshape(-1, t.shape[1])
    np.multiply(acc[:, None, :], tables[-1][None, :, :], out=out)
