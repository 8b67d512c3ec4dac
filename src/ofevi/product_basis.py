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

from .basis1d import BasisFamily, basis_tables
from .utils import as_batch


@dataclass(frozen=True)
class ProductBasis:
    families: tuple[BasisFamily, ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "orders", tuple(int(k) for k in self.orders))
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

    def tables(
        self, z: np.ndarray, derivatives: bool = True
    ) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
        """Per-dimension value and derivative tables at points z of shape (n, D).

        derivatives=False skips the derivative tables; each is then None.
        """
        z = as_batch(z, self.dim)
        vals, grads = [], []
        for d, (fam, kd) in enumerate(zip(self.families, self.orders)):
            v, g = basis_tables(fam, kd, z[:, d], derivatives)
            vals.append(v)
            grads.append(g)
        return vals, grads

    def feature_matrix(self, z: np.ndarray) -> np.ndarray:
        """All K product-basis values at each point: shape (K, n)."""
        vals, _ = self.tables(z, derivatives=False)
        return _combine(vals)

    def feature_gradients(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Product values (K, n) and their gradients (K, n, D)."""
        vals, grads = self.tables(z)
        feats = _combine(vals)
        out = np.empty(feats.shape + (self.dim,))
        for d in range(self.dim):
            parts = [grads[e] if e == d else vals[e] for e in range(self.dim)]
            out[:, :, d] = _combine(parts)
        return feats, out


def _combine(tables: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Row-major outer product of per-dimension tables, each (K_d, n) -> (K, n).

    With `out`, an array of shape (K / K_D, K_D, n) such as a strided view
    of a larger array, the last product is written into it (the single
    table is copied when D = 1) and `out` is returned.  The multiplication
    order is the same either way, so the values are the same bits.
    """
    acc = tables[0]
    for t in tables[1:-1]:
        acc = (acc[:, None, :] * t[None, :, :]).reshape(-1, t.shape[1])
    if len(tables) == 1:
        if out is not None:
            np.copyto(out, acc)
            return out
        return acc
    last = tables[-1]
    if out is None:
        return (acc[:, None, :] * last[None, :, :]).reshape(-1, last.shape[1])
    return np.multiply(acc[:, None, :], last[None, :, :], out=out)
