"""Cartesian products of 1-D basis families.

A D-dimensional basis function is a product of one 1-D function per
dimension.  Multi-indices (m_1, ..., m_D) with m_d in 1..K_d are flattened
row-major (last dimension fastest) into flat indices 1..K, K = prod(K_d).
The flattening order is load-bearing: weight vectors reshape to tensors of
shape (K_1, ..., K_D) with numpy's default C order, and the contraction
code in `density` relies on that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis1d import BasisFamily, basis_tables


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

    def flatten_index(self, m: tuple[int, ...]) -> int:
        """Multi-index (1-based per dimension) to flat index in 1..size."""
        if len(m) != self.dim:
            raise IndexError(f"multi-index length {len(m)} != dim {self.dim}")
        flat = 0
        for md, kd in zip(m, self.orders):
            if not 1 <= md <= kd:
                raise IndexError(f"multi-index component {md} outside [1, {kd}]")
            flat = flat * kd + (md - 1)
        return flat + 1

    def unflatten_index(self, i: int) -> tuple[int, ...]:
        """Flat index in 1..size back to the 1-based multi-index."""
        if not 1 <= i <= self.size:
            raise IndexError(f"flat index {i} outside [1, {self.size}]")
        rem = i - 1
        out = []
        for kd in reversed(self.orders):
            out.append(rem % kd + 1)
            rem //= kd
        return tuple(reversed(out))

    def tables(self, z: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-dimension value and derivative tables at points z of shape (n, D)."""
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (n, {self.dim})")
        vals, grads = [], []
        for d, (fam, kd) in enumerate(zip(self.families, self.orders)):
            v, g = basis_tables(fam, kd, z[:, d])
            vals.append(v)
            grads.append(g)
        return vals, grads

    def feature_matrix(self, z: np.ndarray) -> np.ndarray:
        """All K product-basis values at each point: shape (K, n)."""
        vals, _ = self.tables(z)
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


def _combine(tables: list[np.ndarray]) -> np.ndarray:
    """Row-major outer product of per-dimension tables, each (K_d, n) -> (K, n)."""
    acc = tables[0]
    for t in tables[1:]:
        acc = (acc[:, None, :] * t[None, :, :]).reshape(-1, t.shape[1])
    return acc

