"""Small shared helpers.

Every evaluator in ofevi takes a batch of points, shape (n, D), and returns
arrays, shape (n,) or (n, D); a single point z is the batch z[None].
"""

from __future__ import annotations

import numpy as np


def as_batch(z, dim: int) -> np.ndarray:
    """z as a float array of shape (n, dim); any other shape, a (dim,) point too, is a ValueError."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"expected a batch of shape (n, {dim}), got {z.shape}")
    return z
