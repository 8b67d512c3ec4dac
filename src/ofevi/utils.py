"""Small shared helpers.

Every evaluator in ofevi takes a batch of points, shape (n, D), and returns
arrays, shape (n,) or (n, D); a single point z is the batch z[None].  Every
count, in a config, on the command line or in a sampling call, goes through
one integer rule, `as_integer`.  The CLI's JSON output and the records
file go through `to_json`, which writes a non-finite float as null, so
strict JSON parsers read them.  `row_sums` sums each row of an (n, w)
array column by column, with the bits of `np.sum(x, axis=1)`: over a short
row numpy pays an inner-loop call per row, about 10x the time of the column
passes on an (8192, 2) array.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .exceptions import ConfigError


def as_batch(z, dim: int) -> np.ndarray:
    """z as a float array of shape (n, dim); any other shape, a (dim,) point too, is a ValueError."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"expected a batch of shape (n, {dim}), got {z.shape}")
    return z


def row_sums(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=1) of an (n, w) array, bit for bit, one column at a time.

    Below 8 columns numpy adds a row in index order onto +0.0, with no
    pairwise split, so adding the columns in order onto zeros gives its bits,
    a row of -0.0 too, without a call per row.  From 8 columns on, pairwise
    summation changes the order: this is np.sum.
    """
    if x.shape[1] >= 8:
        return np.sum(x, axis=1)
    out = np.zeros(x.shape[0])
    for column in x.T:
        out += column
    return out


def as_integer(value, name: str, least: int) -> int:
    """value as an int of at least `least`; a bool or a value that is not whole is a ConfigError."""
    try:
        whole = int(value)  # strings too: `ofevi fit --orders 6,6` passes "6"
    except (TypeError, ValueError, OverflowError):
        whole = None
    exact = whole is not None and (isinstance(value, str) or whole == value)
    if not exact or isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name}: {value!r} is not an integer")
    if whole < least:
        raise ConfigError(f"{name} must be at least {least}")
    return whole


def to_json(payload) -> str:
    """payload as strict JSON, indented by 2; a NaN or infinite float becomes null."""

    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {key: finite(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(item) for item in value]
        return value

    return json.dumps(finite(payload), indent=2, allow_nan=False)
