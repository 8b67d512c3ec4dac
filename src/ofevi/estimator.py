"""Fitting squared expansions by score matching.

For a trial density q_alpha = (sum_k alpha_k Phi_k)^2 the importance-sampled
Fisher divergence between q_alpha and the target is the quadratic form
alpha^T M alpha with

    M_jk = sum_b w_b u_j(z_b) . u_k(z_b),
    u_k(z) = 2 grad Phi_k(z) - Phi_k(z) grad log p(z),
    w_b = 1 / pi(z_b),

where z_b are draws from the proposal pi.  Minimizing over unit alpha is a
minimum-eigenvalue problem, so the fit is a single dense symmetric
eigensolve (LAPACK, lowest eigenpair only) with no iterative optimization
over the variational parameters.

The batch is streamed in fixed-order chunks of `CHUNK` samples.  Each
chunk builds its (K, chunk, D) features from the 1-D basis tables, with the
score folded into one table per component, and adds one matrix product
(sqrt(w) u)(sqrt(w) u)^T into M, so memory is O(K^2 + K * chunk * D).
`largest_array_bytes` gives the larger of the two terms, and a config whose
bases would pass `MAX_ARRAY_BYTES` (1 GiB) is refused before any draw.
Matrix products of different shapes need not round alike, so fits of
nested bases on one batch share their common block through `ScoreCache`
rather than by recomputing it: a basis nested in the largest one assembled
on the batch takes its block of that M, and a basis containing it gets that
M copied into its own.  The nested blocks are then bit-identical whatever
the BLAS kernels do.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np
from scipy.linalg import eigh

from .density import OfeDensity
from .exceptions import ProposalSupportError, ScoreRejectionError
from .product_basis import ProductBasis, _combine
from .proposals import Proposal

# Samples with non-finite target scores are dropped from M.  Dropping more
# than this share of a batch would bias the fit silently, so it raises
# instead: a silent bias is worse than a loud failure.
MAX_REJECT_FRAC = 0.01

# Samples per streamed chunk of a fit.  One chunk's features take
# K * 1024 * D doubles: 23.6 MB at K = 576, D = 5.  Smaller chunks assemble
# more slowly; 2048 is no faster.
CHUNK = 1024

# The largest array a fit may hold, in bytes: M (8 K^2) or one chunk's
# features (8 K * CHUNK * D).  1 GiB admits every 2-D basis up to the
# default max_order (K = 64^2 needs a 134 MB M); 64^3 would need 550 GB.
MAX_ARRAY_BYTES = 1 << 30


@runtime_checkable
class ScoreTarget(Protocol):
    """What the fitter needs from a target: dimension, log density, score."""

    dim: int

    def log_density(self, z): ...

    def score(self, z): ...


class ScoreCache:
    """Memoizes target scores, and the largest M assembled, for the latest batch.

    Fits of different basis sizes on the same draws then evaluate the target
    score once per sample instead of once per fit.  The cache keys on object
    identity of the batch array and keeps a reference to it, so a recycled
    array address cannot alias a stale entry.

    It also holds the basis and M of the largest fit assembled on the batch
    and its weights array; see `moment_matrix`.  Both reset
    when the batch changes.  The held M is the array the fit returned, so
    it must not be modified in place.
    """

    def __init__(self, target: ScoreTarget):
        self.target = target
        self.dim = target.dim
        self.n_score_evals = 0
        self._batch = None
        self._scores = None
        self._held = None

    def log_density(self, z):
        return self.target.log_density(z)

    def score(self, z):
        z = np.asarray(z)
        if z.ndim == 1:
            self.n_score_evals += 1
            return self.target.score(z)
        if z is not self._batch:
            self._scores = np.asarray(self.target.score(z))
            self.n_score_evals += z.shape[0]
            self._batch = z
            self._held = None
        return self._scores

    def moment_matrix(self, basis, z, weights, assemble) -> np.ndarray:
        """M of `basis` on batch z, exact on every block shared with the held fit.

        A basis nested in the held one takes its block of the held M;
        otherwise `assemble()` builds M, and if the held basis is nested in
        this one its M is copied over the matching block.  The larger of
        the two is held afterwards.
        """
        held_basis = held_m = None
        if self._held is not None:
            held_z, held_weights, held_basis, held_m = self._held
            if not (held_z is z and held_weights is weights):
                held_basis = held_m = None
        if held_basis is not None:
            rows = _nested_rows(basis, held_basis)
            if rows is not None:
                return held_m[np.ix_(rows, rows)]
        m = assemble()
        if held_basis is not None:
            rows = _nested_rows(held_basis, basis)
            if rows is not None:
                m[np.ix_(rows, rows)] = held_m
        if held_basis is None or basis.size > held_basis.size:
            self._held = (z, weights, basis, m)
        return m


def _nested_rows(small: ProductBasis, big: ProductBasis) -> np.ndarray | None:
    """Rows of `big`'s M that belong to `small`, in `small`'s order; None if not nested."""
    if small.families != big.families or any(
        ks > kb for ks, kb in zip(small.orders, big.orders)
    ):
        return None
    multi = np.indices(small.orders).reshape(small.dim, -1)
    return np.ravel_multi_index(tuple(multi), big.orders)


def feature_vectors(basis: ProductBasis, z: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """u_k(z_b) = 2 grad Phi_k(z_b) - Phi_k(z_b) * scores_b, shape (K, B, D).

    Component d is the row-major product of the 1-D value tables with table
    d replaced by 2 phi_d' - s_d phi_d, so neither the product values nor
    their gradients are formed.  The result is a view of a (K, D, B) array,
    so each component is written contiguously.
    """
    vals, grads = basis.tables(z)
    scores = np.asarray(scores, dtype=float)
    u = np.empty((basis.size, basis.dim, vals[0].shape[1]))
    for d in range(basis.dim):
        parts = list(vals)
        parts[d] = 2.0 * grads[d] - scores[:, d] * vals[d]
        u[:, d, :] = _combine(parts)
    return u.transpose(0, 2, 1)


def assemble_moment_matrix(u: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """M_jk = sum_b w_b u_j(z_b) . u_k(z_b) over the samples of u, one matrix product.

    The (component, sample) pairs of u are flattened component-major, which
    for `feature_vectors` output needs no copy.  M is the mirrored upper
    triangle, so it is exactly symmetric.  `fit_from_batch` calls this once
    per chunk of its batch.
    """
    k = u.shape[0]
    ut = u.transpose(0, 2, 1)
    if weights is not None:
        ut = ut * np.sqrt(np.asarray(weights, dtype=float))
    block = ut.reshape(k, -1)
    m = block @ block.T
    i_lo = np.tril_indices(k, -1)
    m[i_lo] = m.T[i_lo]
    return m


def min_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a symmetric matrix, with a fixed sign convention.

    One dense LAPACK solve for the lowest eigenpair only, at every size the
    memory bound admits.  The eigenvector is flipped so its largest-magnitude
    entry (first such, on ties) is nonnegative.
    """
    vals, vecs = eigh(m, subset_by_index=(0, 0))
    alpha = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    lead = int(np.argmax(np.abs(alpha)))
    if alpha[lead] < 0.0:
        alpha = -alpha
    return float(vals[0]), alpha


@dataclass(frozen=True)
class FitResult:
    density: OfeDensity
    eigenvalue: float
    residual: float
    moment_matrix: np.ndarray
    samples: np.ndarray
    weights: np.ndarray
    rejected: int
    timings_ms: dict


def largest_array_bytes(size: int, dim: int) -> int:
    """Bytes of the larger of M and one chunk's features for K = size in dim dimensions."""
    return 8 * size * max(size, CHUNK * dim)


def default_sample_count(basis: ProductBasis) -> int:
    return 10 * basis.size


def fit(
    target: ScoreTarget,
    basis: ProductBasis,
    proposal: Proposal,
    rng: np.random.Generator,
    n_samples: int | None = None,
) -> FitResult:
    """Draw from the proposal, assemble M, and solve for the best unit alpha."""
    if target.dim != basis.dim:
        raise ValueError("target and basis dimensions differ")
    n = default_sample_count(basis) if n_samples is None else int(n_samples)
    z = proposal.sample(rng, n)
    return fit_from_batch(target, basis, z, 1.0 / proposal.density(z))


def fit_from_batch(
    target: ScoreTarget,
    basis: ProductBasis,
    z: np.ndarray,
    weights: np.ndarray,
    residual_tol: float = 1e-8,
) -> FitResult:
    """Fit on an existing batch; lets several basis sizes share draws and scores."""
    weights = np.asarray(weights, dtype=float)
    if np.any(~np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ProposalSupportError("a sample has zero or invalid proposal density")
    n = z.shape[0]
    if n < basis.size:
        warnings.warn(
            f"batch size {n} is below the basis size {basis.size}; M is rank-deficient",
            stacklevel=2,
        )
    t0 = time.perf_counter()
    scores = np.asarray(target.score(z))
    t1 = time.perf_counter()
    finite = np.all(np.isfinite(scores), axis=1)
    rejected = int(n - np.count_nonzero(finite))
    batch, batch_weights = z, weights
    if rejected:
        if rejected > MAX_REJECT_FRAC * n:
            raise ScoreRejectionError(
                f"{rejected} of {n} samples have non-finite scores"
            )
        z, scores, weights = z[finite], scores[finite], weights[finite]

    def assemble():
        m = np.zeros((basis.size, basis.size))
        for start in range(0, z.shape[0], CHUNK):
            c = slice(start, start + CHUNK)
            m += assemble_moment_matrix(feature_vectors(basis, z[c], scores[c]), weights[c])
        return m

    if isinstance(target, ScoreCache):
        m = target.moment_matrix(basis, batch, batch_weights, assemble)
    else:
        m = assemble()
    t2 = time.perf_counter()
    lam, alpha = min_eigenpair(m)
    t3 = time.perf_counter()
    residual = float(np.linalg.norm(m @ alpha - lam * alpha))
    bound = residual_tol * np.linalg.norm(m, "fro")
    if residual > bound:
        raise RuntimeError(
            f"eigenpair residual {residual:.3e} exceeds {bound:.3e}; matrix may be ill-conditioned"
        )
    return FitResult(
        density=OfeDensity(basis, alpha),
        eigenvalue=lam,
        residual=residual,
        moment_matrix=m,
        samples=z,
        weights=weights,
        rejected=rejected,
        timings_ms={
            "score_eval": 1e3 * (t1 - t0),
            "assemble": 1e3 * (t2 - t1),
            "eigensolve": 1e3 * (t3 - t2),
        },
    )
