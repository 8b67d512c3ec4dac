"""Fitting squared expansions by score matching.

For a trial density q_alpha = (sum_k alpha_k Phi_k)^2 the importance-sampled
Fisher divergence between q_alpha and the target is the quadratic form
alpha^T M alpha with

    M_jk = sum_b w_b u_j(z_b) . u_k(z_b),
    u_k(z) = 2 grad Phi_k(z) - Phi_k(z) grad log p(z),
    w_b = 1 / pi(z_b),

where z_b are draws from the proposal pi.  Minimizing over unit alpha is a
minimum-eigenvalue problem, so the fit is a single symmetric eigensolve with
no iterative optimization over the variational parameters.

M is assembled entry by entry with 1-D dot products over a fixed flattening
of (sample, coordinate) pairs.  That costs a constant factor over a matrix
product but makes every entry independent of every other: fitting a larger
basis on the same draws reproduces the smaller basis's entries bit for bit,
and results do not depend on BLAS blocking across shapes.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .density import OfeDensity
from .exceptions import ProposalSupportError, ScoreRejectionError
from .product_basis import ProductBasis
from .proposals import Proposal

# Samples with non-finite target scores are dropped from M.  Dropping more
# than this share of a batch would bias the fit silently, so it raises
# instead: a silent bias is worse than a loud failure.
MAX_REJECT_FRAC = 0.01


@runtime_checkable
class ScoreTarget(Protocol):
    """What the fitter needs from a target: dimension, log density, score."""

    dim: int

    def log_density(self, z): ...

    def score(self, z): ...


class ScoreCache:
    """Memoizes target scores for the most recent sample batch.

    Fits of different basis sizes on the same draws then evaluate the target
    score once per sample instead of once per fit.  The cache keys on object
    identity of the batch array and keeps a reference to it, so a recycled
    array address cannot alias a stale entry.
    """

    def __init__(self, target: ScoreTarget):
        self.target = target
        self.dim = target.dim
        self.n_score_evals = 0
        self._batch = None
        self._scores = None

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
        return self._scores


def feature_vectors(basis: ProductBasis, z: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """u_k(z_b) = 2 grad Phi_k(z_b) - Phi_k(z_b) * scores_b, shape (K, B, D)."""
    vals, grads = basis.feature_gradients(z)
    return 2.0 * grads - vals[:, :, None] * scores[None, :, :]


def assemble_moment_matrix(
    u: np.ndarray,
    weights: np.ndarray | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Accumulate M_jk = sum_b w_b u_j(z_b) . u_k(z_b).

    Samples are processed in fixed-order chunks and each entry is a plain
    dot product, so the result is reproducible for a given chunk layout and
    a duplicated batch sums to exactly twice the original when the chunk
    size equals the original batch length.
    """
    k, b, _ = u.shape
    su = u if weights is None else u * np.sqrt(np.asarray(weights, dtype=float))[None, :, None]
    rows = np.ascontiguousarray(su.reshape(k, -1))
    d = rows.shape[1] // b
    step = b if chunk_size is None else int(chunk_size)
    if step <= 0:
        raise ValueError("chunk_size must be positive")
    m = np.zeros((k, k))
    for start in range(0, b, step):
        stop = min(start + step, b)
        block = rows[:, start * d : stop * d]
        for j in range(k):
            for l in range(j, k):
                m[j, l] += np.dot(block[j], block[l])
    i_lo = np.tril_indices(k, -1)
    m[i_lo] = m.T[i_lo]
    return m


def min_eigenpair(m: np.ndarray, dense_cutoff: int = 2048) -> tuple[float, np.ndarray, str]:
    """Smallest eigenpair of a symmetric matrix, with a fixed sign convention.

    Dense LAPACK below the cutoff; Lanczos above it, falling back to dense if
    it stalls.  The eigenvector is flipped so its largest-magnitude entry
    (first such, on ties) is nonnegative.
    """
    k = m.shape[0]
    if k <= dense_cutoff:
        vals, vecs = eigh(m, subset_by_index=(0, 0))
        lam, alpha, solver = float(vals[0]), vecs[:, 0], "dense"
    else:
        try:
            vals, vecs = eigsh(m, k=1, which="SA", tol=0.0)
            lam, alpha, solver = float(vals[0]), vecs[:, 0], "lanczos"
        except ArpackNoConvergence:
            vals, vecs = eigh(m, subset_by_index=(0, 0))
            lam, alpha, solver = float(vals[0]), vecs[:, 0], "dense-fallback"
    alpha = alpha / np.linalg.norm(alpha)
    lead = int(np.argmax(np.abs(alpha)))
    if alpha[lead] < 0.0:
        alpha = -alpha
    return lam, alpha, solver


@dataclass(frozen=True)
class FitResult:
    density: OfeDensity
    eigenvalue: float
    residual: float
    solver: str
    moment_matrix: np.ndarray
    samples: np.ndarray
    weights: np.ndarray
    rejected: int
    timings_ms: dict


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
    chunk_size: int | None = None,
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
    if rejected:
        if rejected > MAX_REJECT_FRAC * n:
            raise ScoreRejectionError(
                f"{rejected} of {n} samples have non-finite scores"
            )
        z, scores, weights = z[finite], scores[finite], weights[finite]
    u = feature_vectors(basis, z, scores)
    m = assemble_moment_matrix(u, weights, chunk_size=chunk_size)
    t2 = time.perf_counter()
    lam, alpha, solver = min_eigenpair(m)
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
        solver=solver,
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
