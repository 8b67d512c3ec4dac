"""Fitting squared expansions by score matching.

For a trial density q_alpha = (sum_k alpha_k Phi_k)^2 the importance-sampled
Fisher divergence between q_alpha and the target is the quadratic form
alpha^T M alpha with

    M_jk = sum_b w_b u_j(z_b) . u_k(z_b),
    u_k(z) = 2 grad Phi_k(z) - Phi_k(z) grad log p(z),
    w_b = 1 / pi(z_b),

where z_b are draws from the proposal pi.  Minimizing over unit alpha is a
minimum-eigenvalue problem, so alpha comes from one symmetric eigensolve,
with no iterative gradient optimization over the variational parameters.
The eigensolve (`min_eigenpair`) seeks only the lowest pairs: block inverse
iteration from one Cholesky factor of M, with the full dense `eigh` as its
fallback.

The batch is streamed in fixed-order chunks of `chunk_draws(D)` samples,
at most `CHUNK_COLUMNS` feature columns (draws times D) each.  Each chunk
builds its (K, chunk, D) features from the 1-D basis tables, with the score
folded into one table per component, and adds the Gram matrix
(sqrt(w) u)(sqrt(w) u)^T into M, so memory is O(K^2 + K * CHUNK_COLUMNS)
whatever D.
The features are made without a copy: each component's last outer
product is written straight into u, u is scaled by sqrt(w) in place, and
the matrix products read views of it, so a fit holds one feature array,
a buffer that every chunk writes into.
`largest_array_bytes` gives the larger of the two terms, and a config whose
bases would pass `MAX_ARRAY_BYTES` (1 GiB) is refused before any draw.
Matrix products of different shapes need not round alike, so fits of
nested bases on one batch share their common block rather than recompute
it: a fit handed an `earlier` fit of the batch reuses its kept draws and
scores, and a basis nested in the earlier one takes its block of that M,
while a basis containing it gets that M copied into its own.  The nested
blocks are then bit-identical whatever the BLAS kernels do.  A fit runs
with BLAS pinned to `_blas.THREADS` threads (`_blas.pinned`), so its
result does not depend on the thread count either.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import _blas
from .density import OfeDensity
from .exceptions import ProposalSupportError, ScoreRejectionError
from .product_basis import ProductBasis, _combine
from .proposals import Proposal
from .utils import as_integer

# Samples with non-finite target scores are dropped from M.  Dropping more
# than this share of a batch would bias the fit silently, so it raises
# instead: a silent bias is worse than a loud failure.
MAX_REJECT_FRAC = 0.01

# Feature columns (draws times D) per streamed chunk of a fit.  A chunk
# holds max(1, CHUNK_COLUMNS // D) draws, 1024 in 2-D and 409 in 5-D, so its
# features take at most 8 K * CHUNK_COLUMNS bytes whatever D: 9.4 MB at
# K = 576.  Chunks of 256 draws assemble 7% more slowly in 5-D.
CHUNK_COLUMNS = 2048

# The largest array a fit may hold, in bytes: M (8 K^2) or one chunk's
# features (8 K * CHUNK_COLUMNS at most).  1 GiB admits every 2-D basis up
# to basis1d.MAX_ORDER (K = 64^2 needs a 134 MB M); 64^3 would need 550 GB.
MAX_ARRAY_BYTES = 1 << 30


class ScoreTarget(Protocol):
    """What the fitter needs from a target: dimension and score."""

    dim: int

    def score(self, z): ...


def _nested_rows(small: ProductBasis, big: ProductBasis) -> np.ndarray | None:
    """Rows of `big`'s M that belong to `small`, in `small`'s order; None if not nested."""
    if small.families != big.families or any(
        ks > kb for ks, kb in zip(small.orders, big.orders)
    ):
        return None
    multi = np.indices(small.orders).reshape(small.dim, -1)
    return np.ravel_multi_index(tuple(multi), big.orders)


def feature_vectors(
    basis: ProductBasis, z: np.ndarray, scores: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """u_k(z_b) = 2 grad Phi_k(z_b) - Phi_k(z_b) * scores_b, shape (K, B, D).

    Component d is the row-major product of the 1-D value tables with table
    d replaced by 2 phi_d' - s_d phi_d, so neither the product values nor
    their gradients are formed.  The result is a view of a (K, D, B) array,
    and each component's last outer product is written straight into its
    contiguous rows, so no product is formed and then copied.  That array
    is new, or the first K * D * B entries of `out`, a flat float array.
    """
    vals, grads = basis.tables(z)
    scores = np.asarray(scores, dtype=float)
    n, last = vals[0].shape[1], basis.orders[-1]
    shape = (basis.size, basis.dim, n)
    u = np.empty(shape) if out is None else out[: math.prod(shape)].reshape(shape)
    # Component d as (K / K_D, K_D, B): a view taken from the contiguous u.
    # A reshaped strided slice could be a copy, and the write would be lost.
    split = u.reshape(basis.size // last, last, basis.dim, n)
    for d in range(basis.dim):
        parts = list(vals)
        parts[d] = 2.0 * grads[d] - scores[:, d] * vals[d]
        _combine(parts, out=split[:, :, d, :])
    return u.transpose(0, 2, 1)


@_blas.pinned()
def assemble_moment_matrix(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """M_jk = sum_b w_b u_j(z_b) . u_k(z_b) over the samples of u, exactly symmetric.

    Overwrites u with sqrt(w_b) u(z_b), in place.  The (component, sample)
    pairs of u are then flattened component-major, which for
    `feature_vectors` output is a view of its (K, D, B) base, so no copy of
    the features is made.  That view times its transpose is one SYRK, whose
    upper triangle numpy copies into the lower one.  Runs with BLAS pinned,
    also when called outside a fit.  `fit_from_batch` calls this once per
    chunk of its batch.
    """
    u *= np.sqrt(np.asarray(weights, dtype=float))[:, None]
    block = u.transpose(0, 2, 1).reshape(u.shape[0], -1)
    return block @ block.T


# Block inverse iteration in `min_eigenpair`: the shift added to M's
# diagonal before it is factored, as a share of tr M; the residual at which
# the lowest Ritz pair is taken, as a share of ||M||_F (a fit accepts 1e-8);
# the block width; and the steps after which the dense solve takes over.
# At seeds 1-3 the fits of the benchmark's mixture2d sweep took 3 to 7
# steps, its standardized 5-D fits 10 to 25 and 46x46 mixture2d fits 2; the
# Gram matrix of a (K, 2K) Gaussian factor takes several hundred.
_SHIFT = 1e-13
_RESIDUAL = 1e-12
_BLOCK = 4
_MAX_STEPS = 64

# Rows at or below which `_invert_lower` inverts a block by LU.
_LEAF_ROWS = 32


def _invert_lower(l: np.ndarray) -> None:
    """Overwrite a nonsingular lower-triangular l with its inverse, in place.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: the two
    diagonal blocks are inverted in place by the same split and the corner
    by two GEMMs, so only quarter-size temporaries are made.  A block of at
    most `_LEAF_ROWS` rows is inverted by LU (`np.linalg.inv`; numpy has no
    triangular solve), whose rounding above the diagonal `np.tril` clears.
    """
    k = l.shape[0]
    if k <= _LEAF_ROWS:
        l[:] = np.tril(np.linalg.inv(l))
        return
    r = k // 2
    _invert_lower(l[:r, :r])
    _invert_lower(l[r:, r:])
    l[r:, :r] = -(l[r:, r:] @ (l[r:, :r] @ l[:r, :r]))


def _lowest_ritz_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Ritz values (ascending) and the lowest Ritz vector of m, or None if the iteration fails.

    L is the Cholesky factor of m + tau I, tau = `_SHIFT` tr m, so
    L^-T L^-1 = (m + tau I)^-1.  A block of `_BLOCK` columns (all K when
    K is smaller) starts from a fixed seed; each step applies L^-1 and then
    L^-T, orthonormalizes by QR and takes the Rayleigh-Ritz pairs of m
    itself on the block.  It stops when the lowest pair's residual is at
    most `_RESIDUAL` ||m||_F.  None when m + tau I has no Cholesky factor
    (m is not positive semidefinite, or is zero) or after `_MAX_STEPS`
    steps.  The only K x K arrays besides m are the copy that L is built
    from and L itself, inverted in place.
    """
    k = m.shape[0]
    l = m.copy()
    l.flat[:: k + 1] += _SHIFT * np.trace(m)
    try:
        l = np.linalg.cholesky(l)
    except np.linalg.LinAlgError:
        return None
    _invert_lower(l)
    x = np.random.default_rng(0).standard_normal((k, min(_BLOCK, k)))
    bound = _RESIDUAL * np.linalg.norm(m)
    for _ in range(_MAX_STEPS):
        q = np.linalg.qr(l.T @ (l @ x))[0]
        mq = m @ q
        theta, v = np.linalg.eigh(q.T @ mq)
        x = q @ v
        if np.linalg.norm(mq @ v[:, 0] - theta[0] * x[:, 0]) <= bound:
            return theta, x[:, 0]
    return None


@_blas.pinned()
def min_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray, float | None]:
    """Lowest eigenvalue of a symmetric m, its eigenvector and the second-lowest eigenvalue.

    Block inverse iteration (`_lowest_ritz_pair`) gives the pair and, as
    the second Ritz value of its block, an upper bound on the second
    eigenvalue that is tight when it lies close to the lowest.  When that
    iteration fails, the full dense solve `np.linalg.eigh` gives all three.
    With K at most the block width the block spans the whole space, so
    one step is exact.  The second eigenvalue is None when K = 1.  The
    eigenvector is flipped so its largest-magnitude entry (first such, on
    ties) is nonnegative.  Runs with BLAS pinned, also when called outside
    a fit.
    """
    ritz = _lowest_ritz_pair(m)
    if ritz is None:
        vals, vecs = np.linalg.eigh(m)
        ritz = vals, vecs[:, 0]
    vals, vec = ritz
    alpha = vec / np.linalg.norm(vec)
    lead = int(np.argmax(np.abs(alpha)))
    if alpha[lead] < 0.0:
        alpha = -alpha
    return float(vals[0]), alpha, float(vals[1]) if vals.size > 1 else None


@dataclass(frozen=True)
class FitResult:
    """A fitted density with its M, and the kept draws, weights and finite scores of M.

    eigenvalue is M's lowest eigenvalue, and lambda_2 the second lowest as
    `min_eigenpair` gives it (None when K = 1).  score_ms, assemble_ms and
    eigensolve_ms are the wall times of the target's scores, of M and of
    the eigensolve.  largest_array_bytes is `largest_array_bytes` of the
    basis: the bytes of M or of one chunk's features, whichever is larger.
    blas_threads is the count the fit ran at, `_blas.THREADS`, or None
    where no bundled OpenBLAS was pinned.  The report fields share their
    names with `harness.RunRecord`, which names eigenvalue `lambda_min`.
    """

    density: OfeDensity
    eigenvalue: float
    lambda_2: float | None
    residual: float
    moment_matrix: np.ndarray
    samples: np.ndarray
    weights: np.ndarray
    scores: np.ndarray
    rejected: int
    blas_threads: int | None
    score_ms: float
    assemble_ms: float
    eigensolve_ms: float
    largest_array_bytes: int


def chunk_draws(dim: int) -> int:
    """Draws per streamed chunk of a fit in dim dimensions: CHUNK_COLUMNS // dim, at least 1."""
    return max(1, CHUNK_COLUMNS // dim)


def largest_array_bytes(size: int, dim: int) -> int:
    """Bytes of the larger of M and one chunk's features for K = size in dim dimensions."""
    return 8 * size * max(size, chunk_draws(dim) * dim)


def default_sample_count(size: int) -> int:
    """The batch size B of a fit with K = size basis functions and no set count: 10 K."""
    return 10 * size


def _streamed_moment_matrix(basis: ProductBasis, z, scores, weights) -> np.ndarray:
    """M summed over chunks of `chunk_draws(D)` draws, in batch order.

    Every chunk's features are written into one buffer, which is dropped
    before the eigensolve: a fresh array per chunk made the 409-draw chunks
    of a 5-D fit slower than 1024-draw ones.
    """
    step = chunk_draws(basis.dim)
    buffer = np.empty(basis.size * basis.dim * min(step, z.shape[0]))
    m = np.zeros((basis.size, basis.size))
    for start in range(0, z.shape[0], step):
        c = slice(start, start + step)
        u = feature_vectors(basis, z[c], scores[c], out=buffer)
        m += assemble_moment_matrix(u, weights[c])
    return m


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
    if n_samples is None:
        n = default_sample_count(basis.size)
    else:
        n = as_integer(n_samples, "n_samples", least=1)
    z = proposal.sample(rng, n)
    return fit_from_batch(target, basis, z, 1.0 / proposal.density(z))


def fit_from_batch(
    target: ScoreTarget,
    basis: ProductBasis,
    z: np.ndarray,
    weights: np.ndarray,
    residual_tol: float = 1e-8,
    earlier: FitResult | None = None,
) -> FitResult:
    """Fit on an existing batch of draws z with importance weights.

    `earlier`, if given, must be a fit on this same z and weights; only its
    batch size is checked (its kept draws plus its rejected ones must be
    z's rows, else ValueError).  The fit then reuses its kept draws,
    weights, scores and rejected count without calling the target.  A
    basis nested in `earlier`'s takes its block of `earlier`'s M; a basis
    containing it is assembled, and then that M is copied over the
    matching block; any other basis is assembled in full.
    """
    weights = np.asarray(weights, dtype=float)
    n = z.shape[0]
    if n < 1 or weights.shape != (n,):
        raise ValueError(
            f"weights of shape {weights.shape} do not fit draws z of shape {z.shape}: "
            "need at least one draw and one weight per draw"
        )
    if np.any(~np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ProposalSupportError("a sample has zero or invalid proposal density")
    if earlier is not None and earlier.samples.shape[0] + earlier.rejected != n:
        raise ValueError(
            f"the earlier fit kept {earlier.samples.shape[0]} and rejected "
            f"{earlier.rejected} draws, not the {n} of this batch"
        )
    with _blas.pinned() as blas_threads:
        t0 = time.perf_counter()
        if earlier is None:
            scores = np.asarray(target.score(z))
            finite = np.all(np.isfinite(scores), axis=1)
            rejected = int(n - np.count_nonzero(finite))
            if rejected:
                if rejected > MAX_REJECT_FRAC * n:
                    raise ScoreRejectionError(
                        f"{rejected} of {n} samples have non-finite scores"
                    )
                z, scores, weights = z[finite], scores[finite], weights[finite]
        else:
            z, weights, scores, rejected = (
                earlier.samples, earlier.weights, earlier.scores, earlier.rejected
            )
        t1 = time.perf_counter()
        if z.shape[0] < basis.size:
            warnings.warn(
                f"{z.shape[0]} of {n} draws have finite scores, below the basis size "
                f"{basis.size}; M is rank-deficient",
                stacklevel=2,
            )
        rows = None if earlier is None else _nested_rows(basis, earlier.density.basis)
        if rows is not None:
            m = earlier.moment_matrix[np.ix_(rows, rows)]
        else:
            m = _streamed_moment_matrix(basis, z, scores, weights)
            if earlier is not None:
                rows = _nested_rows(earlier.density.basis, basis)
                if rows is not None:
                    m[np.ix_(rows, rows)] = earlier.moment_matrix
        t2 = time.perf_counter()
        lam, alpha, lambda_2 = min_eigenpair(m)
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
        lambda_2=lambda_2,
        residual=residual,
        moment_matrix=m,
        samples=z,
        weights=weights,
        scores=scores,
        rejected=rejected,
        blas_threads=blas_threads,
        score_ms=1e3 * (t1 - t0),
        assemble_ms=1e3 * (t2 - t1),
        eigensolve_ms=1e3 * (t3 - t2),
        largest_array_bytes=largest_array_bytes(basis.size, basis.dim),
    )
