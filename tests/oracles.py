"""Independent oracles and quadrature utilities shared by the tests.

The CDF oracle below never touches the package's recurrences or its
closed-form prefix integrals: it integrates the squared series, evaluated by
`recurrence_tables`, with Gauss-Legendre panels, which stays accurate at
every order up to 64 on the Hermite line, on [-1, 1] and on the Laguerre
half line.  The pairwise prefix oracle integrates every product
phi_k phi_l on the CDF table's grid directly, by Gauss-Legendre on each
cell, with no span.  The single-function product-basis
evaluators are point-at-a-time references for the vectorized feature code,
and `copying_moment_matrix` is the streamed assembly before it stopped
copying the scaled features, the bitwise reference for the copy-free one;
both end in one pinned SYRK, `block @ block.T`, so the comparison is of the
features alone.  `recurrence_tables` is the 1-D derivative code before
derivatives came from the derivative matrices: one hand-written recurrence
per family, the reference for `derivative_matrix` times the values.
`CountingScore` wraps a target and counts the points it scores.
`traced_peak` is the peak of the bytes allocated during one call, as
`tracemalloc` sees them: numpy reports its arrays to it.
`whole_reference_set`, `whole_kl` and `whole_fisher` are the harness's
reference set and divergences as one call on every point, before the
harness walked the points in chunks: the bitwise references for the
chunked code.  `per_axis_evaluation` is a density's evaluation with one
table build per axis and chunk, as it was before axes of one family and
order shared a build, and `row_max_logsumexp` is `logsumexp` as it was
before its maximum and sum ran along the columns: the bitwise references
for the shared builds and the column passes.  `while_loop_invert` is
`density._invert` as it was before its bisection ran a fixed number of
halvings: it halved until every draw's cell was one grid step wide, the
bitwise reference for the fixed count.
"""

import math
import tracemalloc

import numpy as np

from ofevi import FOURIER, HERMITE, LAGUERRE, LEGENDRE, BasisFamily, ProductBasis, basis_tables
from ofevi import _blas
from ofevi.basis1d import derivative_matrix
from ofevi import density
from ofevi.density import _CHUNK_POINTS, _apply_axis, _contract_axis, cdf_grid
from ofevi.product_basis import _combine


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while fn(*args) runs, counted from the call's start."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_reference_set(target, seed: int, n: int):
    """The sweep's reference set: n draws, log p and the score, each by one call on all n."""
    z = target.sample(np.random.default_rng((seed, 3)), n)
    return z, target.log_density(z), target.score(z)


def _kept_mean(keep, values):
    excluded = int(keep.size - np.count_nonzero(keep))
    if excluded == keep.size:
        return float("nan"), float("nan"), excluded
    x = values(keep)
    se = float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else float("nan")
    return float(np.mean(x)), se, excluded


def whole_kl(z, log_p, q):
    """(KL, SE, excluded) with log q taken by one call on every point."""
    diff = log_p - q.log_density(z)
    return _kept_mean(np.isfinite(diff), lambda keep: diff[keep])


def whole_fisher(p_scores, q, z):
    """(Fisher divergence, SE, excluded) with f by one call, and q's score by one call on the kept points."""

    def squared_gap(keep):
        gap = p_scores[keep] - q.score(z[keep])
        return np.sum(gap * gap, axis=1)

    return _kept_mean(q.expansion(z) != 0.0, squared_gap)


def row_max_logsumexp(a):
    """log(sum(exp(a), axis=1)) of an (n, m) array, with numpy's row max and row sum."""
    top = np.max(a, axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    return np.log(np.sum(np.exp(a - top), axis=1)) + top[:, 0]


def per_axis_evaluation(q, z):
    """(f, log q, score of q) at the points z (n, D), each axis's table built on its own.

    The steps of `OfeDensity.expansion`, `log_density` and `score`, with one
    `basis_tables` call per axis and chunk of `_CHUNK_POINTS` points, on
    that axis's column of the standardized points.
    """
    z = q._standardize(z)
    orders, axes = q.basis.orders, list(enumerate(zip(q.basis.families, q.basis.orders)))
    terms, up = [(q.coeffs, orders)], [0] * len(axes)
    beta = q.coeffs.reshape(orders)
    for d, (family, k) in axes:
        dmat = derivative_matrix(family, k)
        up[d] = int(np.any(dmat[:, -1]))
        mapped = _apply_axis(beta, dmat[:, : k + up[d]].T, d)
        terms.append((mapped.reshape(-1), mapped.shape))
    out = np.empty((len(terms), z.shape[0]))
    for start in range(0, z.shape[0], _CHUNK_POINTS):
        stop = min(start + _CHUNK_POINTS, z.shape[0])
        tables = [basis_tables(family, k + up[d], z[start:stop, d]) for d, (family, k) in axes]
        for i, (w, shape) in enumerate(terms):
            for table, rows in zip(tables, shape):
                w = _contract_axis(w, table[:rows])
            out[i, start:stop] = w[0]
    f, score = out[0], 2.0 * out[1:].T / out[0][:, None]
    with np.errstate(divide="ignore"):
        log_q = 2.0 * np.log(np.abs(f))
    if q.transform is not None:
        log_q, score = log_q - q.transform.log_det, score @ q.transform.inv_chol
    return f, log_q, score


def fd_gradient(fn, z, h=1e-6):
    """Central-difference gradient of a scalar function of a point."""
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    for d in range(z.size):
        e = np.zeros_like(z)
        e[d] = h
        out[d] = (fn(z + e) - fn(z - e)) / (2.0 * h)
    return out


def fd_derivative(fn, z, h=1e-6):
    """Central-difference derivative of a scalar function of a scalar."""
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def gauss_panels(lo, hi, panels=24, order=24):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# Panel edges of `expansion_cdf`: q is below 1e-300 past |z| = 40 on the
# Hermite line and past z = 600 on the Laguerre half line at every order up
# to 64.  The Legendre and Laguerre panels crowd where the basis crowds its
# zeros, next to the ends of the support.
_CDF_PANELS = {
    HERMITE: np.linspace(-40.0, 40.0, 801),
    LEGENDRE: -np.cos(np.linspace(0.0, math.pi, 2001)),
    LAGUERRE: 600.0 * np.linspace(0.0, 1.0, 4001) ** 2,
}


def expansion_cdf(kind, alpha, x):
    """CDF of q(z) = (sum_k alpha_k phi_k(z))^2 by Gauss-Legendre panels.

    The CDF at x is the sum of the whole panels below x, plus one 20-node
    rule on the rest of x's panel; the Hermite panels are 0.1 wide on
    [-40, 40].  The series is evaluated by `recurrence_tables`.  A monomial
    expansion of a Hermite series (He_k as powers of z, squared, against
    Gaussian moments) cancels digits as the order rises: on random unit
    coefficients it is 1e-9 off at order 20 and worse than 1 at order 40.
    """
    alpha = np.asarray(alpha, dtype=float)
    x = np.asarray(x, dtype=float)
    edges = _CDF_PANELS[kind]
    flat = np.clip(x.reshape(-1), edges[0], edges[-1])
    t, w = np.polynomial.legendre.leggauss(20)

    def integrals(lo, hi):
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * t
        out = np.empty(lo.shape[0])
        for start in range(0, lo.shape[0], 1024):
            c = slice(start, start + 1024)
            f = alpha @ recurrence_tables(BasisFamily(kind), alpha.size, nodes[c].reshape(-1))[0]
            out[c] = (f * f).reshape(-1, t.shape[0]) @ w * half[c]
        return out

    below = np.concatenate([[0.0], np.cumsum(integrals(edges[:-1], edges[1:]))])
    panel = np.clip(np.searchsorted(edges, flat, side="right") - 1, 0, edges.shape[0] - 2)
    return (below[panel] + integrals(edges[panel], flat)).reshape(x.shape)


def hermite_expansion_pdf(alpha, x):
    """Exact density of the squared Hermite-function expansion."""
    alpha = np.asarray(alpha, dtype=float)
    k = alpha.size
    herm = alpha / np.array([math.sqrt(math.factorial(m)) for m in range(k)])
    p = np.polynomial.hermite_e.hermeval(np.asarray(x, dtype=float), herm)
    pdf = np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / math.sqrt(2.0 * math.pi)
    return p * p * pdf


def random_unit(rng, k):
    v = rng.standard_normal(k)
    return v / np.linalg.norm(v)


def eval_product(basis: ProductBasis, i: int, z) -> float:
    """Value at a point of the product basis function in feature row i (0-based)."""
    z = np.asarray(z, dtype=float).reshape(1, basis.dim)
    return float(basis.feature_matrix(z)[i, 0])


def grad_product(basis: ProductBasis, i: int, z) -> np.ndarray:
    """Gradient (length D) at a point of the product basis function in feature row i."""
    z = np.asarray(z, dtype=float).reshape(1, basis.dim)
    _, g = basis.feature_gradients(z)
    return g[i, 0, :].copy()


@_blas.pinned()
def copying_moment_matrix(basis: ProductBasis, z, scores, weights, chunk: int) -> np.ndarray:
    """M assembled as the copying code did: each component's product written
    into u, and u scaled into a new array before one product per chunk.

    BLAS is pinned, as in a fit: a GEMM at another thread count may round
    differently at some chunk widths, which would not be a difference of
    the features."""
    m = np.zeros((basis.size, basis.size))
    for start in range(0, z.shape[0], chunk):
        c = slice(start, start + chunk)
        vals, grads = basis.tables(z[c])
        u = np.empty((basis.size, basis.dim, vals[0].shape[1]))
        split = u.reshape(-1, basis.orders[-1], basis.dim, vals[0].shape[1])
        for d in range(basis.dim):
            parts = list(vals)
            parts[d] = 2.0 * grads[d] - scores[c][:, d] * vals[d]
            _combine(parts, split[:, :, d, :])
        block = (u * np.sqrt(weights[c])).reshape(basis.size, -1)
        m += block @ block.T
    return m


def pairwise_prefix(family: BasisFamily, order: int):
    """The CDF table's grid and the integrals of every phi_k phi_l up to each grid point.

    Returns grid (points,) and prefix (points, order * (order + 1) / 2):
    column j holds the pair (k, l) = np.triu_indices(order)[.][j], doubled
    when k != l, so the CDF of sum_kl S_kl phi_k phi_l is
    prefix @ S[np.triu_indices(order)].  Each cell's (order, order) block is
    a 10-point Gauss-Legendre rule on the products, accumulated in grid order.
    """
    grid = cdf_grid(family, order)
    t, w = np.polynomial.legendre.leggauss(10)
    half = 0.5 * np.diff(grid)[:, None]
    nodes = 0.5 * (grid[:-1] + grid[1:])[:, None] + half * t
    weights = half * w
    vals = basis_tables(family, order, nodes.reshape(-1))
    v = vals.reshape(order, *nodes.shape).transpose(1, 2, 0)  # (cells, 10, order)
    upper, lower = np.triu_indices(order)
    doubled = np.where(upper == lower, 1.0, 2.0)
    prefix = np.zeros((grid.shape[0], upper.shape[0]))
    for start in range(0, v.shape[0], 512):
        chunk = v[start : start + 512]
        cells = np.matmul((chunk * weights[start : start + 512, :, None]).transpose(0, 2, 1), chunk)
        block = np.cumsum(cells[:, upper, lower] * doubled, axis=0)
        prefix[start + 1 : start + 1 + block.shape[0]] = block + prefix[start]
    return grid, prefix


def recurrence_tables(family: BasisFamily, order: int, z) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives (order, n) of phi_1..phi_order, each family by its own recurrence."""
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    if family.kind == HERMITE:
        # phi'_k = (sqrt(k-1)*phi_{k-1} - sqrt(k)*phi_{k+1}) / 2
        vals = np.empty((max(order + 1, 2), n))
        vals[0] = (2.0 * math.pi) ** (-0.25) * np.exp(-0.25 * z * z)
        vals[1] = z * vals[0]
        for k in range(2, order + 1):
            vals[k] = (z * vals[k - 1] - math.sqrt(k - 1) * vals[k - 2]) / math.sqrt(k)
        grads = np.empty((order, n))
        grads[0] = -0.5 * vals[1]
        for k in range(2, order + 1):
            grads[k - 1] = 0.5 * (math.sqrt(k - 1) * vals[k - 2] - math.sqrt(k) * vals[k])
        return vals[:order], grads
    if family.kind == LEGENDRE:
        p = np.empty((order, n))
        dp = np.empty((order, n))
        p[0], dp[0] = 1.0, 0.0
        if order >= 2:
            p[1], dp[1] = z, 1.0
        for k in range(2, order):
            p[k] = ((2 * k - 1) * z * p[k - 1] - (k - 1) * p[k - 2]) / k
            dp[k] = dp[k - 2] + (2 * k - 1) * p[k - 1]
        scale = np.sqrt((2.0 * np.arange(1, order + 1) - 1.0) / 2.0)[:, None]
        return p * scale, dp * scale
    if family.kind == FOURIER:
        vals = np.empty((order, n))
        grads = np.empty((order, n))
        vals[0], grads[0] = (2.0 * math.pi) ** (-0.5), 0.0
        inv_sqrt_pi = math.pi ** (-0.5)
        for k in range(2, order + 1):
            m = k // 2
            if k % 2 == 0:
                vals[k - 1] = np.cos(m * z) * inv_sqrt_pi
                grads[k - 1] = -m * np.sin(m * z) * inv_sqrt_pi
            else:
                vals[k - 1] = np.sin(m * z) * inv_sqrt_pi
                grads[k - 1] = m * np.cos(m * z) * inv_sqrt_pi
        return vals, grads
    assert family.kind == LAGUERRE
    lag = np.empty((order, n))
    dlag = np.empty((order, n))
    lag[0], dlag[0] = 1.0, 0.0
    if order >= 2:
        lag[1], dlag[1] = 1.0 - z, -1.0
    for k in range(2, order):
        lag[k] = ((2 * k - 1 - z) * lag[k - 1] - (k - 1) * lag[k - 2]) / k
        dlag[k] = dlag[k - 1] - lag[k - 1]
    w = np.exp(-0.5 * z)
    return lag * w, (dlag - 0.5 * lag) * w


class CountingScore:
    """A target whose score calls are counted in `points`, the rows scored so far."""

    def __init__(self, target):
        self.target = target
        self.dim = target.dim
        self.points = 0

    def score(self, z):
        self.points += np.shape(z)[0]
        return self.target.score(z)


def while_loop_invert(table, sq, targets):
    """`density._invert` bisecting while any draw's cell is wider than one grid step."""
    grid, rows = table.grid, table.pair_prefix
    last = grid.shape[0] - 1
    nodes = np.append(np.arange(0, last, math.ceil(last / density._COARSE_CELLS)), last)
    node_cdf = sq @ rows[nodes].T
    below = node_cdf[:, -2::-1] <= targets[:, None]
    below[:, -1] = True
    cell = nodes.shape[0] - 2 - np.argmax(below, axis=1)
    each = np.arange(targets.shape[0])
    lo, hi = nodes[cell], nodes[cell + 1]
    c_lo, c_hi = node_cdf[each, cell], node_cdf[each, cell + 1]
    while np.max(hi - lo) > 1:
        mid = (lo + hi) // 2
        c_mid = np.einsum("cj,cj->c", sq, rows[mid])
        below = c_mid <= targets
        lo, c_lo = np.where(below, mid, lo), np.where(below, c_mid, c_lo)
        hi, c_hi = np.where(below, hi, mid), np.where(below, c_hi, c_mid)
    p_lo = np.einsum("cj,cj->c", sq, table.vals[lo])
    p_hi = np.einsum("cj,cj->c", sq, table.vals[hi])
    return density._place(grid, targets, node_cdf[:, -1], lo, hi, (c_lo, c_hi), (p_lo, p_hi))
