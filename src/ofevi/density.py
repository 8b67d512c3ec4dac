"""Squared orthogonal-expansion densities.

q(z) = f(z)^2 with f(z) = sum_i alpha_i Phi_i(z), where the Phi_i are
products of orthonormal 1-D basis functions and ||alpha||_2 = 1.  Squaring
makes q nonnegative and orthonormality makes it integrate to one, so q is a
density for every unit coefficient vector with no normalizing constant to
track.  An optional affine transform re-expresses the density in original
(unstandardized) coordinates; evaluation, sampling, and moments all honor it.

Evaluation never forms the K product features.  One primitive,
`_contract_axis`, contracts the (K_1, ..., K_D) coefficient tensor against
per-point 1-D tables one axis at a time; f and grad f take every axis in
turn, in chunks of points, so memory is O(chunk * (K / K_1 * D + sum K_d)).

Exact sampling proceeds one dimension at a time: the marginal of the first
coordinate and each conditional given earlier coordinates are again squared
expansions, with coefficient matrices S = W W^T.  W is a running block per
chunk of draws that `_contract_axis` takes each coordinate into once it is
drawn.  Each 1-D CDF is the inner product of the upper triangle of S with a
row of a precomputed grid of pairwise basis integrals, packed to
order * (order + 1) / 2 columns, and one bisection (`_invert`) inverts them
all: the first coordinate's CDF is tabulated once, since every draw shares
its S, and a conditional's is contracted per draw.  One GEMM per chunk of
draws gives every draw's CDF at every 128th grid point, so each search
starts inside one such stretch.  Every coordinate of a chunk goes through
the same loop, so the sampler's working memory beyond its uniforms and
samples is O(chunk).

First and second moments contract the coefficient tensor, one axis at a
time, with per-axis matrices of the integrals of x phi_a phi_b and
x^2 phi_a phi_b: banded recurrences for Hermite, quadrature otherwise.

Every other 1-D integral, for the CDF tables and the non-Hermite moments,
comes from one composite 7-point Gauss-Lobatto rule on a grid sized from
the family and the order, so sampling and moments hold at every order up
to the family's max_order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from .basis1d import HERMITE, LAGUERRE, BasisFamily, basis_tables
from .exceptions import PoleError, TableBuildError
from .product_basis import ProductBasis
from .utils import as_batch

_CHUNK_DRAWS = 1024
_CHUNK_POINTS = 8192
# Grid-index spacing of the nodes at which one GEMM per chunk of draws gives
# every draw's CDF; a draw's bisection starts inside the node cell holding
# its target, so it takes log2(_COARSE_STRIDE) steps.
_COARSE_STRIDE = 128


def _contract_axis(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Contract a coefficient block with the 1-D basis values of c points.

    table is (K_d, c).  w is either one block shared by every point, shape
    (K_d * rest,), contracted by one GEMM, or one block per point, shape
    (c, K_d * rest); the axis of table leads the block.  Returns (c, rest).
    """
    if w.ndim == 1:
        return table.T @ w.reshape(table.shape[0], -1)
    w = w.reshape(w.shape[0], table.shape[0], -1)
    return np.einsum("cnr,nc->cr", w, table)


def _invert(
    grid: np.ndarray, cdf_at, targets: np.ndarray, nodes: np.ndarray, node_cdf: np.ndarray
) -> tuple[np.ndarray, int]:
    """Points where a CDF tabulated on `grid` reaches `targets`; also the clamp count.

    nodes are increasing grid indices from 0 to the last, and node_cdf the
    CDF at them, shape (len(nodes),) when every target shares one CDF or
    (targets, len(nodes)).  Each target's search starts in the node cell
    that holds it; cdf_at(idx) gives, for each target, its CDF at grid index
    idx (an array shaped like targets), and one bisection narrows the cell
    to one grid step, keeping the CDF values at both ends.  The point is
    interpolated linearly inside that step.  A target at or above the CDF's
    last grid value is pinned to the grid edge and counted as a clamp.
    """
    node_cdf = np.broadcast_to(node_cdf, targets.shape + nodes.shape)
    clamped = targets >= node_cdf[:, -1]
    # Start from the last node at or below the target (node 0 at the least),
    # so the bracket keeps cdf(lo) <= target < cdf(hi) even where rounding
    # makes the CDF dip.
    below = node_cdf[:, :-1] <= targets[:, None]
    below[:, 0] = True
    cell = nodes.shape[0] - 2 - np.argmax(below[:, ::-1], axis=1)
    each = np.arange(targets.shape[0])
    lo, hi = nodes[cell], nodes[cell + 1]
    c_lo, c_hi = node_cdf[each, cell], node_cdf[each, cell + 1]
    while np.max(hi - lo) > 1:
        mid = (lo + hi) // 2
        c_mid = cdf_at(mid)
        below = c_mid <= targets
        lo, c_lo = np.where(below, mid, lo), np.where(below, c_mid, c_lo)
        hi, c_hi = np.where(below, hi, mid), np.where(below, c_hi, c_mid)
    gap = c_hi - c_lo
    frac = np.where(gap > 0.0, (targets - c_lo) / np.where(gap > 0.0, gap, 1.0), 0.0)
    # Rounding can make cdf_at disagree with node_cdf at a node by an ulp,
    # which may collapse a finished bracket to hi == lo: its point is grid[lo].
    x = grid[lo] + np.clip(frac, 0.0, 1.0) * (grid[hi] - grid[lo])
    return np.where(clamped, grid[-1], x), int(np.count_nonzero(clamped))


def default_grid_spec(family: BasisFamily, order: int) -> tuple[float, float, int]:
    """Quadrature grid (lo, hi, points) that holds the order-`order` mass.

    Bounded supports use the whole support.  On unbounded domains high orders
    spread mass outward: phi_order oscillates out to about sqrt(4 * order + 2)
    on the Hermite line and 4 * order on the Laguerre half line, and the grid
    reaches past that (never less than 12 and 60).  The mass check in
    `build_cdf_table` catches a grid that is too narrow.
    """
    if family.kind == HERMITE:
        half = max(12.0, math.sqrt(4.0 * order + 2.0) + 2.0)
        return (-half, half, 4001)
    lo, hi = family.support
    if family.kind == LAGUERRE:
        return (lo, max(60.0, 4.0 * order + 10.0 * np.sqrt(order) + 20.0), 4001)
    return (lo, hi, 2001)


# 7-point Gauss-Lobatto rule on [-1, 1], exact for polynomials of degree 11
# (Simpson's rule is its 3-point case).  Its end nodes are the cell edges, so
# the composite rule on a grid needs the basis on the grid and at 5 interior
# nodes per cell.
_OUTER, _INNER = (math.sqrt((5.0 + s * 2.0 * math.sqrt(5.0 / 3.0)) / 11.0) for s in (1, -1))
_LOBATTO_NODES = np.array([-1.0, -_OUTER, -_INNER, 0.0, _INNER, _OUTER, 1.0])
_R15 = 21.0 * math.sqrt(15.0)
_LOBATTO_WEIGHTS = np.array(
    [50.0, 372.0 - _R15, 372.0 + _R15, 512.0, 372.0 + _R15, 372.0 - _R15, 50.0]
) / 1050.0
_MASS_TOL = 1e-6
_CHUNK_CELLS = 512


def _composite_rule(family: BasisFamily, order: int):
    """The family's grid and the nodes and weights of the rule on its cells.

    Returns grid (points,), nodes and weights (points - 1, 7); row c holds
    grid[c], the 5 interior nodes of cell c, and grid[c + 1].
    """
    grid = np.linspace(*default_grid_spec(family, order))
    half = 0.5 * np.diff(grid)[:, None]
    nodes = 0.5 * (grid[:-1] + grid[1:])[:, None] + half * _LOBATTO_NODES
    nodes[:, 0], nodes[:, -1] = grid[:-1], grid[1:]
    return grid, nodes, half * _LOBATTO_WEIGHTS


@dataclass(frozen=True)
class CdfTable:
    """Precomputed quantities for inverting 1-D squared-expansion CDFs.

    vals holds the basis on the grid and mid_vals at the 5 interior
    Gauss-Lobatto nodes of each cell, shape (order, points - 1, 5).
    pair_prefix is packed, shape (points, order * (order + 1) / 2): column j
    of row g is the integral of phi_{k+1} phi_{l+1} from the grid's lower
    end up to grid[g], for (k, l) the j-th pair of np.triu_indices(order),
    doubled when k != l.  The CDF of any conditional with symmetric
    coefficient matrix S is then pair_prefix[g] @ S[np.triu_indices(order)],
    and each grid point's block is one contiguous row.
    """

    family: BasisFamily
    order: int
    grid: np.ndarray
    vals: np.ndarray
    mid_vals: np.ndarray
    pair_prefix: np.ndarray

    @property
    def points(self) -> int:
        return self.grid.shape[0]


def build_cdf_table(family: BasisFamily, order: int) -> CdfTable:
    """Pairwise prefix integrals on `default_grid_spec(family, order)`.

    Each cell's (order, order) block of integrals is one weighted product of
    its 7 rows of basis values, packed to its upper triangle at once; blocks
    are accumulated in grid order, a chunk of cells at a time to bound
    memory.  Raises TableBuildError when the prefix at the grid's upper end
    is farther than 1e-6 from the identity, i.e. the grid misses mass of
    some basis product.
    """
    grid, nodes, weights = _composite_rule(family, order)
    points = grid.shape[0]
    vals, _ = basis_tables(family, order, grid)
    mid_vals, _ = basis_tables(family, order, nodes[:, 1:-1].reshape(-1))
    mid_vals = mid_vals.reshape(order, points - 1, 5)
    upper, lower = np.triu_indices(order)
    doubled = np.where(upper == lower, 1.0, 2.0)

    prefix = np.empty((points, upper.shape[0]))
    prefix[0] = 0.0
    for start in range(0, points - 1, _CHUNK_CELLS):
        stop = min(start + _CHUNK_CELLS, points - 1)
        v = np.concatenate(
            [vals[:, start:stop, None], mid_vals[:, start:stop],
             vals[:, start + 1 : stop + 1, None]],
            axis=2,
        ).transpose(1, 2, 0)  # (cells, 7, order)
        cells = np.matmul((v * weights[start:stop, :, None]).transpose(0, 2, 1), v)
        block = prefix[start + 1 : stop + 1]
        np.cumsum(cells[:, upper, lower] * doubled, axis=0, out=block)
        block += prefix[start]

    total = np.empty((order, order))
    total[upper, lower] = total[lower, upper] = prefix[-1] / doubled
    err = float(np.max(np.abs(np.linalg.eigvalsh(total - np.eye(order)))))
    if err > _MASS_TOL:
        raise TableBuildError(
            f"grid [{grid[0]}, {grid[-1]}] captures the order-{order} {family.kind} mass "
            f"only to {err:.2e} (tolerance {_MASS_TOL:.0e}); widen the grid"
        )
    return CdfTable(family, order, grid, vals, mid_vals, prefix)


def _packed_positions(order: int) -> np.ndarray:
    """Flat positions in an (order, order) matrix of the packed table columns."""
    upper, lower = np.triu_indices(order)
    return upper * order + lower


def _moment_matrices(family: BasisFamily, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, order) matrices of the integrals of x phi_a phi_b and x^2 phi_a phi_b.

    For the Hermite family these are the closed-form bands of the
    recurrence z phi_a = sqrt(a) phi_{a+1} + sqrt(a-1) phi_{a-1} (1-based):
    x couples neighbours, and x^2 is the square of the untruncated x band,
    not of its top-left block.  Other families integrate on the nodes of the
    composite rule that builds their CDF tables.
    """
    if family.kind == HERMITE:
        a = np.arange(order)
        first = np.zeros((order, order))
        first[a[:-1], a[1:]] = first[a[1:], a[:-1]] = np.sqrt(a[1:])
        second = np.diag(2.0 * a + 1.0)
        second[a[:-2], a[2:]] = second[a[2:], a[:-2]] = np.sqrt((a[:-2] + 1.0) * (a[:-2] + 2.0))
        return first, second
    _, nodes, weights = _composite_rule(family, order)
    x, w = nodes.reshape(-1), weights.reshape(-1)
    vals, _ = basis_tables(family, order, x)
    weighted = vals * (w * x)
    return weighted @ vals.T, (weighted * x) @ vals.T


def _apply_axis(t: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract axis `axis` of tensor t with the matrix mat (mat @ t along it)."""
    return np.moveaxis(np.tensordot(mat, t, axes=(1, axis)), 0, axis)


class OfeDensity:
    """A normalized squared-expansion density with sampling and moments."""

    def __init__(self, basis: ProductBasis, coeffs: np.ndarray, transform=None):
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if coeffs.shape[0] != basis.size:
            raise ValueError(f"need {basis.size} coefficients, got {coeffs.shape[0]}")
        norm = float(np.linalg.norm(coeffs))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("coefficients must be finite and not all zero")
        if transform is not None and transform.dim != basis.dim:
            raise ValueError("transform dimension does not match basis")
        self.basis = basis
        self.coeffs = coeffs / norm if abs(norm - 1.0) > 1e-14 else coeffs
        self.transform = transform
        self._tables: dict[tuple[str, int], CdfTable] = {}

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def size(self) -> int:
        return self.basis.size

    def _standardize(self, z):
        return as_batch(z, self.dim) if self.transform is None else self.transform.to_standard(z)

    # -- evaluation ---------------------------------------------------------

    def expansion(self, z):
        """f (n,) at the standardized points of z (n, D); the density is f^2 / |det chol|."""
        f, _ = self._expansion_terms(self._standardize(z), gradient=False)
        return f

    def density(self, z):
        f = self.expansion(z)
        q = f * f
        if self.transform is not None:
            q = q * np.exp(-self.transform.log_det)
        return q

    def log_density(self, z):
        f = self.expansion(z)
        with np.errstate(divide="ignore"):
            out = 2.0 * np.log(np.abs(f))
        if self.transform is not None:
            out = out - self.transform.log_det
        return out

    def score(self, z):
        """Gradient of log q; raises at zeros of the expansion."""
        f, g = self._expansion_terms(self._standardize(z), gradient=True)
        if np.any(f == 0.0):
            raise PoleError("score undefined at a zero of the expansion")
        out = 2.0 * g / f[:, None]
        if self.transform is not None:
            out = solve_triangular(self.transform.chol, out.T, lower=True, trans="T").T
        return out

    def _expansion_terms(self, z: np.ndarray, gradient: bool):
        """f (n,) and, if requested, grad f (n, D) at standardized points.

        Works through the points in chunks of `_CHUNK_POINTS`.  Per chunk the
        coefficient tensor is contracted one axis at a time against the 1-D
        tables by `_contract_axis`.  Each partial derivative carries its own
        running partial, which takes the derivative table on its own axis and
        value tables elsewhere.
        """
        n, ndim = z.shape
        f = np.empty(n)
        g = np.empty((n, ndim)) if gradient else None
        for start in range(0, n, _CHUNK_POINTS):
            stop = min(start + _CHUNK_POINTS, n)
            vals, grads = self.basis.tables(z[start:stop])
            w = self.coeffs
            partials = []
            for d in range(ndim):
                partials = [_contract_axis(p, vals[d]) for p in partials]
                if gradient:
                    partials.append(_contract_axis(w, grads[d]))
                w = _contract_axis(w, vals[d])
            f[start:stop] = w[:, 0]
            for d, p in enumerate(partials):
                g[start:stop, d] = p[:, 0]
        return f, g

    # -- marginals ----------------------------------------------------------

    def marginal_coefficients(self, keep: int) -> np.ndarray:
        """Coefficient matrix of the marginal over the first `keep` dimensions.

        Contracting the coefficient tensor with itself over trailing
        dimensions yields S with marginal density sum_ab S_ab Phi_a Phi_b
        over the kept prefix basis; trace(S) = 1.
        """
        if not 1 <= keep < self.dim:
            raise ValueError("keep must satisfy 1 <= keep < dim")
        w = self.coeffs.reshape(math.prod(self.basis.orders[:keep]), -1)
        return w @ w.T

    # -- moments ------------------------------------------------------------

    def mean_and_cov(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second moments, in original coordinates if transformed.

        Each moment is the coefficient tensor contracted with itself through
        one per-axis matrix of x or x^2 integrals (two for a cross moment),
        the identity standing for every other axis by orthonormality.
        """
        beta = self.coeffs.reshape(self.basis.orders)
        ndim = self.dim
        mats = [_moment_matrices(f, k) for f, k in zip(self.basis.families, self.basis.orders)]
        moved = [_apply_axis(beta, first, d) for d, (first, _) in enumerate(mats)]
        mean = np.array([np.sum(beta * m) for m in moved])
        second = np.empty((ndim, ndim))
        for d in range(ndim):
            second[d, d] = np.sum(beta * _apply_axis(beta, mats[d][1], d))
            for e in range(d):
                m = np.sum(beta * _apply_axis(moved[d], mats[e][0], e))
                second[d, e] = second[e, d] = m
        cov = second - np.outer(mean, mean)
        if self.transform is not None:
            mean, cov = self.transform.scale_moments(mean, cov)
        return mean, cov

    # -- sampling -----------------------------------------------------------

    def _table_for(self, d: int) -> CdfTable:
        fam = self.basis.families[d]
        key = (fam.kind, self.basis.orders[d])
        if key not in self._tables:
            self._tables[key] = build_cdf_table(fam, self.basis.orders[d])
        return self._tables[key]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        samples, _ = self.sample_with_info(rng, n)
        return samples

    def sample_with_info(self, rng: np.random.Generator, n: int):
        """Draw n exact samples; info reports boundary clamps per dimension.

        Draws go through in chunks of `_CHUNK_DRAWS`, every coordinate of a
        chunk before the next, so working memory beyond the (n, dim)
        uniforms and samples is O(chunk).  A chunk's running block W starts
        as the coefficient tensor and takes in each coordinate once it is
        drawn; coordinate d's S = W W^T sums over the axes not yet drawn,
        and trace(S) is its normalizer.  A clamp happens when a uniform draw
        targets the sliver of mass the grid does not capture (at most the
        build tolerance); the sample is pinned to the grid edge and counted.
        """
        n = int(n)
        if n <= 0:
            raise ValueError("n must be positive")
        ndim = self.dim
        orders, families = self.basis.orders, self.basis.families
        out = np.empty((n, ndim))
        clamps = np.zeros(ndim, dtype=int)
        uniforms = rng.random((n, ndim))
        tables = [self._table_for(d) for d in range(ndim)]
        coarse = [np.append(np.arange(0, t.points - 1, _COARSE_STRIDE), t.points - 1) for t in tables]
        coarse_rows = [t.pair_prefix[i] for t, i in zip(tables, coarse)]
        pairs = [_packed_positions(k) for k in orders]

        # Every draw shares the first coordinate's S: its CDF is tabulated once.
        lead = self.coeffs.reshape(orders[0], -1)
        s0 = lead @ lead.T
        cdf0 = tables[0].pair_prefix @ s0.reshape(-1)[pairs[0]]
        trace0 = np.trace(s0)

        for start in range(0, n, _CHUNK_DRAWS):
            stop = min(start + _CHUNK_DRAWS, n)
            w = self.coeffs
            for d in range(ndim):
                if d == 0:
                    traces, cdf_at, node_cdf = trace0, cdf0.__getitem__, cdf0[coarse[0]]
                else:
                    vals, _ = basis_tables(families[d - 1], orders[d - 1], out[start:stop, d - 1])
                    w = _contract_axis(w, vals)
                    block = w.reshape(stop - start, orders[d], -1)
                    s_mats = np.einsum("cap,cbp->cab", block, block)
                    traces = np.einsum("caa->c", s_mats)
                    if np.any(traces <= 0.0):
                        raise PoleError("conditional density requested at a zero of the marginal")
                    # np.take returns C-contiguous rows; S[:, u, l] would not, and
                    # each bisection step's dot product would run strided.
                    packed = np.take(s_mats.reshape(stop - start, -1), pairs[d], axis=1)
                    rows, node_cdf = tables[d].pair_prefix, packed @ coarse_rows[d].T

                    def cdf_at(idx):
                        return np.einsum("cj,cj->c", packed, rows[idx])

                out[start:stop, d], c = _invert(
                    tables[d].grid, cdf_at, uniforms[start:stop, d] * traces, coarse[d], node_cdf
                )
                clamps[d] += c
        if self.transform is not None:
            out = self.transform.from_standard(out)
        return out, {"boundary_clamps": clamps}

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "families": [f.kind for f in self.basis.families],
            "max_orders": [f.max_order for f in self.basis.families],
            "orders": list(self.basis.orders),
            "coeffs": self.coeffs.tolist(),
            "transform": None,
        }
        if self.transform is not None:
            payload["transform"] = {
                "mean": self.transform.mean.tolist(),
                "chol": self.transform.chol.tolist(),
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "OfeDensity":
        # imported here: standardize depends on this module for pull_density
        from .standardize import StandardizingTransform

        families = [
            BasisFamily(kind, max_order=mo)
            for kind, mo in zip(payload["families"], payload["max_orders"])
        ]
        basis = ProductBasis(families=families, orders=payload["orders"])
        transform = None
        if payload.get("transform") is not None:
            transform = StandardizingTransform(
                np.asarray(payload["transform"]["mean"], dtype=float),
                np.asarray(payload["transform"]["chol"], dtype=float),
            )
        return cls(basis, np.asarray(payload["coeffs"], dtype=float), transform)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "OfeDensity":
        return cls.from_dict(json.loads(Path(path).read_text()))

