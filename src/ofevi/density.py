"""Squared orthogonal-expansion densities.

q(z) = f(z)^2 with f(z) = sum_i alpha_i Phi_i(z), where the Phi_i are
products of orthonormal 1-D basis functions and ||alpha||_2 = 1.  Squaring
makes q nonnegative and orthonormality makes it integrate to one, so q is a
density for every unit coefficient vector with no normalizing constant to
track.  An optional `StandardizingTransform`, passed to the constructor,
re-expresses the density in original (unstandardized) coordinates;
evaluation, sampling, moments and the density file all honor it.

Evaluation never forms the K product features.  One primitive,
`_contract_axis`, contracts the (K_1, ..., K_D) coefficient tensor against
per-point 1-D value tables one axis at a time, points last and in chunks,
so memory is O(chunk * (K / K_1 + sum K_d)).  Partial d of f is the
coefficient tensor mapped through axis d's `derivative_matrix`, contracted
against the values, one order up only where that matrix reaches phi_{K_d + 1}:
no derivative table is built.  Axes that need the same family and number
of rows share one table build per chunk, over their coordinates laid end
to end in one contiguous array, so a uniform D-axis basis runs one
recurrence and one support check per chunk, not D of them over strided
columns.

Exact sampling proceeds one dimension at a time: the marginal of the first
coordinate and each conditional given earlier coordinates are again squared
expansions, with coefficient matrices S = W W^T.  W is a running block per
chunk of draws that `_contract_axis` takes each coordinate into once it is
drawn.  Every product phi_k phi_l of one axis lies in the span of M
orthonormal functions of the same family, M = 2 * order - 1 (Fourier:
4 * (order // 2) + 1), whose M-node Gauss rule integrates every product of
two of them exactly.  So a conditional's CDF is a sum over those nodes:
the squares sq_j = sum_p (W^T phi(t_j))_p^2 of a draw's block at the nodes,
weighted by the rule's projections of each span function's prefix integral.
The CDF tables hold their rows in that node basis, so a draw's CDF at grid
point g is sq @ pair_prefix[g], and its density sq @ vals[g], with no
per-draw change of basis.  Every draw shares the first coordinate's
squares, so its CDF and density are tabulated once and searched with
`np.searchsorted`; a conditional's differ per draw, and `_invert` finds
its CDF's node cell from one GEMM per chunk of draws at the 33 nodes that
split the grid into 32 cells, then halves every draw's cell the same fixed
number of times, ceil(log2) of the widest cell's grid steps.  Both searches
end in one cubic step inside a grid cell (`_place`): the point where the
cubic Hermite interpolant of the CDF, built from the CDF and the density
at the cell's two ends, reaches the target.  Each chunk draws its own
uniforms, and a transform maps each chunk's rows in place, so the
sampler's working memory beyond its samples is O(chunk).  A sampling call
builds one CDF table per distinct (family, order) axis, without full-size
copies of its values, and drops them when it returns: a density holds only
its basis, coefficients and transform.

First and second moments contract the coefficient tensor, one axis at a
time, with per-axis matrices of the integrals of x phi_a phi_b and
x^2 phi_a phi_b, each exact from the family's own Gauss rule.

The CDF tables' prefix integrals are exact, in closed form (DLMF 18.9), so
the grid, 1001 points in every family, only serves the cubic step and is
graded where the basis crowds its zeros.  A draw's CDF misses its uniform
by about 5e-8 at order 20 and by under 1e-6 at order 64, in every family.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from . import _blas
from .basis1d import (
    _TABLE_BUILDERS,
    FOURIER,
    HERMITE,
    LAGUERRE,
    LEGENDRE,
    BasisFamily,
    basis_tables,
    derivative_matrix,
)
from .exceptions import PoleError, TableBuildError
from .product_basis import ProductBasis
from .standardize import StandardizingTransform
from .utils import as_batch, as_floats, as_integer, as_list

# Draws the sampler takes through at a time.  Its per-draw work is many
# small numpy calls, whose overhead a longer chunk spreads over more draws;
# a chunk's working arrays take about 1.3 kB a draw on a 20x20 density.
_CHUNK_DRAWS = 1536
_CHUNK_POINTS = 8192
# Number of cells between the nodes at which one GEMM per chunk of draws
# gives every draw's CDF; a draw's bisection starts inside the node cell
# holding its target, so it takes ceil(log2(ceil((points - 1) / _COARSE_CELLS)))
# halvings, 5 on a 1001-point grid.
_COARSE_CELLS = 32
# Grid points whose span values and integrals a table build holds in
# `_span_rows`'s (M, points) layout at once, before they go into the table's
# rows and into the node basis.
_BUILD_POINTS = 256


def _contract_axis(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Contract a coefficient block with the 1-D basis values of c points.

    table is (K_d, c).  w is either one block shared by every point, shape
    (K_d * rest,), contracted by one GEMM, or one block per point, shape
    (K_d * rest, c); the axis of table leads the block.  Returns (rest, c):
    points last, so every product runs along contiguous rows of the table.
    """
    if w.ndim == 1:
        return w.reshape(table.shape[0], -1).T @ table
    w = w.reshape(table.shape[0], -1, w.shape[-1])
    return np.einsum("nrc,nc->rc", w, table)


def _invert(table, sq, targets) -> tuple[np.ndarray, int]:
    """Points where each draw's conditional CDF reaches its target; also the clamp count.

    Draw i's CDF at grid index g is sq[i] @ table.pair_prefix[g] and its
    density sq[i] @ table.vals[g], with sq (draws, M) its squares at the
    span's Gauss nodes (`CdfTable.node_squares`).  Each search starts in
    the node cell, one of `_COARSE_CELLS`, holding its target, and every
    draw's cell is halved ceil(log2(w)) times, w the widest node cell's grid
    steps, which narrows each to the one grid step that `_place` ends in.
    A cell that is already one step wide stays so: its midpoint is its
    lower end.
    """
    grid, rows = table.grid, table.pair_prefix
    last = grid.shape[0] - 1
    step = math.ceil(last / _COARSE_CELLS)
    nodes = np.append(np.arange(0, last, step), last)
    node_cdf = sq @ rows[nodes].T
    # Start from the last node at or below the target (node 0 at the least),
    # so the bracket keeps cdf(lo) <= target < cdf(hi) even where rounding
    # makes the CDF dip.  below runs from the last node down: argmax reads it contiguously.
    below = node_cdf[:, -2::-1] <= targets[:, None]
    below[:, -1] = True
    cell = nodes.shape[0] - 2 - np.argmax(below, axis=1)
    each = np.arange(targets.shape[0])
    lo, hi = nodes[cell], nodes[cell + 1]
    c_lo, c_hi = node_cdf[each, cell], node_cdf[each, cell + 1]
    # A halving leaves a cell of w steps at most ceil(w / 2) wide.
    for _ in range((step - 1).bit_length()):
        mid = (lo + hi) // 2
        c_mid = np.einsum("cj,cj->c", sq, np.take(rows, mid, axis=0))
        below = c_mid <= targets
        lo, c_lo = np.where(below, mid, lo), np.where(below, c_mid, c_lo)
        hi, c_hi = np.where(below, hi, mid), np.where(below, c_hi, c_mid)
    p_lo = np.einsum("cj,cj->c", sq, np.take(table.vals, lo, axis=0))
    p_hi = np.einsum("cj,cj->c", sq, np.take(table.vals, hi, axis=0))
    return _place(grid, targets, node_cdf[:, -1], lo, hi, (c_lo, c_hi), (p_lo, p_hi))


def _place(grid, targets, top, lo, hi, cdf, dens) -> tuple[np.ndarray, int]:
    """Each target's point inside [grid[lo], grid[hi]], where the CDF is cdf and its density dens.

    cdf and dens are pairs of arrays, their values at grid[lo] and grid[hi].
    The point is where the cubic Hermite interpolant of the CDF on the cell,
    the cubic that matches both values and both slopes, reaches the target
    (the interpolant of fast numerical inversion: Hoermann and Leydold, ACM
    TOMACS 13(4), 2003).  Two steps of Laguerre's method find it from the
    linear guess.  Newton's method would not do: where the density nearly
    vanishes at one end of the cell the cubic is close to a cube about that
    end, and there Newton converges only linearly.  A target at or above
    top, the CDF's last grid value, is pinned to the grid edge and counted
    as a clamp.
    """
    clamped = targets >= top
    h = grid[hi] - grid[lo]
    gap, rest = cdf[1] - cdf[0], targets - cdf[0]
    # In cell units t the cubic is C(t) = t (m0 + t (a2 + t a3)) above cdf[0]; its
    # slopes at t = 0 and t = 1 are m0 and m1, h times the density there.  Then
    # C'(t) = m0 + t (b2 + t b3) and 1.5 C''(t) = f2 + t f3.
    m0 = h * dens[0]
    a3 = m0 + h * dens[1] - 2.0 * gap
    a2 = gap - m0 - a3
    b2, b3 = 2.0 * a2, 3.0 * a3
    f2, f3 = 3.0 * a2, 9.0 * a3

    def laguerre(t):
        """C(t) - rest, and Laguerre's step from t: 3 C / (C' + sign(C') sqrt(4 C'^2 - 6 C C''))."""
        miss = t * (m0 + t * (a2 + t * a3)) - rest
        slope = m0 + t * (b2 + t * b3)
        root = np.sqrt(np.maximum(slope * slope - miss * (f2 + t * f3), 0.0))
        half = 0.5 * slope + np.copysign(root, slope)
        # No step where the denominator is 0, at a flat point of the cubic.
        return miss, 1.5 * miss / np.where(half != 0.0, half, np.inf)

    # A bisection step can differ from the GEMM's node value by an ulp, which
    # may collapse a finished bracket to hi == lo: there gap is 0, and so is t.
    t = np.clip(rest / np.where(gap > 0.0, gap, np.inf), 0.0, 1.0)
    miss, step = laguerre(t)
    # The target lies in [0, t] where the linear guess overshoots it, else in
    # [t, 1]; a first step that leaves that part lands at its midpoint instead.
    over = miss > 0.0
    low, high = np.where(over, 0.0, t), np.where(over, t, 1.0)
    t = t - step
    t = np.where((low <= t) & (t <= high), t, 0.5 * (low + high))
    t = np.clip(t - laguerre(t)[1], 0.0, 1.0)
    return np.where(clamped, grid[-1], grid[lo] + t * h), int(np.count_nonzero(clamped))


def cdf_grid(family: BasisFamily, order: int) -> np.ndarray:
    """The 1001 points of the order-`order` CDF table, graded where the basis crowds its zeros.

    Chebyshev points on [-1, 1], quadratic spacing on the Laguerre [0, hi],
    uniform elsewhere.  phi_order oscillates out to about sqrt(4 * order + 2)
    on the Hermite line and 4 * order on the Laguerre half line, and the
    grid reaches past that; `build_cdf_table`'s mass check catches a grid
    that is too narrow.
    """
    if family.kind == HERMITE:
        half = max(12.0, math.sqrt(4.0 * order + 2.0) + 2.0)
        return np.linspace(-half, half, 1001)
    if family.kind == FOURIER:
        return np.linspace(0.0, 2.0 * math.pi, 1001)
    s = np.linspace(0.0, 1.0, 1001)
    if family.kind == LEGENDRE:
        return -np.cos(math.pi * s)
    return max(60.0, 4.0 * order + 10.0 * math.sqrt(order) + 20.0) * s * s


_MASS_TOL = 1e-6


@dataclass(frozen=True)
class CdfTable:
    """Precomputed quantities for inverting 1-D squared-expansion CDFs.

    Every product phi_k phi_l of the family at `order` lies in the span of
    M orthonormal functions g_1..g_M (see `_span_values`), whose M-node
    Gauss rule (`_span_rule`) integrates every product of two of them
    exactly.  So a conditional density sum_p (W^T phi)_p^2 is fixed by its
    squares sq_j at the nodes t_j, and the table's rows are in that node
    basis: column j of a row is the rule's weight at t_j times
    sum_m g_m(t_j) G_m, G_m being what the row holds for g_m.  vals, shape
    (points, M), has G_m = g_m(grid[g]), so the density at grid[g] is
    vals[g] @ sq; pair_prefix, shape (points, M), has G_m the exact integral
    of g_m from the grid's lower end up to grid[g], so the CDF there is
    pair_prefix[g] @ sq.  Each grid point's block is one contiguous row, in
    both tables.  mid_vals is zero-size; it stays only because the
    benchmark's tracer sums its bytes.  node_vals (order, M) holds phi_k at
    the nodes.
    """

    grid: np.ndarray
    vals: np.ndarray
    mid_vals: np.ndarray
    pair_prefix: np.ndarray
    node_vals: np.ndarray

    def node_squares(self, block: np.ndarray) -> np.ndarray:
        """sq (c, M): the c densities sum_p (sum_k block[i, k, p] phi_k)^2 at the span's nodes.

        block is (c, order, rest).  A table row times sq is that density's
        value or CDF there.
        """
        c, order, rest = block.shape
        at_nodes = np.swapaxes(block, 1, 2).reshape(-1, order) @ self.node_vals
        at_nodes *= at_nodes
        squares = at_nodes.reshape(c, rest, -1)
        # The last coordinate's block has one column: its sum would be a copy.
        return squares[:, 0] if rest == 1 else squares.sum(axis=1)


def _span_values(family: BasisFamily, size: int, t: np.ndarray) -> np.ndarray:
    """The span functions g_1..g_size at points t, shape (size, n).

    The g_m are orthonormal, and the first M of them span every product
    phi_k phi_l at order k.  Hermite products are polynomials of degree
    2k - 2 times exp(-t^2 / 2): g_m(t) = 2^(1/4) phi_m(sqrt(2) t).  Laguerre
    products are such polynomials times exp(-t): g_m(t) = sqrt(2) phi_m(2 t).
    Legendre and Fourier products lie in the family itself at a higher
    order.  M runs past MAX_ORDER (127 at order 64), so the family's builder
    is called directly.
    """
    c = _DILATION[family.kind]
    vals = _TABLE_BUILDERS[family.kind](size, c * t)
    vals *= math.sqrt(c)
    return vals


# The span's dilation c, g_m(t) = sqrt(c) phi_m(c t), and the nodes of its
# M-point Gauss rule: the zeros of g_{M+1}, or any M equispaced points for
# Fourier.  Dilated by c, the nodes are those of the family's own rule.
_DILATION = {HERMITE: math.sqrt(2.0), LAGUERRE: 2.0, LEGENDRE: 1.0, FOURIER: 1.0}
_SPAN_NODES = {
    HERMITE: lambda size: hermgauss(size)[0],
    LAGUERRE: lambda size: 0.5 * laggauss(size)[0],
    LEGENDRE: lambda size: leggauss(size)[0],
    FOURIER: lambda size: np.arange(size) * (2.0 * math.pi / size),
}


def _span_rule(family: BasisFamily, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The span's M Gauss nodes t_j and its weighted values there, shape (M, M).

    M is 2 * order - 1, and 4 * (order // 2) + 1 for Fourier.  The rule is
    exact for every product of two span functions; its Christoffel weights
    1 / sum_m g_m(t_j)^2 carry the family's weight function inside them.
    """
    size = 4 * (order // 2) + 1 if family.kind == FOURIER else 2 * order - 1
    nodes = _SPAN_NODES[family.kind](size)
    span = _span_values(family, size, nodes)
    return nodes, (span / np.sum(span * span, axis=0)).T


def _span_rows(family: BasisFamily, t: np.ndarray, vals: np.ndarray, out: np.ndarray) -> None:
    """Write g_1..g_M at the points t into vals (M, n), and their integrals up to t into out.

    The integrals are in closed form (DLMF 18.9), from -inf on the Hermite line.
    """
    span = _span_values(family, vals.shape[0] + 1, t)
    vals[...] = span[:-1]
    if family.kind == HERMITE:
        # psi_j = g_{j+1}: G_0 = pi^(1/4) sqrt(2) Phi(t), G_1 = -sqrt(2) psi_0 and
        # G_{j+1} = sqrt(j / (j + 1)) G_{j-1} - sqrt(2 / (j + 1)) psi_j.
        out[0] = [math.erfc(-x / math.sqrt(2.0)) * math.pi**0.25 / math.sqrt(2.0) for x in t]
        out[1:2] = -math.sqrt(2.0) * span[0]
        for j in range(1, out.shape[0] - 1):
            span[j] *= math.sqrt(2.0 / (j + 1))
            np.subtract(math.sqrt(j / (j + 1)) * out[j - 1], span[j], out=out[j + 1])
    elif family.kind == LAGUERRE:
        # g_{n+1}(t) = sqrt(2) l_n(2 t), with l_n(y) = exp(-y / 2) L_n(y) integrating to
        # I_0 = 2 (1 - exp(-y / 2)) and I_{n+1} = 2 (l_n - l_{n+1}) - I_n: G_n = I_n / sqrt(2).
        np.subtract(math.sqrt(2.0), span[0], out=out[0])
        for n in range(out.shape[0] - 1):
            np.subtract(span[n] - span[n + 1], out[n], out=out[n + 1])
    elif family.kind == LEGENDRE:
        # span m as P_m, which integrates to (P_{m+1} - P_{m-1}) / (2 m + 1), and P_0 to P_1 + P_0.
        span *= np.sqrt(2.0 / (2.0 * np.arange(span.shape[0]) + 1.0))[:, None]
        np.add(span[1], span[0], out=out[0])
        np.subtract(span[2:], span[:-2], out=out[1:])
        out /= np.sqrt(4.0 * np.arange(out.shape[0]) + 2.0)[:, None]
    else:
        # t / sqrt(2 pi), then sin(m t) / (m sqrt(pi)) and (1 - cos(m t)) / (m sqrt(pi)).
        np.multiply(t, (2.0 * math.pi) ** -0.5, out=out[0])
        for m in range(1, out.shape[0] // 2 + 1):
            np.divide(span[2 * m], m, out=out[2 * m - 1])
            np.divide(math.pi**-0.5 - span[2 * m - 1], m, out=out[2 * m])


def build_cdf_table(family: BasisFamily, order: int) -> CdfTable:
    """Closed-form prefix integrals of the span functions on `cdf_grid(family, order)`.

    The grid's span values and their integrals (`_span_rows`) go into
    their rows `_BUILD_POINTS` points at a time, and each block of rows
    then into the node basis: row g becomes node_span @ row g, node_span
    (M, M) holding the rule's weighted g_m at its nodes (`_span_rule`).
    So no full-size copy of the table is made.
    Raises TableBuildError when the pairwise integrals at the grid's upper
    end, read through the nodes, are farther than 1e-6 from the identity,
    i.e. the grid leaves out more mass of some basis product than that.
    """
    grid = cdf_grid(family, order)
    span_nodes, node_span = _span_rule(family, order)
    size = node_span.shape[0]
    node_vals = basis_tables(family, order, span_nodes)
    vals, prefix = np.empty((grid.size, size)), np.empty((grid.size, size))
    for start in range(0, grid.size, _BUILD_POINTS):
        block = slice(start, start + _BUILD_POINTS)
        _span_rows(family, grid[block], vals[block].T, prefix[block].T)
        vals[block] = vals[block] @ node_span.T
        prefix[block] = prefix[block] @ node_span.T
    # Rows from grid[0]; subtracting prefix[0] itself would copy the table (the two overlap).
    prefix -= prefix[0].copy()

    total = (node_vals * prefix[-1]) @ node_vals.T
    err = float(np.max(np.abs(np.linalg.eigvalsh(total - np.eye(order)))))
    if err > _MASS_TOL:
        raise TableBuildError(
            f"grid [{grid[0]}, {grid[-1]}] captures the order-{order} {family.kind} mass "
            f"only to {err:.2e} (tolerance {_MASS_TOL:.0e}); widen the grid"
        )
    return CdfTable(grid, vals, np.empty(0), prefix, node_vals)


def _moment_matrices(family: BasisFamily, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, order) matrices of the integrals of x phi_a phi_b and x^2 phi_a phi_b.

    Both come from the family's own Gauss rule, with Christoffel weights
    1 / sum_m phi_m(t_j)^2.  For the polynomial families the (order + 1)-point
    rule is exact.  Fourier products have degree 2 * (order // 2), which the
    span's rule integrates exactly against the Fourier series of x and x^2
    on (0, 2 pi) cut at that degree; the cut terms are orthogonal to them.
    """
    if family.kind == FOURIER:
        t = _SPAN_NODES[FOURIER](4 * (order // 2) + 1)
        m = np.arange(1.0, 2 * (order // 2) + 1)[:, None]
        sin, cos = np.sin(m * t) / m, np.cos(m * t) / m**2
        x = math.pi - 2.0 * sin.sum(axis=0)
        x2 = 4.0 * (math.pi**2 / 3.0 + (cos - math.pi * sin).sum(axis=0))
    else:
        t = _DILATION[family.kind] * _SPAN_NODES[family.kind](order + 1)
        x, x2 = t, t * t
    vals = _TABLE_BUILDERS[family.kind](t.shape[0], t)
    weighted = vals[:order] / np.sum(vals * vals, axis=0)
    return (weighted * x) @ vals[:order].T, (weighted * x2) @ vals[:order].T


def _apply_axis(t: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract axis `axis` of tensor t with the matrix mat (mat @ t along it)."""
    return np.moveaxis(np.tensordot(mat, t, axes=(1, axis)), 0, axis)


class OfeDensity:
    """A normalized squared-expansion density with sampling and moments."""

    def __init__(self, basis: ProductBasis, coeffs: np.ndarray, transform=None):
        coeffs = np.array(coeffs, dtype=float).reshape(-1)
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

    @property
    def dim(self) -> int:
        return self.basis.dim

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
            out = out @ self.transform.inv_chol
        return out

    def _expansion_terms(self, z: np.ndarray, gradient: bool):
        """f (n,) and, if requested, grad f (n, D) at standardized points.

        Each term's coefficient tensor meets the value tables of chunks of `_CHUNK_POINTS`
        points through `_contract_axis`, one term at a time.  Partial d's tensor is f's, mapped
        once per call through axis d's `derivative_matrix`.  Only where that matrix reaches
        phi_{k+1} (Hermite, and Fourier at even orders) is axis d's table built one order up;
        elsewhere the mapped tensor's all-zero last slice is dropped.  Axes that need the same
        family and rows share one table build per chunk, over their coordinates laid end to
        end, and each reads its (rows, chunk) block of it: a table entry depends on its own
        point alone, so the bits are those of one build per axis.
        """
        n, axes = z.shape[0], list(enumerate(zip(self.basis.families, self.basis.orders)))
        terms = [(self.coeffs, self.basis.orders)]
        up = [0] * len(axes)
        if gradient:
            beta = self.coeffs.reshape(self.basis.orders)
            for d, (family, k) in axes:
                dmat = derivative_matrix(family, k)
                up[d] = int(np.any(dmat[:, -1]))
                mapped = _apply_axis(beta, dmat[:, : k + up[d]].T, d)
                terms.append((mapped.reshape(-1), mapped.shape))
        groups = {}
        for d, (family, k) in axes:
            groups.setdefault((family, k + up[d]), []).append(d)
        out = np.empty((len(terms), n))
        tables = [None] * len(axes)
        for start in range(0, n, _CHUNK_POINTS):
            stop = min(start + _CHUNK_POINTS, n)
            c = stop - start
            for (family, rows), dims in groups.items():
                built = basis_tables(family, rows, z.T[dims, start:stop].ravel())
                for j, d in enumerate(dims):
                    tables[d] = built[:, j * c : (j + 1) * c]
            for i, (w, shape) in enumerate(terms):
                for table, rows in zip(tables, shape):
                    w = _contract_axis(w, table[:rows])
                out[i, start:stop] = w[0]
        return out[0], (out[1:].T if gradient else None)

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

    @_blas.pinned()
    def mean_and_cov(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second moments, in original coordinates if transformed.

        Each moment is the coefficient tensor contracted with itself through
        one per-axis matrix of x or x^2 integrals (two for a cross moment),
        the identity standing for every other axis by orthonormality.  BLAS
        runs pinned (`_blas.pinned`), so the result does not depend on the
        thread count.
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

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        samples, _ = self.sample_with_info(rng, n)
        return samples

    @_blas.pinned()
    def sample_with_info(self, rng: np.random.Generator, n: int):
        """Draw n exact samples; info reports boundary clamps per dimension.

        n must be a whole number of at least 1; a bool or a fraction is a
        ConfigError.  Draws go through in chunks of `_CHUNK_DRAWS`, every
        coordinate of a chunk before the next.  A chunk draws its (chunk, dim)
        uniforms when it starts, the next rows of one stream, so the draws are
        those of a single (n, dim) call.  A transform maps a chunk's rows in
        place once its last coordinate is drawn, so working memory beyond the
        (n, dim) samples is O(chunk) with a transform too.  Every draw shares
        the first coordinate's CDF and density, tabulated once, and one
        `np.searchsorted` places a chunk's draws in it.  A chunk's running
        block W starts as the coefficient tensor and takes in each
        coordinate once it is drawn; coordinate d's density is
        sum_p (W^T phi)_p^2, read from the table's node-basis rows through
        its squares at the span's nodes (`CdfTable.node_squares`), with
        normalizer ||W||^2, and `_invert` searches its CDF in a fixed number
        of halvings.  A clamp happens when a uniform draw targets the
        sliver of mass the grid does not capture (at most the build
        tolerance); the sample is pinned to the grid edge and counted.  Each
        distinct (family, order) axis gets one CDF table, built for this
        call and dropped when it returns.  BLAS runs pinned
        (`_blas.pinned`), so the draws do not depend on the thread count.
        """
        n = as_integer(n, "n", least=1)
        ndim = self.dim
        orders, families = self.basis.orders, self.basis.families
        out = np.empty((n, ndim))
        clamps = np.zeros(ndim, dtype=int)
        axes = list(zip(families, orders))
        built = {axis: build_cdf_table(*axis) for axis in dict.fromkeys(axes)}
        tables = [built[axis] for axis in axes]

        # Every draw shares the first coordinate's density: its CDF is tabulated once.
        sq0 = tables[0].node_squares(self.coeffs.reshape(1, orders[0], -1))[0]
        cdf0, dens0 = tables[0].pair_prefix @ sq0, tables[0].vals @ sq0
        trace0 = self.coeffs @ self.coeffs

        for start in range(0, n, _CHUNK_DRAWS):
            stop = min(start + _CHUNK_DRAWS, n)
            # The stream's next rows: the draws are those of one (n, dim) call.
            uniforms = rng.random((stop - start, ndim))
            targets = uniforms[:, 0] * trace0
            hi = np.minimum(np.searchsorted(cdf0, targets, side="right"), cdf0.shape[0] - 1)
            out[start:stop, 0], c = _place(
                tables[0].grid, targets, cdf0[-1], hi - 1, hi,
                (cdf0[hi - 1], cdf0[hi]), (dens0[hi - 1], dens0[hi]),
            )
            clamps[0] += c
            w = self.coeffs
            for d in range(1, ndim):
                x = out[start:stop, d - 1]
                w = _contract_axis(w, basis_tables(families[d - 1], orders[d - 1], x))
                # One contiguous row per draw: einsum rounds the sums below by layout.
                block = np.ascontiguousarray(w.T)
                traces = np.einsum("cj,cj->c", block, block)
                if np.any(traces <= 0.0):
                    raise PoleError("conditional density requested at a zero of the marginal")
                sq = tables[d].node_squares(block.reshape(stop - start, orders[d], -1))
                out[start:stop, d], c = _invert(tables[d], sq, uniforms[:, d] * traces)
                clamps[d] += c
            if self.transform is not None:
                out[start:stop] = self.transform.from_standard(out[start:stop])
        return out, {"boundary_clamps": clamps}

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "families": [f.kind for f in self.basis.families],
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
        # Older files also carry a "max_orders" key, which MAX_ORDER replaced.
        families = [BasisFamily(kind) for kind in as_list(payload["families"], "families")]
        basis = ProductBasis(families=families, orders=payload["orders"])
        transform = None
        if payload.get("transform") is not None:
            transform = StandardizingTransform(payload["transform"]["mean"], payload["transform"]["chol"])
        return cls(basis, as_floats(payload["coeffs"], "coeffs", 1), transform)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "OfeDensity":
        return cls.from_dict(json.loads(Path(path).read_text()))

