"""Squared orthogonal-expansion densities.

q(z) = f(z)^2 with f(z) = sum_i alpha_i Phi_i(z), where the Phi_i are
products of orthonormal 1-D basis functions and ||alpha||_2 = 1.  Squaring
makes q nonnegative and orthonormality makes it integrate to one, so q is a
density for every unit coefficient vector with no normalizing constant to
track.  An optional affine transform re-expresses the density in original
(unstandardized) coordinates; evaluation, sampling, and moments all honor it.

Evaluation never forms the K product features.  f and grad f come from
contracting the (K_1, ..., K_D) coefficient tensor against one 1-D table at a
time, in chunks of points, so memory is O(chunk * (K / K_1 * D + sum K_d))
however many points are evaluated.

Exact sampling proceeds one dimension at a time: the marginal of the first
coordinate and each conditional given earlier coordinates are again squared
expansions, with coefficient matrices obtained by contracting the coefficient
tensor against basis values at the drawn prefix.  The 1-D CDFs are inverted
on a precomputed grid of pairwise basis integrals.

First and second moments are closed-form for the Hermite family:
multiplication by z acts on Hermite coefficients as a banded matrix, so
moments reduce to a few banded matrix-vector products with the coefficient
tensor.  Other families integrate their 1-D and pairwise marginals
numerically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from .basis1d import FOURIER, HERMITE, LAGUERRE, LEGENDRE, BasisFamily, basis_tables
from .exceptions import PoleError, TableBuildError
from .product_basis import ProductBasis
from .utils import as_batch

_CHUNK_DRAWS = 1024
_CHUNK_POINTS = 8192


def _contract_axis(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Contract each point's coefficient block with its 1-D basis values.

    w holds one block per point, shape (c, K_d * rest), with the axis of
    table (K_d, c) leading; returns (c, rest).
    """
    w = w.reshape(w.shape[0], table.shape[0], -1)
    return np.einsum("cnr,nc->cr", w, table)


def default_grid_spec(family: BasisFamily, order: int) -> tuple[float, float, int]:
    """Inversion grid (lo, hi, points) wide enough for moderate orders.

    High orders spread mass toward the support boundary on unbounded
    domains; the completeness check in `build_cdf_table` catches a grid that
    is too narrow.
    """
    if family.kind == HERMITE:
        return (-12.0, 12.0, 4001)
    if family.kind == LEGENDRE:
        return (-1.0, 1.0, 2001)
    if family.kind == FOURIER:
        return (0.0, 2.0 * np.pi, 2001)
    if family.kind == LAGUERRE:
        return (0.0, max(60.0, 4.0 * order + 10.0 * np.sqrt(order) + 20.0), 4001)
    raise ValueError(f"unknown family kind {family.kind!r}")


@dataclass(frozen=True)
class CdfTable:
    """Precomputed quantities for inverting 1-D squared-expansion CDFs.

    pair_prefix[k, l, g] approximates the integral of phi_{k+1} phi_{l+1}
    from below up to grid[g] (composite Simpson with cell midpoints), so the
    CDF of any conditional with coefficient matrix S is trace(S @ prefix).
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


def build_cdf_table(
    family: BasisFamily,
    order: int,
    lo: float | None = None,
    hi: float | None = None,
    points: int | None = None,
    mass_tol: float = 1e-6,
) -> CdfTable:
    d_lo, d_hi, d_points = default_grid_spec(family, order)
    lo = d_lo if lo is None else float(lo)
    hi = d_hi if hi is None else float(hi)
    points = d_points if points is None else int(points)
    if not (hi > lo and points >= 3):
        raise TableBuildError("grid needs hi > lo and at least 3 points")

    grid = np.linspace(lo, hi, points)
    mids = 0.5 * (grid[:-1] + grid[1:])
    vals, _ = basis_tables(family, order, grid)
    mid_vals, _ = basis_tables(family, order, mids)

    h = (hi - lo) / (points - 1)
    prefix = np.empty((order, order, points))
    prefix[:, :, 0] = 0.0
    # Simpson per cell, accumulated in grid order; chunked to bound memory.
    for start in range(0, points - 1, 4096):
        stop = min(start + 4096, points - 1)
        left = np.einsum("kg,lg->klg", vals[:, start:stop], vals[:, start:stop])
        right = np.einsum("kg,lg->klg", vals[:, start + 1 : stop + 1], vals[:, start + 1 : stop + 1])
        mid = np.einsum("kg,lg->klg", mid_vals[:, start:stop], mid_vals[:, start:stop])
        cells = (h / 6.0) * (left + 4.0 * mid + right)
        prefix[:, :, start + 1 : stop + 1] = np.cumsum(cells, axis=2)
        prefix[:, :, start + 1 : stop + 1] += prefix[:, :, start, None]

    gap = np.linalg.eigvalsh(prefix[:, :, -1] - np.eye(order))
    err = float(np.max(np.abs(gap)))
    if err > mass_tol:
        raise TableBuildError(
            f"grid [{lo}, {hi}] captures the order-{order} {family.kind} mass only to "
            f"{err:.2e} (tolerance {mass_tol:.0e}); widen the grid or add points"
        )
    return CdfTable(family, order, grid, vals, mid_vals, prefix)


# ---------------------------------------------------------------------------
# Banded moment operators for the Hermite family (0-based index a).
#
# Multiplication by z maps coefficient a onto neighbors:
#   (mu t)_a = sqrt(a) t_{a-1} + sqrt(a+1) t_{a+1}
# and by z^2 onto a band of width two:
#   (nu t)_a = (2a+1) t_a + sqrt((a-1)a) t_{a-2} + sqrt((a+1)(a+2)) t_{a+2}
# nu is the square of the untruncated mu, not of its top-left block.

def _mu_apply(t: np.ndarray, axis: int) -> np.ndarray:
    tm = np.moveaxis(t, axis, 0)
    n = tm.shape[0]
    root = np.sqrt(np.arange(n, dtype=float)).reshape((n,) + (1,) * (tm.ndim - 1))
    out = np.zeros_like(tm)
    out[1:] += root[1:] * tm[:-1]
    out[:-1] += root[1:] * tm[1:]
    return np.moveaxis(out, 0, axis)


def _nu_apply(t: np.ndarray, axis: int) -> np.ndarray:
    tm = np.moveaxis(t, axis, 0)
    n = tm.shape[0]
    a = np.arange(n, dtype=float)
    out = (2.0 * a + 1.0).reshape((n,) + (1,) * (tm.ndim - 1)) * tm
    if n > 2:
        band = np.sqrt((a[:-2] + 1.0) * (a[:-2] + 2.0))
        band = band.reshape((n - 2,) + (1,) * (tm.ndim - 1))
        out[2:] += band * tm[:-2]
        out[:-2] += band * tm[2:]
    return np.moveaxis(out, 0, axis)


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
        z, single = as_batch(z, self.dim)
        if self.transform is not None:
            z = self.transform.to_standard(z)
        return z, single

    # -- evaluation ---------------------------------------------------------

    def expansion(self, z):
        """f at the (standardized) point; the density is f^2 / |det chol|."""
        z_std, single = self._standardize(z)
        out, _ = self._expansion_terms(z_std, gradient=False)
        return float(out[0]) if single else out

    def density(self, z):
        f = self.expansion(z)
        q = f * f
        if self.transform is not None:
            q = q * np.exp(-self.transform.log_det)
        return q

    def log_density(self, z):
        f = self.expansion(z)
        with np.errstate(divide="ignore"):
            out = 2.0 * np.log(np.abs(np.asarray(f)))
        if self.transform is not None:
            out = out - self.transform.log_det
        return float(out) if np.isscalar(f) or isinstance(f, float) else out

    def score(self, z):
        """Gradient of log q; raises at zeros of the expansion."""
        z_std, single = self._standardize(z)
        f, g = self._expansion_terms(z_std, gradient=True)
        if np.any(f == 0.0):
            raise PoleError("score undefined at a zero of the expansion")
        out = 2.0 * g / f[:, None]
        if self.transform is not None:
            out = solve_triangular(self.transform.chol, out.T, lower=True, trans="T").T
        return out[0] if single else out

    def _expansion_terms(self, z: np.ndarray, gradient: bool):
        """f (n,) and, if requested, grad f (n, D) at standardized points.

        Works through the points in chunks of `_CHUNK_POINTS`.  Per chunk the
        coefficient tensor is contracted one axis at a time against the 1-D
        tables: a GEMM for the first axis, then `_contract_axis` for each
        later one.  Each partial derivative carries its own running partial,
        which takes the derivative table on its own axis and value tables
        elsewhere.
        """
        n, ndim = z.shape
        lead = self.coeffs.reshape(self.basis.orders[0], -1)
        f = np.empty(n)
        g = np.empty((n, ndim)) if gradient else None
        for start in range(0, n, _CHUNK_POINTS):
            stop = min(start + _CHUNK_POINTS, n)
            vals, grads = self.basis.tables(z[start:stop])
            w = vals[0].T @ lead
            partials = [grads[0].T @ lead] if gradient else []
            for d in range(1, ndim):
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
        return self._axis_coefficients(tuple(range(keep)))

    def _axis_coefficients(self, axes: tuple[int, ...]) -> np.ndarray:
        """Marginal coefficient matrix over `axes`, the others integrated out."""
        beta = self.coeffs.reshape(self.basis.orders)
        front = np.moveaxis(beta, axes, range(len(axes)))
        lead = int(np.prod([self.basis.orders[a] for a in axes]))
        w = front.reshape(lead, -1)
        return w @ w.T

    # -- moments ------------------------------------------------------------

    def mean_and_cov(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second moments, in original coordinates if transformed.

        Closed form when every dimension is Hermite; numerical quadrature of
        1-D and pairwise marginals otherwise.
        """
        if all(f.kind == HERMITE for f in self.basis.families):
            mean, cov = self._hermite_moments()
        else:
            mean, cov = self._quadrature_moments()
        if self.transform is not None:
            mean, cov = self.transform.scale_moments(mean, cov)
        return mean, cov

    def _hermite_moments(self):
        beta = self.coeffs.reshape(self.basis.orders)
        ndim = self.dim
        mean = np.array([np.sum(beta * _mu_apply(beta, d)) for d in range(ndim)])
        second = np.empty((ndim, ndim))
        for d in range(ndim):
            second[d, d] = np.sum(beta * _nu_apply(beta, d))
            for e in range(d):
                m = np.sum(beta * _mu_apply(_mu_apply(beta, d), e))
                second[d, e] = second[e, d] = m
        return mean, second - np.outer(mean, mean)

    def _quadrature_moments(self):
        ndim = self.dim
        mean = np.empty(ndim)
        second = np.empty((ndim, ndim))
        nodes, weights = {}, {}
        for d in range(ndim):
            fam, order = self.basis.families[d], self.basis.orders[d]
            x, w = _panel_gauss(*default_grid_spec(fam, order)[:2])
            nodes[d], weights[d] = x, w
            s = self._axis_coefficients((d,))
            vals, _ = basis_tables(fam, order, x)
            rho = np.einsum("ag,ab,bg->g", vals, s, vals)
            mean[d] = np.dot(w, x * rho)
            second[d, d] = np.dot(w, x * x * rho)
        for d in range(ndim):
            for e in range(d):
                s2 = self._axis_coefficients((e, d))
                vx, _ = basis_tables(self.basis.families[e], self.basis.orders[e], nodes[e])
                vy, _ = basis_tables(self.basis.families[d], self.basis.orders[d], nodes[d])
                pair = np.einsum("ax,by->abxy", vx, vy).reshape(s2.shape[0], -1)
                rho = np.einsum("ag,ab,bg->g", pair, s2, pair)
                xy = np.outer(nodes[e], nodes[d]).reshape(-1)
                ww = np.outer(weights[e], weights[d]).reshape(-1)
                second[d, e] = second[e, d] = np.dot(ww, xy * rho)
        return mean, second - np.outer(mean, mean)

    # -- sampling -----------------------------------------------------------

    def _table_for(self, d: int) -> CdfTable:
        fam = self.basis.families[d]
        key = (fam.kind, self.basis.orders[d])
        if key not in self._tables:
            self._tables[key] = build_cdf_table(fam, self.basis.orders[d])
        return self._tables[key]

    def use_cdf_table(self, d: int, table: CdfTable) -> None:
        """Override the inversion table for dimension d (0-based)."""
        if table.family != self.basis.families[d] or table.order != self.basis.orders[d]:
            raise ValueError("table family/order does not match dimension")
        self._tables[(table.family.kind, table.order)] = table

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        samples, _ = self.sample_with_info(rng, n)
        return samples

    def sample_with_info(self, rng: np.random.Generator, n: int):
        """Draw n exact samples; info reports boundary clamps per dimension.

        A clamp happens when a uniform draw targets the sliver of mass the
        grid does not capture (at most the build tolerance); the sample is
        pinned to the grid edge and counted.
        """
        n = int(n)
        if n <= 0:
            raise ValueError("n must be positive")
        ndim = self.dim
        out = np.empty((n, ndim))
        clamps = np.zeros(ndim, dtype=int)
        uniforms = rng.random((n, ndim))

        table0 = self._table_for(0)
        beta = self.coeffs.reshape(self.basis.orders[0], -1)
        cdf0 = self._marginal_cdf(table0, beta)
        out[:, 0], clamps[0] = self._invert_shared(table0, cdf0, uniforms[:, 0])

        for d in range(1, ndim):
            table_d = self._table_for(d)
            for start in range(0, n, _CHUNK_DRAWS):
                stop = min(start + _CHUNK_DRAWS, n)
                s_mats = self._conditional_matrices(out[start:stop, :d], d)
                out[start:stop, d], c = self._invert_per_draw(
                    table_d, s_mats, uniforms[start:stop, d]
                )
                clamps[d] += c
        if self.transform is not None:
            out = self.transform.from_standard(out)
        return out, {"boundary_clamps": clamps}

    def _marginal_cdf(self, table: CdfTable, beta: np.ndarray) -> np.ndarray:
        # First-coordinate CDF on the full grid via the squared-expansion
        # integrand directly; avoids the (order, order, points) table.
        def mass(vals):
            return np.sum((beta.T @ vals) ** 2, axis=0)

        left = mass(table.vals)
        mid = mass(table.mid_vals)
        h = (table.grid[-1] - table.grid[0]) / (table.points - 1)
        cells = (h / 6.0) * (left[:-1] + 4.0 * mid + left[1:])
        cdf = np.empty(table.points)
        cdf[0] = 0.0
        np.cumsum(cells, out=cdf[1:])
        return cdf

    def _conditional_matrices(self, prefix: np.ndarray, d: int) -> np.ndarray:
        """Unnormalized conditional coefficient matrices S for dimension d.

        Contract the coefficient tensor with basis values at the drawn
        prefix, then form S = W W^T over the trailing (not yet drawn) axes.
        trace(S) is the conditional's normalizer.
        """
        orders = self.basis.orders
        c = prefix.shape[0]
        w = np.broadcast_to(self.coeffs, (c, self.size))
        for e in range(d):
            vals, _ = basis_tables(self.basis.families[e], orders[e], prefix[:, e])
            w = _contract_axis(w, vals)
        w = w.reshape(c, orders[d], -1)
        return np.einsum("cap,cbp->cab", w, w)

    def _invert_shared(self, table: CdfTable, cdf: np.ndarray, u: np.ndarray):
        targets = u  # total marginal mass is exactly ||alpha||^2 = 1
        clamped = targets >= cdf[-1]
        idx = np.searchsorted(cdf, targets, side="right")
        idx = np.clip(idx, 1, table.points - 1)
        return (
            self._interp(table.grid, cdf[idx - 1], cdf[idx], idx, targets, clamped),
            int(np.count_nonzero(clamped)),
        )

    def _invert_per_draw(self, table: CdfTable, s_mats: np.ndarray, u: np.ndarray):
        traces = np.einsum("caa->c", s_mats)
        if np.any(traces <= 0.0):
            raise PoleError("conditional density requested at a zero of the marginal")
        targets = u * traces
        prefix = table.pair_prefix

        def cdf_at(idx):
            return np.einsum("cab,abc->c", s_mats, prefix[:, :, idx])

        end = cdf_at(np.full(u.shape, table.points - 1))
        clamped = targets >= end
        lo = np.zeros(u.shape, dtype=int)
        hi = np.full(u.shape, table.points - 1, dtype=int)
        while np.max(hi - lo) > 1:
            mid = (lo + hi) // 2
            below = cdf_at(mid) <= targets
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return (
            self._interp(table.grid, cdf_at(lo), cdf_at(hi), hi, targets, clamped),
            int(np.count_nonzero(clamped)),
        )

    @staticmethod
    def _interp(grid, c_lo, c_hi, hi_idx, targets, clamped):
        h = grid[1] - grid[0]
        gap = c_hi - c_lo
        frac = np.where(gap > 0.0, (targets - c_lo) / np.where(gap > 0.0, gap, 1.0), 0.0)
        x = grid[hi_idx - 1] + np.clip(frac, 0.0, 1.0) * h
        return np.where(clamped, grid[-1], x)

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


def _panel_gauss(lo: float, hi: float, panels: int = 24, order: int = 24):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).reshape(-1)
    w = (half[:, None] * w0[None, :]).reshape(-1)
    return x, w
