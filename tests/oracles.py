"""Independent oracles and quadrature utilities shared by the tests.

The closed-form CDF oracle below never touches the package's recurrences:
it expands the squared Hermite-function series into a polynomial times the
standard normal density and integrates monomial moments exactly.  The
single-function product-basis evaluators are point-at-a-time references for
the vectorized feature code.
"""

import math

import numpy as np
from scipy import special

from ofevi import ProductBasis


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


def gaussian_moment_integrals(x, top):
    """I_m(x) = integral of t^m N(t) dt over (-inf, x] for m = 0..top.

    Uses I_0 = Phi(x), I_1 = -N(x), and the integration-by-parts recurrence
    I_m = -x^{m-1} N(x) + (m-1) I_{m-2}.
    """
    x = np.asarray(x, dtype=float)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    out = np.empty((top + 1,) + x.shape)
    out[0] = special.ndtr(x)
    if top >= 1:
        out[1] = -pdf
    for m in range(2, top + 1):
        out[m] = -(x ** (m - 1)) * pdf + (m - 1) * out[m - 2]
    return out


def hermite_expansion_cdf(alpha, x):
    """Exact CDF of q(z) = (sum_k alpha_k phi_k(z))^2, Hermite family.

    phi_k(z) = He_{k-1}(z) / sqrt((k-1)!) * sqrt(N(z)) with He the
    probabilist's Hermite polynomials, so q is a polynomial times N(z).
    """
    alpha = np.asarray(alpha, dtype=float)
    k = alpha.size
    herm = alpha / np.array([math.sqrt(math.factorial(m)) for m in range(k)])
    poly = np.polynomial.hermite_e.herme2poly(herm)
    squared = np.polynomial.polynomial.polymul(poly, poly)
    moments = gaussian_moment_integrals(x, squared.size - 1)
    return np.tensordot(squared, moments, axes=(0, 0))


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
    """Value of the i-th (flat, 1-based) product basis function at a point."""
    z = np.asarray(z, dtype=float).reshape(1, basis.dim)
    basis.unflatten_index(i)
    return float(basis.feature_matrix(z)[i - 1, 0])


def grad_product(basis: ProductBasis, i: int, z) -> np.ndarray:
    """Gradient (length D) of the i-th product basis function at a point."""
    z = np.asarray(z, dtype=float).reshape(1, basis.dim)
    basis.unflatten_index(i)
    _, g = basis.feature_gradients(z)
    return g[i - 1, 0, :].copy()
