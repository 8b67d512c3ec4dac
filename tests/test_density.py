import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from ofevi import (
    FOURIER,
    HERMITE,
    LAGUERRE,
    LEGENDRE,
    BasisFamily,
    OfeDensity,
    PoleError,
    ProductBasis,
    StandardizingTransform,
    TableBuildError,
    build_cdf_table,
)
from ofevi import density
from ofevi.density import _CHUNK_POINTS, default_grid_spec

from oracles import (
    fd_gradient,
    gauss_panels,
    hermite_expansion_cdf,
    hermite_expansion_pdf,
    random_unit,
)


def hermite_density(alpha, transform=None):
    basis = ProductBasis([BasisFamily(HERMITE)] * 1, (len(alpha),))
    return OfeDensity(basis, np.asarray(alpha, dtype=float), transform)


def hermite_density_2d(beta, transform=None):
    beta = np.asarray(beta, dtype=float)
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, beta.shape)
    return OfeDensity(basis, beta.reshape(-1), transform)


# -- evaluation --------------------------------------------------------------

def test_lowest_order_density_is_standard_normal():
    q = hermite_density([1.0])
    assert q.density([[0.0]])[0] == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-13)
    z = np.linspace(-4.0, 4.0, 17)
    assert np.allclose(q.density(z[:, None]), stats.norm.pdf(z), rtol=1e-13)
    assert np.allclose(q.log_density(z[:, None]), stats.norm.logpdf(z), rtol=1e-13)
    assert np.allclose(q.score(z[:, None]), -z[:, None], rtol=1e-12)


def test_density_matches_polynomial_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        alpha = random_unit(rng, 6)
        q = hermite_density(alpha)
        z = rng.uniform(-5.0, 5.0, size=12)
        assert np.allclose(q.density(z[:, None]), hermite_expansion_pdf(alpha, z), rtol=1e-10)


def test_coefficients_are_normalized_on_construction():
    q = hermite_density([3.0, 4.0])
    assert np.linalg.norm(q.coeffs) == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(q.coeffs, [0.6, 0.8])


def test_one_dimensional_normalization():
    rng = np.random.default_rng(1)
    nodes, weights = gauss_panels(-12.0, 12.0, panels=48, order=20)
    for _ in range(5):
        q = hermite_density(random_unit(rng, 6))
        mass = np.dot(weights, q.density(nodes[:, None]))
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_two_dimensional_normalization():
    rng = np.random.default_rng(2)
    q = hermite_density_2d(rng.normal(size=(3, 4)))
    nodes, weights = gauss_panels(-10.0, 10.0, panels=30, order=16)
    zz = np.column_stack([np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)])
    mass = np.outer(weights, weights).ravel() @ q.density(zz)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_expansion_zero_gives_zero_density_and_infinite_log():
    q = hermite_density([0.0, 1.0])  # odd expansion vanishes at the origin
    assert q.density([[0.0]])[0] == 0.0
    assert q.log_density([[0.0]])[0] == -math.inf
    with pytest.raises(PoleError):
        q.score([[0.0]])


def test_score_matches_finite_differences():
    rng = np.random.default_rng(3)
    q1 = hermite_density(random_unit(rng, 6))
    for _ in range(20):
        z = rng.uniform(-3.0, 3.0, size=1)
        fd = fd_gradient(lambda x: q1.log_density(x[None])[0], z)
        assert np.allclose(q1.score(z[None])[0], fd, rtol=1e-6, atol=1e-6)
    q2 = hermite_density_2d(rng.normal(size=(3, 3)))
    for _ in range(20):
        z = rng.uniform(-2.5, 2.5, size=2)
        fd = fd_gradient(lambda x: q2.log_density(x[None])[0], z)
        assert np.allclose(q2.score(z[None])[0], fd, rtol=1e-6, atol=1e-6)


def test_transformed_score_matches_finite_differences():
    rng = np.random.default_rng(4)
    t = StandardizingTransform(np.array([1.0, -0.5]), np.array([[1.2, 0.0], [0.3, 0.7]]))
    q = hermite_density_2d(rng.normal(size=(3, 3)), t)
    for _ in range(10):
        z = rng.uniform(-1.5, 1.5, size=2)
        fd = fd_gradient(lambda x: q.log_density(x[None])[0], z)
        assert np.allclose(q.score(z[None])[0], fd, rtol=1e-5, atol=1e-6)


def _standard_points(rng, family, n):
    """n points well inside the family's support."""
    if family.kind == "hermite":
        return rng.normal(scale=2.0, size=n)
    if family.kind == "legendre":
        return rng.uniform(-0.99, 0.99, size=n)
    if family.kind == "fourier":
        return rng.uniform(0.01, 2.0 * math.pi - 0.01, size=n)
    return rng.exponential(scale=3.0, size=n) + 0.01


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("standardized", [False, True])
@pytest.mark.parametrize("orders", [(6,), (5, 3), (4, 2, 3)])
@pytest.mark.parametrize("kind", [HERMITE, LEGENDRE, FOURIER, LAGUERRE])
def test_evaluation_matches_the_product_feature_oracle(kind, orders, standardized):
    rng = np.random.default_rng(len(orders))
    dim = len(orders)
    basis = ProductBasis([BasisFamily(kind)] * dim, orders)
    transform = None
    if standardized:
        chol = np.diag(np.linspace(1.3, 0.8, dim)) + np.tril(np.full((dim, dim), 0.2), -1)
        transform = StandardizingTransform(np.linspace(0.5, -0.5, dim), chol)
    q = OfeDensity(basis, rng.normal(size=basis.size), transform)
    z_std = np.column_stack([_standard_points(rng, f, _CHUNK_POINTS + 1) for f in basis.families])
    z = z_std if transform is None else transform.from_standard(z_std)
    if transform is not None:
        z_std = transform.to_standard(z)

    f_ref = q.coeffs @ basis.feature_matrix(z_std)
    _, grads = basis.feature_gradients(z_std)
    grad_ref = np.einsum("k,knd->nd", q.coeffs, grads)
    if transform is not None:
        grad_ref = np.linalg.solve(transform.chol.T, grad_ref.T).T

    f = q.expansion(z)
    assert f.shape == (_CHUNK_POINTS + 1,)
    assert _max_rel(f, f_ref) < 1e-12
    # score * f / 2 is grad f: compared this way, points near a zero of f,
    # where the score itself is ill-conditioned, do not dominate.
    assert _max_rel(q.score(z) * f[:, None] / 2.0, grad_ref) < 1e-12


def test_score_raises_at_a_zero_past_the_first_chunk():
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (2, 3))
    coeffs = np.zeros(basis.size)
    coeffs[np.ravel_multi_index((1, 0), basis.orders)] = 1.0  # f vanishes on z_1 = 0
    q = OfeDensity(basis, coeffs)
    z = np.random.default_rng(7).normal(size=(_CHUNK_POINTS + 1, 2))
    z[-1, 0] = 0.0
    assert q.expansion(z)[-1] == 0.0
    with pytest.raises(PoleError):
        q.score(z)
    assert np.all(np.isfinite(q.score(z[:-1])))


def test_score_memory_stays_bounded():
    rng = np.random.default_rng(8)
    q = hermite_density_2d(rng.normal(size=(20, 20)))
    z = rng.normal(scale=2.0, size=(50_000, 2))
    tracemalloc.start()
    try:
        q.score(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# -- marginals ----------------------------------------------------------------

def test_marginal_coefficients_have_unit_trace_and_are_psd():
    rng = np.random.default_rng(5)
    q = hermite_density_2d(rng.normal(size=(4, 3)))
    s = q.marginal_coefficients(1)
    assert s.shape == (4, 4)
    assert np.trace(s) == pytest.approx(1.0, rel=1e-12)
    assert np.min(np.linalg.eigvalsh(s)) >= -1e-12
    with pytest.raises(ValueError):
        q.marginal_coefficients(0)
    with pytest.raises(ValueError):
        q.marginal_coefficients(2)


def test_marginal_matches_numerical_integration():
    rng = np.random.default_rng(6)
    q = hermite_density_2d(rng.normal(size=(3, 4)))
    s = q.marginal_coefficients(1)
    nodes, weights = gauss_panels(-12.0, 12.0, panels=48, order=20)
    from ofevi import basis_tables

    for x in np.linspace(-2.0, 2.0, 9):
        joint = q.density(np.column_stack([np.full(nodes.size, x), nodes]))
        direct = np.dot(weights, joint)
        vals, _ = basis_tables(BasisFamily(HERMITE), 3, [x])
        via_s = float(vals[:, 0] @ s @ vals[:, 0])
        assert via_s == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_separable_density_marginal_is_rank_one():
    a = np.array([0.8, 0.6])
    b = np.array([0.6, 0.0, 0.8])
    q = hermite_density_2d(np.outer(a, b))
    s = q.marginal_coefficients(1)
    assert np.allclose(s, np.outer(a, a), atol=1e-14)


# -- moments ------------------------------------------------------------------

def test_moments_of_simple_densities():
    mean, cov = hermite_density([1.0]).mean_and_cov()
    assert mean[0] == pytest.approx(0.0, abs=1e-15)
    assert cov[0, 0] == pytest.approx(1.0, rel=1e-14)

    c = 1.0 / math.sqrt(2.0)
    mean, cov = hermite_density([c, c]).mean_and_cov()
    assert mean[0] == pytest.approx(1.0, rel=1e-12)
    assert cov[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_hermite_moments_match_quadrature():
    rng = np.random.default_rng(7)
    nodes, weights = gauss_panels(-12.0, 12.0, panels=48, order=20)
    for _ in range(10):
        alpha = random_unit(rng, int(rng.integers(2, 8)))
        q = hermite_density(alpha)
        rho = q.density(nodes[:, None])
        m1 = np.dot(weights, nodes * rho)
        m2 = np.dot(weights, nodes * nodes * rho)
        mean, cov = q.mean_and_cov()
        assert mean[0] == pytest.approx(m1, abs=1e-9)
        assert cov[0, 0] == pytest.approx(m2 - m1 * m1, abs=1e-9)


def test_two_dimensional_moments_match_quadrature():
    rng = np.random.default_rng(8)
    q = hermite_density_2d(rng.normal(size=(3, 3)))
    nodes, weights = gauss_panels(-10.0, 10.0, panels=30, order=16)
    zz = np.column_stack([np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)])
    ww = np.outer(weights, weights).ravel()
    rho = q.density(zz)
    m1 = (ww * rho) @ zz
    m2 = (ww * rho * zz[:, 0]) @ zz
    mean, cov = q.mean_and_cov()
    assert np.allclose(mean, m1, atol=1e-9)
    assert cov[0, 0] == pytest.approx(m2[0] - m1[0] ** 2, abs=1e-9)
    assert cov[0, 1] == pytest.approx(m2[1] - m1[0] * m1[1], abs=1e-9)


def test_separable_density_has_no_cross_covariance():
    rng = np.random.default_rng(9)
    a, b = random_unit(rng, 3), random_unit(rng, 4)
    q = hermite_density_2d(np.outer(a, b))
    _, cov = q.mean_and_cov()
    assert abs(cov[0, 1]) < 1e-12


def test_non_hermite_moments_use_quadrature():
    rng = np.random.default_rng(10)
    alpha = random_unit(rng, 3)
    basis = ProductBasis([BasisFamily(LEGENDRE)], (3,))
    q = OfeDensity(basis, alpha)
    nodes, weights = gauss_panels(-1.0, 1.0, panels=8, order=24)
    rho = q.density(nodes[:, None])
    m1 = np.dot(weights, nodes * rho)
    m2 = np.dot(weights, nodes * nodes * rho)
    mean, cov = q.mean_and_cov()
    assert mean[0] == pytest.approx(m1, abs=1e-10)
    assert cov[0, 0] == pytest.approx(m2 - m1 * m1, abs=1e-10)


def test_mixed_family_moments():
    rng = np.random.default_rng(11)
    basis = ProductBasis([BasisFamily(HERMITE), BasisFamily(LEGENDRE)], (2, 3))
    q = OfeDensity(basis, rng.normal(size=6))
    hx, hw = gauss_panels(-12.0, 12.0, panels=48, order=20)
    lx, lw = gauss_panels(-1.0, 1.0, panels=8, order=24)
    zz = np.column_stack([np.repeat(hx, lx.size), np.tile(lx, hx.size)])
    ww = np.outer(hw, lw).ravel()
    rho = q.density(zz)
    m1 = (ww * rho) @ zz
    cross = np.dot(ww * rho, zz[:, 0] * zz[:, 1])
    mean, cov = q.mean_and_cov()
    assert np.allclose(mean, m1, atol=1e-8)
    assert cov[0, 1] == pytest.approx(cross - m1[0] * m1[1], abs=1e-8)


def test_moment_memory_stays_bounded():
    # A 2-D Legendre 12 x 12 density: per-axis (12, 12) moment matrices, no
    # pairwise node arrays.
    basis = ProductBasis([BasisFamily(LEGENDRE)] * 2, (12, 12))
    q = OfeDensity(basis, np.random.default_rng(12).normal(size=basis.size))
    tracemalloc.start()
    try:
        q.mean_and_cov()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# -- inversion tables -----------------------------------------------------------

def test_cdf_table_matches_standard_normal():
    table = build_cdf_table(BasisFamily(HERMITE), 1)
    mid = table.points // 2
    assert table.pair_prefix.shape == (table.points, 1)
    assert table.grid[mid] == 0.0
    assert table.pair_prefix[mid, 0] == pytest.approx(0.5, abs=1e-9)
    interp = np.interp(1.959964, table.grid, table.pair_prefix[:, 0])
    assert interp == pytest.approx(0.975, abs=1e-6)


def test_cdf_table_cross_terms_and_bounds():
    # The packed rows hold the upper triangle, off-diagonal entries doubled.
    table = build_cdf_table(BasisFamily(HERMITE), 8)
    upper, lower = np.triu_indices(8)
    assert table.pair_prefix.shape == (table.points, upper.size)
    plain = table.pair_prefix / np.where(upper == lower, 1.0, 2.0)
    last = np.empty((8, 8))
    last[upper, lower] = last[lower, upper] = plain[-1]
    assert abs(last[0, 1]) < 1e-8
    assert np.max(np.abs(plain)) <= 1.0 + 1e-9
    assert np.allclose(last, np.eye(8), atol=1e-6)

    alpha = random_unit(np.random.default_rng(3), 8)
    cdf = table.pair_prefix @ np.outer(alpha, alpha)[upper, lower]
    assert np.max(np.abs(cdf - hermite_expansion_cdf(alpha, table.grid))) < 1e-9


def test_cdf_table_rejects_a_grid_that_misses_mass(monkeypatch):
    monkeypatch.setattr(density, "default_grid_spec", lambda family, order: (-3.0, 3.0, 601))
    with pytest.raises(TableBuildError, match="widen"):
        build_cdf_table(BasisFamily(HERMITE), 6)


def test_default_grid_specs():
    assert default_grid_spec(BasisFamily(HERMITE), 8) == (-12.0, 12.0, 4001)
    half = math.sqrt(258.0) + 2.0
    assert default_grid_spec(BasisFamily(HERMITE), 64) == (-half, half, 4001)
    assert default_grid_spec(BasisFamily(LEGENDRE), 8) == (-1.0, 1.0, 2001)
    lo, hi, _ = default_grid_spec(BasisFamily(FOURIER), 8)
    assert (lo, hi) == (0.0, 2.0 * math.pi)


_ORACLE_RANGES = {
    "hermite": (-40.0, 40.0),
    "legendre": (-1.0, 1.0),
    "fourier": (0.0, 2.0 * math.pi),
    "laguerre": (0.0, 600.0),
}


@pytest.mark.parametrize("order", [1, 11, 22, 26, 40, 64])
@pytest.mark.parametrize("kind", [HERMITE, LEGENDRE, FOURIER, LAGUERRE])
def test_every_order_samples_and_reports_moments(kind, order):
    # Every order up to max_order builds its table, samples without a clamp,
    # and has moments that agree with the draws and with a Gauss-Legendre
    # quadrature of the density on a range far wider than the table's grid.
    family = BasisFamily(kind)
    build_cdf_table(family, order)
    alpha = random_unit(np.random.default_rng(order), order)
    q = OfeDensity(ProductBasis([family], (order,)), alpha)
    mean, cov = q.mean_and_cov()
    n = 20_000
    z, info = q.sample_with_info(np.random.default_rng(order + 1), n)
    assert np.array_equal(info["boundary_clamps"], [0])
    assert abs(z[:, 0].mean() - mean[0]) < 5.0 * math.sqrt(cov[0, 0] / n)

    nodes, weights = gauss_panels(*_ORACLE_RANGES[family.kind], panels=200, order=40)
    rho = q.density(nodes[:, None])
    m1 = np.dot(weights, nodes * rho)
    var = np.dot(weights, (nodes - m1) ** 2 * rho)
    assert mean[0] == pytest.approx(m1, abs=1e-8)
    assert cov[0, 0] == pytest.approx(var, abs=1e-8)


# -- sampling -------------------------------------------------------------------

def test_sampling_matches_the_exact_cdf():
    rng = np.random.default_rng(12)
    alpha = random_unit(rng, 6)
    q = hermite_density(alpha)
    z = q.sample(np.random.default_rng(13), 20_000)[:, 0]
    grid = np.sort(z)
    emp = np.arange(1, grid.size + 1) / grid.size
    ks = np.max(np.abs(emp - hermite_expansion_cdf(alpha, grid)))
    assert ks < 0.012  # 1.36 / sqrt(n) is the 5% point at n = 20k


@pytest.mark.parametrize("orders", [(8,), (8, 6)], ids=["1d", "2d-separable"])
def test_inversion_hits_the_exact_cdf_draw_by_draw(orders):
    # Each draw's coordinate d must sit where the closed-form CDF of its
    # factor equals the uniform it was inverted from; in a separable density
    # every conditional is that factor, so this checks the first coordinate
    # and the conditionals alike.
    rng = np.random.default_rng(24)
    factors = [random_unit(rng, k) for k in orders]
    coeffs = factors[0]
    for f in factors[1:]:
        coeffs = np.kron(coeffs, f)
    q = OfeDensity(ProductBasis([BasisFamily(HERMITE)] * len(orders), orders), coeffs)
    n, seed = 5_000, 25
    x = q.sample(np.random.default_rng(seed), n)
    u = np.random.default_rng(seed).random((n, len(orders)))
    for d, f in enumerate(factors):
        assert np.max(np.abs(hermite_expansion_cdf(f, x[:, d]) - u[:, d])) < 1e-5


_LINE_RANGES = {
    "hermite": (-12.0, 12.0),
    "legendre": (-1.0, 1.0),
    "fourier": (0.0, 2.0 * math.pi),
}


def _quadrature_conditional_cdf(q, prefix, x):
    """CDF at x of coordinate len(prefix) of q given the prefix, by quadrature.

    Integrates q.density over [lower end, x] along the coordinate and over
    the full range of every later coordinate, divided by the same integral
    over the coordinate's full range.
    """
    d = len(prefix)
    families = q.basis.families
    later = [gauss_panels(*_LINE_RANGES[f.kind], panels=2, order=24) for f in families[d + 1 :]]
    lo, hi = _LINE_RANGES[families[d].kind]

    def mass(upper):
        axes = [gauss_panels(lo, upper, panels=2, order=24)] + later
        mesh = np.meshgrid(*[nodes for nodes, _ in axes], indexing="ij")
        weights = axes[0][1]
        for _, w in axes[1:]:
            weights = np.multiply.outer(weights, w)
        points = np.column_stack(
            [np.full(mesh[0].size, p) for p in prefix] + [m.ravel() for m in mesh]
        )
        return weights.ravel() @ q.density(points)

    return mass(x) / mass(hi)


@pytest.mark.parametrize(
    "families, orders",
    [
        ((BasisFamily(HERMITE), BasisFamily(HERMITE)), (6, 5)),
        ((BasisFamily(LEGENDRE), BasisFamily(FOURIER)), (5, 4)),
        ((BasisFamily(HERMITE), BasisFamily(HERMITE), BasisFamily(HERMITE)), (4, 3, 5)),
    ],
    ids=["hermite-2d", "legendre-fourier", "hermite-3d"],
)
def test_non_separable_inversion_hits_the_conditional_cdf_draw_by_draw(families, orders):
    # Random coefficients give conditionals of rank > 1 that differ draw by
    # draw: each coordinate must sit where the quadrature CDF of its
    # conditional, given the coordinates drawn before it, equals its uniform.
    basis = ProductBasis(list(families), orders)
    q = OfeDensity(basis, np.random.default_rng(30).normal(size=basis.size))
    n, seed = 40, 31
    x = q.sample(np.random.default_rng(seed), n)
    u = np.random.default_rng(seed).random((n, len(orders)))
    for i in range(n):
        for d in range(len(orders)):
            cdf = _quadrature_conditional_cdf(q, x[i, :d], x[i, d])
            assert abs(cdf - u[i, d]) < 1e-5


def test_sampler_memory_does_not_grow_with_draws():
    # Beyond the (n, 2) uniforms and samples, 32 bytes a draw, the sampler
    # works a chunk of draws at a time.
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (20, 20))
    q = OfeDensity(basis, np.random.default_rng(32).normal(size=basis.size))
    q.sample(np.random.default_rng(33), 10)  # builds the CDF table
    n = 400_000
    tracemalloc.start()
    try:
        q.sample(np.random.default_rng(34), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 32 * n <= 12 * 2**20


def test_low_order_sampler_moments():
    q = hermite_density([1.0])
    z = q.sample(np.random.default_rng(14), 100_000)[:, 0]
    assert abs(z.mean()) < 4.0 / math.sqrt(100_000)
    assert z.var() == pytest.approx(1.0, abs=0.02)

    c = 1.0 / math.sqrt(2.0)
    z = hermite_density([c, c]).sample(np.random.default_rng(15), 100_000)[:, 0]
    assert z.mean() == pytest.approx(1.0, abs=0.02)
    assert z.var() == pytest.approx(1.0, abs=0.03)


def test_two_dimensional_sampler_matches_analytic_moments():
    rng = np.random.default_rng(16)
    q = hermite_density_2d(rng.normal(size=(3, 3)))
    mean, cov = q.mean_and_cov()
    n = 200_000
    z, info = q.sample_with_info(np.random.default_rng(17), n)
    assert z.shape == (n, 2)
    assert np.array_equal(info["boundary_clamps"], [0, 0])
    se = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(z.mean(axis=0) - mean) < 4.0 * se)
    assert np.allclose(np.cov(z.T), cov, atol=0.02)


def test_separable_sampler_has_uncorrelated_dimensions():
    rng = np.random.default_rng(18)
    q = hermite_density_2d(np.outer(random_unit(rng, 3), random_unit(rng, 3)))
    z = q.sample(np.random.default_rng(19), 100_000)
    corr = np.corrcoef(z.T)[0, 1]
    assert abs(corr) < 0.015


def test_three_dimensional_sampler_runs_and_matches_means():
    rng = np.random.default_rng(20)
    basis = ProductBasis([BasisFamily(HERMITE)] * 3, (2, 3, 2))
    q = OfeDensity(basis, rng.normal(size=12))
    mean, cov = q.mean_and_cov()
    z = q.sample(np.random.default_rng(21), 50_000)
    se = np.sqrt(np.diag(cov) / 50_000)
    assert np.all(np.abs(z.mean(axis=0) - mean) < 4.0 * se)


def test_four_dimensional_mixed_family_sampler_matches_means():
    # The draw-by-draw oracle's cost grows with D; at D = 4 the sampler's
    # running contraction is checked through its means across all families.
    basis = ProductBasis([BasisFamily(HERMITE), BasisFamily(LEGENDRE), BasisFamily(FOURIER), BasisFamily(LAGUERRE)], (4, 3, 3, 3))
    q = OfeDensity(basis, np.random.default_rng(0).normal(size=basis.size))
    mean, cov = q.mean_and_cov()
    n = 20_000
    z, info = q.sample_with_info(np.random.default_rng(1), n)
    assert np.array_equal(info["boundary_clamps"], [0, 0, 0, 0])
    se = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(z.mean(axis=0) - mean) < 5.0 * se)


def test_truncated_table_counts_boundary_clamps():
    # A CDF whose last grid value is 0.9 cannot reach the top tenth of the
    # targets: those draws are pinned to the grid's upper end and counted.
    grid = np.linspace(-1.5, 1.5, 31)
    ends = np.array([0, 30])
    cdf = 0.9 * np.linspace(0.0, 1.0, 31)
    targets = np.random.default_rng(22).random(5_000)
    z, clamps = density._invert(grid, lambda idx: cdf[idx], targets, ends, cdf[ends])
    clamped = targets >= 0.9
    assert clamps == np.count_nonzero(clamped) > 0
    assert np.all(z[clamped] == grid[-1])
    assert np.all(z >= -1.5) and np.all(z < 1.5 + 1e-12)
    assert np.allclose(z[~clamped], -1.5 + 3.0 * targets[~clamped] / 0.9)

    # Starting each search in its node cell gives bitwise the points and
    # clamps of a search from the two ends, also on a flat stretch of the
    # CDF (node 16 sits in one) and at targets equal to node values.
    nodes = np.array([0, 8, 16, 24, 30])
    flat = np.concatenate([np.linspace(0.0, 0.4, 11), np.full(10, 0.4), np.linspace(0.4, 0.9, 11)[1:]])
    for c in (cdf, flat):
        t = np.concatenate([targets, c[nodes], cdf[nodes]])
        per_target = np.tile(c[nodes], (t.size, 1))
        coarse = density._invert(grid, lambda idx: c[idx], t, nodes, per_target)
        two_point = density._invert(grid, lambda idx: c[idx], t, ends, c[ends])
        assert np.array_equal(coarse[0], two_point[0])
        assert coarse[1] == two_point[1] > 0


def test_transformed_sampler_lands_in_original_coordinates():
    t = StandardizingTransform(np.array([3.0]), np.array([[math.sqrt(0.125)]]))
    q = hermite_density([1.0], t)
    z = q.sample(np.random.default_rng(23), 100_000)[:, 0]
    assert z.mean() == pytest.approx(3.0, abs=0.01)
    assert z.var() == pytest.approx(0.125, abs=0.005)


def test_sample_count_validation():
    with pytest.raises(ValueError):
        hermite_density([1.0]).sample(np.random.default_rng(0), 0)


# -- serialization ---------------------------------------------------------------

def test_serialization_round_trip_is_bit_exact():
    rng = np.random.default_rng(24)
    alpha = random_unit(rng, 7)
    q = hermite_density(alpha)
    back = OfeDensity.from_dict(q.to_dict())
    assert np.array_equal(back.coeffs, q.coeffs)
    assert back.basis == q.basis
    assert back.transform is None


def test_serialization_with_transform(tmp_path):
    t = StandardizingTransform(np.array([1.0, 2.0]), np.array([[1.5, 0.0], [0.2, 0.7]]))
    rng = np.random.default_rng(25)
    q = hermite_density_2d(rng.normal(size=(3, 2)), t)
    path = tmp_path / "density.json"
    q.save(path)
    back = OfeDensity.load(path)
    assert np.array_equal(back.coeffs, q.coeffs)
    assert np.array_equal(back.transform.mean, t.mean)
    assert np.array_equal(back.transform.chol, t.chol)
    z = np.random.default_rng(26).normal(size=(20, 2))
    assert np.array_equal(back.log_density(z), q.log_density(z))


def test_serialization_other_families():
    q = OfeDensity(ProductBasis([BasisFamily(LEGENDRE), BasisFamily(FOURIER)], (2, 3)), np.arange(1.0, 7.0))
    back = OfeDensity.from_dict(q.to_dict())
    assert back.basis == q.basis
    assert np.array_equal(back.coeffs, q.coeffs)


def test_constructor_validation():
    basis = ProductBasis([BasisFamily(HERMITE)], (3,))
    with pytest.raises(ValueError):
        OfeDensity(basis, np.zeros(3))
    with pytest.raises(ValueError):
        OfeDensity(basis, np.ones(4))
    with pytest.raises(ValueError):
        OfeDensity(basis, np.ones(3), StandardizingTransform(np.zeros(2), np.eye(2)))


@given(seed=st.integers(min_value=0, max_value=2**31 - 1), k=st.integers(min_value=1, max_value=8))
def test_density_is_nonnegative_and_coeffs_unit(seed, k):
    rng = np.random.default_rng(seed)
    q = hermite_density(rng.normal(size=k) + 1e-3)
    assert np.linalg.norm(q.coeffs) == pytest.approx(1.0, rel=1e-12)
    z = rng.uniform(-6.0, 6.0, size=(16, 1))
    assert np.all(q.density(z) >= 0.0)
