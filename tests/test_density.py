import math

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
    ConfigError,
    OfeDensity,
    PoleError,
    ProductBasis,
    StandardizingTransform,
    TableBuildError,
    basis_tables,
    build_cdf_table,
)
from ofevi import density, product_basis
from ofevi.density import _CHUNK_POINTS, cdf_grid

from oracles import (
    expansion_cdf,
    fd_gradient,
    gauss_panels,
    hermite_expansion_pdf,
    pairwise_prefix,
    per_axis_evaluation,
    random_unit,
    recurrence_tables,
    traced_peak,
    while_loop_invert,
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


@pytest.mark.parametrize("orders", [(64,), (64, 3), (3, 64)])
@pytest.mark.parametrize("kind", [HERMITE, LEGENDRE, FOURIER, LAGUERRE])
def test_score_at_the_top_order_matches_the_recurrence_oracle(kind, orders):
    # At an even order the Fourier derivatives take in phi_65, past MAX_ORDER.
    rng = np.random.default_rng(len(orders))
    family = BasisFamily(kind)
    basis = ProductBasis([family] * len(orders), orders)
    q = OfeDensity(basis, rng.normal(size=basis.size))
    z = np.column_stack([_standard_points(rng, family, 500) for _ in orders])
    tables = [recurrence_tables(family, k, z[:, d]) for d, k in enumerate(orders)]
    axes = "abc"[: len(orders)]
    spec = axes + "," + ",".join(a + "n" for a in axes) + "->n"
    beta = q.coeffs.reshape(orders)
    grad_ref = np.column_stack([
        np.einsum(spec, beta, *(t[1] if e == d else t[0] for e, t in enumerate(tables)))
        for d in range(len(orders))
    ])
    # Divided by q's own f, so the comparison is of the derivative path alone;
    # f against its oracle is checked above.
    f = q.expansion(z)
    assert _max_rel(f, np.einsum(spec, beta, *(t[0] for t in tables))) < 1e-12
    score_ref = 2.0 * grad_ref / f[:, None]
    assert _max_rel(q.score(z), score_ref) < 1e-13


def test_score_memory_stays_bounded():
    rng = np.random.default_rng(8)
    q = hermite_density_2d(rng.normal(size=(20, 20)))
    z = rng.normal(scale=2.0, size=(50_000, 2))
    assert traced_peak(q.score, z) < 64 * 2**20


@pytest.mark.parametrize(
    "kind, order, up",
    [(HERMITE, 5, 6), (FOURIER, 6, 7), (FOURIER, 5, 5), (LEGENDRE, 64, 64), (LAGUERRE, 5, 5)],
)
def test_the_score_reads_one_order_up_only_where_the_derivative_reaches_it(
    monkeypatch, kind, order, up
):
    # Hermite and even-order Fourier derivatives reach phi_{k+1}; the others do not.
    requested = []

    def recording(family, k, z):
        requested.append(k)
        return basis_tables(family, k, z)

    monkeypatch.setattr(density, "basis_tables", recording)
    q = OfeDensity(ProductBasis([BasisFamily(kind)], (order,)), np.ones(order))
    q.score(np.array([[0.5]]))
    assert requested == [up]


@pytest.mark.parametrize(
    "kinds, orders, standardized",
    [
        ((HERMITE, HERMITE), (5, 5), False),
        ((HERMITE, HERMITE), (3, 4), False),
        ((HERMITE, LEGENDRE), (4, 5), False),
        ((LAGUERRE, FOURIER, LAGUERRE), (3, 4, 3), False),
        ((HERMITE,) * 5, (4, 4, 4, 3, 3), True),
    ],
)
def test_shared_table_builds_give_the_per_axis_bits(kinds, orders, standardized):
    # Axes of one family and row count share a build; every value keeps the
    # bits of one build per axis, on C-ordered, strided and Fortran-ordered points.
    rng = np.random.default_rng(len(orders))
    basis = ProductBasis([BasisFamily(kind) for kind in kinds], orders)
    transform = None
    if standardized:
        dim = len(orders)
        chol = np.diag(np.linspace(1.3, 0.8, dim)) + np.tril(np.full((dim, dim), 0.2), -1)
        transform = StandardizingTransform(np.linspace(0.5, -0.5, dim), chol)
    q = OfeDensity(basis, rng.normal(size=basis.size), transform)
    n = 2 * _CHUNK_POINTS + 17
    z = np.column_stack([_standard_points(rng, f, n) for f in basis.families])
    if transform is not None:
        z = transform.from_standard(z)
    wide = np.empty((n, 2 * len(orders)))
    wide[:, ::2] = z
    f_ref, log_ref, score_ref = per_axis_evaluation(q, z)
    for points in (z, wide[:, ::2], np.asfortranarray(z)):
        assert q.expansion(points).tobytes() == f_ref.tobytes()
        assert q.log_density(points).tobytes() == log_ref.tobytes()
        assert q.score(points).tobytes() == score_ref.tobytes()


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
        vals = basis_tables(BasisFamily(HERMITE), 3, [x])
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


_PANELS = {
    HERMITE: dict(lo=-12.0, hi=12.0, panels=48, order=20),
    LEGENDRE: dict(lo=-1.0, hi=1.0, panels=8, order=24),
    FOURIER: dict(lo=0.0, hi=2.0 * math.pi, panels=8, order=24),
    LAGUERRE: dict(lo=0.0, hi=60.0, panels=30, order=20),
}


@pytest.mark.parametrize(
    "kinds",
    [(HERMITE, LEGENDRE), (LEGENDRE, FOURIER), (FOURIER, LAGUERRE), (LAGUERRE, HERMITE)],
    ids="-".join,
)
def test_mixed_family_moments(kinds):
    # Every family is once the first axis and once the second of a cross moment.
    rng = np.random.default_rng(11)
    basis = ProductBasis([BasisFamily(k) for k in kinds], (2, 3))
    q = OfeDensity(basis, rng.normal(size=6))
    (x0, w0), (x1, w1) = (gauss_panels(**_PANELS[k]) for k in kinds)
    zz = np.column_stack([np.repeat(x0, x1.size), np.tile(x1, x0.size)])
    ww = np.outer(w0, w1).ravel()
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
    assert traced_peak(q.mean_and_cov) <= 16 * 2**20


# -- inversion tables -----------------------------------------------------------

def test_cdf_table_matches_standard_normal():
    # The order-1 density is the standard normal: its table holds Phi at every
    # grid point, and the sampler places the uniform 0.975 at Phi^-1(0.975)
    # inside a grid cell, where linear interpolation on the table would miss
    # it by 7e-6.
    table = build_cdf_table(BasisFamily(HERMITE), 1)
    mid = table.grid.shape[0] // 2
    assert table.pair_prefix.shape == (table.grid.shape[0], 1)
    cdf = table.pair_prefix @ table.node_squares(np.ones((1, 1, 1)))[0]
    assert table.grid[mid] == 0.0
    assert cdf[mid] == pytest.approx(0.5, abs=1e-9)
    phi = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in table.grid])
    assert np.max(np.abs(cdf - phi)) <= 1e-12
    z = hermite_density([1.0]).sample(_FixedUniforms(np.array([0.975])), 1)[0, 0]
    assert z == pytest.approx(1.959963984540054, abs=1e-8)


def test_cdf_table_cross_terms_and_bounds():
    # The integral of each product phi_k phi_l, read through the span's
    # nodes: its squares there are the values of phi_k phi_l at the nodes.
    table = build_cdf_table(BasisFamily(HERMITE), 8)
    assert table.pair_prefix.shape == (table.grid.shape[0], 15)
    products = np.einsum("kj,lj->klj", table.node_vals, table.node_vals)
    plain = table.pair_prefix @ products.reshape(64, -1).T
    last = plain[-1].reshape(8, 8)
    assert abs(last[0, 1]) < 1e-8
    assert np.max(np.abs(plain)) <= 1.0 + 1e-9
    assert np.allclose(last, np.eye(8), atol=1e-12)

    alpha = random_unit(np.random.default_rng(3), 8)
    cdf = table.pair_prefix @ table.node_squares(alpha[None, :, None])[0]
    assert np.max(np.abs(cdf - expansion_cdf(HERMITE, alpha, table.grid))) < 1e-9


@pytest.mark.parametrize("order", [1, 2, 5, 11, 20, 26, 40, 64])
@pytest.mark.parametrize("kind", [HERMITE, LEGENDRE, FOURIER, LAGUERRE])
def test_span_cdf_matches_the_pairwise_prefix_integrals(kind, order):
    # Every product phi_k phi_l lies in the span of M functions, 2k - 1 of
    # them (4 (k // 2) + 1 for Fourier), so a CDF read through the span must
    # equal the one summed from the integrals of every product.
    family = BasisFamily(kind)
    table = build_cdf_table(family, order)
    size = 4 * (order // 2) + 1 if kind == FOURIER else 2 * order - 1
    assert table.pair_prefix.shape == (table.grid.shape[0], size)
    grid, prefix = pairwise_prefix(family, order)
    assert np.array_equal(grid, table.grid)
    w = np.random.default_rng(order).normal(size=(order, 3))
    s = w @ w.T
    expected = prefix @ s[np.triu_indices(order)]
    cdf = table.pair_prefix @ table.node_squares(w[None])[0]
    assert np.max(np.abs(cdf - expected)) <= 1e-11 * np.trace(s)


def test_cdf_table_rejects_a_grid_that_misses_mass(monkeypatch):
    monkeypatch.setattr(density, "cdf_grid", lambda family, order: np.linspace(-3.0, 3.0, 601))
    with pytest.raises(TableBuildError, match="widen"):
        build_cdf_table(BasisFamily(HERMITE), 6)


def test_cdf_grids():
    # 1001 points in every family: uniform on the Hermite line and on the
    # Fourier circle, Chebyshev points on [-1, 1] and quadratic spacing on
    # the Laguerre half line, each reaching the ends of its range exactly.
    s = np.linspace(0.0, 1.0, 1001)
    half = math.sqrt(258.0) + 2.0
    hi = 4.0 * 64 + 10.0 * math.sqrt(64) + 20.0
    expected = {
        (HERMITE, 8): np.linspace(-12.0, 12.0, 1001),
        (HERMITE, 64): np.linspace(-half, half, 1001),
        (FOURIER, 8): np.linspace(0.0, 2.0 * math.pi, 1001),
        (LEGENDRE, 8): -np.cos(math.pi * s),
        (LAGUERRE, 1): 60.0 * s * s,
        (LAGUERRE, 64): hi * s * s,
    }
    for (kind, order), grid in expected.items():
        got = cdf_grid(BasisFamily(kind), order)
        assert np.array_equal(got, grid), (kind, order)
        assert np.all(np.diff(got) > 0.0)


_ORACLE_RANGES = {
    "hermite": (-40.0, 40.0),
    "legendre": (-1.0, 1.0),
    "fourier": (0.0, 2.0 * math.pi),
    "laguerre": (0.0, 600.0),
}


@pytest.mark.parametrize("order", [1, 11, 22, 26, 40, 64])
@pytest.mark.parametrize("kind", [HERMITE, LEGENDRE, FOURIER, LAGUERRE])
def test_every_order_samples_and_reports_moments(kind, order):
    # Every order up to MAX_ORDER builds its table, samples without a clamp,
    # and has moments that agree with the draws and, to rounding, with a
    # Gauss-Legendre quadrature of the density on a range far wider than the
    # table's grid: the moment rules are exact.
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
    assert mean[0] == pytest.approx(m1, abs=5e-14 * math.sqrt(var))
    assert cov[0, 0] == pytest.approx(var, rel=5e-14)


# -- sampling -------------------------------------------------------------------

def test_sampling_matches_the_exact_cdf():
    rng = np.random.default_rng(12)
    alpha = random_unit(rng, 6)
    q = hermite_density(alpha)
    z = q.sample(np.random.default_rng(13), 20_000)[:, 0]
    grid = np.sort(z)
    emp = np.arange(1, grid.size + 1) / grid.size
    ks = np.max(np.abs(emp - expansion_cdf(HERMITE, alpha, grid)))
    assert ks < 0.012  # 1.36 / sqrt(n) is the 5% point at n = 20k


@pytest.mark.parametrize(
    "kind, orders, bound",
    [(HERMITE, (8,), 1e-7), (HERMITE, (8, 6), 1e-7), (HERMITE, (20,), 1e-6),
     (HERMITE, (40,), 1e-6), (HERMITE, (64,), 1e-6),
     (LEGENDRE, (20, 20), 1e-6), (LEGENDRE, (40, 40), 1e-6), (LEGENDRE, (64, 64), 1e-6),
     (LAGUERRE, (20, 20), 1e-6), (LAGUERRE, (40, 40), 1e-6), (LAGUERRE, (64, 64), 3e-6)],
    ids=["1d", "2d-separable", "1d-20", "1d-40", "1d-64", "legendre-20", "legendre-40",
         "legendre-64", "laguerre-20", "laguerre-40", "laguerre-64"],
)
def test_inversion_hits_the_exact_cdf_draw_by_draw(kind, orders, bound):
    # Each draw's coordinate d must sit where the CDF of its factor equals
    # the uniform it was inverted from; in a separable density every
    # conditional is that factor, so this checks the first coordinate and
    # the conditionals alike.  The cubic step's miss grows with the order as
    # the density oscillates faster across a grid cell: 8e-7 at Hermite
    # order 64.  Legendre zeros crowd both ends of [-1, 1] and Laguerre
    # zeros crowd 0, where draws on a uniform grid missed by up to 1e-2.
    rng = np.random.default_rng(24)
    factors = [random_unit(rng, k) for k in orders]
    coeffs = factors[0]
    for f in factors[1:]:
        coeffs = np.kron(coeffs, f)
    q = OfeDensity(ProductBasis([BasisFamily(kind)] * len(orders), orders), coeffs)
    n, seed = 20_000, 25
    x = q.sample(np.random.default_rng(seed), n)
    u = np.random.default_rng(seed).random((n, len(orders)))
    for d, f in enumerate(factors):
        assert np.max(np.abs(expansion_cdf(kind, f, x[:, d]) - u[:, d])) < bound


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
            assert abs(cdf - u[i, d]) < 1e-7


def test_sampler_memory_does_not_grow_with_draws():
    # Beyond its (n, 2) samples, 16 bytes a draw, the sampler works a chunk
    # of draws at a time, uniforms included.  Every call builds its own CDF
    # tables, so their bytes are in both peaks and cancel in the difference.
    # Drawing every uniform up front would add 16 bytes a draw: 5.8 MB here,
    # and so would mapping every sample through a transform at the end.
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (20, 20))
    coeffs = np.random.default_rng(32).normal(size=basis.size)
    transform = StandardizingTransform(np.array([1.0, -2.0]), np.array([[2.0, 0.0], [0.5, 1.5]]))
    for q in (OfeDensity(basis, coeffs), OfeDensity(basis, coeffs, transform)):
        beyond = [
            traced_peak(q.sample, np.random.default_rng(34), n) - 16 * n for n in (40_000, 400_000)
        ]
        assert abs(beyond[1] - beyond[0]) <= 2**19, q.transform


def test_sampling_holds_little_beyond_its_samples():
    # A 200k-draw call on a 20x20 Hermite density holds its (n, 2) samples,
    # one chunk of working arrays and its CDF tables: 4.1 MB beyond the
    # samples, against 10.2 MB with tables on a 4001-point grid.
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (20, 20))
    q = OfeDensity(basis, np.random.default_rng(32).normal(size=basis.size))
    n = 200_000
    assert traced_peak(q.sample, np.random.default_rng(34), n) - 16 * n <= 5 * 2**20


@pytest.mark.parametrize("kind", [HERMITE, LEGENDRE, FOURIER, LAGUERRE])
def test_cdf_table_builds_without_full_size_copies(kind):
    # vals and pair_prefix are the table's bulk, each (points, M); a copy of
    # either would take half the table again.  `mid_vals` is zero-size.
    table = build_cdf_table(BasisFamily(kind), 64)
    fields = (table.grid, table.vals, table.mid_vals, table.pair_prefix, table.node_vals)
    table_bytes = sum(a.nbytes for a in fields)
    assert traced_peak(build_cdf_table, BasisFamily(kind), 64) < 1.25 * table_bytes


def test_a_sampling_call_builds_one_table_per_axis_and_keeps_none(monkeypatch):
    built = []

    def counting_build(family, order):
        built.append((family.kind, order))
        return build_cdf_table(family, order)

    monkeypatch.setattr(density, "build_cdf_table", counting_build)
    families = [BasisFamily(HERMITE), BasisFamily(LEGENDRE), BasisFamily(HERMITE)]
    basis = ProductBasis(families, (4, 3, 4))
    q = OfeDensity(basis, np.random.default_rng(35).normal(size=basis.size))
    first = q.sample(np.random.default_rng(36), 50)
    assert built == [(HERMITE, 4), (LEGENDRE, 3)]
    assert set(vars(q)) == {"basis", "coeffs", "transform"}
    # A second call builds the tables again and draws the same points.
    assert np.array_equal(q.sample(np.random.default_rng(36), 50), first)
    assert built == [(HERMITE, 4), (LEGENDRE, 3)] * 2


def test_the_sampler_refuses_a_conditional_at_a_zero_of_the_marginal(monkeypatch):
    # Coefficients e_1 (x) e_0: the first axis's marginal is phi_1(x)^2, which
    # vanishes at 0.0, the middle point of the order-2 Hermite CDF grid.
    hermite = BasisFamily(HERMITE)
    q = OfeDensity(ProductBasis([hermite] * 2, (2, 2)), np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(q.marginal_coefficients(1), [[0.0, 0.0], [0.0, 1.0]])
    grid = cdf_grid(hermite, 2)
    middle = grid[grid.size // 2]
    assert middle == 0.0 and basis_tables(hermite, 2, np.array([middle]))[1, 0] == 0.0
    assert np.all(np.isfinite(q.sample(np.random.default_rng(0), 100)))

    place, calls = density._place, []

    def first_draw_at_the_zero(grid, *args):
        # The first call places the first coordinate of the first chunk.
        points, clamps = place(grid, *args)
        if not calls:
            points[0] = middle
        calls.append(points.size)
        return points, clamps

    monkeypatch.setattr(density, "_place", first_draw_at_the_zero)
    with pytest.raises(PoleError, match="zero of the marginal"):
        q.sample(np.random.default_rng(0), 100)
    assert calls == [100]


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


# A CDF tabulated on 31 grid points whose last value is 0.9, and one that is
# flat between grid indices 10 and 20 (node 16 of a 4-cell search sits in
# it); the node indices of a 4-cell search are NODES.
GRID = np.linspace(-1.5, 1.5, 31)
LINEAR = 0.9 * np.linspace(0.0, 1.0, 31)
FLAT = np.concatenate([np.linspace(0.0, 0.4, 11), np.full(10, 0.4), np.linspace(0.4, 0.9, 11)[1:]])
NODES = np.array([0, 8, 16, 24, 30])


def _stub_table(cdf):
    """A one-column CDF table on GRID holding cdf and, as its density, cdf's slope."""
    one = np.ones((1, 1))
    return density.CdfTable(GRID, np.gradient(cdf, GRID)[:, None], None, cdf[:, None], one)


def _invert_shared(cdf, targets):
    """`_invert` with every target on one CDF: a one-column table, sq all ones."""
    return density._invert(_stub_table(cdf), np.ones((targets.size, 1)), targets)


def test_truncated_table_counts_boundary_clamps(monkeypatch):
    # A CDF whose last grid value is 0.9 cannot reach the top tenth of the
    # targets: those draws are pinned to the grid's upper end and counted.
    targets = np.random.default_rng(22).random(5_000)
    z, clamps = _invert_shared(LINEAR, targets)
    clamped = targets >= 0.9
    assert clamps == np.count_nonzero(clamped) > 0
    assert np.all(z[clamped] == GRID[-1])
    assert np.all(z >= -1.5) and np.all(z < 1.5 + 1e-12)
    assert np.allclose(z[~clamped], -1.5 + 3.0 * targets[~clamped] / 0.9)

    # Starting each search in its node cell gives bitwise the points and
    # clamps of a search from the two ends, also on a flat stretch of the
    # CDF and at targets equal to node values.
    for c in (LINEAR, FLAT):
        t = np.concatenate([targets, c[NODES], LINEAR[NODES]])
        monkeypatch.setattr(density, "_COARSE_CELLS", 4)
        coarse = _invert_shared(c, t)
        monkeypatch.setattr(density, "_COARSE_CELLS", 1)
        two_point = _invert_shared(c, t)
        assert np.array_equal(coarse[0], two_point[0])
        assert coarse[1] == two_point[1] > 0


def _halving_cases():
    """(table, targets) pairs: the short-last-cell, single-draw and node-value cases."""
    # At 32 node cells a 1001-point grid splits into 31 cells of 32 steps
    # and a last one of 8: targets only in that one took 3 halvings in the
    # while loop, and take 5 now.
    grid = np.linspace(-4.0, 4.0, 1001)
    cdf = 0.1125 * (grid + 4.0) + 0.05 * np.sin(grid) + 0.05 * math.sin(4.0)
    wide = density.CdfTable(grid, np.gradient(cdf, grid)[:, None], None, cdf[:, None],
                            np.ones((1, 1)))
    rng = np.random.default_rng(40)
    short = np.concatenate([rng.uniform(cdf[992], cdf[1000], 3_000), cdf[992:]])
    spread = rng.random(3_000) * cdf[-1]
    cases = [(wide, short), (wide, spread), (wide, spread[:1]), (wide, short[:1])]
    for c in (LINEAR, FLAT):
        t = np.concatenate([rng.random(3_000), c, c[NODES]])
        cases += [(_stub_table(c), t), (_stub_table(c), t[:1])]
    return cases


@pytest.mark.parametrize("cells", [1, 4, 32])
def test_fixed_halvings_give_the_while_loop_bisection(monkeypatch, cells):
    # `_invert` halves every draw's node cell ceil(log2) of the widest
    # cell's steps times; the bisection it replaced stopped once every cell
    # was one step wide.  A one-step cell keeps its ends, so the points and
    # clamps are bitwise the same: with targets only in a short last node
    # cell, for a single draw, and at 1, 4 and 32 node cells.
    monkeypatch.setattr(density, "_COARSE_CELLS", cells)
    for table, targets in _halving_cases():
        sq = np.ones((targets.size, 1))
        z, clamps = density._invert(table, sq, targets)
        expected, expected_clamps = while_loop_invert(table, sq, targets)
        assert np.array_equal(z, expected)
        assert clamps == expected_clamps


class _FixedUniforms:
    """A generator stand-in whose uniforms are the given targets, served in consecutive rows."""

    def __init__(self, targets):
        self.targets = targets
        self.served = 0

    def random(self, shape):
        start, self.served = self.served, self.served + math.prod(shape)
        return self.targets[start:self.served].reshape(shape)


def test_first_coordinate_search_matches_the_bisection(monkeypatch):
    # Every draw shares the first coordinate's CDF, and the sampler places
    # them with np.searchsorted.  That gives bitwise the points and clamps of
    # `_invert`'s bisection on the same CDF, also on a flat stretch and at
    # targets equal to tabulated values.  An order-1 density whose one node
    # value is 1 has squares and trace 1, so a one-column table makes its
    # CDF and density exactly the tabulated ones.
    monkeypatch.setattr(density, "_COARSE_CELLS", 4)
    targets = np.random.default_rng(22).random(5_000)
    for c in (LINEAR, FLAT):
        t = np.concatenate([targets, c, c[NODES]])
        table = _stub_table(c)
        monkeypatch.setattr(density, "build_cdf_table", lambda family, order: table)
        uniforms = _FixedUniforms(t)
        z, info = hermite_density([1.0]).sample_with_info(uniforms, t.size)
        assert uniforms.served == t.size
        bisected, clamps = _invert_shared(c, t)
        assert np.array_equal(z[:, 0], bisected)
        assert info["boundary_clamps"][0] == clamps > 0


def test_transformed_sampler_lands_in_original_coordinates():
    t = StandardizingTransform(np.array([3.0]), np.array([[math.sqrt(0.125)]]))
    q = hermite_density([1.0], t)
    z = q.sample(np.random.default_rng(23), 100_000)[:, 0]
    assert z.mean() == pytest.approx(3.0, abs=0.01)
    assert z.var() == pytest.approx(0.125, abs=0.005)


def test_expansion_builds_no_derivative_table(monkeypatch):
    # f needs the values at each axis's order; the score needs them one
    # order up, and no derivative table.
    asked = []

    def recording(family, order, z):
        asked.append(order)
        return basis_tables(family, order, z)

    monkeypatch.setattr(density, "basis_tables", recording)
    monkeypatch.setattr(product_basis, "basis_tables", recording)
    q = hermite_density_2d(np.random.default_rng(5).normal(size=(3, 4)))
    z = np.random.default_rng(6).normal(size=(10, 2))
    q.expansion(z)
    q.log_density(z)
    assert asked == [3, 4] * 2
    q.score(z)
    assert asked[4:] == [4, 5]


def test_sample_count_validation():
    with pytest.raises(ValueError):
        hermite_density([1.0]).sample(np.random.default_rng(0), 0)


@pytest.mark.parametrize("n", [2.5, True, np.float64(3.9), np.bool_(True), None])
def test_sampling_refuses_a_count_that_is_not_a_whole_number(n):
    with pytest.raises(ConfigError, match="is not an integer"):
        hermite_density([1.0]).sample_with_info(np.random.default_rng(0), n)


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
