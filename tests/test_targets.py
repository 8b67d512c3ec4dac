import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from ofevi import (
    ConfigError,
    Funnel,
    Gaussian,
    GaussianMixture,
    SinhArcsinh,
    TARGET_REGISTRY,
    bimodal_1d,
    cross_2d,
    funnel_2d,
    make_target,
    mixture_2d,
    sinh_arcsinh_2d,
    sinh_arcsinh_5d,
)

from ofevi.targets import logsumexp
from ofevi.utils import row_sums
from oracles import fd_gradient, gauss_panels, row_max_logsumexp

ALL_2D = {
    "mixture2d": mixture_2d,
    "funnel2d": funnel_2d,
    "cross2d": cross_2d,
    "sinh2d_slight_skew_tails": lambda: sinh_arcsinh_2d("slight_skew_tails"),
    "sinh2d_more_skew_tails": lambda: sinh_arcsinh_2d("more_skew_tails"),
    "sinh2d_heavier_tails": lambda: sinh_arcsinh_2d("heavier_tails"),
}


def test_standard_gaussian_basics():
    p = Gaussian(np.zeros(2), np.eye(2))
    assert p.log_density([[0.0, 0.0]])[0] == pytest.approx(-math.log(2.0 * math.pi), rel=1e-15)
    z = np.random.default_rng(0).normal(size=(50, 2))
    assert np.array_equal(p.score(z), -z)


def test_general_gaussian_matches_scipy():
    mean = np.array([1.0, -2.0, 0.5])
    cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 0.8]])
    p = Gaussian(mean, cov)
    rng = np.random.default_rng(1)
    z = rng.normal(size=(30, 3))
    expected = stats.multivariate_normal(mean, cov).logpdf(z)
    assert np.allclose(p.log_density(z), expected, rtol=1e-12)
    for zi in z[:5]:
        fd = fd_gradient(lambda x: p.log_density(x[None])[0], zi)
        assert np.allclose(p.score(zi[None])[0], fd, rtol=1e-6, atol=1e-7)


def test_logsumexp_matches_scipy_on_rows_far_below_zero():
    a = -1e4 + np.random.default_rng(3).normal(scale=5.0, size=(200, 4))
    a[0] = -1e4
    a[1, 2] = -np.inf
    assert np.all(np.exp(a[:, 0]) == 0.0)
    expected = special.logsumexp(a, axis=1)
    assert np.allclose(logsumexp(a), expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("width", range(1, 10))
def test_row_sums_give_numpys_row_sum_bits(width):
    # Mixed signs and magnitudes from 1e-8 to 1e8, so that every rounding shows.
    rng = np.random.default_rng(width)
    x = rng.choice([-1.0, 1.0], size=(5000, width)) * 10.0 ** rng.uniform(-8, 8, (5000, width))
    x[0] = -0.0
    for layout in (x, np.asfortranarray(x)):
        assert row_sums(layout).tobytes() == np.sum(layout, axis=1).tobytes()


def test_logsumexp_gives_the_row_max_bits_on_non_finite_rows():
    a = np.random.default_rng(4).normal(scale=30.0, size=(12, 3))
    a[0, 1] = -np.inf
    a[1] = -np.inf
    a[2, 2] = np.inf
    a[3, 0] = np.nan
    a[4, :2] = np.inf
    a[5] = [np.inf, np.nan, -np.inf]
    a[6] = 0.0
    a[7] = [-0.0, 0.0, -0.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert logsumexp(a).tobytes() == row_max_logsumexp(a).tobytes()
        for width in (1, 2, 9):
            b = np.random.default_rng(width).normal(scale=30.0, size=(40, width))
            b[0] = -np.inf
            assert logsumexp(b).tobytes() == row_max_logsumexp(b).tobytes()


def test_gaussian_sample_moments():
    mean = np.array([1.0, -1.0])
    cov = np.array([[1.5, 0.6], [0.6, 0.9]])
    z = Gaussian(mean, cov).sample(np.random.default_rng(2), 200_000)
    assert np.allclose(z.mean(axis=0), mean, atol=0.02)
    assert np.allclose(np.cov(z.T), cov, atol=0.02)


def test_single_component_mixture_equals_gaussian():
    mean, cov = np.array([0.3, -0.7]), np.array([[1.2, 0.1], [0.1, 0.8]])
    mix = GaussianMixture([1.0], [mean], [cov])
    g = Gaussian(mean, cov)
    z = np.random.default_rng(3).normal(size=(20, 2))
    assert np.allclose(mix.log_density(z), g.log_density(z), rtol=1e-13)
    assert np.allclose(mix.score(z), g.score(z), rtol=1e-12)


def test_mixture_moments_and_score():
    mix = mixture_2d()
    w = mix.weights
    means = np.array([c.mean for c in mix.components])
    covs = np.array([c.cov for c in mix.components])
    mean = w @ means
    cov = np.einsum("k,kab->ab", w, covs) + np.einsum(
        "k,ka,kb->ab", w, means - mean, means - mean
    )
    z = mix.sample(np.random.default_rng(4), 400_000)
    assert np.allclose(z.mean(axis=0), mean, atol=0.02)
    assert np.allclose(np.cov(z.T), cov, atol=0.03)
    for zi in z[:10]:
        fd = fd_gradient(lambda x: mix.log_density(x[None])[0], zi)
        assert np.allclose(mix.score(zi[None])[0], fd, rtol=1e-5, atol=1e-6)


def test_funnel_closed_form_values():
    p = funnel_2d()
    assert p.sigma2 == 1.2
    assert p.log_density([[0.0, 0.0]])[0] == pytest.approx(-1.9290378448063228, abs=1e-12)
    assert np.allclose(p.score([[0.0, 0.0]])[0], [-0.25, 0.0], atol=1e-15)


def test_funnel_score_matches_finite_differences():
    p = funnel_2d()
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.uniform(-2.5, 2.5, size=2)
        fd = fd_gradient(lambda x: p.log_density(x[None])[0], z)
        assert np.allclose(p.score(z[None])[0], fd, rtol=1e-6, atol=1e-6)


def test_funnel_sampler_moments():
    p = funnel_2d()
    n = 400_000
    z = p.sample(np.random.default_rng(6), n)
    assert abs(z[:, 0].mean()) < 4.0 * math.sqrt(1.2 / n)
    assert z[:, 0].var() == pytest.approx(1.2, abs=0.02)
    # var(z2) = E[exp(z1/2)] = exp(sigma2 / 8)
    assert z[:, 1].var() == pytest.approx(math.exp(1.2 / 8.0), abs=0.05)


@pytest.mark.parametrize("name", sorted(ALL_2D))
def test_two_dimensional_targets_are_normalized(name):
    target = ALL_2D[name]()
    nodes, weights = gauss_panels(-14.0, 14.0, panels=56, order=16)
    lp = target.log_density(
        np.column_stack([np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)])
    )
    mass = np.outer(weights, weights).ravel() @ np.exp(lp)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_sinh_arcsinh_reduces_to_gaussian():
    p = SinhArcsinh([0.0, 0.0], [1.0, 1.0], np.eye(2))
    g = Gaussian(np.zeros(2), np.eye(2))
    z = np.random.default_rng(7).uniform(-4.0, 4.0, size=(100, 2))
    assert np.max(np.abs(p.log_density(z) - g.log_density(z))) < 1e-10
    assert np.max(np.abs(p.score(z) - g.score(z))) < 1e-10


@pytest.mark.parametrize("variant", ["slight_skew_tails", "more_skew_tails", "heavier_tails"])
def test_sinh_arcsinh_score_matches_finite_differences(variant):
    p = sinh_arcsinh_2d(variant)
    rng = np.random.default_rng(8)
    for _ in range(25):
        z = rng.uniform(-3.0, 3.0, size=2)
        fd = fd_gradient(lambda x: p.log_density(x[None])[0], z)
        assert np.allclose(p.score(z[None])[0], fd, rtol=1e-6, atol=1e-6)


def test_sinh_arcsinh_sampler_matches_density():
    p = sinh_arcsinh_2d("more_skew_tails")
    nodes, weights = gauss_panels(-20.0, 20.0, panels=80, order=16)
    zz = np.column_stack([np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)])
    ww = np.outer(weights, weights).ravel()
    dens = np.exp(p.log_density(zz))
    mean_q = (ww * dens) @ zz
    n = 400_000
    z = p.sample(np.random.default_rng(9), n)
    se = z.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(z.mean(axis=0) - mean_q) < 4.0 * se)


def test_five_dimensional_sinh_arcsinh():
    for variant in (1, 2, 3):
        p = sinh_arcsinh_5d(variant)
        assert p.dim == 5
        rng = np.random.default_rng(10 + variant)
        z = rng.uniform(-2.0, 2.0, size=(5, 5))
        assert np.all(np.isfinite(p.log_density(z)))
        for zi in z[:2]:
            fd = fd_gradient(lambda x: p.log_density(x[None])[0], zi)
            assert np.allclose(p.score(zi[None])[0], fd, rtol=1e-5, atol=1e-6)
        assert p.sample(rng, 16).shape == (16, 5)


def test_bimodal_fixture_is_a_unit_mass_mixture():
    p = bimodal_1d()
    val, _ = integrate.quad(lambda x: math.exp(p.log_density([[x]])[0]), -12.0, 12.0)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert p.dim == 1


def test_registry_constructs_every_target():
    for name in TARGET_REGISTRY:
        if name in ("gaussian", "mixture", "funnel", "sinh_arcsinh"):
            continue
        target = make_target(name)
        assert target.dim in (1, 2, 5)
    g = make_target("gaussian", mean=[1.0], cov=[[2.0]])
    assert g.log_density([[1.0]])[0] == pytest.approx(-0.5 * math.log(4.0 * math.pi))
    with pytest.raises(ValueError):
        make_target("nope")
    with pytest.raises(ConfigError):
        make_target("gaussian", bogus=1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        GaussianMixture([0.5, 0.4], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(ValueError):
        GaussianMixture([-0.5, 1.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(ValueError):
        GaussianMixture([math.nan, 1.0], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(ValueError):
        SinhArcsinh([0.0], [0.0], np.eye(1))
    with pytest.raises(ValueError):
        Funnel(sigma2=-1.0)
    with pytest.raises(ValueError):
        Gaussian(np.zeros(2), np.eye(3))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Gaussian([math.nan], [[1.0]]),
        lambda: Gaussian([0.0], [[math.inf]]),
        lambda: GaussianMixture([0.5, 0.5], [[0.0], [math.inf]], [[[1.0]], [[1.0]]]),
        lambda: SinhArcsinh([math.nan], [1.0], [[1.0]]),
        lambda: SinhArcsinh([0.0], [math.nan], [[1.0]]),
        lambda: SinhArcsinh([0.0], [math.inf], [[1.0]]),
        lambda: Funnel(sigma2=math.inf),
        lambda: Funnel(sigma2=math.nan),
    ],
    ids=["gaussian-nan-mean", "gaussian-infinite-cov", "mixture-infinite-mean", "sinh-nan-s",
         "sinh-nan-tau", "sinh-infinite-tau", "funnel-infinite-sigma2", "funnel-nan-sigma2"],
)
def test_a_non_finite_parameter_is_refused(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "name, params, match",
    [
        # A (1, 2) mean with a 2x2 covariance would build a 1-D target.
        ("gaussian", dict(mean=[[0.0, 1.0]], cov=np.eye(2)), "vector"),
        # zip would drop the extra covariance or mean silently.
        ("mixture", dict(weights=[0.5, 0.5], means=[[0.0], [1.0]],
                         covs=[[[1.0]], [[1.0]], [[1.0]]]), "one mean/cov pair"),
        ("mixture", dict(weights=[0.5, 0.5], means=[[0.0], [1.0], [2.0]],
                         covs=[[[1.0]], [[1.0]]]), "one mean/cov pair"),
        ("mixture", dict(weights=[0.5, 0.5], means=[[0.0], [1.0, 1.0]],
                         covs=[[[1.0]], np.eye(2)]), "share a dimension"),
        ("sinh_arcsinh", dict(s=[0.0, 0.0], tau=[1.0], cov=np.eye(2)), "dimensions must agree"),
        ("sinh_arcsinh", dict(s=[0.0], tau=[1.0, 1.0], cov=[[1.0]]), "dimensions must agree"),
    ],
    ids=["gaussian-matrix-mean", "mixture-extra-cov", "mixture-extra-mean",
         "mixture-mixed-dimensions", "sinh-short-tau", "sinh-long-tau"],
)
def test_a_malformed_shape_is_refused_where_the_target_is_built(name, params, match):
    with pytest.raises(ConfigError, match=match):
        make_target(name, **params)


def test_an_asymmetric_covariance_is_refused():
    # cholesky reads only the lower triangle: this one would become N(0, I).
    lower = [[1.0, 0.0], [0.9, 1.0]]
    asymmetric = [[1.0, 0.9], [0.0, 1.0]]
    for cov in (lower, asymmetric):
        with pytest.raises(ValueError, match="symmetric"):
            Gaussian(np.zeros(2), cov)
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMixture([1.0], [[0.0, 0.0]], [asymmetric])
    with pytest.raises(ValueError, match="symmetric"):
        SinhArcsinh([0.0, 0.0], [1.0, 1.0], asymmetric)
    with pytest.raises(ConfigError, match="symmetric"):
        make_target("gaussian", mean=[0.0, 0.0], cov=asymmetric)
    # Asymmetry at rounding level is accepted.
    Gaussian(np.zeros(2), [[2.0, 0.3], [0.3 * (1.0 + 2.0**-52), 2.0]])


def test_a_zero_weight_component_drops_out_without_warnings():
    # RuntimeWarning is an error in this suite, so log(0) must not warn.
    mix = GaussianMixture([0.0, 1.0], [[5.0], [0.0]], [[[1.0]], [[1.0]]])
    only = Gaussian(np.zeros(1), [[1.0]])
    z = np.linspace(-3.0, 3.0, 7)[:, None]
    assert np.array_equal(mix.log_density(z), only.log_density(z))
    assert np.array_equal(mix.score(z), only.score(z))
