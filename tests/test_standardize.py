import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from ofevi import (
    HERMITE,
    BasisFamily,
    Gaussian,
    IsotropicGaussian,
    OfeDensity,
    ProductBasis,
    ProposalSupportError,
    StandardizedTarget,
    StandardizingTransform,
    TransformError,
    UniformBox,
    estimate_moments,
    estimate_transform,
    pull_density,
)

from oracles import fd_gradient


def random_transform(rng, dim):
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    return StandardizingTransform.from_moments(rng.normal(size=dim), cov)


def test_transform_round_trip():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 4):
        t = random_transform(rng, dim)
        z = rng.normal(size=(50, dim))
        assert np.allclose(t.from_standard(t.to_standard(z)), z, rtol=1e-12, atol=1e-12)
        assert np.allclose(t.to_standard(t.from_standard(z)), z, rtol=1e-12, atol=1e-12)


def test_log_det_and_identity():
    t = StandardizingTransform(np.zeros(3), np.eye(3))
    assert t.log_det == 0.0
    assert np.array_equal(t.to_standard([[1.0, 2.0, 3.0]])[0], [1.0, 2.0, 3.0])
    t2 = StandardizingTransform(np.zeros(2), np.diag([2.0, 0.5]))
    assert t2.log_det == pytest.approx(math.log(2.0) + math.log(0.5), rel=1e-15)


def test_transform_validation():
    with pytest.raises(TransformError):
        StandardizingTransform(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(TransformError):
        StandardizingTransform(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(TransformError):
        StandardizingTransform(np.zeros(3), np.eye(2))
    with pytest.raises(TransformError):
        StandardizingTransform.from_moments(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_scale_moments():
    rng = np.random.default_rng(1)
    t = random_transform(rng, 3)
    mean, cov = t.scale_moments(np.zeros(3), np.eye(3))
    assert np.allclose(mean, t.mean)
    assert np.allclose(cov, t.chol @ t.chol.T)


def test_standardized_target_standardizes_a_gaussian_exactly():
    mean = np.array([3.0, -1.0])
    cov = np.array([[0.5, 0.2], [0.2, 0.8]])
    target = Gaussian(mean, cov)
    t = StandardizingTransform.from_moments(mean, cov)
    std = StandardizedTarget(target, t)
    ref = Gaussian(np.zeros(2), np.eye(2))
    z = np.random.default_rng(2).normal(size=(100, 2))
    assert np.allclose(std.log_density(z), ref.log_density(z), rtol=1e-12, atol=1e-12)
    assert np.allclose(std.score(z), -z, rtol=1e-11, atol=1e-11)
    draws = std.sample(np.random.default_rng(3), 200_000)
    assert np.allclose(draws.mean(axis=0), 0.0, atol=0.02)
    assert np.allclose(np.cov(draws.T), np.eye(2), atol=0.02)


def test_pushforward_score_matches_finite_differences():
    target = Gaussian(np.array([1.0, 2.0]), np.array([[1.0, 0.3], [0.3, 2.0]]))
    t = random_transform(np.random.default_rng(4), 2)
    std = StandardizedTarget(target, t)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.normal(size=2)
        fd = fd_gradient(lambda x: std.log_density(x[None])[0], z)
        assert np.allclose(std.score(z[None])[0], fd, rtol=1e-6, atol=1e-7)


def test_pull_density_is_an_exact_change_of_variables():
    # K=1 in standardized coordinates pulled back through (mu, L) is N(mu, L L^T).
    basis = ProductBasis([BasisFamily(HERMITE)], (1,))
    q_std = OfeDensity(basis, np.array([1.0]))
    t = StandardizingTransform(np.array([3.0]), np.array([[math.sqrt(0.125)]]))
    q = pull_density(q_std, t)
    ref = Gaussian(np.array([3.0]), np.array([[0.125]]))
    for x in (2.5, 3.0, 3.5):
        assert q.log_density([[x]])[0] == pytest.approx(ref.log_density([[x]])[0], rel=1e-12)
    assert q.density([[3.0]])[0] == pytest.approx((2.0 * math.pi * 0.125) ** -0.5, rel=1e-12)
    val, _ = integrate.quad(lambda x: q.density([[x]])[0], 0.0, 6.0)
    assert val == pytest.approx(1.0, abs=1e-8)
    mean, cov = q.mean_and_cov()
    assert mean[0] == pytest.approx(3.0, rel=1e-12)
    assert cov[0, 0] == pytest.approx(0.125, rel=1e-12)


def test_pull_density_rejects_double_attachment():
    basis = ProductBasis([BasisFamily(HERMITE)], (2,))
    q = OfeDensity(basis, np.array([1.0, 0.0]), StandardizingTransform(np.zeros(1), np.eye(1)))
    with pytest.raises(TransformError):
        pull_density(q, StandardizingTransform(np.zeros(1), np.eye(1)))


def test_estimate_moments_recovers_a_gaussian():
    target = Gaussian(np.array([3.0]), np.array([[0.125]]))
    proposal = UniformBox(np.array([-6.0]), np.array([6.0]))
    mean, cov = estimate_moments(target, proposal, 200_000, np.random.default_rng(6))
    assert mean[0] == pytest.approx(3.0, abs=0.01)
    assert cov[0, 0] == pytest.approx(0.125, abs=0.01)
    t = estimate_transform(target, proposal, 200_000, np.random.default_rng(6))
    assert t.chol[0, 0] == pytest.approx(math.sqrt(0.125), abs=0.01)


def test_estimate_moments_with_gaussian_proposal():
    target = Gaussian(np.array([0.5, -0.5]), np.array([[1.0, 0.4], [0.4, 1.0]]))
    proposal = IsotropicGaussian(np.zeros(2), 9.0)
    mean, cov = estimate_moments(target, proposal, 300_000, np.random.default_rng(7))
    assert np.allclose(mean, target.mean, atol=0.02)
    assert np.allclose(cov, target.cov, atol=0.03)


def test_estimate_moments_ridge_keeps_cholesky_valid():
    # Equal weight on collinear points: the raw covariance is exactly rank
    # one, so only the trace-scaled ridge lets the Cholesky step succeed.
    class CollinearDraws:
        dim = 2

        def sample(self, rng, n):
            return np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])

        def density(self, z):
            return np.ones(np.atleast_2d(z).shape[0])

    class Flat:
        dim = 2

        def log_density(self, z):
            return np.zeros(np.atleast_2d(z).shape[0])

    raw = np.full((2, 2), 2.0 / 3.0)
    with pytest.raises(TransformError):
        StandardizingTransform.from_moments(np.ones(2), np.ones((2, 2)))
    t = estimate_transform(Flat(), CollinearDraws(), 3, np.random.default_rng(8))
    assert np.all(np.diag(t.chol) > 0.0)
    assert np.allclose(t.chol @ t.chol.T, raw, atol=1e-7)


def test_disjoint_support_raises():
    class Shifted:
        dim = 1

        def log_density(self, z):
            z = np.atleast_2d(np.asarray(z, dtype=float))
            inside = (z[:, 0] > 5.0) & (z[:, 0] < 6.0)
            return np.where(inside, 0.0, -np.inf)

    proposal = UniformBox(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ProposalSupportError):
        estimate_moments(Shifted(), proposal, 100, np.random.default_rng(9))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    t = random_transform(rng, 2)
    z = rng.normal(size=(5, 2))
    back = t.from_standard(t.to_standard(z))
    assert np.allclose(back, z, rtol=1e-10, atol=1e-10)
