import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from ofevi import IsotropicGaussian, UniformBox


def test_box_density_values():
    box = UniformBox.centered(9.0, 2)
    assert box.density([[0.0, 0.0]])[0] == pytest.approx(1.0 / 324.0, rel=1e-15)
    assert box.density([[9.5, 0.0]])[0] == 0.0
    batch = box.density(np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert batch[0] > 0.0 and batch[1] == 0.0


def test_gaussian_density_matches_scipy():
    prop = IsotropicGaussian(np.array([0.5, -1.0]), 2.5)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(40, 2))
    expected = stats.multivariate_normal(prop.mean, 2.5 * np.eye(2)).pdf(z)
    assert np.allclose(prop.density(z), expected, rtol=1e-12)


def test_densities_integrate_to_one():
    box = UniformBox(np.array([-2.0]), np.array([5.0]))
    val, _ = integrate.quad(lambda x: box.density([[x]])[0], -3.0, 6.0)
    assert val == pytest.approx(1.0, abs=1e-10)
    gauss = IsotropicGaussian(np.array([1.0]), 4.0)
    val, _ = integrate.quad(lambda x: gauss.density([[x]])[0], -30.0, 30.0)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_samples_live_inside_the_box():
    box = UniformBox.centered(3.0, 4)
    z = box.sample(np.random.default_rng(1), 5000)
    assert z.shape == (5000, 4)
    assert np.all(z >= -3.0) and np.all(z <= 3.0)


def test_sampling_is_deterministic_given_the_generator():
    prop = IsotropicGaussian(np.zeros(3), 9.0)
    a = prop.sample(np.random.default_rng(42), 100)
    b = prop.sample(np.random.default_rng(42), 100)
    assert np.array_equal(a, b)


def test_gaussian_sample_moments():
    prop = IsotropicGaussian(np.array([2.0]), 4.0)
    z = prop.sample(np.random.default_rng(5), 100_000)
    se_mean = 2.0 / np.sqrt(100_000)
    assert abs(z.mean() - 2.0) < 4.0 * se_mean
    assert abs(z.var() - 4.0) < 0.1


def test_box_histogram_is_flat():
    # Fixed seed keeps the five-sigma-free check deterministic.
    box = UniformBox(np.array([-1.0]), np.array([2.0]))
    n, bins = 1_000_000, 50
    z = box.sample(np.random.default_rng(0), n)[:, 0]
    counts, _ = np.histogram(z, bins=bins, range=(-1.0, 2.0))
    p = 1.0 / bins
    se = np.sqrt(n * p * (1.0 - p))
    assert np.max(np.abs(counts - n * p)) < 3.0 * se


def test_validation_errors():
    with pytest.raises(ValueError):
        UniformBox(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        UniformBox(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        IsotropicGaussian(np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="vector"):
        IsotropicGaussian(np.zeros((1, 2)), 1.0)
    with pytest.raises(ValueError):
        UniformBox.centered(1.0, 1).sample(np.random.default_rng(0), 0)
    with pytest.raises(ValueError, match="at least one"):
        IsotropicGaussian(np.zeros(2), 1.0).sample(np.random.default_rng(0), 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: UniformBox(np.array([math.nan]), np.array([1.0])),
        lambda: UniformBox(np.array([0.0]), np.array([math.inf])),
        lambda: UniformBox(np.array([-math.inf]), np.array([1.0])),
        lambda: IsotropicGaussian(np.array([math.nan]), 1.0),
        lambda: IsotropicGaussian(np.zeros(1), math.inf),
        lambda: IsotropicGaussian(np.zeros(1), math.nan),
    ],
    ids=["box-nan-lo", "box-infinite-hi", "box-infinite-lo", "gaussian-nan-mean",
         "gaussian-infinite-variance", "gaussian-nan-variance"],
)
def test_a_non_finite_parameter_is_refused(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: UniformBox.centered(1e200, 2),
        lambda: UniformBox.centered(1e-160, 2),
        lambda: IsotropicGaussian(np.zeros(5), 1e-320),
        lambda: IsotropicGaussian(np.zeros(5), 1e200),
    ],
    ids=["box-volume-overflows", "box-volume-underflows", "gaussian-normalizer-underflows",
         "gaussian-normalizer-overflows"],
)
def test_a_proposal_whose_density_is_not_representable_is_refused(make):
    # These used to build, and gave a density of 0 or inf everywhere on them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not representable"):
            make()
