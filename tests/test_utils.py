"""The float rule, `utils.as_floats`, and every constructor that reads a parameter array through it."""

import math

import numpy as np
import pytest

from ofevi import (
    HERMITE,
    BasisFamily,
    Funnel,
    Gaussian,
    GaussianMixture,
    IsotropicGaussian,
    OfeDensity,
    ProductBasis,
    SinhArcsinh,
    StandardizingTransform,
    UniformBox,
)
from ofevi.exceptions import ConfigError, TransformError
from ofevi.harness import ExperimentConfig
from ofevi.utils import as_floats

DENSITY = OfeDensity(ProductBasis([BasisFamily(HERMITE)] * 2, (2, 2)), np.full(4, 0.5)).to_dict()

# site: (build from the value, a value it accepts, the field its message names, its error type)
SITES = {
    "gaussian-mean": (lambda v: Gaussian(v, np.eye(2)), [0.0, 1.0], "mean", ValueError),
    "gaussian-cov": (lambda v: Gaussian(np.zeros(2), v), [[1.0, 0.0], [0.0, 1.0]], "cov", ValueError),
    "mixture-weights": (lambda v: GaussianMixture(v, [[0.0], [1.0]], [[[1.0]], [[1.0]]]), [0.5, 0.5],
                        "weights", ValueError),
    "sinh-s": (lambda v: SinhArcsinh(v, [1.0, 1.0], np.eye(2)), [0.1, 0.2], "s", ValueError),
    "sinh-tau": (lambda v: SinhArcsinh([0.0, 0.0], v, np.eye(2)), [1.0, 1.1], "tau", ValueError),
    "funnel-sigma2": (lambda v: Funnel(sigma2=v), 1.2, "sigma2", ValueError),
    "box-lo": (lambda v: UniformBox(v, [1.0, 1.0]), [-1.0, -1.0], "lo", ValueError),
    "box-hi": (lambda v: UniformBox([-1.0, -1.0], v), [1.0, 1.0], "hi", ValueError),
    "isotropic-mean": (lambda v: IsotropicGaussian(v, 1.0), [0.0, 1.0], "mean", ValueError),
    "isotropic-variance": (lambda v: IsotropicGaussian(np.zeros(2), v), 9.0, "variance", ValueError),
    "transform-mean": (lambda v: StandardizingTransform(v, np.eye(2)), [0.0, 1.0], "mean", TransformError),
    "transform-chol": (lambda v: StandardizingTransform(np.zeros(2), v), [[1.0, 0.0], [0.5, 1.0]], "chol",
                       TransformError),
    "density-coeffs": (lambda v: OfeDensity.from_dict(dict(DENSITY, coeffs=v)), [0.5] * 4, "coeffs",
                       ValueError),
    "config-proposal-scale": (
        lambda v: ExperimentConfig(target="bimodal1d", orders=((3,),), seed=0, proposal_scale=v), 6.0,
        "proposal_scale", ConfigError),
}

BAD_VALUES = {
    "numeric-string": lambda good: np.asarray(good).astype(str).tolist(),
    "boolean": lambda good: np.ones_like(good, dtype=bool).tolist(),
    "json-object": lambda good: {"0": good},
    "nan": lambda good: np.where(np.arange(np.size(good)).reshape(np.shape(good)) == 0, math.nan,
                                 good).tolist(),
    "one-dimension-too-many": lambda good: [good],
}


@pytest.mark.parametrize("site", SITES)
def test_every_float_site_builds_on_numbers(site):
    build, good, _, _ = SITES[site]
    build(good)


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("site", SITES)
def test_every_float_site_refuses_what_is_not_an_array_of_finite_numbers(site, bad):
    build, good, field, error = SITES[site]
    with pytest.raises(error, match=field) as caught:
        build(BAD_VALUES[bad](good))
    if error is ValueError:
        assert not isinstance(caught.value, TransformError)


def test_as_floats_pads_in_front_and_returns_a_new_array():
    assert as_floats(3, "x", 0).shape == ()
    assert as_floats(3, "x", 1).tolist() == np.atleast_1d(3.0).tolist()
    assert as_floats([1, 2], "x", 2).shape == np.atleast_2d([1.0, 2.0]).shape == (1, 2)
    source = np.arange(3.0)
    out = as_floats(source, "x", 1)
    assert out.dtype == float and out is not source and not np.shares_memory(out, source)


def test_as_floats_refuses_a_ragged_list_with_the_callers_error():
    with pytest.raises(TransformError, match="chol must be a matrix of numbers"):
        as_floats([[1.0], [0.5, 1.0]], "chol", 2, TransformError)
