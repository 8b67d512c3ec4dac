import numpy as np
import pytest

import ofevi
from ofevi import (
    HERMITE,
    BasisFamily,
    Gaussian,
    IsotropicGaussian,
    OfeDensity,
    ProductBasis,
    StandardizedTarget,
    StandardizingTransform,
    UniformBox,
    funnel_2d,
    mixture_2d,
    sinh_arcsinh_2d,
)

# Thin wrappers that were removed: each restated a primitive that stays
# (`BasisFamily`, `basis_tables`, numpy's C-order flat index, the transform
# constructor, the target itself, the harness's own evaluation).
REMOVED = {
    ofevi: ("hermite", "legendre", "fourier", "laguerre",
            "eval_basis", "eval_basis_grad", "recurrence_z_phi",
            "fisher_divergence_empirical"),
    ofevi.harness: ("fisher_divergence_empirical",),
    ofevi.basis1d: ("hermite", "legendre", "fourier", "laguerre",
                    "eval_basis", "eval_basis_grad", "recurrence_z_phi"),
    ofevi.ProductBasis: ("flatten_index", "unflatten_index"),
    ofevi.StandardizingTransform: ("identity",),
    ofevi.ScoreCache: ("log_density",),
}


def test_public_names_resolve_once_and_removed_helpers_stay_removed():
    names = ofevi.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(ofevi, n)] == []
    star = {}
    exec("from ofevi import *", star)
    assert set(names) <= set(star)
    for owner, gone in REMOVED.items():
        assert [n for n in gone if hasattr(owner, n)] == [], owner


_TRANSFORM = StandardizingTransform(np.array([0.1, -0.1]), np.array([[1.2, 0.0], [0.3, 0.8]]))
_DENSITY = OfeDensity(ProductBasis([BasisFamily(HERMITE)] * 2, (2, 2)), np.full(4, 0.5), _TRANSFORM)
POINT_EVALUATORS = [
    (owner, method)
    for owner in (Gaussian(np.zeros(2), np.eye(2)), mixture_2d(), funnel_2d(), sinh_arcsinh_2d(),
                  StandardizedTarget(mixture_2d(), _TRANSFORM))
    for method in ("log_density", "score")
] + [
    (UniformBox.centered(6.0, 2), "density"),
    (IsotropicGaussian(np.zeros(2), 9.0), "density"),
    (_TRANSFORM, "to_standard"),
    (_TRANSFORM, "from_standard"),
] + [(_DENSITY, method) for method in ("expansion", "density", "log_density", "score")]


@pytest.mark.parametrize(
    "owner, method", POINT_EVALUATORS,
    ids=[f"{type(owner).__name__}.{method}" for owner, method in POINT_EVALUATORS],
)
def test_every_evaluator_takes_an_n_by_d_batch_and_refuses_a_point(owner, method):
    evaluate = getattr(owner, method)
    point = np.array([0.3, -0.2])
    with pytest.raises(ValueError, match=r"expected a batch of shape \(n, 2\)"):
        evaluate(point)
    out = evaluate(point[None])
    assert isinstance(out, np.ndarray) and out.shape[0] == 1
