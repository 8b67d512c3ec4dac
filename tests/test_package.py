import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ofevi
from ofevi import (
    HERMITE,
    BasisFamily,
    Gaussian,
    GaussianMixture,
    IsotropicGaussian,
    OfeDensity,
    ProductBasis,
    SinhArcsinh,
    StandardizedTarget,
    StandardizingTransform,
    UniformBox,
    funnel_2d,
    mixture_2d,
    sinh_arcsinh_2d,
)

ROOT = Path(__file__).resolve().parents[1]

# Thin wrappers that were removed: each restated a primitive that stays
# (`BasisFamily`, `basis_tables`, numpy's C-order flat index, the transform
# constructor, the target itself, the harness's own evaluation).  The
# per-family order setting went too: `basis1d.MAX_ORDER` caps every family.
# The CDF table's packed pair positions went with the pairwise table, and
# the harness's integer rule moved to `utils.as_integer`.  A CDF table
# carried its family and order, which nothing read.  The score cache went
# too: a fit on a shared batch takes the earlier fit it is handed.
# `pull_density` restated the density constructor with a transform; a
# density's `size` restated its basis's, and a CDF table's `points` its
# grid's length.  The Gram product's row split went with the Python thread
# it ran on: one SYRK at a pinned BLAS thread count does that work.  Its
# own two-thread pin (`_gram`) went when every pin came to run at two.
REMOVED = {
    ofevi: ("hermite", "legendre", "fourier", "laguerre",
            "eval_basis", "eval_basis_grad", "recurrence_z_phi",
            "fisher_divergence_empirical", "ScoreCache", "pull_density"),
    ofevi.harness: ("fisher_divergence_empirical", "_integer"),
    ofevi.estimator: ("ScoreCache", "_SPLIT", "threading", "_gram"),
    ofevi.density: ("_packed_positions", "_composite_rule", "_LOBATTO_NODES", "_LOBATTO_WEIGHTS",
                    "default_grid_spec"),
    ofevi.standardize: ("pull_density",),
    ofevi.basis1d: ("hermite", "legendre", "fourier", "laguerre",
                    "eval_basis", "eval_basis_grad", "recurrence_z_phi",
                    "DEFAULT_MAX_ORDER"),
    ofevi.BasisFamily: ("max_order",),
    ofevi.ProductBasis: ("flatten_index", "unflatten_index"),
    ofevi.StandardizingTransform: ("identity",),
    ofevi.CdfTable: ("family", "order", "points"),
    ofevi.OfeDensity: ("size",),
}


def test_public_names_resolve_once_and_removed_helpers_stay_removed():
    names = ofevi.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(ofevi, n)] == []
    star = {}
    exec("from ofevi import *", star)
    assert set(names) <= set(star)
    for owner, gone in REMOVED.items():
        # A dataclass field without a default is no class attribute.
        fields = getattr(owner, "__dataclass_fields__", {})
        assert [n for n in gone if hasattr(owner, n) or n in fields] == [], owner


def test_importing_ofevi_and_its_cli_loads_no_scipy():
    # Nor `concurrent.futures` or `multiprocessing`: ofevi starts no Python
    # thread or process, and importing `concurrent.futures` after numpy
    # takes about 7 ms more.
    script = (
        "import sys, ofevi, ofevi.cli\n"
        "slow = ('scipy.', 'concurrent.futures.', 'multiprocessing.')\n"
        "print(sorted(m for m in sys.modules if (m + '.').startswith(slow)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


_Z = np.array([[0.3, -0.2], [1.1, 0.4]])
_EYE = [[1.0, 0.0], [0.0, 1.0]]
# (constructor, its array arguments, new contents written into them afterwards, outputs)
COPIED_ARGUMENTS = {
    "OfeDensity": (
        lambda a: OfeDensity(ProductBasis([BasisFamily(HERMITE)], (3,)), a),
        [[1.0, 0.0, 0.0]], [[0.0, 3.0, 0.0]],
        lambda q: [q.coeffs, q.log_density(_Z[:, :1])],
    ),
    "StandardizingTransform": (
        StandardizingTransform, [[0.0], [[1.0]]], [[1.0], [[4.0]]],
        lambda t: [t.mean, t.chol, t.to_standard(t.from_standard([[1.0]]))],
    ),
    "Gaussian": (
        Gaussian, [[0.0, 0.0], _EYE], [[1.0, 1.0], [[4.0, 0.0], [0.0, 4.0]]],
        lambda g: [g.mean, g.cov, g.log_density(_Z), g.score(_Z)],
    ),
    "GaussianMixture": (
        lambda w: GaussianMixture(w, [[-1.0, 0.0], [1.0, 0.0]], [_EYE, _EYE]),
        [[0.3, 0.7]], [[1.0, 0.0]],
        lambda m: [m.weights, m.sample(np.random.default_rng(0), 20)],
    ),
    "SinhArcsinh": (
        lambda s, tau: SinhArcsinh(s, tau, _EYE), [[0.2, 0.0], [1.0, 0.8]], [[1.0, 1.0], [2.0, 2.0]],
        lambda t: [t.s, t.tau, t.log_density(_Z), t.score(_Z)],
    ),
    "UniformBox": (
        UniformBox, [[-1.0, -1.0], [1.0, 1.0]], [[-5.0, -5.0], [5.0, 5.0]],
        lambda b: [b.lo, b.hi, b.density(_Z), b.sample(np.random.default_rng(0), 5)],
    ),
    "IsotropicGaussian": (
        lambda mean: IsotropicGaussian(mean, 2.0), [[0.0, 0.0]], [[3.0, 3.0]],
        lambda g: [g.mean, g.density(_Z), g.sample(np.random.default_rng(0), 5)],
    ),
}


@pytest.mark.parametrize("name", COPIED_ARGUMENTS)
def test_a_constructor_keeps_its_own_copies_of_its_arrays(name):
    # Cached factors (a Cholesky inverse, log weights) would go stale if the
    # caller's array changed under them.
    make, args, edits, outputs = COPIED_ARGUMENTS[name]
    arrays = [np.array(a) for a in args]
    obj = make(*arrays)
    before = [np.copy(out) for out in outputs(obj)]
    for array, new in zip(arrays, edits):
        array[...] = new
    assert [out.tobytes() for out in outputs(obj)] == [out.tobytes() for out in before]
