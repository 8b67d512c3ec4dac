import math

import numpy as np
import pytest

from ofevi import (
    FOURIER,
    HERMITE,
    LAGUERRE,
    LEGENDRE,
    BasisFamily,
    ProductBasis,
    basis_tables,
)
from ofevi.estimator import feature_vectors
from ofevi.product_basis import _combine

from oracles import eval_product, fd_gradient, gauss_panels, grad_product


def test_feature_rows_are_in_numpy_c_order():
    # Row np.ravel_multi_index(m, orders) of the features is the product of
    # row m_d of each dimension's table (0-based, last dimension fastest).
    b = ProductBasis([BasisFamily(HERMITE), BasisFamily(LEGENDRE)], (3, 4))
    z = np.array([[0.5, 0.2], [-1.0, -0.7]])
    feats = b.feature_matrix(z)
    vals = [basis_tables(f, k, z[:, d]) for d, (f, k) in enumerate(zip(b.families, b.orders))]
    for m in np.ndindex(*b.orders):
        row = np.ravel_multi_index(m, b.orders)
        assert np.array_equal(feats[row], vals[0][m[0]] * vals[1][m[1]])


def test_constructor_validation():
    with pytest.raises(ValueError):
        ProductBasis([BasisFamily(HERMITE)], (2, 2))
    with pytest.raises(ValueError):
        ProductBasis([], ())


def test_uniform_constructor():
    b = ProductBasis.uniform(BasisFamily(HERMITE), 5, 3)
    assert b.dim == 3 and b.orders == (5, 5, 5) and b.size == 125


def test_product_value_is_product_of_factors():
    b = ProductBasis([BasisFamily(HERMITE)] * 2, (2, 2))
    val = eval_product(b, 0, [0.0, 0.0])
    assert val == pytest.approx((2.0 * math.pi) ** (-0.5), rel=1e-14)

    rng = np.random.default_rng(3)
    fam = BasisFamily(HERMITE)
    b3 = ProductBasis([fam] * 3, (4, 3, 5))
    for _ in range(20):
        m = tuple(int(rng.integers(0, k)) for k in b3.orders)
        z = rng.normal(size=3)
        factors = (basis_tables(fam, k, [zd])[md, 0] for md, k, zd in zip(m, b3.orders, z))
        row = np.ravel_multi_index(m, b3.orders)
        assert eval_product(b3, row, z) == pytest.approx(math.prod(factors), rel=1e-13)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    b = ProductBasis([BasisFamily(HERMITE)] * 2, (4, 4))
    for _ in range(30):
        i = int(rng.integers(0, b.size))
        z = rng.normal(size=2)
        fd = fd_gradient(lambda x: eval_product(b, i, x), z)
        assert np.allclose(grad_product(b, i, z), fd, rtol=1e-6, atol=1e-8)


def test_one_dimensional_product_reduces_to_family():
    b = ProductBasis([BasisFamily(HERMITE)], (6,))
    z = np.array([[0.4], [-1.3]])
    feats = b.feature_matrix(z)
    vals = basis_tables(BasisFamily(HERMITE), 6, [0.4])
    assert np.array_equal(feats[:, 0], vals[:, 0])


def test_feature_matrix_and_gradients_agree_with_scalar_api():
    b = ProductBasis([BasisFamily(HERMITE), BasisFamily(LEGENDRE)], (3, 2))
    z = np.array([[0.5, 0.2], [-1.0, -0.7]])
    feats, grads = b.feature_gradients(z)
    assert feats.shape == (6, 2) and grads.shape == (6, 2, 2)
    for i in range(6):
        for n in range(2):
            assert feats[i, n] == pytest.approx(eval_product(b, i, z[n]), rel=1e-14)
            assert np.allclose(grads[i, n], grad_product(b, i, z[n]), rtol=1e-14)


def test_two_dimensional_orthonormality():
    b = ProductBasis([BasisFamily(HERMITE)] * 2, (3, 3))
    nodes, weights = gauss_panels(-10.0, 10.0, panels=30, order=20)
    zz = np.array([[x, y] for x in nodes for y in nodes])
    ww = np.array([wx * wy for wx in weights for wy in weights])
    feats = b.feature_matrix(zz)
    gram = (feats * ww) @ feats.T
    assert np.max(np.abs(gram - np.eye(9))) < 1e-7


def test_tables_shape_validation():
    # The one shape check, `as_batch`: a (D,) point is refused with its message.
    b = ProductBasis([BasisFamily(HERMITE)] * 2, (2, 2))
    for bad in (np.zeros(2), np.zeros(4), np.zeros((5, 3))):
        with pytest.raises(ValueError, match=r"expected a batch of shape \(n, 2\)"):
            b.tables(bad)


# Points inside each family's support, away from its edges.
SPANS = {HERMITE: (-3.0, 3.0), LEGENDRE: (-0.9, 0.9), FOURIER: (0.1, 6.1), LAGUERRE: (0.1, 9.0)}


@pytest.mark.parametrize(
    "kinds, orders",
    [
        ((HERMITE,), (7,)),
        ((HERMITE, HERMITE), (4, 5)),
        ((HERMITE, LEGENDRE, FOURIER), (3, 4, 5)),
        ((LAGUERRE, LAGUERRE), (5, 3)),
    ],
    ids=["hermite-1d", "hermite-2d", "hermite-legendre-fourier", "laguerre-2d"],
)
def test_feature_gradients_are_the_fit_features_at_zero_score(kinds, orders):
    # The fit builds u = 2 grad Phi - Phi s; at s = 0 that is twice the
    # gradient, and halving it is exact.
    basis = ProductBasis([BasisFamily(k) for k in kinds], orders)
    rng = np.random.default_rng(40)
    z = np.column_stack([rng.uniform(*SPANS[k], size=33) for k in kinds])
    feats, grads = basis.feature_gradients(z)
    assert feats.shape == (basis.size, 33) and grads.shape == (basis.size, 33, basis.dim)
    assert np.array_equal(grads, feature_vectors(basis, z, np.zeros_like(z)) / 2)
    assert np.array_equal(basis.feature_matrix(z), feats)


def test_combine_writes_a_single_table_bit_for_bit():
    # The product starts from a row of ones, and 1.0 * x is x: signed zeros,
    # infinities, NaN and subnormals included.
    table = basis_tables(BasisFamily(HERMITE), 5, np.linspace(-2.0, 2.0, 7))
    table[0, :5] = [-0.0, math.inf, -math.inf, math.nan, 5e-324]
    out = np.empty((1,) + table.shape)
    _combine([table], out)
    assert out[0].tobytes() == table.tobytes()
