import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ofevi import (
    ProductBasis,
    eval_basis,
    hermite,
    legendre,
)

from oracles import eval_product, fd_gradient, gauss_panels, grad_product


def test_flatten_examples():
    b = ProductBasis([hermite(), hermite()], (3, 2))
    assert b.size == 6
    assert b.flatten_index((1, 1)) == 1
    assert b.flatten_index((1, 2)) == 2
    assert b.flatten_index((2, 1)) == 3
    assert b.flatten_index((3, 2)) == 6
    assert b.unflatten_index(3) == (2, 1)
    assert b.unflatten_index(6) == (3, 2)


@given(
    orders=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
    data=st.data(),
)
def test_flatten_round_trip(orders, data):
    b = ProductBasis([hermite()] * len(orders), orders)
    i = data.draw(st.integers(min_value=1, max_value=b.size))
    assert b.flatten_index(b.unflatten_index(i)) == i
    m = tuple(data.draw(st.integers(min_value=1, max_value=k)) for k in orders)
    assert b.unflatten_index(b.flatten_index(m)) == m


def test_flatten_order_is_row_major_last_fastest():
    b = ProductBasis([hermite()] * 2, (3, 4))
    flats = [b.flatten_index((m1, m2)) for m1 in range(1, 4) for m2 in range(1, 5)]
    assert flats == list(range(1, 13))


def test_index_validation():
    b = ProductBasis([hermite(), hermite()], (3, 2))
    for bad in [(0, 1), (4, 1), (1, 3)]:
        with pytest.raises(IndexError):
            b.flatten_index(bad)
    with pytest.raises(IndexError):
        b.flatten_index((1, 1, 1))
    for bad in [0, 7]:
        with pytest.raises(IndexError):
            b.unflatten_index(bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ProductBasis([hermite()], (2, 2))
    with pytest.raises(ValueError):
        ProductBasis([], ())


def test_uniform_constructor():
    b = ProductBasis.uniform(hermite(), 5, 3)
    assert b.dim == 3 and b.orders == (5, 5, 5) and b.size == 125


def test_product_value_is_product_of_factors():
    b = ProductBasis([hermite()] * 2, (2, 2))
    val = eval_product(b, b.flatten_index((1, 1)), [0.0, 0.0])
    assert val == pytest.approx((2.0 * math.pi) ** (-0.5), rel=1e-14)

    rng = np.random.default_rng(3)
    b3 = ProductBasis([hermite()] * 3, (4, 3, 5))
    for _ in range(20):
        m = tuple(int(rng.integers(1, k + 1)) for k in b3.orders)
        z = rng.normal(size=3)
        direct = math.prod(eval_basis(hermite(), md, zd) for md, zd in zip(m, z))
        assert eval_product(b3, b3.flatten_index(m), z) == pytest.approx(direct, rel=1e-13)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    b = ProductBasis([hermite()] * 2, (4, 4))
    for _ in range(30):
        i = int(rng.integers(1, b.size + 1))
        z = rng.normal(size=2)
        fd = fd_gradient(lambda x: eval_product(b, i, x), z)
        assert np.allclose(grad_product(b, i, z), fd, rtol=1e-6, atol=1e-8)


def test_one_dimensional_product_reduces_to_family():
    b = ProductBasis([hermite()], (6,))
    z = np.array([[0.4], [-1.3]])
    feats = b.feature_matrix(z)
    for k in range(1, 7):
        assert feats[k - 1, 0] == eval_basis(hermite(), k, 0.4)


def test_feature_matrix_and_gradients_agree_with_scalar_api():
    b = ProductBasis([hermite(), legendre()], (3, 2))
    z = np.array([[0.5, 0.2], [-1.0, -0.7]])
    feats, grads = b.feature_gradients(z)
    assert feats.shape == (6, 2) and grads.shape == (6, 2, 2)
    for i in range(1, 7):
        for n in range(2):
            assert feats[i - 1, n] == pytest.approx(eval_product(b, i, z[n]), rel=1e-14)
            assert np.allclose(grads[i - 1, n], grad_product(b, i, z[n]), rtol=1e-14)


def test_two_dimensional_orthonormality():
    b = ProductBasis([hermite()] * 2, (3, 3))
    nodes, weights = gauss_panels(-10.0, 10.0, panels=30, order=20)
    zz = np.array([[x, y] for x in nodes for y in nodes])
    ww = np.array([wx * wy for wx in weights for wy in weights])
    feats = b.feature_matrix(zz)
    gram = (feats * ww) @ feats.T
    assert np.max(np.abs(gram - np.eye(9))) < 1e-7


def test_tables_shape_validation():
    b = ProductBasis([hermite()] * 2, (2, 2))
    with pytest.raises(ValueError):
        b.tables(np.zeros(4))
    with pytest.raises(ValueError):
        b.tables(np.zeros((5, 3)))
