import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ofevi import (
    BasisFamily,
    OrderLimitError,
    SupportError,
    basis_tables,
    eval_basis,
    eval_basis_grad,
    fourier,
    hermite,
    laguerre,
    legendre,
    recurrence_z_phi,
)

from oracles import fd_derivative, gauss_panels

FAMILIES = {
    "hermite": (hermite(), (-8.0, 8.0)),
    "legendre": (legendre(), (-1.0, 1.0)),
    "fourier": (fourier(), (0.0, 2.0 * math.pi)),
    "laguerre": (laguerre(), (0.0, 40.0)),
}


def test_hermite_spot_values():
    fam = hermite()
    c = (2.0 * math.pi) ** (-0.25)
    assert eval_basis(fam, 1, 0.0) == pytest.approx(c, rel=1e-14)
    assert eval_basis(fam, 1, 0.0) == pytest.approx(0.6316187778, abs=1e-10)
    # phi_2(z) = z * phi_1(z)
    assert eval_basis(fam, 2, 1.0) == pytest.approx(c * math.exp(-0.25), rel=1e-14)
    assert eval_basis(fam, 2, 1.0) == pytest.approx(0.4919052, abs=1e-7)


def test_hermite_gradient_spot_values():
    fam = hermite()
    assert eval_basis_grad(fam, 1, 0.0) == 0.0
    expected = -(2.0 * math.pi) ** (-0.25) * math.exp(-1.0)
    assert eval_basis_grad(fam, 1, 2.0) == pytest.approx(expected, rel=1e-14)
    assert eval_basis_grad(fam, 1, 2.0) == pytest.approx(-0.2324, abs=5e-5)


def test_legendre_constant_function():
    assert eval_basis(legendre(), 1, 0.3) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_fourier_gradient_vanishes_at_zero():
    assert eval_basis_grad(fourier(), 2, 0.0) == 0.0


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gradients_match_finite_differences(name):
    fam, (lo, hi) = FAMILIES[name]
    rng = np.random.default_rng(7)
    pad = 1e-3 * (hi - lo)
    for _ in range(60):
        k = int(rng.integers(1, 9))
        z = float(rng.uniform(lo + pad, hi - pad))
        fd = fd_derivative(lambda x: eval_basis(fam, k, x), z)
        assert eval_basis_grad(fam, k, z) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_hermite_three_term_recurrence():
    fam = hermite(max_order=20)
    z = np.linspace(-6.0, 6.0, 41)
    vals, _ = basis_tables(fam, 17, z)
    for k in range(1, 16):
        lhs = z * vals[k - 1]
        rhs = math.sqrt(k) * vals[k]
        if k > 1:
            rhs = rhs + math.sqrt(k - 1) * vals[k - 2]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_orthonormality_by_quadrature(name):
    fam, _ = FAMILIES[name]
    limits = {
        "hermite": (-30.0, 30.0, 80),
        "legendre": (-1.0, 1.0, 10),
        "fourier": (0.0, 2.0 * math.pi, 40),
        "laguerre": (0.0, 170.0, 120),
    }[name]
    nodes, weights = gauss_panels(limits[0], limits[1], panels=limits[2])
    vals, _ = basis_tables(fam, 20, nodes)
    gram = (vals * weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(20))) < 1e-8


def test_high_order_hermite_stays_finite():
    fam = hermite()
    assert np.isfinite(eval_basis(fam, 30, 8.0))
    vals, grads = basis_tables(fam, 64, np.array([-11.0, 11.0]))
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(grads))


def test_order_validation():
    fam = hermite(max_order=16)
    with pytest.raises(ValueError):
        eval_basis(fam, 0, 0.0)
    with pytest.raises(OrderLimitError):
        eval_basis(fam, 17, 0.0)
    with pytest.raises(ValueError):
        BasisFamily("hermite", max_order=0)
    with pytest.raises(ValueError):
        BasisFamily("chebyshev")


@pytest.mark.parametrize(
    "name,z",
    [("legendre", 1.5), ("laguerre", -0.1), ("fourier", 7.0), ("hermite", math.inf)],
)
def test_support_validation(name, z):
    fam = FAMILIES[name][0]
    with pytest.raises(SupportError):
        eval_basis(fam, 1, z)


def test_recurrence_z_phi_coefficients():
    fam = hermite()
    assert recurrence_z_phi(fam, 1) == ((2, 1.0), (0, 0.0))
    (up_k, up_c), (dn_k, dn_c) = recurrence_z_phi(fam, 3)
    assert (up_k, dn_k) == (4, 2)
    z = 0.7
    lhs = z * eval_basis(fam, 3, z)
    rhs = up_c * eval_basis(fam, up_k, z) + dn_c * eval_basis(fam, dn_k, z)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    with pytest.raises(NotImplementedError):
        recurrence_z_phi(legendre(), 2)


@given(
    name=st.sampled_from(sorted(FAMILIES)),
    k=st.integers(min_value=1, max_value=24),
    t=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
)
def test_values_and_gradients_are_finite(name, k, t):
    fam, (lo, hi) = FAMILIES[name]
    z = lo + t * (hi - lo)
    vals, grads = basis_tables(fam, k, [z])
    assert vals.shape == grads.shape == (k, 1)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(grads))


def test_tables_match_scalar_evaluators():
    for name in sorted(FAMILIES):
        fam, (lo, hi) = FAMILIES[name]
        z = np.linspace(lo + 0.05, hi - 0.05, 7)
        vals, grads = basis_tables(fam, 6, z)
        for k in range(1, 7):
            for i, zi in enumerate(z):
                assert vals[k - 1, i] == eval_basis(fam, k, zi)
                assert grads[k - 1, i] == eval_basis_grad(fam, k, zi)
