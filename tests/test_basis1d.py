import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ofevi import (
    FOURIER,
    HERMITE,
    LAGUERRE,
    LEGENDRE,
    BasisFamily,
    OrderLimitError,
    SupportError,
    basis_tables,
)
from ofevi.basis1d import MAX_ORDER, derivative_matrix

from oracles import fd_derivative, gauss_panels, recurrence_tables

FAMILIES = {
    "hermite": (BasisFamily(HERMITE), (-8.0, 8.0)),
    "legendre": (BasisFamily(LEGENDRE), (-1.0, 1.0)),
    "fourier": (BasisFamily(FOURIER), (0.0, 2.0 * math.pi)),
    "laguerre": (BasisFamily(LAGUERRE), (0.0, 40.0)),
}


def test_hermite_spot_values():
    vals = basis_tables(BasisFamily(HERMITE), 2, [0.0, 1.0])
    c = (2.0 * math.pi) ** (-0.25)
    assert vals[0, 0] == pytest.approx(c, rel=1e-14)
    assert vals[0, 0] == pytest.approx(0.6316187778, abs=1e-10)
    # phi_2(z) = z * phi_1(z)
    assert vals[1, 1] == pytest.approx(c * math.exp(-0.25), rel=1e-14)
    assert vals[1, 1] == pytest.approx(0.4919052, abs=1e-7)


def test_hermite_gradient_spot_values():
    fam = BasisFamily(HERMITE)
    grads = derivative_matrix(fam, 1) @ basis_tables(fam, 2, [0.0, 2.0])
    assert grads[0, 0] == 0.0
    expected = -(2.0 * math.pi) ** (-0.25) * math.exp(-1.0)
    assert grads[0, 1] == pytest.approx(expected, rel=1e-14)
    assert grads[0, 1] == pytest.approx(-0.2324, abs=5e-5)


def test_legendre_constant_function():
    vals = basis_tables(BasisFamily(LEGENDRE), 1, [0.3])
    assert vals[0, 0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_fourier_gradient_vanishes_at_zero():
    fam = BasisFamily(FOURIER)
    grads = derivative_matrix(fam, 2) @ basis_tables(fam, 3, [0.0])
    assert grads[1, 0] == 0.0


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gradients_match_finite_differences(name):
    fam, (lo, hi) = FAMILIES[name]
    pad = 1e-3 * (hi - lo)
    z = np.random.default_rng(7).uniform(lo + pad, hi - pad, size=60)
    grads = derivative_matrix(fam, 8) @ basis_tables(fam, 9, z)
    fd = fd_derivative(lambda x: basis_tables(fam, 8, x), z)
    assert np.all(np.abs(grads - fd) <= np.maximum(1e-6 * np.abs(fd), 1e-8))


def test_hermite_three_term_recurrence():
    fam = BasisFamily(HERMITE)
    z = np.linspace(-6.0, 6.0, 41)
    vals = basis_tables(fam, 17, z)
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
    vals = basis_tables(fam, 20, nodes)
    gram = (vals * weights) @ vals.T
    assert np.max(np.abs(gram - np.eye(20))) < 1e-8


def test_high_order_hermite_stays_finite():
    fam = BasisFamily(HERMITE)
    assert np.all(np.isfinite(basis_tables(fam, 30, [8.0])))
    vals = basis_tables(fam, 65, np.array([-11.0, 11.0]))
    grads = derivative_matrix(fam, 64) @ vals
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(grads))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_order_validation(name):
    fam = FAMILIES[name][0]
    with pytest.raises(ValueError):
        basis_tables(fam, 0, [0.5])
    assert basis_tables(fam, MAX_ORDER, [0.5]).shape == (MAX_ORDER, 1)
    # The derivatives at MAX_ORDER take in the values one order up, and no more.
    assert basis_tables(fam, MAX_ORDER + 1, [0.5]).shape == (MAX_ORDER + 1, 1)
    with pytest.raises(OrderLimitError, match="exceeds MAX_ORDER=64"):
        basis_tables(fam, MAX_ORDER + 2, [0.5])
    with pytest.raises(ValueError):
        BasisFamily("chebyshev")


def test_a_family_is_only_its_kind():
    # One cap holds for every family; a family carries no order setting.
    assert MAX_ORDER == 64
    assert [f.name for f in dataclasses.fields(BasisFamily)] == ["kind"]
    with pytest.raises(TypeError):
        BasisFamily(HERMITE, 128)


@pytest.mark.parametrize(
    "name,z",
    [("legendre", 1.5), ("laguerre", -0.1), ("fourier", 7.0), ("hermite", math.inf)]
    + [(name, z) for name in sorted(FAMILIES) for z in (math.nan, -math.inf, math.inf)],
)
def test_support_validation(name, z):
    fam = FAMILIES[name][0]
    with pytest.raises(SupportError):
        basis_tables(fam, 1, [0.5, z])
    with pytest.raises(SupportError):
        fam.check_support(np.array([z]))


_OUTSIDE = {"hermite": -math.inf, "legendre": 1.5, "fourier": -0.1, "laguerre": -0.1}


@pytest.mark.parametrize("where", [0, 4096, 8191])
@pytest.mark.parametrize("bad", ["nan", "-inf", "inf", "outside"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_one_bad_point_anywhere_in_a_long_array_is_refused(name, bad, where):
    fam, (lo, hi) = FAMILIES[name]
    z = np.linspace(lo, hi, 8192)
    z[where] = _OUTSIDE[name] if bad == "outside" else float(bad)
    message = "point outside {} support [{}, {}]".format(name, *fam.support)
    with pytest.raises(SupportError) as raised:
        fam.check_support(z)
    assert str(raised.value) == message
    with pytest.raises(SupportError) as raised:
        basis_tables(fam, 3, z)
    assert str(raised.value) == message


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_an_empty_array_passes_the_support_check(name):
    fam = FAMILIES[name][0]
    fam.check_support(np.empty(0))
    assert basis_tables(fam, 3, np.empty(0)).shape == (3, 0)


@given(
    name=st.sampled_from(sorted(FAMILIES)),
    k=st.integers(min_value=1, max_value=24),
    t=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
)
def test_values_and_gradients_are_finite(name, k, t):
    fam, (lo, hi) = FAMILIES[name]
    z = lo + t * (hi - lo)
    vals = basis_tables(fam, k, [z])
    grads = derivative_matrix(fam, k) @ basis_tables(fam, k + 1, [z])
    assert vals.shape == grads.shape == (k, 1)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(grads))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_derivative_matrix_times_the_values_matches_the_recurrences(name):
    family, (lo, hi) = FAMILIES[name]
    z = np.append(np.linspace(lo, hi, 301), -0.0)
    for order in range(1, MAX_ORDER + 1):
        d = derivative_matrix(family, order)
        assert d.shape == (order, order + 1)
        vals, up = basis_tables(family, order, z), basis_tables(family, order + 1, z)
        grads = d @ up
        ref_vals, ref_grads = recurrence_tables(family, order, z)
        # Bytes, not values: the sign of each zero is pinned too.  The fit
        # reads its values off the table one order up.
        assert vals.tobytes() == ref_vals.tobytes() == up[:order].tobytes()
        row_max = np.max(np.abs(ref_grads), axis=1, keepdims=True)
        assert np.all(np.abs(grads - ref_grads) <= 1e-13 * row_max), order
