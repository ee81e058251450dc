import math

import pytest
from hypothesis import given, strategies as st

from levkit.quantities import (
    C_LIGHT,
    Dimension,
    DimensionError,
    DomainError,
    E_CHARGE,
    EV,
    HBAR,
    HBAR_C,
    K_B,
    Quantity,
    convert_mediator_mass_to_range,
    convert_range_to_mediator_mass,
)


def test_constants_codata_values():
    assert HBAR == 1.054571817e-34
    assert K_B == 1.380649e-23
    assert C_LIGHT == 299792458.0
    assert E_CHARGE == 1.602176634e-19


def test_add_same_dimension():
    a = Quantity(1.0, Dimension.FORCE)
    b = Quantity(2.5, Dimension.FORCE)
    assert (a + b).value == 3.5
    assert (b - a).dimension is Dimension.FORCE


def test_add_mismatched_dimension_raises():
    with pytest.raises(DimensionError):
        Quantity(1.0, Dimension.FORCE) + Quantity(1.0, Dimension.LENGTH)


def test_quantity_times_quantity_raises():
    with pytest.raises(DimensionError):
        Quantity(1.0, Dimension.FORCE) * Quantity(1.0, Dimension.LENGTH)


def test_same_dimension_ratio_is_float():
    r = Quantity(6.0, Dimension.LENGTH) / Quantity(3.0, Dimension.LENGTH)
    assert isinstance(r, float)
    assert r == 2.0


def test_cross_dimension_division_raises():
    with pytest.raises(DimensionError):
        Quantity(6.0, Dimension.LENGTH) / Quantity(3.0, Dimension.TIME)


def test_scalar_multiplication():
    q = 2.0 * Quantity(3.0, Dimension.MOMENTUM)
    assert q.value == 6.0 and q.dimension is Dimension.MOMENTUM


def test_nonfinite_value_rejected():
    with pytest.raises(DomainError):
        Quantity(float("nan"), Dimension.MASS)
    with pytest.raises(DomainError):
        Quantity(float("inf"), Dimension.MASS)


def test_comparison_requires_same_dimension():
    assert Quantity(1.0, Dimension.TIME) < Quantity(2.0, Dimension.TIME)
    with pytest.raises(DimensionError):
        Quantity(1.0, Dimension.TIME) < Quantity(2.0, Dimension.MASS)


@given(
    st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
    st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
    st.sampled_from(list(Dimension)),
)
def test_addition_commutes(a, b, dim):
    qa = Quantity(a, dim)
    qb = Quantity(b, dim)
    assert (qa + qb).value == (qb + qa).value


@given(
    st.sampled_from(list(Dimension)),
    st.sampled_from(list(Dimension)),
)
def test_mixed_dimension_addition_always_raises(d1, d2):
    if d1 is d2:
        return
    with pytest.raises(DimensionError):
        Quantity(1.0, d1) + Quantity(1.0, d2)


def test_mediator_mass_to_range():
    # A 1 eV mediator has a Compton range hbar c / E ~ 197 nm.
    lam = convert_mediator_mass_to_range(Quantity(EV, Dimension.ENERGY))
    assert lam.dimension is Dimension.LENGTH
    assert lam.value == pytest.approx(HBAR_C / EV, rel=1e-15)
    assert lam.value == pytest.approx(1.9732698e-7, rel=1e-6)


def test_range_mass_round_trip():
    lam = Quantity(25e-6, Dimension.LENGTH)
    m = convert_range_to_mediator_mass(lam)
    back = convert_mediator_mass_to_range(m)
    assert back.value == pytest.approx(lam.value, rel=1e-14)


def test_mediator_conversion_dimension_checks():
    with pytest.raises(DimensionError):
        convert_mediator_mass_to_range(Quantity(1.0, Dimension.LENGTH))
    with pytest.raises(DomainError):
        convert_range_to_mediator_mass(Quantity(0.0, Dimension.LENGTH))


def test_hbar_c_consistent():
    assert HBAR_C == HBAR * C_LIGHT
    assert math.isclose(HBAR_C / EV, 1.973269804e-7, rel_tol=1e-9)
