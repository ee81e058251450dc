import math

import numpy as np
import pytest

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


def test_nonfinite_value_rejected():
    with pytest.raises(DomainError):
        Quantity(float("nan"), Dimension.MASS)
    with pytest.raises(DomainError):
        Quantity(float("inf"), Dimension.MASS)


def test_nonfinite_message_prints_a_python_float():
    with pytest.raises(DomainError) as err:
        Quantity(np.float64("nan"), Dimension.FORCE)
    assert str(err.value) == "non-finite quantity value: nan"


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
