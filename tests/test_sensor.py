import math

import pytest

from levkit.quantities import AMU, HBAR, K_B, Dimension, DomainError, Quantity
from levkit.sensor import (
    NoiseModel,
    Sphere,
    TrapState,
    acceleration_asd,
    acceleration_asd_ng,
    induced_dipole,
    min_detectable_force,
    sql_force_asd,
    thermal_force_asd,
)


@pytest.fixture
def sphere_10um():
    """10 um diameter silica benchmark sphere."""
    return Sphere(radius=5e-6)


@pytest.fixture
def trap():
    return TrapState(resonant_frequency=100.0, damping_rate=20.0, temperature=300.0)


def test_sphere_mass(sphere_10um):
    expected = 4.0 / 3.0 * math.pi * (5e-6) ** 3 * 1850.0
    assert sphere_10um.mass == pytest.approx(expected, rel=1e-15)


def test_sphere_nucleon_count(sphere_10um):
    n = sphere_10um.nucleon_count
    assert n == round(sphere_10um.mass / AMU)
    # a ~1 ng sphere carries ~6e14 nucleons
    assert 1e14 < n < 1e15


def test_sphere_radius_bounds():
    with pytest.raises(DomainError):
        Sphere(radius=1e-9)
    with pytest.raises(DomainError):
        Sphere(radius=1e-3)
    Sphere(radius=10e-9)
    Sphere(radius=200e-6)


def test_sphere_invalid_material():
    with pytest.raises(DomainError):
        Sphere(radius=1e-6, density=-1.0)
    with pytest.raises(DomainError):
        Sphere(radius=1e-6, relative_permittivity=0.5)


def test_trap_effective_temperature_and_damping():
    t = TrapState(resonant_frequency=100.0, damping_rate=2.0,
                  temperature=300.0, feedback_gain=18.0)
    assert t.effective_damping == 20.0
    assert t.effective_temperature == pytest.approx(300.0 * 2.0 / 20.0)
    # T_eff * gamma_eff is the cold-damping invariant
    assert t.effective_temperature * t.effective_damping == pytest.approx(
        t.temperature * t.damping_rate
    )


def test_thermal_force_asd_formula(sphere_10um, trap):
    expected = math.sqrt(2.0 * K_B * 300.0 * sphere_10um.mass * 20.0)
    assert thermal_force_asd(sphere_10um, trap).value == pytest.approx(expected, rel=1e-15)


def test_thermal_asd_invariant_under_cold_damping(sphere_10um):
    hot = TrapState(resonant_frequency=100.0, damping_rate=20.0, temperature=300.0)
    cold = TrapState(resonant_frequency=100.0, damping_rate=20.0,
                     temperature=300.0, feedback_gain=2000.0)
    # The white thermal force drive depends on the physical bath only.
    assert thermal_force_asd(sphere_10um, hot).value == thermal_force_asd(sphere_10um, cold).value


def test_sql_equals_thermal_at_quantum_temperature(sphere_10um, trap):
    # sqrt(2 hbar m w0 g) == sqrt(2 kB T m g) at kB T = hbar w0
    t_q = HBAR * trap.omega0 / K_B
    quantum_trap = TrapState(resonant_frequency=trap.resonant_frequency,
                             damping_rate=trap.damping_rate, temperature=t_q)
    assert sql_force_asd(sphere_10um, quantum_trap).value == pytest.approx(
        thermal_force_asd(sphere_10um, quantum_trap).value, rel=1e-14
    )


def test_acceleration_benchmark(sphere_10um):
    # 1e-18 N/rtHz on a ~1 ng sphere is about 100 ng/rtHz
    asd = Quantity(1e-18, Dimension.FORCE_ASD)
    ng = acceleration_asd_ng(asd, sphere_10um)
    assert ng == pytest.approx(105.27, rel=1e-3)
    assert abs(ng - 100.0) / 100.0 < 0.10


def test_acceleration_asd_dimension_check(sphere_10um):
    with pytest.raises(DomainError):
        acceleration_asd(Quantity(1e-18, Dimension.FORCE), sphere_10um)


def test_noise_model_quadrature_sum():
    model = NoiseModel({"a": 3e-18, "b": 4e-18})
    assert model.total_asd == pytest.approx(5e-18, rel=1e-15)
    assert list(model.levels) == ["a", "b"]
    assert model == NoiseModel({"a": 3e-18, "b": 4e-18})
    assert model != NoiseModel({"a": 3e-18, "c": 4e-18})


def test_noise_model_rejects_invalid_contribution():
    for level in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="'bad'"):
            NoiseModel({"ok": 1e-18, "bad": level})


def test_min_detectable_force_scaling():
    model = NoiseModel({"tech": 1e-18})
    f1 = min_detectable_force(model, 1.0).value
    f2 = min_detectable_force(model, 100.0).value
    assert f1 == pytest.approx(1e-18)
    assert f2 == pytest.approx(1e-19)
    with pytest.raises(DomainError):
        min_detectable_force(model, 0.0)
    with pytest.raises(DomainError, match="noise floor is zero"):
        min_detectable_force(NoiseModel({"tech": 0.0}), 1.0)


def test_induced_dipole_clausius_mossotti(sphere_10um):
    p = induced_dipole(sphere_10um, 1e6)
    eps0 = 8.8541878128e-12
    expected = 4.0 * math.pi * eps0 * (5e-6) ** 3 * (3.9 - 1.0) / (3.9 + 2.0) * 1e6
    assert p.value == pytest.approx(expected, rel=1e-14)
    assert p.dimension is Dimension.DIPOLE_MOMENT
