"""Levitated-sphere sensor model: trap parameters and force-noise floors.

Spectral-density convention: ``thermal_force_asd`` and ``sql_force_asd``
return the symmetric (two-sided) density sqrt(2 kB T m gamma) and
sqrt(2 hbar m w0 gamma).  The one-sided PSD measured by the spectral
estimator in :mod:`levkit.dynamics` is twice the square of these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .quantities import (
    AMU,
    G_STANDARD,
    EPS0,
    HBAR,
    K_B,
    Dimension,
    DomainError,
    Quantity,
)

# Default material parameters for the low-density silica microspheres used
# as the benchmark sensor.  The density is a named configurable constant,
# not a law of nature: vendor values for similar spheres span roughly
# 1800-2200 kg/m^3.
SILICA_DENSITY = 1850.0       # kg/m^3
SILICA_PERMITTIVITY = 3.9

_RADIUS_MIN = 10e-9           # m
_RADIUS_MAX = 200e-6          # m


@dataclass(frozen=True)
class Sphere:
    """Uniform dielectric sphere."""

    radius: float                      # m
    density: float = SILICA_DENSITY    # kg/m^3
    relative_permittivity: float = SILICA_PERMITTIVITY
    net_charge: int = 0                # integer multiple of e
    material_label: str = "silica"

    def __post_init__(self):
        if not (_RADIUS_MIN <= self.radius <= _RADIUS_MAX):
            raise DomainError(
                f"sphere radius {self.radius} m outside [{_RADIUS_MIN}, {_RADIUS_MAX}] m"
            )
        if self.density <= 0.0:
            raise DomainError("sphere density must be positive")
        if self.relative_permittivity <= 1.0:
            raise DomainError("relative permittivity must exceed 1")
        if self.net_charge != int(self.net_charge):
            raise DomainError("net charge must be an integer multiple of e")

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * math.pi * self.radius**3

    @property
    def mass(self) -> float:
        """Sphere mass in kg."""
        return self.volume * self.density

    @property
    def nucleon_count(self) -> int:
        """Total nucleon number, mass / amu rounded to nearest integer."""
        if not math.isfinite(self.mass / AMU):
            raise DomainError(f"sphere.density {self.density!r} kg/m^3: nucleon count overflows")
        n = int(round(self.mass / AMU))
        if n <= 0:
            raise DomainError("sphere too light: nucleon count rounds to zero")
        return n


@dataclass(frozen=True)
class TrapState:
    """Harmonic trap operating point."""

    resonant_frequency: float    # f0, Hz
    damping_rate: float          # gamma, 1/s
    temperature: float           # effective COM temperature before feedback, K
    feedback_gain: float = 0.0   # additional cold-damping rate, 1/s, >= 0

    def __post_init__(self):
        if self.resonant_frequency <= 0.0:
            raise DomainError("resonant frequency must be positive")
        if self.damping_rate <= 0.0:
            raise DomainError("damping rate must be positive")
        if self.temperature <= 0.0:
            raise DomainError("temperature must be positive")
        if self.feedback_gain < 0.0:
            raise DomainError("feedback gain must be >= 0")

    @property
    def omega0(self) -> float:
        return 2.0 * math.pi * self.resonant_frequency

    @property
    def effective_damping(self) -> float:
        """gamma + g_fb: total velocity damping with cold damping active."""
        return self.damping_rate + self.feedback_gain

    @property
    def effective_temperature(self) -> float:
        """Steady-state COM temperature under ideal cold damping."""
        return self.temperature * self.damping_rate / self.effective_damping


class NoiseModel:
    """Labelled white force-noise levels (N/sqrt(Hz)), added in quadrature.

    Every contribution is the same at all frequencies, so the floor is one
    number, ``total_asd``: sqrt of the sum of the squared levels, taken in
    the order the levels were given.  Two models are equal when their levels
    are.
    """

    def __init__(self, levels: Mapping[str, float]):
        self.levels = dict(levels)
        for label, level in self.levels.items():
            if not (math.isfinite(level) and level >= 0.0):
                raise DomainError(f"noise level {label!r} must be finite and >= 0, got {level!r}")
        self.total_asd = math.sqrt(sum(v * v for v in self.levels.values()))

    def __eq__(self, other):
        return isinstance(other, NoiseModel) and self.levels == other.levels


def thermal_force_asd(sphere: Sphere, trap: TrapState) -> Quantity:
    """Thermal force noise sqrt(2 kB T m gamma) in N/sqrt(Hz).

    Invariant under ideal cold damping: T_eff * gamma_eff = T * gamma.
    """
    m = sphere.mass
    val = math.sqrt(2.0 * K_B * trap.temperature * m * trap.damping_rate)
    return Quantity(val, Dimension.FORCE_ASD)


def sql_force_asd(sphere: Sphere, trap: TrapState) -> Quantity:
    """On-resonance standard-quantum-limit force noise sqrt(2 hbar m w0 gamma)."""
    m = sphere.mass
    val = math.sqrt(2.0 * HBAR * m * trap.omega0 * trap.damping_rate)
    return Quantity(val, Dimension.FORCE_ASD)


def acceleration_asd(force_asd: Quantity, sphere: Sphere) -> Quantity:
    """Force ASD referred to acceleration, (m/s^2)/sqrt(Hz)."""
    if force_asd.dimension is not Dimension.FORCE_ASD:
        raise DomainError("acceleration_asd expects a force-ASD quantity")
    if force_asd.value < 0.0:
        raise DomainError("force ASD must be non-negative")
    return Quantity(force_asd.value / sphere.mass, Dimension.ACCELERATION_ASD)


def acceleration_asd_ng(force_asd: Quantity, sphere: Sphere) -> float:
    """Acceleration ASD in units of ng/sqrt(Hz), g = 9.80665 m/s^2 exactly."""
    return acceleration_asd(force_asd, sphere).value / G_STANDARD * 1e9


def min_detectable_force(noise: NoiseModel, integration_time: float) -> Quantity:
    """Amplitude-SNR-1 force after integrating for tau seconds: ASD / sqrt(tau).

    Significance factors are applied by the limits layer, not here.
    """
    if integration_time <= 0.0:
        raise DomainError("integration time must be positive")
    asd = noise.total_asd
    if asd == 0.0:
        raise DomainError("noise floor is zero: no sensitivity to project")
    return Quantity(asd / math.sqrt(integration_time), Dimension.FORCE)


def induced_dipole(sphere: Sphere, field: float) -> Quantity:
    """Clausius-Mossotti induced dipole p = 4 pi eps0 r^3 (er-1)/(er+2) E, C m."""
    if field < 0.0:
        raise DomainError("polarizing field must be >= 0")
    er = sphere.relative_permittivity
    p = 4.0 * math.pi * EPS0 * sphere.radius**3 * (er - 1.0) / (er + 2.0) * field
    return Quantity(p, Dimension.DIPOLE_MOMENT)
