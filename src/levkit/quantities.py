"""Physical constants, unit conversions, and dimension-tagged scalar values.

The constants are CODATA 2018 values.  Everything internal to the library
is SI; eV-based quantities are converted at the boundary.  The dimension
system is deliberately a closed enumeration (no rational-exponent algebra):
a Quantity knows which of a fixed set of dimensions it carries, and that is
all.  It has no arithmetic: code reads ``.value`` and checks ``.dimension``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class DimensionError(TypeError):
    """A Quantity of the wrong dimension, or a tag that is not a Dimension."""


class DomainError(ValueError):
    """Physically invalid argument (non-positive mass, zero gap, ...)."""


class ComputeError(RuntimeError):
    """A computation that could not finish (exit 3)."""


class Dimension(enum.Enum):
    MASS = "mass"
    LENGTH = "length"
    TIME = "time"
    VELOCITY = "velocity"
    FREQUENCY = "frequency"
    FORCE = "force"
    CHARGE = "charge"
    ENERGY = "energy"
    TEMPERATURE = "temperature"
    ELECTRIC_FIELD = "electric-field"
    FORCE_ASD = "ASD-of-force"            # N/sqrt(Hz)
    ACCELERATION_ASD = "ASD-of-acceleration"  # (m/s^2)/sqrt(Hz)
    MOMENTUM = "momentum"
    DIPOLE_MOMENT = "dipole-moment"
    DENSITY = "mass-density"
    VOLTAGE = "voltage"
    DIMENSIONLESS = "dimensionless"


@dataclass(frozen=True)
class Quantity:
    """A finite real value tagged with one of the supported dimensions."""

    value: float
    dimension: Dimension

    def __post_init__(self):
        if not isinstance(self.dimension, Dimension):
            raise DimensionError(f"not a Dimension tag: {self.dimension!r}")
        v = float(self.value)
        if not math.isfinite(v):
            raise DomainError(f"non-finite quantity value: {v!r}")
        object.__setattr__(self, "value", v)


HBAR = 1.054571817e-34               # J s
K_B = 1.380649e-23                   # J / K
C_LIGHT = 299792458.0                # m / s, exact
G_NEWTON = 6.67430e-11               # m^3 / (kg s^2)
E_CHARGE = 1.602176634e-19           # C
EPS0 = 8.8541878128e-12              # F / m
AMU = 1.66053906660e-27              # kg
PLANCK_H = 2.0 * math.pi * HBAR      # J s
G_STANDARD = 9.80665                 # m / s^2, exact by definition

EV = E_CHARGE                        # J per eV
HBAR_C = HBAR * C_LIGHT              # J m


def convert_mediator_mass_to_range(m: Quantity) -> Quantity:
    """Compton range lambda = hbar / (m c) of a force carrier.

    ``m`` is the mediator mass expressed as an energy (m c^2, joules).
    """
    if m.dimension is not Dimension.ENERGY:
        raise DimensionError("mediator mass must be a Quantity[energy] (m c^2 in J)")
    if m.value <= 0.0:
        raise DomainError("mediator mass must be positive")
    return Quantity(HBAR_C / m.value, Dimension.LENGTH)


def convert_range_to_mediator_mass(lam: Quantity) -> Quantity:
    """Inverse of convert_mediator_mass_to_range."""
    if lam.dimension is not Dimension.LENGTH:
        raise DimensionError("range must be a Quantity[length]")
    if lam.value <= 0.0:
        raise DomainError("range must be positive")
    return Quantity(HBAR_C / lam.value, Dimension.ENERGY)
