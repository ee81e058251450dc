"""Yukawa-type new-force signals for extended source geometries.

All geometry results exploit the mean-value property of the screened
Poisson equation: the Yukawa interaction of a uniform sphere with any
external source equals the point-mass interaction evaluated at the sphere
center multiplied by the form factor Phi(R/lambda).  The brute-force
volume-quadrature oracles in :mod:`levkit.oracles` validate that chain.

Sign convention: all forces are returned as magnitudes of the new-force
(Yukawa-only) component, linear in the coupling strength.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
# scipy.special is imported inside the function that uses it: at module level
# it is most of the import time of every command.

from .quantities import (
    Dimension,
    DomainError,
    G_NEWTON,
    HBAR_C,
    Quantity,
)
from .sensor import Sphere

# Attractor material densities (kg/m^3).  Config-level constants:
# Au and Si are standard handbook values; the fluid pair follows the
# attractor design using a polytungstate salt solution (~3 g/cm^3)
# alternating with mineral oil (~0.8 g/cm^3).
DENSITY_GOLD = 19300.0
DENSITY_SILICON = 2330.0
DENSITY_POLYTUNGSTATE = 3000.0
DENSITY_MINERAL_OIL = 800.0


class GeometryError(ValueError):
    """Overlapping or otherwise impossible source geometry."""


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the error estimate."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(message)
        self.error_estimate = error_estimate


class CouplingKind(enum.Enum):
    ISL_ALPHA = "ISL_alpha"
    COULOMB_CHI2 = "Coulomb_chi2"
    DM_ALPHA_N = "DM_alpha_n"


@dataclass(frozen=True)
class YukawaCoupling:
    kind: CouplingKind
    strength: float
    range_m: float    # lambda

    def __post_init__(self):
        if self.range_m <= 0.0:
            raise DomainError("Yukawa range must be positive")
        if not math.isfinite(self.strength):
            raise DomainError("coupling strength must be finite")
        if self.kind is not CouplingKind.ISL_ALPHA and self.strength < 0.0:
            raise DomainError(f"{self.kind.value} coupling must be >= 0")


def _require_kind(coupling: YukawaCoupling, kind: CouplingKind):
    if coupling.kind is not kind:
        raise DomainError(f"expected {kind.value} coupling, got {coupling.kind.value}")


@dataclass(frozen=True)
class PlaneSlab:
    """Infinite slab source: thickness t, density contrast, face gap d.

    ``distance`` is measured from the sphere center to the near face.
    """

    thickness: float          # m
    density_contrast: float   # kg/m^3
    distance: float           # m

    def __post_init__(self):
        if self.thickness <= 0.0 or self.distance <= 0.0:
            raise GeometryError("slab thickness and distance must be positive")


@dataclass(frozen=True)
class FingerArray:
    """Alternating-density finger attractor driven laterally.

    Fingers run parallel to the sphere's y axis, alternate between the two
    materials along x with equal widths, and are oscillated laterally as
    x_shift(t) = drive_amplitude * sin(2 pi f t).  ``distance`` is from the
    sphere center to the near face of the fingers.
    """

    finger_width: float        # m
    finger_depth: float        # m
    density_a: float           # kg/m^3
    density_b: float           # kg/m^3
    distance: float            # m
    drive_amplitude: float     # m
    drive_frequency: float     # Hz
    n_finger_pairs: int = 40   # pattern extent on each side of the sphere

    def __post_init__(self):
        if min(self.finger_width, self.finger_depth, self.distance,
               self.drive_amplitude, self.drive_frequency) <= 0.0:
            raise GeometryError("finger-array lengths, drive and frequency must be positive")
        if self.n_finger_pairs < 1:
            raise GeometryError("need at least one finger pair")

    @property
    def density_contrast(self) -> float:
        return self.density_a - self.density_b


@dataclass(frozen=True)
class FluidCapillary:
    """Capillary with alternating fluid droplets flowing past the sphere.

    The capillary axis runs along x at distance ``distance`` from the sphere
    center.  Droplets of the two fluids alternate with equal length; one
    full density period (2 droplet lengths) passes per modulation cycle.
    """

    inner_diameter: float       # m
    droplet_length: float       # m
    density_a: float            # kg/m^3
    density_b: float            # kg/m^3
    distance: float             # m
    modulation_frequency: float  # Hz
    n_droplet_pairs: int = 40

    def __post_init__(self):
        if min(self.inner_diameter, self.droplet_length, self.distance,
               self.modulation_frequency) <= 0.0:
            raise GeometryError("capillary dimensions and frequency must be positive")
        if self.n_droplet_pairs < 1:
            raise GeometryError("need at least one droplet pair")

    @property
    def density_contrast(self) -> float:
        return self.density_a - self.density_b

    @property
    def cross_section(self) -> float:
        return math.pi * (self.inner_diameter / 2.0) ** 2


ModulatedGeometry = Union[FingerArray, FluidCapillary]


# The largest x at which 3 (x cosh x - sinh x) is finite in double precision.
_FORM_FACTOR_MAX = 702.8235657436883


def sphere_form_factor(x) -> float:
    """Uniform-sphere Yukawa form factor Phi(x) = 3 x^-3 (x cosh x - sinh x).

    x = R / lambda.  For x < 1e-3 the series 1 + x^2/10 + x^4/280 avoids
    catastrophic cancellation.  Phi -> 1 in the point-mass limit.  Above
    x = ``_FORM_FACTOR_MAX`` the formula overflows, which is a DomainError.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("form-factor argument must be >= 0")
    if np.any(x > _FORM_FACTOR_MAX):
        raise DomainError(
            f"sphere form factor overflows at R/lambda = {float(np.max(x))!r}, "
            f"above its limit {_FORM_FACTOR_MAX!r}")
    small = x < 1e-3
    xs = np.where(small, 0.0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = 3.0 * (xs * np.cosh(xs) - np.sinh(xs)) / xs**3
    series = 1.0 + x**2 / 10.0 + x**4 / 280.0
    out = np.where(small, series, exact)
    return float(out) if out.ndim == 0 else out


@functools.cache
def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def yukawa_force_plane(sphere: Sphere, coupling: YukawaCoupling, slab: PlaneSlab) -> Quantity:
    """Yukawa-only force between a uniform sphere and an infinite slab.

    Closed form, d measured from sphere center to the near face:

        F = 2 pi G alpha drho lambda m Phi(R/lambda) e^(-d/lambda) (1 - e^(-t/lambda))

    Validated against the volume-quadrature oracle to 1e-4 relative.
    """
    _require_kind(coupling, CouplingKind.ISL_ALPHA)
    lam = coupling.range_m
    if slab.distance <= sphere.radius:
        raise GeometryError("sphere overlaps the slab face")
    force = (
        2.0 * math.pi * G_NEWTON * coupling.strength * slab.density_contrast
        * lam * sphere.mass * sphere_form_factor(sphere.radius / lam)
        * math.exp(-slab.distance / lam) * -math.expm1(-slab.thickness / lam)
    )
    return Quantity(force, Dimension.FORCE)


# Relative Yukawa suppression at which source regions are dropped: e^-45.
_RANGE_CUTOFF = 45.0


def _strip_nodes(width: float, n_pairs: int, distance: float, lam: float,
                 shifts: np.ndarray, n_per_panel: int):
    """Lateral quadrature nodes and weights over the dense strips.

    The dense strips are [2 k w, (2 k + 1) w] for -n_pairs <= k < n_pairs.
    Each is cut to the lateral reach at which the distance from a point
    ``distance`` away exceeds the e^-45 suppression radius, widened by the
    largest pattern shift, and split into panels no wider than 5 lambda.
    The Gauss rule is mapped onto every panel at once; nodes run in strip,
    panel and node order.
    """
    cut = _RANGE_CUTOFF * lam
    s_max = float(np.max(np.abs(shifts))) if shifts.size else 0.0
    x_cut = math.sqrt((distance + cut) ** 2 - distance**2) + s_max
    edges = []
    for k in range(-n_pairs, n_pairs):
        x0 = 2.0 * k * width
        lo = max(x0, -x_cut)
        hi = min(x0 + width, x_cut)
        if lo < hi:
            edges.append(np.linspace(lo, hi, max(1, math.ceil((hi - lo) / (5.0 * lam))) + 1))
    left = np.concatenate([e[:-1] for e in edges])
    half = 0.5 * (np.concatenate([e[1:] for e in edges]) - left)[:, None]
    x, w = _legendre_rule(n_per_panel)
    return (left[:, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def _finger_point_force(geom: FingerArray, lam: float, shifts: np.ndarray,
                        n_per_panel: int) -> np.ndarray:
    """Normal force per (G alpha drho m) on a point at the sphere center.

    Fingers are infinite along y, so each area element acts as a line mass
    with Yukawa line kernel 2 K1(b/lambda) / (lambda b), b = sqrt(dx^2 + z^2),
    whose normal component is 2 z K1(b/lambda) / (lambda b) = -2 d/dz K0(b/lambda)
    because K0' = -K1 (DLMF 10.29.3).  The depth integral from the near face
    z = d to z_top = d + min(depth, 45 lambda) is therefore exact:

        2 [K0(sqrt(dx^2 + d^2)/lambda) - K0(sqrt(dx^2 + z_top^2)/lambda)]

    and only the lateral (x) integral is done by quadrature.  Returns one
    value per lateral pattern shift.
    """
    from scipy.special import k0

    d = geom.distance
    x_nodes, x_weights = _strip_nodes(geom.finger_width, geom.n_finger_pairs, d, lam,
                                      shifts, n_per_panel)
    z_top = d + min(geom.finger_depth, _RANGE_CUTOFF * lam)
    dx2 = (x_nodes[None, :] + shifts[:, None]) ** 2
    kern = 2.0 * (k0(np.sqrt(dx2 + d**2) / lam) - k0(np.sqrt(dx2 + z_top**2) / lam))
    return kern @ x_weights


def _capillary_point_force(geom: FluidCapillary, lam: float, shifts: np.ndarray,
                           n_per_panel: int) -> np.ndarray:
    """Axial-distance force per (G alpha drho m) at the sphere center.

    Thin-capillary model: the fluid column is a line mass of linear density
    drho * cross_section; only the dense-fluid droplets carry the contrast.
    """
    d = geom.distance
    x_nodes, x_weights = _strip_nodes(geom.droplet_length, geom.n_droplet_pairs, d, lam,
                                      shifts, n_per_panel)
    dx = x_nodes[None, :] + shifts[:, None]
    r = np.sqrt(dx**2 + d**2)
    kern = geom.cross_section * (d / r) * (1.0 / r**2 + 1.0 / (lam * r)) * np.exp(-r / lam)
    return kern @ x_weights


def _point_kernel(sphere: Sphere, geom, phases: np.ndarray):
    """The point-force kernel of a modulated geometry and its pattern shifts.

    Raises GeometryError if the sphere reaches the attractor and DomainError
    for a geometry that is not modulated.
    """
    if geom.distance <= sphere.radius:
        raise GeometryError("sphere overlaps the attractor")
    if isinstance(geom, FingerArray):
        return _finger_point_force, geom.drive_amplitude * np.sin(2.0 * math.pi * phases)
    if isinstance(geom, FluidCapillary):
        return _capillary_point_force, 2.0 * geom.droplet_length * phases
    raise DomainError(f"unsupported modulated geometry: {type(geom).__name__}")


def _prefactor(sphere: Sphere, coupling: YukawaCoupling, geom: ModulatedGeometry) -> float:
    """G alpha drho m Phi(R/lambda): scales a point force to the sphere's force."""
    return (
        G_NEWTON * coupling.strength * geom.density_contrast * sphere.mass
        * sphere_form_factor(sphere.radius / coupling.range_m)
    )


def _harmonic_amplitude(samples: np.ndarray, harmonic: int) -> float:
    spec = np.fft.rfft(samples)
    if harmonic >= spec.size:
        raise DomainError("harmonic beyond the phase-sampling Nyquist limit")
    return 2.0 * abs(spec[harmonic]) / samples.size


def yukawa_force_modulated(
    sphere: Sphere,
    coupling: YukawaCoupling,
    geom: ModulatedGeometry,
    harmonic: int = 1,
    n_phase: int = 64,
) -> Quantity:
    """Fourier amplitude of the Yukawa force at a harmonic of the drive.

    The force waveform over one drive period is evaluated by quadrature at
    >= 64 phase samples; the quadrature is refined once and a relative
    error estimate above 1e-3 raises QuadratureError.
    """
    _require_kind(coupling, CouplingKind.ISL_ALPHA)
    if harmonic < 1:
        raise DomainError("harmonic index must be >= 1")
    if n_phase < 64:
        raise DomainError("need at least 64 phase samples")
    lam = coupling.range_m
    kernel, shifts = _point_kernel(sphere, geom, np.arange(n_phase) / n_phase)
    coarse = kernel(geom, lam, shifts, n_per_panel=8)
    fine = kernel(geom, lam, shifts, n_per_panel=16)

    prefactor = _prefactor(sphere, coupling, geom)
    amp_fine = prefactor * _harmonic_amplitude(fine, harmonic)
    amp_coarse = prefactor * _harmonic_amplitude(coarse, harmonic)
    scale = max(abs(amp_fine), abs(prefactor) * float(np.max(np.abs(fine)) + 1e-300))
    err = abs(amp_fine - amp_coarse) / scale if scale > 0.0 else 0.0
    if err > 1e-3:
        raise QuadratureError(
            f"modulated-force quadrature not converged: relative error estimate {err:.2e}",
            error_estimate=err,
        )
    return Quantity(amp_fine, Dimension.FORCE)


def capacitor_leakage_field(
    plate_voltage: float, plate_spacing: float, standoff: float, coupling: YukawaCoupling
) -> Quantity:
    """Massive-mode field leaking past an ideal shielded capacitor.

    1-D two-plate model with surface charges +-eps0 V / s at z = 0 and z = s;
    at z = s + d the massless solution cancels exactly and the massive mode
    leaves E = chi^2 (V / 2s) (e^(-d/lambda) - e^(-(d+s)/lambda)).
    """
    _require_kind(coupling, CouplingKind.COULOMB_CHI2)
    if min(plate_voltage, plate_spacing, standoff) <= 0.0:
        raise DomainError("plate voltage, spacing, and standoff must be positive")
    lam = coupling.range_m
    field = (
        coupling.strength * plate_voltage / (2.0 * plate_spacing)
        * (math.exp(-standoff / lam) - math.exp(-(standoff + plate_spacing) / lam))
    )
    return Quantity(field, Dimension.ELECTRIC_FIELD)


def dm_yukawa_point_potential(coupling: YukawaCoupling, nucleon_count: float, r: float) -> Quantity:
    """Long-range DM-nucleon potential alpha_n N (hbar c / r) e^(-r/lambda), joules.

    alpha_n is dimensionless in the natural-unit convention; hbar c supplies
    the SI normalization.
    """
    _require_kind(coupling, CouplingKind.DM_ALPHA_N)
    if r <= 0.0:
        raise DomainError("separation must be positive")
    val = coupling.strength * nucleon_count * HBAR_C / r * math.exp(-r / coupling.range_m)
    return Quantity(val, Dimension.ENERGY)


@dataclass(frozen=True)
class CasimirEstimate:
    force: Quantity      # magnitude, N
    pfa_valid: bool      # proximity-force approximation requires d << R


def casimir_background_sphere_plane(sphere: Sphere, gap: float) -> CasimirEstimate:
    """Perfect-conductor PFA sphere-plane Casimir force magnitude.

    |F| = pi^3 hbar c R / (360 d^3).  Order-of-magnitude background estimate
    only; the validity flag is cleared (not an error) when d << R fails.
    """
    if gap <= 0.0:
        raise DomainError("gap must be positive")
    force = math.pi**3 * HBAR_C * sphere.radius / (360.0 * gap**3)
    return CasimirEstimate(
        force=Quantity(force, Dimension.FORCE),
        pfa_valid=gap < 0.1 * sphere.radius,
    )
