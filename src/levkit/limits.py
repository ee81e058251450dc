"""Projected exclusion and sensitivity curves for each physics case.

Conventions:

* ``min_detectable_force`` is amplitude SNR = 1; every projection here
  multiplies by the plan's ``significance`` (default 1, matching the
  background-free convention of the projections being modelled).
* Dark-matter rates use natural units internally (energies and momenta in
  eV, speeds in units of c) and convert at the boundary.
* The zero-background Poisson exclusion criterion is a fixed 3.0 expected
  events (~95% CL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .quantities import (
    C_LIGHT,
    Dimension,
    DomainError,
    E_CHARGE,
    EV,
    PLANCK_H,
    Quantity,
    convert_range_to_mediator_mass,
)
from .sensor import (
    NoiseModel,
    Sphere,
    TrapState,
    induced_dipole,
    min_detectable_force,
)
from .newforces import (
    CouplingKind,
    FingerArray,
    FluidCapillary,
    PlaneSlab,
    YukawaCoupling,
    capacitor_leakage_field,
    check_source_reach,
    yukawa_force_modulated,
    yukawa_force_plane,
)
from .writer import write_csv

CURVE_SCHEMA = "levkit-curve/2"
POISSON_LIMIT_COUNTS = 3.0   # expected events for a zero-background ~95% CL
HBARC_EV_CM = 1.973269804e-5  # hbar c in eV cm, for natural-unit cross sections
SECONDS_PER_DAY = 86400.0
_N_VELOCITY = 4000            # halo speed samples in the DM rate's trapezoid rule


@dataclass(frozen=True)
class Capacitor:
    """Shielded parallel-plate source for the Coulomb-law test."""

    voltage: float        # V
    plate_spacing: float  # m
    standoff: float       # m, sphere to outer (grounded) plate

    def __post_init__(self):
        if min(self.voltage, self.plate_spacing, self.standoff) <= 0.0:
            raise DomainError("capacitor voltage, spacing, and standoff must be positive")


@dataclass(frozen=True)
class HaloModel:
    """Truncated Maxwellian dark-matter halo, boosted to the Earth frame.

    Defaults: local density 0.3 GeV/cm^3, v0 220 km/s, escape 550 km/s,
    Earth speed 230 km/s.  An output's config echo records the halo only when
    the config has a ``halo`` section; otherwise these are the defaults of
    the recorded ``levkit_version``.
    """

    density_gev_cm3: float = 0.3
    v0: float = 220e3       # m/s
    v_escape: float = 550e3  # m/s
    v_earth: float = 230e3  # m/s

    def __post_init__(self):
        if not all(x > 0.0 for x in (self.density_gev_cm3, self.v0, self.v_escape,
                                     self.v_earth)):
            raise DomainError("halo density and speeds must be positive")
        if not math.isfinite(self.v0 * self.v0 * self.v0):
            raise DomainError(f"halo.v0 {self.v0!r} m/s: the speed distribution's "
                              "normalization overflows")

    def speed_pdf(self, v: np.ndarray) -> np.ndarray:
        """Earth-frame speed distribution, normalized to unit integral. v in m/s."""
        v = np.asarray(v, dtype=float)
        v0 = self.v0
        vesc = self.v_escape
        ve = self.v_earth
        z = vesc / v0
        n0 = math.pi**1.5 * v0**3 * (math.erf(z) - 2.0 * z / math.sqrt(math.pi) * math.exp(-z * z))
        f_low = np.exp(-((v - ve) ** 2) / v0**2) - np.exp(-((v + ve) ** 2) / v0**2)
        f_edge = np.exp(-((v - ve) ** 2) / v0**2) - math.exp(-z * z)
        out = np.zeros_like(v)
        low = v < (vesc - ve)
        edge = (v >= (vesc - ve)) & (v < (vesc + ve))
        out[low] = f_low[low]
        out[edge] = f_edge[edge]
        return out * math.pi * v * v0**2 / (n0 * ve)

    @property
    def v_max(self) -> float:
        return self.v_escape + self.v_earth


@dataclass(frozen=True)
class SearchPlan:
    """Everything a projection needs: sensor, noise, statistics, exposure."""

    sphere: Sphere
    trap: TrapState
    noise: NoiseModel
    integration_time: float                 # s
    geometry: object = None                 # AttractorGeometry for force-law cases
    significance: float = 1.0               # sigma; 1 = background-free convention
    array_size: int = 1
    exposure_sphere_days: float = 0.0       # per sphere; total = this * array_size
    halo: HaloModel = field(default_factory=HaloModel)

    def __post_init__(self):
        if self.integration_time <= 0.0:
            raise DomainError("integration time must be positive")
        if self.significance <= 0.0:
            raise DomainError("significance must be positive")
        if self.array_size < 1:
            raise DomainError("array size must be >= 1")
        if self.exposure_sphere_days < 0.0:
            raise DomainError("exposure must be >= 0")

    def min_force(self, significance: Optional[float] = None) -> float:
        sig = self.significance if significance is None else significance
        return sig * min_detectable_force(self.noise, self.integration_time).value


@dataclass(frozen=True)
class ExclusionCurve:
    """Sampled (abscissa, minimum-detectable-coupling) projection curve."""

    abscissa_kind: str                 # "lambda_m" | "mediator_mass_ev" | "dm_mass_ev"
    abscissa: np.ndarray
    coupling: np.ndarray
    coupling_label: str = "coupling"
    secondary_abscissa_kind: Optional[str] = None
    secondary_abscissa: Optional[np.ndarray] = None
    warnings: tuple = ()

    def __post_init__(self):
        a = np.asarray(self.abscissa, dtype=float)
        c = np.asarray(self.coupling, dtype=float)
        if a.size != c.size:
            raise DomainError("abscissa and coupling arrays must have equal length")
        if a.size and not np.all(np.diff(a) > 0.0):
            raise DomainError("abscissa must be strictly increasing")
        if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
            raise DomainError("couplings must be finite and positive")
        object.__setattr__(self, "abscissa", a)
        object.__setattr__(self, "coupling", c)
        if self.secondary_abscissa is not None:
            s = np.asarray(self.secondary_abscissa, dtype=float)
            if s.size != a.size:
                raise DomainError("secondary abscissa length mismatch")
            object.__setattr__(self, "secondary_abscissa", s)

    def to_json_dict(self) -> dict:
        doc = {
            "schema": CURVE_SCHEMA,
            "abscissa_kind": self.abscissa_kind,
            "coupling_label": self.coupling_label,
            "abscissa": list(self.abscissa),
            "coupling": list(self.coupling),
            "warnings": list(self.warnings),
        }
        if self.secondary_abscissa is not None:
            doc["secondary_abscissa_kind"] = self.secondary_abscissa_kind
            doc["secondary_abscissa"] = list(self.secondary_abscissa)
        return doc

    def to_csv(self, path, header: Optional[dict] = None):
        """'#'-headed CSV: ``header`` lines first, then the schema and warnings."""
        lines = [*(header or {}).items(), ("schema", CURVE_SCHEMA)]
        lines += [("warning", warning) for warning in self.warnings]
        columns = [self.abscissa_kind, self.coupling_label]
        arrays = [self.abscissa, self.coupling]
        if self.secondary_abscissa is not None:
            columns.insert(1, self.secondary_abscissa_kind)
            arrays.insert(1, self.secondary_abscissa)
        write_csv(path, lines, columns, [arrays])


def log_grid(start: float, stop: float, points_per_decade: int = 60) -> np.ndarray:
    """Logarithmic abscissa grid with fixed per-decade density."""
    if start <= 0.0 or stop <= start:
        raise DomainError("grid endpoints must satisfy 0 < start < stop")
    if points_per_decade < 1:
        raise DomainError(f"points_per_decade must be >= 1, got {points_per_decade}")
    if not stop / start < math.inf:
        raise DomainError(f"grid from {start!r} to {stop!r}: stop / start overflows")
    n = max(2, int(round(math.log10(stop / start) * points_per_decade)) + 1)
    return np.logspace(math.log10(start), math.log10(stop), n)


def _signal_force(plan: SearchPlan, lam: float) -> float:
    coupling = YukawaCoupling(CouplingKind.ISL_ALPHA, 1.0, lam)
    geom = plan.geometry
    if isinstance(geom, PlaneSlab):
        return yukawa_force_plane(plan.sphere, coupling, geom).value
    if isinstance(geom, (FingerArray, FluidCapillary)):
        return yukawa_force_modulated(plan.sphere, coupling, geom, harmonic=1).value
    raise DomainError("ISL projection needs an attractor geometry in the plan")


def _curve(kind: str, label: str, abscissa, coupling, kept, omitted: str,
           secondary=None) -> ExclusionCurve:
    """The curve through the kept points in increasing abscissa.

    Each point the ``kept`` mask drops adds one warning: ``omitted`` with the
    point's abscissa, as a Python float, in place of ``{}``.  ``secondary`` is
    an optional (kind, values) pair masked like the abscissa.
    """
    x = np.asarray(abscissa, dtype=float)
    order = np.argsort(x, kind="stable")
    x, kept = x[order], np.asarray(kept, dtype=bool)[order]
    if not kept.any():
        raise DomainError(f"no usable grid points: {label} is undefined at all "
                          f"{x.size} {kind} values")
    secondary_kind, secondary_values = secondary or (None, None)
    if secondary_values is not None:
        secondary_values = np.asarray(secondary_values, dtype=float)[order][kept]
    return ExclusionCurve(
        abscissa_kind=kind,
        abscissa=x[kept],
        coupling=np.asarray(coupling, dtype=float)[order][kept],
        coupling_label=label,
        secondary_abscissa_kind=secondary_kind,
        secondary_abscissa=secondary_values,
        warnings=tuple(omitted.format(float(v)) for v in x[~kept]),
    )


def isl_projection(plan: SearchPlan, lambdas: Sequence[float]) -> ExclusionCurve:
    """Minimum detectable Yukawa alpha vs range for the plan's attractor."""
    check_source_reach(plan.geometry, lambdas)
    signal = np.array([_signal_force(plan, lam) for lam in lambdas])
    kept = signal > 0.0
    return _curve("lambda_m", "alpha_min", lambdas,
                  plan.min_force() / np.where(kept, signal, np.inf), kept,
                  "zero signal force at lambda = {} m; point omitted")


def coulomb_projection(
    plan: SearchPlan, lambdas: Sequence[float], capacitor: Capacitor,
    polarizing_field: float = 0.0,
) -> ExclusionCurve:
    """Minimum detectable kinetic mixing chi vs range (and dark-photon mass).

    Couples via the sphere's net charge when present, otherwise via the
    induced dipole in ``polarizing_field`` against the leakage-field
    gradient.
    """
    if polarizing_field < 0.0:
        raise DomainError(f"polarizing field must be >= 0, got {polarizing_field!r} V/m")
    f_min = plan.min_force()
    charge = abs(plan.sphere.net_charge) * E_CHARGE
    use_dipole = charge == 0.0
    if use_dipole:
        if polarizing_field <= 0.0:
            raise DomainError("Coulomb projection needs a net charge or a polarizing field")
        dipole = induced_dipole(plan.sphere, polarizing_field).value

    chis = []
    for lam in lambdas:
        coupling = YukawaCoupling(CouplingKind.COULOMB_CHI2, 1.0, lam)
        e_per_chi2 = capacitor_leakage_field(
            capacitor.voltage, capacitor.plate_spacing, capacitor.standoff, coupling
        ).value
        if use_dipole:
            # The leakage field falls off as e^(-standoff/lambda), so its
            # gradient along the standoff is -field/lambda.
            force_per_chi2 = dipole * e_per_chi2 / lam
        else:
            force_per_chi2 = charge * e_per_chi2
        chis.append(math.sqrt(f_min / force_per_chi2) if force_per_chi2 > 0.0 else math.inf)
    mass_ev = [convert_range_to_mediator_mass(Quantity(lam, Dimension.LENGTH)).value / EV
               for lam in lambdas]
    return _curve("lambda_m", "chi_min", lambdas, chis, np.isfinite(chis),
                  "leakage force vanished at lambda = {} m; point omitted",
                  secondary=("mediator_mass_ev", mass_ev))


def millicharge_sensitivity(plan: SearchPlan, field_v_per_m: float) -> Quantity:
    """Fractional-charge sensitivity epsilon in units of e (SNR = 1)."""
    if field_v_per_m <= 0.0:
        raise DomainError("drive field must be positive")
    f_min = plan.min_force(significance=1.0)
    return Quantity(f_min / (E_CHARGE * field_v_per_m), Dimension.DIMENSIONLESS)


def neutrality_sensitivity(plan: SearchPlan, field_v_per_m: float) -> Quantity:
    """Per-nucleon bound on |q_p + q_n + q_e| from the millicharge chain."""
    eps = millicharge_sensitivity(plan, field_v_per_m).value
    return Quantity(eps / plan.sphere.nucleon_count, Dimension.DIMENSIONLESS)


def dm_rate_above_threshold(
    nucleon_count: float,
    q_min_si: float,
    dm_mass_ev: float,
    mediator_mass_ev: float = 0.0,
    alpha_n: float = 1.0,
    halo: HaloModel = HaloModel(),
) -> float:
    """Expected scattering rate (events/s per sphere) with impulse above q_min.

    Born scattering of point dark matter on the sphere's N nucleons through
    the Yukawa potential alpha_n N e^(-m_phi r) / r.  The momentum-transfer
    integral of dsigma/dq = 8 pi g^2 q / (v^2 (q^2 + mu^2)^2) from q_min to
    the kinematic maximum 2 m_x v is analytic:

        sigma(>q_min) = (4 pi g^2 / v^2) [1/(q_min^2+mu^2) - 1/(4 p^2+mu^2)]

    and is averaged over the halo speed distribution numerically.
    """
    if q_min_si <= 0.0:
        raise DomainError("impulse threshold must be positive")
    if dm_mass_ev <= 0.0:
        raise DomainError("dark-matter mass must be positive")
    if mediator_mass_ev < 0.0:
        raise DomainError(f"mediator mass must be >= 0, got {mediator_mass_ev!r} eV")
    if not math.isfinite(mediator_mass_ev * mediator_mass_ev):
        raise DomainError(f"plan.mediator_mass {mediator_mass_ev!r} eV: its square overflows")
    g = alpha_n * nucleon_count
    q_min = q_min_si * C_LIGHT / EV          # eV (natural units)
    if not math.isfinite(q_min * q_min):
        raise DomainError(f"plan.q_min {q_min_si!r} kg*m/s: its square in eV overflows")
    mu = mediator_mass_ev

    v = np.linspace(1e-9, halo.v_max, _N_VELOCITY) / C_LIGHT  # units of c
    pdf = halo.speed_pdf(v * C_LIGHT) * C_LIGHT              # per unit (v/c)
    p = dm_mass_ev * v
    bracket = 1.0 / (q_min**2 + mu**2) - 1.0 / (4.0 * p**2 + mu**2)
    bracket = np.where(2.0 * p > q_min, bracket, 0.0)
    sigma_ev = 4.0 * math.pi * g**2 / v**2 * bracket          # eV^-2
    sigma_cm2 = sigma_ev * HBARC_EV_CM**2

    n_dm = halo.density_gev_cm3 * 1e9 / dm_mass_ev            # cm^-3
    integrand = pdf * v * sigma_cm2
    flux_avg = np.trapezoid(integrand, v) * C_LIGHT * 100.0   # cm/s * cm^2
    return n_dm * flux_avg                                    # 1/s


def dm_alpha_limit(
    plan: SearchPlan,
    q_min_si: float,
    dm_mass_ev: float,
    mediator_mass_ev: float = 0.0,
) -> float:
    """alpha_n excluded at 3.0 expected events over the plan's exposure."""
    if plan.exposure_sphere_days <= 0.0:
        raise DomainError("DM projection needs a positive exposure")
    exposure_s = plan.exposure_sphere_days * plan.array_size * SECONDS_PER_DAY
    rate_unit = dm_rate_above_threshold(
        plan.sphere.nucleon_count, q_min_si, dm_mass_ev,
        mediator_mass_ev=mediator_mass_ev, alpha_n=1.0, halo=plan.halo,
    )
    counts_unit = rate_unit * exposure_s
    if counts_unit <= 0.0:
        return math.inf
    return math.sqrt(POISSON_LIMIT_COUNTS / counts_unit)


def dm_projection(
    plan: SearchPlan,
    dm_masses_ev: Sequence[float],
    q_min: Quantity,
    mediator_mass_ev: float = 0.0,
) -> ExclusionCurve:
    """alpha_n exclusion vs dark-matter mass for an impulse threshold q_min."""
    if q_min.dimension is not Dimension.MOMENTUM:
        raise DomainError("q_min must be a Quantity[momentum]")
    limits = [dm_alpha_limit(plan, q_min.value, m, mediator_mass_ev) for m in dm_masses_ev]
    return _curve("dm_mass_ev", "alpha_n_limit", dm_masses_ev, limits, np.isfinite(limits),
                  "threshold above kinematic maximum at dm_mass_ev = {}; point censored")


AXION_MASS_SCALE_EV = 5.7e-3    # m_a at f_a = 1e9 GeV
AXION_FA_REFERENCE_GEV = 1e9


def axion_gw_line(f_a_gev: float):
    """QCD-axion mass and annihilation GW line frequency for decay constant f_a.

    m_a = 5.7 meV (1e9 GeV / f_a); the annihilation signal sits at twice the
    axion mass, f_gw = 2 m_a c^2 / h.
    """
    if not (math.isfinite(f_a_gev) and f_a_gev > 0.0):
        raise DomainError(f"axion decay constant must be finite and positive, got {f_a_gev!r}")
    m_a_ev = AXION_MASS_SCALE_EV * (AXION_FA_REFERENCE_GEV / f_a_gev)
    f_gw_hz = 2.0 * m_a_ev * EV / PLANCK_H
    return m_a_ev, f_gw_hz


def axion_decay_constant_for_line(f_gw_hz: float) -> float:
    """Inverse of axion_gw_line: f_a (GeV) producing a given GW line frequency."""
    if not (math.isfinite(f_gw_hz) and f_gw_hz > 0.0):
        raise DomainError(f"GW frequency must be finite and positive, got {f_gw_hz!r}")
    m_a_ev = f_gw_hz * PLANCK_H / (2.0 * EV)
    return AXION_FA_REFERENCE_GEV * AXION_MASS_SCALE_EV / m_a_ev
