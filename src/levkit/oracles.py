"""Brute-force validation oracles for the geometry and rate calculations.

These are deliberately slow, dense-grid quadratures that share as little
machinery as possible with the production paths in :mod:`levkit.newforces`
and :mod:`levkit.limits`: sphere responses are computed by explicit volume
averaging instead of the form-factor shortcut, and the dark-matter rate is
re-estimated by Monte Carlo sampling of the halo and the momentum-transfer
spectrum.  The closed forms are treated as optimizations; these integrals
are the contract.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np
from scipy.special import k1

from .quantities import C_LIGHT, EV, G_NEWTON, DomainError
from .sensor import Sphere
from .newforces import (
    CouplingKind,
    FingerArray,
    FluidCapillary,
    PlaneSlab,
    YukawaCoupling,
)
from .limits import HBARC_EV_CM, HaloModel


@functools.cache
def _legendre(n: int):
    """numpy's Gauss-Legendre rule of order n on [-1, 1], built once per order."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped onto [a, b].

    Built here from numpy's rule, not taken from :mod:`levkit.newforces`, so
    a fault in the production node helper cannot move both sides of a check.
    """
    x, w = _legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def form_factor_oracle(x: float, n_radial: int = 200, n_polar: int = 200) -> float:
    """Phi(x) from the ratio of sphere-to-point Yukawa potentials.

    Integrates e^(-rho/lambda)/rho over the sphere volume toward an external
    field point and divides by the equal-mass point value at the center.
    """
    if x <= 0.0:
        raise DomainError("oracle needs x > 0")
    radius = 1.0
    lam = radius / x
    r0 = radius + 2.0 * lam + 0.5 * radius  # comfortably outside the sphere

    u, wu = _gauss_nodes(0.0, radius, n_radial)
    mu, wmu = _gauss_nodes(-1.0, 1.0, n_polar)
    rho = np.sqrt(r0**2 + u[:, None] ** 2 - 2.0 * r0 * u[:, None] * mu[None, :])
    integrand = np.exp(-rho / lam) / rho
    sphere_potential = 2.0 * math.pi * np.einsum(
        "i,j,ij->", wu * u**2, wmu, integrand
    )
    volume = 4.0 / 3.0 * math.pi * radius**3
    point_potential = volume * math.exp(-r0 / lam) / r0
    return float(sphere_potential / point_potential)


def _point_slab_force(h: np.ndarray, thickness: float, lam: float,
                      n_z: int = 64, n_s: int = 128) -> np.ndarray:
    """Attractive Yukawa force per unit (G drho m_pt) on points at gaps h.

    Cylindrical quadrature over the slab volume with radial cutoff; the
    exponential makes the truncation error negligible at 40 lambda.
    """
    t_eff = min(thickness, 60.0 * lam)
    s_nodes, s_w = _gauss_nodes(0.0, 40.0 * lam, n_s)
    out = np.empty_like(h)
    for i, gap in enumerate(h):
        z_nodes, z_w = _gauss_nodes(gap, gap + t_eff, n_z)
        r = np.sqrt(s_nodes[None, :] ** 2 + z_nodes[:, None] ** 2)
        kern = (
            2.0 * math.pi * s_nodes[None, :] * (z_nodes[:, None] / r)
            * (1.0 / r**2 + 1.0 / (lam * r)) * np.exp(-r / lam)
        )
        out[i] = np.einsum("z,s,zs->", z_w, s_w, kern)
    return out


def slab_force_oracle(sphere: Sphere, coupling: YukawaCoupling, slab: PlaneSlab,
                      n_axial: int = 48) -> float:
    """Sphere-slab Yukawa force by volume quadrature over both bodies."""
    if coupling.kind is not CouplingKind.ISL_ALPHA:
        raise DomainError("slab oracle expects an ISL_alpha coupling")
    lam = coupling.range_m
    radius = sphere.radius
    u, wu = _gauss_nodes(-radius, radius, n_axial)       # axial offset toward slab
    gaps = slab.distance - u
    f_point = _point_slab_force(gaps, slab.thickness, lam)
    disc = math.pi * (radius**2 - u**2)
    volume_integral = float(np.dot(wu * disc, f_point))
    return (
        G_NEWTON * coupling.strength * slab.density_contrast
        * sphere.density * volume_integral
    )


def _disc_nodes(radius: float, n_r: int, n_theta: int):
    """Quadrature for integrating chord-weighted functions over the x-z disc.

    Returns (x, z, w) such that sum w f(x, z) = integral over the sphere
    volume of f for fields independent of y (chord weight included).
    """
    r, wr = _gauss_nodes(0.0, radius, n_r)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    wt = 2.0 * math.pi / n_theta
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    x = (rr * np.cos(tt)).ravel()
    z = (rr * np.sin(tt)).ravel()
    chord = 2.0 * np.sqrt(np.maximum(radius**2 - x**2 - z**2, 0.0))
    w = (np.repeat(wr * r, n_theta) * wt) * chord
    return x, z, w


def finger_force_oracle(
    sphere: Sphere,
    coupling: YukawaCoupling,
    geom: FingerArray,
    harmonic: int = 1,
    n_phase: int = 64,
    n_r: int = 16,
    n_theta: int = 24,
    n_x: int = 12,
    n_z: int = 8,
) -> float:
    """Harmonic force amplitude by explicit sphere-volume averaging.

    The fingers are infinite along y, so each cross-section element acts as
    a line mass with kernel 2 K1(b/lambda)/(lambda b); the sphere response
    is the chord-weighted average over its x-z cross section rather than the
    form-factor shortcut used by the production path.
    """
    lam = coupling.range_m
    w = geom.finger_width
    xs, ws = [], []
    for k in range(-geom.n_finger_pairs, geom.n_finger_pairs):
        xn, xw = _gauss_nodes(2.0 * k * w, 2.0 * k * w + w, n_x)
        xs.append(xn)
        ws.append(xw)
    x_nodes = np.concatenate(xs)
    x_weights = np.concatenate(ws)
    z_nodes, z_weights = _gauss_nodes(geom.distance, geom.distance + geom.finger_depth, n_z)

    sx, sz, sw = _disc_nodes(sphere.radius, n_r, n_theta)
    phases = np.arange(n_phase) / n_phase
    shifts = geom.drive_amplitude * np.sin(2.0 * math.pi * phases)
    # sin(2 pi phi) = sin(pi - 2 pi phi): for even n_phase, phases i and
    # (n_phase/2 - i) mod n_phase share a shift, so each pair is summed once.
    index = np.arange(n_phase)
    first = np.minimum(index, (n_phase // 2 - index) % n_phase) if n_phase % 2 == 0 else index

    volume = sphere.volume
    samples = np.empty(n_phase)
    for i in np.unique(first):
        # axes: (sphere point, strip x, strip z)
        dx = x_nodes[None, :, None] + shifts[i] - sx[:, None, None]
        dz = z_nodes[None, None, :] - sz[:, None, None]
        b = np.sqrt(dx**2 + dz**2)
        kern = 2.0 * dz / (lam * b) * k1(b / lam)
        per_sphere = np.einsum("sxz,x,z->s", kern, x_weights, z_weights)
        samples[i] = np.dot(sw, per_sphere) / volume
    samples = samples[first]

    spec = np.fft.rfft(samples)
    amp = 2.0 * abs(spec[harmonic]) / n_phase
    return (
        G_NEWTON * coupling.strength * geom.density_contrast * sphere.mass * amp
    )


def _sphere_volume_nodes(radius: float, n_r: int = 10, n_mu: int = 12, n_phi: int = 12):
    """Spherical-coordinate volume quadrature nodes and weights."""
    r, wr = _gauss_nodes(0.0, radius, n_r)
    mu, wmu = _gauss_nodes(-1.0, 1.0, n_mu)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    wphi = 2.0 * math.pi / n_phi
    rr, mm, pp = np.meshgrid(r, mu, phi, indexing="ij")
    sin_t = np.sqrt(1.0 - mm**2)
    x = (rr * sin_t * np.cos(pp)).ravel()
    y = (rr * sin_t * np.sin(pp)).ravel()
    z = (rr * mm).ravel()
    w = (
        np.repeat(wr * r**2, n_mu * n_phi)
        * np.tile(np.repeat(wmu, n_phi), n_r)
        * wphi
    )
    return x, y, z, w


def capillary_force_oracle(
    sphere: Sphere,
    coupling: YukawaCoupling,
    geom: FluidCapillary,
    harmonic: int = 1,
    n_phase: int = 64,
    n_line: int = 16,
) -> float:
    """Harmonic force amplitude for the capillary by 3-D sphere quadrature."""
    lam = coupling.range_m
    length = geom.droplet_length
    xs, ws = [], []
    for k in range(-geom.n_droplet_pairs, geom.n_droplet_pairs):
        xn, xw = _gauss_nodes(2.0 * k * length, 2.0 * k * length + length, n_line)
        xs.append(xn)
        ws.append(xw)
    x_nodes = np.concatenate(xs)
    x_weights = np.concatenate(ws)

    px, py, pz, pw = _sphere_volume_nodes(sphere.radius)
    phases = np.arange(n_phase) / n_phase
    shifts = 2.0 * length * phases
    d = geom.distance

    samples = np.empty(n_phase)
    for i, shift in enumerate(shifts):
        dx = (x_nodes[None, :] + shift) - px[:, None]
        dz = d - pz[:, None]
        r = np.sqrt(dx**2 + py[:, None] ** 2 + dz**2)
        kern = (dz / r) * (1.0 / r**2 + 1.0 / (lam * r)) * np.exp(-r / lam)
        samples[i] = np.dot(pw, kern @ x_weights) / sphere.volume

    spec = np.fft.rfft(samples)
    amp = 2.0 * abs(spec[harmonic]) / n_phase
    return (
        G_NEWTON * coupling.strength * geom.density_contrast
        * geom.cross_section * sphere.mass * amp
    )


def modulated_force_oracle(sphere, coupling, geom, harmonic: int = 1) -> float:
    if isinstance(geom, FingerArray):
        return finger_force_oracle(sphere, coupling, geom, harmonic=harmonic)
    if isinstance(geom, FluidCapillary):
        return capillary_force_oracle(sphere, coupling, geom, harmonic=harmonic)
    raise DomainError(f"no oracle for geometry {type(geom).__name__}")


def mc_dm_rate(
    nucleon_count: float,
    q_min_si: float,
    dm_mass_ev: float,
    mediator_mass_ev: float = 0.0,
    alpha_n: float = 1.0,
    halo: Optional[HaloModel] = None,
    n_samples: int = 400_000,
    seed: int = 20260823,
) -> float:
    """Monte Carlo estimate of the impulse rate above threshold, events/s.

    Samples halo speeds by inverse-CDF on a dense grid and momentum
    transfers uniformly on [q_min, 2 p] with importance weights
    dsigma/dq = 8 pi g^2 q / (v^2 (q^2+mu^2)^2), giving an estimator of the
    same velocity-averaged cross section as the analytic route without
    using its integrated form.
    """
    halo = halo or HaloModel()
    rng = np.random.default_rng(seed)
    g = alpha_n * nucleon_count
    q_min = q_min_si * C_LIGHT / EV
    mu = mediator_mass_ev

    v_grid = np.linspace(1e-9, halo.v_max, 20000)
    pdf = halo.speed_pdf(v_grid)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    v = np.interp(rng.random(n_samples), cdf, v_grid) / C_LIGHT  # units of c

    p = dm_mass_ev * v
    q_max = 2.0 * p
    open_channel = q_max > q_min
    q = q_min + (q_max - q_min) * rng.random(n_samples)
    dsig_dq = 8.0 * math.pi * g**2 * q / (v**2 * (q**2 + mu**2) ** 2)
    sigma_est = np.where(open_channel, (q_max - q_min) * dsig_dq, 0.0)  # eV^-2

    n_dm = halo.density_gev_cm3 * 1e9 / dm_mass_ev
    flux_avg = float(np.mean(v * sigma_est)) * HBARC_EV_CM**2 * C_LIGHT * 100.0
    return n_dm * flux_avg


def geometry_regression_grid():
    """The fixed slab + modulated parameter grid used for oracle equivalence.

    Returns (slab_cases, modulated_cases) as lists of (sphere, coupling,
    geometry) tuples; 20+ points total.
    """
    from .newforces import (
        DENSITY_GOLD,
        DENSITY_MINERAL_OIL,
        DENSITY_POLYTUNGSTATE,
        DENSITY_SILICON,
    )

    slab_cases = []
    for radius, lam, gap_factor, thickness in [
        (0.15e-6, 1.0e-6, 0.25e-6, 20e-6),
        (0.15e-6, 0.5e-6, 0.3e-6, 10e-6),
        (2.5e-6, 1.0e-6, 3.0e-6, 20e-6),
        (2.5e-6, 5.0e-6, 3.5e-6, 50e-6),
        (2.5e-6, 10.0e-6, 4.0e-6, 30e-6),
        (5.0e-6, 2.0e-6, 6.0e-6, 10e-6),
        (5.0e-6, 10.0e-6, 7.0e-6, 100e-6),
        (10.0e-6, 5.0e-6, 12.0e-6, 40e-6),
        (10.0e-6, 20.0e-6, 15.0e-6, 100e-6),
        (1.0e-6, 3.0e-6, 1.5e-6, 3.0e-6),
        (1.0e-6, 0.3e-6, 1.2e-6, 1.0e-6),
        (2.5e-6, 2.5e-6, 2.8e-6, 2.5e-6),
    ]:
        sphere = Sphere(radius=radius)
        coupling = YukawaCoupling(CouplingKind.ISL_ALPHA, 1.0, lam)
        slab = PlaneSlab(thickness=thickness, density_contrast=DENSITY_GOLD,
                         distance=gap_factor)
        slab_cases.append((sphere, coupling, slab))

    modulated_cases = []
    finger_contrasts = DENSITY_GOLD - DENSITY_SILICON
    for radius, lam, dist, width, depth, amp in [
        (2.5e-6, 10.0e-6, 5.0e-6, 25e-6, 10e-6, 25e-6),
        (2.5e-6, 5.0e-6, 4.0e-6, 25e-6, 10e-6, 25e-6),
        (2.5e-6, 25.0e-6, 6.0e-6, 25e-6, 20e-6, 12.5e-6),
        (1.0e-6, 10.0e-6, 3.0e-6, 10e-6, 5e-6, 10e-6),
        (5.0e-6, 15.0e-6, 8.0e-6, 25e-6, 15e-6, 25e-6),
        (2.5e-6, 40.0e-6, 5.0e-6, 50e-6, 25e-6, 50e-6),
    ]:
        sphere = Sphere(radius=radius)
        coupling = YukawaCoupling(CouplingKind.ISL_ALPHA, 1.0, lam)
        geom = FingerArray(
            finger_width=width, finger_depth=depth,
            density_a=DENSITY_GOLD, density_b=DENSITY_SILICON,
            distance=dist, drive_amplitude=amp, drive_frequency=10.0,
            n_finger_pairs=12,
        )
        assert geom.density_contrast == finger_contrasts
        modulated_cases.append((sphere, coupling, geom))

    for radius, lam, dist, bore, drop in [
        (7.5e-6, 20.0e-6, 12.0e-6, 10e-6, 40e-6),
        (7.5e-6, 50.0e-6, 15.0e-6, 15e-6, 60e-6),
    ]:
        sphere = Sphere(radius=radius)
        coupling = YukawaCoupling(CouplingKind.ISL_ALPHA, 1.0, lam)
        geom = FluidCapillary(
            inner_diameter=bore, droplet_length=drop,
            density_a=DENSITY_POLYTUNGSTATE, density_b=DENSITY_MINERAL_OIL,
            distance=dist, modulation_frequency=50.0, n_droplet_pairs=12,
        )
        modulated_cases.append((sphere, coupling, geom))

    return slab_cases, modulated_cases
