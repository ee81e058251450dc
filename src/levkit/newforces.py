"""Yukawa-type new-force signals for extended source geometries.

All geometry results exploit the mean-value property of the screened
Poisson equation: the Yukawa interaction of a uniform sphere with any
external source equals the point-mass interaction evaluated at the sphere
center multiplied by the form factor Phi(R/lambda).  The brute-force
volume-quadrature oracles in :mod:`levkit.oracles` validate that chain.

A finger array's or a capillary's point force is a sum over its dense
strips, cut where the Yukawa suppression passes e^-45.  Where that window,
widened by the largest drive shift, lies inside the finite pattern, the
finite and the infinite pattern differ only beyond the cut, and the force
is the infinite pattern's Fourier series in closed form: each kernel solves
the modified Helmholtz equation, so its transform along the pattern is
elementary (finger) or one K1 (capillary).  Its error estimate is the last
term's share of the amplitude.  Elsewhere the lateral integral is a strip
quadrature, 16 Gauss-Legendre nodes per panel, whose error estimate is the
difference from the rule embedded in those nodes.

Sign convention: all forces are returned as magnitudes of the new-force
(Yukawa-only) component, linear in the coupling strength.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
# k0 and k1 are scipy's compiled kernels, loaded from their file by
# ``_scipy.extension`` on first use: ``scipy.special`` (66 scipy modules) is
# never imported.

from . import _scipy
from .quantities import (
    ComputeError,
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


class GeometryError(DomainError):
    """Overlapping or otherwise impossible source geometry."""


class QuadratureError(ComputeError):
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
        _check_densities(self)

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
        _check_densities(self)
        radius = self.inner_diameter / 2.0
        if not math.isfinite(math.pi * radius * radius):     # where ``** 2`` would raise
            raise GeometryError(f"geometry.inner_diameter {self.inner_diameter!r} m: "
                                "the cross section overflows")

    @property
    def density_contrast(self) -> float:
        return self.density_a - self.density_b

    @property
    def cross_section(self) -> float:
        return math.pi * (self.inner_diameter / 2.0) ** 2


def _check_densities(geom):
    """The two materials' densities: zero, an empty gap, is physical; below it is not."""
    for key in ("density_a", "density_b"):
        if getattr(geom, key) < 0.0:
            raise GeometryError(f"geometry.{key} {getattr(geom, key)!r} kg/m^3: "
                                "a material density must be >= 0")


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


# The 16-node Gauss-Legendre rule on [-1, 1] and its embedded 8-node rule, as
# repr literals: exactly the doubles that ``_legendre_rule`` documents.
_GAUSS_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_GAUSS_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
_EMBEDDED_WEIGHTS = np.array([
    0.0468161112221383, 0.0, 0.19588589325667888, 0.0,
    0.2935756467594003, 0.0, 0.3714276120758066, 0.0,
    0.37189228630543153, 0.0, 0.3461928917748294, 0.0,
    0.24048120137171036, 0.0, 0.13372835723400464, 0.0])
_GAUSS_NODES.flags.writeable = _GAUSS_WEIGHTS.flags.writeable = False
_EMBEDDED_WEIGHTS.flags.writeable = False


def _legendre_rule():
    """The 16-node Gauss-Legendre rule on [-1, 1] and the embedded rule that
    estimates its error, as in J. Berntsen and T. O. Espelid, ACM TOMS 17, 233
    (1991): the interpolatory rule on the 8 even-index nodes, exact to degree
    7 with all weights positive, and zero weight on the others.

    The three read-only arrays are constants, so that no run loads
    ``numpy.polynomial`` or ``numpy.linalg`` to derive them.  They are exactly
    the doubles of numpy 2.4.6's ``leggauss(16)`` and of the ``np.linalg.solve``
    of the 8 even nodes' ``legvander(x, 7).T`` against (2, 0, ..., 0);
    ``test_legendre_rule_is_the_derived_rule`` in tests/test_newforces.py
    derives them again and compares every bit."""
    return _GAUSS_NODES, _GAUSS_WEIGHTS, _EMBEDDED_WEIGHTS


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


def source_reach(distance: float, lam: float) -> float:
    """distance + 45 lambda, past which a modulated geometry's source is
    dropped; a DomainError naming geometry.distance where its square
    overflows."""
    reach = distance + _RANGE_CUTOFF * lam
    if not math.isfinite(float(reach) * float(reach)):
        raise DomainError(f"geometry.distance {distance!r} m: the square of its e^-45 reach "
                          f"at lambda {float(lam)!r} m overflows")
    return reach


def _lateral_cut(distance: float, lam: float, shifts: np.ndarray) -> float:
    """x_cut: the lateral reach past which the e^-45 window drops the pattern,
    where a point ``distance`` away is ``source_reach`` from the sphere
    center, widened by the largest pattern shift."""
    s_max = float(np.max(np.abs(shifts))) if shifts.size else 0.0
    reach = source_reach(distance, lam)
    return math.sqrt(reach ** 2 - distance**2) + s_max


def _strip_nodes(width: float, n_pairs: int, distance: float, lam: float, shifts: np.ndarray):
    """Lateral nodes, Gauss weights and embedded weights (``_legendre_rule``),
    in strip, panel and node order.

    The dense strips are [2 k w, (2 k + 1) w] for -n_pairs <= k < n_pairs.
    Each is cut to [-x_cut, x_cut] (``_lateral_cut``) and split into panels
    no wider than 5 lambda, all at once by ``np.linspace``'s own arithmetic
    (edge j is j step + lo, the last is hi).
    """
    x_cut = _lateral_cut(distance, lam, shifts)
    x0 = 2.0 * np.arange(-n_pairs, n_pairs) * width
    lo, hi = np.maximum(x0, -x_cut), np.minimum(x0 + width, x_cut)
    lo, hi = lo[lo < hi], hi[lo < hi]
    num = np.maximum(1, np.ceil((hi - lo) / (5.0 * lam)))
    if not num.sum() < 2.0**53:
        raise DomainError(f"geometry: strips {width!r} m wide cut at {x_cut!r} m take "
                          f"{num.sum():.3g} panels of 5 lambda at lambda {float(lam)!r} m")
    num = num.astype(int)
    s = np.repeat(np.arange(num.size), num)            # the strip of each panel
    j = np.arange(s.size) - (np.cumsum(num) - num)[s]  # its index in the strip
    step, lo, hi = ((hi - lo) / num)[s], lo[s], hi[s]
    left = (j * step + lo)[:, None]
    half = 0.5 * (np.where(j + 1 == num[s], hi, (j + 1) * step + lo)[:, None] - left)
    x, w, embedded = _legendre_rule()
    return (left + half * (x + 1.0)).ravel(), (half * w).ravel(), (half * embedded).ravel()


def _finger_point_force(geom: FingerArray, lam: float, shifts: np.ndarray):
    """Normal force per (G alpha drho m) on a point at the sphere center.

    Fingers are infinite along y, so each area element acts as a line mass
    with Yukawa line kernel 2 K1(b/lambda) / (lambda b), b = sqrt(dx^2 + z^2),
    whose normal component is 2 z K1(b/lambda) / (lambda b) = -2 d/dz K0(b/lambda)
    because K0' = -K1 (DLMF 10.29.3).  The depth integral from the near face
    z = d to z_top = d + min(depth, 45 lambda) is therefore exact:

        2 [K0(sqrt(dx^2 + d^2)/lambda) - K0(sqrt(dx^2 + z_top^2)/lambda)]

    and only the lateral (x) integral is done by quadrature.  Returns one
    value per lateral pattern shift, from the Gauss and the embedded rule.
    """
    k0 = _scipy.extension("special", "_special_ufuncs").k0
    d = geom.distance
    x_nodes, x_weights, embedded = _strip_nodes(geom.finger_width, geom.n_finger_pairs,
                                                d, lam, shifts)
    z_top = d + min(geom.finger_depth, _RANGE_CUTOFF * lam)
    # 2 (K0(sqrt(dx^2 + d^2)/lam) - K0(sqrt(dx^2 + z_top^2)/lam)) in two
    # (shifts x nodes) arrays, each step in place and in the formula's order.
    kern = np.add(x_nodes[None, :], shifts[:, None])
    np.square(kern, out=kern)
    far = np.add(kern, z_top**2)
    np.sqrt(far, out=far)
    far /= lam
    k0(far, out=far)
    kern += d**2
    np.sqrt(kern, out=kern)
    kern /= lam
    k0(kern, out=kern)
    kern -= far
    kern *= 2.0
    return kern @ x_weights, kern @ embedded


def _capillary_point_force(geom: FluidCapillary, lam: float, shifts: np.ndarray):
    """Both rules' axial-distance force per (G alpha drho m) at the sphere center.

    Thin-capillary model: the fluid column is a line mass of linear density
    drho * cross_section; only the dense-fluid droplets carry the contrast.
    """
    d = geom.distance
    x_nodes, x_weights, embedded = _strip_nodes(geom.droplet_length, geom.n_droplet_pairs,
                                                d, lam, shifts)
    # cross_section (d/r) (1/r^2 + 1/(lam r)) e^(-r/lam) in three (shifts x
    # nodes) arrays, each step in place and the products in this order.
    r = np.add(x_nodes[None, :], shifts[:, None])
    np.square(r, out=r)
    r += d**2
    np.sqrt(r, out=r)
    radial = np.square(r)
    np.divide(1.0, radial, out=radial)
    kern = np.multiply(lam, r)
    np.divide(1.0, kern, out=kern)
    radial += kern
    np.divide(d, r, out=kern)
    kern *= geom.cross_section
    kern *= radial
    np.negative(r, out=r)
    r /= lam
    np.exp(r, out=r)
    kern *= r
    return kern @ x_weights, kern @ embedded


# The series stops at the first odd order whose transform is down by e^-90 on
# the zeroth: d (kappa_n - 1/lambda) >= 90, twice the quadrature's window.
_SERIES_CUTOFF = 2.0 * _RANGE_CUTOFF
# Past this many odd orders (a pattern much wider than its distance) the
# strip quadrature, whose cost follows the e^-45 window, is the cheaper path.
_SERIES_MAX_ORDERS = 4096


def _finger_transform(geom: FingerArray, lam: float, kappa: np.ndarray) -> np.ndarray:
    """The cosine transform in x of ``_finger_point_force``'s kernel
    2 [K0(sqrt(x^2 + d^2)/lambda) - K0(sqrt(x^2 + z_top^2)/lambda)]:
    2 pi (e^(-d kappa) - e^(-z_top kappa)) / kappa.  K0(rho/lambda)/(2 pi) is
    the 2-D Green's function of the modified Helmholtz equation, so the
    transform of K0(sqrt(x^2 + z^2)/lambda) is pi e^(-z kappa) / kappa."""
    depth = min(geom.finger_depth, _RANGE_CUTOFF * lam)
    return 2.0 * math.pi * np.exp(-geom.distance * kappa) * -np.expm1(-depth * kappa) / kappa


def _capillary_transform(geom: FluidCapillary, lam: float, kappa: np.ndarray) -> np.ndarray:
    """The cosine transform in x of ``_capillary_point_force``'s kernel,
    cross_section 2 kappa K1(d kappa): the kernel is -cross_section d/dd of
    e^(-r/lambda)/r, 4 pi times the 3-D Green's function, whose transform is
    2 K0(d kappa), and K0' = -K1."""
    k1 = _scipy.extension("special", "_special_ufuncs").k1
    return geom.cross_section * 2.0 * kappa * k1(geom.distance * kappa)


def _series_orders(width: float, distance: float, lam: float):
    """The odd orders 1, 3, ..., n of the series, up to the first with
    d (kappa_n - 1/lambda) >= 90 at k_n = pi n / width, or None if that
    takes more than ``_SERIES_MAX_ORDERS``.  The cut is where
    k^2 = c^2 + 2 c / lambda with c = 90 / d."""
    c = _SERIES_CUTOFF / distance
    top = width / math.pi * c * math.sqrt(1.0 + 2.0 / (c * lam))   # k_max width / pi
    if not top <= 2.0 * _SERIES_MAX_ORDERS - 1.0:
        return None
    return 2.0 * np.arange(max(0, math.ceil(0.5 * (top - 1.0))) + 1) + 1.0


def _series_point_force(geom: ModulatedGeometry, lam: float, shifts: np.ndarray):
    """The point force of the infinite pattern at each shift, and the same
    series without its last term; None where the finite pattern is not
    effectively infinite or the series takes more than ``_SERIES_MAX_ORDERS``.

    The dense strips [2 j w, (2 j + 1) w] of the infinite pattern are
    1/2 + sum over odd n of (2/(pi n)) sin(k_n x), k_n = pi n / w, so a kernel
    with cosine transform G(k) (``_finger_transform``,
    ``_capillary_transform``; kappa = sqrt(k^2 + lambda^-2)) gives

        F(s) = G(0)/2 - sum over odd n of (2/(pi n)) G(k_n) sin(k_n s).

    That is the quadrature's force where its e^-45 window lies inside the
    finite pattern, x_cut <= (2 n_pairs - 1) w, the pattern's nearer end:
    there the two patterns differ only beyond the cut the quadrature drops.
    """
    if isinstance(geom, FingerArray):
        width, n_pairs, transform = geom.finger_width, geom.n_finger_pairs, _finger_transform
    else:
        width, n_pairs = geom.droplet_length, geom.n_droplet_pairs
        transform = _capillary_transform
    if _lateral_cut(geom.distance, lam, shifts) > (2 * n_pairs - 1) * width:
        return None
    orders = _series_orders(width, geom.distance, lam)
    if orders is None:
        return None
    k = (math.pi / width) * orders
    g = transform(geom, lam, np.hypot(np.concatenate(([0.0], k)), 1.0 / lam))
    coeff = (2.0 / math.pi) * g[1:] / orders
    sines = np.sin(np.multiply.outer(shifts, k))
    partial = sines[:, :-1] @ coeff[:-1]
    return 0.5 * g[0] - (partial + sines[:, -1] * coeff[-1]), 0.5 * g[0] - partial


def _point_kernel(sphere: Sphere, geom, n_phase: int):
    """The point-force kernel of a modulated geometry, its distinct pattern
    shifts, and the index that expands them to the n_phase drive phases.

    A finger's shift A sin(2 pi k/n) equals the one at phase (n/2 - k) mod n,
    so for even n each pair is evaluated once, at its smaller k (33 shifts
    for n = 64); ``sin`` alone would round the two differently.  An odd n
    and a capillary, whose shifts 2 L k/n are distinct, keep all n.  Raises
    GeometryError if the sphere reaches the attractor and DomainError for a
    geometry that is not modulated.
    """
    if geom.distance <= sphere.radius:
        raise GeometryError("sphere overlaps the attractor")
    k = np.arange(n_phase)
    if isinstance(geom, FingerArray):
        if n_phase % 2 == 0:
            k = np.minimum(k, (n_phase // 2 - k) % n_phase)
        k, index = np.unique(k, return_inverse=True)
        return (_finger_point_force,
                geom.drive_amplitude * np.sin(2.0 * math.pi * (k / n_phase)), index)
    if isinstance(geom, FluidCapillary):
        return _capillary_point_force, 2.0 * geom.droplet_length * (k / n_phase), k
    raise DomainError(f"unsupported modulated geometry: {type(geom).__name__}")


def _prefactor(sphere: Sphere, coupling: YukawaCoupling, geom: ModulatedGeometry) -> float:
    """G alpha drho m Phi(R/lambda): scales a point force to the sphere's force."""
    return (
        G_NEWTON * coupling.strength * geom.density_contrast * sphere.mass
        * sphere_form_factor(sphere.radius / coupling.range_m)
    )


def _harmonic_amplitude(samples: np.ndarray, harmonic: int) -> float:
    """2 |X_h| / N: the amplitude of harmonic 0 < h < N/2 of N samples."""
    return 2.0 * abs(np.fft.rfft(samples)[harmonic]) / samples.size


def yukawa_force_modulated(
    sphere: Sphere,
    coupling: YukawaCoupling,
    geom: ModulatedGeometry,
    harmonic: int = 1,
    n_phase: int = 64,
) -> Quantity:
    """Fourier amplitude of the Yukawa force at a harmonic of the drive.

    The force waveform over one drive period is evaluated at n_phase >= 64
    phase samples, and 1 <= harmonic < n_phase / 2.  A finger array with even
    n_phase evaluates the point force once per pair of phases with equal
    shifts, k and (n/2 - k) mod n (``_point_kernel``).

    Where the quadrature's e^-45 window, widened by the largest shift, lies
    inside the finite pattern, the point force is the infinite pattern's
    Fourier series (``_series_point_force``), and the error estimate is its
    last term's share of the amplitude.  Elsewhere it is the strip quadrature
    of 16 Gauss nodes per panel, and the estimate is the difference from the
    rule embedded in them.  Either estimate above 1e-3 relative raises
    QuadratureError.
    """
    _require_kind(coupling, CouplingKind.ISL_ALPHA)
    if harmonic < 1:
        raise DomainError("harmonic index must be >= 1")
    if 2 * harmonic >= n_phase:
        raise DomainError(f"harmonic {harmonic} at {n_phase} phase samples: "
                          f"it must be below the Nyquist limit n_phase / 2 = {n_phase / 2:.15g}")
    if n_phase < 64:
        raise DomainError("need at least 64 phase samples")
    lam = coupling.range_m
    # First, for its form-factor limit: past it the kernel's panels are too many.
    prefactor = _prefactor(sphere, coupling, geom)
    kernel, shifts, index = _point_kernel(sphere, geom, n_phase)
    values = _series_point_force(geom, lam, shifts)
    if values is None:
        values = kernel(geom, lam, shifts)
    fine, embedded = (v[index] for v in values)

    amp_fine = prefactor * _harmonic_amplitude(fine, harmonic)
    amp_embedded = prefactor * _harmonic_amplitude(embedded, harmonic)
    scale = max(abs(amp_fine), abs(prefactor) * float(np.max(np.abs(fine)) + 1e-300))
    err = abs(amp_fine - amp_embedded) / scale if scale > 0.0 else 0.0
    if err > 1e-3:
        raise QuadratureError(
            f"modulated-force quadrature not converged: relative error estimate {err:.2e}",
            error_estimate=err,
        )
    return Quantity(amp_fine, Dimension.FORCE)


def isl_signal_forces(sphere: Sphere, geometry, lambdas: Sequence[float]) -> np.ndarray:
    """Harmonic-1 Yukawa force per unit alpha at each range of ``lambdas``:
    ``yukawa_force_plane`` of a plane slab, ``yukawa_force_modulated`` of a
    finger array or a fluid capillary, and a DomainError for anything else.

    No kernel runs unless a modulated source's ``source_reach`` holds at the
    grid's ends: the reach grows with the range, so where it overflows at the
    smallest the error names geometry.distance, and where only at the largest,
    the grid's end, plan.lambda_max.
    """
    force = yukawa_force_modulated
    if isinstance(geometry, PlaneSlab):
        force = yukawa_force_plane
    elif not isinstance(geometry, (FingerArray, FluidCapillary)):
        raise DomainError("ISL projection needs an attractor geometry in the plan")
    elif len(lambdas):
        source_reach(geometry.distance, min(lambdas))
        try:
            source_reach(geometry.distance, max(lambdas))
        except DomainError:
            raise DomainError(f"plan.lambda_max {float(max(lambdas))!r} m: the square of the "
                              f"e^-45 reach geometry.distance + 45 lambda overflows") from None
    return np.array([force(sphere, YukawaCoupling(CouplingKind.ISL_ALPHA, 1.0, lam),
                           geometry).value for lam in lambdas])


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
