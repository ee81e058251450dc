import json
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k1

from levkit import newforces, oracles
from levkit.cli import EXIT_RUNTIME, main
from levkit.quantities import DomainError, HBAR_C
from levkit.sensor import Sphere
from levkit.newforces import (
    CouplingKind,
    FingerArray,
    FluidCapillary,
    GeometryError,
    PlaneSlab,
    QuadratureError,
    YukawaCoupling,
    capacitor_leakage_field,
    casimir_background_sphere_plane,
    dm_yukawa_point_potential,
    sphere_form_factor,
    yukawa_force_modulated,
    yukawa_force_plane,
)
from levkit.oracles import (
    form_factor_oracle,
    modulated_force_oracle,
    slab_force_oracle,
)


def isl(lam):
    return YukawaCoupling(CouplingKind.ISL_ALPHA, 1.0, lam)


def test_oracles_share_no_private_helper_with_production():
    """A fault in a production helper must not move both sides of a check."""
    private = [value for name, value in vars(newforces).items()
               if name.startswith("_") and callable(value)]
    shared = [name for name, value in vars(oracles).items()
              if any(value is helper for helper in private)]
    assert shared == []


# ---------------------------------------------------------------- form factor

def test_form_factor_point_limit():
    assert sphere_form_factor(0.0) == 1.0
    assert sphere_form_factor(1e-8) == pytest.approx(1.0, abs=1e-12)


def test_form_factor_series_matches_exact_at_crossover():
    # the exact branch just above the seam must match the small-x series
    x = 1.0000001e-3
    series = 1.0 + x**2 / 10.0 + x**4 / 280.0
    assert sphere_form_factor(x) == pytest.approx(series, abs=1e-9)


def test_form_factor_against_volume_quadrature():
    # frozen oracle values; the oracle itself is rerun in the acceptance suite
    for x, frozen in [(0.1, 1.0010003572089996),
                      (1.0, 1.103638323514321),
                      (10.0, 297.3572889789567)]:
        assert sphere_form_factor(x) == pytest.approx(frozen, rel=1e-10)
        assert form_factor_oracle(x) == pytest.approx(frozen, rel=1e-12)


def test_form_factor_vectorized_and_monotone():
    x = np.linspace(0.0, 20.0, 50)
    phi = sphere_form_factor(x)
    assert phi.shape == x.shape
    assert np.all(np.diff(phi) > 0.0)


def test_form_factor_rejects_negative():
    with pytest.raises(DomainError):
        sphere_form_factor(-0.1)


@pytest.mark.filterwarnings("error")
def test_form_factor_overflow_is_a_domain_error():
    """Finite up to its limit; one ulp above it, an error that names both,
    raised before numpy can warn of the overflow."""
    limit = newforces._FORM_FACTOR_MAX
    assert math.isfinite(sphere_form_factor(limit))
    above = float(np.nextafter(limit, np.inf))
    message = f"R/lambda = {above!r}, above its limit {limit!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        sphere_form_factor(np.array([1.0, above]))


# -------------------------------------------------------------------- kernels

def test_line_mass_kernel_is_bessel_k1():
    """The infinite-line Yukawa kernel 2 K1(b/lam)/(lam b) must equal the
    direct integral of the point kernel along the line."""
    lam = 3e-6
    b = 4e-6

    def point_kernel(y):
        r = math.hypot(b, y)
        # z-component of grad(e^{-r/lam}/r) toward the line, per unit length
        return (b / r) * (1.0 / r**2 + 1.0 / (lam * r)) * math.exp(-r / lam)

    half, err = quad(point_kernel, 0.0, 60.0 * lam, limit=400)
    numeric = 2.0 * half
    closed = 2.0 * k1(b / lam) / lam
    assert numeric == pytest.approx(closed, rel=1e-9)


# ----------------------------------------------------------------------- slab

def test_slab_force_closed_form_vs_oracle():
    sphere = Sphere(radius=2.5e-6)
    slab = PlaneSlab(thickness=20e-6, density_contrast=19300.0, distance=3.0e-6)
    for lam in (1e-6, 5e-6, 20e-6):
        closed = yukawa_force_plane(sphere, isl(lam), slab).value
        oracle = slab_force_oracle(sphere, isl(lam), slab)
        assert closed == pytest.approx(oracle, rel=1e-4)


def test_slab_force_linear_in_alpha_and_contrast():
    sphere = Sphere(radius=2.5e-6)
    slab = PlaneSlab(thickness=20e-6, density_contrast=19300.0, distance=3.0e-6)
    base = yukawa_force_plane(sphere, isl(5e-6), slab).value
    doubled = yukawa_force_plane(
        sphere, YukawaCoupling(CouplingKind.ISL_ALPHA, 2.0, 5e-6), slab
    ).value
    assert doubled == pytest.approx(2.0 * base, rel=1e-15)
    half_contrast = PlaneSlab(thickness=20e-6, density_contrast=9650.0, distance=3.0e-6)
    assert yukawa_force_plane(sphere, isl(5e-6), half_contrast).value == pytest.approx(
        base / 2.0, rel=1e-15
    )


def test_slab_overlap_rejected():
    sphere = Sphere(radius=5e-6)
    slab = PlaneSlab(thickness=20e-6, density_contrast=19300.0, distance=4e-6)
    with pytest.raises(GeometryError):
        yukawa_force_plane(sphere, isl(1e-6), slab)


def test_slab_range_dependence():
    """Deep in the screened regime the force falls as e^(-d/lam)."""
    sphere = Sphere(radius=0.5e-6)
    lam = 1e-6
    f1 = yukawa_force_plane(
        sphere, isl(lam), PlaneSlab(20e-6, 19300.0, distance=5e-6)).value
    f2 = yukawa_force_plane(
        sphere, isl(lam), PlaneSlab(20e-6, 19300.0, distance=6e-6)).value
    assert f1 / f2 == pytest.approx(math.e, rel=1e-12)


# ------------------------------------------------------------------ modulated

FINGERS = FingerArray(finger_width=25e-6, finger_depth=10e-6,
                      density_a=19300.0, density_b=2330.0,
                      distance=5e-6, drive_amplitude=25e-6, drive_frequency=10.0,
                      n_finger_pairs=12)
CAPILLARY = FluidCapillary(inner_diameter=10e-6, droplet_length=40e-6,
                           density_a=3000.0, density_b=800.0,
                           distance=12e-6, modulation_frequency=50.0,
                           n_droplet_pairs=12)


def test_finger_harmonic_vs_oracle():
    sphere = Sphere(radius=2.5e-6)
    closed = yukawa_force_modulated(sphere, isl(10e-6), FINGERS, harmonic=1).value
    oracle = modulated_force_oracle(sphere, isl(10e-6), FINGERS, harmonic=1)
    assert closed == pytest.approx(oracle, rel=1e-3)


def test_capillary_harmonic_vs_oracle():
    sphere = Sphere(radius=7.5e-6)
    closed = yukawa_force_modulated(sphere, isl(20e-6), CAPILLARY, harmonic=1).value
    oracle = modulated_force_oracle(sphere, isl(20e-6), CAPILLARY, harmonic=1)
    assert closed == pytest.approx(oracle, rel=1e-3)


def test_modulated_waveform_parseval():
    """Harmonic amplitudes must account for the waveform's AC power."""
    sphere = Sphere(radius=2.5e-6)
    # The force over one drive period at 256 phases, from the point kernel
    # that yukawa_force_modulated samples.
    kernel, shifts = newforces._point_kernel(sphere, FINGERS, np.arange(256) / 256)
    wave = (newforces._prefactor(sphere, isl(10e-6), FINGERS)
            * kernel(FINGERS, 10e-6, shifts, n_per_panel=16))
    ac_power = float(np.mean((wave - np.mean(wave)) ** 2))
    total = 0.0
    for h in range(1, 9):
        amp = yukawa_force_modulated(sphere, isl(10e-6), FINGERS, harmonic=h,
                                     n_phase=256).value
        total += amp**2 / 2.0
    assert total == pytest.approx(ac_power, rel=0.02)


@pytest.mark.parametrize("lam", [0.2e-6, 10e-6, 1e-3])
def test_finger_depth_integral_matches_quadrature(lam):
    """The K0 closed form of the depth integral against a 64-node Gauss rule
    of the strip kernel 2 z K1(b/lam)/(lam b) on panels no wider than 5 lam,
    at lam << d, lam ~ depth and lam >> depth."""
    shifts = FINGERS.drive_amplitude * np.sin(2.0 * math.pi * np.arange(8) / 8)
    closed = newforces._finger_point_force(FINGERS, lam, shifts, n_per_panel=16)

    x_nodes, x_weights = newforces._strip_nodes(
        FINGERS.finger_width, FINGERS.n_finger_pairs, FINGERS.distance, lam, shifts, 16)
    d = FINGERS.distance
    z_top = d + min(FINGERS.finger_depth, 45.0 * lam)
    edges = np.linspace(d, z_top, max(1, math.ceil((z_top - d) / (5.0 * lam))) + 1)
    t, wt = np.polynomial.legendre.leggauss(64)
    half = 0.5 * np.diff(edges)
    z = (edges[:-1, None] + half[:, None] * (t + 1.0)).ravel()
    wz = (half[:, None] * wt).ravel()
    dx = x_nodes[None, :, None] + shifts[:, None, None]
    b = np.hypot(dx, z)
    depth_integral = (2.0 * z / (lam * b) * k1(b / lam)) @ wz
    quadrature = depth_integral @ x_weights
    np.testing.assert_allclose(closed, quadrature, rtol=1e-10, atol=0.0)


def _reference_strip_nodes(width, n_pairs, distance, lam, shifts, n_per_panel):
    """The lateral rule built one strip, one panel and one Gauss map at a time."""
    x, w = np.polynomial.legendre.leggauss(n_per_panel)

    def gauss_nodes(a, b):
        half = 0.5 * (b - a)
        return a + half * (x + 1.0), half * w

    def panel_nodes(a, b):
        n_panels = max(1, math.ceil((b - a) / (5.0 * lam)))
        edges = np.linspace(a, b, n_panels + 1)
        nodes = [gauss_nodes(edges[i], edges[i + 1]) for i in range(n_panels)]
        return np.concatenate([x for x, _ in nodes]), np.concatenate([w for _, w in nodes])

    cut = 45.0 * lam
    s_max = float(np.max(np.abs(shifts))) if shifts.size else 0.0
    x_cut = math.sqrt((distance + cut) ** 2 - distance**2) + s_max
    xs, ws = [], []
    for k in range(-n_pairs, n_pairs):
        x0 = 2.0 * k * width
        lo = max(x0, -x_cut)
        hi = min(x0 + width, x_cut)
        if lo >= hi:
            continue
        xn, xw = panel_nodes(lo, hi)
        xs.append(xn)
        ws.append(xw)
    return np.concatenate(xs), np.concatenate(ws)


def _strip_cases():
    """(width, pairs, distance, lam, shifts): the shipped finger config and the
    benchmark's capillary over their lambda grids, then random geometries."""
    phases = np.arange(64) / 64
    finger = (10e-6, 40, 15e-6, 10e-6 * np.sin(2.0 * math.pi * phases))
    capillary = (40e-6, 40, 12e-6, 2.0 * 40e-6 * phases)
    for (width, pairs, distance, shifts), lams in ((finger, np.geomspace(1e-6, 1e-4, 41)),
                                                  (capillary, np.geomspace(1e-6, 1e-2, 81))):
        for lam in lams:
            yield width, pairs, distance, lam, shifts
            yield width, pairs, distance, lam, np.empty(0)
    rng = np.random.default_rng(12)
    for _ in range(300):
        width = 10.0 ** rng.uniform(-6.5, -4.0)
        yield (width, int(rng.integers(1, 41)), 10.0 ** rng.uniform(-6.5, -4.0),
               10.0 ** rng.uniform(-7.0, -2.0),
               rng.uniform(-2.0, 2.0, int(rng.integers(0, 8))) * width)


@pytest.mark.parametrize("n_per_panel", [8, 16])
def test_strip_nodes_match_per_panel_reference(n_per_panel):
    """Mapping the rule onto all panels at once changes no node or weight bit."""
    for width, pairs, distance, lam, shifts in _strip_cases():
        nodes, weights = newforces._strip_nodes(width, pairs, distance, lam, shifts,
                                                n_per_panel)
        ref_nodes, ref_weights = _reference_strip_nodes(width, pairs, distance, lam,
                                                        shifts, n_per_panel)
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(weights, ref_weights)


def _skew_coarse_rule(monkeypatch):
    """Make the 8-node finger rule disagree with the 16-node one by 10 %."""
    exact = newforces._finger_point_force

    def skewed(geom, lam, shifts, n_per_panel):
        out = exact(geom, lam, shifts, n_per_panel)
        return out * 1.1 if n_per_panel == 8 else out

    monkeypatch.setattr(newforces, "_finger_point_force", skewed)


def test_unconverged_quadrature_raises_with_estimate(monkeypatch):
    _skew_coarse_rule(monkeypatch)
    with pytest.raises(QuadratureError) as info:
        yukawa_force_modulated(Sphere(radius=2.5e-6), isl(10e-6), FINGERS)
    err = info.value.error_estimate
    assert err > 1e-3
    assert f"relative error estimate {err:.2e}" in str(info.value)


def test_unconverged_quadrature_is_runtime_exit(monkeypatch, tmp_path, capsys):
    _skew_coarse_rule(monkeypatch)
    doc = {
        "schema": "levkit-config/1",
        "sphere": {"radius": "2.5 um"},
        "trap": {"resonant_frequency": "100 Hz", "damping_rate": "20 1/s",
                 "temperature": "300 K"},
        "noise": {"include_thermal": True},
        "geometry": {"type": "finger_array", "finger_width": "25 um",
                     "finger_depth": "10 um", "density_a": "19300 kg/m^3",
                     "density_b": "2330 kg/m^3", "distance": "5 um",
                     "drive_amplitude": "25 um", "drive_frequency": "10 Hz",
                     "n_finger_pairs": 12},
        "plan": {"integration_time": "1e6 s", "lambda_min": "10 um",
                 "lambda_max": "100 um", "points_per_decade": 1},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["exclusion", "isl", str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime error: modulated-force quadrature not converged" in err
    assert "Traceback" not in err


def test_modulated_rejects_unsupported_geometry():
    slab = PlaneSlab(thickness=20e-6, density_contrast=19300.0, distance=6e-6)
    with pytest.raises(DomainError, match="unsupported modulated geometry: PlaneSlab"):
        yukawa_force_modulated(Sphere(radius=2.5e-6), isl(10e-6), slab)


def test_modulated_overlap_rejected():
    sphere = Sphere(radius=6e-6)
    with pytest.raises(GeometryError):
        yukawa_force_modulated(sphere, isl(10e-6), FINGERS)


def test_modulated_requires_enough_phases():
    sphere = Sphere(radius=2.5e-6)
    with pytest.raises(DomainError):
        yukawa_force_modulated(sphere, isl(10e-6), FINGERS, n_phase=16)


# ------------------------------------------------------------------ capacitor

def test_capacitor_leakage_formula():
    chi2 = YukawaCoupling(CouplingKind.COULOMB_CHI2, 1.0, 100e-6)
    field = capacitor_leakage_field(1000.0, 1e-3, 100e-6, chi2).value
    expected = 1000.0 / (2e-3) * (math.exp(-1.0) - math.exp(-11.0))
    assert field == pytest.approx(expected, rel=1e-14)


def test_capacitor_requires_chi2_coupling():
    with pytest.raises(DomainError):
        capacitor_leakage_field(1000.0, 1e-3, 100e-6, isl(100e-6))


# --------------------------------------------------------------------- DM / Casimir

def test_dm_point_potential():
    c = YukawaCoupling(CouplingKind.DM_ALPHA_N, 1e-10, 1e-6)
    v = dm_yukawa_point_potential(c, 1e15, 1e-6).value
    assert v == pytest.approx(1e-10 * 1e15 * HBAR_C / 1e-6 * math.exp(-1.0), rel=1e-14)


def test_casimir_pfa():
    sphere = Sphere(radius=5e-6)
    est = casimir_background_sphere_plane(sphere, gap=100e-9)
    expected = math.pi**3 * HBAR_C * 5e-6 / (360.0 * (100e-9) ** 3)
    assert est.force.value == pytest.approx(expected, rel=1e-14)
    assert est.pfa_valid
    far = casimir_background_sphere_plane(sphere, gap=2e-6)
    assert not far.pfa_valid
