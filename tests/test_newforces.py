import json
import math
import os
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k1

from levkit import _scipy, newforces, oracles
from levkit.cli import EXIT_RUNTIME, _config_dir, main
from levkit.config import load_config, parse_config
from levkit.limits import log_grid
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
    kernel, shifts, index = newforces._point_kernel(sphere, FINGERS, 256)
    wave = (newforces._prefactor(sphere, isl(10e-6), FINGERS)
            * kernel(FINGERS, 10e-6, shifts)[0][index])
    ac_power = float(np.mean((wave - np.mean(wave)) ** 2))
    total = 0.0
    for h in range(1, 9):
        amp = yukawa_force_modulated(sphere, isl(10e-6), FINGERS, harmonic=h,
                                     n_phase=256).value
        total += amp**2 / 2.0
    assert total == pytest.approx(ac_power, rel=0.02)


@pytest.mark.parametrize("geom, n_phase, n_shifts", [
    (FINGERS, 64, 33), (FINGERS, 256, 129), (FINGERS, 65, 65), (CAPILLARY, 64, 64)])
def test_kernel_evaluated_once_per_distinct_shift(monkeypatch, geom, n_phase, n_shifts):
    """A finger's mirrored phases k and (n/2 - k) mod n share one kernel
    evaluation at even n; an odd n and a capillary evaluate every phase."""
    name = ("_finger_point_force" if isinstance(geom, FingerArray)
            else "_capillary_point_force")
    kernel = getattr(newforces, name)
    calls = []

    def spy(geom, lam, shifts):
        calls.append(shifts.size)
        return kernel(geom, lam, shifts)

    monkeypatch.setattr(newforces, name, spy)
    yukawa_force_modulated(Sphere(radius=2.5e-6), isl(10e-6), geom, n_phase=n_phase)
    assert calls == [n_shifts]


@pytest.mark.parametrize("n_phase", [64, 256, 65])
@pytest.mark.parametrize("harmonic", [1, 2])
def test_paired_shifts_match_all_phase_amplitude(n_phase, harmonic):
    """Each phase reuses a shift equal to its own up to the rounding of sin,
    and the harmonic amplitude from the distinct shifts equals the one from
    the kernel evaluated at every drive phase."""
    sphere, lam = Sphere(radius=2.5e-6), 10e-6
    shifts = FINGERS.drive_amplitude * np.sin(2.0 * math.pi * (np.arange(n_phase) / n_phase))
    _, distinct, index = newforces._point_kernel(sphere, FINGERS, n_phase)
    np.testing.assert_allclose(distinct[index], shifts, rtol=0.0,
                               atol=4.0 * np.finfo(float).eps * FINGERS.drive_amplitude)
    wave, _ = newforces._finger_point_force(FINGERS, lam, shifts)
    reference = (newforces._prefactor(sphere, isl(lam), FINGERS)
                 * newforces._harmonic_amplitude(wave, harmonic))
    paired = yukawa_force_modulated(sphere, isl(lam), FINGERS, harmonic=harmonic,
                                    n_phase=n_phase).value
    assert paired == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("lam", [0.2e-6, 10e-6, 1e-3])
def test_finger_depth_integral_matches_quadrature(lam):
    """The K0 closed form of the depth integral against a 64-node Gauss rule
    of the strip kernel 2 z K1(b/lam)/(lam b) on panels no wider than 5 lam,
    at lam << d, lam ~ depth and lam >> depth."""
    shifts = FINGERS.drive_amplitude * np.sin(2.0 * math.pi * np.arange(8) / 8)
    closed, _ = newforces._finger_point_force(FINGERS, lam, shifts)

    x_nodes, x_weights, _ = newforces._strip_nodes(
        FINGERS.finger_width, FINGERS.n_finger_pairs, FINGERS.distance, lam, shifts)
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


def _reference_strip_nodes(width, n_pairs, distance, lam, shifts, n_per_panel, w=None):
    """The lateral rule built one strip, one panel and one Gauss map at a time,
    with the Gauss weights or, given, weights ``w`` on the same nodes."""
    x, gauss = np.polynomial.legendre.leggauss(n_per_panel)
    w = gauss if w is None else w

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


def test_strip_nodes_match_per_panel_reference():
    """Mapping the rule onto all panels at once changes no node or weight bit,
    nor any embedded weight against the same map of the rule's own."""
    embedded = newforces._legendre_rule()[2]
    for width, pairs, distance, lam, shifts in _strip_cases():
        nodes, weights, embedded_weights = newforces._strip_nodes(width, pairs, distance,
                                                                  lam, shifts)
        ref_nodes, ref_weights = _reference_strip_nodes(width, pairs, distance, lam,
                                                        shifts, 16)
        _, ref_embedded = _reference_strip_nodes(width, pairs, distance, lam, shifts, 16,
                                                 embedded)
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(weights, ref_weights)
        np.testing.assert_array_equal(embedded_weights, ref_embedded)


def test_embedded_rule_is_positive_and_exact_to_degree_seven():
    """The error estimate's rule: the even-index Gauss nodes only, every
    weight there positive, x^k integrated exactly for k <= 7 and not k = 8."""
    x, _, embedded = newforces._legendre_rule()
    assert np.all(embedded[1::2] == 0.0) and np.min(embedded[::2]) > 0.04
    for k in range(9):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert (abs(embedded @ x**k - exact) < 1e-14) == (k <= 7), k


def _relative_error_estimate(sphere, coupling, geom, fine, other):
    """``yukawa_force_modulated``'s estimate, at harmonic 1, of the waveform
    ``fine`` by its difference from ``other``."""
    prefactor = newforces._prefactor(sphere, coupling, geom)
    amp_fine = prefactor * newforces._harmonic_amplitude(fine, 1)
    amp_other = prefactor * newforces._harmonic_amplitude(other, 1)
    scale = max(abs(amp_fine), abs(prefactor) * float(np.max(np.abs(fine)) + 1e-300))
    return abs(amp_fine - amp_other) / scale


def _gate_cases():
    """(sphere, coupling, geometry): criterion 07's modulated grid, the shipped
    finger curve and the benchmark's capillary curve, at every lambda."""
    yield from oracles.geometry_regression_grid()[1]
    finger = load_config(_config_dir() / "isl_finger_20um.json")
    capillary = parse_config({
        "schema": "levkit-config/1",
        "sphere": {"radius": "7.5 um", "density": "1850 kg/m^3"},
        "geometry": {"type": "fluid_capillary", "inner_diameter": "10 um",
                     "droplet_length": "40 um", "density_a": "3000 kg/m^3",
                     "density_b": "800 kg/m^3", "distance": "12 um",
                     "modulation_frequency": "50 Hz", "n_droplet_pairs": 40},
        "plan": {"integration_time": "1 s", "lambda_min": "1 um", "lambda_max": "10 mm",
                 "points_per_decade": 20}})
    for cfg, n_lam in ((finger, 41), (capillary, 81)):
        plan = cfg.plan_section
        lams = log_grid(plan["lambda_min"], plan["lambda_max"], plan["points_per_decade"])
        assert lams.size == n_lam
        for lam in lams:
            yield cfg.sphere, isl(lam), cfg.geometry


def test_embedded_estimate_is_at_least_the_eight_node_rules(monkeypatch):
    """The error estimate from the rule embedded in the 16 Gauss nodes is no
    smaller, at any point of the three grids, than the estimate from a
    separate 8-node Gauss rule per panel, which it replaced."""
    def eight_node_rule(*args):
        nodes, weights = _reference_strip_nodes(*args, 8)
        return nodes, weights, weights       # only the kernel's first value is read

    for sphere, coupling, geom in _gate_cases():
        kernel, shifts, index = newforces._point_kernel(sphere, geom, 64)
        fine, embedded = (values[index] for values in kernel(geom, coupling.range_m, shifts))
        with monkeypatch.context() as patch:
            patch.setattr(newforces, "_strip_nodes", eight_node_rule)
            eight = kernel(geom, coupling.range_m, shifts)[0][index]
        estimate = _relative_error_estimate(sphere, coupling, geom, fine, embedded)
        assert estimate >= _relative_error_estimate(sphere, coupling, geom, fine, eight), (
            geom, coupling.range_m)
        assert estimate < 1e-3


def _skew_embedded_rule(monkeypatch):
    """Make the embedded rule's weights 10 % too large."""
    x, w, embedded = newforces._legendre_rule()
    monkeypatch.setattr(newforces, "_legendre_rule", lambda: (x, w, 1.1 * embedded))


def test_unconverged_quadrature_raises_with_estimate(monkeypatch):
    _skew_embedded_rule(monkeypatch)
    sphere = Sphere(radius=2.5e-6)
    with pytest.raises(QuadratureError) as info:
        yukawa_force_modulated(sphere, isl(10e-6), FINGERS)
    err = info.value.error_estimate
    assert err > 1e-3
    assert f"relative error estimate {err:.2e}" in str(info.value)
    # The estimate the gate test above recomputes is the one raised.
    kernel, shifts, index = newforces._point_kernel(sphere, FINGERS, 64)
    fine, skewed = (values[index] for values in kernel(FINGERS, 10e-6, shifts))
    assert err == _relative_error_estimate(sphere, isl(10e-6), FINGERS, fine, skewed)


def test_unconverged_quadrature_is_runtime_exit(monkeypatch, tmp_path, capsys):
    _skew_embedded_rule(monkeypatch)
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


def test_isl_signal_forces_are_each_sources_own_force():
    """The one ISL entry gives the plane slab's closed form and the modulated
    sources' first harmonic, bit for bit, and rejects a missing geometry."""
    sphere = Sphere(radius=2.5e-6)
    slab = PlaneSlab(thickness=20e-6, density_contrast=19300.0, distance=6e-6)
    lams = [2e-6, 30e-6]
    for geom, force in ((slab, yukawa_force_plane), (FINGERS, yukawa_force_modulated)):
        assert newforces.isl_signal_forces(sphere, geom, lams).tolist() == [
            force(sphere, isl(lam), geom).value for lam in lams]
    with pytest.raises(DomainError, match="^ISL projection needs an attractor geometry"):
        newforces.isl_signal_forces(sphere, None, lams)


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


def test_file_loaded_k0_is_scipy_special_k0_bit_for_bit():
    """The finger kernel's k0, loaded from its extension file, is scipy.special's."""
    from scipy.special import k0

    z = np.geomspace(1e-3, 700.0, 100_000)
    assert np.array_equal(_scipy.extension("special", "_special_ufuncs").k0(z), k0(z))


def test_missing_extension_names_it_the_directory_and_scipy_version():
    import scipy

    with pytest.raises(_scipy.ExtensionNotFoundError) as err:
        _scipy.extension("special", "_no_such_extension")
    special = os.path.join(os.path.dirname(scipy.__file__), "special")
    assert str(err.value) == (f"scipy extension special._no_such_extension not found in "
                              f"{special} (scipy {scipy.__version__})")
