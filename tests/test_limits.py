import json
import math

import numpy as np
import pytest

from levkit.quantities import Dimension, DomainError, EV, HBAR_C, Quantity
from levkit.sensor import NoiseModel, Sphere, TrapState
from levkit.newforces import FingerArray, PlaneSlab
from levkit.limits import (
    CURVE_SCHEMA,
    Capacitor,
    ExclusionCurve,
    HaloModel,
    SearchPlan,
    axion_decay_constant_for_line,
    axion_gw_line,
    coulomb_projection,
    dm_alpha_limit,
    dm_projection,
    dm_rate_above_threshold,
    isl_projection,
    log_grid,
    millicharge_sensitivity,
    neutrality_sensitivity,
)
from levkit.oracles import mc_dm_rate
from levkit.writer import json_text

SPHERE = Sphere(radius=5e-6)
TRAP = TrapState(resonant_frequency=100.0, damping_rate=0.01, temperature=300.0)


def flat_plan(asd=1e-18, tau=1e4, **kw):
    return SearchPlan(sphere=SPHERE, trap=TRAP, noise=NoiseModel.flat("tech", asd),
                      integration_time=tau, **kw)


# ------------------------------------------------------------------ benchmarks

def test_millicharge_benchmark():
    eps = millicharge_sensitivity(flat_plan(), 1e6).value
    assert eps == pytest.approx(6.25e-8, rel=0.05)


def test_neutrality_benchmark():
    bound = neutrality_sensitivity(flat_plan(), 1e6).value
    assert 1.0e-22 / 1.3 < bound < 1.0e-22 * 1.3


def test_millicharge_scales_inversely_with_field():
    eps1 = millicharge_sensitivity(flat_plan(), 1e6).value
    eps2 = millicharge_sensitivity(flat_plan(), 2e6).value
    assert eps1 / eps2 == pytest.approx(2.0, rel=1e-14)


# --------------------------------------------------------------------- curves

def test_log_grid_density():
    g = log_grid(1e-6, 1e-4, points_per_decade=10)
    assert g[0] == pytest.approx(1e-6)
    assert g[-1] == pytest.approx(1e-4)
    assert g.size == 21


def test_exclusion_curve_validation():
    with pytest.raises(DomainError):
        ExclusionCurve("lambda_m", np.array([2.0, 1.0]), np.array([1.0, 1.0]), {})
    with pytest.raises(DomainError):
        ExclusionCurve("lambda_m", np.array([1.0, 2.0]), np.array([1.0, -1.0]), {})


def test_exclusion_curve_json_round_trip():
    curve = ExclusionCurve("lambda_m", np.array([1e-6, 1e-5]),
                           np.array([1e-3, 1e-4]), {"case": "demo"},
                           coupling_label="alpha_min", warnings=("note",))
    back = json.loads(json_text(curve.to_json_dict()))
    assert back["schema"] == CURVE_SCHEMA
    assert np.array_equal(back["abscissa"], curve.abscissa)
    assert np.array_equal(back["coupling"], curve.coupling)
    assert back["provenance"] == {"case": "demo"}
    assert back["warnings"] == ["note"]


def test_exclusion_curve_csv(tmp_path):
    curve = ExclusionCurve("lambda_m", np.array([1e-6]), np.array([0.125]),
                           {"case": "demo"})
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    text = path.read_text()
    assert "# schema = levkit-curve/1" in text
    assert '# case = "demo"' in text
    assert "1e-06,0.125" in text


SLAB = PlaneSlab(thickness=20e-6, density_contrast=19300.0, distance=6e-6)
FINGERS = FingerArray(finger_width=25e-6, finger_depth=10e-6,
                      density_a=19300.0, density_b=2330.0,
                      distance=6e-6, drive_amplitude=25e-6, drive_frequency=10.0,
                      n_finger_pairs=12)


def test_isl_projection_inverts_linearly():
    from levkit.newforces import CouplingKind, YukawaCoupling, yukawa_force_plane
    plan = flat_plan(geometry=SLAB)
    curve = isl_projection(plan, [1e-6, 5e-6, 20e-6])
    for lam, alpha in zip(curve.abscissa, curve.coupling):
        force = yukawa_force_plane(
            plan.sphere, YukawaCoupling(CouplingKind.ISL_ALPHA, alpha, lam), SLAB
        ).value
        assert force == pytest.approx(plan.min_force(), rel=1e-12)


def test_isl_projection_monotone_in_noise():
    quiet = isl_projection(flat_plan(asd=1e-18, geometry=FINGERS), [5e-6, 20e-6])
    loud = isl_projection(flat_plan(asd=3e-18, geometry=FINGERS), [5e-6, 20e-6])
    assert np.all(loud.coupling > quiet.coupling)
    assert np.all(loud.coupling == pytest.approx(3.0 * quiet.coupling, rel=1e-12))


def test_coulomb_projection_dual_axis():
    cap = Capacitor(voltage=1e4, plate_spacing=1e-3, standoff=100e-6)
    plan = flat_plan()
    charged = SearchPlan(sphere=Sphere(radius=5e-6, net_charge=100), trap=TRAP,
                         noise=plan.noise, integration_time=1e4)
    curve = coulomb_projection(charged, [1e-5, 1e-4, 1e-3], cap)
    assert curve.secondary_abscissa_kind == "mediator_mass_ev"
    for lam, mass_ev in zip(curve.abscissa, curve.secondary_abscissa):
        assert mass_ev == pytest.approx(HBAR_C / (lam * EV), rel=1e-12)


def test_isl_projection_omits_points_whose_signal_underflows():
    # exp(-d/lambda) underflows for the two shortest ranges at a 1 mm gap.
    plan = flat_plan(geometry=PlaneSlab(thickness=1e-4, density_contrast=1e4,
                                        distance=1e-3))
    for lambdas in ([1e-6, 1.2e-6, 5e-6, 1e-5], np.array([1e-5, 1.2e-6, 5e-6, 1e-6])):
        curve = isl_projection(plan, lambdas)
        assert curve.abscissa.tolist() == [5e-6, 1e-5]
        assert np.all(curve.coupling > 0.0)
        assert curve.warnings == (
            "zero signal force at lambda = 1e-06 m; point omitted",
            "zero signal force at lambda = 1.2e-06 m; point omitted",
        )
        assert curve.provenance["case"] == "isl"


def test_coulomb_projection_omission_keeps_mass_axis_aligned():
    cap = Capacitor(voltage=100.0, plate_spacing=1e-3, standoff=1e-3)
    charged = SearchPlan(sphere=Sphere(radius=5e-6, net_charge=100), trap=TRAP,
                         noise=NoiseModel.flat("tech", 1e-18), integration_time=1e4)
    for lambdas in ([1e-6, 1e-5, 1e-4], [1e-4, 1e-6, 1e-5]):
        curve = coulomb_projection(charged, lambdas, cap)
        assert curve.abscissa.tolist() == [1e-5, 1e-4]
        assert curve.secondary_abscissa == pytest.approx([0.0197327, 0.00197327], rel=1e-6)
        for lam, mass_ev in zip(curve.abscissa, curve.secondary_abscissa):
            assert mass_ev == pytest.approx(HBAR_C / (lam * EV), rel=1e-12)
        assert curve.warnings == ("leakage force vanished at lambda = 1e-06 m; point omitted",)
        assert curve.provenance["case"] == "coulomb"
        assert curve.provenance["capacitor"]["voltage"] == 100.0


def test_coulomb_projection_sqrt_inversion():
    from levkit.quantities import E_CHARGE
    from levkit.newforces import CouplingKind, YukawaCoupling, capacitor_leakage_field
    cap = Capacitor(voltage=1e4, plate_spacing=1e-3, standoff=100e-6)
    charged = SearchPlan(sphere=Sphere(radius=5e-6, net_charge=100), trap=TRAP,
                         noise=NoiseModel.flat("tech", 1e-18), integration_time=1e4)
    curve = coulomb_projection(charged, [1e-4], cap)
    chi = float(curve.coupling[0])
    field = capacitor_leakage_field(
        cap.voltage, cap.plate_spacing, cap.standoff,
        YukawaCoupling(CouplingKind.COULOMB_CHI2, chi**2, 1e-4)).value
    force = 100 * E_CHARGE * field
    assert force == pytest.approx(charged.min_force(), rel=1e-12)


def test_coulomb_dipole_mode_requires_field():
    cap = Capacitor(voltage=1e4, plate_spacing=1e-3, standoff=100e-6)
    with pytest.raises(DomainError):
        coulomb_projection(flat_plan(), [1e-4], cap)
    curve = coulomb_projection(flat_plan(), [1e-4], cap, polarizing_field=1e6)
    assert curve.coupling[0] > 0.0


def test_coulomb_dipole_mode_matches_field_gradient():
    """An uncharged sphere's induced dipole against the leakage field's
    gradient in standoff, taken here by a central finite difference."""
    from levkit.newforces import CouplingKind, YukawaCoupling, capacitor_leakage_field
    from levkit.sensor import induced_dipole
    cap = Capacitor(voltage=1e4, plate_spacing=1e-3, standoff=100e-6)
    plan = flat_plan()
    lambdas = [1e-5, 1e-4, 1e-3, 1e-2]
    curve = coulomb_projection(plan, lambdas, cap, polarizing_field=1e6)
    dipole = induced_dipole(plan.sphere, 1e6).value
    for lam, chi in zip(lambdas, curve.coupling):
        coupling = YukawaCoupling(CouplingKind.COULOMB_CHI2, 1.0, lam)
        h = 1e-4 * lam
        near, far = (capacitor_leakage_field(cap.voltage, cap.plate_spacing, d, coupling).value
                     for d in (cap.standoff - h, cap.standoff + h))
        grad = (far - near) / (2.0 * h)
        expected = math.sqrt(plan.min_force() / (dipole * abs(grad)))
        assert chi == pytest.approx(expected, rel=1e-6)


# ------------------------------------------------------------------------- DM

def test_halo_pdf_normalized():
    halo = HaloModel()
    from scipy.integrate import trapezoid
    v = np.linspace(0.0, halo.v_max, 200000)
    assert trapezoid(halo.speed_pdf(v), v) == pytest.approx(1.0, rel=1e-6)
    assert halo.speed_pdf(np.array([halo.v_max * 1.0001]))[0] == 0.0


def test_dm_rate_analytic_vs_monte_carlo():
    n = SPHERE.nucleon_count
    analytic = dm_rate_above_threshold(n, 3e-19, 1e12, alpha_n=1e-9)
    mc = mc_dm_rate(n, 3e-19, 1e12, alpha_n=1e-9)
    assert mc == pytest.approx(analytic, rel=0.02)


def test_dm_rate_scales_as_coupling_squared():
    n = SPHERE.nucleon_count
    r1 = dm_rate_above_threshold(n, 3e-19, 1e12, alpha_n=1e-9)
    r2 = dm_rate_above_threshold(n, 3e-19, 1e12, alpha_n=2e-9)
    assert r2 / r1 == pytest.approx(4.0, rel=1e-12)


def test_dm_rate_threshold_scaling_is_inverse_square():
    """For a massless mediator far from the kinematic edge the integrated
    rate above threshold goes as q_min^-2 (dsigma/dq ~ q^-3)."""
    n = SPHERE.nucleon_count
    r1 = dm_rate_above_threshold(n, 5e-20, 1e13)
    r2 = dm_rate_above_threshold(n, 2.5e-20, 1e13)
    assert r2 / r1 == pytest.approx(4.0, rel=0.02)


def test_dm_limit_exposure_scaling():
    plan1 = flat_plan(exposure_sphere_days=1.0)
    plan4 = flat_plan(exposure_sphere_days=4.0)
    a1 = dm_alpha_limit(plan1, 5e-19, 1e12)
    a4 = dm_alpha_limit(plan4, 5e-19, 1e12)
    assert a4 / a1 == pytest.approx(0.5, rel=0.01)


def test_dm_limit_array_multiplies_exposure():
    a1 = dm_alpha_limit(flat_plan(exposure_sphere_days=2.0), 5e-19, 1e12)
    a2 = dm_alpha_limit(flat_plan(exposure_sphere_days=1.0, array_size=2), 5e-19, 1e12)
    assert a1 == pytest.approx(a2, rel=1e-14)


def test_dm_projection_curve():
    plan = flat_plan(exposure_sphere_days=1.0)
    curve = dm_projection(plan, [1e12, 3e12, 1e13],
                          Quantity(5e-19, Dimension.MOMENTUM),
                          mediator_mass_ev=0.1)
    assert curve.abscissa_kind == "dm_mass_ev"
    assert curve.coupling.size == 3
    # heavier DM at fixed halo mass density means fewer particles -> weaker limit
    assert np.all(np.diff(curve.coupling) > 0.0)


def test_dm_projection_censors_closed_channels():
    # threshold far above the kinematic maximum for light DM
    plan = flat_plan(exposure_sphere_days=1.0)
    curve = dm_projection(plan, [1e6, 1e13], Quantity(5e-19, Dimension.MOMENTUM))
    assert curve.abscissa.size == 1
    assert curve.warnings == (
        "threshold above kinematic maximum at dm_mass_ev = 1000000.0; point censored",
    )


# ---------------------------------------------------------------------- axion

def test_axion_mass_anchor():
    m_a, _ = axion_gw_line(1e9)
    assert m_a == 5.7e-3


def test_axion_line_frequency():
    _, f_gw = axion_gw_line(1e16)
    assert f_gw == pytest.approx(2.76e5, rel=0.005)


def test_axion_inverse_solve():
    f_a = axion_decay_constant_for_line(145e3)
    assert f_a == pytest.approx(1.9e16, rel=0.01)
    # round trip
    _, f_gw = axion_gw_line(f_a)
    assert f_gw == pytest.approx(145e3, rel=1e-12)
