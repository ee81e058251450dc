"""End-to-end acceptance checks, one test per criterion.

Each criterion records a single PASS/FAIL line that is replayed in the
pytest terminal summary (see conftest).  Criterion 8a is a documented
expected failure: for Born scattering with dsigma/dq ~ q^-3 the integrated
rate above threshold scales as q_min^-2, not the stated q_min^-3; the
assertion is kept as stated and marked strict-xfail rather than weakened.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import acceptance_report

from levkit.quantities import HBAR, K_B, EV, HBAR_C, Dimension, Quantity
from levkit.sensor import (
    NoiseModel,
    Sphere,
    TrapState,
    acceleration_asd_ng,
    sql_force_asd,
    thermal_force_asd,
)
from levkit.dynamics import SimulationConfig, estimate_psd, fit_lorentzian, simulate
from levkit.newforces import (
    CouplingKind,
    YukawaCoupling,
    capacitor_leakage_field,
    sphere_form_factor,
    yukawa_force_modulated,
    yukawa_force_plane,
)
from levkit.limits import (
    SearchPlan,
    axion_decay_constant_for_line,
    axion_gw_line,
    coulomb_projection,
    dm_alpha_limit,
    isl_projection,
    millicharge_sensitivity,
    neutrality_sensitivity,
)
from levkit.oracles import (
    form_factor_oracle,
    geometry_regression_grid,
    mc_dm_rate,
    modulated_force_oracle,
    slab_force_oracle,
)
from levkit.cli import main as cli_main


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {status}: {detail}"
    acceptance_report.append(line)
    print(line)
    return ok


BENCH_SPHERE = Sphere(radius=5e-6)   # 10 um diameter silica
BENCH_TRAP = TrapState(resonant_frequency=100.0, damping_rate=0.01, temperature=300.0)


def bench_plan(**kw):
    return SearchPlan(sphere=BENCH_SPHERE, trap=BENCH_TRAP,
                      noise=NoiseModel({"technical": 1e-18}),
                      integration_time=1e4, **kw)


def test_criterion_01_millicharge():
    t0 = time.time()
    eps = millicharge_sensitivity(bench_plan(), 1e6).value
    runtime = time.time() - t0
    ok = abs(eps - 6.25e-8) / 6.25e-8 < 0.05 and runtime < 1.0
    assert report("01 millicharge", ok,
                  f"epsilon = {eps:.4e} e (target 6.25e-8 within 5%), {runtime:.2f} s")


def test_criterion_02_neutrality():
    t0 = time.time()
    bound = neutrality_sensitivity(bench_plan(), 1e6).value
    runtime = time.time() - t0
    ok = (1.0e-22 / 1.3 < bound < 1.0e-22 * 1.3) and runtime < 1.0
    assert report("02 neutrality", ok,
                  f"bound = {bound:.4e} per nucleon (target 1.0e-22 within x1.3), "
                  f"{runtime:.2f} s")


def test_criterion_03_acceleration():
    t0 = time.time()
    ng = acceleration_asd_ng(Quantity(1e-18, Dimension.FORCE_ASD), BENCH_SPHERE)
    runtime = time.time() - t0
    ok = abs(ng - 100.0) / 100.0 < 0.10 and runtime < 1.0
    assert report("03 acceleration", ok,
                  f"{ng:.2f} ng/rtHz (target 100 within 10%), {runtime:.2f} s")


def test_criterion_04_axion():
    t0 = time.time()
    m_a, _ = axion_gw_line(1e9)
    _, f_gw = axion_gw_line(1e16)
    # independent constant arithmetic for the line frequency
    f_ref = 2.0 * (5.7e-3 * 1e9 / 1e16) * 1.602176634e-19 / (2.0 * math.pi * 1.054571817e-34)
    f_a_145 = axion_decay_constant_for_line(145e3)
    runtime = time.time() - t0
    ok = (m_a == 5.7e-3
          and abs(f_gw - 2.76e5) / 2.76e5 < 0.005
          and abs(f_gw - f_ref) / f_ref < 1e-12
          and abs(f_a_145 - 1.9e16) / 1.9e16 < 0.01
          and runtime < 1.0)
    assert report("04 axion", ok,
                  f"m_a(1e9 GeV) = {m_a} eV, f_gw(1e16 GeV) = {f_gw:.4e} Hz, "
                  f"f_a(145 kHz) = {f_a_145:.4e} GeV, {runtime:.2f} s")


def test_criterion_05_sql_identity():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(20):
        sphere = Sphere(radius=float(rng.uniform(0.1e-6, 50e-6)))
        f0 = float(rng.uniform(10.0, 1e5))
        gamma = float(rng.uniform(1e-4, 1e3))
        trap = TrapState(resonant_frequency=f0, damping_rate=gamma,
                         temperature=HBAR * 2.0 * math.pi * f0 / K_B)
        sql = sql_force_asd(sphere, trap).value
        th = thermal_force_asd(sphere, trap).value
        worst = max(worst, abs(sql - th) / th)
    ok = worst < 1e-12
    assert report("05 sql identity", ok,
                  f"worst relative mismatch {worst:.2e} over 20 random points "
                  "(tolerance 1e-12)")


def test_criterion_06_langevin():
    t0 = time.time()
    sphere = BENCH_SPHERE
    trap = TrapState(resonant_frequency=100.0, damping_rate=20.0, temperature=300.0)
    details = []
    ok = True

    # equipartition over 1e6 steps
    cfg = SimulationConfig(time_step=2e-4, duration=200.0, rng_seed=12345,
                           bath_temperature=300.0)
    series = simulate(sphere, trap, cfg)
    skip = int(5.0 / (trap.damping_rate * series.sample_interval))
    var = float(np.var(series.samples[skip:]))
    expected = K_B * 300.0 / (sphere.mass * trap.omega0**2)
    eq_err = abs(var - expected) / expected
    ok &= eq_err < 0.03
    details.append(f"equipartition err {eq_err:.4f} (<0.03)")

    # Lorentzian fit: f0 within 2%, gamma_eff within 10%, and the fitted
    # force ASD invariant under cold damping within 10%
    asds = []
    for g_fb in (0.0, trap.damping_rate, 10.0 * trap.damping_rate):
        run = SimulationConfig(time_step=2e-4, duration=200.0, rng_seed=12345,
                               bath_temperature=300.0, feedback_gain=g_fb)
        fit = fit_lorentzian(estimate_psd(simulate(sphere, trap, run), 8192),
                             sphere.mass, f_range=(20.0, 400.0))
        gamma_eff = trap.damping_rate + g_fb
        f0_err = abs(fit.f0 - 100.0) / 100.0
        g_err = abs(fit.gamma - gamma_eff) / gamma_eff
        ok &= f0_err < 0.02 and g_err < 0.10
        asds.append(fit.force_asd)
        details.append(f"g_fb={g_fb:g}: f0 err {f0_err:.4f}, gamma err {g_err:.4f}")
    ref = thermal_force_asd(sphere, trap).value
    asd_spread = max(abs(a - ref) / ref for a in asds)
    ok &= asd_spread < 0.10
    details.append(f"force-ASD spread under cold damping {asd_spread:.4f} (<0.10)")

    runtime = time.time() - t0
    ok &= runtime < 60.0
    assert report("06 langevin", ok, "; ".join(details) + f"; {runtime:.1f} s")


def test_criterion_07_geometry_oracles():
    t0 = time.time()
    slab_cases, modulated_cases = geometry_regression_grid()
    worst_slab = 0.0
    for sphere, coupling, slab in slab_cases:
        closed = yukawa_force_plane(sphere, coupling, slab).value
        oracle = slab_force_oracle(sphere, coupling, slab)
        worst_slab = max(worst_slab, abs(closed - oracle) / abs(oracle))
    worst_mod = 0.0
    for sphere, coupling, geom in modulated_cases:
        closed = yukawa_force_modulated(sphere, coupling, geom, harmonic=1).value
        oracle = modulated_force_oracle(sphere, coupling, geom, harmonic=1)
        worst_mod = max(worst_mod, abs(closed - oracle) / abs(oracle))
    worst_ff = max(
        abs(sphere_form_factor(x) - form_factor_oracle(x)) / form_factor_oracle(x)
        for x in (0.1, 1.0, 10.0)
    )
    runtime = time.time() - t0
    n_points = len(slab_cases) + len(modulated_cases)
    ok = (worst_slab < 1e-4 and worst_mod < 1e-3 and worst_ff < 1e-6
          and n_points >= 20 and runtime < 300.0)
    assert report("07 geometry oracles", ok,
                  f"{n_points} grid points: slab worst {worst_slab:.2e} (<1e-4), "
                  f"modulated worst {worst_mod:.2e} (<1e-3), form factor worst "
                  f"{worst_ff:.2e} (<1e-6); {runtime:.1f} s")


@pytest.mark.xfail(
    strict=True,
    reason="Born scattering with dsigma/dq ~ q^-3 integrates to a q_min^-2 "
    "rate; the stated q_min^-3 scaling is not physically attainable and is "
    "kept here as an honest failure (see notes/decisions ledger).",
)
def test_criterion_08a_dm_threshold_scaling():
    n = BENCH_SPHERE.nucleon_count
    r1 = mc_dm_rate(n, 5e-20, 1e13, mediator_mass_ev=0.0)
    r2 = mc_dm_rate(n, 2.5e-20, 1e13, mediator_mass_ev=0.0)
    ratio = r2 / r1
    ok = abs(ratio - 8.0) / 8.0 < 0.02
    assert report("08a dm q_min scaling", ok,
                  f"rate(q/2)/rate(q) = {ratio:.4f} (stated target 8 within 2%; "
                  "the physical value is 4, see 08b)")


def test_criterion_08b_dm_rate_and_benchmark():
    t0 = time.time()
    n = BENCH_SPHERE.nucleon_count
    # the physically derived threshold scaling, validated against the MC oracle
    from levkit.limits import dm_rate_above_threshold
    r1 = dm_rate_above_threshold(n, 5e-20, 1e13)
    r2 = dm_rate_above_threshold(n, 2.5e-20, 1e13)
    ratio = r2 / r1
    mc = mc_dm_rate(n, 5e-20, 1e13)
    mc_err = abs(mc - r1) / r1
    scaling_ok = abs(ratio - 4.0) / 4.0 < 0.02 and mc_err < 0.02

    # exposure^(-1/2) scaling within 1%
    plan1 = bench_plan(exposure_sphere_days=1.0)
    plan4 = bench_plan(exposure_sphere_days=4.0)
    exp_ratio = dm_alpha_limit(plan4, 5e-19, 1e12) / dm_alpha_limit(plan1, 5e-19, 1e12)
    exposure_ok = abs(exp_ratio - 0.5) / 0.5 < 0.01

    # shipped benchmark within two orders of magnitude of 1.2e-7 for
    # m_phi <= 0.1 eV across 1-10 TeV
    bench_ok = True
    ratios = []
    for m in (1e12, 10**12.5, 1e13):
        alpha = dm_alpha_limit(plan1, 5e-19, m, mediator_mass_ev=0.1)
        r = alpha / 1.2e-7
        ratios.append(r)
        bench_ok &= 1e-2 <= r <= 1e2
    runtime = time.time() - t0
    ok = scaling_ok and exposure_ok and bench_ok and runtime < 300.0
    assert report("08b dm rate physics", ok,
                  f"rate(q/2)/rate(q) = {ratio:.4f} (q_min^-2: 4 within 2%), "
                  f"MC vs analytic {mc_err:.4f} (<0.02), exposure ratio "
                  f"{exp_ratio:.4f} (0.5 within 1%), benchmark/1.2e-7 at 1-10 TeV = "
                  f"{[f'{r:.3f}' for r in ratios]} (within [1e-2, 1e2]); "
                  f"{runtime:.1f} s")


def test_criterion_09_projection_properties():
    from levkit.newforces import PlaneSlab
    from levkit.limits import Capacitor
    slab = PlaneSlab(thickness=20e-6, density_contrast=19300.0, distance=6e-6)
    cap = Capacitor(voltage=1e4, plate_spacing=1e-3, standoff=100e-6)
    lambdas = [2e-6, 2e-5, 2e-4]
    details = []
    ok = True

    # monotone in noise floor
    def plan_with(asd, **kw):
        return SearchPlan(sphere=BENCH_SPHERE, trap=BENCH_TRAP,
                          noise=NoiseModel({"technical": asd}),
                          integration_time=1e4, **kw)
    quiet = isl_projection(plan_with(1e-18, geometry=slab), lambdas)
    loud = isl_projection(plan_with(5e-18, geometry=slab), lambdas)
    mono = bool(np.all(loud.coupling > quiet.coupling))
    ok &= mono
    details.append(f"monotone in noise floor: {mono}")

    # linear inversion exact: F(alpha_min) == F_min
    plan = plan_with(1e-18, geometry=slab)
    worst_lin = max(
        abs(yukawa_force_plane(
            BENCH_SPHERE, YukawaCoupling(CouplingKind.ISL_ALPHA, a, lam), slab
        ).value - plan.min_force()) / plan.min_force()
        for lam, a in zip(quiet.abscissa, quiet.coupling)
    )
    ok &= worst_lin < 1e-12
    details.append(f"linear inversion err {worst_lin:.1e}")

    # square-root inversion exact and dual-axis consistency 1e-12
    charged = SearchPlan(sphere=Sphere(radius=5e-6, net_charge=100),
                         trap=BENCH_TRAP, noise=NoiseModel({"technical": 1e-18}),
                         integration_time=1e4)
    curve = coulomb_projection(charged, lambdas, cap)
    from levkit.quantities import E_CHARGE
    worst_sqrt = 0.0
    worst_axis = 0.0
    for lam, chi, mass in zip(curve.abscissa, curve.coupling, curve.secondary_abscissa):
        field = capacitor_leakage_field(
            cap.voltage, cap.plate_spacing, cap.standoff,
            YukawaCoupling(CouplingKind.COULOMB_CHI2, chi**2, lam)).value
        force = 100 * E_CHARGE * field
        worst_sqrt = max(worst_sqrt,
                         abs(force - charged.min_force()) / charged.min_force())
        worst_axis = max(worst_axis, abs(mass - HBAR_C / (lam * EV)) / mass)
    ok &= worst_sqrt < 1e-12 and worst_axis < 1e-12
    details.append(f"sqrt inversion err {worst_sqrt:.1e}, dual-axis err {worst_axis:.1e}")

    # capacitor leakage limits
    zero = capacitor_leakage_field(
        1e4, 1e-3, 1e-4, YukawaCoupling(CouplingKind.COULOMB_CHI2, 0.0, 1e-4)).value
    tiny_lam = capacitor_leakage_field(
        1e4, 1e-3, 1e-4, YukawaCoupling(CouplingKind.COULOMB_CHI2, 1.0, 1e-9)).value
    huge_lam = capacitor_leakage_field(
        1e4, 1e-3, 1e-4, YukawaCoupling(CouplingKind.COULOMB_CHI2, 1.0, 1e3)).value
    ref = capacitor_leakage_field(
        1e4, 1e-3, 1e-4, YukawaCoupling(CouplingKind.COULOMB_CHI2, 1.0, 1e-4)).value
    limits_ok = zero == 0.0 and tiny_lam < 1e-30 * ref and huge_lam < 1e-5 * ref
    ok &= limits_ok
    details.append(f"leakage vanishes at chi2=0 and both lambda limits: {limits_ok}")

    assert report("09 projection properties", ok, "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    doc = {
        "schema": "levkit-config/1",
        "sphere": {"radius": "5 um"},
        "trap": {"resonant_frequency": "100 Hz", "damping_rate": "20 1/s",
                 "temperature": "300 K"},
        "simulation": {"time_step": "0.2 ms", "duration": "10 s", "rng_seed": 777,
                       "bath_temperature": "300 K", "record_decimation": 5,
                       "psd_segment_length": 1024},
        "output": {"directory": str(tmp_path / "run")},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(cfg)]) == 0
    first = {
        name: (tmp_path / "run" / name).read_bytes()
        for name in ("trajectory.csv", "psd.csv")
    }
    assert cli_main(["simulate", str(cfg)]) == 0
    second = {
        name: (tmp_path / "run" / name).read_bytes()
        for name in ("trajectory.csv", "psd.csv")
    }
    ok = first == second
    assert report("10 determinism", ok,
                  "repeated simulate runs with the same (seed, config) are "
                  f"byte-identical: {ok}")
