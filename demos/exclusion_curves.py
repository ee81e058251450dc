"""Project new-force exclusion curves for a levitated-sphere experiment.

Covers the three projection chains: a Yukawa correction to gravity from a
density-modulated attractor, a dark-photon correction to Coulomb's law from
a shielded capacitor, and a long-range dark-matter/nucleon coupling from
impulse counting.  Writes the curves as CSV into the working directory.

Run:  python3 demos/exclusion_curves.py
"""

from levkit import (
    Capacitor,
    FingerArray,
    NoiseModel,
    SearchPlan,
    Sphere,
    TrapState,
    coulomb_projection,
    dm_projection,
    isl_projection,
    log_grid,
    millicharge_sensitivity,
    neutrality_sensitivity,
)
from levkit.quantities import Dimension, Quantity

trap = TrapState(resonant_frequency=100.0, damping_rate=0.01, temperature=300.0)
noise = NoiseModel({"technical": 1e-18})

# --- Yukawa deviation from the inverse-square law --------------------------
fingers = FingerArray(finger_width=10e-6, finger_depth=100e-6,
                      density_a=19300.0, density_b=2330.0, distance=15e-6,
                      drive_amplitude=10e-6, drive_frequency=100.0)
isl_plan = SearchPlan(sphere=Sphere(radius=10e-6), trap=trap, noise=noise,
                      integration_time=1e6, geometry=fingers)
isl_curve = isl_projection(isl_plan, log_grid(2e-6, 1e-4, points_per_decade=12))
isl_curve.to_csv("demo_isl.csv")
best = isl_curve.coupling.argmin()
print(f"ISL: best alpha = {isl_curve.coupling[best]:.3e} "
      f"at lambda = {isl_curve.abscissa[best] * 1e6:.1f} um")

# --- dark-photon kinetic mixing against Coulomb's law ----------------------
cap = Capacitor(voltage=1e4, plate_spacing=1e-3, standoff=100e-6)
coulomb_plan = SearchPlan(sphere=Sphere(radius=10e-6, net_charge=1000),
                          trap=trap, noise=noise, integration_time=1e6)
chi_curve = coulomb_projection(coulomb_plan, log_grid(1e-5, 1e-2, 12), cap)
chi_curve.to_csv("demo_coulomb.csv")
print(f"Coulomb: chi down to {chi_curve.coupling.min():.3e} "
      f"(mediator masses {chi_curve.secondary_abscissa.max():.2e} .. "
      f"{chi_curve.secondary_abscissa.min():.2e} eV)")

# --- millicharge / neutrality scalars ---------------------------------------
mc_plan = SearchPlan(sphere=Sphere(radius=5e-6), trap=trap, noise=noise,
                     integration_time=1e4)
print(f"millicharge sensitivity: {millicharge_sensitivity(mc_plan, 1e6).value:.3e} e")
print(f"neutrality bound:        {neutrality_sensitivity(mc_plan, 1e6).value:.3e} /nucleon")

# --- dark matter via nuclear-recoil impulses --------------------------------
dm_plan = SearchPlan(sphere=Sphere(radius=5e-6), trap=trap, noise=noise,
                     integration_time=1e5, exposure_sphere_days=1.0)
dm_curve = dm_projection(dm_plan, log_grid(1e12, 1e13, 12),
                         Quantity(5e-19, Dimension.MOMENTUM),
                         mediator_mass_ev=0.1)
dm_curve.to_csv("demo_dm.csv")
print(f"DM: alpha_n limit {dm_curve.coupling[0]:.3e} at 1 TeV "
      f"(1 sphere-day, q_min = 5e-19 kg m/s)")
