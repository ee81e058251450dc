"""Walk through the force-noise budget of a levitated microsphere sensor.

Builds a 10 um silica sphere in a soft trap, stacks thermal, quantum, and
technical noise contributions, and prints the resulting white force and
acceleration sensitivities.

Run:  python3 demos/noise_budget.py
"""

from levkit import (
    NoiseModel,
    Sphere,
    TrapState,
    acceleration_asd_ng,
    min_detectable_force,
    sql_force_asd,
    thermal_force_asd,
)
from levkit.quantities import Dimension, Quantity

sphere = Sphere(radius=5e-6)
trap = TrapState(resonant_frequency=100.0, damping_rate=0.01, temperature=300.0)

print(f"sphere: r = {sphere.radius * 1e6:.1f} um, m = {sphere.mass * 1e12:.3f} ng, "
      f"N = {sphere.nucleon_count:.3e} nucleons")

thermal = thermal_force_asd(sphere, trap)
sql = sql_force_asd(sphere, trap)
print(f"thermal force ASD: {thermal.value:.3e} N/rtHz")
print(f"SQL force ASD:     {sql.value:.3e} N/rtHz")

noise = NoiseModel({"thermal": thermal.value, "sql": sql.value, "technical": 1e-18})

# Every contribution is white, so one set of levels holds at every frequency.
total = noise.total_asd
ng = acceleration_asd_ng(Quantity(total, Dimension.FORCE_ASD), sphere)
print("\nwhite force-noise levels (N/rtHz), at every frequency:")
for label, level in noise.levels.items():
    print(f"  {label:9s} {level:.2e}")
print(f"  total     {total:.2e}  ({ng:.1f} ng/rtHz)")

for tau in (1.0, 1e4):
    f_min = min_detectable_force(noise, tau)
    print(f"\nminimum detectable force after {tau:g} s: {f_min.value:.3e} N")

# Cold damping: T_eff drops, gamma_eff rises, and their product -- hence the
# thermally limited force sensitivity -- stays put.
cooled = TrapState(resonant_frequency=100.0, damping_rate=0.01,
                   temperature=300.0, feedback_gain=10.0)
print(f"\ncold damping: T_eff = {cooled.effective_temperature * 1e3:.2f} mK, "
      f"gamma_eff = {cooled.effective_damping:.2f} 1/s, "
      f"thermal ASD unchanged = "
      f"{thermal_force_asd(sphere, cooled).value == thermal.value}")
