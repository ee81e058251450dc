"""levkit: levitated-sphere force sensing and new-physics sensitivity projections."""

import os

__version__ = "0.1.0"

# Thread budget of the BLAS and OpenMP pools, recorded in every output's
# provenance.  It must reach the environment before numpy is first imported;
# every levkit module, the console script's included, runs this file first.
# A pool variable set beforehand is kept, and the record then names it, so
# "1 (OMP_NUM_THREADS=2)" says what the pools were given, not only the budget.
LEVKIT_THREADS = os.environ.get("LEVKIT_THREADS", "1")
_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _POOLS:
    os.environ.setdefault(_var, LEVKIT_THREADS)
_others = ", ".join(f"{var}={os.environ[var]}" for var in _POOLS
                    if os.environ[var] != LEVKIT_THREADS)
if _others:
    LEVKIT_THREADS = f"{LEVKIT_THREADS} ({_others})"

from .quantities import (  # noqa: F401
    Dimension,
    DimensionError,
    DomainError,
    Quantity,
    convert_mediator_mass_to_range,
    convert_range_to_mediator_mass,
)
from .sensor import (  # noqa: F401
    NoiseModel,
    Sphere,
    TrapState,
    acceleration_asd,
    acceleration_asd_ng,
    induced_dipole,
    min_detectable_force,
    sql_force_asd,
    thermal_force_asd,
)
from .dynamics import (  # noqa: F401
    ImpulseEvent,
    IntegrationError,
    SimulationConfig,
    ThresholdEstimateError,
    TimeSeries,
    estimate_psd,
    fit_lorentzian,
    simulate,
)
from .newforces import (  # noqa: F401
    CasimirEstimate,
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
from .limits import (  # noqa: F401
    Capacitor,
    ExclusionCurve,
    HaloModel,
    SearchPlan,
    axion_decay_constant_for_line,
    axion_gw_line,
    coulomb_projection,
    dm_projection,
    dm_rate_above_threshold,
    isl_projection,
    log_grid,
    millicharge_sensitivity,
    neutrality_sensitivity,
)
