"""Strict run-configuration parsing for the command-line front end.

A run config is a UTF-8 JSON document, schema "levkit-config/1".  Every
physical value is a string with an explicit unit suffix ("radius": "5 um");
bare numbers are allowed only for dimensionless fields.  Unknown keys are
rejected and missing required keys are reported with their full path, so a
config never silently does something other than what it says.

One table, ``_FIELDS``, describes every key once; it drives parsing,
unknown-key rejection and the canonical re-emission of the parsed values.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

from .quantities import Dimension
from .sensor import NoiseModel, Sphere, TrapState, sql_force_asd, thermal_force_asd
from .dynamics import ImpulseEvent, SimulationConfig
from .newforces import FingerArray, FluidCapillary, PlaneSlab
from .limits import Capacitor, HaloModel, SearchPlan

CONFIG_SCHEMA = "levkit-config/1"


class ConfigError(ValueError):
    """Config parse/validation failure; message carries the full key path."""


# dimension -> {unit token: factor to SI}; the first unit of each dimension is
# the canonical one that normalize-config emits
_UNIT_FACTORS = {
    Dimension.LENGTH: {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    Dimension.TIME: {"s": 1.0, "ms": 1e-3, "us": 1e-6, "day": 86400.0, "days": 86400.0,
                     "yr": 365.0 * 86400.0},
    Dimension.VELOCITY: {"km/s": 1e3},                       # halo speeds
    Dimension.FREQUENCY: {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "1/s": 1.0},  # 1/s: rates
    Dimension.TEMPERATURE: {"K": 1.0, "mK": 1e-3, "uK": 1e-6},
    Dimension.MASS: {"kg": 1.0, "g": 1e-3, "ng": 1e-12},
    Dimension.DENSITY: {"kg/m^3": 1.0, "g/cm^3": 1e3},
    Dimension.VOLTAGE: {"V": 1.0, "kV": 1e3},
    Dimension.ELECTRIC_FIELD: {"V/m": 1.0, "kV/m": 1e3, "kV/mm": 1e6, "V/mm": 1e3},
    Dimension.FORCE: {"N": 1.0, "aN": 1e-18},
    Dimension.FORCE_ASD: {"N/Hz^0.5": 1.0, "aN/Hz^0.5": 1e-18},
    Dimension.ENERGY: {"eV": 1.0, "meV": 1e-3, "keV": 1e3, "MeV": 1e6, "GeV": 1e9,
                       "TeV": 1e12},                         # particle physics stays in eV
    Dimension.MOMENTUM: {"kg*m/s": 1.0},
    Dimension.CHARGE: {"e": 1.0},                            # charges counted in units of e
}
# unit token -> (dimension, factor to SI)
_UNITS = {unit: (dim, factor) for dim, units in _UNIT_FACTORS.items()
          for unit, factor in units.items()}


def parse_unit_string(raw: Any, dimension: Dimension, path: str) -> float:
    """Parse '<number> <unit>' into an SI value of the expected dimension."""
    if not isinstance(raw, str):
        raise ConfigError(f"{path}: expected a unit-suffixed string like '5 um', got {raw!r}")
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError(f"{path}: expected '<value> <unit>', got {raw!r}")
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(f"{path}: {parts[0]!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: non-finite value {parts[0]!r}")
    unit = parts[1]
    if unit not in _UNITS:
        raise ConfigError(f"{path}: unknown unit {unit!r}")
    dim, factor = _UNITS[unit]
    if dim is not dimension:
        raise ConfigError(f"{path}: unit {unit!r} has dimension {dim.value}, "
                          f"expected {dimension.value}")
    return value * factor


def format_unit_string(si_value: float, dimension: Dimension) -> str:
    unit, factor = next(iter(_UNIT_FACTORS[dimension].items()))
    return f"{si_value / factor!r} {unit}"


_Records = namedtuple("_Records", "section")

# Bare (dimensionless) kinds: (accepts the JSON value?, what was expected).
_BARE = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v), "a finite bare number (dimensionless)"),
    str: (lambda v: isinstance(v, str), "a string"),
}

# (section, key, kind, required, default).  A kind is a Dimension, a type of
# _BARE, a unit token (the value is held in that unit, not SI) or _Records.
# Section "geometry/<type>" is the geometry of that type.  A field with a default
# is always re-emitted, one without only when given.  Defaults name the
# constructors' own: a dataclass field's default is its class attribute.
_FIELDS = (
    ("sphere", "radius", Dimension.LENGTH, True, None),
    ("sphere", "density", Dimension.DENSITY, False, Sphere.density),
    ("sphere", "relative_permittivity", float, False, Sphere.relative_permittivity),
    ("sphere", "net_charge", int, False, Sphere.net_charge),
    ("sphere", "material_label", str, False, Sphere.material_label),
    ("trap", "resonant_frequency", Dimension.FREQUENCY, True, None),
    ("trap", "damping_rate", Dimension.FREQUENCY, True, None),
    ("trap", "temperature", Dimension.TEMPERATURE, True, None),
    ("trap", "feedback_gain", Dimension.FREQUENCY, False, TrapState.feedback_gain),
    ("noise", "include_thermal", bool, False, False),
    ("noise", "include_sql", bool, False, False),
    ("noise", "technical_force_asd", Dimension.FORCE_ASD, False, None),
    ("simulation", "time_step", Dimension.TIME, True, None),
    ("simulation", "duration", Dimension.TIME, True, None),
    ("simulation", "rng_seed", int, True, None),
    ("simulation", "bath_temperature", Dimension.TEMPERATURE, True, None),
    ("simulation", "feedback_gain", Dimension.FREQUENCY, False, SimulationConfig.feedback_gain),
    ("simulation", "record_decimation", int, False, SimulationConfig.record_decimation),
    ("simulation", "allow_short_run", bool, False, SimulationConfig.allow_short_run),
    ("simulation", "impulses", _Records("simulation.impulses"), False, None),
    ("simulation", "psd_segment_length", int, False, None),
    ("simulation", "false_alarm_rate", Dimension.FREQUENCY, False, None),
    ("simulation.impulses", "time", Dimension.TIME, True, None),
    ("simulation.impulses", "momentum_transfer", Dimension.MOMENTUM, True, None),
    ("simulation.impulses", "direction", int, False, ImpulseEvent.direction),
    ("geometry/plane_slab", "thickness", Dimension.LENGTH, True, None),
    ("geometry/plane_slab", "density_contrast", Dimension.DENSITY, True, None),
    ("geometry/plane_slab", "distance", Dimension.LENGTH, True, None),
    ("geometry/finger_array", "finger_width", Dimension.LENGTH, True, None),
    ("geometry/finger_array", "finger_depth", Dimension.LENGTH, True, None),
    ("geometry/finger_array", "density_a", Dimension.DENSITY, True, None),
    ("geometry/finger_array", "density_b", Dimension.DENSITY, True, None),
    ("geometry/finger_array", "distance", Dimension.LENGTH, True, None),
    ("geometry/finger_array", "drive_amplitude", Dimension.LENGTH, True, None),
    ("geometry/finger_array", "drive_frequency", Dimension.FREQUENCY, True, None),
    ("geometry/finger_array", "n_finger_pairs", int, False, FingerArray.n_finger_pairs),
    ("geometry/fluid_capillary", "inner_diameter", Dimension.LENGTH, True, None),
    ("geometry/fluid_capillary", "droplet_length", Dimension.LENGTH, True, None),
    ("geometry/fluid_capillary", "density_a", Dimension.DENSITY, True, None),
    ("geometry/fluid_capillary", "density_b", Dimension.DENSITY, True, None),
    ("geometry/fluid_capillary", "distance", Dimension.LENGTH, True, None),
    ("geometry/fluid_capillary", "modulation_frequency", Dimension.FREQUENCY, True, None),
    ("geometry/fluid_capillary", "n_droplet_pairs", int, False, FluidCapillary.n_droplet_pairs),
    ("capacitor", "voltage", Dimension.VOLTAGE, True, None),
    ("capacitor", "plate_spacing", Dimension.LENGTH, True, None),
    ("capacitor", "standoff", Dimension.LENGTH, True, None),
    ("halo", "density_gev_cm3", float, False, HaloModel.density_gev_cm3),
    ("halo", "v0", Dimension.VELOCITY, False, HaloModel.v0),
    ("halo", "v_escape", Dimension.VELOCITY, False, HaloModel.v_escape),
    ("halo", "v_earth", Dimension.VELOCITY, False, HaloModel.v_earth),
    ("plan", "integration_time", Dimension.TIME, True, None),
    ("plan", "significance", float, False, SearchPlan.significance),
    ("plan", "array_size", int, False, SearchPlan.array_size),
    ("plan", "exposure_sphere_days", "days", False, SearchPlan.exposure_sphere_days),
    ("plan", "measurement_frequency", Dimension.FREQUENCY, False, None),
    ("plan", "drive_field", Dimension.ELECTRIC_FIELD, False, None),
    ("plan", "polarizing_field", Dimension.ELECTRIC_FIELD, False, None),
    ("plan", "lambda_min", Dimension.LENGTH, False, None),
    ("plan", "lambda_max", Dimension.LENGTH, False, None),
    ("plan", "points_per_decade", int, False, None),
    ("plan", "q_min", Dimension.MOMENTUM, False, None),
    ("plan", "dm_mass_min", Dimension.ENERGY, False, None),
    ("plan", "dm_mass_max", Dimension.ENERGY, False, None),
    ("plan", "mediator_mass", Dimension.ENERGY, False, None),
    ("output", "directory", str, True, None),
    ("output", "frequency_min", Dimension.FREQUENCY, False, None),
    ("output", "frequency_max", Dimension.FREQUENCY, False, None),
    ("output", "frequency_points", int, False, None),
)

_TABLE: dict = {}
for _row in _FIELDS:
    _TABLE.setdefault(_row[0], {})[_row[1]] = _row[2:]

# Top-level sections, in table order; record section "a.b" is a list inside "a".
_SECTIONS = tuple(dict.fromkeys(name.split("/")[0] for name in _TABLE if "." not in name))

# table section -> the object built from the values that name its fields
_OBJECTS = {"sphere": Sphere, "trap": TrapState, "simulation": SimulationConfig,
            "capacitor": Capacitor, "halo": HaloModel, "geometry/plane_slab": PlaneSlab,
            "geometry/finger_array": FingerArray, "geometry/fluid_capillary": FluidCapillary}


def _section_of(name: str, sec: dict, path: str) -> str:
    """The table section of config section ``name``; geometry is keyed by its type."""
    if not isinstance(sec, dict):
        raise ConfigError(f"{path}: expected an object")
    if name in _TABLE:
        return name
    if "type" not in sec:
        raise ConfigError(f"missing required key: {path}.type")
    variant = f"{name}/{sec['type']}"
    if variant not in _TABLE:
        raise ConfigError(f"{path}.type: unknown {name} {sec['type']!r}")
    return variant


def _check_keys(sec: Any, allowed, path: str):
    if not isinstance(sec, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(sec) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _parse_value(kind, raw: Any, path: str):
    if isinstance(kind, Dimension):
        return parse_unit_string(raw, kind, path)
    if isinstance(kind, str):
        return parse_unit_string(raw, _UNITS[kind][0], path) / _UNITS[kind][1]
    if isinstance(kind, _Records):
        if not isinstance(raw, list):
            raise ConfigError(f"{path}: expected a list of objects, got {raw!r}")
        return tuple(_parse_section(kind.section, item, f"{path}[{i}]")
                     for i, item in enumerate(raw))
    accepts, expected = _BARE[kind]
    if not accepts(raw):
        raise ConfigError(f"{path}: expected {expected}, got {raw!r}")
    return kind(raw)


def _parse_section(name: str, sec: Any, path: str) -> dict:
    """SI values of one section: the keys given, plus the defaults of the rest."""
    section = _section_of(name, sec, path)
    values = {} if section == name else {"type": sec["type"]}
    _check_keys(sec, [*values, *_TABLE[section]], path)
    for key, (kind, required, default) in _TABLE[section].items():
        if key in sec:
            values[key] = _parse_value(kind, sec[key], f"{path}.{key}")
        elif required:
            raise ConfigError(f"missing required key: {path}.{key}")
        elif default is not None:
            values[key] = default
    return values


def _emit_value(kind, value):
    if isinstance(kind, Dimension):
        return format_unit_string(value, kind)
    if isinstance(kind, str):
        return format_unit_string(value * _UNITS[kind][1], _UNITS[kind][0])
    if isinstance(kind, _Records):
        return [_emit_section(kind.section, item) for item in value]
    return value


def _emit_section(name: str, values: dict) -> dict:
    table = _TABLE[_section_of(name, values, name)]   # an empty record list is dropped
    return {key: value if key not in table else _emit_value(table[key][0], value)
            for key, value in values.items() if value != ()}


def _build(cls, values: dict):
    """``cls`` constructed from the values that name its fields."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def _noise_model(sec: dict, sphere: Optional[Sphere], trap: Optional[TrapState]):
    if sphere is None or trap is None:
        raise ConfigError("noise: requires sphere and trap sections")
    levels = []
    if sec["include_thermal"]:
        levels.append(("thermal", thermal_force_asd(sphere, trap).value))
    if sec["include_sql"]:
        levels.append(("sql", sql_force_asd(sphere, trap).value))
    if "technical_force_asd" in sec:
        levels.append(("technical", sec["technical_force_asd"]))
    if not levels:
        raise ConfigError("noise: at least one contribution must be enabled")
    return NoiseModel([(label, lambda f, _l=level: _l) for label, level in levels])


@dataclass
class RunConfig:
    """Parsed, validated run configuration."""

    sphere: Optional[Sphere] = None
    trap: Optional[TrapState] = None
    noise: Optional[NoiseModel] = None
    simulation: Optional[SimulationConfig] = None
    impulses: tuple = ()
    psd_segment_length: Optional[int] = None
    false_alarm_rate: Optional[float] = None
    geometry: object = None
    capacitor: Optional[Capacitor] = None
    halo: Optional[HaloModel] = None
    plan_section: Optional[dict] = None
    output_section: Optional[dict] = None
    values: dict = field(default_factory=dict)   # section -> parsed SI values

    def require(self, *names: str):
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"this command needs the '{name}' config section")

    def build_plan(self) -> SearchPlan:
        self.require("sphere", "trap", "noise", "plan_section")
        parts = {"sphere": self.sphere, "trap": self.trap, "noise": self.noise,
                 "geometry": self.geometry, "halo": self.halo or HaloModel()}
        return _build(SearchPlan, {**self.plan_section, **parts})

    def normalized(self) -> dict:
        """The config re-emitted with canonical SI unit strings."""
        return {"schema": CONFIG_SCHEMA,
                **{name: _emit_section(name, sec) for name, sec in self.values.items()}}


def parse_config(doc: dict) -> RunConfig:
    _check_keys(doc, ["schema", *_SECTIONS], "config")
    if doc.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config.schema: expected {CONFIG_SCHEMA!r}, "
                          f"got {doc.get('schema')!r}")
    values = {name: _parse_section(name, doc[name], name)
              for name in _SECTIONS if name in doc}
    cfg = RunConfig(values=values)
    for name, sec in values.items():
        cls = _OBJECTS.get(_section_of(name, sec, name))
        if cls is not None:
            setattr(cfg, name, _build(cls, sec))
    if "noise" in values:
        cfg.noise = _noise_model(values["noise"], cfg.sphere, cfg.trap)
    run = values.get("simulation", {})
    cfg.impulses = tuple(_build(ImpulseEvent, ev) for ev in run.get("impulses", ()))
    cfg.psd_segment_length = run.get("psd_segment_length")
    cfg.false_alarm_rate = run.get("false_alarm_rate")
    cfg.plan_section = values.get("plan")
    cfg.output_section = values.get("output")
    return cfg


def load_config(path) -> RunConfig:
    """Read and parse a config file; undecodable or malformed text is a ConfigError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from None
    return parse_config(doc)

