import json

import pytest

from levkit.config import (
    CONFIG_SCHEMA,
    ConfigError,
    format_unit_string,
    parse_config,
    parse_unit_string,
)
from levkit.quantities import Dimension


def minimal_doc():
    return {
        "schema": CONFIG_SCHEMA,
        "sphere": {"radius": "5 um"},
        "trap": {
            "resonant_frequency": "100 Hz",
            "damping_rate": "0.01 1/s",
            "temperature": "300 K",
        },
    }


# ------------------------------------------------------------------- unit parsing

@pytest.mark.parametrize("raw,dim,expected", [
    ("5 um", Dimension.LENGTH, 5e-6),
    ("2.5 mm", Dimension.LENGTH, 2.5e-3),
    ("1 kV/mm", Dimension.ELECTRIC_FIELD, 1e6),
    ("300 K", Dimension.TEMPERATURE, 300.0),
    ("1e-18 N/Hz^0.5", Dimension.FORCE_ASD, 1e-18),
    ("3 aN/Hz^0.5", Dimension.FORCE_ASD, 3e-18),
    ("1 TeV", Dimension.ENERGY, 1e12),
    ("5.7 meV", Dimension.ENERGY, 5.7e-3),
    ("2 days", Dimension.TIME, 172800.0),
    ("1 g/cm^3", Dimension.DENSITY, 1000.0),
    ("5e-19 kg*m/s", Dimension.MOMENTUM, 5e-19),
])
def test_parse_unit_string(raw, dim, expected):
    assert parse_unit_string(raw, dim, "x") == pytest.approx(expected, rel=1e-15)


def test_parse_unit_string_rejects_bare_number():
    with pytest.raises(ConfigError, match="sphere.radius"):
        parse_unit_string(5e-6, Dimension.LENGTH, "sphere.radius")


def test_parse_unit_string_rejects_wrong_dimension():
    with pytest.raises(ConfigError, match="dimension"):
        parse_unit_string("5 s", Dimension.LENGTH, "x")


def test_parse_unit_string_rejects_unknown_unit():
    with pytest.raises(ConfigError, match="unknown unit"):
        parse_unit_string("5 furlongs", Dimension.LENGTH, "x")


def test_format_round_trips_through_parse():
    text = format_unit_string(5e-6, Dimension.LENGTH)
    assert parse_unit_string(text, Dimension.LENGTH, "x") == 5e-6


# ------------------------------------------------------------------- schema checks

def test_schema_field_required():
    doc = minimal_doc()
    doc["schema"] = "levkit-config/999"
    with pytest.raises(ConfigError, match="schema"):
        parse_config(doc)


def test_unknown_top_level_key_rejected():
    doc = minimal_doc()
    doc["mystery"] = {}
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(doc)


def test_unknown_nested_key_reported_with_path():
    # No noise level depends on frequency, so a measurement frequency is no key.
    for section, key in (("sphere", "colour"), ("plan", "measurement_frequency")):
        doc = minimal_doc()
        doc.setdefault(section, {})[key] = "blue"
        with pytest.raises(ConfigError, match=rf"{section}: unknown keys \['{key}'\]"):
            parse_config(doc)


def test_missing_required_key_reported_with_path():
    doc = minimal_doc()
    del doc["trap"]["temperature"]
    with pytest.raises(ConfigError, match=r"trap\.temperature"):
        parse_config(doc)


def test_minimal_config_parses():
    cfg = parse_config(minimal_doc())
    assert cfg.sphere.radius == pytest.approx(5e-6, rel=1e-15)
    assert cfg.trap.resonant_frequency == 100.0
    assert cfg.noise is None


def test_noise_needs_sphere_and_trap():
    doc = {"schema": CONFIG_SCHEMA, "noise": {"include_thermal": True}}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_simulation_and_impulses():
    doc = minimal_doc()
    doc["simulation"] = {
        "time_step": "0.2 ms",
        "duration": "60 s",
        "rng_seed": 7,
        "bath_temperature": "300 K",
        "impulses": [
            {"time": "1 s", "momentum_transfer": "1e-19 kg*m/s", "direction": -1},
        ],
    }
    cfg = parse_config(doc)
    assert cfg.simulation.time_step == pytest.approx(2e-4)
    assert cfg.impulses[0].direction == -1


def test_geometry_dispatch():
    doc = minimal_doc()
    doc["geometry"] = {
        "type": "plane_slab",
        "thickness": "20 um",
        "density_contrast": "19300 kg/m^3",
        "distance": "6 um",
    }
    cfg = parse_config(doc)
    assert cfg.geometry.thickness == pytest.approx(20e-6)
    doc["geometry"]["type"] = "hyperboloid"
    with pytest.raises(ConfigError, match="hyperboloid"):
        parse_config(doc)


# ------------------------------------------------------------------- normalization

def test_normalize_is_fixed_point():
    doc = minimal_doc()
    doc["noise"] = {"include_thermal": True, "technical_force_asd": "1 aN/Hz^0.5"}
    doc["plan"] = {"integration_time": "1e4 s", "drive_field": "1 kV/mm"}
    once = parse_config(doc).normalized()
    twice = parse_config(once).normalized()
    assert once == twice
    # normalization converts to canonical SI units
    assert once["sphere"]["radius"].endswith(" m")
    assert float(once["sphere"]["radius"].split()[0]) == pytest.approx(5e-6, rel=1e-15)
    assert once["plan"]["drive_field"] == "1000000.0 V/m"
    assert once["noise"]["technical_force_asd"] == "1e-18 N/Hz^0.5"


def test_normalized_config_parses_identically():
    doc = minimal_doc()
    doc["capacitor"] = {"voltage": "10 kV", "plate_spacing": "1 mm",
                        "standoff": "100 um"}
    a = parse_config(doc)
    b = parse_config(parse_config(doc).normalized())
    assert a.sphere == b.sphere
    assert a.trap == b.trap
    assert a.capacitor == b.capacitor


def test_shipped_benchmark_configs_parse():
    from levkit.cli import BENCHMARK_RUNS, _config_dir
    for name, _cmd in BENCHMARK_RUNS:
        with open(_config_dir() / name, encoding="utf-8") as fh:
            doc = json.load(fh)
        cfg = parse_config(doc)
        assert cfg.sphere is not None


# ------------------------------------------------------------------- golden normalization

def all_fields_doc():
    """Every section and every key, in mixed (non-canonical) units."""
    return {
        "schema": CONFIG_SCHEMA,
        "sphere": {"radius": "7.5 um", "density": "2.2 g/cm^3", "relative_permittivity": 4,
                   "net_charge": -12, "material_label": "fused silica"},
        "trap": {"resonant_frequency": "0.15 kHz", "damping_rate": "3e-2 1/s",
                 "temperature": "295.5 K", "feedback_gain": "12.5 1/s"},
        "noise": {"include_thermal": True, "include_sql": True,
                  "technical_force_asd": "2.5 aN/Hz^0.5"},
        "simulation": {
            "time_step": "100 us", "duration": "1.5 days", "rng_seed": 123,
            "bath_temperature": "4 K", "feedback_gain": "7 1/s", "record_decimation": 3,
            "allow_short_run": True, "psd_segment_length": 4096,
            "false_alarm_rate": "0.01 1/s",
            "impulses": [
                {"time": "250 ms", "momentum_transfer": "1e-18 kg*m/s", "direction": -1},
                {"time": "3 s", "momentum_transfer": "5e-19 kg*m/s"},
            ],
        },
        "geometry": {"type": "finger_array", "finger_width": "25 um", "finger_depth": "0.1 mm",
                     "density_a": "19.3 g/cm^3", "density_b": "2330 kg/m^3",
                     "distance": "20 um", "drive_amplitude": "12 um",
                     "drive_frequency": "0.1 kHz", "n_finger_pairs": 30},
        "capacitor": {"voltage": "2.5 kV", "plate_spacing": "0.5 mm", "standoff": "80 um"},
        "halo": {"density_gev_cm3": 0.4, "v0": "230 km/s", "v_escape": "544 km/s",
                 "v_earth": "232.5 km/s"},
        "plan": {"integration_time": "3 days", "significance": 2, "array_size": 100,
                 "exposure_sphere_days": "1 yr", "drive_field": "2 kV/mm",
                 "polarizing_field": "50 V/mm",
                 "lambda_min": "500 nm", "lambda_max": "1 cm", "points_per_decade": 15,
                 "q_min": "3e-19 kg*m/s", "dm_mass_min": "500 GeV", "dm_mass_max": "20 TeV",
                 "mediator_mass": "5 meV"},
        "output": {"directory": "figs/out", "frequency_min": "0.5 Hz",
                   "frequency_max": "5 kHz", "frequency_points": 321},
    }


ALL_FIELDS_NORMALIZED = {
    "schema": "levkit-config/1",
    "sphere": {"density": "2200.0 kg/m^3", "material_label": "fused silica",
               "net_charge": -12, "radius": "7.499999999999999e-06 m",
               "relative_permittivity": 4.0},
    "trap": {"damping_rate": "0.03 Hz", "feedback_gain": "12.5 Hz",
             "resonant_frequency": "150.0 Hz", "temperature": "295.5 K"},
    "noise": {"include_sql": True, "include_thermal": True,
              "technical_force_asd": "2.5e-18 N/Hz^0.5"},
    "simulation": {
        "allow_short_run": True, "bath_temperature": "4.0 K", "duration": "129600.0 s",
        "false_alarm_rate": "0.01 Hz", "feedback_gain": "7.0 Hz",
        "impulses": [
            {"direction": -1, "momentum_transfer": "1e-18 kg*m/s", "time": "0.25 s"},
            {"direction": 1, "momentum_transfer": "5e-19 kg*m/s", "time": "3.0 s"},
        ],
        "psd_segment_length": 4096, "record_decimation": 3, "rng_seed": 123,
        "time_step": "9.999999999999999e-05 s",
    },
    "geometry": {"type": "finger_array", "density_a": "19300.0 kg/m^3",
                 "density_b": "2330.0 kg/m^3", "distance": "1.9999999999999998e-05 m",
                 "drive_amplitude": "1.2e-05 m", "drive_frequency": "100.0 Hz",
                 "finger_depth": "0.0001 m", "finger_width": "2.4999999999999998e-05 m",
                 "n_finger_pairs": 30},
    "capacitor": {"plate_spacing": "0.0005 m", "standoff": "7.999999999999999e-05 m",
                  "voltage": "2500.0 V"},
    "halo": {"density_gev_cm3": 0.4, "v0": "230.0 km/s", "v_earth": "232.5 km/s",
             "v_escape": "544.0 km/s"},
    "plan": {"array_size": 100, "dm_mass_max": "20000000000000.0 eV",
             "dm_mass_min": "500000000000.0 eV", "drive_field": "2000000.0 V/m",
             "exposure_sphere_days": "31536000.0 s", "integration_time": "259200.0 s",
             "lambda_max": "0.01 m", "lambda_min": "5.000000000000001e-07 m",
             "mediator_mass": "0.005 eV",
             "points_per_decade": 15, "polarizing_field": "50000.0 V/m",
             "q_min": "3e-19 kg*m/s", "significance": 2.0},
    "output": {"directory": "figs/out", "frequency_max": "5000.0 Hz",
               "frequency_min": "0.5 Hz", "frequency_points": 321},
}


def test_normalize_all_fields_golden():
    assert parse_config(all_fields_doc()).normalized() == ALL_FIELDS_NORMALIZED


def test_normalize_other_geometries_golden():
    doc = all_fields_doc()
    doc["geometry"] = {"type": "plane_slab", "thickness": "20 um",
                       "density_contrast": "19300 kg/m^3", "distance": "6 um"}
    assert parse_config(doc).normalized()["geometry"] == {
        "type": "plane_slab", "density_contrast": "19300.0 kg/m^3",
        "distance": "6e-06 m", "thickness": "1.9999999999999998e-05 m"}
    doc["geometry"] = {"type": "fluid_capillary", "inner_diameter": "10 um",
                       "droplet_length": "40 um", "density_a": "3 g/cm^3",
                       "density_b": "800 kg/m^3", "distance": "12 um",
                       "modulation_frequency": "50 Hz"}
    assert parse_config(doc).normalized()["geometry"] == {
        "type": "fluid_capillary", "density_a": "3000.0 kg/m^3",
        "density_b": "800.0 kg/m^3", "distance": "1.2e-05 m",
        "droplet_length": "3.9999999999999996e-05 m",
        "inner_diameter": "9.999999999999999e-06 m",
        "modulation_frequency": "50.0 Hz", "n_droplet_pairs": 40}


def test_normalize_fills_defaults_golden():
    doc = {
        "schema": CONFIG_SCHEMA,
        "sphere": {"radius": "5 um"},
        "trap": {"resonant_frequency": "100 Hz", "damping_rate": "0.1 1/s",
                 "temperature": "300 K"},
        "noise": {"include_sql": True},
        "halo": {},
        "plan": {"integration_time": "1 s"},
        "simulation": {"time_step": "0.1 ms", "duration": "1 s", "rng_seed": 1,
                       "bath_temperature": "300 K", "impulses": []},
        "output": {"directory": "d"},
    }
    assert parse_config(doc).normalized() == {
        "schema": "levkit-config/1",
        "sphere": {"density": "1850.0 kg/m^3", "material_label": "silica", "net_charge": 0,
                   "radius": "4.9999999999999996e-06 m", "relative_permittivity": 3.9},
        "trap": {"damping_rate": "0.1 Hz", "feedback_gain": "0.0 Hz",
                 "resonant_frequency": "100.0 Hz", "temperature": "300.0 K"},
        "noise": {"include_sql": True, "include_thermal": False},
        "halo": {"density_gev_cm3": 0.3, "v0": "220.0 km/s", "v_earth": "230.0 km/s",
                 "v_escape": "550.0 km/s"},
        "plan": {"array_size": 1, "exposure_sphere_days": "0.0 s",
                 "integration_time": "1.0 s", "significance": 1.0},
        "simulation": {"allow_short_run": False, "bath_temperature": "300.0 K",
                       "duration": "1.0 s", "feedback_gain": "0.0 Hz",
                       "record_decimation": 1, "rng_seed": 1, "time_step": "0.0001 s"},
        "output": {"directory": "d"},
    }


def _shipped_docs():
    from levkit.cli import _config_dir
    for path in sorted(_config_dir().glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            yield path.name, json.load(fh)


def test_shipped_configs_normalize_to_fixed_points():
    for name, doc in _shipped_docs():
        once = parse_config(doc).normalized()
        assert parse_config(once).normalized() == once, name
        a, b = parse_config(doc), parse_config(once)
        for attr in ("sphere", "trap", "simulation", "impulses", "psd_segment_length",
                     "false_alarm_rate", "geometry", "capacitor", "halo", "plan_section",
                     "output_section", "noise"):
            assert getattr(a, attr) == getattr(b, attr), (name, attr)


# ------------------------------------------------------------------- strict values

@pytest.mark.parametrize("section,key,raw", [
    ("noise", "include_thermal", "no"),
    ("noise", "include_sql", 1),
    ("simulation", "allow_short_run", "false"),
])
def test_booleans_are_strict(section, key, raw):
    doc = minimal_doc()
    doc["noise"] = {"technical_force_asd": "1 aN/Hz^0.5"}
    doc["simulation"] = {"time_step": "0.2 ms", "duration": "60 s", "rng_seed": 7,
                         "bath_temperature": "300 K"}
    doc[section][key] = raw
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        parse_config(doc)


@pytest.mark.parametrize("raw", ["nan km/s", "-550km/s", "220km/s", "550 m/s", 550])
def test_halo_speed_must_be_a_finite_km_per_s_string(raw):
    doc = minimal_doc()
    doc["halo"] = {"v_escape": raw}
    with pytest.raises(ConfigError, match=r"halo\.v_escape"):
        parse_config(doc)


def test_halo_speed_and_density_must_be_positive():
    from levkit.quantities import DomainError
    doc = minimal_doc()
    doc["halo"] = {"v_escape": "-550 km/s"}
    with pytest.raises(DomainError):
        parse_config(doc)
    doc["halo"] = {"density_gev_cm3": 0}
    with pytest.raises(DomainError):
        parse_config(doc)
    doc["halo"] = {"v0": "220 km/s"}
    assert parse_config(doc).halo.v0 == 220e3


def test_impulses_must_be_a_list():
    doc = minimal_doc()
    doc["simulation"] = {"time_step": "0.2 ms", "duration": "60 s", "rng_seed": 7,
                         "bath_temperature": "300 K", "impulses": 5}
    with pytest.raises(ConfigError, match=r"simulation\.impulses"):
        parse_config(doc)
    doc["simulation"]["impulses"] = [{"time": "1 s"}]
    with pytest.raises(ConfigError, match=r"simulation\.impulses\[0\]\.momentum_transfer"):
        parse_config(doc)


def test_geometry_type_required():
    doc = minimal_doc()
    doc["geometry"] = {"thickness": "20 um"}
    with pytest.raises(ConfigError, match=r"geometry\.type"):
        parse_config(doc)
    doc["geometry"] = {"type": "plane_slab", "thickness": "20 um",
                       "density_contrast": "1 g/cm^3", "distance": "6 um", "n_finger_pairs": 3}
    with pytest.raises(ConfigError, match="n_finger_pairs"):
        parse_config(doc)


def test_load_config_rejects_invalid_utf8(tmp_path):
    from levkit.config import load_config
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"schema": "\xff"}')
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(path)
