import copy
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import levkit
from levkit import _scipy, cli, config
from levkit.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, _config_dir, main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(outdir):
    return {
        "schema": "levkit-config/1",
        "sphere": {"radius": "5 um"},
        "trap": {
            "resonant_frequency": "100 Hz",
            "damping_rate": "20 1/s",
            "temperature": "300 K",
        },
        "noise": {"include_thermal": True, "technical_force_asd": "1e-18 N/Hz^0.5"},
        "output": {"directory": str(outdir), "frequency_min": "1 Hz",
                   "frequency_max": "1 kHz", "frequency_points": 50},
    }


def test_noise_budget_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(tmp_path / "out"))
    assert main(["noise-budget", cfg]) == EXIT_OK
    out = tmp_path / "out" / "noise_budget.csv"
    text = out.read_text()
    assert text.startswith("# levkit_version")
    assert "# command = noise-budget" in text
    assert "# config = " in text
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(rows) == 50
    # columns: frequency, thermal, technical, total, acceleration
    assert len(rows[0].split(",")) == 5


def test_noise_budget_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_doc(tmp_path / "out"))
    main(["noise-budget", cfg])
    first = (tmp_path / "out" / "noise_budget.csv").read_bytes()
    main(["noise-budget", cfg])
    assert (tmp_path / "out" / "noise_budget.csv").read_bytes() == first


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["noise-budget", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["noise-budget", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    doc = base_doc(tmp_path / "out")
    doc["sphere"]["wobble"] = 3
    assert main(["noise-budget", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert "wobble" in capsys.readouterr().err


def simulate_doc(outdir, seed=99):
    doc = base_doc(outdir)
    doc["simulation"] = {
        "time_step": "0.2 ms",
        "duration": "10 s",
        "rng_seed": seed,
        "bath_temperature": "300 K",
        "record_decimation": 10,
    }
    return doc


def test_simulate_writes_trajectory_and_psd(tmp_path, capsys):
    doc = simulate_doc(tmp_path / "out")
    doc["simulation"]["psd_segment_length"] = 1024
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_OK
    assert (tmp_path / "out" / "trajectory.csv").exists()
    psd = (tmp_path / "out" / "psd.csv").read_text()
    assert "displacement_psd" in psd
    assert "equipartition temperature" in capsys.readouterr().out


def test_psd_segment_longer_than_record_writes_nothing(tmp_path, capsys):
    """The PSD is checked before the trajectory is written: exit 2, no output."""
    out = tmp_path / "out"
    doc = simulate_doc(out)
    doc["simulation"]["psd_segment_length"] = 8192   # the record has 5000 samples
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: series of 5000 samples shorter than one segment")
    assert not out.exists()


def test_simulate_deterministic_across_reruns(tmp_path):
    doc = simulate_doc(tmp_path / "a")
    main(["simulate", write_config(tmp_path, doc, "a.json")])
    doc_b = simulate_doc(tmp_path / "b")
    main(["simulate", write_config(tmp_path, doc_b, "b.json")])
    a = (tmp_path / "a" / "trajectory.csv").read_text().splitlines()
    b = (tmp_path / "b" / "trajectory.csv").read_text().splitlines()
    # identical apart from the provenance header naming the output directory
    assert [x for x in a if not x.startswith("#")] == [
        x for x in b if not x.startswith("#")]


def test_simulate_reads_cold_damping_from_trap_and_simulation(tmp_path, capsys):
    """A trap's feedback_gain damps the run as the simulation's does."""
    in_trap = simulate_doc(tmp_path / "a")
    in_trap["trap"]["feedback_gain"] = "180 1/s"
    in_sim = simulate_doc(tmp_path / "b")
    in_sim["simulation"]["feedback_gain"] = "180 1/s"
    variance_lines = []
    for name, doc in (("a.json", in_trap), ("b.json", in_sim)):
        assert main(["simulate", write_config(tmp_path, doc, name)]) == EXIT_OK
        variance_lines += [line for line in capsys.readouterr().out.splitlines()
                           if line.startswith("measured displacement variance")]
    assert len(variance_lines) == 2 and variance_lines[0] == variance_lines[1]


def test_simulate_guard_is_config_error(tmp_path, capsys):
    doc = simulate_doc(tmp_path / "out")
    doc["simulation"]["time_step"] = "10 ms"   # violates dt < 1/(20 f0)
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_CONFIG


def test_exclusion_millicharge_prints_scalars(tmp_path, capsys):
    doc = base_doc(tmp_path / "out")
    doc["noise"] = {"technical_force_asd": "1e-18 N/Hz^0.5"}
    doc["plan"] = {"integration_time": "1e4 s", "drive_field": "1 kV/mm"}
    assert main(["exclusion", "millicharge", write_config(tmp_path, doc)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "millicharge_sensitivity_e" in out
    assert "neutrality_bound_per_nucleon_e" in out
    doc_out = json.loads((tmp_path / "out" / "exclusion_millicharge.json").read_text())
    assert doc_out["millicharge_sensitivity_e"] == pytest.approx(6.25e-8, rel=0.05)


def test_exclusion_isl_curve_files(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["geometry"] = {
        "type": "plane_slab",
        "thickness": "20 um",
        "density_contrast": "19300 kg/m^3",
        "distance": "6 um",
    }
    doc["plan"] = {"integration_time": "1e6 s", "lambda_min": "1 um",
                   "lambda_max": "100 um", "points_per_decade": 5}
    assert main(["exclusion", "isl", write_config(tmp_path, doc)]) == EXIT_OK
    curve = json.loads((tmp_path / "out" / "exclusion_isl.json").read_text())
    assert curve["schema"] == "levkit-curve/2"
    assert curve["coupling_label"] == "alpha_min"
    csv_text = (tmp_path / "out" / "exclusion_isl.csv").read_text()
    assert "# schema = levkit-curve/2" in csv_text


def _every_input_doc(outdir):
    """A config with every section and plan key that any exclusion case reads,
    whose one noise contribution is the technical level."""
    doc = base_doc(outdir)
    doc["sphere"]["net_charge"] = 1000
    doc["noise"]["include_thermal"] = False
    doc["geometry"] = {"type": "plane_slab", "thickness": "20 um",
                       "density_contrast": "19300 kg/m^3", "distance": "6 um"}
    doc["capacitor"] = {"voltage": "10 kV", "plate_spacing": "1 mm", "standoff": "100 um"}
    doc["plan"] = {"integration_time": "1e5 s", "exposure_sphere_days": "1 days",
                   "q_min": "5e-19 kg*m/s", "dm_mass_min": "1 TeV", "dm_mass_max": "10 TeV",
                   "drive_field": "1 kV/mm", "lambda_min": "10 um", "lambda_max": "10 mm",
                   "points_per_decade": 2}
    return doc


@pytest.mark.parametrize("command, section, key, message", [
    ("exclusion isl", "geometry", None, "this command needs the 'geometry' config section"),
    ("exclusion coulomb", "capacitor", None,
     "this command needs the 'capacitor' config section"),
    ("exclusion dm", "plan", "q_min", "exclusion dm: plan.q_min is required"),
    ("exclusion millicharge", "plan", "drive_field",
     "exclusion millicharge: plan.drive_field is required"),
    ("exclusion neutrality", "plan", "drive_field",
     "exclusion neutrality: plan.drive_field is required"),
    ("exclusion isl", "plan", "lambda_max",
     "plan: lambda_min and lambda_max are required for this case"),
    ("noise-budget", "noise", "technical_force_asd",
     "noise: at least one contribution must be enabled"),
], ids=["isl-geometry", "coulomb-capacitor", "dm-q-min", "millicharge-drive-field",
        "neutrality-drive-field", "isl-lambda-max", "noise-budget-no-contribution"])
def test_missing_input_exits_naming_it(tmp_path, capsys, command, section, key, message):
    """A command whose section or key is missing: exit 2 with one line naming
    it, and no file or directory written.  With it, the same config runs."""
    doc = _every_input_doc(tmp_path / "whole")
    assert main([*command.split(), write_config(tmp_path, doc, "whole.json")]) == EXIT_OK
    doc["output"]["directory"] = str(tmp_path / "out")
    if key is None:
        del doc[section]
    else:
        del doc[section][key]
    cfg = write_config(tmp_path, doc)
    capsys.readouterr()
    assert main([*command.split(), cfg]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "whole", "whole.json"]


@pytest.mark.filterwarnings("error")
def test_form_factor_overflow_is_a_config_error_naming_the_limit(tmp_path, capsys):
    """At a 1 nm range R/lambda is 1e4, past where the sphere form factor
    overflows: one message naming R/lambda and the limit, and no warning."""
    doc = json.loads((_config_dir() / "isl_finger_20um.json").read_text())
    doc["plan"]["lambda_min"] = "1 nm"
    cfg = write_config(tmp_path, doc)
    assert main(["exclusion", "isl", cfg, "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: sphere form factor overflows at R/lambda = 9999.999999999998, "
        "above its limit 702.8235657436883\n")
    assert not (tmp_path / "out").exists()


def _slab_isl_doc(outdir):
    """An ISL search whose signal force exp(-d/lambda) underflows at every
    range: a slab 1 mm away probed from 1 to 1.2 um."""
    doc = base_doc(outdir)
    doc["geometry"] = {"type": "plane_slab", "thickness": "100 um",
                       "density_contrast": "10000 kg/m^3", "distance": "1 mm"}
    doc["plan"] = {"integration_time": "1e6 s", "lambda_min": "1 um",
                   "lambda_max": "1.2 um"}
    return doc


def _shipped_doc(name, outdir, **plan):
    doc = json.loads((_config_dir() / name).read_text())
    doc["output"]["directory"] = str(outdir)
    doc["plan"].update(plan)
    return doc


@pytest.mark.parametrize("case, make_doc, label, kind", [
    ("isl", _slab_isl_doc, "alpha_min", "lambda_m"),
    ("dm", lambda out: _shipped_doc("dm_recoil_10um.json", out, q_min="1e-10 kg*m/s"),
     "alpha_n_limit", "dm_mass_ev"),
    ("coulomb", lambda out: _shipped_doc("coulomb_charged_20um.json", out,
                                         lambda_min="1 nm", lambda_max="10 nm"),
     "chi_min", "lambda_m"),
], ids=["isl", "dm", "coulomb"])
def test_curve_with_every_point_omitted_is_config_error(tmp_path, capsys, case, make_doc,
                                                        label, kind):
    """A curve with no point left has nothing to write: exit 2, no output."""
    out = tmp_path / "out"
    assert main(["exclusion", case, write_config(tmp_path, make_doc(out))]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: no usable grid points: {label} is "
                                   f"undefined at all ")
    assert captured.err.endswith(f" {kind} values\n")
    assert captured.out == "" and not out.exists()


def _dense_sphere(name, out):
    doc = _shipped_doc(name, out)
    doc["sphere"]["density"] = "1e300 kg/m^3"
    return doc


def _fast_halo(doc):
    doc["halo"]["v0"] = "1e300 km/s"
    return doc


def _far_fingers(out):
    doc = _shipped_doc("isl_finger_20um.json", out)
    doc["geometry"]["distance"] = "1e300 um"
    return doc


@pytest.mark.parametrize("case, make_doc, message", [
    ("dm", lambda out: _dense_sphere("dm_recoil_10um.json", out),
     "sphere.density 1e+300 kg/m^3: nucleon count overflows"),
    ("millicharge", lambda out: _dense_sphere("millicharge_10um.json", out),
     "sphere.density 1e+300 kg/m^3: nucleon count overflows"),
    ("dm", lambda out: _shipped_doc("dm_recoil_10um.json", out, dm_mass_max="1e300 TeV"),
     "plan.dm_mass_max: '1e300 TeV' is not finite in SI units"),
    ("dm", lambda out: _shipped_doc("dm_recoil_10um.json", out, mediator_mass="1e300 eV"),
     "plan.mediator_mass 1e+300 eV: its square overflows"),
    ("dm", lambda out: _fast_halo(_shipped_doc("dm_recoil_10um.json", out)),
     "halo.v0 1e+303 m/s: the speed distribution's normalization overflows"),
    ("dm", lambda out: _shipped_doc("dm_recoil_10um.json", out, q_min="1e150 kg*m/s"),
     "plan.q_min 1e+150 kg*m/s: its square in eV overflows"),
    ("isl", _far_fingers,
     "geometry.distance 1e+294 m: the square of its e^-45 reach at lambda 1e-06 m overflows"),
    ("isl", lambda out: _shipped_doc("isl_finger_20um.json", out, lambda_max="1e300 um"),
     "plan.lambda_max 9.999999999999999e+293 m: the square of the e^-45 reach "
     "geometry.distance + 45 lambda overflows"),
    ("isl", lambda out: _shipped_doc("isl_finger_20um.json", out, lambda_min="1e-300 um"),
     "sphere form factor overflows at R/lambda = 9.999999999999999e+300, "
     "above its limit 702.8235657436883"),
], ids=["dm-density", "millicharge-density", "dm-mass-max", "dm-mediator-mass", "dm-halo-v0",
        "dm-q-min", "isl-distance", "isl-lambda-max", "isl-lambda-min"])
def test_overflowing_value_is_config_error_naming_the_key(tmp_path, capsys, case, make_doc,
                                                          message):
    """A value whose SI form, nucleon count, square or cube is not finite:
    exit 2 with its key named, not an OverflowError.  A range so short that
    the kernel's panel count overflows is caught first by the form factor's
    limit, whose message names R/lambda instead."""
    out = tmp_path / "out"
    assert main(["exclusion", case, write_config(tmp_path, make_doc(out))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not out.exists()


_CAPILLARY = {"type": "fluid_capillary", "inner_diameter": "10 um", "droplet_length": "20 um",
              "density_a": "1000 kg/m^3", "density_b": "800 kg/m^3", "distance": "30 um",
              "modulation_frequency": "10 Hz"}


@pytest.mark.parametrize("geometry", ["finger_array", "fluid_capillary"])
@pytest.mark.parametrize("key", ["density_a", "density_b"])
def test_negative_attractor_density_is_config_error_naming_the_key(tmp_path, capsys, geometry,
                                                                    key):
    """A material density below zero is no material: exit 2 naming the key,
    before any kernel runs.  Zero, an empty gap, is accepted."""
    out = tmp_path / "out"
    doc = _shipped_doc("isl_finger_20um.json", out, points_per_decade=2)
    if geometry == "fluid_capillary":
        doc["geometry"] = dict(_CAPILLARY)
    doc["geometry"][key] = "-1 kg/m^3"
    assert main(["exclusion", "isl", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: geometry.{key} -1.0 kg/m^3: "
                                       "a material density must be >= 0\n")
    assert not out.exists()
    doc["geometry"][key] = "0 kg/m^3"
    assert main(["exclusion", "isl", write_config(tmp_path, doc)]) in (EXIT_OK, EXIT_CONFIG)
    assert "material density" not in capsys.readouterr().err


def _sweep_commands(out):
    """(command, config) of each command the one-field sweep runs: the five
    shipped configs, the finger one also with a capillary and with a slab,
    and an impulse search, each on grids of 2 points per decade."""
    finger = _shipped_doc("isl_finger_20um.json", out, points_per_decade=2)
    capillary, slab = copy.deepcopy(finger), copy.deepcopy(finger)
    capillary["geometry"] = dict(_CAPILLARY)
    slab["geometry"] = {"type": "plane_slab", "thickness": "100 um",
                        "density_contrast": "10000 kg/m^3", "distance": "1 mm"}
    search = {"schema": "levkit-config/1", "sphere": {"radius": "5 um"},
              "trap": {"resonant_frequency": "100 Hz", "damping_rate": "100 1/s",
                       "temperature": "300 K"},
              "simulation": {"time_step": "0.4 ms", "duration": "200 s", "rng_seed": 1,
                             "bath_temperature": "300 K", "record_decimation": 10,
                             "psd_segment_length": 1024, "false_alarm_rate": "1 1/s",
                             "impulses": [{"time": "100 s",
                                           "momentum_transfer": "1e-20 kg*m/s"}]},
              "output": {"directory": str(out)}}
    budget = json.loads((_config_dir() / "noise_budget_10um.json").read_text())
    budget["output"]["directory"] = str(out)
    return [("exclusion isl", finger), ("exclusion isl", capillary), ("exclusion isl", slab),
            ("simulate", search),
            ("exclusion dm", _shipped_doc("dm_recoil_10um.json", out, points_per_decade=2)),
            ("exclusion coulomb",
             _shipped_doc("coulomb_charged_20um.json", out, points_per_decade=2)),
            ("exclusion millicharge", _shipped_doc("millicharge_10um.json", out)),
            ("noise-budget", budget)]


def _sweep_section(doc, section):
    """The part of ``doc`` that table section ``section`` describes, or None."""
    if section == "simulation.impulses":
        return doc.get("simulation", {}).get("impulses", [None])[0]
    name, _, variant = section.partition("/")
    part = doc.get(name)
    return part if part is not None and variant in ("", part.get("type")) else None


def _bad_values(kind):
    """-1, 0, a huge and a tiny value of a numeric field, in its own unit."""
    if kind is int:
        return [-1, 0, 10**12]
    if kind is float:
        return [-1.0, 0.0, 1e308, 1e-300]
    if not isinstance(kind, (config.Dimension, str)):
        return []
    unit = kind if isinstance(kind, str) else next(iter(config._UNIT_FACTORS[kind]))
    return [f"{value} {unit}" for value in ("-1", "0", "1e300", "1e-300")]


_SWEPT = [row[:3] for row in config._FIELDS if _bad_values(row[2])]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # a huge value's overflow
@pytest.mark.parametrize("section, key, kind", _SWEPT,
                         ids=[f"{section}.{key}" for section, key, _ in _SWEPT])
def test_one_bad_field_exits_with_a_message(tmp_path, capsys, section, key, kind):
    """Each numeric field of the config table at -1, 0, a huge and a tiny
    value, in the first sweep config that sets it (or else has its section):
    exit 0, 2 or 3, never an exception out of main, a message on stderr for
    a non-zero exit, and a config error within 1 s, before the compute it
    would make void."""
    present = [(command, doc) for command, doc in _sweep_commands(tmp_path / "out")
               if _sweep_section(doc, section) is not None]
    command, base = next((c for c in present if key in _sweep_section(c[1], section)),
                         present[0])
    for value in _bad_values(kind):
        doc = copy.deepcopy(base)
        _sweep_section(doc, section)[key] = value
        path = write_config(tmp_path, doc)
        start = time.perf_counter()
        code = main([*command.split(), path])
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME), (value, code, err)
        assert code == EXIT_OK or err.strip(), (value, code)
        assert code != EXIT_CONFIG or seconds < 1.0, (value, seconds, err)


def test_exclusion_dm_curve(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["plan"] = {"integration_time": "1e5 s",
                   "exposure_sphere_days": "1 days",
                   "q_min": "5e-19 kg*m/s",
                   "dm_mass_min": "1 TeV", "dm_mass_max": "10 TeV",
                   "points_per_decade": 5}
    assert main(["exclusion", "dm", write_config(tmp_path, doc)]) == EXIT_OK
    curve = json.loads((tmp_path / "out" / "exclusion_dm.json").read_text())
    assert curve["abscissa_kind"] == "dm_mass_ev"
    assert min(curve["abscissa"]) == pytest.approx(1e12)


def test_axion_command(tmp_path, capsys):
    out = tmp_path / "axion.csv"
    assert main(["axion", "1e9", "1e16", "--output", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "0.0057 eV" in stdout
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2


@pytest.mark.parametrize("fa", ["nan", "inf", "0"])
def test_axion_rejects_non_finite_or_non_positive_decay_constant(tmp_path, capsys, fa):
    out = tmp_path / "axion.csv"
    assert main(["axion", "1e9", fa, "--output", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: axion decay constant must be finite "
                                       f"and positive, got {float(fa)!r}\n")
    assert not out.exists()


def test_normalize_config_fixed_point(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(tmp_path / "out"))
    assert main(["normalize-config", cfg]) == EXIT_OK
    once = capsys.readouterr().out
    norm_path = tmp_path / "norm.json"
    norm_path.write_text(once)
    assert main(["normalize-config", str(norm_path)]) == EXIT_OK
    assert capsys.readouterr().out == once


def test_shipped_configs_exist():
    names = {p.name for p in _config_dir().glob("*.json")}
    assert "millicharge_10um.json" in names
    assert "dm_recoil_10um.json" in names


def test_non_list_impulses_is_config_error(tmp_path, capsys):
    doc = simulate_doc(tmp_path / "out")
    doc["simulation"]["impulses"] = 5
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert "simulation.impulses" in capsys.readouterr().err


def test_string_boolean_is_config_error(tmp_path, capsys):
    doc = simulate_doc(tmp_path / "out")
    doc["simulation"]["allow_short_run"] = "false"
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert "simulation.allow_short_run" in capsys.readouterr().err


@pytest.mark.parametrize("case, section, key, value", [
    ("dm", "halo", "v_escape", "-550 km/s"),
    ("millicharge", "plan", "exposure_sphere_days", "-1 days"),
    ("dm", "plan", "mediator_mass", "-0.1 eV"),
    ("coulomb", "plan", "polarizing_field", "-1 kV/mm"),
    ("dm", "noise", "technical_force_asd", "-1 N/Hz^0.5"),
], ids=["halo-speed", "exposure", "mediator-mass", "polarizing-field", "technical-asd"])
def test_non_physical_search_input_is_config_error(tmp_path, case, section, key, value):
    doc = base_doc(tmp_path / "out")
    doc["sphere"]["net_charge"] = 1000
    doc["capacitor"] = {"voltage": "10 kV", "plate_spacing": "1 mm", "standoff": "100 um"}
    doc["plan"] = {"integration_time": "1e5 s", "exposure_sphere_days": "1 days",
                   "q_min": "5e-19 kg*m/s", "dm_mass_min": "1 TeV", "dm_mass_max": "10 TeV",
                   "drive_field": "1 kV/mm", "lambda_min": "10 um", "lambda_max": "10 mm",
                   "points_per_decade": 2}
    doc.setdefault(section, {})[key] = value
    assert main(["exclusion", case, write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["millicharge", "isl"])
def test_zero_noise_floor_is_config_error(tmp_path, capsys, case):
    doc = base_doc(tmp_path / "out")
    doc["noise"] = {"include_thermal": False, "technical_force_asd": "0 N/Hz^0.5"}
    doc["geometry"] = {"type": "plane_slab", "thickness": "20 um",
                       "density_contrast": "19300 kg/m^3", "distance": "6 um"}
    doc["plan"] = {"integration_time": "1e4 s", "drive_field": "1 kV/mm",
                   "lambda_min": "1 um", "lambda_max": "100 um"}
    assert main(["exclusion", case, write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert "noise floor is zero" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["noise-budget", "normalize-config"])
def test_invalid_utf8_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"schema": "levkit-config/1", "sphere": {"radius": "5 \xff"}}')
    assert main([command, str(path)]) == EXIT_CONFIG
    assert "UTF-8" in capsys.readouterr().err


def test_outputs_leave_no_temp_files(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["geometry"] = {"type": "plane_slab", "thickness": "20 um",
                       "density_contrast": "19300 kg/m^3", "distance": "6 um"}
    doc["plan"] = {"integration_time": "1e6 s", "lambda_min": "1 um",
                   "lambda_max": "100 um", "points_per_decade": 5}
    cfg = write_config(tmp_path, doc)
    assert main(["exclusion", "isl", cfg]) == EXIT_OK
    assert main(["noise-budget", cfg]) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["exclusion_isl.csv", "exclusion_isl.json", "noise_budget.csv"]


def test_curve_csv_starts_with_cli_provenance(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["plan"] = {"integration_time": "1e5 s", "exposure_sphere_days": "1 days",
                   "q_min": "5e-19 kg*m/s", "dm_mass_min": "1 TeV", "dm_mass_max": "10 TeV",
                   "points_per_decade": 5}
    assert main(["exclusion", "dm", write_config(tmp_path, doc)]) == EXIT_OK
    lines = (tmp_path / "out" / "exclusion_dm.csv").read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines[:5]] == [
        "# levkit_version", "# command", "# levkit_threads", "# config", "# schema"]
    header = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("#"))
    # One encoding: a string is written raw, so no header value is a JSON string.
    assert not any(value.startswith('"') for value in header.values())
    config = json.loads(header["config"])
    assert config["plan"]["exposure_sphere_days"] == "86400.0 s"
    # The JSON carries the same provenance as top-level keys.
    curve = json.loads((tmp_path / "out" / "exclusion_dm.json").read_text())
    keys = ("levkit_version", "command", "levkit_threads", "config")
    assert {key: curve[key] for key in keys} == {**{key: header[key] for key in keys},
                                                 "config": config}


def run_python(code, env=None):
    """Stdout of ``python -c code`` in a fresh process that imports this levkit."""
    env = dict(os.environ if env is None else env)
    src = str(Path(levkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_import_leaves_scipy_signal_and_optimize_unloaded():
    """Commands that never simulate or fit must not pay their import time."""
    code = ("import sys, levkit.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize', 'scipy.special', "
            "'scipy.integrate') if m in sys.modules))")
    assert run_python(code).strip() == "[]"


def test_exclusion_dm_leaves_scipy_special_unloaded(tmp_path):
    """The halo speed distribution takes erf from math, not scipy.special."""
    cfg = str(_config_dir() / "dm_recoil_10um.json")
    code = ("import sys; from levkit.cli import main; "
            f"assert main(['exclusion', 'dm', {cfg!r}, '-o', {str(tmp_path)!r}]) == 0; "
            "print('scipy.special' in sys.modules)")
    assert run_python(code).splitlines()[-1] == "False"
    assert (tmp_path / "exclusion_dm.csv").exists()


@pytest.fixture(scope="module")
def regen_figures(tmp_path_factory):
    """One ``regen-figures`` run in a fresh process: its output directory and
    the ``scipy*`` and ``numpy.polynomial*`` modules the process had loaded at
    the end."""
    out = tmp_path_factory.mktemp("figures")
    code = ("import sys; from levkit.cli import main; "
            f"assert main(['regen-figures', '-o', {str(out)!r}]) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'numpy.polynomial'))))")
    return out, run_python(code).splitlines()[-1]


def test_regen_figures_leaves_scipy_unloaded(regen_figures):
    """The finger kernel's k0 is loaded from its extension file: neither
    scipy.special nor any other scipy module is imported.  Its quadrature
    rule is constants: numpy.polynomial is not imported either."""
    assert regen_figures[1] == "[]"


# float.hex of every alpha_min of the shipped finger ISL curve, as
# numpy 2.4.6 and scipy 1.17.1 compute it: the Fourier series of the infinite
# pattern at the 25 ranges up to 15.85 um, the strip quadrature above.
FINGER_ISL_ALPHA_HEX = [
    "0x1.cab71f26fa51bp+24", "0x1.a47f3c001b755p+23", "0x1.9e2f8e2edb69cp+22",
    "0x1.b419a8f9f0042p+21", "0x1.e89dbff0e7033p+20", "0x1.221db6375f32ep+20",
    "0x1.6bd3aef33016dp+19", "0x1.e03eb06e446c1p+18", "0x1.4c8eb03f6635ap+18",
    "0x1.e1baf1596047dp+17", "0x1.6bc5e96ae46b5p+17", "0x1.1d761109a4817p+17",
    "0x1.cffbf61779e1ap+16", "0x1.852742558ee28p+16", "0x1.4fa94543e3f1fp+16",
    "0x1.28b75eb49a393p+16", "0x1.0beaf6cf03d99p+16", "0x1.ecaee9162509dp+15",
    "0x1.cbff6b1ef6b74p+15", "0x1.b303f4704b299p+15", "0x1.9fc74d2076836p+15",
    "0x1.90e01e104cb06p+15", "0x1.8545d5ab772cdp+15", "0x1.7c341790ea99fp+15",
    "0x1.75176ed7ab232p+15", "0x1.6f8002f36a183p+15", "0x1.6b1845f743526p+15",
    "0x1.679e4fdde23e2p+15", "0x1.64df0f49499d6p+15", "0x1.62b2c18ba7bdcp+15",
    "0x1.60fa529b67452p+15", "0x1.5f9d63eac68cdp+15", "0x1.5e88cd18f1c76p+15",
    "0x1.5dad76f88d832p+15", "0x1.5cff7b2c3954ap+15", "0x1.5c757abfcd1c9p+15",
    "0x1.5c0825e2c6395p+15", "0x1.5bb1f50ce9b4fp+15", "0x1.5b6f13f494cc7p+15",
    "0x1.5b3d7431e41a1p+15", "0x1.5b1cea09598e1p+15",
]
# The same curve with the strip quadrature at every range.
FINGER_ISL_ALPHA_HEX_QUADRATURE = [
    "0x1.cab71f26fa527p+24", "0x1.a47f3c001b760p+23", "0x1.9e2f8e2edb6a5p+22",
    "0x1.b419a8f9f004fp+21", "0x1.e89dbff0e703ep+20", "0x1.221db6375f32cp+20",
    "0x1.6bd3aef33016ap+19", "0x1.e03eb06e446c3p+18", "0x1.4c8eb03f66358p+18",
    "0x1.e1baf15960476p+17", "0x1.6bc5e96ae46afp+17", "0x1.1d761109a4814p+17",
    "0x1.cffbf61779e15p+16", "0x1.852742558ee30p+16", "0x1.4fa94543e3f1fp+16",
    "0x1.28b75eb49a38fp+16", "0x1.0beaf6cf03d98p+16", "0x1.ecaee91625065p+15",
    "0x1.cbff6b1ef6b79p+15", "0x1.b303f4704b263p+15", "0x1.9fc74d2076881p+15",
    "0x1.90e01e104cb19p+15", "0x1.8545d5ab772e8p+15", "0x1.7c341790ea8dcp+15",
    "0x1.75176ed7ab2c8p+15", "0x1.6f8002f36a183p+15", "0x1.6b1845f743526p+15",
    "0x1.679e4fdde23e2p+15", "0x1.64df0f49499d6p+15", "0x1.62b2c18ba7bdcp+15",
    "0x1.60fa529b67452p+15", "0x1.5f9d63eac68cdp+15", "0x1.5e88cd18f1c76p+15",
    "0x1.5dad76f88d832p+15", "0x1.5cff7b2c3954ap+15", "0x1.5c757abfcd1c9p+15",
    "0x1.5c0825e2c6395p+15", "0x1.5bb1f50ce9b4fp+15", "0x1.5b6f13f494cc7p+15",
    "0x1.5b3d7431e41a1p+15", "0x1.5b1cea09598e1p+15",
]

# The quadrature curve with the finger kernel evaluated at all 64 drive
# phases rather than once per mirrored pair k, (32 - k) mod 64, whose shifts
# differ only by the rounding of sin.
FINGER_ISL_ALPHA_HEX_ALL_PHASES = [
    "0x1.cab71f26fa529p+24", "0x1.a47f3c001b762p+23", "0x1.9e2f8e2edb6a5p+22",
    "0x1.b419a8f9f0050p+21", "0x1.e89dbff0e703ep+20", "0x1.221db6375f32cp+20",
    "0x1.6bd3aef33016cp+19", "0x1.e03eb06e446c5p+18", "0x1.4c8eb03f6635ap+18",
    "0x1.e1baf15960476p+17", "0x1.6bc5e96ae46b1p+17", "0x1.1d761109a4813p+17",
    "0x1.cffbf61779e19p+16", "0x1.852742558ee2fp+16", "0x1.4fa94543e3f1fp+16",
    "0x1.28b75eb49a38fp+16", "0x1.0beaf6cf03d98p+16", "0x1.ecaee91625065p+15",
    "0x1.cbff6b1ef6b7bp+15", "0x1.b303f4704b25ep+15", "0x1.9fc74d2076873p+15",
    "0x1.90e01e104cb13p+15", "0x1.8545d5ab772e7p+15", "0x1.7c341790ea8c5p+15",
    "0x1.75176ed7ab2cdp+15", "0x1.6f8002f36a192p+15", "0x1.6b1845f74353dp+15",
    "0x1.679e4fdde23e2p+15", "0x1.64df0f49499b1p+15", "0x1.62b2c18ba7bb0p+15",
    "0x1.60fa529b6744ap+15", "0x1.5f9d63eac68abp+15", "0x1.5e88cd18f1bf4p+15",
    "0x1.5dad76f88d846p+15", "0x1.5cff7b2c39556p+15", "0x1.5c757abfcd211p+15",
    "0x1.5c0825e2c629bp+15", "0x1.5bb1f50ce9bc5p+15", "0x1.5b6f13f494c5ap+15",
    "0x1.5b3d7431e4243p+15", "0x1.5b1cea0959916p+15",
]


def test_regen_figures_finger_isl_curve_golden(regen_figures):
    """Any change to the finger kernel that moves a bit of the curve fails here."""
    text = (regen_figures[0] / "isl_finger_20um" / "exclusion_isl.csv").read_text()
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    assert [float(alpha).hex() for _, alpha in rows] == FINGER_ISL_ALPHA_HEX


def test_regen_figures_finger_isl_curve_series_is_the_quadrature(regen_figures):
    """The Fourier series moves the curve's 25 ranges inside the window rule,
    up to 15.85 um (the rule's edge is at 17.0 um), by at most 1e-13 relative
    from the strip quadrature, and no bit of the other 16."""
    text = (regen_figures[0] / "isl_finger_20um" / "exclusion_isl.csv").read_text()
    rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()
                     if not line.startswith("#")])
    quadrature = np.array([float.fromhex(h) for h in FINGER_ISL_ALPHA_HEX_QUADRATURE])
    series = rows[:, 0] < 17e-6
    assert series.sum() == 25
    np.testing.assert_allclose(rows[series, 1], quadrature[series], rtol=1e-13, atol=0.0)
    assert [v.hex() for v in rows[~series, 1]] == FINGER_ISL_ALPHA_HEX_QUADRATURE[25:]


def test_regen_figures_finger_isl_curve_matches_all_phase_kernel(regen_figures):
    """Evaluating one shift per mirrored phase pair moves no alpha by more
    than the rounding of the drive shift: 1e-13 relative."""
    text = (regen_figures[0] / "isl_finger_20um" / "exclusion_isl.csv").read_text()
    alphas = [float(line.split(",")[1]) for line in text.splitlines()
              if not line.startswith("#")]
    reference = [float.fromhex(h) for h in FINGER_ISL_ALPHA_HEX_ALL_PHASES]
    np.testing.assert_allclose(alphas, reference, rtol=1e-13, atol=0.0)


# sha256 of each other regen-figures output's numbers, as numpy 2.4.6 and
# scipy 1.17.1 compute them: a CSV's rows (its lines not opening with "#") and
# a JSON file's sorted-key text without its provenance keys.
FIGURES_SHA256 = {
    "noise_budget_10um/noise_budget.csv":
        "5f5861d5980d918471e0f59a2d4883b1967399c6d87736dfd9df86551256ab1b",
    "coulomb_charged_20um/exclusion_coulomb.csv":
        "545d394ef9861e6d0d70a85425e0fafc45bb7973476eef93c1c750cbdc7a0b39",
    "dm_recoil_10um/exclusion_dm.csv":
        "e1fda1b63c6b6fcc6d362638ff1de184642f0565e1c6a3e4223dc57d659c0b0a",
    "axion_lines.csv":
        "75045ac7b5b2ba7b392691a45e10896a67a205567838d2651c91685c3d1b7b7e",
    "isl_finger_20um/exclusion_isl.json":
        "4c6dfbd53316475d4ef8a903939571c62064d86b39d4a6a2bee1a76ebe0fae9c",
    "coulomb_charged_20um/exclusion_coulomb.json":
        "6431d8fcfb3f555ae48b5389f1658537aafefda5ce9f800a2b2be6e473e2056e",
    "millicharge_10um/exclusion_millicharge.json":
        "bd9f26d31c2ae71c04f7c5d9891a67c98a1afbb33de23377ac6585741a0ae656",
    "dm_recoil_10um/exclusion_dm.json":
        "a457009aa3e1037f0874ffac2411508d1552c78de2c113e1e73c3827285d4ad4",
}
_PROVENANCE_KEYS = ("levkit_version", "command", "levkit_threads", "config")


def _numbers_sha256(path):
    text = path.read_text()
    if path.suffix == ".csv":
        body = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("#"))
    else:
        doc = {k: v for k, v in json.loads(text).items() if k not in _PROVENANCE_KEYS}
        body = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def test_regen_figures_numbers_golden(regen_figures):
    """Any change that moves a number of a shipped figure fails here."""
    assert {name: _numbers_sha256(regen_figures[0] / name)
            for name in FIGURES_SHA256} == FIGURES_SHA256


def test_missing_scipy_extension_is_runtime_exit(tmp_path, capsys, monkeypatch):
    """A scipy whose layout lacks the kernel's extension: exit 3 with one line
    naming it, no traceback and no output."""
    load = _scipy.extension
    monkeypatch.setattr(_scipy, "extension",
                        lambda subpackage, name: load(subpackage, "_no_such_extension"))
    out = tmp_path / "out"
    cfg = str(_config_dir() / "isl_finger_20um.json")
    assert main(["exclusion", "isl", cfg, "-o", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(
        "runtime error: scipy extension special._no_such_extension not found in ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def levkit_error_classes():
    """Every exception class that a ``levkit`` module defines, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(levkit.__path__):
        module = importlib.import_module(f"levkit.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__.partition(".")[0] == "levkit"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


LEVKIT_ERRORS = levkit_error_classes()
# The levkit.quantities base classes whose subclasses ``main`` maps to an exit code.
EXIT_BASES = {"DomainError": EXIT_CONFIG, "DimensionError": EXIT_CONFIG,
              "ComputeError": EXIT_RUNTIME}


def exit_base(cls):
    """The name of the exit base class ``cls`` derives from, or None."""
    return next((base.__name__ for base in cls.__mro__
                 if base.__module__ == "levkit.quantities" and base.__name__ in EXIT_BASES),
                None)


def test_every_levkit_error_derives_from_an_exit_base():
    """A new error class reaches the user as a one-line exit 2 or 3, not a
    traceback, with no edit to ``cli.main``."""
    assert [name for name, cls in LEVKIT_ERRORS.items() if exit_base(cls) is None] == []


@pytest.mark.parametrize("name", sorted(LEVKIT_ERRORS))
def test_levkit_error_exit_follows_its_base(name, capsys, monkeypatch):
    """A command raising the class exits 2 or 3 as its base says, with one
    stderr line and no traceback."""
    cls = LEVKIT_ERRORS[name]
    args = ("boom", 1e-3) if cls.__name__ == "QuadratureError" else ("boom",)

    def fail(_args):
        raise cls(*args)

    monkeypatch.setattr(cli, "cmd_axion", fail)
    code = EXIT_BASES[exit_base(cls)]
    assert main(["axion", "1e16"]) == code
    prefix = "config error" if code == EXIT_CONFIG else "runtime error"
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def impulse_doc(outdir, decimation=1, duration="20 s"):
    """A fast impulse search: gamma_eff = 1000 1/s, so 20 s is 2e4 correlation
    times; the impulses are three times the threshold."""
    doc = base_doc(outdir)
    doc["sphere"] = {"radius": "0.15 um"}
    doc["trap"] = {"resonant_frequency": "1000 Hz", "damping_rate": "5 1/s",
                   "temperature": "300 K"}
    doc["simulation"] = {
        "time_step": "2e-05 s", "duration": duration, "rng_seed": 777,
        "bath_temperature": "300 K", "feedback_gain": "995 1/s",
        "record_decimation": decimation, "false_alarm_rate": "1 1/s",
        "impulses": [
            {"time": "5 s", "momentum_transfer": "4.2e-19 kg*m/s"},
            {"time": "12.5 s", "momentum_transfer": "4.2e-19 kg*m/s", "direction": -1},
        ],
    }
    return doc


@pytest.mark.parametrize("search", [True, False])
def test_simulate_leaves_scipy_signal_stats_and_linalg_unloaded(tmp_path, search):
    """Simulating, with or without the impulse search, runs scipy.signal's
    filter kernel without importing scipy.signal and what it pulls in.  The
    search's matched filter is that kernel too: with no PSD asked for, the
    run never imports numpy.fft, its module or its scratch."""
    doc = impulse_doc(tmp_path / "out", decimation=10)
    if not search:
        del doc["simulation"]["false_alarm_rate"]
    cfg = write_config(tmp_path, doc)
    code = ("import sys; from levkit.cli import main; "
            f"assert main(['simulate', {cfg!r}]) == 0; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'scipy.linalg', "
            "'numpy.fft') if m in sys.modules))")
    out = run_python(code).splitlines()
    assert out[-1] == "[]"
    assert (tmp_path / "out" / "detections.json").exists() == search


def run_search(tmp_path, decimation):
    out = tmp_path / f"dec{decimation}"
    cfg = write_config(tmp_path, impulse_doc(out, decimation), f"dec{decimation}.json")
    assert main(["simulate", cfg]) == EXIT_OK
    return json.loads((out / "detections.json").read_text())


def amplitudes(detections):
    return [ev["filter_amplitude_kg_m_s"] for ev in detections["events"]]


def test_search_matches_fft_filter_golden(tmp_path):
    """Threshold and amplitudes as the full-record FFT filter gave them: the
    amplitudes bit for bit, the streamed recursive filter's threshold within
    1e-12."""
    found = run_search(tmp_path, 1)
    assert found["threshold_kg_m_s"] == pytest.approx(1.396742048371855e-19,
                                                      rel=1e-12, abs=0.0)
    assert amplitudes(found) == [4.3436610214159e-19, 4.390235937278543e-19]


def test_decimated_search_reads_full_rate_amplitudes(tmp_path):
    full, thinned = run_search(tmp_path, 1), run_search(tmp_path, 10)
    assert thinned["threshold_kg_m_s"] == full["threshold_kg_m_s"]
    assert amplitudes(thinned) == amplitudes(full)
    assert [ev["detected"] for ev in thinned["events"]] == [True, True]
    rows = (tmp_path / "dec10" / "trajectory.csv").read_text().splitlines()
    assert len([row for row in rows if not row.startswith("#")]) == 100_000


def test_false_alarm_rate_without_impulses_writes_threshold(tmp_path, capsys):
    """A false-alarm rate alone still sets and reports the threshold."""
    out = tmp_path / "out"
    doc = impulse_doc(out)
    del doc["simulation"]["impulses"]
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_OK
    found = json.loads((out / "detections.json").read_text())
    assert found["events"] == []
    assert found["threshold_kg_m_s"] > 0.0
    assert "0/0 injected impulses detected" in capsys.readouterr().out


def test_unconverged_threshold_is_runtime_exit(tmp_path, capsys):
    """Too few correlation times, with impulses or a false-alarm rate alone:
    exit 3 before any output is written."""
    out = tmp_path / "out"
    doc = impulse_doc(out, duration="5 s")
    without = impulse_doc(out, duration="5 s")
    del without["simulation"]["impulses"]
    for name, case in (("impulses.json", doc), ("rate_only.json", without)):
        assert main(["simulate", write_config(tmp_path, case, name)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: noise distribution not converged")
        assert "Traceback" not in err
        assert not out.exists()


def test_impulse_at_end_of_record_is_config_error(tmp_path, capsys):
    """An impulse in the lags the threshold drops: exit 2 before any output."""
    out = tmp_path / "out"
    doc = impulse_doc(out)
    doc["simulation"]["impulses"].append(
        {"time": "19.995 s", "momentum_transfer": "4.2e-19 kg*m/s"})
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: impulse at t = 19.995 s")
    assert "last usable time" in err and "Traceback" not in err
    assert not (out / "detections.json").exists()
    assert not out.exists()


def test_template_shorter_than_a_time_step_is_config_error(tmp_path, capsys):
    """10/gamma_total below half a time step rounds the template to no samples:
    exit 2 before anything is simulated, naming the template length and dt."""
    out = tmp_path / "out"
    doc = impulse_doc(out, duration="0.1 s")
    doc["simulation"]["feedback_gain"] = "1e6 1/s"
    doc["simulation"]["impulses"] = [{"time": "0.01 s", "momentum_transfer": "4.2e-19 kg*m/s"}]
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: matched-filter template of 10/gamma_total = ")
    assert "(2e-05 s)" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("duration", "1e300 s"), ("time_step", "1e-300 s")])
def test_unallocatable_step_count_is_config_error(tmp_path, capsys, key, value):
    """More than 2^53 steps, from a huge duration or a tiny time step: exit 2
    naming both keys, before the search sizes its held outputs or template."""
    out = tmp_path / "out"
    doc = impulse_doc(out)
    doc["simulation"][key] = value
    if key == "time_step":
        doc["simulation"]["duration"] = "1000 s"
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: simulation.duration / simulation.time_step = ")
    assert "at most 2^53" in err and "Traceback" not in err
    assert not out.exists()


def test_overdamped_trap_passes_the_energy_growth_check(tmp_path, capsys):
    """f0 = 10 Hz under 1000 1/s of damping relaxes at about omega0^2 / gamma,
    250 times slower than 1/gamma: the last block is compared with the trap's
    closed-form stationary variance, which no relaxation time enters, so the
    equilibrium is not read as growth."""
    out = tmp_path / "out"
    doc = simulate_doc(out)
    doc["sphere"] = {"radius": "5 um", "density": "1850 kg/m^3"}
    doc["trap"] = {"resonant_frequency": "10 Hz", "damping_rate": "1 1/s",
                   "temperature": "300 K"}
    doc["simulation"] = {"time_step": "0.001 s", "duration": "100 s", "rng_seed": 1,
                         "bath_temperature": "300 K", "feedback_gain": "999 1/s"}
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (out / "trajectory.csv").exists()


def test_zero_step_run_writes_an_empty_trajectory(tmp_path, capsys):
    """A duration under half a time step, allowed as a short run, rounds to no
    step: no block, so nothing for the energy-growth check, exit 0 and a
    trajectory of no rows."""
    out = tmp_path / "out"
    doc = simulate_doc(out)
    doc["simulation"].update(duration="0.00008 s", allow_short_run=True)
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[-1] == "# columns = time_s,displacement_m"


@pytest.mark.parametrize("temperature", ["300 K", "0 K"])
def test_negative_rng_seed_is_config_error(tmp_path, capsys, temperature):
    out = tmp_path / "out"
    doc = impulse_doc(out)
    del doc["simulation"]["impulses"], doc["simulation"]["false_alarm_rate"]
    doc["simulation"].update(rng_seed=-1, bath_temperature=temperature)
    assert main(["simulate", write_config(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: rng seed must be >= 0, got -1\n"
    assert not out.exists()


def test_non_positive_points_per_decade_is_config_error(tmp_path, capsys):
    """A grid density below one point per decade: exit 2, no curve written."""
    doc = json.loads((_config_dir() / "isl_finger_20um.json").read_text())
    out = tmp_path / "out"
    doc["output"]["directory"] = str(out)
    doc["plan"]["points_per_decade"] = -5
    assert main(["exclusion", "isl", write_config(tmp_path, doc)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: points_per_decade must be >= 1")
    assert captured.out == "" and not out.exists()


def test_unwritable_output_is_runtime_exit(tmp_path, capsys):
    """An output directory that is a regular file: exit 3 with a message."""
    blocker = tmp_path / "F"
    blocker.write_text("")
    assert main(["axion", "1e12", "--output", str(blocker / "x.csv")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "Traceback" not in err


def test_memory_error_is_runtime_exit(tmp_path, capsys, monkeypatch):
    """Out of memory: exit 3, named even when the error carries no message."""
    def exhausted(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr("levkit.cli.Run", exhausted)
    out = tmp_path / "out"
    assert main(["simulate", write_config(tmp_path, simulate_doc(out))]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: MemoryError\n"
    assert not out.exists()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_levkit_threads_caps_the_thread_pool():
    """LEVKIT_THREADS alone reaches the BLAS pools before numpy starts them."""
    env = {key: val for key, val in os.environ.items()
           if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["LEVKIT_THREADS"] = "1"
    code = ("import levkit.cli\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('Threads:')))")
    assert run_python(code, env).strip() == "1"


@pytest.mark.parametrize("pools, recorded", [
    ({}, "1"),
    ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, "1"),
    ({"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2"},
     "1 (OMP_NUM_THREADS=2, OPENBLAS_NUM_THREADS=2)"),
    ({"MKL_NUM_THREADS": "4"}, "1 (MKL_NUM_THREADS=4)"),
])
def test_levkit_threads_record_names_conflicting_pools(tmp_path, pools, recorded):
    """A pool variable set before levkit is kept, and the header says so: the
    recorded value is LEVKIT_THREADS alone only when every pool has it."""
    env = {key: val for key, val in os.environ.items()
           if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(pools, LEVKIT_THREADS="1")
    out = tmp_path / "axion.csv"
    run_python(f"from levkit.cli import main; main(['axion', '1e12', '--output', {str(out)!r}])",
               env)
    assert f"# levkit_threads = {recorded}\n" in out.read_text()


def stream_doc(out):
    """60 s at 0.2 ms (300000 steps), decimation 7, with a PSD: many blocks
    once _BLOCK is 4096."""
    doc = simulate_doc(out)
    doc["simulation"].update(duration="60 s", record_decimation=7, psd_segment_length=3000)
    return doc


def test_streamed_outputs_are_the_collected_ones(tmp_path, capsys, monkeypatch):
    """Blocks of 4096, decimation 7, writer chunks of 1000 and PSD segments
    of 3000 do not align: trajectory.csv is simulate's samples bit for bit at
    times 7 dt i, psd.csv is estimate_psd's, and the printed variance is
    np.var of the post-transient samples within 1e-12."""
    from levkit import dynamics, writer
    from levkit.config import load_config

    monkeypatch.setattr(dynamics, "_BLOCK", 4096)
    monkeypatch.setattr(writer, "_CHUNK_ROWS", 1000)
    out = tmp_path / "out"
    path = write_config(tmp_path, stream_doc(out))
    assert main(["simulate", path]) == EXIT_OK
    cfg = load_config(path)
    series = dynamics.simulate(cfg.sphere, cfg.trap, cfg.simulation)

    def table(name):
        rows = (out / name).read_text().splitlines()
        return np.array([[float(v) for v in row.split(",")]
                         for row in rows if not row.startswith("#")])

    def bits(a):
        return np.asarray(a, dtype=float).view(np.int64)

    trajectory = table("trajectory.csv")
    np.testing.assert_array_equal(bits(trajectory[:, 1]), bits(series.samples))
    np.testing.assert_array_equal(
        bits(trajectory[:, 0]), bits(series.sample_interval * np.arange(series.samples.size)))
    psd = dynamics.estimate_psd(series, 3000)
    np.testing.assert_array_equal(bits(table("psd.csv")[:, 1]), bits(psd.psd))
    stdout = capsys.readouterr().out
    printed = float(stdout.split("measured displacement variance ")[1].split()[0])
    skip = int(5.0 / (20.0 * series.sample_interval))
    assert printed == pytest.approx(float(np.var(series.samples[skip:])), rel=1e-12, abs=0.0)


def failing_blocks(monkeypatch, fail):
    """Run the model in blocks of 4096 and hand the fourth block to ``fail``."""
    from levkit import dynamics

    monkeypatch.setattr(dynamics, "_BLOCK", 4096)
    blocks = dynamics._LinearTrap.blocks

    def wrapped(self, *args):
        for i, block in enumerate(blocks(self, *args)):
            yield fail(*block) if i == 3 else block
    monkeypatch.setattr(dynamics._LinearTrap, "blocks", wrapped)


def assert_nothing_written(tmp_path):
    """Only the config is left: no trajectory.csv, no temp file, no directory."""
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_energy_growth_in_the_pass_writes_nothing(tmp_path, capsys, monkeypatch):
    """The energy-growth check fails after the last block: exit 3, and the
    trajectory written so far and the directories made for it are gone."""
    from levkit import dynamics

    def runaway(mean_square, variance):
        raise dynamics.IntegrationError("energy growth detected: late RMS 1 m vs stationary 0.1 m")
    monkeypatch.setattr(dynamics, "_check_energy_growth", runaway)
    monkeypatch.setattr(dynamics, "_BLOCK", 4096)
    path = write_config(tmp_path, stream_doc(tmp_path / "out" / "run"))
    assert main(["simulate", path]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("runtime error: energy growth detected")
    assert_nothing_written(tmp_path)


def test_memory_error_on_a_middle_block_writes_nothing(tmp_path, capsys, monkeypatch):
    def exhausted(start, noise, x):
        raise MemoryError()
    failing_blocks(monkeypatch, exhausted)
    path = write_config(tmp_path, stream_doc(tmp_path / "out" / "run"))
    assert main(["simulate", path]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: MemoryError\n"
    assert_nothing_written(tmp_path)


def test_non_finite_chunk_writes_nothing(tmp_path, capsys, monkeypatch):
    def poisoned(start, noise, x):
        return start, noise, np.full_like(x, np.nan)
    failing_blocks(monkeypatch, poisoned)
    path = write_config(tmp_path, stream_doc(tmp_path / "out" / "run"))
    assert main(["simulate", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: time series contains non-finite samples\n"
    assert_nothing_written(tmp_path)


def test_simulate_memory_is_flat_in_duration(tmp_path):
    """A full-rate simulate with a PSD peaks alike at 2e5 and 8e5 samples:
    the trajectory, the Welch estimate and the variance are streamed, and no
    whole-record array is made.  numpy reports its buffers to tracemalloc."""
    import tracemalloc

    def peak(samples):
        out = tmp_path / f"out{samples}"
        doc = simulate_doc(out)
        doc["simulation"].update(duration=f"{samples // 5000} s", record_decimation=1,
                                 psd_segment_length=4096)
        path = write_config(tmp_path, doc, f"{samples}.json")
        tracemalloc.start()
        try:
            assert main(["simulate", path]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50_000)               # first use loads the filter kernel: not the run's
    short, long = peak(200_000), peak(800_000)
    assert abs(long - short) < 1 << 20, (short, long)


def test_search_memory_is_flat_in_duration(tmp_path, monkeypatch):
    """An impulse search peaks alike at 1e6 and 4e6 steps.  The filter's own
    arrays are O(template): the scans of at most W + 2 L samples, the piece
    (a view of one, counted again), its scratch and three tables of L, 16 B
    each, for the 500-sample template's W = 499 and pieces of L = 4096, plus
    the held outputs with room for one block's.  The peak is under those arrays and eight blocks of doubles
    (it reads 5.4 blocks more): nothing the size of the record."""
    import tracemalloc
    from levkit import dynamics

    held = []

    class Recorded(dynamics._NoiseThreshold):
        def __init__(self, template, *args):
            super().__init__(template, *args)
            w, size = template.size - 1, self.piece.size
            arrays = sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))
            assert (w, size) == (499, 4096)
            assert arrays <= 16 * (w + 7 * size) + 8 * (2 * self.keep + dynamics._BLOCK)
            held.append(arrays)
    monkeypatch.setattr(dynamics, "_NoiseThreshold", Recorded)

    def peak(duration):
        out = tmp_path / f"out{duration}"
        path = write_config(tmp_path, impulse_doc(out, 100, f"{duration} s"), f"{duration}.json")
        tracemalloc.start()
        try:
            assert main(["simulate", path]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)                   # first use loads the filter kernel: not the run's
    short, long = peak(20), peak(80)
    assert abs(long - short) < 1 << 20, (short, long)
    assert max(short, long) < held[-1] + 8 * 8 * dynamics._BLOCK, (short, long, held[-1])
