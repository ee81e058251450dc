"""The benchmark's workloads: the configs each one feeds levkit, and checks.

A workload's ``make(seed, work_dir, root)`` writes the config files the
program receives into ``work_dir`` and returns the argument list of one
``levkit`` command (with ``{out}`` for the output directory) and the config
document(s) its checks use; ``root`` is the repository root.
``check(out, doc, stdout)`` raises ``checks.CheckError`` on a wrong output
and returns the verdicts of the operations inside the command (impulse
detections), which count as operations of their own.
"""

import json
from pathlib import Path

import numpy as np

import checks

SCHEMA = "levkit-config/1"
SHIPPED = Path("src") / "levkit" / "configs"

# Sphere and attractor of the capillary workload; ``oracle_table.json`` holds
# the brute-force forces for exactly these, so they do not vary with the seed.
CAPILLARY_SPHERE = {"radius": "7.5 um", "density": "1850 kg/m^3",
                    "relative_permittivity": 3.9, "net_charge": 0,
                    "material_label": "silica"}
CAPILLARY_GEOMETRY = {"type": "fluid_capillary", "inner_diameter": "10 um",
                      "droplet_length": "40 um", "density_a": "3000 kg/m^3",
                      "density_b": "800 kg/m^3", "distance": "12 um",
                      "modulation_frequency": "50 Hz", "n_droplet_pairs": 40}
CAPILLARY_PLAN = {"lambda_min": "1 um", "lambda_max": "10 mm", "points_per_decade": 20}


def _write(work_dir, name, doc):
    path = Path(work_dir) / name
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def shipped_config(root, name):
    return json.loads((Path(root) / SHIPPED / name).read_text(encoding="utf-8"))


# ----------------------------------------------------------------- figures

FIGURE_FILES = {
    "axion_lines.csv",
    "coulomb_charged_20um/exclusion_coulomb.csv",
    "coulomb_charged_20um/exclusion_coulomb.json",
    "dm_recoil_10um/exclusion_dm.csv",
    "dm_recoil_10um/exclusion_dm.json",
    "isl_finger_20um/exclusion_isl.csv",
    "isl_finger_20um/exclusion_isl.json",
    "millicharge_10um/exclusion_millicharge.json",
    "noise_budget_10um/noise_budget.csv",
}
AXION_FA_GEV = [1e9, 1e12, 1e16, 1.9010398190798424e16]


def make_figures(seed, work_dir, root):
    """The shipped configs as they are; the seed does not enter."""
    docs = {name: shipped_config(root, name + ".json") for name in
            ("noise_budget_10um", "coulomb_charged_20um", "millicharge_10um",
             "dm_recoil_10um", "isl_finger_20um")}
    return ["regen-figures", "-o", "{out}"], docs


def check_figures(out, docs, stdout):
    checks.require(output_files(out) == FIGURE_FILES,
                   f"regen-figures wrote {sorted(output_files(out))}")
    checks.check_noise_budget(out / "noise_budget_10um", docs["noise_budget_10um"])
    checks.check_coulomb(out / "coulomb_charged_20um", docs["coulomb_charged_20um"])
    checks.check_millicharge(out / "millicharge_10um", docs["millicharge_10um"])
    checks.check_dm(out / "dm_recoil_10um", docs["dm_recoil_10um"])
    checks.check_isl(out / "isl_finger_20um", docs["isl_finger_20um"], "finger")
    checks.check_axion(out, AXION_FA_GEV)
    return []


# ----------------------------------------------------------- capillary-isl

def capillary_doc(seed):
    """Capillary ISL config; the seed sets the noise and the statistics."""
    rng = np.random.default_rng(seed)
    return {
        "schema": SCHEMA,
        "sphere": CAPILLARY_SPHERE,
        "trap": {"resonant_frequency": "100 Hz",
                 "damping_rate": f"{rng.uniform(0.005, 0.02)!r} 1/s",
                 "temperature": f"{rng.uniform(250.0, 350.0)!r} K"},
        "noise": {"include_thermal": True},
        "geometry": CAPILLARY_GEOMETRY,
        "plan": {"integration_time": f"{10.0 ** rng.uniform(4.0, 6.0)!r} s",
                 "significance": float(rng.integers(1, 4)), **CAPILLARY_PLAN},
    }


def make_capillary(seed, work_dir, root):
    doc = capillary_doc(seed)
    return ["exclusion", "isl", _write(work_dir, "capillary.json", doc), "-o", "{out}"], doc


def check_capillary(out, doc, stdout):
    checks.require(output_files(out) == {"exclusion_isl.csv", "exclusion_isl.json"},
                   f"exclusion isl wrote {sorted(output_files(out))}")
    checks.check_isl(out, doc, "capillary")
    return []


# ----------------------------------------------------------------- dynamics

def _trap_doc(seed_value, temperature, samples, decimation):
    # Light cold damping on a 100 Hz trap: gamma = 1/s plus 9/s of feedback,
    # which simulate reads from the simulation section only.
    return {
        "schema": SCHEMA,
        "sphere": {"radius": "5 um", "density": "1850 kg/m^3"},
        "trap": {"resonant_frequency": "100 Hz", "damping_rate": "1 1/s",
                 "temperature": f"{temperature!r} K"},
        "simulation": {"time_step": "0.0001 s", "duration": f"{samples * 1e-4!r} s",
                       "rng_seed": seed_value,
                       "bath_temperature": f"{temperature!r} K",
                       "feedback_gain": "9 1/s", "record_decimation": decimation},
    }


def trajectory_doc(seed):
    rng = np.random.default_rng(seed)
    doc = _trap_doc(int(rng.integers(1, 2**31)), float(rng.uniform(250.0, 350.0)),
                    1_000_000, 1)
    doc["simulation"]["psd_segment_length"] = 32768
    return doc


def make_trajectory(seed, work_dir, root):
    doc = trajectory_doc(seed)
    return ["simulate", _write(work_dir, "trajectory.json", doc), "-o", "{out}"], doc


def check_trajectory(out, doc, stdout):
    checks.require(output_files(out) == {"trajectory.csv", "psd.csv"},
                   f"simulate wrote {sorted(output_files(out))}")
    checks.check_trajectory(out, doc, stdout)
    return []


def impulse_doc():
    """Fixed inputs: the two detections fail on every run (decimated filter)."""
    doc = _trap_doc(20201015, 300.0, 10_000_000, 100)
    doc["simulation"]["false_alarm_rate"] = "0.1 1/s"
    doc["simulation"]["impulses"] = [
        {"time": "300 s", "momentum_transfer": "8e-16 kg*m/s", "direction": 1},
        {"time": "700 s", "momentum_transfer": "8e-16 kg*m/s", "direction": -1},
    ]
    return doc


def make_impulse(seed, work_dir, root):
    doc = impulse_doc()
    return ["simulate", _write(work_dir, "impulse.json", doc), "-o", "{out}"], doc


def check_impulse(out, doc, stdout):
    checks.require(output_files(out) == {"trajectory.csv", "detections.json"},
                   f"simulate wrote {sorted(output_files(out))}")
    return checks.check_impulse_search(out, doc)


def output_files(out):
    return {str(p.relative_to(out)) for p in Path(out).rglob("*") if p.is_file()}


WORKLOADS = {
    "figures": (make_figures, check_figures),
    "capillary-isl": (make_capillary, check_capillary),
    "trajectory": (make_trajectory, check_trajectory),
    "impulse-search": (make_impulse, check_impulse),
}
