"""Command-line front end.

Exit codes: 0 success, 2 configuration error or missing file, 3 runtime,
numerical, other I/O or out-of-memory error.
All file outputs go through ``levkit.writer`` (temp file + rename) and carry
the provenance of ``_provenance``: code version, command, thread budget and,
for config-driven outputs, the normalized config.  Rerunning an identical
config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import LEVKIT_THREADS, __version__
from ._scipy import ExtensionNotFoundError
from .quantities import DomainError, DimensionError, K_B, Quantity, Dimension
from .sensor import acceleration_asd_ng
from .dynamics import (
    IntegrationError,
    Run,
    RunningVariance,
    ThresholdEstimateError,
    Welch,
    total_damping,
)
from .newforces import GeometryError, QuadratureError
from .limits import (
    axion_gw_line,
    coulomb_projection,
    dm_projection,
    isl_projection,
    log_grid,
    millicharge_sensitivity,
    neutrality_sensitivity,
)
from .config import ConfigError, load_config
from .writer import dump_json, write_csv, write_json, write_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_CONFIG_ERRORS = (ConfigError, DomainError, DimensionError, GeometryError)
_RUNTIME_ERRORS = (IntegrationError, ThresholdEstimateError, QuadratureError,
                   ExtensionNotFoundError, OSError, MemoryError)

_TRAJECTORY_COLUMNS = ("time_s", "displacement_m")


def _provenance(command: str, cfg=None) -> dict:
    """Code version, command, thread budget and (given a config) its normalized echo."""
    prov = {"levkit_version": __version__, "command": command,
            "levkit_threads": LEVKIT_THREADS}
    if cfg is not None:
        prov["config"] = cfg.normalized()
    return prov


def _out_dir(cfg, override=None) -> Path:
    if override is not None:
        return Path(override)
    if cfg.output_section is not None:
        return Path(cfg.output_section["directory"])
    return Path(".")


def _frequency_grid(cfg) -> np.ndarray:
    sec = cfg.output_section or {}
    f_min = sec.get("frequency_min", 1.0)
    f_max = sec.get("frequency_max", 1e4)
    points = sec.get("frequency_points", 200)
    if f_min <= 0.0 or f_max <= f_min or points < 2:
        raise ConfigError("output: need 0 < frequency_min < frequency_max and >= 2 points")
    return np.logspace(np.log10(f_min), np.log10(f_max), points)


def cmd_noise_budget(args) -> int:
    cfg = load_config(args.config)
    cfg.require("sphere", "trap", "noise")
    freqs = _frequency_grid(cfg)
    levels = cfg.noise.levels
    cols = (["frequency_hz"] + [f"{lb}_force_asd_n_rthz" for lb in levels]
            + ["total_force_asd_n_rthz", "total_acceleration_ng_rthz"])

    # Every contribution is white: each column but the frequency is constant.
    total = cfg.noise.total_asd
    accel = acceleration_asd_ng(Quantity(total, Dimension.FORCE_ASD), cfg.sphere)
    data = [freqs, *(np.full(freqs.size, v) for v in (*levels.values(), total, accel))]

    out = _out_dir(cfg, args.outdir) / "noise_budget.csv"
    write_csv(out, _provenance("noise-budget", cfg).items(), cols, [data])

    f0 = cfg.trap.resonant_frequency
    print(f"wrote {out}")
    print(f"at resonance ({f0!r} Hz): force ASD {total!r} N/Hz^0.5, "
          f"acceleration ASD {accel!r} ng/Hz^0.5")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    cfg.require("sphere", "trap", "simulation")
    # Every check that depends only on the config, the search's and the
    # PSD's included, is made here, before any sample is simulated.
    run = Run(cfg.sphere, cfg.trap, cfg.simulation, cfg.impulses, cfg.false_alarm_rate)
    readers = []
    welch = None
    if cfg.psd_segment_length is not None:
        welch = Welch(cfg.psd_segment_length, run.sample_interval, run.size)
        readers.append(welch)
    # Drop the first 5 relaxation times before measuring the variance.
    gamma_tot = total_damping(cfg.trap, cfg.simulation)
    variance = RunningVariance(min(run.size // 2,
                                   int(5.0 / (gamma_tot * run.sample_interval))))
    readers.append(variance)
    out_dir = _out_dir(cfg, args.outdir)

    prov = _provenance("simulate", cfg)
    traj_path = out_dir / "trajectory.csv"
    # The one pass runs inside the trajectory's write, the search and the PSD
    # with it, so a run that fails anywhere leaves no output.
    write_series(traj_path, prov.items(), _TRAJECTORY_COLUMNS, run.sample_interval,
                 run.chunks(*readers))
    print(f"wrote {traj_path}")

    mass = cfg.sphere.mass
    omega0 = cfg.trap.omega0
    var = variance.value
    t_eff = mass * omega0**2 * var / K_B
    print(f"measured displacement variance {var!r} m^2 "
          f"(equipartition temperature {t_eff!r} K)")

    if welch is not None:
        psd = welch.estimate()
        psd_path = out_dir / "psd.csv"
        write_csv(psd_path, prov.items(), ("frequency_hz", "displacement_psd_m2_per_hz"),
                  [(psd.frequency, psd.psd)])
        print(f"wrote {psd_path} ({psd.n_segments} segments)")

    if run.threshold is not None:
        threshold = run.threshold.value
        detections = [{
            "time_s": ev.time,
            "injected_momentum_kg_m_s": ev.momentum_transfer * ev.direction,
            "filter_amplitude_kg_m_s": amp,
            "detected": bool(amp > threshold),
        } for ev, amp in zip(cfg.impulses, run.amplitudes)]
        det_path = out_dir / "detections.json"
        write_json(det_path, {**prov, "threshold_kg_m_s": threshold, "events": detections})
        n_hit = sum(1 for d in detections if d["detected"])
        print(f"wrote {det_path}: threshold {threshold!r} kg m/s, "
              f"{n_hit}/{len(detections)} injected impulses detected")
    return EXIT_OK


def _write_curve(curve, out_dir: Path, case: str, cfg):
    csv_path = out_dir / f"exclusion_{case}.csv"
    json_path = out_dir / f"exclusion_{case}.json"
    prov = _provenance(f"exclusion {case}", cfg)
    curve.to_csv(csv_path, prov)
    write_json(json_path, {**prov, **curve.to_json_dict()})
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")


def _grid(plan: dict, lo_key: str, hi_key: str) -> np.ndarray:
    """Log grid from plan[lo_key] to plan[hi_key], at the plan's density if it sets one."""
    if lo_key not in plan or hi_key not in plan:
        raise ConfigError(f"plan: {lo_key} and {hi_key} are required for this case")
    if "points_per_decade" in plan:
        return log_grid(plan[lo_key], plan[hi_key], plan["points_per_decade"])
    return log_grid(plan[lo_key], plan[hi_key])


def cmd_exclusion(args) -> int:
    cfg = load_config(args.config)
    plan = cfg.build_plan()
    out_dir = _out_dir(cfg, args.outdir)
    case = args.case
    p = cfg.plan_section

    if case in ("millicharge", "neutrality"):
        if "drive_field" not in p:
            raise ConfigError(f"exclusion {case}: plan.drive_field is required")
        eps = millicharge_sensitivity(plan, p["drive_field"]).value
        bound = neutrality_sensitivity(plan, p["drive_field"]).value
        path = out_dir / f"exclusion_{case}.json"
        write_json(path, {**_provenance(f"exclusion {case}", cfg),
                          "millicharge_sensitivity_e": eps,
                          "neutrality_bound_per_nucleon_e": bound,
                          "nucleon_count": plan.sphere.nucleon_count})
        print(f"millicharge_sensitivity_e = {eps!r}")
        print(f"neutrality_bound_per_nucleon_e = {bound!r}")
        print(f"wrote {path}")
        return EXIT_OK
    if case == "isl":
        cfg.require("geometry")
        curve = isl_projection(plan, _grid(p, "lambda_min", "lambda_max"))
    elif case == "coulomb":
        cfg.require("capacitor")
        curve = coulomb_projection(
            plan, _grid(p, "lambda_min", "lambda_max"), cfg.capacitor,
            polarizing_field=p.get("polarizing_field", 0.0))
    else:
        if "q_min" not in p:
            raise ConfigError("exclusion dm: plan.q_min is required")
        # Energy-dimension config values are already in eV.
        masses = _grid(p, "dm_mass_min", "dm_mass_max")
        curve = dm_projection(
            plan, masses, Quantity(p["q_min"], Dimension.MOMENTUM),
            mediator_mass_ev=p.get("mediator_mass", 0.0))
    _write_curve(curve, out_dir, case, cfg)
    return EXIT_OK


def cmd_axion(args) -> int:
    rows = []
    for fa in args.fa_gev:
        m_a_ev, f_gw_hz = axion_gw_line(fa)
        rows.append((fa, m_a_ev, f_gw_hz))
        print(f"f_a = {fa!r} GeV: m_a = {m_a_ev!r} eV, f_gw = {f_gw_hz!r} Hz")
    if args.output is not None:
        write_csv(args.output, _provenance("axion").items(),
                  ("f_a_gev", "m_a_ev", "f_gw_hz"), [list(zip(*rows))])
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_normalize_config(args) -> int:
    doc = load_config(args.config).normalized()
    if args.output is not None:
        write_json(args.output, doc)
        print(f"wrote {args.output}")
    else:
        dump_json(doc, sys.stdout)
    return EXIT_OK


# Shipped benchmark configs and the subcommand each one feeds.
BENCHMARK_RUNS = (
    ("noise_budget_10um.json", "noise-budget"),
    ("isl_finger_20um.json", "exclusion-isl"),
    ("coulomb_charged_20um.json", "exclusion-coulomb"),
    ("millicharge_10um.json", "exclusion-millicharge"),
    ("dm_recoil_10um.json", "exclusion-dm"),
)


def _config_dir() -> Path:
    return Path(__file__).parent / "configs"


def cmd_regen_figures(args) -> int:
    out_root = Path(args.outdir)
    for name, command in BENCHMARK_RUNS:
        path = _config_dir() / name
        sub_out = out_root / path.stem
        print(f"== {command} {name} -> {sub_out}")
        ns = argparse.Namespace(config=str(path), outdir=str(sub_out))
        if command == "noise-budget":
            cmd_noise_budget(ns)
        else:
            ns.case = command.split("-", 1)[1]
            cmd_exclusion(ns)
    # The axion line benchmark is a pure function of f_a; emit a small grid.
    ns = argparse.Namespace(fa_gev=[1e9, 1e12, 1e16, 1.9010398190798424e16],
                            output=str(out_root / "axion_lines.csv"))
    cmd_axion(ns)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levkit",
        description="Levitated-sphere sensitivity projections and simulations.",
    )
    parser.add_argument("--version", action="version", version=f"levkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("noise-budget", help="tabulate the force-noise budget")
    p.add_argument("config")
    p.add_argument("-o", "--outdir", default=None)
    p.set_defaults(func=cmd_noise_budget)

    p = sub.add_parser("simulate", help="run the Langevin trajectory model")
    p.add_argument("config")
    p.add_argument("-o", "--outdir", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exclusion", help="projected exclusion / sensitivity curves")
    p.add_argument("case", choices=["isl", "coulomb", "millicharge", "neutrality", "dm"])
    p.add_argument("config")
    p.add_argument("-o", "--outdir", default=None)
    p.set_defaults(func=cmd_exclusion)

    p = sub.add_parser("axion", help="axion-annihilation GW line frequencies")
    p.add_argument("fa_gev", nargs="+", type=float, help="decay constants in GeV")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_axion)

    p = sub.add_parser("normalize-config", help="re-emit a config in canonical SI units")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_normalize_config)

    p = sub.add_parser("regen-figures", help="rerun all shipped benchmark configs")
    p.add_argument("-o", "--outdir", default="figures")
    p.set_defaults(func=cmd_regen_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
