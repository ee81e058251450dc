"""Output checks for the levkit benchmark.

Every expected value here is computed apart from levkit: constants come
from ``scipy.constants``, config values are read with this file's own unit
table, closed forms are written out again, the dark-matter rate is a fresh
quadrature of the halo-averaged Born rate, the Langevin trajectory is
re-derived from the BAOAB splitting, and the Yukawa forces come from the
brute-force oracle table in ``oracle_table.json``.  Statistical checks
(equipartition, Lorentzian PSD, matched-filter threshold) test properties
the method must have, with tolerances set by their statistical error.

A failed check raises ``CheckError``.
"""

import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import constants as sc
from scipy import integrate, signal, special

HERE = Path(__file__).resolve().parent
EXACT = 1e-6       # closed forms; covers CODATA 2018 vs scipy's constants


class CheckError(AssertionError):
    """A program output disagrees with its independent expectation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def close(actual, expected, rtol, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape,
            f"{what}: shape {actual.shape} != expected {expected.shape}")
    err = np.abs(actual - expected) / np.abs(expected)
    worst = int(np.argmax(err)) if err.size else 0
    require(bool(np.all(err <= rtol)),
            f"{what}: relative error {float(err.flat[worst]):.3g} > {rtol:g} "
            f"at index {worst}")


# ---------------------------------------------------------------- inputs

_UNITS = {
    "m": 1.0, "um": 1e-6, "mm": 1e-3, "s": 1.0, "days": 86400.0,
    "Hz": 1.0, "kHz": 1e3, "1/s": 1.0, "K": 1.0, "kg/m^3": 1.0, "V": 1.0, "kV": 1e3,
    "V/m": 1.0, "kV/mm": 1e6, "N/Hz^0.5": 1.0, "eV": 1.0, "TeV": 1e12,
    "kg*m/s": 1.0, "km/s": 1e3,
}


def si(text):
    """'5 um' -> 5e-06 (SI; energies stay in eV)."""
    number, unit = text.split()
    return float(number) * _UNITS[unit]


def sphere_mass(doc):
    s = doc["sphere"]
    return 4.0 / 3.0 * math.pi * si(s["radius"]) ** 3 * si(s["density"])


def noise_levels(doc):
    """Labelled flat force ASDs (symmetric convention), N/sqrt(Hz)."""
    n, t = doc["noise"], doc["trap"]
    m = sphere_mass(doc)
    gamma = si(t["damping_rate"])
    out = {}
    if n.get("include_thermal"):
        out["thermal"] = math.sqrt(2.0 * sc.k * si(t["temperature"]) * m * gamma)
    if n.get("include_sql"):
        omega0 = 2.0 * math.pi * si(t["resonant_frequency"])
        out["sql"] = math.sqrt(2.0 * sc.hbar * m * omega0 * gamma)
    if "technical_force_asd" in n:
        out["technical"] = si(n["technical_force_asd"])
    return out


def min_force(doc, significance=None):
    p = doc["plan"]
    sig = p.get("significance", 1.0) if significance is None else significance
    total = math.sqrt(sum(v * v for v in noise_levels(doc).values()))
    return sig * total / math.sqrt(si(p["integration_time"]))


def grid(lo, hi, per_decade):
    n = int(round(math.log10(hi / lo) * per_decade)) + 1
    return 10.0 ** np.linspace(math.log10(lo), math.log10(hi), n)


# ---------------------------------------------------------------- outputs

def read_csv(path):
    """(header lines, column names, 2-D data) of a '#'-headed CSV."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    n_head = 0
    while n_head < len(lines) and lines[n_head].startswith("#"):
        n_head += 1
    header = [ln.rstrip("\n") for ln in lines[:n_head]]
    cols = [ln for ln in header if ln.startswith("# columns = ")]
    require(len(cols) == 1, f"{path}: expected one '# columns' line")
    names = cols[0][len("# columns = "):].split(",")
    body = "".join(lines[n_head:])
    require(body.endswith("\n"), f"{path}: last row is not terminated")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    require(data.shape[1] == len(names), f"{path}: row width != {len(names)}")
    return header, names, data


def check_provenance(header, command, path):
    require(f"# command = {command}" in header, f"{path}: command is not {command!r}")
    require("# levkit_threads = 1" in header, f"{path}: levkit_threads is not 1")


def read_curve(out, stem, command, columns):
    """The curve's CSV and JSON; both must carry the same numbers."""
    header, names, data = read_csv(out / f"{stem}.csv")
    check_provenance(header, command, out / f"{stem}.csv")
    require(names == columns, f"{stem}.csv: columns {names} != {columns}")
    doc = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
    require(doc["command"] == command and doc["levkit_threads"] == "1",
            f"{stem}.json: wrong provenance")
    keys = {"lambda_m": "abscissa", "dm_mass_ev": "abscissa",
            "mediator_mass_ev": "secondary_abscissa"}
    for i, name in enumerate(names):
        arr = np.array(doc[keys.get(name, "coupling")], dtype=float)
        require(np.array_equal(arr, data[:, i]), f"{stem}: CSV and JSON differ in {name}")
    return data, doc


# ------------------------------------------------------------ figures

def check_noise_budget(out, doc):
    path = out / "noise_budget.csv"
    header, names, data = read_csv(path)
    check_provenance(header, "noise-budget", path)
    levels = noise_levels(doc)
    labels = list(levels)
    require(names == (["frequency_hz"] + [f"{k}_force_asd_n_rthz" for k in labels]
                      + ["total_force_asd_n_rthz", "total_acceleration_ng_rthz"]),
            f"{path}: columns {names}")
    o = doc["output"]
    freqs = 10.0 ** np.linspace(math.log10(si(o["frequency_min"])),
                                math.log10(si(o["frequency_max"])),
                                o["frequency_points"])
    close(data[:, 0], freqs, 1e-12, "noise budget frequencies")
    for i, label in enumerate(labels):
        close(data[:, 1 + i], np.full(freqs.size, levels[label]), EXACT,
              f"noise budget {label} ASD")
    total = math.sqrt(sum(v * v for v in levels.values()))
    close(data[:, -2], np.full(freqs.size, total), EXACT, "noise budget total ASD")
    close(data[:, -1], np.full(freqs.size, total / sphere_mass(doc) / sc.g * 1e9),
          EXACT, "noise budget acceleration ASD")


def check_coulomb(out, doc):
    data, _ = read_curve(out, "exclusion_coulomb", "exclusion coulomb",
                         ["lambda_m", "mediator_mass_ev", "chi_min"])
    p, cap = doc["plan"], doc["capacitor"]
    lam = grid(si(p["lambda_min"]), si(p["lambda_max"]), p["points_per_decade"])
    close(data[:, 0], lam, 1e-12, "coulomb lambda grid")
    close(data[:, 1], sc.hbar * sc.c / (lam * sc.e), EXACT, "dark-photon mass")
    v, s, d = si(cap["voltage"]), si(cap["plate_spacing"]), si(cap["standoff"])
    field = v / (2.0 * s) * (np.exp(-d / lam) - np.exp(-(d + s) / lam))
    charge = abs(doc["sphere"]["net_charge"]) * sc.e
    close(data[:, 2], np.sqrt(min_force(doc) / (charge * field)), EXACT, "chi_min")


def check_millicharge(out, doc):
    res = json.loads((out / "exclusion_millicharge.json").read_text(encoding="utf-8"))
    require(res["command"] == "exclusion millicharge", "millicharge: wrong command")
    eps = min_force(doc, significance=1.0) / (sc.e * si(doc["plan"]["drive_field"]))
    nucleons = sphere_mass(doc) / sc.physical_constants["atomic mass constant"][0]
    close(res["millicharge_sensitivity_e"], eps, EXACT, "millicharge epsilon")
    close(res["nucleon_count"], nucleons, EXACT, "nucleon count")
    close(res["neutrality_bound_per_nucleon_e"], eps / nucleons, EXACT, "neutrality bound")


def check_axion(out, fa_gev):
    path = out / "axion_lines.csv"
    header, names, data = read_csv(path)
    check_provenance(header, "axion", path)
    require(names == ["f_a_gev", "m_a_ev", "f_gw_hz"], f"{path}: columns {names}")
    close(data[:, 0], fa_gev, 0.0, "axion f_a")
    m_a = 5.7e-3 * 1e9 / np.asarray(fa_gev)
    close(data[:, 1], m_a, EXACT, "axion mass")
    close(data[:, 2], 2.0 * m_a * sc.e / sc.h, EXACT, "axion GW line")


def halo_speed_pdf(v, v0, v_esc, v_earth, norm):
    """Earth-frame speed density of a truncated Maxwellian, per (m/s).

    ``norm`` is the Maxwellian's integral over the galactic-frame ball
    |u| < v_esc.
    """
    # Angular integral over cos(angle) of exp(-|v + v_E|^2 / v0^2), cut at v_esc.
    c_max = min(1.0, (v_esc**2 - v * v - v_earth**2) / (2.0 * v * v_earth))
    if c_max <= -1.0:
        return 0.0
    b = 2.0 * v * v_earth / v0**2
    a = (v * v + v_earth**2) / v0**2
    angular = (math.exp(-a + b) - math.exp(-a - b * c_max)) / b
    return 2.0 * math.pi * v * v * angular / norm


def dm_rate(nucleons, q_min_si, m_dm_ev, mediator_ev, halo):
    """Born scattering rate above q_min (events/s, alpha_n = 1)."""
    q = q_min_si * sc.c / sc.e                     # eV
    hbarc_cm = sc.hbar * sc.c / sc.e * 100.0       # eV cm
    v0, v_esc, v_earth, rho = halo
    norm = 4.0 * math.pi * integrate.quad(
        lambda u: u * u * math.exp(-u * u / v0**2), 0.0, v_esc, epsabs=0.0,
        epsrel=1e-13)[0]

    def integrand(v):
        beta = v / sc.c
        p = m_dm_ev * beta
        if 2.0 * p <= q:
            return 0.0
        # sigma(>q) from integrating dsigma/dq = 8 pi g^2 q / (v^2 (q^2+mu^2)^2).
        sigma = (4.0 * math.pi * nucleons**2 / beta**2
                 * (1.0 / (q * q + mediator_ev**2) - 1.0 / (4.0 * p * p + mediator_ev**2)))
        return halo_speed_pdf(v, v0, v_esc, v_earth, norm) * v * 100.0 * sigma * hbarc_cm**2

    v_thr = q * sc.c / (2.0 * m_dm_ev)
    breaks = sorted(b for b in (v_esc - v_earth, v_thr) if 0.0 < b < v_esc + v_earth)
    flux = integrate.quad(integrand, 0.0, v_esc + v_earth, points=breaks, limit=400,
                          epsabs=0.0, epsrel=1e-11)[0]
    return rho * 1e9 / m_dm_ev * flux


def check_dm(out, doc):
    data, _ = read_curve(out, "exclusion_dm", "exclusion dm", ["dm_mass_ev", "alpha_n_limit"])
    p, h = doc["plan"], doc["halo"]
    masses = grid(si(p["dm_mass_min"]), si(p["dm_mass_max"]), p["points_per_decade"])
    close(data[:, 0], masses, 1e-12, "dm mass grid")
    nucleons = round(sphere_mass(doc) / sc.physical_constants["atomic mass constant"][0])
    halo = (si(h["v0"]), si(h["v_escape"]), si(h["v_earth"]), h["density_gev_cm3"])
    exposure = si(p["exposure_sphere_days"]) * p.get("array_size", 1)
    expected = [math.sqrt(3.0 / (dm_rate(nucleons, si(p["q_min"]), m, si(p["mediator_mass"]),
                                         halo) * exposure)) for m in masses]
    close(data[:, 1], expected, 1e-5, "dm alpha_n limit")


def check_isl(out, doc, table_key):
    """ISL curve: grid, positivity, and alpha * F_oracle = F_min at table points."""
    data, _ = read_curve(out, "exclusion_isl", "exclusion isl", ["lambda_m", "alpha_min"])
    p = doc["plan"]
    lam = grid(si(p["lambda_min"]), si(p["lambda_max"]), p["points_per_decade"])
    close(data[:, 0], lam, 1e-12, "ISL lambda grid")
    require(bool(np.all(np.isfinite(data[:, 1]) & (data[:, 1] > 0.0))), "ISL alpha not positive")
    entry = json.loads((HERE / "oracle_table.json").read_text(encoding="utf-8"))[table_key]
    require(entry["geometry"] == doc["geometry"] and entry["sphere"] == doc["sphere"],
            f"oracle table {table_key!r} was made for another geometry")
    f_min = min_force(doc)
    for point in entry["points"]:
        i = int(np.argmin(np.abs(lam / point["lambda_m"] - 1.0)))
        require(abs(lam[i] / point["lambda_m"] - 1.0) < 1e-12,
                f"ISL grid lacks oracle point {point['lambda_m']!r}")
        close(data[i, 1] * point["force_n"], f_min, entry["tolerance"],
              f"{table_key} alpha * oracle force at lambda {lam[i]:.4g} m")


# ------------------------------------------------------------ dynamics

def baoab_filters(omega0, gamma_total, dt):
    """Transfer functions (b_noise, b_kick, a) from inputs to x at step start.

    One step is half kick, half drift, exact velocity decay plus the noise
    kick, half drift, half kick.  A velocity kick at the start of step n
    (impulse) or after the decay (noise) first shows in x at step n+1.
    """
    kick = np.array([[1.0, 0.0], [-omega0**2 * dt / 2.0, 1.0]])
    drift = np.array([[1.0, dt / 2.0], [0.0, 1.0]])
    decay = np.diag([1.0, math.exp(-gamma_total * dt)])
    step = kick @ drift @ decay @ drift @ kick
    den = np.array([1.0, -np.trace(step), np.linalg.det(step)])

    def numerator(col):
        # First row of adj(zI - step) @ col, divided by z^2 in z^-1 form.
        return np.array([0.0, col[0], step[0, 1] * col[1] - step[1, 1] * col[0]])

    return numerator(kick @ drift @ [0.0, 1.0]), numerator(step @ [0.0, 1.0]), den


def sim_params(doc):
    s, t = doc["simulation"], doc["trap"]
    gamma = si(t["damping_rate"])
    fb = si(s.get("feedback_gain", "0 1/s"))
    return {
        "m": sphere_mass(doc), "f0": si(t["resonant_frequency"]),
        "omega0": 2.0 * math.pi * si(t["resonant_frequency"]),
        "gamma": gamma, "gamma_total": gamma + fb, "dt": si(s["time_step"]),
        "n": int(round(si(s["duration"]) / si(s["time_step"]))),
        "temperature": si(s["bath_temperature"]), "seed": s["rng_seed"],
        "decimation": s.get("record_decimation", 1),
    }


def kick_variance(p):
    """Variance of the per-step velocity noise: exact Ornstein-Uhlenbeck update
    towards k T_eff / m, with T_eff = T gamma / (gamma + g_fb)."""
    return (sc.k * p["temperature"] * p["gamma"] / (p["m"] * p["gamma_total"])
            * -math.expm1(-2.0 * p["gamma_total"] * p["dt"]))


def reference_trajectory(doc):
    """Full-rate displacement re-derived from the config."""
    p = sim_params(doc)
    b_noise, b_kick, a = baoab_filters(p["omega0"], p["gamma_total"], p["dt"])
    var = kick_variance(p)
    rng = np.random.default_rng(np.random.SeedSequence(p["seed"]))
    x = signal.lfilter(b_noise, a, rng.standard_normal(p["n"]) * math.sqrt(var))
    kicks = np.zeros(p["n"])
    for ev in doc["simulation"].get("impulses", []):
        sign = ev.get("direction", 1)
        kicks[int(round(si(ev["time"]) / p["dt"]))] += sign * si(ev["momentum_transfer"]) / p["m"]
    if kicks.any():
        x = x + signal.lfilter(b_kick, a, kicks)
    return x, p


def check_trajectory_file(out, doc):
    """Timestamps exact, samples equal to the re-derived trajectory."""
    path = out / "trajectory.csv"
    header, names, data = read_csv(path)
    check_provenance(header, "simulate", path)
    require(names == ["time_s", "displacement_m"], f"{path}: columns {names}")
    x_full, p = reference_trajectory(doc)
    x_ref = x_full[::p["decimation"]]
    require(data.shape[0] == x_ref.size, f"{path}: {data.shape[0]} rows, expected {x_ref.size}")
    times = (p["dt"] * p["decimation"]) * np.arange(x_ref.size)
    require(np.array_equal(data[:, 0], times), f"{path}: timestamps are not exact")
    scale = float(np.sqrt(np.mean(x_ref**2)))
    worst = float(np.max(np.abs(data[:, 1] - x_ref))) / scale
    require(worst < 1e-6, f"{path}: samples differ from the BAOAB reference by "
                          f"{worst:.3g} of the RMS")
    return data[:, 1], p


def check_printed_temperature(x, p, stdout):
    """The temperature simulate prints is m w0^2 var(x) / kB after 5 relaxation times."""
    skip = min(x.size // 2, int(5.0 / (p["gamma_total"] * p["dt"])))
    t_printed = float(stdout.split("equipartition temperature ")[1].split()[0])
    close(t_printed, p["m"] * p["omega0"] ** 2 * np.var(x[skip:]) / sc.k, EXACT,
          "printed temperature")


def check_equipartition(x, p):
    """Mean potential energy gives T * gamma / (gamma + g_fb) within 5 sigma."""
    t_eff = p["temperature"] * p["gamma"] / p["gamma_total"]
    skip = int(5.0 / (p["gamma_total"] * p["dt"]))
    # Block estimate of the statistical error; a block spans 20 relaxation times.
    block = int(20.0 / (p["gamma_total"] * p["dt"]))
    blocks = x[skip: skip + (x.size - skip) // block * block].reshape(-1, block)
    t_blocks = p["m"] * p["omega0"] ** 2 * np.mean(blocks**2, axis=1) / sc.k
    t_err = float(np.std(t_blocks, ddof=1) / math.sqrt(t_blocks.size))
    t_meas = float(np.mean(t_blocks))
    require(abs(t_meas - t_eff) < 5.0 * t_err,
            f"equipartition: T = {t_meas:.4g} K, expected T*g/(g+fb) = {t_eff:.4g} K "
            f"(error {t_err:.2g} K)")


def check_psd_file(out, doc, x, p):
    """psd.csv equals a Welch estimate (Hann, 50 % overlap) of the trajectory."""
    path = out / "psd.csv"
    header, names, data = read_csv(path)
    check_provenance(header, "simulate", path)
    require(names == ["frequency_hz", "displacement_psd_m2_per_hz"], f"{path}: columns {names}")
    seg = doc["simulation"]["psd_segment_length"]
    fs = 1.0 / (p["dt"] * p["decimation"])
    freqs, welch = signal.welch(x, fs=fs, window=np.hanning(seg), nperseg=seg,
                                noverlap=seg - int(round(seg * 0.5)), detrend=False)
    require(data.shape[0] == freqs.size, f"{path}: {data.shape[0]} rows, expected {freqs.size}")
    require(data[0, 0] == 0.0, f"{path}: first frequency is not 0")
    close(data[1:, 0], freqs[1:], 1e-12, "PSD frequencies")
    close(data[:, 1], welch, 1e-7, "PSD against Welch on the trajectory")
    return data


def check_lorentzian(data, p):
    """PSD peak at f0 and level of the analytic one-sided Lorentzian."""
    w = 2.0 * math.pi * data[1:, 0]
    lorentz = (4.0 * sc.k * p["temperature"] * p["gamma"]
               / (p["m"] * ((p["omega0"] ** 2 - w**2) ** 2 + (w * p["gamma_total"]) ** 2)))
    fwhm = p["gamma_total"] / (2.0 * math.pi)
    peak = float(data[1 + int(np.argmax(data[1:, 1])), 0])
    require(abs(peak - p["f0"]) <= fwhm, f"PSD peak at {peak} Hz, f0 = {p['f0']} Hz")
    # Within two linewidths of resonance.  With 1000 relaxation times of data
    # the ratio scatters by about 5 % from seed to seed; 25 % is five sigma.
    band = np.abs(data[1:, 0] - p["f0"]) <= 2.0 * fwhm
    ratio = float(np.median(data[1:, 1][band] / lorentz[band]))
    require(abs(ratio - 1.0) < 0.25, f"PSD/Lorentzian median {ratio:.3f} near resonance")


def check_trajectory(out, doc, stdout):
    """trajectory workload: trajectory, printed temperature, equipartition, PSD."""
    x, p = check_trajectory_file(out, doc)
    check_printed_temperature(x, p, stdout)
    check_equipartition(x, p)
    check_lorentzian(check_psd_file(out, doc, x, p), p)


def gaussian_threshold(p, false_alarm_rate):
    """(1 - FAR dt) quantile of |matched-filter output| for Gaussian noise."""
    b_noise, b_kick, a = baoab_filters(p["omega0"], p["gamma_total"], p["dt"])
    n_tpl = int(round(10.0 / p["gamma_total"] / p["dt"]))
    impulse = np.zeros(3 * n_tpl)
    impulse[0] = 1.0
    tpl = signal.lfilter(b_kick, a, impulse[:n_tpl]) / p["m"]
    g = signal.lfilter(b_noise, a, impulse)
    r = signal.fftconvolve(g, tpl[::-1], mode="full")
    sigma = math.sqrt(kick_variance(p) * float(np.sum(r * r))) / float(np.dot(tpl, tpl))
    return sigma * special.ndtri(1.0 - false_alarm_rate * p["dt"] / 2.0)


def check_threshold(res, doc):
    """The empirical threshold sits near the Gaussian quantile."""
    expected = gaussian_threshold(sim_params(doc), si(doc["simulation"]["false_alarm_rate"]))
    ratio = res["threshold_kg_m_s"] / expected
    # The empirical tail quantile of a correlated series scatters by tens of
    # per cent around the Gaussian value.
    require(0.7 < ratio < 1.3,
            f"threshold {res['threshold_kg_m_s']:.4g} vs Gaussian {expected:.4g} kg m/s")
    return expected


def detection_verdicts(res, doc, expected_threshold):
    """One verdict per injected impulse; each is injected far above threshold."""
    injected = doc["simulation"]["impulses"]
    require(len(res["events"]) == len(injected), "detections.json: wrong event count")
    verdicts = []
    for ev, got in zip(injected, res["events"]):
        q = ev.get("direction", 1) * si(ev["momentum_transfer"])
        require(got["time_s"] == si(ev["time"]) and got["injected_momentum_kg_m_s"] == q,
                "detections.json: event does not match the config")
        require(abs(q) > 4.0 * expected_threshold,
                "workload error: impulse not far above threshold")
        verdicts.append(got["detected"] is True)
    return verdicts


def check_impulse_search(out, doc):
    """impulse-search workload: decimated trajectory, threshold; returns verdicts."""
    check_trajectory_file(out, doc)
    res = json.loads((out / "detections.json").read_text(encoding="utf-8"))
    require(res["command"] == "simulate" and res["levkit_threads"] == "1",
            "detections.json: wrong provenance")
    return detection_verdicts(res, doc, check_threshold(res, doc))
