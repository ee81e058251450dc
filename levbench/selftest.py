"""Self-test of the benchmark's output checks: every check must be able to fail.

Usage (from the repository root; about a minute):

    python3 levbench/selftest.py

Runs each workload's levkit command once (seed 1), requires the checks to
accept the genuine outputs, then applies one perturbation at a time to a
copy of them and requires the checks to reject it.  Exact checks get a
value changed by 1e-3 relative, a dropped row or a wrong header; the
statistical checks (equipartition, Lorentzian, threshold) get a change
larger than their tolerance.  This is not part of the tier-1 tests.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REL = 1e-3


def _rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    head = [ln for ln in lines if ln.startswith("#")]
    return head, lines[len(head):]


def scale_csv(path, row, col, factor):
    head, rows = _rows(path)
    cells = rows[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * factor)
    rows[row] = ",".join(cells) + "\n"
    Path(path).write_text("".join(head + rows), encoding="utf-8")


def drop_csv_row(path, row):
    head, rows = _rows(path)
    del rows[row]
    Path(path).write_text("".join(head + rows), encoding="utf-8")


def edit_json(path, fn):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    fn(doc)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def replace_text(path, old, new):
    text = Path(path).read_text(encoding="utf-8")
    assert old in text, f"{old!r} not in {path}"
    Path(path).write_text(text.replace(old, new, 1), encoding="utf-8")


def scale_curve(stem, row, col, key, factor):
    """Change one curve value in both the CSV and the JSON."""
    def mutate(out):
        scale_csv(out / f"{stem}.csv", row, col, factor)

        def fn(doc):
            doc[key][row] = doc[key][row] * factor
        edit_json(out / f"{stem}.json", fn)
    return mutate


def drop_curve_row(stem, row):
    def mutate(out):
        drop_csv_row(out / f"{stem}.csv", row)

        def fn(doc):
            for key in ("abscissa", "coupling", "secondary_abscissa"):
                if key in doc:
                    del doc[key][row]
        edit_json(out / f"{stem}.json", fn)
    return mutate


def table_row(key):
    """Row of the first oracle-table point on the workload's lambda grid."""
    table = json.loads((checks.HERE / "oracle_table.json").read_text(encoding="utf-8"))
    return table[key]["points"][0]["lambda_m"]


def isl_row(out, lam):
    _, _, data = checks.read_csv(out / "exclusion_isl.csv")
    return int(np.argmin(np.abs(data[:, 0] / lam - 1.0)))


def in_dir(sub, mutate):
    return lambda out: mutate(out / sub)


def figures_cases():
    nb, cb, dm, isl, mc = ("noise_budget_10um", "coulomb_charged_20um", "dm_recoil_10um",
                           "isl_finger_20um", "millicharge_10um")
    lam = table_row("finger")
    cases = [(f"noise budget column {c} value", in_dir(nb, lambda o, c=c: scale_csv(
        o / "noise_budget.csv", 17, c, 1 + REL))) for c in range(6)]
    cases += [
        ("noise budget dropped row", in_dir(nb, lambda o: drop_csv_row(o / "noise_budget.csv", 5))),
        ("noise budget command header", in_dir(nb, lambda o: replace_text(
            o / "noise_budget.csv", "# command = noise-budget", "# command = simulate"))),
        ("noise budget thread header", in_dir(nb, lambda o: replace_text(
            o / "noise_budget.csv", "# levkit_threads = 1", "# levkit_threads = 2"))),
        ("coulomb chi_min", in_dir(cb, scale_curve("exclusion_coulomb", 30, 2, "coupling", 1 + REL))),
        ("coulomb mediator mass", in_dir(cb, scale_curve(
            "exclusion_coulomb", 30, 1, "secondary_abscissa", 1 + REL))),
        ("coulomb lambda", in_dir(cb, scale_curve("exclusion_coulomb", 30, 0, "abscissa", 1 + REL))),
        ("coulomb dropped row", in_dir(cb, drop_curve_row("exclusion_coulomb", 7))),
        ("coulomb CSV differs from JSON", in_dir(cb, lambda o: scale_csv(
            o / "exclusion_coulomb.csv", 3, 2, 1 + REL))),
        ("millicharge epsilon", in_dir(mc, lambda o: edit_json(
            o / "exclusion_millicharge.json", lambda d: d.update(
                millicharge_sensitivity_e=d["millicharge_sensitivity_e"] * (1 + REL))))),
        ("neutrality bound", in_dir(mc, lambda o: edit_json(
            o / "exclusion_millicharge.json", lambda d: d.update(
                neutrality_bound_per_nucleon_e=d["neutrality_bound_per_nucleon_e"] * (1 + REL))))),
        ("nucleon count", in_dir(mc, lambda o: edit_json(
            o / "exclusion_millicharge.json", lambda d: d.update(
                nucleon_count=round(d["nucleon_count"] * (1 + REL)))))),
        ("dm alpha_n limit", in_dir(dm, scale_curve("exclusion_dm", 10, 1, "coupling", 1 + REL))),
        ("dm dropped row", in_dir(dm, drop_curve_row("exclusion_dm", 0))),
        ("finger ISL alpha up", in_dir(isl, lambda o: scale_curve(
            "exclusion_isl", isl_row(o, lam), 1, "coupling", 1 + REL)(o))),
        ("finger ISL alpha down", in_dir(isl, lambda o: scale_curve(
            "exclusion_isl", isl_row(o, lam), 1, "coupling", 1 - REL)(o))),
        ("finger ISL dropped row", in_dir(isl, drop_curve_row("exclusion_isl", 2))),
        ("axion mass", lambda o: scale_csv(o / "axion_lines.csv", 1, 1, 1 + REL)),
        ("axion GW line", lambda o: scale_csv(o / "axion_lines.csv", 2, 2, 1 + REL)),
        ("axion dropped row", lambda o: drop_csv_row(o / "axion_lines.csv", 3)),
        ("extra output file", lambda o: (o / "stray.tmp").write_text("", encoding="utf-8")),
        ("missing output file", lambda o: (o / "axion_lines.csv").unlink()),
    ]
    return [(name, mutate, None) for name, mutate in cases]


def capillary_cases():
    lam = table_row("capillary")
    cases = [
        ("capillary ISL alpha up", lambda o: scale_curve(
            "exclusion_isl", isl_row(o, lam), 1, "coupling", 1 + REL)(o)),
        ("capillary ISL alpha down", lambda o: scale_curve(
            "exclusion_isl", isl_row(o, lam), 1, "coupling", 1 - REL)(o)),
        ("capillary ISL lambda", scale_curve("exclusion_isl", 40, 0, "abscissa", 1 + REL)),
        ("capillary ISL dropped row", drop_curve_row("exclusion_isl", 80)),
        ("capillary ISL command header", lambda o: replace_text(
            o / "exclusion_isl.csv", "# command = exclusion isl", "# command = exclusion dm")),
    ]
    return [(name, mutate, None) for name, mutate in cases]


def _largest_sample_row(out):
    _, _, data = checks.read_csv(out / "trajectory.csv")
    return int(np.argmax(np.abs(data[:, 1])))


def trajectory_cases(doc):
    p = checks.sim_params(doc)

    def via_data(fn):
        """Run a statistical sub-check directly on altered, self-consistent data."""
        def check(out, doc, stdout):
            _, _, data = checks.read_csv(out / "trajectory.csv")
            fn(data[:, 1], checks.read_csv(out / "psd.csv")[2])
        return check

    def shift_psd(psd):
        psd = psd.copy()
        psd[1:, 1] = np.roll(psd[1:, 1], 40)
        return psd

    return [
        ("trajectory sample", lambda o: scale_csv(
            o / "trajectory.csv", _largest_sample_row(o), 1, 1 + REL), None),
        ("trajectory timestamp", lambda o: scale_csv(o / "trajectory.csv", 1000, 0, 1 + REL), None),
        ("trajectory dropped row", lambda o: drop_csv_row(o / "trajectory.csv", 500), None),
        ("trajectory command header", lambda o: replace_text(
            o / "trajectory.csv", "# command = simulate", "# command = noise-budget"), None),
        ("PSD value", lambda o: scale_csv(o / "psd.csv", 328, 1, 1 + REL), None),
        ("PSD dropped row", lambda o: drop_csv_row(o / "psd.csv", 100), None),
        ("printed temperature", None, lambda out, doc, stdout: checks.check_printed_temperature(
            checks.read_csv(out / "trajectory.csv")[2][:, 1], p, _scale_printed(stdout))),
        ("equipartition temperature", None, via_data(
            lambda x, psd: checks.check_equipartition(1.2 * x, p))),
        ("Lorentzian level", None, via_data(
            lambda x, psd: checks.check_lorentzian(psd * [1.0, 1.5], p))),
        ("Lorentzian peak", None, via_data(
            lambda x, psd: checks.check_lorentzian(shift_psd(psd), p))),
    ]


def _scale_printed(stdout):
    head, tail = stdout.split("equipartition temperature ")
    value, rest = tail.split(" ", 1)
    return f"{head}equipartition temperature {float(value) * (1 + REL)!r} {rest}"


def impulse_cases(doc):
    def threshold_check(factor):
        def check(out, doc, stdout):
            res = json.loads((out / "detections.json").read_text(encoding="utf-8"))
            res["threshold_kg_m_s"] *= factor
            checks.check_threshold(res, doc)
        return check

    return [
        ("decimated trajectory sample", lambda o: scale_csv(
            o / "trajectory.csv", _largest_sample_row(o), 1, 1 + REL), None),
        ("decimated trajectory dropped row", lambda o: drop_csv_row(o / "trajectory.csv", 9), None),
        ("threshold too high", None, threshold_check(1.5)),
        ("threshold too low", None, threshold_check(0.6)),
        ("event time", lambda o: edit_json(o / "detections.json", lambda d: d["events"][0].update(
            time_s=d["events"][0]["time_s"] * (1 + REL))), None),
        ("event dropped", lambda o: edit_json(o / "detections.json",
                                               lambda d: d["events"].pop()), None),
        ("detections provenance", lambda o: edit_json(o / "detections.json",
                                                      lambda d: d.update(levkit_threads="2")), None),
    ]


def main():
    failures = []
    run.WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))
    try:
        for workload, (make, check) in WORKLOADS.items():
            argv, doc = make(1, base, run.ROOT)
            with run.Launcher() as launcher:
                inv = run.invoke(launcher, argv, base)
            if inv["code"] != 0:
                sys.exit(f"selftest: {workload} command failed")
            out, stdout = inv["out"], inv["stdout"]
            verdicts = check(out, doc, stdout)
            print(f"{workload}: genuine outputs accepted (verdicts {verdicts})")
            cases = {"figures": figures_cases, "capillary-isl": capillary_cases}.get(workload)
            cases = cases() if cases else (trajectory_cases(doc) if workload == "trajectory"
                                           else impulse_cases(doc))
            for name, mutate, sub_check in cases:
                copy = base / "copy"
                shutil.copytree(out, copy)
                try:
                    if mutate:
                        mutate(copy)
                    (sub_check or check)(copy, doc, stdout)
                except checks.CheckError as exc:
                    print(f"  rejected  {name}: {exc}")
                else:
                    print(f"  ACCEPTED  {name}")
                    failures.append(f"{workload}: {name}")
                finally:
                    shutil.rmtree(copy)
            if workload == "impulse-search":
                res = json.loads((out / "detections.json").read_text(encoding="utf-8"))
                for ev in res["events"]:
                    ev["detected"] = True
                ok = checks.detection_verdicts(res, doc, checks.check_threshold(res, doc))
                if ok != [True] * len(ok):
                    failures.append("impulse-search: detected impulses not counted as passing")
            shutil.rmtree(inv["dir"])
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if failures:
        print("checks that accepted a perturbed output:", *failures, sep="\n  ")
        sys.exit(1)
    print("every perturbation was rejected")


if __name__ == "__main__":
    main()
