"""Regenerate ``oracle_table.json``: brute-force Yukawa forces for the ISL checks.

Usage (from the repository root; takes about ten minutes on two cores):

    python3 levbench/make_oracle_table.py

The finger-array oracle in ``levkit.oracles`` averages the strip kernel
over the sphere volume instead of using the form factor, and costs about a
minute per lambda at the depth resolution the shipped finger config needs,
which is too slow for every benchmark run.  This script evaluates it, and
the capillary oracle, at a few points of each workload's lambda grid, each
at two resolutions, and keeps a point only where the two agree to
``CONVERGED``: there the oracle, not its grid, sets the reference.  The
checks accept a curve point when alpha * F_oracle matches the plan's minimum
force within the entry's ``tolerance``, which covers the production
quadrature's own error (its fine/coarse estimate must stay below 1e-3).
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from levkit.config import parse_config  # noqa: E402
from levkit.newforces import CouplingKind, YukawaCoupling  # noqa: E402
from levkit.oracles import capillary_force_oracle, finger_force_oracle  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

CONVERGED = 5e-5
CASES = {
    # name: (config document, oracle, grid indices, (check, reference) resolutions, tolerance)
    "finger": (workloads.shipped_config(HERE.parent, "isl_finger_20um.json"), finger_force_oracle,
               [20, 26, 33, 40], ({"n_z": 24}, {"n_z": 32}), 5e-4),
    "capillary": (workloads.capillary_doc(0), capillary_force_oracle,
                  list(range(0, 81, 10)), ({"n_line": 16}, {"n_line": 32}), 2e-4),
}


def main():
    table = {}
    for name, (doc, oracle, indices, (coarse, fine), tolerance) in CASES.items():
        cfg = parse_config(doc)
        p = doc["plan"]
        lam = checks.grid(checks.si(p["lambda_min"]), checks.si(p["lambda_max"]),
                          p["points_per_decade"])
        points = []
        for i in indices:
            coupling = YukawaCoupling(CouplingKind.ISL_ALPHA, 1.0, float(lam[i]))
            t0 = time.monotonic()
            f_coarse = oracle(cfg.sphere, coupling, cfg.geometry, **coarse)
            f_fine = oracle(cfg.sphere, coupling, cfg.geometry, **fine)
            change = abs(f_fine - f_coarse) / abs(f_fine)
            print(f"{name} lambda {lam[i]:.4g} m: F = {f_fine!r} N, change {change:.2g} "
                  f"({time.monotonic() - t0:.0f} s)", flush=True)
            if change < CONVERGED:
                points.append({"lambda_m": float(lam[i]), "force_n": float(f_fine),
                               "resolution_change": change})
        table[name] = {"sphere": doc["sphere"], "geometry": doc["geometry"],
                       "oracle": f"levkit.oracles.{oracle.__name__}", "resolution": fine,
                       "tolerance": tolerance, "points": points}
    (HERE / "oracle_table.json").write_text(json.dumps(table, indent=1) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    main()
