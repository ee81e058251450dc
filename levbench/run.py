"""levkit benchmark: closed loop, one client, one levkit command at a time.

Usage (from the repository root):

    python3 levbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Each run makes its inputs from the seed, discards one warm-up invocation,
then starts fresh ``levkit`` processes one after another for about
``--seconds``: another one starts only if less than half of it (judged by the
one before) would fall past the end, and an untraced run times at least
three.  Every invocation
writes into a fresh directory that is checked and then removed.  The first
invocation's outputs are checked against independent computations; every
later one must reproduce them byte for byte.

``--trace 0`` reports the end-to-end metrics (medians over the run's
invocations).  ``--trace 1`` alternates untraced and traced invocations and
reports the per-layer metrics of the traced ones.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy
import scipy

sys.dont_write_bytecode = True

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".levbench"
CHILD = HERE / "child.py"
WARM_UP = ["normalize-config", str(SRC / "levkit" / "configs" / "isl_finger_20um.json")]
MIB = 1024.0 * 1024.0
# Fewest timed invocations of an untraced run, whatever --seconds is: a
# median of one or two follows each sample's noise.
MIN_INVOCATIONS = 3


def child_env():
    """Pin every thread pool to one thread; LEVKIT_THREADS alone does not reach BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "LEVKIT_THREADS"):
        env[var] = "1"
    return env


class Launcher:
    """The small process (launcher.py) that starts and times every command."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def spawn(self, cmd, inv_dir):
        """Run cmd to its end; (wall seconds, spawn time, ru_maxrss MiB, exit code)."""
        self.proc.stdin.write(json.dumps({
            "argv": cmd, "cwd": str(inv_dir), "env": child_env(),
            "stdout": str(inv_dir / "stdout.txt"), "stderr": str(inv_dir / "stderr.txt"),
        }) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["start"], reply["maxrss_kib"] / 1024.0, reply["code"]


def invoke(launcher, argv, run_dir, trace=False):
    """One levkit command in a fresh directory; the directory is returned, not removed."""
    inv_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="inv-"))
    out = inv_dir / "out"
    result = inv_dir / "child.json"
    cmd = [sys.executable, str(CHILD), str(result)] + (["--trace"] if trace else [])
    cmd += ["--"] + [a.replace("{out}", str(out)) for a in argv]
    wall, t0, rss, code = launcher.spawn(cmd, inv_dir)
    inv = {"dir": inv_dir, "out": out, "wall": wall, "rss": rss, "code": code,
           "stdout": (inv_dir / "stdout.txt").read_text(encoding="utf-8", errors="replace")}
    if code == 0:
        child = json.loads(result.read_text(encoding="utf-8"))
        inv["setup"] = child["imported"] - t0
        inv["spans"] = child["spans"]
    else:
        err = (inv_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        print(f"levkit {' '.join(argv)} exited {code}: {err.strip()[-500:]}", file=sys.stderr)
    return inv


def import_dynamics_seconds(launcher, run_dir):
    """Cumulative import time of levkit.dynamics from ``python -X importtime``."""
    inv_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="imp-"))
    try:
        launcher.spawn([sys.executable, "-X", "importtime", "-c", "import levkit.cli"], inv_dir)
        for line in (inv_dir / "stderr.txt").read_text(encoding="utf-8").splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "levkit.dynamics":
                return int(fields[1]) * 1e-6
        return 0.0
    finally:
        shutil.rmtree(inv_dir)


def digest(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class Tally:
    """Operations attempted and failed, output checks, byte identity."""

    def __init__(self, check, doc):
        self.check, self.doc = check, doc
        self.attempted = self.failed = 0
        self.correct = True
        self.reference = None     # (digest, verdicts) of the first checked outputs

    def record(self, inv):
        self.attempted += 1
        if inv["code"] != 0:
            self.failed += 1
            return
        try:
            files = digest(inv["out"])
            if self.reference is None:
                self.reference = (files, self.check(inv["out"], self.doc, inv["stdout"]))
            elif files != self.reference[0]:
                raise checks.CheckError("outputs differ between invocations of one config")
        except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.correct = False
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        verdicts = self.reference[1]
        self.attempted += len(verdicts)
        self.failed += verdicts.count(False)


def layer_metrics(spans, bytes_written):
    """Per-layer totals of one traced invocation."""
    covered = defaultdict(float)
    for name, start, end, parent, extra in spans:
        if parent >= 0:
            covered[parent] += end - start
    total, self_time, peak = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, samples = Counter(), 0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - covered[i]
        calls[name] += 1
        peak[name] = max(peak[name], extra.get("peak_bytes", 0) / MIB)
        samples += extra.get("samples", 0)
    return {
        "config.load_config_s": total["config.load_config"],
        "config.normalize_config_s": total["config.normalize_config"],
        "config.normalize_config_calls": calls["config.normalize_config"],
        "newforces.finger_s": total["newforces.finger"],
        "newforces.finger_calls": calls["newforces.finger"],
        "newforces.capillary_s": total["newforces.capillary"],
        "newforces.capillary_calls": calls["newforces.capillary"],
        "limits.isl_projection.self_s": self_time["limits.isl_projection"],
        "limits.coulomb_projection_s": total["limits.coulomb_projection"],
        "limits.dm_projection_s": total["limits.dm_projection"],
        "dynamics.simulate_s": total["dynamics.simulate"],
        "dynamics.simulate_calls": calls["dynamics.simulate"],
        "dynamics.simulated_samples": samples,
        "dynamics.simulate_peak_mib": peak["dynamics.simulate"],
        "dynamics.estimate_psd_s": total["dynamics.estimate_psd"],
        "dynamics.impulse_response_template_s": total["dynamics.impulse_response_template"],
        "dynamics.matched_filter_outputs_s": total["dynamics.matched_filter_outputs"],
        "dynamics.matched_filter_threshold.self_s": self_time["dynamics.matched_filter_threshold"],
        "dynamics.matched_filter_threshold_peak_mib": peak["dynamics.matched_filter_threshold"],
        "cli.simulate.self_s": self_time["cli.simulate"],
        "cli.exclusion.self_s": self_time["cli.exclusion"],
        "cli.bytes_written": bytes_written,
    }


UNITS = {"_s": "s", "_calls": "count", "_samples": "count", "_mib": "MiB", "_written": "bytes"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def run(workload, seed, seconds, trace):
    make, check = WORKLOADS[workload]
    min_rounds = 1 if trace else MIN_INVOCATIONS
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{workload}-"))
    try:
        with Launcher() as launcher:
            argv, doc = make(seed, run_dir, ROOT)
            tally = Tally(check, doc)
            warm = invoke(launcher, WARM_UP, run_dir)
            if warm["code"] != 0:
                sys.exit("levbench: the warm-up invocation failed")
            shutil.rmtree(warm["dir"])
            plain, traced, imports, spans_out = [], [], [], []
            start = time.monotonic()
            rounds = 0
            while True:
                round_start = time.monotonic()
                for is_traced in ((False, True) if trace else (False,)):
                    inv = invoke(launcher, argv, run_dir, trace=is_traced)
                    tally.record(inv)
                    print(f"invocation {len(plain) + len(traced) + 1}"
                          f"{' traced' if is_traced else ''}: wall {inv['wall']:.4f} s  "
                          f"setup {inv.get('setup', 0.0):.4f} s  rss {inv['rss']:.1f} MiB  "
                          f"exit {inv['code']}", flush=True)
                    if inv["code"] == 0:
                        if is_traced:
                            size = sum(p.stat().st_size for p in inv["out"].rglob("*")
                                       if p.is_file())
                            traced.append(inv | {"layers": layer_metrics(inv["spans"], size)})
                            spans_out.append(inv["spans"])
                        else:
                            plain.append(inv)
                    shutil.rmtree(inv["dir"])
                if trace:
                    imports.append(import_dynamics_seconds(launcher, run_dir))
                rounds += 1
                now = time.monotonic()
                # Centre the measured time on --seconds: start another round only if
                # less than half of it (judged by the last one) would fall past the end.
                if rounds >= min_rounds and now - start + (now - round_start) / 2 >= seconds:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    med = statistics.median
    if trace:
        if not traced or not plain:
            sys.exit("levbench: no traced invocation completed")
        names = list(traced[0]["layers"])
        metrics = {"import.levkit_dynamics_s": med(imports)}
        metrics.update({n: med(t["layers"][n] for t in traced) for n in names})
        metrics["trace.overhead_s"] = med(t["wall"] for t in traced) - med(p["wall"] for p in plain)
        (WORK / f"trace-{workload}.json").write_text(
            json.dumps({"workload": workload, "seed": seed, "invocations": spans_out}),
            encoding="utf-8")
    else:
        if not plain:
            sys.exit("levbench: no invocation completed")
        metrics = {"wall_s": med(p["wall"] for p in plain),
                   "setup_s": med(p["setup"] for p in plain),
                   "peak_rss_mib": med(p["rss"] for p in plain)}
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    return tally, len(plain) + len(traced), {
        n: {"value": v, "unit": units.get(n) or unit_of(n)} for n, v in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "levkit" / "cli.py").is_file():
        sys.exit(f"levbench: no levkit source at {SRC / 'levkit'}")

    tally, n_inv, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations {n_inv}")
    print(f"python {platform.python_version()}  numpy {numpy.__version__}  "
          f"scipy {scipy.__version__}  nproc {len(os.sched_getaffinity(0))}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"operations attempted {tally.attempted}  failed {tally.failed}  "
          f"correct {tally.correct}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
