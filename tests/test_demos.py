"""The narrative scripts in ``demos/`` run and write only where they are run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import levkit

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo, written", [
    ("exclusion_curves.py", {"demo_isl.csv", "demo_coulomb.csv", "demo_dm.csv"}),
    ("langevin_psd.py", set()),
    ("noise_budget.py", set()),
])
def test_demo_runs_in_working_directory(tmp_path, demo, written):
    before = set(os.listdir(DEMOS))
    env = dict(os.environ)
    src = str(Path(levkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                   capture_output=True, check=True, timeout=120)
    assert set(os.listdir(tmp_path)) == written
    assert set(os.listdir(DEMOS)) == before
