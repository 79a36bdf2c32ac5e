"""Checks that need a fresh interpreter: what importing the package loads,
and the calibration script's verification of the shipped constants."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Import the package and run a forged_pa-only scenario, then report which
# scipy modules are loaded; then filter once, to show the report sees it.
_COLD_START = """
import sys
import nprsim, nprsim.cli
nprsim.load_archetypes()
rc = nprsim.cli.main(["simulate", "scenarios/baseline.yaml", "--out", sys.argv[1]])
print(rc, [m for m in ("scipy.signal", "scipy.io") if m in sys.modules])
nprsim.sensor._lfilter([1.0], [1.0], [0.0])
print("scipy.signal" in sys.modules)
"""


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_a_closed_loop_run_never_imports_scipy_signal_or_io(tmp_path):
    proc = _run(["-c", _COLD_START, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 []", "True"]


def test_calibration_script_verifies_the_shipped_constants():
    proc = _run(["scripts/calibrate_defaults.py", "--verify"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verification: PASS" in proc.stdout
