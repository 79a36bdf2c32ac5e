"""Checks on the tree and its scripts: what importing the package loads,
the calibration script's verification of the shipped constants, the
output comparison script, and that no module imports a name it never
reads."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nprsim.waveform import AudioBuffer, write_wav

ROOT = Path(__file__).resolve().parent.parent

# Run every subcommand in one process, a closed loop first, and report
# after each which scipy modules are loaded; then filter once, to show the
# report sees an import.
_COLD_START = """
import contextlib, io, sys
import nprsim, nprsim.cli
out, carrier = sys.argv[1], sys.argv[2]
acoustic = "scenarios/acoustic_lpf.yaml"
synth = ["--band", "540", "670", "--td-ms", "2", "--ti-ms", "15"]
defenses = {"lpf": ["--cutoff-hz", "120", "--order", "3"], "long_tube": ["--tube-length", "2"],
            "enclosure": ["--extra-loss-db", "12"], "raised_setpoint": ["--setpoint-pa", "-12"]}
runs = [
    ["simulate", "scenarios/baseline.yaml", "--out", out + "/closed-loop"],
    ["simulate", acoustic, "--out", out + "/simulate"],
    ["sweep", acoustic, "--axis", "ti", "--values", "15,20", "--out", out + "/sweep.csv"],
    *(["evaluate-cm", acoustic, "--kind", kind, *params, "--out", out + "/" + kind]
      for kind, params in defenses.items()),
    ["synth", "--carrier", carrier, *synth, "--out", out + "/carrier.wav"],
    ["synth", "--silence", "1", *synth, "--out", out + "/silence.wav"],
    ["characterize", "--archetype", "all", "--out", out + "/characterize.csv"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = nprsim.cli.main(argv)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print(" ".join(argv[:2] if argv[0] == "synth" else argv[:1]), rc, loaded)
nprsim.sensor._lfilter([1.0], [1.0], [0.0])
print("scipy.signal" in sys.modules)
"""


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_a_closed_loop_run_never_imports_scipy_signal_or_io(tmp_path):
    """No subcommand imports any scipy module: not a closed loop, not an
    acoustic simulate, sweep or countermeasure, not synth over a WAV
    carrier or silence, not a characterization."""
    carrier = tmp_path / "in.wav"
    write_wav(carrier, AudioBuffer(sample_rate_hz=48_000,
                                   samples=0.5 * np.sin(0.05 * np.arange(48_000))))
    proc = _run(["-c", _COLD_START, str(tmp_path), str(carrier)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "simulate 0 []", "simulate 0 []", "sweep 0 []", *["evaluate-cm 0 []"] * 4,
        "synth --carrier 0 []", "synth --silence 0 []", "characterize 0 []", "True"]


def test_calibration_script_verifies_the_shipped_constants():
    proc = _run(["scripts/calibrate_defaults.py", "--verify"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verification: PASS" in proc.stdout


@pytest.fixture(scope="module")
def reworded_sweep_diff(tmp_path_factory):
    """diff_outputs.py run once, on the tiny attack workload, against a
    copy of this tree whose sweep prints "row(s)" for "rows": the one
    output that differs."""
    tmp = tmp_path_factory.mktemp("diff_outputs")
    base = tmp / "base"
    shutil.copytree(ROOT / "src" / "nprsim", base / "src" / "nprsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = base / "src" / "nprsim" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    cli.write_text(text.replace('"wrote {len(rows)} rows to', '"wrote {len(rows)} row(s) to'),
                   encoding="utf-8")
    return _run(["scripts/diff_outputs.py", "--base-tree", str(base), "--workload", "attack",
                 "--size", "tiny", "--scratch", str(tmp / "scratch")])


def test_diff_outputs_finds_no_difference_between_a_tree_and_itself(reworded_sweep_diff):
    """Every job but the sweep runs the same code on both sides, and none
    of their files, stdout, stderr or exit codes is reported."""
    lines = reworded_sweep_diff.stdout.splitlines()
    reported = [line for line in lines if ": job " in line or ": file " in line]
    assert reported == ["seed 0: job sweep-0-distance: stdout differs"], lines
    assert lines[-1] == "attack: 1 differences over 1 seed(s)"


def test_diff_outputs_reports_a_job_whose_stdout_differs(reworded_sweep_diff):
    proc = reworded_sweep_diff
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "seed 0: job sweep-0-distance: stdout differs" in proc.stdout.splitlines()


def _unused_imports(path: Path) -> list[str]:
    """Names path imports but never reads, nor lists in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_module_reads_every_name_it_imports():
    unused = {path.name: names for path in sorted((ROOT / "src" / "nprsim").glob("*.py"))
              if (names := _unused_imports(path))}
    assert unused == {}
