"""Checks on the tree and its scripts: what importing the package loads,
on how many threads, and which of its modules import scipy and yaml, the
calibration script's verification of the shipped constants, the output
comparison and drive timing scripts, and that no module imports a name
it never reads."""

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
# after each which scipy modules are loaded, then the process's thread
# count ("-" without /proc/self/task); then import scipy.signal, to show
# the report sees an import.
_COLD_START = """
import contextlib, io, os, sys
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
tasks = "/proc/self/task"
print("threads", len(os.listdir(tasks)) if os.path.isdir(tasks) else "-")
import scipy.signal
print("scipy.signal" in sys.modules)
"""


# The variables OpenBLAS reads for its thread count, in its order.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_HAS_TASKS = os.path.isdir("/proc/self/task")


def _run(args, **variables):
    """A fresh interpreter on args, with this tree's src first on its
    path, no BLAS thread variable but those in variables, run from the
    repository root."""
    env = {name: value for name, value in os.environ.items()
           if name not in _BLAS_THREAD_VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_a_closed_loop_run_never_imports_scipy_signal_or_io(tmp_path):
    """No subcommand imports any scipy module: not a closed loop, not an
    acoustic simulate, sweep or countermeasure, not synth over a WAV
    carrier or silence, not a characterization.  The process runs them
    all on one thread: OpenBLAS starts no helper."""
    carrier = tmp_path / "in.wav"
    write_wav(carrier, AudioBuffer(sample_rate_hz=48_000,
                                   samples=0.5 * np.sin(0.05 * np.arange(48_000))))
    proc = _run(["-c", _COLD_START, str(tmp_path), str(carrier)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "simulate 0 []", "simulate 0 []", "sweep 0 []", *["evaluate-cm 0 []"] * 4,
        "synth --carrier 0 []", "synth --silence 0 []", "characterize 0 []",
        "threads 1" if _HAS_TASKS else "threads -", "True"]


# Import two modules in the order given, run a product large enough for
# OpenBLAS to use every thread it has, and print the thread count, then
# OPENBLAS_NUM_THREADS as this process and a child of it see it.
_BLAS_THREADS = """
import os, subprocess, sys
import {0}, {1}
a = numpy.ones((1500, 1500))
a @ a
child = [sys.executable, "-c", "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"]
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"),
      subprocess.run(child, capture_output=True, text=True, check=True).stdout.strip())
"""


@pytest.mark.skipif(not _HAS_TASKS, reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("first, variables, threads, left", [
    ("nprsim", {}, 1, "None"),
    ("nprsim", {"OPENBLAS_NUM_THREADS": "2"}, 2, "2"),
    ("nprsim", {"OMP_NUM_THREADS": "2"}, 2, "None"),
    ("numpy", {}, None, "None"),
], ids=["nprsim-first", "user-openblas-2", "user-omp-2", "numpy-first"])
def test_importing_nprsim_first_loads_openblas_on_one_thread(first, variables, threads, left):
    """Imported before numpy, the package holds OpenBLAS to the calling
    thread and leaves no OPENBLAS_NUM_THREADS in its environment or its
    children's.  A thread count the user set stands, and a numpy imported
    first keeps OpenBLAS's own count (threads None), one per core; more
    than one thread is checked only on at least 2 cores."""
    second = "numpy" if first == "nprsim" else "nprsim"
    proc = _run(["-c", _BLAS_THREADS.format(first, second)], **variables)
    assert proc.returncode == 0, proc.stderr
    count, own, child = proc.stdout.split()
    assert own == child == left
    several = len(os.sched_getaffinity(0)) >= 2
    if threads == 1:
        assert int(count) == 1
    elif threads is None and several:
        assert int(count) >= 2
    elif several:
        assert int(count) == threads


# Each package some modules must not import, and the modules of src/nprsim
# that may: scipy is a test dependency only, and the YAML rules live in
# the scenario loader alone.
_IMPORTERS_ALLOWED = {"scipy": set(), "yaml": {"scenario.py"}}


def test_a_package_is_imported_only_by_the_modules_allowed_it():
    """No module outside a package's allowed ones imports it, at its top
    or inside a function."""
    importers = []
    for path in sorted((ROOT / "src" / "nprsim").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for package in {module.split(".")[0] for module in modules} & _IMPORTERS_ALLOWED.keys():
                if path.name not in _IMPORTERS_ALLOWED[package]:
                    importers.append(f"{package}: {path.relative_to(ROOT)}:{node.lineno}")
    assert importers == []


# The package's modules, lowest layer first.
_LAYERS = ("sensor", "acoustics", "waveform", "plant", "countermeasures", "scenario", "cli")


def _package_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(module of nprsim, line) of each import of one, at a module's top
    or inside a function; the package itself is "__init__"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
        else:
            if isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            names = [module.removeprefix("nprsim").removeprefix(".") or "__init__"
                     for module in modules if module.split(".")[0] == "nprsim"]
        found += [(name, node.lineno) for name in names]
    return found


def test_each_module_imports_only_the_layers_below_it():
    """Each module of src/nprsim but __init__ imports only modules before
    it in _LAYERS, so the import graph stays acyclic."""
    folder = ROOT / "src" / "nprsim"
    assert sorted(path.stem for path in folder.glob("*.py")) == sorted(("__init__", *_LAYERS))
    upward = [f"{name}.py:{line} imports {imported}"
              for rank, name in enumerate(_LAYERS)
              for imported, line in _package_imports(
                  ast.parse((folder / f"{name}.py").read_text(encoding="utf-8")))
              if imported not in _LAYERS[:rank]]
    assert upward == []


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


def test_time_drives_times_every_drive_on_a_tree_and_its_base():
    """scripts/time_drives.py run for two rounds, with the tree as its own
    base: a line per case, each with both sides' times, their ratio and
    the quartiles of the ratio per round."""
    proc = _run(["scripts/time_drives.py", "--base-tree", str(ROOT), "--rounds", "2"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["case", "base", "this", "tree", "ratio", "q1", "q3"]
    cases = [line.rsplit(None, 5)[0] for line in lines[1:-1]]
    assert cases == [f"unit_response_means {train}{lpf}" for lpf in ("", " lpf")
                     for train in ("q=1", "q=5", "q=25")] + [
        "unit_response_means overrun", "measurement_settle_time_s",
        "measurement_settle_time_s lpf", "step_response"]
    for line in lines[1:-1]:
        ratio, q1, q3 = (float(cell) for cell in line.split()[-3:])
        assert ratio > 0.0
        assert 0.0 < q1 <= q3
    assert "q1, q3: quartiles of the ratio per run" in lines[-1]


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
    paths = [path for folder in ("src/nprsim", "tests", "scripts")
             for path in sorted((ROOT / folder).glob("*.py"))]
    unused = {str(path.relative_to(ROOT)): names for path in paths
              if (names := _unused_imports(path))}
    assert unused == {}
