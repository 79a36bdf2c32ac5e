"""nprsim benchmark: three closed-loop workloads over the ``nprsim`` CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload characterize --seed 0 --seconds 34 --trace 0

One process calls ``nprsim.cli.main([...])`` in-process, one job after
another, with stdout captured: a closed loop with a single caller and no
threads.  The only other processes are fresh interpreters started one at a
time to time the set-up every ``nprsim`` command pays.

A run generates the workload's inputs from ``--seed`` into
``.bench_out/`` before timing starts and runs one warm-up pass of all
jobs.  For ``--seconds`` it then repeats passes, with the set-up
interpreters interleaved between them.  Every job's output is checked
after each pass (see ``checks.py``).

Times are CPU times (user plus system) of the process that does the work:
every job runs on one thread, so a job's CPU time is its wall time less the
time the host held the CPU away from it.  Each time is then divided by the
host's slowdown measured beside it (see ``speed.py``), which puts runs made
while the host was fast and slow on one scale.  ``run_s`` is the mean time
of a pass over all jobs and ``job_s_p50`` the median of all job runs.  The
unscaled CPU times and the wall times are printed beside each metric and
kept in ``samples.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans
recorded around the package's public functions (see ``tracing.py``),
with the tracing overhead as traced minus untraced ``run_s``.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 0
REFERENCE_FILE = HERE / "reference.json"
# Fresh interpreters timed per run for setup_s.  They start after this
# process has imported the package, which compiles its bytecode.
SETUP_CHILDREN = 3
SETUP_TIMEOUT_S = 120
MIN_PASSES = 5
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import nprsim, nprsim.cli; "
    "t1 = time.perf_counter(); nprsim.cli.load_archetypes(); t2 = time.perf_counter(); "
    "print(nprsim.__file__); print(t1 - t0, t2 - t1)"
)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_nprsim_s": "s",
    "setup.import_scipy_signal_s": "s",
    "setup.load_archetypes_s": "s",
    "sensor.frequency_sweep.calls": "count",
    "sensor.frequency_sweep.self_s": "s",
    "sensor.frequency_sweep.tones": "count",
    "sensor.frequency_sweep.found_ratio": "ratio",
    "sensor.step_response.calls": "count",
    "sensor.step_response.self_s": "s",
    "sensor.step_response.samples": "count",
    "waveform.psd_ratio.calls": "count",
    "waveform.psd_ratio.self_s": "s",
    "waveform.psd_ratio.samples": "count",
    "waveform.suppress_band.self_s": "s",
    "waveform.synthesize_attack.self_s": "s",
    "waveform.wav_io.self_s": "s",
    "waveform.forged_pressure_estimate.calls": "count",
    "waveform.forged_pressure_estimate.self_s": "s",
    "waveform.attack_response_trace.self_s": "s",
    "acoustics.propagate.calls": "count",
    "acoustics.propagate.self_s": "s",
    "countermeasures.evaluate_countermeasure.calls": "count",
    "countermeasures.evaluate_countermeasure.self_s": "s",
    "countermeasures.measurement_settle_time_s.calls": "count",
    "countermeasures.measurement_settle_time_s.self_s": "s",
    "countermeasures.lpf_cascade.self_s": "s",
    "plant.simulate_scenario.calls": "count",
    "plant.simulate_scenario.self_s": "s",
    "plant.simulate_scenario.room_periods": "count",
    "scenario.load_scenario.calls": "count",
    "scenario.load_scenario.self_s": "s",
    "cli.simulate.self_s": "s",
    "cli.synth.self_s": "s",
    "cli.characterize.self_s": "s",
    "cli.sweep.self_s": "s",
    "cli.evaluate-cm.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.self_total_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=34.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: few small jobs, one pass, for the self-test")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the reference for its seed")
    return p.parse_args(argv)


# --------------------------------------------------------------------- facts

def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    pkg = root / "src" / "nprsim"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_facts(root: Path, args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


# --------------------------------------------------------------------- setup

def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("NPRSIM_ARCHETYPES", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + extra if extra else "")
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_child(root: Path, importtime: bool) -> tuple[float, float, dict]:
    """CPU time and wall time of one fresh interpreter's set-up, and its parts."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE]
    c0 = _children_cpu_s()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root), capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    cpu = _children_cpu_s() - c0
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise BenchError(f"set-up child printed {proc.stdout!r}")
    where, timings = lines[-2:]
    if not Path(where).resolve().is_relative_to(root / "src"):
        raise BenchError(f"set-up child imported nprsim from {where}, not from this checkout")
    parts = {"load_archetypes_s": float(timings.split()[1])}
    if importtime:
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        parts["import_nprsim_s"] = cumulative.get("nprsim", 0.0)
        parts["import_scipy_signal_s"] = cumulative.get("scipy.signal", 0.0)
    return cpu, wall, parts


# ---------------------------------------------------------------------- jobs

@dataclass
class Pass:
    """One run of every job, in job order, with the speed kernels run before them."""

    cpu_s: list[float]
    wall_s: list[float]
    kernel_s: list[float]

    @property
    def slowdown(self) -> float:
        return speed.slowdown(self.kernel_s)


class Runner:
    """Runs passes of a workload's jobs in this process and checks them."""

    def __init__(self, cli, workload, reference: dict | None):
        self.cli = cli
        self.workload = workload
        self.reference = reference
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: tracing.Tracer | None = None) -> Pass:
        """Runs every job once, each after a speed kernel, and checks them."""
        gc.collect()
        results = []
        done = Pass([], [], [])
        for job in self.workload.jobs:
            done.kernel_s.append(speed.kernel_s())
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = job.id
                root_span = tracer.begin(f"cli.{job.command}")
            t0 = time.perf_counter()
            c0 = tracing.clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(job.argv))
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            except Exception as exc:  # a crash counts as a failed job
                rc = f"{type(exc).__name__}: {exc}"
            done.cpu_s.append(tracing.clock() - c0)
            done.wall_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(root_span)
            results.append((job, rc, out.getvalue(), err.getvalue()))
        self._check(results)
        return done

    def _check(self, results) -> None:
        observed = {}
        for job, rc, stdout, stderr in results:
            self.attempted += 1
            try:
                if not isinstance(rc, int):
                    raise checks.CheckError(f"raised {rc}")
                obs = checks.observe(job, rc, stdout)
                if job.id in self.first:
                    if obs != self.first[job.id]:
                        raise checks.CheckError("output differs from the first pass on the same input")
                elif self.reference is not None:
                    if job.id not in self.reference:
                        raise checks.CheckError("no reference value stored")
                    checks.compare_reference(obs, self.reference[job.id], job.expect.get("step_hz"))
            except Exception as exc:  # any output the checks cannot read is a failure
                self._fail(job.id, f"{type(exc).__name__}: {exc}"
                           + (f" [stderr: {stderr.strip()[-300:]}]" if stderr else ""))
                continue
            observed[job.id] = obs
        for job_id, message in checks.cross_check(self.workload.jobs, observed):
            self._fail(job_id, message)
            observed.pop(job_id, None)
        for job_id, obs in observed.items():
            self.first.setdefault(job_id, obs)

    def _fail(self, job_id: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{job_id}: {message}")


# ------------------------------------------------------------------ reporting

def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def mean_pass(passes: list[Pass], clock: str = "cpu_s", scaled: bool = True) -> float:
    """Time to run every job once, averaged over the passes; divided by each
    pass's host slowdown unless ``scaled`` is false."""
    return statistics.fmean(sum(getattr(p, clock)) / (p.slowdown if scaled else 1.0)
                            for p in passes)


def median_job(passes: list[Pass], clock: str = "cpu_s", scaled: bool = True) -> float:
    """Median over every run of every job, scaled as in ``mean_pass``."""
    return statistics.median(t / (p.slowdown if scaled else 1.0)
                             for p in passes for t in getattr(p, clock))


def _per_layer(spans, traced: list[Pass], untraced: list[Pass], setup_parts) -> dict:
    # Per traced pass, averaged over the passes and with times scaled by each
    # pass's host slowdown as for run_s, so the self times add up to the
    # traced run_s.  Work counts repeat in every pass.
    totals: dict[str, dict[str, float]] = {}
    for (index, _job), per_name in tracing.job_totals(spans).items():
        for name, entry in per_name.items():
            for key, value in entry.items():
                totals.setdefault(name, {}).setdefault(key, 0.0)
                totals[name][key] += value / traced[index].slowdown if key == "self_s" else value
    for entry in totals.values():
        for key in entry:
            entry[key] /= len(traced)

    def value(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    sweeps = value("sensor.frequency_sweep", "calls")
    values = {
        "setup.import_nprsim_s": statistics.median(setup_parts["import_nprsim_s"]),
        "setup.import_scipy_signal_s": statistics.median(setup_parts["import_scipy_signal_s"]),
        "setup.load_archetypes_s": statistics.median(setup_parts["load_archetypes_s"]),
        "sensor.frequency_sweep.found_ratio": (
            value("sensor.frequency_sweep", "found") / sweeps if sweeps else 0.0),
        "waveform.wav_io.self_s": value("waveform.read_wav", "self_s")
        + value("waveform.write_wav", "self_s"),
        "trace.run_s": mean_pass(traced),
        "trace.overhead_s": mean_pass(traced) - mean_pass(untraced),
        "trace.self_total_s": sum(entry["self_s"] for entry in totals.values()),
    }
    for name in PER_LAYER:
        if name not in values:
            layer, _, key = name.rpartition(".")
            values[name] = value(layer, key)
    return values


def run(args) -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "nprsim" / "cli.py").is_file():
        raise BenchError(f"no nprsim sources under {root / 'src'}; run from a source checkout")
    os.environ.pop("NPRSIM_ARCHETYPES", None)
    tiny = args.size == "tiny"
    out_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / "work"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        workload = workloads.build(args.workload, work, args.seed, tiny, root)
    except OSError as exc:
        raise BenchError(f"cannot build inputs: {exc}") from exc

    importtime = bool(args.trace)
    sys.path.insert(0, str(root / "src"))
    import nprsim.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise BenchError(f"imported nprsim from {cli.__file__}, not from this checkout")

    reference = None
    if args.seed == REFERENCE_SEED and not tiny and not args.write_reference:
        stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        reference = stored["workloads"][args.workload]
    runner = Runner(cli, workload, reference)
    facts = machine_facts(root, args)
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload}: {len(workload.jobs)} jobs per pass "
          f"({', '.join(sorted({j.command for j in workload.jobs}))})")

    # The warm-up pass fills caches; it is checked but not timed.
    warm_up = None if tiny else runner.run_pass()
    # Set-up children and passes alternate, so both sample the window: on a
    # shared host the same pass runs up to 1.9x slower for seconds at a time.
    # A child's host slowdown is that of the passes just before and after it.
    n_children = 1 if tiny else SETUP_CHILDREN
    min_passes = 1 if tiny else MIN_PASSES
    setups: list[tuple[float, float, float]] = []  # CPU s, wall s, host slowdown
    setup_parts: dict[str, list[float]] = {}
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracer = tracing.Tracer() if args.trace else None
    t_start = time.perf_counter()
    while (len(setups) < n_children or len(untraced) < min_passes
           or time.perf_counter() - t_start < args.seconds):
        before = untraced[-1] if untraced else warm_up
        child = None
        if len(setups) < n_children:
            cpu, wall, parts = _setup_child(root, importtime)
            child = (cpu, wall)
            for key, value in parts.items():
                setup_parts.setdefault(key, []).append(value)
        untraced.append(runner.run_pass())
        if child is not None:
            around = [p.slowdown for p in (before, untraced[-1]) if p is not None]
            setups.append((*child, statistics.fmean(around)))
        if tracer is not None:
            tracer.pass_index += 1
            undo = tracer.patch()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.unpatch(undo)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out_dir / "samples.json").write_text(json.dumps({
        "seed": args.seed, "setup_cpu_wall_slowdown": setups,
        "job_ids": [j.id for j in workload.jobs],
        "passes": [vars(p) for p in untraced], "traced_passes": [vars(p) for p in traced],
    }), encoding="utf-8")

    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    failed_frac = runner.failed / runner.attempted
    if args.trace:
        metrics = _per_layer(tracer.spans, traced, untraced, setup_parts)
        units = PER_LAYER
        spans_path = out_dir / "spans.json"
        spans_path.write_text(json.dumps({"facts": facts, "spans": tracer.spans}), encoding="utf-8")
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(root)}")
        if tracer.missing:
            print(f"not traced (absent from the package): {', '.join(tracer.missing)}")
        for name, unit in units.items():
            _line(name, metrics[name], unit)
        print(f"tracing overhead: traced run_s {metrics['trace.run_s']:.6g} s - untraced run_s "
              f"{mean_pass(untraced):.6g} s = {metrics['trace.overhead_s']:.6g} s "
              f"({len(traced)} traced and {len(untraced)} untraced passes); "
              f"self times sum to {metrics['trace.self_total_s']:.6g} s")
    else:
        # Averages over the passes, not fastest runs: the host changes speed
        # for seconds at a time, and a fastest run depends on whether the run
        # caught a fast stretch at all.
        metrics = {
            "setup_s": statistics.median(cpu / slowdown for cpu, _, slowdown in setups),
            "run_s": mean_pass(untraced),
            "job_s_p50": median_job(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        slowdowns = [p.slowdown for p in untraced]
        print(f"host slowdown: {min(slowdowns):.3g} to {max(slowdowns):.3g} over the passes, "
              f"median {statistics.median(slowdowns):.3g}")
        _line("setup_s", metrics["setup_s"], "s",
              f"median of {len(setups)} fresh interpreters: import nprsim, nprsim.cli, "
              f"load_archetypes(); unscaled CPU {statistics.median(s[0] for s in setups):.4g} s, "
              f"wall {statistics.median(s[1] for s in setups):.4g} s")
        _line("run_s", metrics["run_s"], "s",
              f"a pass over {len(workload.jobs)} jobs, mean of {len(untraced)} warm passes; "
              f"unscaled CPU {mean_pass(untraced, scaled=False):.4g} s, "
              f"wall {mean_pass(untraced, 'wall_s', scaled=False):.4g} s")
        _line("job_s_p50", metrics["job_s_p50"], "s",
              f"median of {len(workload.jobs)} jobs x {len(untraced)} passes; "
              f"unscaled CPU {median_job(untraced, scaled=False):.4g} s, "
              f"wall {median_job(untraced, 'wall_s', scaled=False):.4g} s")
        _line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "process high-water mark")
    _line("failed_frac", failed_frac, "ratio", f"{runner.failed} of {runner.attempted} jobs failed")

    if args.write_reference:
        stored = (json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
                  if REFERENCE_FILE.is_file() else {"seed": REFERENCE_SEED, "workloads": {}})
        if args.seed != stored["seed"] or runner.failed:
            raise BenchError("a reference is written only from a clean run of the reference seed")
        stored["workloads"][args.workload] = {j.id: runner.first[j.id] for j in workload.jobs}
        REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"reference written to {REFERENCE_FILE.relative_to(root)}")

    shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
