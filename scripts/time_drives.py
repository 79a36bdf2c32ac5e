"""Time the transducer drives per call on this tree and, optionally, a base.

Each case is one warm call of a transducer drive on the attack of
scenarios/acoustic_lpf.yaml (the A1011-00 on a 1 m tube), all but the
last one the acoustic commands make:

- unit_response_means on burst trains 15, 14.8 and 23.47 ms apart, whose
  segment kinds repeat every 1, 5 and 25 bursts;
- the same trains followed by the scenario's low-pass defense (three
  first-order sections at 120 Hz), as evaluate-cm --kind lpf drives them;
- unit_response_means on one-cycle bursts 80.74 samples apart, the
  A1011-00 tuned to 595.6 Hz by a 1.02 m tube: every other burst runs
  into the next, and plays until it starts;
- measurement_settle_time_s of the bare chain and of that low-pass;
- step_response over the scenario's burst train laid whole over the
  estimate window and two samples past it, 110,162 samples: the
  library's drive of a whole sampled inlet.

    python3 scripts/time_drives.py
    python3 scripts/time_drives.py --base-tree ../parent-checkout --rounds 9

Each side runs in its own interpreter, with only that side's src on the
import path and BLAS held to one thread, and the sides alternate, the
first of each round taking turns.  A run warms every case up, then goes
round the cases PASSES times, timing CALLS calls of each in CPU time.
The table prints each case's median over all passes of all rounds, in
microseconds per call.  With a base it adds the ratio of this tree's
median to the base's, and the first and third quartiles of the same
ratio taken round by round (q1, q3): a host that ran slow for some
rounds, not for the code, shows as a wide spread.  Exit status: 0, or 2
on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from tree_child import imported_from, run_in_tree

ROOT = Path(__file__).resolve().parent.parent

# (name, burst interval in seconds): trains whose segment kinds repeat
# every 1, 5 and 25 bursts.
TRAINS = (("q=1", 0.015), ("q=5", 0.0148), ("q=25", 0.02347))
# The overrunning train: a cycle of the tuned resonance is 80.59 samples.
OVERRUN_TUBE_M = (685.0 * 0.88 / 595.6) ** 2
OVERRUN_GAP_SAMPLES = 80.74
LPF_CUTOFF_HZ = 120.0
LPF_ORDER = 3
WARM_CALLS = 10
PASSES = 10
CALLS = 20


def _cases():
    """(name, call) of every timed case, for the nprsim on the import path."""
    import dataclasses

    import numpy as np

    from nprsim.countermeasures import _lpf_gains, measurement_settle_time_s
    from nprsim.scenario import load_scenario
    from nprsim.sensor import TubeAssembly, step_response, system_resonant_hz
    from nprsim.waveform import (
        SegmentSchedule,
        _estimate_window,
        _lay_bursts,
        _train_spans,
        unit_response_means,
    )

    wiring = load_scenario(ROOT / "scenarios" / "acoustic_lpf.yaml").scenario.wiring
    attack = wiring.attack
    model, tube, tone = wiring.hvac.model, wiring.hvac.tube, attack.source.tone_hz
    gains = _lpf_gains(LPF_CUTOFF_HZ, 1.0 / model.sample_rate_hz, LPF_ORDER)
    cases = []
    for sections, suffix in (((), ""), (gains, " lpf")):
        for name, interval in TRAINS:
            schedule = dataclasses.replace(attack.schedule, interval_s=interval)
            cases.append((f"unit_response_means {name}{suffix}",
                          lambda s=schedule, g=sections: unit_response_means(
                              s, model, tube, target_f_hz=tone, sections=g)))
    fs = model.sample_rate_hz
    overrun_tube = TubeAssembly(length_m=OVERRUN_TUBE_M)
    overrun_f = system_resonant_hz(model, overrun_tube)
    overrun = SegmentSchedule(band_hz=(0.9 * overrun_f, 1.1 * overrun_f),
                              duration_s=(OVERRUN_GAP_SAMPLES - 0.1) / fs,
                              interval_s=OVERRUN_GAP_SAMPLES / fs, cycles=1)
    cases.append(("unit_response_means overrun", lambda: unit_response_means(
        overrun, model, overrun_tube, target_f_hz=overrun_f)))
    cases.append(("measurement_settle_time_s", lambda: measurement_settle_time_s(model, tube)))
    cases.append(("measurement_settle_time_s lpf", lambda: measurement_settle_time_s(
        model, tube, lpf_cutoff_hz=LPF_CUTOFF_HZ, lpf_order=LPF_ORDER)))
    _k0, window = _estimate_window(attack.schedule, fs)
    train = np.zeros(window.stop + 2)
    _lay_bursts(train, _train_spans(attack.schedule, tone, train.size, fs), attack.schedule,
                tone, fs, 1.0)
    cases.append(("step_response", lambda: step_response(model, tube, train, 1.0 / fs)))
    return cases


def _run_child(src: str) -> int:
    """Child mode: print {case: [CPU seconds per call of each pass]} as
    JSON, the passes going round all the cases in turn."""
    import time

    import nprsim

    if not imported_from(nprsim, src):
        return 2
    cases = _cases()
    for _name, call in cases:
        for _ in range(WARM_CALLS):
            call()
    times: dict[str, list[float]] = {name: [] for name, _call in cases}
    for _ in range(PASSES):
        for name, call in cases:
            start = time.process_time()
            for _ in range(CALLS):
                call()
            times[name].append((time.process_time() - start) / CALLS)
    print(json.dumps(times))
    return 0


def _side(tree: Path) -> dict[str, list[float]]:
    # One BLAS thread: a helper thread that a large product wakes keeps
    # spinning after it, and its CPU time would land on the cases after.
    proc = run_in_tree(tree, [str(Path(__file__).resolve()), "--run-child", str(tree / "src")],
                       ROOT, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if proc.returncode != 0:
        raise RuntimeError(f"timing {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile of values; one value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run-child"]:
        return _run_child(argv[1])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base-tree", help="checkout (holding src/nprsim) to compare against")
    parser.add_argument("--rounds", type=int, default=5, help="runs of each side (default 5)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"this tree": ROOT}
    if args.base_tree is not None:
        base = Path(args.base_tree).resolve()
        if not (base / "src" / "nprsim").is_dir():
            parser.error(f"{args.base_tree} holds no src/nprsim")
        sides = {"base": base, **sides}
    runs: dict[str, list[dict[str, list[float]]]] = {name: [] for name in sides}
    try:
        for round_ in range(args.rounds):
            order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
            for name in order:
                runs[name].append(_side(sides[name]))
    except RuntimeError as exc:
        print(f"time_drives: {exc}", file=sys.stderr)
        return 2
    medians = {name: {case: statistics.median(t for run in side_runs for t in run[case])
                      for case in side_runs[0]}
               for name, side_runs in runs.items()}
    header = f"{'case':34s}" + "".join(f"{name:>12s}" for name in sides)
    print(header + ("       ratio      q1      q3" if len(sides) > 1 else ""))
    for case in medians["this tree"]:
        line = f"{case:34s}" + "".join(f"{medians[name][case] * 1e6:10.1f}us" for name in sides)
        if len(sides) > 1:
            by_round = [statistics.median(this[case]) / statistics.median(base[case])
                        for this, base in zip(runs["this tree"], runs["base"])]
            q1, q3 = _quartiles(by_round)
            line += f"{medians['this tree'][case] / medians['base'][case]:12.2f}{q1:8.2f}{q3:8.2f}"
        print(line)
    print(f"median CPU time per call over {args.rounds} run(s) x {PASSES} passes "
          f"of {CALLS} calls per case and side"
          + ("; q1, q3: quartiles of the ratio per run" if len(sides) > 1 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
