"""Command line front end.

One executable with five subcommands: run a closed-loop scenario, embed
an attack burst train in audio, characterize a sensor's resonance, sweep
one attack parameter, and evaluate a countermeasure.  Every run is
deterministic: the same inputs produce byte-identical output files, and
all validation happens before anything is written.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .countermeasures import (
    COUNTERMEASURE_KINDS,
    Countermeasure,
    evaluate_countermeasure,
)
from .plant import SimulationTrace, as_replay, simulate_scenario
from .scenario import ScenarioError, archetype, load_archetypes, load_scenario
from .sensor import (
    NO_TUBE,
    NoResonanceError,
    TubeAssembly,
    frequency_sweep,
    system_resonant_hz,
)
from .waveform import (
    AudioBuffer,
    ClippingError,
    ScheduleError,
    SegmentSchedule,
    forged_pressure_estimate,
    psd_ratio,
    read_wav,
    segment_mask,
    synthesize_attack,
    unit_response_mean,
    write_wav,
)

# Largest grid sweep builds from --start/--stop/--step.  A point that moves
# the burst train or the tube (ti, td, tube_length, tube_diameter, pickup)
# drives the transducer, a few milliseconds each, so this is minutes of
# work; spl and distance points only rescale one drive.
MAX_SWEEP_POINTS = 100_000

# Longest audio synth --silence builds: ten minutes at 48 kHz.  A run
# peaks at about 30 bytes per sample, some 0.9 GB at this length.
MAX_SILENCE_SAMPLES = 28_800_000

# Sample rate of synth --silence without --rate, Hz.
SILENCE_RATE_HZ = 44_100

# Every form float() reads as a negative number.  argparse's own rule
# (plain decimals only) takes -1e1 or -inf for an option name.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class CliError(Exception):
    """A user-input problem; main() turns it into exit code 2."""


def _num(value: float) -> str:
    return "%.6g" % value


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    _write_lines(path, [",".join(header), *(",".join(row) for row in rows)])


def _trace_lines(trace: SimulationTrace) -> list[bytes]:
    """trace.csv data rows, each ending in a newline: time, then per room
    the three differentials, the two fan speeds and the alarm flag.

    Everything after the time cell is one bytes %-format over the row's
    Python floats, which prints every cell as _num would (both run
    PyOS_double_to_string) and each 0/1 flag as an integer.  A settled
    loop repeats its rows, so that text is formatted once per run of rows
    whose cells, flags included, match the row before bit for bit.
    """
    # (rows, rooms, 6) floats, so each row reads room by room.
    cells = np.stack([
        trace.true_pd_pa, trace.measured_hvac_pa, trace.measured_rpm_pa,
        trace.supply_speed, trace.exhaust_speed, trace.alarm_active,
    ], axis=2).reshape(len(trace.times_s), -1)
    bits = cells.view(np.int64)
    fresh = np.ones(len(cells), dtype=bool)
    fresh[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    tail_format = b",".join([b"%.6g,%.6g,%.6g,%.6g,%.6g,%d"] * len(trace.room_names))
    tails = [tail_format % tuple(row) for row in cells[fresh].tolist()]
    run = np.cumsum(fresh) - 1
    return [b"%.6g,%s\n" % (t, tails[r]) for t, r in zip(trace.times_s.tolist(), run.tolist())]


def _note_lengthened_bursts(trains) -> None:
    """Say once per distinct (td, tone) of the (schedule, tone_hz) trains
    that a td under one cycle of the tone plays one whole cycle."""
    lengthened = [(s.duration_s, f) for s, f in trains
                  if s.cycles is None and s.cycle_sequence(f)[0] > s.duration_s * f + 1e-9]
    for td, tone_hz in dict.fromkeys(lengthened):
        print(f"nprsim: note: a {_num(td * 1e3)} ms burst is under one cycle of {_num(tone_hz)} Hz"
              f"; each burst plays one cycle, {_num(1e3 / tone_hz)} ms", file=sys.stderr)


def cmd_simulate(args: argparse.Namespace) -> int:
    loaded = load_scenario(args.scenario)
    try:
        scenario = as_replay(loaded.scenario)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    trace = simulate_scenario(scenario)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ["time_s"]
    for name in trace.room_names:
        header += [
            f"true_pd_{name}", f"hvac_pd_{name}", f"rpm_pd_{name}",
            f"supply_{name}", f"exhaust_{name}", f"alarm_{name}",
        ]
    with (out_dir / "trace.csv").open("wb") as stream:
        stream.writelines([(",".join(header) + "\n").encode("utf-8"), *_trace_lines(trace)])

    plan = scenario.wiring.attack
    steady = trace.steady_true_pd_pa()
    lines = [
        f"scenario: {loaded.source_path if loaded.source_path else '<inline>'}",
        f"converged: {'yes' if trace.converged else 'no'}",
        f"hallway_pa: {_num(scenario.hallway_pa)}",
    ]
    if plan.placement == "none":
        lines.append("attack: none")
    else:
        lines.append(
            f"attack: placement={plan.placement} affects={plan.affects} "
            f"forged_pa={_num(plan.forged_pa)}"
        )
    for j, name in enumerate(trace.room_names):
        room = scenario.rooms[j]
        lines.append(
            f"room {name}: setpoint_pa={_num(room.controller.setpoint_pa)} "
            f"steady_true_pd_pa={_num(float(steady[j]))} "
            f"steady_hvac_pd_pa={_num(float(trace.measured_hvac_pa[-1, j]))} "
            f"steady_rpm_pd_pa={_num(float(trace.measured_rpm_pa[-1, j]))}"
        )
    lines.append(f"alarms_raised: {trace.raised_alarm_count()}")
    for event in trace.alarm_events:
        lines.append(f"  t={_num(event.time_s)} room={event.room} {event.kind}")
    lost = bool(np.any(steady > 0.0))
    lines.append(f"containment_lost: {'yes' if lost else 'no'}")
    _write_lines(out_dir / "summary.txt", lines)
    if loaded.countermeasure is not None:
        print(f"nprsim: note: countermeasure '{loaded.countermeasure.kind}' is not applied "
              "by simulate; evaluate-cm scores it", file=sys.stderr)
    if (attack := loaded.scenario.wiring.attack).source is not None:
        _note_lengthened_bursts([(attack.schedule, attack.source.tone_hz)])
    return 0 if trace.converged else 3


def _synth_schedule(args: argparse.Namespace) -> SegmentSchedule:
    cycles: int | tuple[int, ...] | None = None
    if args.cycles:
        try:
            parsed = tuple(int(part) for part in args.cycles.split(","))
        except ValueError as exc:
            raise CliError(f"--cycles expects integers, got {args.cycles!r}") from exc
        cycles = parsed[0] if len(parsed) == 1 else parsed
    try:
        return SegmentSchedule(
            band_hz=(args.band[0], args.band[1]),
            duration_s=args.td_ms / 1e3,
            interval_s=args.ti_ms / 1e3,
            cycles=cycles,
            amplitude_scale=args.amplitude_scale,
            fade_in_s=args.fade_in_ms / 1e3,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_synth(args: argparse.Namespace) -> int:
    if args.carrier is not None and args.rate is not None:
        raise CliError("--rate sets the rate of --silence; a --carrier keeps its own")
    schedule = _synth_schedule(args)
    if args.carrier is not None:
        try:
            carrier = read_wav(args.carrier)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read carrier {args.carrier}: {exc}") from exc
    else:
        if not math.isfinite(args.silence):
            raise CliError(f"--silence must be finite, got {args.silence}")
        rate = SILENCE_RATE_HZ if args.rate is None else args.rate
        n = int(round(args.silence * rate))
        if n <= 0:
            raise CliError("--silence must cover at least one sample")
        if n > MAX_SILENCE_SAMPLES:
            raise CliError(f"--silence of {args.silence:g} s at {rate} Hz is {n:.3g} "
                           f"samples, more than the {MAX_SILENCE_SAMPLES} it may build")
        try:
            carrier = AudioBuffer(sample_rate_hz=rate, samples=np.zeros(n))
        except ValueError as exc:
            raise CliError(f"--rate: {exc}") from exc
    nyquist = carrier.sample_rate_hz / 2.0
    if not schedule.band_hz[1] < nyquist:
        raise CliError(f"--band must lie below {nyquist:g} Hz, the Nyquist frequency of "
                       f"{carrier.sample_rate_hz} Hz audio, got {_num(schedule.band_hz[1])} Hz")

    try:
        attacked = synthesize_attack(carrier, schedule, target_f_hz=args.target_hz)
    except (ScheduleError, ClippingError) as exc:
        raise CliError(str(exc)) from exc

    target = args.target_hz if args.target_hz is not None else schedule.target_hz()
    mask = segment_mask(schedule, target, attacked.samples.size, attacked.sample_rate_hz)
    try:
        ratio = psd_ratio(attacked, schedule.band_hz, mask)
    except ValueError as exc:
        raise CliError(f"psd_ratio: {exc}: the audio needs whole "
                       "frames both inside and outside the bursts") from exc

    out_path = Path(args.out)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(out_path, attacked)
    report_path = Path(args.report) if args.report else out_path.with_suffix(
        out_path.suffix + ".psd.txt")
    report = [
        f"output: {out_path}",
        f"band_hz: {_num(schedule.band_hz[0])} {_num(schedule.band_hz[1])}",
        f"target_hz: {_num(target)}",
        f"burst_ms: {_num(schedule.duration_s * 1e3)}",
        f"interval_ms: {_num(schedule.interval_s * 1e3)}",
        f"psd_ratio: {_num(ratio)}",
    ]
    _write_lines(report_path, report)
    _note_lengthened_bursts([(schedule, target)])
    print("\n".join(report))
    return 0


def _characterize_one(
    part_id: str,
    tube: TubeAssembly | None,
    damping: float,
    lo: float | None,
    hi: float | None,
    step: float,
) -> list[str]:
    model = archetype(part_id).with_damping(damping)
    analytic = system_resonant_hz(model, tube)
    if lo is None:
        if tube is None:
            lo_hz, hi_hz = 50.0, 40_000.0
        else:
            lo_hz, hi_hz = 0.7 * analytic, 1.3 * analytic
    else:
        lo_hz, hi_hz = lo, hi
    length = tube.length_m if tube is not None else 0.0
    try:
        sweep = frequency_sweep(model, tube, lo_hz, hi_hz, step)
    except NoResonanceError:
        return [part_id, _num(length), _num(analytic), "", "", "", "", "not_found"]
    delta = sweep.center_hz - analytic
    return [
        part_id, _num(length), _num(analytic), _num(sweep.center_hz),
        _num(sweep.band_hz[0]), _num(sweep.band_hz[1]), _num(delta), "found",
    ]


def cmd_characterize(args: argparse.Namespace) -> int:
    try:
        if args.archetype == "all":
            part_ids = sorted(load_archetypes())
        else:
            part_ids = [archetype(args.archetype).part_id]
    except (KeyError, ValueError) as exc:
        raise CliError(exc.args[0]) from exc

    if (args.lo is None) != (args.hi is None):
        raise CliError("--lo and --hi go together; omit both for the default band")
    if args.tube_diameter is not None and args.tube_length is None:
        raise CliError("--tube-diameter needs --tube-length")

    header = ["archetype", "tube_length_m", "analytic_hz", "detected_hz",
              "band_low_hz", "band_high_hz", "delta_hz", "status"]
    try:
        tube = None
        if args.tube_length is not None:
            if args.tube_length <= 0.0:
                raise CliError("--tube-length must be positive; omit it for a bare port")
            tube = TubeAssembly(length_m=args.tube_length)
            if args.tube_diameter is not None:
                tube = replace(tube, inner_diameter_m=args.tube_diameter)
        rows = [
            _characterize_one(part_id, tube, args.damping, args.lo, args.hi, args.step)
            for part_id in part_ids
        ]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(",".join(header))
    for row in rows:
        print(",".join(row))
    if args.out:
        _write_csv(Path(args.out), header, rows)
    return 0


def _parse_grid(args: argparse.Namespace) -> list[float]:
    if args.values is not None:
        if not (args.start is None and args.stop is None and args.step_by is None):
            raise CliError("give either --values or all of --start/--stop/--step, not both")
        try:
            grid = [float(part) for part in args.values.split(",") if part.strip()]
        except ValueError as exc:
            raise CliError(f"--values expects numbers, got {args.values!r}") from exc
        if not grid:
            raise CliError("--values is empty")
        if not all(math.isfinite(value) for value in grid):
            raise CliError(f"--values must be finite, got {args.values!r}")
        return grid
    if args.start is None or args.stop is None or args.step_by is None:
        raise CliError("give either --values or all of --start/--stop/--step")
    if not all(math.isfinite(value) for value in (args.start, args.stop, args.step_by)):
        raise CliError("--start, --stop and --step must be finite")
    if args.step_by <= 0.0 or args.stop < args.start:
        raise CliError("grid needs --step > 0 and --stop >= --start")
    steps = (args.stop - args.start) / args.step_by
    if not steps <= MAX_SWEEP_POINTS - 1:
        raise CliError(f"grid of {steps + 1:.3g} points exceeds the limit of "
                       f"{MAX_SWEEP_POINTS}; raise --step")
    return [args.start + k * args.step_by for k in range(int(round(steps)) + 1)]


def _pickup(value: float) -> bool:
    if value not in (0.0, 1.0):
        raise CliError("pickup axis takes values 0 or 1")
    return bool(value)


# Each sweep axis: the part of the attack it moves, the field it sets there,
# that field's value at a grid value, and whether the source is retuned to
# the moved tube's resonance.
SWEEP_AXES = {
    "tube_length": ("tube", "length_m", float, True),
    "tube_diameter": ("tube", "inner_diameter_m", float, True),
    "spl": ("source", "spl_db", float, False),
    "distance": ("source", "position_distance_m", float, False),
    "ti": ("schedule", "interval_s", lambda ms: ms / 1e3, False),
    "td": ("schedule", "duration_s", lambda ms: ms / 1e3, False),
    "pickup": ("tube", "pickup_device", _pickup, False),
}


def _forged_at(scenario, axis: str, value: float, unit_mean, trains: list) -> float:
    """Forged pressure of the scenario's acoustic attack, through its hvac
    sensor, with one parameter set to value; unit_mean gives the burst
    train's rectified 1 Pa response, as unit_response_mean does.  A bare
    port is NO_TUBE however it was declared.  The point's burst train,
    (schedule, tone_hz), is appended to trains."""
    part, name, convert, retune = SWEEP_AXES[axis]
    hvac, attack = scenario.wiring.hvac, scenario.wiring.attack
    parts = {"tube": hvac.tube or NO_TUBE, "source": attack.source, "schedule": attack.schedule}
    parts[part] = replace(parts[part], **{name: convert(value)})
    tube, source, schedule = parts["tube"], parts["source"], parts["schedule"]
    if retune:
        source = replace(source, tone_hz=system_resonant_hz(hvac.model, tube))
    trains.append((schedule, source.tone_hz))
    return forged_pressure_estimate(
        schedule, hvac.model, tube, source,
        unit_mean_pa=unit_mean(schedule, hvac.model, tube, target_f_hz=source.tone_hz))


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario).scenario
    if scenario.wiring.attack.source is None:
        raise CliError("scenario declares no acoustic attack; nothing to sweep")
    grid = _parse_grid(args)

    if args.axis == "tube_diameter" and (scenario.wiring.hvac.tube or NO_TUBE).is_bare_port:
        raise CliError("axis tube_diameter needs a tube longer than 0 m; a bare port has none")

    # The points of this sweep share each burst train's 1 Pa response: an
    # spl or distance sweep drives the transducer once.
    unit_mean = functools.cache(unit_response_mean)
    trains: list = []
    rows: list[list[str]] = []
    for value in grid:
        # The parameter's own check (a negative length, an SPL out of
        # range) raises as the dataclass is rebuilt, so it sits in the try.
        try:
            forged = _forged_at(scenario, args.axis, value, unit_mean, trains)
        except (ValueError, ScheduleError, ClippingError) as exc:
            raise CliError(f"{args.axis}={value:g}: {exc}") from exc
        rows.append([_num(value), _num(forged)])

    _write_csv(Path(args.out), [args.axis, "forged_pressure_pa"], rows)
    _note_lengthened_bursts(trains)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _countermeasure_from_args(args: argparse.Namespace) -> Countermeasure | None:
    """The --kind countermeasure with the parameters given, each flag's dest
    being its Countermeasure field; an omitted one takes the dataclass
    default.  Without --kind, a parameter is refused."""
    given = {f.name: getattr(args, f.name) for f in fields(Countermeasure)[1:]
             if getattr(args, f.name) is not None}
    if args.kind is None:
        if given:
            raise CliError(f"{', '.join(given)} given without --kind")
        return None
    try:
        return Countermeasure(kind=args.kind, **given)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_evaluate_cm(args: argparse.Namespace) -> int:
    loaded = load_scenario(args.scenario)
    cm = _countermeasure_from_args(args)
    if cm is None:
        cm = loaded.countermeasure
    if cm is None:
        raise CliError("no countermeasure: give --kind or a countermeasure block")

    try:
        report = evaluate_countermeasure(loaded.scenario, cm)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["kind", "baseline_forged_pa", "residual_forged_pa",
              "attack_success", "sensitivity_penalty_s", "below_noise_floor"]
    row = [
        report.kind, _num(report.baseline_forged_pa), _num(report.residual_forged_pa),
        "1" if report.attack_success else "0", _num(report.sensitivity_penalty_s),
        "1" if report.below_noise_floor else "0",
    ]
    _write_csv(out_dir / "report.csv", header, [row])
    text = [
        f"countermeasure: {report.kind}",
        f"baseline_forged_pa: {_num(report.baseline_forged_pa)}",
        f"residual_forged_pa: {_num(report.residual_forged_pa)}",
        f"attack_success: {'yes' if report.attack_success else 'no'}",
        f"sensitivity_penalty_s: {_num(report.sensitivity_penalty_s)}",
        f"residual_below_noise_floor: {'yes' if report.below_noise_floor else 'no'}",
    ]
    _write_lines(out_dir / "report.txt", text)
    if (attack := loaded.scenario.wiring.attack).source is not None:
        _note_lengthened_bursts([(attack.schedule, attack.source.tone_hz)])
    print("\n".join(text))
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads any negative float as a value, not an option.

    Subparsers are built with the parent's class, so this holds for every
    subcommand.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built on the first call and shared after:
    parsing leaves a parser as it was."""
    parser = _Parser(
        prog="nprsim",
        description="Acoustic attacks on negative-pressure room sensing, simulated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and export trace + summary")
    p_sim.add_argument("scenario", help="scenario YAML path")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_synth = sub.add_parser("synth", help="embed a resonant burst train in audio")
    src = p_synth.add_mutually_exclusive_group(required=True)
    src.add_argument("--carrier", help="input WAV to modify")
    src.add_argument("--silence", type=float, metavar="SECONDS",
                     help="synthesize over silence of this length instead")
    p_synth.add_argument("--rate", type=int, default=None,
                         help=f"sample rate for --silence (default {SILENCE_RATE_HZ})")
    p_synth.add_argument("--out", required=True, help="output WAV path")
    p_synth.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"),
                         required=True, help="target band in Hz")
    p_synth.add_argument("--td-ms", type=float, required=True, help="burst length, ms")
    p_synth.add_argument("--ti-ms", type=float, required=True,
                         help="burst repetition interval, ms")
    p_synth.add_argument("--cycles", default=None,
                         help="whole tone cycles per burst, e.g. 1 or 1,2")
    p_synth.add_argument("--amplitude-scale", type=float,
                         default=SegmentSchedule.amplitude_scale)
    p_synth.add_argument("--fade-in-ms", type=float, default=SegmentSchedule.fade_in_s * 1e3)
    p_synth.add_argument("--target-hz", type=float, default=None,
                         help="tone frequency (default band center)")
    p_synth.add_argument("--report", default=None,
                         help="PSD report path (default <out>.psd.txt)")
    p_synth.set_defaults(func=cmd_synth)

    p_char = sub.add_parser("characterize", help="locate a sensor's resonance by sweep")
    p_char.add_argument("--archetype", required=True,
                        help="catalog part number, or 'all'")
    p_char.add_argument("--damping", type=float, default=0.05,
                        help="damping ratio for the sweep (default 0.05)")
    p_char.add_argument("--tube-length", type=float, default=None,
                        help="sampling tube length in m (omit for bare port)")
    p_char.add_argument("--tube-diameter", type=float, default=None,
                        help="tube inner diameter in m (with --tube-length; default 5/16 in)")
    p_char.add_argument("--lo", type=float, default=None, help="sweep start, Hz (with --hi)")
    p_char.add_argument("--hi", type=float, default=None, help="sweep stop, Hz (with --lo)")
    p_char.add_argument("--step", type=float, default=10.0, help="grid step, Hz")
    p_char.add_argument("--out", default=None, help="also write rows to this CSV")
    p_char.set_defaults(func=cmd_characterize)

    p_sweep = sub.add_parser("sweep", help="forged pressure vs one attack parameter")
    p_sweep.add_argument("scenario", help="scenario YAML with an acoustic attack")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated grid, e.g. 30,40,50")
    p_sweep.add_argument("--start", type=float, default=None)
    p_sweep.add_argument("--stop", type=float, default=None)
    p_sweep.add_argument("--step", dest="step_by", type=float, default=None)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cm = sub.add_parser("evaluate-cm", help="evaluate a countermeasure against a scenario")
    p_cm.add_argument("scenario", help="scenario YAML path")
    p_cm.add_argument("--kind", default=None,
                      choices=COUNTERMEASURE_KINDS,
                      help="override the scenario's countermeasure block")
    for f in fields(Countermeasure)[1:]:  # each parameter after kind
        flag = "--tube-length" if f.name == "tube_length_m" else "--" + f.name.replace("_", "-")
        p_cm.add_argument(flag, dest=f.name, type=int if f.type == "int" else float)
    p_cm.add_argument("--out", required=True, help="output directory")
    p_cm.set_defaults(func=cmd_evaluate_cm)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for message in exc.messages:
            print(f"nprsim: {message}", file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"nprsim: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nprsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
