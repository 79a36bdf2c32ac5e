"""Output checks for every benchmark job.

Each job's output is reduced to an observation (the numbers a user would
read off it) and checked against invariants that hold for any seed:

* characterize: the detected resonance lies within ``RESONANCE_REL_TOL``
  of the analytic resonance plus one grid step, or the status is
  ``not_found`` exactly where the analytic value is outside the swept band;
* simulate: the exit code and the alarm count match what the scenario's
  parameters imply (exit 3 for a loop that cannot settle in its horizon),
  forged pressures are finite and non-negative, and a settled room sits
  where the controller parks it, at the setpoint band edge;
* evaluate-cm and sweep: linearity of the chain (forged pressure scales
  with source amplitude, inversely with distance and with enclosure loss
  in dB), residual never above the undefended baseline, exact pass-through
  for a setpoint change;
* synth: the output WAV has the carrier's length and rate, and over a
  silent carrier the bursts dominate the in-band power ratio.

For the reference seed the observations are also compared with the
values stored in ``reference.json``.
"""

from __future__ import annotations

import csv
import math
import wave
from pathlib import Path

# The detected centre of a swept resonance may sit this far from the
# analytic undamped resonance, plus one grid step.  The damped amplitude
# peak lies 0.25% below the undamped value at the sweep's 0.05 damping,
# which is today's worst case (76 Hz at 30 kHz).
RESONANCE_REL_TOL = 0.004
# Room pressure settles within the deadband of its target, plus this margin.
SETTLE_TOL_PA = 0.1
# Relative tolerance of exact-ratio invariants, for values printed with six
# significant digits.
RATIO_TOL = 1e-3
# Relative tolerance of a float compared with its reference value.
REFERENCE_REL_TOL = 1e-3
PSD_RATIO_CAP = 1.0e9
NOISE_FLOOR_PA = 0.1
# Largest offset seen on both chains that the default controller corrects
# faster than the 5 s alarm dwell (checked up to 12 Pa).
MAX_QUIET_OFFSET_PA = 12.0


class CheckError(Exception):
    pass


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _finite(value: float, what: str, minimum: float | None = 0.0) -> float:
    _need(math.isfinite(value), f"{what} is not finite: {value}")
    if minimum is not None:
        _need(value >= minimum, f"{what} is below {minimum}: {value}")
    return value


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _need(bool(rows), f"{path.name} is empty")
    return rows[0], rows[1:]


def _kv_lines(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            out[key] = value
    return out


# ----------------------------------------------------------------- observers

def observe(job, rc: int, stdout: str) -> dict:
    """The job's result as numbers, after checking its own invariants."""
    kind = job.command
    if kind == "characterize":
        return _observe_characterize(job, rc, stdout)
    if kind == "simulate":
        return _observe_simulate(job, rc)
    if kind == "evaluate-cm":
        return _observe_evaluate_cm(job, rc)
    if kind == "sweep":
        return _observe_sweep(job, rc)
    if kind == "synth":
        return _observe_synth(job, rc, stdout)
    raise CheckError(f"no check for {kind}")


def _observe_characterize(job, rc: int, stdout: str) -> dict:
    e = job.expect
    _need(rc == 0, f"exit {rc}, expected 0")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    _need(len(lines) == 2, f"expected a header and one row, got {len(lines)} lines")
    row = lines[1].split(",")
    _need(len(row) == 8, f"row has {len(row)} fields")
    part, length, analytic, detected, band_lo, band_hi, delta, status = row
    _need(part == e["archetype"], f"archetype {part!r}")
    _need(math.isclose(float(length), e["tube_length_m"], rel_tol=1e-5, abs_tol=1e-9),
          f"tube length {length}")
    f_a = e["analytic_hz"]
    _need(math.isclose(float(analytic), f_a, rel_tol=1e-5),
          f"analytic_hz {analytic}, benchmark computes {f_a:.6g}")
    lo, hi = e["band_hz"]
    inside = lo <= f_a <= hi
    if not inside:
        _need(status == "not_found", f"status {status} for {f_a:.6g} Hz outside [{lo:g}, {hi:g}]")
        return {"status": status}
    _need(status == "found", f"status {status} for {f_a:.6g} Hz inside [{lo:g}, {hi:g}]")
    f_d = float(detected)
    tol = e["step_hz"] + RESONANCE_REL_TOL * f_a
    _need(abs(f_d - f_a) <= tol, f"detected {f_d:g} Hz is {f_d - f_a:+.4g} Hz from {f_a:.6g} Hz")
    _need(math.isclose(float(band_lo), f_d - e["step_hz"], rel_tol=1e-5)
          and math.isclose(float(band_hi), f_d + e["step_hz"], rel_tol=1e-5),
          f"band {band_lo}..{band_hi} is not detected +- step")
    # Six printed digits of each term bound the rounding of the difference.
    _need(abs(float(delta) - (f_d - f_a)) <= 2e-5 * f_a, f"delta {delta}")
    return {"status": status, "detected_hz": f_d}


def _summary(out: Path) -> tuple[dict, list[dict]]:
    text = (out / "summary.txt").read_text(encoding="utf-8")
    head = _kv_lines(text)
    rooms = []
    for line in text.splitlines():
        if line.startswith("room "):
            name, _, rest = line[len("room "):].partition(": ")
            fields = dict(part.split("=") for part in rest.split())
            rooms.append({"name": name, **{k: float(v) for k, v in fields.items()}})
    return head, rooms


def _forged_from_summary(head: dict) -> float:
    attack = head.get("attack", "none")
    if attack == "none":
        return 0.0
    fields = dict(part.split("=") for part in attack.split())
    return float(fields["forged_pa"])


def expected_room_pd(sc: dict, forged: float, setpoint: float) -> float:
    """Where the controller parks a room: the hvac reading at its setpoint."""
    if sc["placement"] == "none" or sc["affects"] == "rpm":
        return setpoint
    # The reading is true + low-port bias - high-port bias.
    shift = forged if sc["placement"] == "low_port" else -forged
    return setpoint - shift


def expected_alarms(sc: dict, forged: float) -> int | None:
    """Raised-alarm count implied by the wiring, or None when ambiguous."""
    n = len(sc["rooms"])
    th, db = sc["threshold_pa"], sc["deadband_pa"]
    if sc["placement"] == "none":
        return 0
    if sc["sluggish"]:
        # The reading starts a full offset from setpoint and the loop is too
        # slow to pull it back within the dwell.
        return n if forged > th + SETTLE_TOL_PA else None
    if not sc["separate_rpm"] or sc["affects"] == "both":
        # The monitor reads what the controller reads, which the default
        # loop pulls back inside the threshold before the dwell runs out,
        # for offsets up to MAX_QUIET_OFFSET_PA.
        return 0 if forged <= MAX_QUIET_OFFSET_PA else None
    if sc["affects"] == "rpm":
        deviation_lo = deviation_hi = forged
    else:
        deviation_lo, deviation_hi = forged - db - SETTLE_TOL_PA, forged + db + SETTLE_TOL_PA
    if deviation_lo > th + SETTLE_TOL_PA:
        return n
    if deviation_hi < th - SETTLE_TOL_PA:
        return 0
    return None


def _observe_simulate(job, rc: int) -> dict:
    sc = job.expect["scenario"]
    out = Path(job.expect["out"])
    want_rc = 3 if sc["sluggish"] else 0
    _need(rc == want_rc, f"exit {rc}, expected {want_rc}")
    head, rooms = _summary(out)
    _need(head.get("converged") == ("yes" if rc == 0 else "no"),
          f"converged {head.get('converged')!r} with exit {rc}")
    forged = _finite(_forged_from_summary(head), "forged_pa")
    if sc["forged_pa"] is not None:
        _need(math.isclose(forged, sc["forged_pa"], rel_tol=1e-5),
              f"forged_pa {forged} differs from the scenario's {sc['forged_pa']}")
    _need([r["name"] for r in rooms] == [name for name, _ in sc["rooms"]], "room list differs")
    steady = []
    for room, (_name, setpoint) in zip(rooms, sc["rooms"]):
        _need(math.isclose(room["setpoint_pa"], setpoint, rel_tol=1e-5), f"{room['name']} setpoint")
        pd = _finite(room["steady_true_pd_pa"], f"{room['name']} steady_true_pd_pa", None)
        if rc == 0:
            want = expected_room_pd(sc, forged, setpoint)
            _need(abs(pd - want) <= sc["deadband_pa"] + SETTLE_TOL_PA,
                  f"{room['name']} settled at {pd:g} Pa, expected {want:g} +- deadband")
        steady.append(pd)
    alarms = int(head["alarms_raised"])
    want_alarms = expected_alarms(sc, forged)
    if want_alarms is not None:
        _need(alarms == want_alarms, f"{alarms} alarms raised, expected {want_alarms}")
    lost = head.get("containment_lost")
    _need(lost == ("yes" if any(pd > 0.0 for pd in steady) else "no"), f"containment_lost {lost}")
    _check_trace(out / "trace.csv", sc, rooms)
    return {"exit": rc, "forged_pa": forged, "alarms_raised": alarms, "steady_true_pd_pa": steady}


def _check_trace(path: Path, sc: dict, rooms: list[dict]) -> None:
    header, rows = _read_csv(path)
    n_rooms = len(sc["rooms"])
    _need(len(header) == 1 + 6 * n_rooms, f"trace.csv has {len(header)} columns")
    want = int(round(sc["horizon_s"])) + 1
    _need(len(rows) == want, f"trace.csv has {len(rows)} rows, expected {want}")
    last = rows[-1]
    for j, room in enumerate(rooms):
        value = float(last[1 + 6 * j])
        _need(math.isclose(value, room["steady_true_pd_pa"], rel_tol=1e-5, abs_tol=1e-6),
              f"trace.csv last row disagrees with summary for {room['name']}")
    for row in rows[:: max(1, len(rows) // 16)]:
        _need(all(math.isfinite(float(v)) for v in row), "trace.csv holds a non-finite value")


def _observe_evaluate_cm(job, rc: int) -> dict:
    e = job.expect
    _need(rc == 0, f"exit {rc}, expected 0")
    header, rows = _read_csv(Path(e["out"]) / "report.csv")
    _need(len(rows) == 1, f"report.csv has {len(rows)} rows")
    rec = dict(zip(header, rows[0]))
    _need(rec["kind"] == e["kind"], f"kind {rec['kind']}")
    base = _finite(float(rec["baseline_forged_pa"]), "baseline_forged_pa")
    resid = _finite(float(rec["residual_forged_pa"]), "residual_forged_pa")
    penalty = _finite(float(rec["sensitivity_penalty_s"]), "sensitivity_penalty_s")
    success = rec["attack_success"] == "1"
    args = dict(zip(e["args"][::2], e["args"][1::2]))
    kind = e["kind"]
    if kind == "enclosure":
        want = base * 10.0 ** (-float(args["--extra-loss-db"]) / 20.0)
        _need(math.isclose(resid, want, rel_tol=RATIO_TOL),
              f"enclosure residual {resid:g}, linear path gives {want:g}")
    elif kind == "raised_setpoint":
        _need(resid == base, "raised setpoint changed the forged pressure")
        _need(penalty == 0.0, "raised setpoint has a settle penalty")
    else:
        _need(resid <= base * (1.0 + RATIO_TOL), f"{kind} residual {resid:g} above baseline {base:g}")
    _need((rec["below_noise_floor"] == "1") == (resid < NOISE_FLOOR_PA), "below_noise_floor flag")
    sc = e["scenario"]
    setpoint = float(args["--setpoint-pa"]) if kind == "raised_setpoint" else sc["rooms"][0][1]
    pd = expected_room_pd(sc, resid, setpoint)
    margin = sc["deadband_pa"] + SETTLE_TOL_PA
    if pd - margin > 0.0:
        _need(success, f"attack_success 0, but the room should settle at {pd:g} Pa")
    elif pd + margin < 0.0:
        _need(not success, f"attack_success 1, but the room should settle at {pd:g} Pa")
    return {"baseline_forged_pa": base, "residual_forged_pa": resid,
            "attack_success": int(success), "sensitivity_penalty_s": penalty}


def _observe_sweep(job, rc: int) -> dict:
    e = job.expect
    _need(rc == 0, f"exit {rc}, expected 0")
    header, rows = _read_csv(Path(e["out"]))
    _need(header == [e["axis"], "forged_pressure_pa"], f"header {header}")
    _need(len(rows) == len(e["values"]), f"{len(rows)} rows for {len(e['values'])} values")
    forged = []
    for (x, f), want in zip(rows, e["values"]):
        _need(math.isclose(float(x), want, rel_tol=1e-5), f"axis value {x}, expected {want}")
        forged.append(_finite(float(f), f"forged pressure at {x}"))
    scale = None
    if e["axis"] == "distance":
        scale = [f * d for f, d in zip(forged, e["values"])]
    elif e["axis"] == "spl":
        scale = [f / 10.0 ** (s / 20.0) for f, s in zip(forged, e["values"])]
    if scale is not None:
        _need(all(math.isclose(v, scale[0], rel_tol=RATIO_TOL) for v in scale),
              f"forged pressure is not linear in source amplitude along {e['axis']}")
    return {"forged_pa": forged}


def _observe_synth(job, rc: int, stdout: str) -> dict:
    e = job.expect
    _need(rc == 0, f"exit {rc}, expected 0")
    report = _kv_lines(stdout)
    ratio = _finite(float(report["psd_ratio"]), "psd_ratio")
    # Over silence the bursts are the only in-band energy, so frames inside
    # them carry far more band power than frames outside.
    floor = 100.0 if e["silent"] else 0.0
    _need(floor < ratio <= PSD_RATIO_CAP, f"psd_ratio {ratio:g}")
    out = Path(e["out"])
    _need(Path(str(out) + ".psd.txt").read_text(encoding="utf-8").strip() == stdout.strip(),
          "PSD report file differs from stdout")
    with wave.open(str(out), "rb") as fh:
        _need(fh.getnchannels() == 1 and fh.getsampwidth() == 2, "output WAV is not 16-bit mono")
        _need(fh.getframerate() == e["rate"], f"output rate {fh.getframerate()}")
        _need(fh.getnframes() == e["samples"], f"output has {fh.getnframes()} samples")
    return {"psd_ratio": ratio}


# ----------------------------------------------------------------- reference

def compare_reference(got: dict, want: dict, step_hz: float | None = None) -> None:
    """Observation against its stored reference value."""
    _need(set(got) == set(want), f"fields {sorted(got)} differ from reference {sorted(want)}")
    for key, ref in want.items():
        value = got[key]
        if key == "detected_hz":
            _need(abs(value - ref) <= (step_hz or 0.0) + 1e-9,
                  f"{key} {value:g}, reference {ref:g}")
        elif isinstance(ref, list):
            _need(len(value) == len(ref), f"{key} has {len(value)} values, reference {len(ref)}")
            for v, r in zip(value, ref):
                _need(math.isclose(v, r, rel_tol=REFERENCE_REL_TOL, abs_tol=1e-6),
                      f"{key} {v:g}, reference {r:g}")
        elif isinstance(ref, float):
            _need(math.isclose(value, ref, rel_tol=REFERENCE_REL_TOL, abs_tol=1e-6),
                  f"{key} {value:g}, reference {ref:g}")
        else:
            _need(value == ref, f"{key} {value!r}, reference {ref!r}")


def cross_check(jobs: list, observations: dict) -> list[tuple[str, str]]:
    """Invariants that span jobs: evaluate-cm's undefended forged pressure is
    the one simulate applied for the same scenario."""
    problems = []
    for job in jobs:
        sim = job.expect.get("sim")
        if sim is None or job.id not in observations or sim not in observations:
            continue
        base = observations[job.id]["baseline_forged_pa"]
        forged = observations[sim]["forged_pa"]
        if not math.isclose(base, forged, rel_tol=1e-5, abs_tol=1e-9):
            problems.append((job.id, f"baseline {base:g} differs from simulate's forged_pa {forged:g}"))
    return problems
