"""Seeded inputs and job lists for the three benchmark workloads.

Every workload is a list of jobs, each one ``nprsim`` command line plus
what its output must satisfy.  The inputs (scenario YAML, carrier WAV)
are written into a work directory before anything is timed; the program
sees only those files.  The same seed gives byte-identical inputs.

The seed varies the values the system's behaviour depends on (tube
lengths, offsets, setpoints, burst schedule, carrier content) but keeps
the amount of work per pass nearly fixed, so that run-to-run spread
measures the program and not the draw.
"""

from __future__ import annotations

import math
import random
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# Sensor catalog as the benchmark knows it: part id -> midpoint of the
# bare-port resonant band, Hz.  The program calibrates each model so its
# bare-port resonance sits at this midpoint.
CATALOG_HZ = {
    "P1K-2-2X16PA": 795.0,
    "MPVZ5004GW7U": 1775.0,
    "SDP810-250PA": 770.0,
    "SDP810-500PA": 880.0,
    "TBPDPNS100PGUCV": 54000.0,
    "P993-1B": 745.0,
    "NSCSS015PDUNV": 46000.0,
    "A1011-00": 685.0,
}
ULTRASONIC = ("TBPDPNS100PGUCV", "NSCSS015PDUNV")
AUDIBLE = tuple(p for p in CATALOG_HZ if p not in ULTRASONIC)

# One metre of the reference 5/16 inch tube moves a resonance to 0.88x its
# bare-port value, and the tube-coupled resonance scales as
# diameter / sqrt(length).
TUBE_RATIO_AT_1M = 0.88
REFERENCE_TUBE_ID_M = 5.0 / 16.0 * 0.0254

# The CLI's bare-port sweep band and default tube-sweep grid step.
BARE_PORT_BAND_HZ = (50.0, 40_000.0)
SWEEP_STEP_HZ = 10.0
# The bare-port sweep runs at a coarser grid than the CLI default: at 10 Hz
# it takes 12-16 s on 2 cores, and a pass must be short enough that a run
# holds a dozen of them.  The band and every other setting stay the CLI's.
BARE_PORT_STEP_HZ = 200.0

DEADBAND_PA = 0.2
ALARM_THRESHOLD_PA = 2.0
SAMPLE_RATE_HZ = 48_000


def tube_resonance_hz(part_id: str, length_m: float, diameter_m: float = REFERENCE_TUBE_ID_M) -> float:
    """Resonance of a catalog part behind a sampling tube (bare port at length 0)."""
    f0 = CATALOG_HZ[part_id]
    if length_m == 0.0:
        return f0
    return f0 * TUBE_RATIO_AT_1M * (diameter_m / REFERENCE_TUBE_ID_M) / math.sqrt(length_m)


@dataclass
class Job:
    """One CLI invocation and the facts its output is checked against."""

    id: str
    argv: list[str]
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    jobs: list[Job]


def _y(value: float) -> str:
    """A float literal YAML reads back as a float (never '1e-05')."""
    text = f"{value:.9f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


# --------------------------------------------------------------- characterize

def characterize(work: Path, rng: random.Random, tiny: bool) -> Workload:
    jobs: list[Job] = []
    audible = AUDIBLE[:2] if tiny else AUDIBLE
    per_part = 1 if tiny else 2
    for part in audible:
        for k in range(per_part):
            # Each part is seen behind a short and a long tube.  A sweep's cost
            # follows its resonance, so lengths jitter around fixed values and
            # the median job costs the same whatever the seed.
            length = round((0.5, 2.5)[k] * (1.0 + rng.uniform(-0.1, 0.1)), 3)
            jobs.append(_char_job(f"tube-{part}-{k}", part, length))
    if not tiny:
        # The ultrasonic parts take the small-dt path even with a tube.  Their
        # cost grows as 1/length, so the draw is a narrow jitter around the
        # 2.5 m that puts them near 30 kHz.
        for part in ULTRASONIC:
            length = round(2.5 * (1.0 + rng.uniform(-0.03, 0.03)), 3)
            jobs.append(_char_job(f"tube-{part}", part, length))
    # Bare port over the CLI's default band, for a part whose resonance lies
    # above it: the not-found case that `characterize --archetype all` pays
    # for.  The part is fixed because the sweep's time step, and so its cost,
    # follows the part's resonance.
    step = 2000.0 if tiny else BARE_PORT_STEP_HZ
    jobs.append(_char_job("bare-ultrasonic", "NSCSS015PDUNV", 0.0, step=step))
    rng.shuffle(jobs)
    return Workload("characterize", jobs)


def _char_job(job_id: str, part: str, length_m: float, step: float = SWEEP_STEP_HZ) -> Job:
    argv = ["characterize", "--archetype", part, "--step", repr(step)]
    analytic = tube_resonance_hz(part, length_m)
    if length_m > 0.0:
        argv += ["--tube-length", repr(length_m)]
        band = (0.7 * analytic, 1.3 * analytic)
    else:
        band = BARE_PORT_BAND_HZ
    expect = {
        "archetype": part,
        "tube_length_m": length_m,
        "analytic_hz": analytic,
        "band_hz": band,
        "step_hz": step,
    }
    return Job(job_id, argv, expect)


# --------------------------------------------------------------------- attack

def _acoustic_yaml(p: dict) -> str:
    """A variant of scenarios/acoustic_lpf.yaml: one room, one A1011-00 behind
    a tube, a burst train tuned to the tube resonance."""
    return f"""\
horizon_s: {_y(p['horizon_s'])}
rooms:
  - name: iso1
    setpoint_pa: {_y(p['setpoint_pa'])}
sensors:
  hvac:
    archetype: A1011-00
    tube:
      length_m: {_y(p['tube_m'])}
attack:
  placement: {p['placement']}
  affects: both
  target_f_hz: {_y(p['target_hz'])}
  source:
    spl_db: {_y(p['spl_db'])}
    ref_distance_m: 0.002
    position_distance_m: {_y(p['distance_m'])}
  schedule:
    band_hz: [{_y(p['band_hz'][0])}, {_y(p['band_hz'][1])}]
    duration_s: {_y(p['td_s'])}
    interval_s: {_y(p['ti_s'])}
"""


def _acoustic_params(rng: random.Random) -> dict:
    tube = round(rng.uniform(0.8, 1.3), 3)
    f_sys = tube_resonance_hz("A1011-00", tube)
    target = round(f_sys * (1.0 + rng.uniform(-0.02, 0.02)), 2)
    return {
        "horizon_s": 120.0,
        "setpoint_pa": round(rng.uniform(-8.0, -2.5), 2),
        "tube_m": tube,
        "placement": rng.choice(("high_port", "low_port")),
        "target_hz": target,
        "spl_db": round(rng.uniform(54.0, 62.0), 1),
        "distance_m": round(rng.uniform(0.002, 0.003), 4),
        "band_hz": (round(target - 65.0, 1), round(target + 65.0, 1)),
        "td_s": round(rng.uniform(0.0022, 0.0035), 4),
        # The burst count, and with it the cost of every forged-pressure
        # estimate, goes as 1/interval, so the interval varies narrowly.
        "ti_s": round(rng.uniform(0.014, 0.018), 4),
    }


def attack(work: Path, rng: random.Random, tiny: bool) -> Workload:
    jobs: list[Job] = []
    n_scen = 1 if tiny else 3
    sweep_axes = ["distance", "spl", "ti", "tube_length"]
    for s in range(n_scen):
        p = _acoustic_params(rng)
        path = work / f"acoustic{s}.yaml"
        path.write_text(_acoustic_yaml(p), encoding="utf-8")
        jobs.append(Job(f"simulate-{s}", ["simulate", str(path), "--out", str(work / f"sim{s}")],
                        {"scenario": _plant_params_acoustic(p), "out": str(work / f"sim{s}")}))
        kinds = {
            "lpf": ["--cutoff-hz", _y(round(rng.uniform(60.0, 200.0), 1)),
                    "--order", str(rng.randint(1, 3))],
            "long_tube": ["--tube-length", _y(round(rng.uniform(3.0, 8.0), 2))],
            "enclosure": ["--extra-loss-db", _y(round(rng.uniform(6.0, 20.0), 1))],
            "raised_setpoint": ["--setpoint-pa", _y(round(rng.uniform(-15.0, -9.0), 2))],
        }
        for kind, extra in kinds.items():
            out = work / f"cm{s}-{kind}"
            jobs.append(Job(f"evaluate-cm-{s}-{kind}",
                            ["evaluate-cm", str(path), "--kind", kind, *extra, "--out", str(out)],
                            {"kind": kind, "args": extra, "out": str(out), "sim": f"simulate-{s}",
                             "scenario": _plant_params_acoustic(p)}))
        for axis in (sweep_axes if not tiny else sweep_axes[:1]):
            values = _sweep_values(axis, rng)
            out = work / f"sweep{s}-{axis}.csv"
            jobs.append(Job(f"sweep-{s}-{axis}",
                            ["sweep", str(path), "--axis", axis,
                             "--values", ",".join(_y(v) for v in values), "--out", str(out)],
                            {"axis": axis, "values": values, "out": str(out)}))
        sweep_axes = sweep_axes[1:] + sweep_axes[:1]

    # synth over a chord-plus-noise carrier: the psd_ratio frame loop.  A
    # 2 ms burst holds one cycle of the target, and that cycle's length in
    # samples is psd_ratio's frame length.  An FFT of a prime length such as
    # 79 costs a quarter more than one of 80, so every pass synthesizes once
    # with each: the targets are drawn only where the cycle is 80 and 79
    # samples long, and the cost does not depend on the draw.  The interval
    # sets the share of frames skipped as straddling a burst edge, so it
    # varies narrowly too.
    carrier_s = 2.0 if tiny else 10.0
    carrier = work / "carrier.wav"
    write_carrier(carrier, carrier_s, rng.randrange(2**31))
    ti_ms = round(rng.uniform(15.5, 16.5), 2)
    for frame, (lo_hz, hi_hz) in ((80, (597.0, 603.0)), (79, (605.0, 610.0))):
        target = round(rng.uniform(lo_hz, hi_hz), 1)
        band = (round(target - 65.0, 1), round(target + 65.0, 1))
        out = work / f"attacked{frame}.wav"
        jobs.append(Job(f"synth-carrier-{frame}",
                        ["synth", "--carrier", str(carrier), "--out", str(out),
                         "--band", _y(band[0]), _y(band[1]), "--td-ms", "2.0",
                         "--ti-ms", _y(ti_ms), "--target-hz", _y(target)],
                        {"out": str(out), "samples": int(round(carrier_s * SAMPLE_RATE_HZ)),
                         "rate": SAMPLE_RATE_HZ, "silent": False}))
    silence_s = round(rng.uniform(1.9, 2.1), 2)
    out = work / "silence.wav"
    jobs.append(Job("synth-silence",
                    ["synth", "--silence", _y(silence_s), "--rate", str(SAMPLE_RATE_HZ),
                     "--out", str(out), "--band", _y(band[0]), _y(band[1]),
                     "--td-ms", "2.0", "--ti-ms", _y(ti_ms)],
                    {"out": str(out), "samples": int(round(silence_s * SAMPLE_RATE_HZ)),
                     "rate": SAMPLE_RATE_HZ, "silent": True}))
    rng.shuffle(jobs)
    return Workload("attack", jobs)


def _sweep_values(axis: str, rng: random.Random) -> list[float]:
    """One value drawn in each of the axis's strata, ascending."""
    lo, hi, n, digits = {
        "distance": (0.002, 0.01, 5, 4),
        "spl": (50.0, 70.0, 5, 1),
        "ti": (12.0, 60.0, 5, 2),
        "tube_length": (0.8, 1.6, 4, 3),
    }[axis]
    width = (hi - lo) / n
    return [round(lo + width * (k + rng.random()), digits) for k in range(n)]


def _plant_params_acoustic(p: dict) -> dict:
    """Closed-loop facts of an acoustic scenario; the forged magnitude is
    read from the program's own summary when the run is checked."""
    return {
        "horizon_s": p["horizon_s"],
        "rooms": [("iso1", p["setpoint_pa"])],
        "placement": p["placement"],
        "affects": "both",
        "forged_pa": None,
        "separate_rpm": False,
        "deadband_pa": DEADBAND_PA,
        "threshold_pa": ALARM_THRESHOLD_PA,
        "sluggish": False,
    }


def write_carrier(path: Path, duration_s: float, seed: int) -> None:
    """Chord of steady tones plus low-passed noise, 16-bit mono PCM."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * SAMPLE_RATE_HZ))
    t = np.arange(n) / SAMPLE_RATE_HZ
    x = np.zeros(n)
    root = rng.uniform(180.0, 260.0)
    for ratio in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.75, 4.0):
        x += rng.uniform(0.05, 0.3) * np.sin(2.0 * math.pi * root * ratio * t + rng.uniform(0, 6.28))
    # Moving-average low-pass tilts the noise toward low frequencies.
    smooth = np.convolve(rng.standard_normal(n), np.full(20, 1.0 / 20.0), mode="same")
    x += 0.8 * smooth
    x *= 0.95 / float(np.max(np.abs(x)))
    pcm = np.round(x * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE_HZ)
        fh.writeframes(pcm.tobytes())


# ---------------------------------------------------------------- closed-loop

SHIPPED_FORGED = ("baseline.yaml", "dual_dps.yaml", "multi_room.yaml", "replay_low_port.yaml")


def _plant_yaml(p: dict) -> str:
    lines = [f"horizon_s: {_y(p['horizon_s'])}"]
    if p.get("gain") is not None:
        lines += ["controller:", f"  gain: {_y(p['gain'])}"]
    if p["placement"] == "common_high_port":
        lines += ["wiring:", "  common_high_port: true"]
    lines.append("rooms:")
    for name, setpoint, volume in p["room_rows"]:
        lines += [f"  - name: {name}", f"    setpoint_pa: {_y(setpoint)}",
                  f"    volume_m3: {_y(volume)}"]
    if p["separate_rpm"]:
        lines += ["sensors:", "  hvac:", "    archetype: A1011-00", "    tube:",
                  "      length_m: 1.0", "  rpm:", "    archetype: P993-1B"]
        lines += ["alarm:", f"  threshold_pa: {_y(p['threshold_pa'])}", "  dwell_s: 5.0"]
    if p["placement"] != "none":
        lines += ["attack:", f"  placement: {p['placement']}", f"  affects: {p['affects']}",
                  f"  forged_pa: {_y(p['forged_pa'])}"]
    return "\n".join(lines) + "\n"


def _rooms(rng: random.Random, n: int) -> list[tuple[str, float, float]]:
    width = max(2, len(str(n - 1)))
    return [(f"r{i:0{width}d}", round(rng.uniform(-15.0, -2.0), 2), round(rng.uniform(30.0, 120.0), 1))
            for i in range(n)]


def _loop_params(rng, n_rooms, horizon_s, placement, affects="both", separate_rpm=False,
                 forged=(2.0, 9.0), gain=None, sluggish=False) -> dict:
    rows = _rooms(rng, n_rooms)
    return {
        # Cost follows the horizon, so it jitters around a fixed value per job.
        "horizon_s": round(horizon_s * (1.0 + rng.uniform(-0.05, 0.05)), 0),
        "room_rows": rows,
        "rooms": [(name, sp) for name, sp, _v in rows],
        "placement": placement,
        "affects": affects,
        "forged_pa": round(rng.uniform(*forged), 3) if placement != "none" else 0.0,
        "separate_rpm": separate_rpm,
        "deadband_pa": DEADBAND_PA,
        "threshold_pa": ALARM_THRESHOLD_PA,
        "gain": gain,
        "sluggish": sluggish,
    }


def closed_loop(work: Path, rng: random.Random, tiny: bool, shipped_dir: Path) -> Workload:
    th, db = ALARM_THRESHOLD_PA, DEADBAND_PA
    specs = [
        ("1room-none", _loop_params(rng, 1, 120.0, "none")),
        ("1room-low", _loop_params(rng, 1, 150.0, "low_port")),
        ("1room-high", _loop_params(rng, 1, 180.0, "high_port")),
        ("3room-common", _loop_params(rng, 3, 210.0, "common_high_port")),
        ("100room-common", _loop_params(rng, 2 if tiny else 100, 300.0, "common_high_port")),
    ]
    if not tiny:
        specs += [
            ("3room-low", _loop_params(rng, 3, 240.0, "low_port")),
            # Dual sensors: an offset on the control chain alone moves the
            # room and the clean monitor alarms once its deviation clears
            # the threshold; one on the monitor alone alarms at once; one on
            # both is silent.  Offsets stay clear of the threshold so the
            # expected alarm count is unambiguous.
            ("dual-hvac-alarm", _loop_params(rng, 1, 135.0, rng.choice(("low_port", "high_port")),
                                             "hvac", True, forged=(th + db + 0.5, 9.0))),
            ("dual-hvac-quiet", _loop_params(rng, 1, 165.0, rng.choice(("low_port", "high_port")),
                                             "hvac", True, forged=(0.2, th - db - 0.5))),
            ("dual-rpm-alarm", _loop_params(rng, 3, 195.0, "low_port", "rpm", True,
                                            forged=(th + 0.5, 9.0))),
            ("dual-both", _loop_params(rng, 1, 270.0, "high_port", "both", True)),
            # A controller this sluggish is still moving when the horizon
            # ends: simulate must report exit 3.
            ("1room-sluggish", _loop_params(rng, 1, 150.0, "high_port", forged=(4.0, 9.0),
                                            gain=round(rng.uniform(2e-5, 6e-5), 7),
                                            sluggish=True)),
        ]
    jobs = []
    for job_id, p in specs:
        path = work / f"{job_id}.yaml"
        path.write_text(_plant_yaml(p), encoding="utf-8")
        out = work / f"out-{job_id}"
        jobs.append(Job(job_id, ["simulate", str(path), "--out", str(out)],
                        {"scenario": p, "out": str(out)}))
    for name in (SHIPPED_FORGED[:1] if tiny else SHIPPED_FORGED):
        path = work / name
        path.write_text((shipped_dir / name).read_text(encoding="utf-8"), encoding="utf-8")
        out = work / f"out-{path.stem}"
        jobs.append(Job(f"shipped-{path.stem}", ["simulate", str(path), "--out", str(out)],
                        {"scenario": shipped_plant_params(path), "out": str(out)}))
    rng.shuffle(jobs)
    return Workload("closed-loop", jobs)


def shipped_plant_params(path: Path) -> dict:
    """Closed-loop facts of a shipped forged_pa scenario, read from its YAML."""
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    attack_raw = raw.get("attack") or {}
    sensors = raw.get("sensors") or {}
    alarm = raw.get("alarm") or {}
    controller = raw.get("controller") or {}
    return {
        "horizon_s": float(raw.get("horizon_s", 120.0)),
        "rooms": [(r.get("name", f"room{i}"), float(r.get("setpoint_pa", -2.5)))
                  for i, r in enumerate(raw["rooms"])],
        "placement": attack_raw.get("placement", "none"),
        "affects": attack_raw.get("affects", "both"),
        "forged_pa": float(attack_raw.get("forged_pa", 0.0)),
        "separate_rpm": "rpm" in sensors,
        "deadband_pa": float(controller.get("deadband_pa", DEADBAND_PA)),
        "threshold_pa": float(alarm.get("threshold_pa", ALARM_THRESHOLD_PA)),
        "gain": None,
        "sluggish": False,
    }


def build(name: str, work: Path, seed: int, tiny: bool, root: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if name == "characterize":
        return characterize(work, rng, tiny)
    if name == "attack":
        return attack(work, rng, tiny)
    if name == "closed-loop":
        return closed_loop(work, rng, tiny, root / "scenarios")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("characterize", "attack", "closed-loop")
