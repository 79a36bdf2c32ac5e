"""Derive the two bench-scale constants the package ships with.

Two numbers in the library are not physics but instrument calibration:

* ``sensor.DEFAULT_READING_GAIN`` scales rectified resonant oscillation
  into displayed pressure units.
* ``acoustics.TUBE_LOSS_DB_PER_M`` is the per-meter attenuation of the
  reference 5/16 inch sampling tube.

This script measures the raw response of the canonical bench setup
(A1011-00, 1 m tube, 65 dB source at 0.2 cm, 2 ms bursts every 15 ms)
with gain 1 and zero tube loss, then solves for the pair of constants
that makes the bench-scale endpoints hold simultaneously:

* a 2.5 Pa forged reading at 7 cm from a bare port,
* about 28.5 Pa forged reading through 1 m of tube at 15 ms intervals
  (which puts the matching tube-attack distance crossing near 2.3 cm),
* a 90 dB source pushed below the 0.1 Pa noise floor by 7.5 m of tube.

Run it after changing anything in the response pipeline; it prints the
constants to freeze into the source plus a full verification table.
``--verify`` skips the derivation and checks the constants the package
currently ships.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nprsim.acoustics as acoustics
from nprsim.acoustics import AcousticSource
from nprsim.scenario import archetype
from nprsim.sensor import TubeAssembly, system_resonant_hz
from nprsim.waveform import SegmentSchedule, forged_pressure_estimate

REF_DISTANCE_M = 0.002
CLOSE_DISTANCE_M = 0.002
TUBE_LENGTH_M = 1.0
LONG_TUBE_M = 7.5
BURST_S = 0.002
INTERVAL_S = 0.015
ATTACK_SPL_DB = 65.0
LOUD_SPL_DB = 90.0

NO_TUBE_CROSSING_M = 0.07
NO_TUBE_CROSSING_TOL = (0.056, 0.084)
TUBE_CROSSING_TOL = (0.020, 0.030)
P15_WINDOW_PA = (28.05, 55.2)
P60_MAX_PA = 13.8
RESIDUAL_LIMIT_PA = 0.1
RESIDUAL_MARGIN_PA = 0.085

P15_CANDIDATES_PA = (28.5, 28.2, 28.1)


def canonical_parts():
    model = archetype("A1011-00")
    tube = TubeAssembly(length_m=TUBE_LENGTH_M)
    f_tube = system_resonant_hz(model, tube)
    f_bare = system_resonant_hz(model, None)
    sched_tube = SegmentSchedule(
        band_hz=(0.9 * f_tube, 1.1 * f_tube),
        duration_s=BURST_S, interval_s=INTERVAL_S,
    )
    sched_bare = SegmentSchedule(
        band_hz=(0.9 * f_bare, 1.1 * f_bare),
        duration_s=BURST_S, interval_s=INTERVAL_S,
    )
    return model, tube, f_tube, f_bare, sched_tube, sched_bare


def source_at(distance_m: float, spl_db: float, tone_hz: float) -> AcousticSource:
    return AcousticSource(
        spl_db=spl_db, ref_distance_m=REF_DISTANCE_M,
        position_distance_m=distance_m, tone_hz=tone_hz,
    )


def estimate(schedule, model, tube, src, target_hz):
    return forged_pressure_estimate(schedule, model, tube, src, target_f_hz=target_hz)


def crossing_distance_m(distances, values, level=2.5):
    """Log-log interpolated distance where the curve crosses `level`."""
    import math

    for (d0, v0), (d1, v1) in zip(zip(distances, values), zip(distances[1:], values[1:])):
        if (v0 - level) * (v1 - level) <= 0.0:
            t = (math.log(level) - math.log(v0)) / (math.log(v1) - math.log(v0))
            return math.exp(math.log(d0) + t * (math.log(d1) - math.log(d0)))
    raise SystemExit(f"no {level} Pa crossing inside {distances[0]}..{distances[-1]} m")


def derive(p15_target: float):
    model, tube, f_tube, f_bare, sched_tube, sched_bare = canonical_parts()
    unit_model = replace(model, reading_gain=1.0)

    saved = acoustics.TUBE_LOSS_DB_PER_M
    acoustics.TUBE_LOSS_DB_PER_M = 0.0
    try:
        r_tube = estimate(sched_tube, unit_model, tube,
                          source_at(CLOSE_DISTANCE_M, ATTACK_SPL_DB, f_tube), f_tube)
        r_bare_close = estimate(sched_bare, unit_model, None,
                                source_at(CLOSE_DISTANCE_M, ATTACK_SPL_DB, f_bare), f_bare)
        r_bare_far = estimate(sched_bare, unit_model, None,
                              source_at(NO_TUBE_CROSSING_M, ATTACK_SPL_DB, f_bare), f_bare)
    finally:
        acoustics.TUBE_LOSS_DB_PER_M = saved

    import math

    gain = 2.5 / r_bare_far
    loss = 20.0 * math.log10(gain * r_tube / p15_target)
    gain = float(f"{gain:.6g}")
    loss = round(loss, 3)
    print(f"raw responses (gain 1, loss 0): tube@0.2cm {r_tube:.6e}  "
          f"bare@0.2cm {r_bare_close:.6e}  bare@7cm {r_bare_far:.6e}")
    print(f"inverse-distance check: {r_bare_close / r_bare_far:.4f} "
          f"(expected {NO_TUBE_CROSSING_M / CLOSE_DISTANCE_M:.1f})")
    print(f"candidate constants for p15={p15_target}: "
          f"DEFAULT_READING_GAIN={gain}  TUBE_LOSS_DB_PER_M={loss}")
    return gain, loss


def verify(gain: float | None, loss: float | None) -> bool:
    """Measure every calibrated endpoint with the given (or shipped) constants."""
    model, tube, f_tube, f_bare, sched_tube, sched_bare = canonical_parts()
    if gain is not None:
        model = replace(model, reading_gain=gain)
    saved = acoustics.TUBE_LOSS_DB_PER_M
    if loss is not None:
        acoustics.TUBE_LOSS_DB_PER_M = loss
    try:
        ok = True

        curve = []
        for ti_ms in range(15, 61, 5):
            sched = replace(sched_tube, interval_s=ti_ms / 1e3)
            curve.append(estimate(sched, model, tube,
                                  source_at(CLOSE_DISTANCE_M, ATTACK_SPL_DB, f_tube),
                                  f_tube))
        p15, p60 = curve[0], curve[-1]
        mono = all(a >= b for a, b in zip(curve, curve[1:]))
        ok &= P15_WINDOW_PA[0] <= p15 <= P15_WINDOW_PA[1]
        ok &= p60 <= P60_MAX_PA
        ok &= mono
        print(f"p(T_I=15ms) = {p15:.4f} Pa  (window {P15_WINDOW_PA})")
        print(f"p(T_I=60ms) = {p60:.4f} Pa  (max {P60_MAX_PA})")
        print(f"monotone non-increasing over 15..60 ms: {mono}")

        dists = [0.01 * k for k in range(1, 21)]
        bare_curve = [estimate(sched_bare, model, None,
                               source_at(d, ATTACK_SPL_DB, f_bare), f_bare)
                      for d in dists]
        d_bare = crossing_distance_m(dists, bare_curve)
        ok &= NO_TUBE_CROSSING_TOL[0] <= d_bare <= NO_TUBE_CROSSING_TOL[1]
        print(f"2.5 Pa crossing, bare port: {d_bare * 100:.2f} cm "
              f"(window {NO_TUBE_CROSSING_TOL[0] * 100:.1f}..{NO_TUBE_CROSSING_TOL[1] * 100:.1f})")

        tube_dists = [0.005 * k for k in range(1, 17)]
        tube_curve = [estimate(sched_tube, model, tube,
                               source_at(d, ATTACK_SPL_DB, f_tube), f_tube)
                      for d in tube_dists]
        d_tube = crossing_distance_m(tube_dists, tube_curve)
        ok &= TUBE_CROSSING_TOL[0] <= d_tube <= TUBE_CROSSING_TOL[1]
        print(f"2.5 Pa crossing, 1 m tube: {d_tube * 100:.2f} cm "
              f"(window {TUBE_CROSSING_TOL[0] * 100:.1f}..{TUBE_CROSSING_TOL[1] * 100:.1f})")

        long_tube = replace(tube, length_m=LONG_TUBE_M)
        residual = estimate(sched_tube, model, long_tube,
                            source_at(CLOSE_DISTANCE_M, LOUD_SPL_DB, f_tube), f_tube)
        loud_base = estimate(sched_tube, model, tube,
                             source_at(CLOSE_DISTANCE_M, LOUD_SPL_DB, f_tube), f_tube)
        ok &= residual < RESIDUAL_MARGIN_PA
        print(f"90 dB through 1 m: {loud_base:.3f} Pa; through {LONG_TUBE_M} m: "
              f"{residual:.4f} Pa (floor {RESIDUAL_LIMIT_PA}, margin target "
              f"{RESIDUAL_MARGIN_PA})")

        print("verification:", "PASS" if ok else "FAIL")
        return bool(ok)
    finally:
        acoustics.TUBE_LOSS_DB_PER_M = saved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verify", action="store_true",
                        help="check the constants currently in the source tree")
    args = parser.parse_args()

    if args.verify:
        print(f"shipped constants: DEFAULT_READING_GAIN="
              f"{archetype('A1011-00').reading_gain}  "
              f"TUBE_LOSS_DB_PER_M={acoustics.TUBE_LOSS_DB_PER_M}")
        return 0 if verify(None, None) else 1

    for p15_target in P15_CANDIDATES_PA:
        gain, loss = derive(p15_target)
        if loss <= 0.0:
            print("per-meter loss came out non-positive; trying next target")
            continue
        if verify(gain, loss):
            print(f"\nfreeze these:\n  sensor.DEFAULT_READING_GAIN = {gain}\n"
                  f"  acoustics.TUBE_LOSS_DB_PER_M = {loss}")
            return 0
        print(f"target p15={p15_target} failed verification; trying next\n")
    print("no candidate target satisfied every endpoint")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
