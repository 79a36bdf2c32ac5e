"""Acceptance checks for the toolkit.

One test per criterion.  Each prints a single PASS/FAIL line with the
measured numbers (visible with pytest -s; pytest -v adds its own
per-test verdict), then asserts.
"""

import math
from pathlib import Path

import numpy as np

from nprsim import (
    AcousticSource,
    AlarmConfig,
    AttackPlan,
    ControllerConfig,
    Countermeasure,
    DpsBinding,
    DpsModel,
    NprScenario,
    PortWiring,
    RoomConfig,
    SegmentSchedule,
    Transducer,
    archetype,
    calibration_carrier,
    evaluate_countermeasure,
    forged_pressure_estimate,
    frequency_sweep,
    helmholtz_resonant_hz,
    load_archetypes,
    lpf_cascade,
    natural_resonant_hz,
    psd_ratio,
    segment_mask,
    simulate_scenario,
    synthesize_attack,
    system_resonant_hz,
)
from nprsim.cli import main
from nprsim.sensor import TubeAssembly, peak_decay, step_response, step_response_fn
from nprsim.waveform import AudioBuffer, _burst_spans, attack_response_trace

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CALIBRATION_PART = "A1011-00"
REF_DISTANCE_M = 0.002
BURST_S = 0.002
INTERVAL_S = 0.015


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _room_scenario(setpoint_pa: float, attack: AttackPlan, wiring_kw=None) -> NprScenario:
    kw = dict(wiring_kw or {})
    kw["attack"] = attack
    return NprScenario(
        rooms=(RoomConfig(name="iso1",
                          controller=ControllerConfig(setpoint_pa=setpoint_pa)),),
        wiring=PortWiring(**kw),
        alarm=AlarmConfig(threshold_pa=2.0, dwell_s=5.0),
    )


def _burst_source(spl_db: float, distance_m: float, tone_hz: float) -> AcousticSource:
    return AcousticSource(spl_db=spl_db, ref_distance_m=REF_DISTANCE_M,
                          position_distance_m=distance_m, tone_hz=tone_hz)


def _band(center_hz: float) -> tuple[float, float]:
    return (0.9 * center_hz, 1.1 * center_hz)


def test_criterion_01_port_replay_arithmetic():
    low = simulate_scenario(_room_scenario(
        -2.5, AttackPlan(placement="low_port", forged_pa=8.0, affects="both")))
    high = simulate_scenario(_room_scenario(
        -2.5, AttackPlan(placement="high_port", forged_pa=8.0, affects="both")))

    measured_low = float(low.measured_hvac_pa[0, 0])
    measured_high = float(high.measured_hvac_pa[0, 0])
    true_low = float(low.steady_true_pd_pa()[0])
    true_high = float(high.steady_true_pd_pa()[0])

    ok = (
        abs(measured_low - 5.5) <= 1e-9
        and abs(measured_high - (-10.5)) <= 1e-9
        and abs(true_low - (-10.0)) <= 0.5
        and abs(true_high - 5.5) <= 0.5
    )
    _report(
        "01 port replay arithmetic", ok,
        f"low port: measured {measured_low:.6f} (want 5.5 exact), "
        f"steady true {true_low:.4f} (want -10+/-0.5); "
        f"high port: measured {measured_high:.6f} (want -10.5 exact), "
        f"steady true {true_high:.4f} (want 5.5+/-0.5)",
    )


def test_criterion_02_dual_sensor_alarm_replay():
    binding = DpsBinding(model=archetype(CALIBRATION_PART),
                         tube=TubeAssembly(length_m=1.0))

    def run(affects):
        plan = AttackPlan(placement="high_port", forged_pa=8.0, affects=affects)
        scenario = _room_scenario(-2.5, plan, {"hvac": binding, "rpm": binding})
        trace = simulate_scenario(scenario)
        return trace, trace.raised_alarm_count() > 0

    both_trace, both_fired = run("both")
    hvac_trace, hvac_fired = run("hvac")

    true_both = float(both_trace.steady_true_pd_pa()[0])
    ok = (
        not both_fired
        and both_trace.raised_alarm_count() == 0
        and abs(true_both - 5.5) <= 0.5
        and hvac_fired
        and hvac_trace.raised_alarm_count() >= 1
    )
    _report(
        "02 dual sensor alarm replay", ok,
        f"equal forging: {both_trace.raised_alarm_count()} alarms (want 0), "
        f"steady true {true_both:.4f} (want 5.5+/-0.5); "
        f"control-only forging: {hvac_trace.raised_alarm_count()} alarms (want >=1)",
    )


def test_criterion_03_archetype_characterization(tmp_path):
    out = tmp_path / "characterize.csv"
    rc = main(["characterize", "--archetype", "all", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in
            out.read_text(encoding="utf-8").splitlines()[1:]]

    found = [r for r in rows if r[-1] == "found"]
    missing = [r for r in rows if r[-1] == "not_found"]
    deltas = {r[0]: abs(float(r[6])) for r in found}
    worst = max(deltas.values()) if deltas else math.inf

    ok = len(found) == 6 and len(missing) == 2 and worst <= 20.0
    _report(
        "03 archetype characterization", ok,
        f"{len(found)} located (want 6) with worst center error "
        f"{worst:.1f} Hz (want <=20), {len(missing)} without a peak "
        f"below 40 kHz (want 2: {', '.join(r[0] for r in missing)})",
    )


def test_criterion_04_tube_length_trend():
    lengths = (0.4, 0.8, 1.2, 1.6, 2.0)
    parts = sorted(load_archetypes())
    worst_ratio_err = 0.0
    for part_id in parts:
        model = archetype(part_id).with_damping(0.05)
        detected = []
        analytic = []
        for length in lengths:
            tube = TubeAssembly(length_m=length)
            f_sys = system_resonant_hz(model, tube)
            sweep = frequency_sweep(model, tube, 0.7 * f_sys, 1.3 * f_sys,
                                    f_sys / 150.0)
            detected.append(sweep.center_hz)
            analytic.append(helmholtz_resonant_hz(model, tube))
        assert all(b < a for a, b in zip(detected, detected[1:])), (
            f"{part_id}: detected {detected} not strictly decreasing")
        # doubling the tube length divides the resonance by sqrt(2);
        # quadrupling halves it
        for la, lb, expected in ((0, 1, math.sqrt(2.0)), (1, 3, math.sqrt(2.0)),
                                 (0, 3, 2.0)):
            ratio = analytic[la] / analytic[lb]
            worst_ratio_err = max(worst_ratio_err, abs(ratio - expected))
    ok = worst_ratio_err <= 1e-12
    _report(
        "04 tube length trend", ok,
        f"detected resonance strictly decreasing over L={lengths} for all "
        f"{len(parts)} archetypes; sqrt(2) halving error {worst_ratio_err:.2e} "
        f"(want <=1e-12)",
    )


def test_criterion_05_inter_burst_decay():
    model = archetype(CALIBRATION_PART)
    f = natural_resonant_hz(model)
    omega = 2.0 * math.pi * f
    fs = model.sample_rate_hz
    source = _burst_source(65.0, REF_DISTANCE_M, f)

    worst_rms = 0.0
    min_abs = math.inf
    for ti_ms in (15, 30, 60):
        sched = SegmentSchedule(band_hz=_band(f), duration_s=BURST_S,
                                interval_s=ti_ms / 1e3)
        trace, spans, _ = attack_response_trace(sched, model, None, source,
                                                target_f_hz=f, duration_s=0.5)
        p = trace.p_out_pa
        for (_, stop), (next_start, _) in zip(spans, spans[1:]):
            k = stop
            while k + 1 < next_start and abs(p[k + 1]) > abs(p[k]):
                k += 1                          # walk up to the release peak
            gap = p[k:next_start]
            expected = gap[0] * peak_decay(1.0, 0.0, omega,
                                           np.arange(gap.size) / fs)
            rms = math.sqrt(float(np.mean((gap - expected) ** 2))) / abs(gap[0])
            worst_rms = max(worst_rms, rms)
            min_abs = min(min_abs, float(np.min(np.abs(p[stop:next_start]))))

    ok = worst_rms <= 0.05 and min_abs > 0.0
    _report(
        "05 inter burst decay", ok,
        f"worst decay mismatch {worst_rms:.3%} RMS (want <=5%), "
        f"smallest inter-burst |p| {min_abs:.2e} Pa (want >0)",
    )


def test_criterion_06_interval_control_curve():
    model = archetype(CALIBRATION_PART)
    tube = TubeAssembly(length_m=1.0)
    f = system_resonant_hz(model, tube)
    source = _burst_source(65.0, REF_DISTANCE_M, f)

    intervals_ms = list(range(15, 61, 5))
    forged = []
    for ti_ms in intervals_ms:
        sched = SegmentSchedule(band_hz=_band(f), duration_s=BURST_S,
                                interval_s=ti_ms / 1e3)
        forged.append(forged_pressure_estimate(sched, model, tube, source,
                                               target_f_hz=f))

    monotone = all(b <= a + 1e-9 for a, b in zip(forged, forged[1:]))
    p15, p60 = forged[0], forged[-1]
    ok = monotone and p15 >= 33.0 * 0.85 and p60 <= 12.0 * 1.15
    _report(
        "06 interval control curve", ok,
        f"forged pressure {p15:.2f} Pa at 15 ms (want >=28.05) down to "
        f"{p60:.2f} Pa at 60 ms (want <=13.8), "
        f"monotone non-increasing: {monotone}",
    )


def test_criterion_07_stealth_power_ratio():
    sched = SegmentSchedule(band_hz=(680.0, 690.0), duration_s=BURST_S,
                            interval_s=INTERVAL_S)
    carrier = calibration_carrier()
    attacked = synthesize_attack(carrier, sched)
    mask = segment_mask(sched, sched.target_hz(), attacked.samples.size,
                        attacked.sample_rate_hz)
    ratio = psd_ratio(attacked, sched.band_hz, mask)
    ok = ratio >= 3.0
    _report(
        "07 stealth power ratio", ok,
        f"in-band burst-to-carrier PSD ratio {ratio:.2f} (want >=3.0)",
    )


def _crossing_distance_m(model, tube, distances_m) -> float:
    f = system_resonant_hz(model, tube)
    sched = SegmentSchedule(band_hz=_band(f), duration_s=BURST_S,
                            interval_s=INTERVAL_S)
    forged = [
        forged_pressure_estimate(sched, model, tube,
                                 _burst_source(65.0, d, f), target_f_hz=f)
        for d in distances_m
    ]
    for i in range(len(distances_m) - 1):
        if forged[i] >= 2.5 >= forged[i + 1]:
            x0, x1 = math.log(distances_m[i]), math.log(distances_m[i + 1])
            y0, y1 = math.log(forged[i]), math.log(forged[i + 1])
            return math.exp(x0 + (math.log(2.5) - y0) * (x1 - x0) / (y1 - y0))
    raise AssertionError(f"no 2.5 Pa crossing in {distances_m}")


def test_criterion_08_distance_crossings():
    model = archetype(CALIBRATION_PART)
    bare = _crossing_distance_m(model, None, np.geomspace(0.02, 0.2, 7))
    tubed = _crossing_distance_m(model, TubeAssembly(length_m=1.0),
                                 np.geomspace(0.005, 0.1, 7))
    ok = 0.07 * 0.8 <= bare <= 0.07 * 1.2 and 0.025 * 0.8 <= tubed <= 0.025 * 1.2
    _report(
        "08 distance crossings", ok,
        f"2.5 Pa forged-pressure crossing at {bare * 100:.2f} cm bare port "
        f"(want 7+/-20%) and {tubed * 100:.2f} cm through a 1 m tube "
        f"(want 2.5+/-20%)",
    )


def test_criterion_09_countermeasure_suite():
    model = archetype(CALIBRATION_PART)
    tube = TubeAssembly(length_m=1.0)
    f = system_resonant_hz(model, tube)
    sched = SegmentSchedule(band_hz=_band(f), duration_s=BURST_S,
                            interval_s=INTERVAL_S)

    def scenario(spl_db):
        attack = AttackPlan(placement="high_port", affects="both",
                            source=_burst_source(spl_db, REF_DISTANCE_M, f),
                            schedule=sched)
        return _room_scenario(-2.5, attack,
                              {"hvac": DpsBinding(model=model, tube=tube)})

    loud = evaluate_countermeasure(scenario(90.0), Countermeasure.long_tube(7.5))
    filtered = evaluate_countermeasure(scenario(65.0),
                                       Countermeasure.lpf(120.0, order=3))
    reduction = 1.0 - filtered.residual_forged_pa / filtered.baseline_forged_pa
    dc = float(lpf_cascade(np.ones(50_000), 120.0, 1.0 / 44_100.0, 3)[-1])

    raised = simulate_scenario(_room_scenario(
        -20.0, AttackPlan(placement="high_port", forged_pa=8.0, affects="both")))
    true_raised = float(raised.steady_true_pd_pa()[0])

    ok = (
        loud.residual_forged_pa < 0.1
        and reduction >= 0.9
        and abs(dc - 1.0) <= 1e-3
        and raised.converged
        and true_raised <= -10.0
    )
    _report(
        "09 countermeasure suite", ok,
        f"7.5 m tube leaves {loud.residual_forged_pa:.4f} Pa of a 90 dB attack "
        f"(want <0.1); 120 Hz filter removes {reduction:.1%} (want >=90%) with "
        f"DC gain {dc:.6f} (want 1+/-1e-3); -20 Pa setpoint holds true "
        f"{true_raised:.2f} Pa under an 8 Pa attack (want <=-10)",
    )


def test_criterion_10_numerical_properties(tmp_path):
    model = archetype(CALIBRATION_PART)
    omega = 2.0 * math.pi * natural_resonant_hz(model)

    def closed_form(t):
        return 1.0 - math.exp(-omega * t) * (1.0 + omega * t)

    errors = []
    for dt in (2e-6, 1e-6):
        trace = step_response_fn(model, None, lambda t: 1.0, 0.004, dt)
        exact = np.array([closed_form(float(t)) for t in trace.time_s])
        errors.append(float(np.max(np.abs(trace.p_out_pa - exact))))
    convergence = errors[0] / errors[1]

    damped = model.with_damping(0.05)
    fs = damped.sample_rate_hz
    dc_trace = step_response(damped, None, np.ones(int(0.4 * fs)), 1.0 / fs)
    dc = float(dc_trace.p_out_pa[-1])

    rng = np.random.default_rng(11)
    worst_peak = 0.0
    for k in range(12):
        f_mid = float(rng.uniform(150.0, 3000.0))
        xi = float(rng.uniform(0.03, 0.2))
        rand = DpsModel(
            f"rand{k}", Transducer.CAPACITIVE, (-500.0, 500.0),
            (0.98 * f_mid, 1.02 * f_mid), damping_ratio=xi)
        f_n = natural_resonant_hz(rand)
        f_peak = f_n * math.sqrt(1.0 - 2.0 * xi * xi)
        sweep = frequency_sweep(rand, None, 0.7 * f_n, 1.3 * f_n, f_n / 150.0)
        worst_peak = max(worst_peak, abs(sweep.center_hz - f_peak) / f_n)

    scenario = str(SCENARIO_DIR / "replay_low_port.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", scenario, "--out", str(out_a)]) == 0
    assert main(["simulate", scenario, "--out", str(out_b)]) == 0
    identical = (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    sched = SegmentSchedule(band_hz=(680.0, 690.0), duration_s=BURST_S,
                            interval_s=INTERVAL_S)
    silence = AudioBuffer(sample_rate_hz=44_100, samples=np.zeros(44_100))
    attacked = synthesize_attack(silence, sched)
    spans = _burst_spans(sched, sched.target_hz(), attacked.samples.size,
                         attacked.sample_rate_hz)
    end_at_peak = all(
        abs(attacked.samples[start:stop][-1])
        >= (1.0 - 1e-6) * float(np.max(np.abs(attacked.samples[start:stop])))
        for start, stop in spans
    )

    ok = (
        convergence >= 8.0
        and abs(dc - 1.0) <= 1e-3
        and worst_peak <= 0.02
        and identical
        and end_at_peak
        and len(spans) > 0
    )
    _report(
        "10 numerical properties", ok,
        f"step error shrinks {convergence:.1f}x when dt halves (want >=8, "
        f"4th order is 16); DC gain {dc:.6f} (want 1+/-1e-3); worst peak "
        f"location error {worst_peak:.3%} of f_n over 12 random models "
        f"(want <=2%); repeated runs byte-identical: {identical}; every one "
        f"of {len(spans)} bursts ends at its peak: {end_at_peak}",
    )
