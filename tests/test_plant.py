import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nprsim import (
    AcousticSource,
    AlarmConfig,
    AttackPlan,
    ControllerConfig,
    DpsBinding,
    FanSpec,
    NprScenario,
    PortWiring,
    RoomConfig,
    SegmentSchedule,
    WiringError,
    archetype,
    balanced_fans,
    rpm_alarm,
    simulate_scenario,
)
from nprsim.plant import (
    ADIABATIC_BULK_MODULUS_PA,
    HALLWAY_PA,
    MAX_ROOM_PERIODS,
    SETTLE_HORIZONS,
    SETTLE_TOLERANCE_PA,
    SUBSTEPS_PER_PERIOD,
    AlarmEvent,
    SimulationTrace,
    _array_max,
    _array_min,
    _period_maps,
    _port_offsets,
    _trim,
    horizon_periods,
)
from nprsim.scenario import load_scenario
from nprsim.sensor import TubeAssembly


def _room(name="iso1", setpoint=-2.5, **kw):
    return RoomConfig(name=name, controller=ControllerConfig(setpoint_pa=setpoint, **kw))


def _scenario(rooms=None, attack=None, wiring_kw=None, **kw):
    wiring_kw = dict(wiring_kw or {})
    if attack is not None:
        wiring_kw["attack"] = attack
    return NprScenario(
        rooms=tuple(rooms or [_room()]),
        wiring=PortWiring(**wiring_kw),
        alarm=AlarmConfig(threshold_pa=2.0, dwell_s=5.0),
        **kw,
    )


def _trim_by(cfg, measured_pa, supply_cmd, exhaust_cmd):
    """The plant's control law on cfg's setpoint, gain and deadband: on
    Python floats with max and min, as the float loop runs it."""
    return _trim(cfg.setpoint_pa, cfg.gain, cfg.deadband_pa, measured_pa, supply_cmd, exhaust_cmd)


def test_controller_step_direction_and_magnitude():
    cfg = ControllerConfig(setpoint_pa=-2.5, gain=0.0025, deadband_pa=0.0)
    # reading 2 Pa above setpoint: supply slows by gain * 2
    supply, exhaust = _trim_by(cfg, -0.5, 0.5, 0.5)
    assert 0.5 - supply == pytest.approx(0.0025 * 2.0, abs=1e-15)
    assert exhaust - 0.5 == pytest.approx(0.0025 * 2.0, abs=1e-15)
    # reading below setpoint: the opposite
    supply, exhaust = _trim_by(cfg, -4.5, 0.5, 0.5)
    assert supply - 0.5 == pytest.approx(0.0025 * 2.0, abs=1e-15)


def test_controller_holds_inside_deadband_and_clamps():
    cfg = ControllerConfig(setpoint_pa=-2.5, deadband_pa=0.2)
    assert _trim_by(cfg, -2.45, 0.5, 0.5) == (0.5, 0.5)
    supply, exhaust = _trim_by(cfg, 500.0, 0.001, 0.999)
    assert supply == 0.0
    assert exhaust == 1.0


def _controller_step_by_where(cfg, measured_pa, supply_cmd, exhaust_cmd):
    """The control law as the plant stated it before it trimmed the two
    commands as one block: a where on the deadband, the edge by
    copysign, and one clamp per command.  The reference for the fused law."""
    error = np.subtract(measured_pa, cfg.setpoint_pa)
    outside = np.abs(error) > cfg.deadband_pa
    correction = np.where(outside, cfg.gain * (error - np.copysign(cfg.deadband_pa, error)), 0.0)
    supply = np.minimum(1.0, np.maximum(0.0, supply_cmd - correction))
    exhaust = np.minimum(1.0, np.maximum(0.0, exhaust_cmd + correction))
    return supply, exhaust


# Commands at and past both clamps, and both zeros.
_EDGE_COMMANDS = st.sampled_from([0.0, -0.0, 1.0, 0.5, -0.25, 1.25, 5e-324, 1.0 - 2**-53])


@st.composite
def _controller_cases(draw):
    """A reading, a command pair and the setpoint, gain and deadband, as
    Python floats or as per-room arrays (the plant's call).

    Half the cases are multiples of 1/8, so the error is exact and often
    exactly the deadband, 0 or beyond it; the deadband is often 0."""
    n_rooms = draw(st.integers(0, 4))
    exact = draw(st.booleans())

    def one(strategy):
        return [draw(strategy) for _ in range(max(n_rooms, 1))]

    if exact:
        setpoint = one(st.integers(1, 400).map(lambda m: -m / 8))
        deadband = one(st.integers(0, 16).map(lambda m: m / 8))
        reading = [sp + draw(st.integers(-40, 40)) / 8 for sp in setpoint]
    else:
        setpoint = one(st.floats(-100.0, -5e-324))
        deadband = one(st.just(0.0) | st.floats(0.0, 5.0))
        reading = one(st.floats(-1e4, 1e4))
    gain = one(st.sampled_from([0.0025, 1.0]) | st.floats(1e-9, 10.0))
    commands = [[draw(_EDGE_COMMANDS | st.floats(-0.5, 1.5)) for _ in range(2)]
                for _ in range(max(n_rooms, 1))]
    if n_rooms == 0:
        cfg = ControllerConfig(setpoint_pa=setpoint[0], gain=gain[0], deadband_pa=deadband[0])
        return cfg, reading[0], tuple(commands[0])
    cfg = SimpleNamespace(setpoint_pa=np.array(setpoint), gain=np.array(gain),
                          deadband_pa=np.array(deadband))
    return cfg, np.array(reading), np.array(commands)


@settings(max_examples=500, deadline=None)
@given(_controller_cases())
def test_the_fused_control_law_is_the_where_law_bit_for_bit(case):
    cfg, reading, commands = case
    if isinstance(commands, tuple):
        fused = np.array(_trim_by(cfg, reading, *commands))
    else:
        fused = np.stack(_trim(cfg.setpoint_pa, cfg.gain, cfg.deadband_pa, reading,
                               commands[..., 0], commands[..., 1], _array_max, _array_min),
                         axis=-1)
    commands = np.asarray(commands)
    supply, exhaust = _controller_step_by_where(cfg, reading, commands[..., 0], commands[..., 1])
    where = np.stack([supply, exhaust], axis=-1)
    assert fused.shape == where.shape == commands.shape
    assert fused.tobytes() == where.tobytes()


def test_balanced_fans_hold_the_setpoint():
    trace = simulate_scenario(_scenario(horizon_s=40.0))
    assert trace.converged
    assert float(trace.true_pd_pa[-1, 0]) == pytest.approx(-2.5, abs=1e-9)
    assert float(trace.measured_hvac_pa[-1, 0]) == pytest.approx(-2.5, abs=1e-9)
    supply, exhaust = balanced_fans(_room())
    assert supply + exhaust == pytest.approx(1.0)
    assert supply < exhaust


def test_fan_capacity_and_lag_shape_the_response():
    attack = AttackPlan(placement="low_port", forged_pa=8.0, affects="both")
    base = simulate_scenario(_scenario(attack=attack))
    for fans in (FanSpec(max_flow_m3ps=0.8), FanSpec(time_constant_s=8.0)):
        room = RoomConfig(name="iso1", controller=ControllerConfig(setpoint_pa=-2.5), fans=fans)
        trace = simulate_scenario(_scenario(rooms=[room], attack=attack))
        assert not np.array_equal(trace.true_pd_pa, base.true_pd_pa)


def test_low_port_offset_drives_room_too_negative():
    attack = AttackPlan(placement="low_port", forged_pa=8.0, affects="both")
    trace = simulate_scenario(_scenario(attack=attack))
    assert trace.converged
    assert float(trace.steady_true_pd_pa()[0]) == pytest.approx(-10.30509706, abs=1e-6)
    # measured parks at the deadband edge below setpoint
    assert float(trace.measured_hvac_pa[-1, 0]) == pytest.approx(-2.30509706, abs=1e-6)


def test_high_port_offset_flips_room_positive():
    attack = AttackPlan(placement="high_port", forged_pa=8.0, affects="both")
    trace = simulate_scenario(_scenario(attack=attack))
    assert trace.converged
    assert float(trace.steady_true_pd_pa()[0]) == pytest.approx(5.30509706, abs=1e-6)
    assert float(trace.steady_true_pd_pa()[0]) > 0.0


def _alarm_by_row(times_s, measured_pa, setpoint_pa, cfg, room="room"):
    """The alarm rule as a scalar walk that logs trip events, as the plant
    ran it before it kept a per-row flag.  The reference for rpm_alarm:
    returns the events and the alarm state after each row."""
    deviation = np.abs(np.asarray(measured_pa, dtype=float) - setpoint_pa)
    events, flags = [], []
    active = False
    violation_start = None
    for t, dev in zip(times_s, deviation):
        if active:
            if dev < 0.9 * cfg.threshold_pa:
                events.append(AlarmEvent(float(t), room, "cleared"))
                active = False
                violation_start = None
        elif dev > cfg.threshold_pa:
            if violation_start is None:
                violation_start = float(t)
            if t - violation_start >= cfg.dwell_s:
                events.append(AlarmEvent(float(t), room, "raised"))
                active = True
        else:
            violation_start = None
        flags.append(active)
    return events, np.array(flags, dtype=bool)


def _transitions(times_s, flags, room="room"):
    """(time, room, kind) of each row where flags differ from the row
    before, the run starting with the alarm down."""
    before = np.concatenate([[False], flags[:-1]])
    return [AlarmEvent(float(times_s[k]), room, "raised" if flags[k] else "cleared")
            for k in np.flatnonzero(flags != before)]


def test_rpm_alarm_event_sequence():
    cfg = AlarmConfig(threshold_pa=2.0, dwell_s=5.0)
    times = np.arange(0.0, 30.0, 1.0)

    quiet = np.full(times.size, -2.5)
    assert not rpm_alarm(times, quiet, -2.5, cfg).any()

    step = np.full(times.size, -2.5)
    step[5:15] = -2.5 + 3.0  # 1.5x threshold for twice the dwell
    flags = rpm_alarm(times, step, -2.5, cfg)
    assert [(e.time_s, e.kind) for e in _transitions(times, flags)] == [
        (10.0, "raised"), (15.0, "cleared")]
    assert flags.dtype == bool and np.flatnonzero(flags).tolist() == list(range(10, 15))


def test_rpm_alarm_hysteresis_blocks_chatter():
    cfg = AlarmConfig(threshold_pa=2.0, dwell_s=2.0)
    times = np.arange(0.0, 20.0, 1.0)
    series = np.full(times.size, -2.5)
    series[3:] = -2.5 + 2.1          # stays just above threshold
    series[10] = -2.5 + 1.95         # dips below threshold but above 90% of it
    flags = rpm_alarm(times, series, -2.5, cfg)
    kinds = [e.kind for e in _transitions(times, flags)]
    assert kinds == ["raised"]       # the shallow dip must not clear or retrigger
    assert flags[5:].all() and not flags[:5].any()


def test_simulation_events_are_the_flag_transitions_in_time_then_name_order():
    # Rooms listed out of name order; the control-only attack trips the monitor.
    rooms = [_room("iso2", -2.5), _room("iso1", -2.5)]
    binding = DpsBinding(model=archetype("A1011-00"))
    attack = AttackPlan(placement="common_high_port", forged_pa=8.0, affects="hvac")
    trace = simulate_scenario(_scenario(rooms=rooms, wiring_kw={
        "hvac": binding, "rpm": binding, "common_high_port": True, "attack": attack}))
    assert trace.alarm_active.shape == trace.true_pd_pa.shape
    expected = sorted(
        (event for j, name in enumerate(trace.room_names)
         for event in _transitions(trace.times_s, trace.alarm_active[:, j], name)),
        key=lambda e: (e.time_s, e.room))
    assert trace.alarm_events == expected
    assert [e.room for e in trace.alarm_events[:2]] == ["iso1", "iso2"]


_ALARM_MARGIN_PA = 1e-9


@st.composite
def _alarm_series(draw):
    """A measured series, its times, setpoint and alarm rule, with every
    deviation at least _ALARM_MARGIN_PA from the threshold and from 90%
    of it."""
    cfg = AlarmConfig(threshold_pa=draw(st.floats(0.1, 10.0)), dwell_s=draw(st.floats(0.0, 10.0)))
    period = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    setpoint = draw(st.floats(-50.0, -0.1))
    # Deviations as multiples of the threshold, so the series crosses both edges.
    scales = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=120))
    series = setpoint + np.array(scales) * cfg.threshold_pa
    deviation = np.abs(series - setpoint)
    assume(np.all(np.abs(deviation - cfg.threshold_pa) > _ALARM_MARGIN_PA))
    assume(np.all(np.abs(deviation - 0.9 * cfg.threshold_pa) > _ALARM_MARGIN_PA))
    return np.arange(series.size) * period, series, setpoint, cfg


@settings(max_examples=300, deadline=None)
@given(_alarm_series())
def test_rpm_alarm_flags_change_where_the_event_walk_logs_an_event(case):
    times, series, setpoint, cfg = case
    flags = rpm_alarm(times, series, setpoint, cfg)
    events, oracle_flags = _alarm_by_row(times, series, setpoint, cfg)
    assert _transitions(times, flags) == events
    assert np.array_equal(flags, oracle_flags)


@pytest.mark.parametrize("dwell_s, deviation, raised_rows", [
    (3.0, [0, 0, 0, 0, 0, 0, 3, 3, 3, 3], [9]),
    (0.0, [0, 0, 3, 3, 3, 0, 0, 3], [2, 3, 4, 7]),
    (2.0, [0, 0, 0, 3, 3, 3, 0, 3, 3], [5]),
    (3.0, [0, 3, 3, 3, 2, 3, 3, 3, 3, 3], [8, 9]),
], ids=["raised-on-the-last-row", "dwell-0", "cleared-on-the-row-after-the-raise",
        "run-cut-by-a-row-at-the-threshold"])
def test_rpm_alarm_edge_cases_match_the_event_walk(dwell_s, deviation, raised_rows):
    """Deviations in Pa from a -2.5 Pa setpoint under a 2 Pa threshold, one
    row a second; a row exactly at the threshold is not above it."""
    cfg = AlarmConfig(threshold_pa=2.0, dwell_s=dwell_s)
    times = np.arange(len(deviation)) * 1.0
    series = -2.5 + np.array(deviation, dtype=float)
    flags = rpm_alarm(times, series, -2.5, cfg)
    assert np.flatnonzero(flags).tolist() == raised_rows
    assert np.array_equal(flags, _alarm_by_row(times, series, -2.5, cfg)[1])


def _dual_scenario(affects):
    binding = DpsBinding(model=archetype("A1011-00"), tube=TubeAssembly(length_m=1.0))
    attack = AttackPlan(placement="high_port", forged_pa=8.0, affects=affects)
    return _scenario(wiring_kw={"hvac": binding, "rpm": binding, "attack": attack})


def test_dual_sensor_equal_forging_moves_room_silently():
    trace = simulate_scenario(_dual_scenario("both"))
    assert trace.raised_alarm_count() == 0
    assert float(trace.steady_true_pd_pa()[0]) == pytest.approx(5.30509706, abs=1e-6)


def test_dual_sensor_control_only_forging_trips_the_monitor():
    trace = simulate_scenario(_dual_scenario("hvac"))
    assert trace.raised_alarm_count() >= 1


def test_dual_sensor_monitor_only_forging_leaves_room_safe():
    trace = simulate_scenario(_dual_scenario("rpm"))
    assert trace.raised_alarm_count() > 0
    assert float(trace.steady_true_pd_pa()[0]) == pytest.approx(-2.5, abs=1e-6)


def test_common_high_port_shifts_every_room():
    rooms = [_room("iso1", -2.5), _room("iso2", -8.0), _room("iso3", -15.0)]
    attack = AttackPlan(placement="common_high_port", forged_pa=8.0, affects="both")
    scenario = _scenario(rooms=rooms, attack=attack,
                         wiring_kw={"common_high_port": True})
    trace = simulate_scenario(scenario)
    assert trace.converged
    steady = trace.steady_true_pd_pa()
    baseline = np.array([-2.5, -8.0, -15.0])
    shifts = steady - baseline
    assert np.all(np.abs(shifts - 8.0) <= 0.8)   # all shifts within 10% of the offset
    assert steady[0] > 0.0                        # shallow room flips positive
    assert steady[1] < 0.0                        # deeper rooms keep margin
    assert steady[2] < 0.0


def test_common_port_attack_requires_common_wiring():
    attack = AttackPlan(placement="common_high_port", forged_pa=8.0, affects="both")
    with pytest.raises(WiringError):
        _scenario(rooms=[_room("a"), _room("b", -8.0)], attack=attack)


def _burst_attack():
    """The acoustic_lpf scenario's source and schedule."""
    schedule = SegmentSchedule(band_hz=(540.0, 670.0), duration_s=0.002, interval_s=0.015)
    source = AcousticSource(spl_db=65.0, ref_distance_m=0.002, position_distance_m=0.002,
                            tone_hz=schedule.target_hz())
    return {"source": source, "schedule": schedule}


@pytest.mark.parametrize("placement, forged_pa, given, message", [
    ("high_port", 0.0, ("source",), "needs both a source and a schedule"),
    ("high_port", 0.0, ("schedule",), "needs both a source and a schedule"),
    ("none", 0.0, ("source", "schedule"),
     r"^placement must be one of \('low_port', 'high_port', 'common_high_port'\)$"),
    ("high_port", 8.0, ("source", "schedule"),
     "^give either forged_pa or an acoustic source, not both$"),
], ids=["source-alone", "schedule-alone", "no-port", "forged-and-source"])
def test_an_acoustic_plan_the_plant_cannot_run_is_refused(placement, forged_pa, given, message):
    parts = _burst_attack()
    with pytest.raises(ValueError, match=message):
        AttackPlan(placement=placement, forged_pa=forged_pa, **{key: parts[key] for key in given})


def test_an_acoustic_plan_needs_an_hvac_sensor_to_aim_at():
    attack = AttackPlan(placement="high_port", **_burst_attack())
    assert attack.forged_pa == 0.0
    with pytest.raises(WiringError, match="^an acoustic attack needs an hvac sensor to aim at$"):
        _scenario(attack=attack)
    binding = DpsBinding(model=archetype("A1011-00"), tube=TubeAssembly(length_m=1.0))
    assert _scenario(attack=attack, wiring_kw={"hvac": binding}).wiring.attack == attack


def test_period_averages_cancel_raw_resonance_but_not_bursts():
    from nprsim import (AcousticSource, SegmentSchedule, attack_response_trace,
                        natural_resonant_hz, propagate, spl_to_pressure_amp)

    model = archetype("A1011-00")
    f = natural_resonant_hz(model)
    src = AcousticSource(spl_db=65.0, ref_distance_m=0.002,
                         position_distance_m=0.002, tone_hz=f)
    fs = model.sample_rate_hz

    def period_averages(series):
        """Signed mean of each whole 1 s control period, in reading units."""
        return model.reading_gain * series[: series.size // fs * fs].reshape(-1, fs).mean(axis=1)

    # continuous tone: symmetric oscillation, periods average to ~nothing
    t = np.arange(int(fs * 1.0)) / fs
    from nprsim.sensor import step_response
    inlet = propagate(src, TubeAssembly(length_m=0.0)) * spl_to_pressure_amp(65.0) * np.cos(
        2.0 * math.pi * f * t)
    tone_trace = step_response(model, None, inlet, 1.0 / fs)
    tone_offsets = period_averages(tone_trace.p_out_pa)

    sched = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=0.002, interval_s=0.015)
    burst_trace, _, _ = attack_response_trace(sched, model, None, src,
                                              target_f_hz=f, duration_s=1.0)
    burst_offsets = period_averages(np.abs(burst_trace.p_out_pa))

    assert max(abs(x) for x in tone_offsets) < 0.1 * max(burst_offsets)
    assert all(x > 0.0 for x in burst_offsets)


def test_non_convergence_is_reported():
    attack = AttackPlan(placement="low_port", forged_pa=8.0, affects="both")
    trace = simulate_scenario(_scenario(attack=attack, horizon_s=12.0))
    assert not trace.converged


def test_a_slow_room_that_moves_on_after_its_horizon_has_not_converged():
    """A trim this slow barely moves the room by the end of the horizon,
    but its room has not come to rest and goes on to move 1.45 Pa."""
    room = RoomConfig(name="r0", controller=ControllerConfig(setpoint_pa=-8.18, gain=1.7e-5),
                      volume_m3=818.0, leak_coeff_m3ps_per_pa=0.021)
    scenario = NprScenario(rooms=(room,), horizon_s=300.0, wiring=PortWiring(
        attack=AttackPlan(placement="high_port", forged_pa=2.0)))
    trace = simulate_scenario(scenario)
    assert not trace.converged
    assert trace.true_pd_pa[-1, 0] == pytest.approx(-7.863, abs=1e-3)
    later = simulate_scenario(replace(scenario, horizon_s=6000.0))
    assert later.converged
    assert later.true_pd_pa[-1, 0] == pytest.approx(-6.417, abs=1e-3)


@st.composite
def _sampled_rooms(draw):
    """One room with default fans as the convergence rule was measured on:
    gains log-uniform over 1e-5 to 3e-2, slow ones included, any of four
    deadbands and forged offsets on any port, and a horizon of 60, 120 or
    300 s.  Rooms the fans cannot hold are redrawn."""
    room = RoomConfig(
        name="r0",
        controller=ControllerConfig(setpoint_pa=draw(st.floats(-15.0, -1.0)),
                                    gain=10.0 ** draw(st.floats(-5.0, math.log10(3e-2))),
                                    deadband_pa=draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))),
        volume_m3=draw(st.floats(3.0, 1000.0)),
        leak_coeff_m3ps_per_pa=10.0 ** draw(st.floats(math.log10(3e-4), math.log10(3e-2))),
    )
    try:
        balanced_fans(room)
    except WiringError:
        assume(False)
    attack = AttackPlan(placement=draw(st.sampled_from(["none", "low_port", "high_port"])))
    if attack.placement != "none":
        attack = replace(attack, forged_pa=draw(st.sampled_from([0.0, 2.0, 8.0, 20.0])))
    return NprScenario(rooms=(room,), wiring=PortWiring(attack=attack),
                       horizon_s=draw(st.sampled_from([60.0, 120.0, 300.0])))


@settings(max_examples=200, deadline=None)
@given(_sampled_rooms())
def test_a_converged_room_stays_within_the_band_of_its_steady_differential(scenario):
    """converged promises that the summary's steady differential is where
    the room stays: at SETTLE_HORIZONS times the horizon it is within
    SETTLE_TOLERANCE_PA of it."""
    trace = simulate_scenario(scenario)
    assume(trace.converged)
    later = simulate_scenario(replace(scenario, horizon_s=SETTLE_HORIZONS * scenario.horizon_s))
    assert abs(later.true_pd_pa[-1, 0] - trace.steady_true_pd_pa()[0]) <= SETTLE_TOLERANCE_PA


def test_scenario_validation_rules():
    with pytest.raises(ValueError):
        ControllerConfig(setpoint_pa=1.0)           # must be negative
    with pytest.raises(ValueError):
        AttackPlan(placement="low_port", forged_pa=-1.0, affects="both")
    with pytest.raises(ValueError):
        AttackPlan(placement="elsewhere", forged_pa=1.0, affects="both")
    with pytest.raises(ValueError):
        _scenario(rooms=[_room("same"), _room("same", -8.0)],
                  wiring_kw={"common_high_port": True})


def test_a_setpoint_shift_that_is_not_a_number_is_refused():
    # leak x setpoint overflows to -inf and 2 x capacity to inf: the shift
    # is NaN, which no range comparison rejects.
    room = RoomConfig(name="iso1", controller=ControllerConfig(setpoint_pa=-1.0e308),
                      leak_coeff_m3ps_per_pa=1.0e300, fans=FanSpec(max_flow_m3ps=1.0e308))
    with pytest.raises(WiringError, match="exceeds what its fans can hold"):
        balanced_fans(room)


@pytest.mark.parametrize("kw, message", [
    ({"leak_coeff_m3ps_per_pa": 1.0e308}, "pressure time constant"),
    ({"volume_m3": 5e-324}, "pressure time constant"),
    ({"volume_m3": 1.0e308, "leak_coeff_m3ps_per_pa": 1.0e-300}, "pressure time constant"),
    ({"leak_coeff_m3ps_per_pa": 1.0e-310, "fans": FanSpec(max_flow_m3ps=1.0e308)},
     "fan capacity over leak coefficient"),
], ids=["leak-overflows", "volume-underflows", "time-constant-overflows", "inf-times-zero"])
def test_a_room_whose_period_map_is_not_finite_is_refused(kw, message):
    # Each of these once built a room whose period map divided by zero or
    # held inf x 0.
    with pytest.raises(ValueError, match=message):
        RoomConfig(name="iso1", **kw)


_ROOMS = (RoomConfig(name="iso1"),)


@pytest.mark.parametrize("build", [
    pytest.param(lambda x: AttackPlan(placement="low_port", forged_pa=x), id="AttackPlan"),
    pytest.param(lambda x: ControllerConfig(gain=x), id="ControllerConfig"),
    pytest.param(lambda x: AlarmConfig(dwell_s=x), id="AlarmConfig"),
    pytest.param(lambda x: RoomConfig(initial_pressure_pa=x), id="RoomConfig"),
    pytest.param(lambda x: FanSpec(time_constant_s=x), id="FanSpec"),
    pytest.param(lambda x: NprScenario(rooms=_ROOMS, hallway_pa=x), id="NprScenario"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_plant_configs_reject_non_finite_values(build, value):
    with pytest.raises(ValueError, match="must be finite"):
        build(value)


def test_simulation_rejects_a_horizon_past_the_room_period_ceiling():
    scenario = _scenario(rooms=[_room(control_period_s=1e-10)])
    for horizon in (1.0e308, 1.0e6):
        with pytest.raises(ValueError, match="at most 10000000 control periods"):
            simulate_scenario(replace(scenario, horizon_s=horizon))
    with pytest.raises(ValueError, match="at least 10 control periods"):
        simulate_scenario(replace(_scenario(), horizon_s=5.0))


@st.composite
def _balanced_rooms(draw):
    """A valid room whose setpoint balanced_fans accepts, with a deadband > 0."""
    capacity = draw(st.floats(0.01, 5.0))
    leak = draw(st.floats(1e-4, 0.1))
    # The setpoint as a fraction of the deepest one the fans can hold.
    reach = draw(st.floats(1e-6, 1.0))
    controller = ControllerConfig(
        setpoint_pa=-reach * capacity / leak,
        gain=draw(st.floats(1e-4, 1.0)),
        control_period_s=draw(st.floats(0.25, 2.0)),
        deadband_pa=draw(st.floats(1e-6, 5.0)),
    )
    room = RoomConfig(
        controller=controller,
        volume_m3=draw(st.floats(1.0, 1000.0)),
        leak_coeff_m3ps_per_pa=leak,
        fans=FanSpec(max_flow_m3ps=capacity, time_constant_s=draw(st.floats(0.1, 10.0))),
    )
    try:
        balanced_fans(room)
    except WiringError:
        assume(False)
    return room


@settings(max_examples=60, deadline=None)
@given(_balanced_rooms(), st.floats(-1e4, 1e4))
@example(RoomConfig(controller=ControllerConfig(setpoint_pa=-20000.0, gain=1.0,
                                                control_period_s=0.25, deadband_pa=1.0),
                    volume_m3=447.1875, leak_coeff_m3ps_per_pa=0.0001,
                    fans=FanSpec(max_flow_m3ps=2.0, time_constant_s=1.0)),
         0.0)
def test_zero_attack_run_holds_its_setpoint(room, hallway_pa):
    """With no attack, the balanced fans hold the setpoint for the whole run.

    The deadband is kept above zero.  With deadband_pa=0 the controller
    acts on the rounding noise of the balance point (about 1e-12 Pa here),
    and a high-gain loop grows that into an oscillation: the run reports
    converged=False and simulate exits 3.  That is an honest report of an
    unstable loop, not a silent wrong answer, so it is not a violation of
    this property.
    """
    trace = simulate_scenario(NprScenario(rooms=(room,), hallway_pa=hallway_pa, horizon_s=30.0))
    assert np.max(np.abs(trace.true_pd_pa - room.controller.setpoint_pa)) <= 1e-9
    assert trace.raised_alarm_count() == 0
    assert trace.converged


def _simulate_by_substep(scenario: NprScenario) -> SimulationTrace:
    """The closed loop as it ran before the per-period map: absolute room
    pressures, a scalar controller call per room, and SUBSTEPS_PER_PERIOD
    frozen-flow substeps per period.  The reference for the map's rows; it
    decides no convergence, and its converged is False."""
    period = scenario.control_period_s
    rooms = scenario.rooms
    n_rooms = len(rooms)
    n_periods = horizon_periods(scenario.horizon_s, period, n_rooms)
    attack = scenario.wiring.attack
    hall = scenario.hallway_pa

    def control(cfg, measured, supply_cmd, exhaust_cmd):
        error = measured - cfg.setpoint_pa
        if abs(error) <= cfg.deadband_pa:
            return supply_cmd, exhaust_cmd
        correction = cfg.gain * (error - math.copysign(cfg.deadband_pa, error))
        return (min(1.0, max(0.0, supply_cmd - correction)),
                min(1.0, max(0.0, exhaust_cmd + correction)))

    pressure, sup_speed, exh_speed, sup_cmd, exh_cmd = (np.empty(n_rooms) for _ in range(5))
    flow_cap, leak, decay_room, decay_fan = (np.empty(n_rooms) for _ in range(4))
    dt_sub = period / SUBSTEPS_PER_PERIOD
    for i, room in enumerate(rooms):
        sup_speed[i], exh_speed[i] = balanced_fans(room)
        sup_cmd[i], exh_cmd[i] = sup_speed[i], exh_speed[i]
        flow_cap[i] = room.fans.max_flow_m3ps
        leak[i] = room.leak_coeff_m3ps_per_pa
        tau_room = room.volume_m3 / (ADIABATIC_BULK_MODULUS_PA * leak[i])
        decay_room[i] = math.exp(-dt_sub / tau_room)
        decay_fan[i] = math.exp(-dt_sub / room.fans.time_constant_s)
        if room.initial_pressure_pa is None:
            pressure[i] = hall + room.controller.setpoint_pa
        else:
            pressure[i] = room.initial_pressure_pa

    n_rows = n_periods + 1
    times = np.arange(n_rows) * period
    true_pd, meas_hvac, meas_rpm, sup_trace, exh_trace = (
        np.empty((n_rows, n_rooms)) for _ in range(5))
    hvac_low, hvac_high = _port_offsets(attack, "hvac")
    if scenario.wiring.separate_rpm:
        rpm_low, rpm_high = _port_offsets(attack, "rpm")
    else:
        rpm_low, rpm_high = hvac_low, hvac_high
    for k in range(n_rows):
        true_pd[k] = pressure - hall
        meas_hvac[k] = true_pd[k] + hvac_low - hvac_high
        meas_rpm[k] = true_pd[k] + rpm_low - rpm_high
        sup_trace[k] = sup_speed
        exh_trace[k] = exh_speed
        if k == n_periods:
            break
        for i, room in enumerate(rooms):
            sup_cmd[i], exh_cmd[i] = control(
                room.controller, float(meas_hvac[k, i]), float(sup_cmd[i]), float(exh_cmd[i]))
        for _ in range(SUBSTEPS_PER_PERIOD):
            balance = hall + (sup_speed - exh_speed) * flow_cap / leak
            pressure = balance + (pressure - balance) * decay_room
            sup_speed = sup_cmd + (sup_speed - sup_cmd) * decay_fan
            exh_speed = exh_cmd + (exh_speed - exh_cmd) * decay_fan

    events = []
    alarm_active = np.empty((n_rows, n_rooms), dtype=bool)
    for i, room in enumerate(rooms):
        room_events, alarm_active[:, i] = _alarm_by_row(
            times, meas_rpm[:, i], room.controller.setpoint_pa, scenario.alarm, room.name)
        events.extend(room_events)
    events.sort(key=lambda e: (e.time_s, e.room))
    return SimulationTrace(
        times_s=times, true_pd_pa=true_pd, measured_hvac_pa=meas_hvac,
        measured_rpm_pa=meas_rpm, supply_speed=sup_trace, exhaust_speed=exh_trace,
        alarm_active=alarm_active, alarm_events=events, converged=False,
        room_names=tuple(r.name for r in rooms), hallway_pa=hall,
    )


@st.composite
def _loop_scenarios(draw, max_rooms=5):
    """A valid scenario of 1 to max_rooms rooms with a stable loop and any
    attack wiring.

    Each room's gain is drawn as a loop gain, gain times twice its fans'
    capacity over its leak coefficient: the pressure step one unit of
    error buys per period.  Past about 1 the loop hunts.
    """
    n_rooms = draw(st.integers(1, max_rooms))
    period = draw(st.sampled_from([0.5, 1.0, 2.0]))
    rooms = []
    for i in range(n_rooms):
        capacity = draw(st.floats(0.1, 2.0))
        leak = draw(st.floats(1e-3, 1e-2))
        controller = ControllerConfig(
            setpoint_pa=-draw(st.floats(0.01, 0.45)) * 2.0 * capacity / leak,
            gain=draw(st.floats(0.05, 0.6)) * leak / (2.0 * capacity),
            control_period_s=period,
            deadband_pa=draw(st.floats(0.0, 1.0)),
        )
        initial = draw(st.none() | st.floats(-60.0, 60.0))
        rooms.append(RoomConfig(
            name=f"room{i}",
            controller=controller,
            volume_m3=draw(st.floats(5.0, 500.0)),
            leak_coeff_m3ps_per_pa=leak,
            fans=FanSpec(max_flow_m3ps=capacity, time_constant_s=draw(st.floats(0.2, 8.0))),
            initial_pressure_pa=initial,
        ))
    placements = ["none", "low_port", "high_port"]
    if n_rooms >= 2:
        placements.append("common_high_port")
    placement = draw(st.sampled_from(placements))
    separate_rpm = draw(st.booleans())
    affects = draw(st.sampled_from(["both", "hvac", "rpm"] if separate_rpm else ["both"]))
    binding = DpsBinding(model=archetype("A1011-00"))
    wiring = PortWiring(
        hvac=binding,
        rpm=binding if separate_rpm else None,
        common_high_port=placement == "common_high_port" or (n_rooms >= 2 and draw(st.booleans())),
        attack=AttackPlan(placement=placement, forged_pa=draw(st.floats(0.0, 40.0)),
                          affects=affects),
    )
    return NprScenario(
        rooms=tuple(rooms),
        wiring=wiring,
        alarm=AlarmConfig(threshold_pa=draw(st.floats(0.5, 5.0)), dwell_s=draw(st.floats(0.0, 10.0))),
        hallway_pa=draw(st.floats(-500.0, 500.0)),
        horizon_s=draw(st.sampled_from([20.0, 60.0, 120.0])),
    )


@settings(max_examples=80, deadline=None)
@given(_loop_scenarios())
def test_per_period_map_matches_the_substep_loop(scenario):
    """simulate_scenario's per-period map against the substep loop it replaced.

    The two sum in another order, so they agree to rounding, not bit for
    bit.  The alarm rule compares each deviation with the threshold and
    with 90% of it, so the event lists are compared only when no deviation
    lies within the traces' tolerance of either.
    """
    _assert_close_trace(simulate_scenario(scenario), _simulate_by_substep(scenario), scenario)


def _assert_close_trace(fast: SimulationTrace, slow: SimulationTrace,
                        scenario: NprScenario) -> None:
    """fast agrees with slow within 1e-9 Pa and 1e-12 of fan speed, and in
    every alarm flag that rounding cannot flip.

    converged is not compared.  fast comes to rest where a period leaves
    its values unchanged bit for bit, and a loop that agrees with it only
    to rounding need not rest on the same period, or at all."""
    assert np.array_equal(fast.times_s, slow.times_s)
    for name in ("true_pd_pa", "measured_hvac_pa", "measured_rpm_pa"):
        assert np.max(np.abs(getattr(fast, name) - getattr(slow, name))) <= 1e-9, name
    for name in ("supply_speed", "exhaust_speed"):
        assert np.max(np.abs(getattr(fast, name) - getattr(slow, name))) <= 1e-12, name
    assert fast.room_names == slow.room_names
    setpoints = np.array([room.controller.setpoint_pa for room in scenario.rooms])
    deviation = np.abs(slow.measured_rpm_pa - setpoints)
    threshold = scenario.alarm.threshold_pa
    if np.all(np.abs(deviation - threshold) > 1e-9) and np.all(
            np.abs(deviation - 0.9 * threshold) > 1e-9):
        assert fast.alarm_events == slow.alarm_events
        assert np.array_equal(fast.alarm_active, slow.alarm_active)


@st.composite
def _attacked_rooms(draw):
    """1-3 rooms with default fans and gain, each with its own setpoint,
    deadband and volume, under any attack that reaches the control sensor."""
    n_rooms = draw(st.integers(1, 3))
    rooms = tuple(
        RoomConfig(
            name=f"room{i}",
            controller=ControllerConfig(setpoint_pa=draw(st.floats(-40.0, -0.5)),
                                        deadband_pa=draw(st.floats(0.0, 1.0))),
            volume_m3=draw(st.floats(5.0, 500.0)),
        )
        for i in range(n_rooms)
    )
    placements = ["low_port", "high_port"] + (["common_high_port"] if n_rooms >= 2 else [])
    placement = draw(st.sampled_from(placements))
    attack = AttackPlan(placement=placement, forged_pa=draw(st.floats(0.0, 80.0)),
                        affects=draw(st.sampled_from(["both", "hvac"])))
    binding = DpsBinding(model=archetype("A1011-00"))
    wiring = PortWiring(hvac=binding, rpm=binding, common_high_port=n_rooms >= 2, attack=attack)
    return NprScenario(rooms=rooms, wiring=wiring, horizon_s=300.0)


@settings(max_examples=100, deadline=None)
@given(_attacked_rooms())
def test_unsaturated_loop_parks_its_true_differential_at_the_offset_setpoint(scenario):
    """Without a saturated fan the controller parks the control reading at
    the deadband edge, so the true differential sits within the deadband
    of the setpoint minus the forged low-minus-high port offset.

    The reading approaches the edge geometrically, by a factor of about
    0.87 per period with the default fans and gain.  A run that comes to
    rest only past its horizon is converged if it moved less than
    SETTLE_TOLERANCE_PA since the last row, so that row can be short of the
    edge: after the default 120 s a 40 Pa step still is by about 1e-6 Pa,
    and 300 s leaves it at rounding.
    """
    trace = simulate_scenario(scenario)
    final_speeds = np.concatenate([trace.supply_speed[-1], trace.exhaust_speed[-1]])
    assume(trace.converged and np.all((final_speeds > 1e-6) & (final_speeds < 1.0 - 1e-6)))
    plan = scenario.wiring.attack
    low = plan.forged_pa if plan.placement == "low_port" else 0.0
    high = 0.0 if plan.placement == "low_port" else plan.forged_pa
    for j, room in enumerate(scenario.rooms):
        cfg = room.controller
        target = cfg.setpoint_pa - (low - high)
        assert abs(trace.true_pd_pa[-1, j] - target) <= cfg.deadband_pa + 1e-6


def _period_map_by_room(room: RoomConfig, period_s: float) -> np.ndarray:
    """One room's 3x5 period map as the plant built it before it took one
    matrix power of every room's stack: the reference for _period_maps."""
    dt_sub = period_s / SUBSTEPS_PER_PERIOD
    decay_room = math.exp(-dt_sub / room.pressure_time_constant_s)
    decay_fan = math.exp(-dt_sub / room.fans.time_constant_s)
    drive = room.fans.max_flow_m3ps / room.leak_coeff_m3ps_per_pa * (1.0 - decay_room)
    step = np.array([
        [decay_room, drive, -drive, 0.0, 0.0],
        [0.0, decay_fan, 0.0, 1.0 - decay_fan, 0.0],
        [0.0, 0.0, decay_fan, 0.0, 1.0 - decay_fan],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    return np.linalg.matrix_power(step, SUBSTEPS_PER_PERIOD)[:3]


@settings(max_examples=100, deadline=None)
@given(_loop_scenarios())
def test_the_stacked_period_maps_are_the_per_room_maps_bit_for_bit(scenario):
    maps = _period_maps(scenario.rooms, scenario.control_period_s)
    by_room = np.stack([_period_map_by_room(room, scenario.control_period_s)
                        for room in scenario.rooms])
    assert maps.tobytes() == by_room.tobytes()


def _simulate_every_period(scenario: NprScenario, absolute: bool = False) -> SimulationTrace:
    """simulate_scenario without its stop at a fixed point: the period
    product as one einsum on the same deviations from the balance point,
    once for every period of SETTLE_HORIZONS horizons (at most
    MAX_ROOM_PERIODS across the rooms, at least one past the horizon), with
    the control law, the period maps and the reading as the plant computed
    them before it fused them (a where on the deadband and one clamp per
    command, one matrix power per room, the offsets added one at a time).
    The exact reference for the early stop, for the plant's explicit order
    of the period sum and for those forms.

    A room has converged if a period of those leaves its five values as it
    found them, bit for bit, and no row from the horizon's last up to that
    period is more than SETTLE_TOLERANCE_PA from the last.

    With absolute, the origin of the deviations is zero instead, so the
    loop steps absolute values as the plant did before it stepped
    deviations; that agrees with the plant only to rounding, so it steps
    the horizon alone and decides no convergence (converged False).
    """
    period = scenario.control_period_s
    rooms = scenario.rooms
    n_rooms = len(rooms)
    n_periods = horizon_periods(scenario.horizon_s, period, n_rooms)
    attack = scenario.wiring.attack
    hall = scenario.hallway_pa

    start = np.empty((n_rooms, 5))
    for i, room in enumerate(rooms):
        start[i, 1:3] = balanced_fans(room)
        if room.initial_pressure_pa is None:
            start[i, 0] = room.controller.setpoint_pa
        else:
            start[i, 0] = room.initial_pressure_pa - hall
    start[:, 3:] = start[:, 1:3]
    balance = start.copy()
    balance[:, 0] = [room.controller.setpoint_pa for room in rooms]
    if absolute:
        balance[:] = 0.0
    deviation = start - balance
    period_maps = np.stack([_period_map_by_room(room, period) for room in rooms])
    gains = SimpleNamespace(**{
        name: np.array([getattr(room.controller, name) for room in rooms])
        for name in ("setpoint_pa", "gain", "deadband_pa")
    })

    n_rows = n_periods + 1
    n_steps = max(min(SETTLE_HORIZONS * n_periods, MAX_ROOM_PERIODS // n_rooms), n_rows)
    if absolute:
        n_steps = n_periods
    times = np.arange(n_rows) * period
    hvac_low, hvac_high = _port_offsets(attack, "hvac")
    if scenario.wiring.separate_rpm:
        rpm_low, rpm_high = _port_offsets(attack, "rpm")
    else:
        rpm_low, rpm_high = hvac_low, hvac_high
    # The deviation before each period and after the last.
    history = np.empty((n_steps + 1, n_rooms, 5))
    history[0] = deviation
    for k in range(n_steps):
        state = balance + history[k]
        commands = _controller_step_by_where(
            gains, state[:, 0] + hvac_low - hvac_high, state[:, 3], state[:, 4])
        deviation = history[k + 1]
        deviation[:, :3] = history[k, :, :3]
        deviation[:, 3:] = np.transpose(commands) - balance[:, 3:]
        deviation[:, :3] = np.einsum("rij,rj->ri", period_maps, deviation)
    states = balance + history
    rows = states[:n_rows, :, :3].transpose(2, 0, 1)
    meas_hvac = states[:n_rows, :, 0] + hvac_low - hvac_high
    # A room rests on the first period that leaves its values as it found
    # them (n_steps for none), and has converged if no row from the last
    # one of the horizon to that period is out of the band around it.
    bits = history.view(np.uint64)
    still = np.all(bits[1:] == bits[:-1], axis=2)
    rest = np.where(still.any(axis=0), still.argmax(axis=0), n_steps)
    path = states[:, :, 0]
    converged = not absolute and all(
        r < n_steps and np.all(np.abs(path[n_periods:r + 1, i] - path[n_periods, i])
                               <= SETTLE_TOLERANCE_PA)
        for i, r in enumerate(rest.tolist()))
    true_pd, sup_trace, exh_trace = rows
    meas_rpm = true_pd + rpm_low - rpm_high

    alarm_active = np.column_stack([
        rpm_alarm(times, meas_rpm[:, i], room.controller.setpoint_pa, scenario.alarm)
        for i, room in enumerate(rooms)
    ])
    events = sorted(
        (event for i, room in enumerate(rooms)
         for event in _transitions(times, alarm_active[:, i], room.name)),
        key=lambda e: (e.time_s, e.room),
    )
    return SimulationTrace(
        times_s=times, true_pd_pa=true_pd, measured_hvac_pa=meas_hvac,
        measured_rpm_pa=meas_rpm, supply_speed=sup_trace, exhaust_speed=exh_trace,
        alarm_active=alarm_active, alarm_events=events, converged=converged,
        room_names=tuple(r.name for r in rooms), hallway_pa=hall,
    )


_TRACE_ARRAYS = ("times_s", "true_pd_pa", "measured_hvac_pa", "measured_rpm_pa",
                 "supply_speed", "exhaust_speed", "alarm_active")


def _assert_same_trace(fast: SimulationTrace, slow: SimulationTrace) -> None:
    for name in _TRACE_ARRAYS:
        fast_array, slow_array = getattr(fast, name), getattr(slow, name)
        assert fast_array.shape == slow_array.shape, name
        assert fast_array.dtype == slow_array.dtype, name
        assert fast_array.tobytes() == slow_array.tobytes(), name
    assert fast.alarm_events == slow.alarm_events
    assert fast.converged == slow.converged
    assert fast.room_names == slow.room_names


_LOOPS = ("float", "array")


def _simulate_by_loop(scenario: NprScenario, loop: str) -> SimulationTrace:
    """simulate_scenario forced through its float loop or its array loop
    by FLOAT_LOOP_MAX_ROOMS."""
    n_rooms = len(scenario.rooms)
    most_rooms = n_rooms if loop == "float" else n_rooms - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nprsim.plant.FLOAT_LOOP_MAX_ROOMS", most_rooms)
        return simulate_scenario(scenario)


def _counted_run(scenario: NprScenario, loop: str) -> tuple[SimulationTrace, int]:
    """A one-room scenario's trace through one loop, and the periods that
    loop stepped: calls of the control law, which each loop makes once a
    period for every room it steps at a time (one here)."""
    assert len(scenario.rooms) == 1
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _trim(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nprsim.plant._trim", counted)
        trace = _simulate_by_loop(scenario, loop)
    return trace, calls[0]


@st.composite
def _fixed_point_scenarios(draw):
    """_loop_scenarios of 1-8 rooms, so that both of simulate_scenario's
    loops run, with the gain of every room scaled by 1 or by 1e-9, and an
    alarm dwell of up to 100 s.

    At full gain most loops reach a fixed point inside the horizon; at
    1e-9 none does.  A dwell past the fixed point raises the alarm on a
    row the loop no longer steps.
    """
    scenario = draw(_loop_scenarios(max_rooms=8))
    scale = draw(st.sampled_from([1.0, 1e-9]))
    rooms = tuple(
        replace(room, controller=replace(room.controller, gain=room.controller.gain * scale))
        for room in scenario.rooms
    )
    alarm = replace(scenario.alarm, dwell_s=draw(st.floats(0.0, 100.0)))
    return replace(scenario, rooms=rooms, alarm=alarm)


@settings(max_examples=150, deadline=None)
@given(_fixed_point_scenarios())
def test_stopping_at_the_fixed_point_gives_the_every_period_trace(scenario):
    _assert_same_trace(simulate_scenario(scenario), _simulate_every_period(scenario))


@settings(max_examples=100, deadline=None)
@given(_fixed_point_scenarios())
def test_deviations_from_the_balance_point_match_the_absolute_loop(scenario):
    """Stepping deviations changes the trace only by rounding: it agrees
    with the every-period loop on absolute values as closely as the
    per-period map agrees with the substep loop."""
    _assert_close_trace(simulate_scenario(scenario),
                        _simulate_every_period(scenario, absolute=True), scenario)


def _limit_room(name: str) -> RoomConfig:
    """A room whose setpoint is the deepest its fans hold: balanced_fans
    gives supply 0.0 and exhaust 1.0 exactly."""
    room = RoomConfig(name=name, controller=ControllerConfig(setpoint_pa=-128.0),
                      leak_coeff_m3ps_per_pa=1.0 / 256.0, fans=FanSpec(max_flow_m3ps=0.5),
                      initial_pressure_pa=HALLWAY_PA - 120.0)
    assert balanced_fans(room) == (0.0, 1.0)
    return room


_COMMON_PORT = {"common_high_port": True}


@settings(max_examples=150, deadline=None)
@given(_fixed_point_scenarios())
# A deadband of 0.
@example(_scenario(rooms=[_room(f"r{i}", deadband_pa=0.0) for i in range(3)],
                   attack=AttackPlan(placement="common_high_port", forged_pa=6.0),
                   wiring_kw=_COMMON_PORT))
# Balanced speeds at the fans' limits, under offsets that push either way.
@example(_scenario(rooms=[_limit_room("r0"), _room("r1")],
                   attack=AttackPlan(placement="common_high_port", forged_pa=6.0),
                   wiring_kw=_COMMON_PORT))
@example(_scenario(rooms=[_limit_room("r0")],
                   attack=AttackPlan(placement="low_port", forged_pa=6.0)))
# A zero offset.
@example(_scenario(rooms=[_room(f"r{i}", setpoint=-2.5 - i) for i in range(8)],
                   attack=AttackPlan(placement="high_port", forged_pa=0.0)))
# A gain so low that no room reaches a fixed point.
@example(_scenario(rooms=[_room(f"r{i}", gain=0.0025e-9, deadband_pa=0.0) for i in range(2)],
                   attack=AttackPlan(placement="high_port", forged_pa=8.0)))
def test_the_float_loop_and_the_array_loop_give_one_trace_bit_for_bit(scenario):
    _assert_same_trace(_simulate_by_loop(scenario, "float"),
                       _simulate_by_loop(scenario, "array"))


def test_baseline_scenario_steps_at_most_ten_of_its_periods():
    path = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.yaml"
    scenario = load_scenario(path).scenario
    for loop in _LOOPS:
        trace, periods = _counted_run(scenario, loop)
        assert trace.times_s.size == 121
        assert 1 <= periods <= 10, loop
        _assert_same_trace(trace, _simulate_every_period(scenario))


def test_a_loop_with_no_fixed_point_steps_every_period():
    """A loop this slow neither comes to rest nor leaves the band: its
    differential creeps up from -2.5 Pa by about 1.6e-6 Pa a period,
    0.0038 Pa over 20 horizons.  So it steps every period of its 120 s
    horizon and on to the cap, SETTLE_HORIZONS horizons, and has not
    converged."""
    room = _room(gain=1e-9, deadband_pa=0.0)
    attack = AttackPlan(placement="high_port", forged_pa=8.0, affects="both")
    scenario = _scenario(rooms=[room], attack=attack)
    for loop in _LOOPS:
        trace, periods = _counted_run(scenario, loop)
        assert periods == SETTLE_HORIZONS * 120, loop
        assert not trace.converged
        assert trace.true_pd_pa[-1, 0] == pytest.approx(-2.4998, abs=1e-4)
        _assert_same_trace(trace, _simulate_every_period(scenario))


def test_a_command_that_moves_while_the_room_stands_still_keeps_the_loop_stepping():
    """The fixed point compares the fan commands too.  A forged low reading
    raises the supply command of a room balanced at supply speed 0.0 by 8
    subnormals a period (a gain of 5e-324), and the slow fan's share of so
    small a command rounds to 0.0 in the period product: the differential
    and both speeds repeat bit for bit while the command climbs, until the
    speed leaves 0.0 some periods later."""
    room = RoomConfig(
        name="r0", controller=ControllerConfig(setpoint_pa=-1 / 64, gain=5e-324, deadband_pa=0.0),
        leak_coeff_m3ps_per_pa=32.0, fans=FanSpec(max_flow_m3ps=0.5, time_constant_s=100.0))
    assert balanced_fans(room) == (0.0, 1.0)
    scenario = _scenario(rooms=[room], attack=AttackPlan(placement="high_port", forged_pa=8.0))
    reference = _simulate_every_period(scenario)
    supply = reference.supply_speed[:, 0]
    still = int(np.flatnonzero(supply)[0])
    assert still >= 3
    for name in ("true_pd_pa", "supply_speed", "exhaust_speed"):
        rows = getattr(reference, name)[:still]
        assert rows.tobytes() == np.repeat(rows[:1], still, axis=0).tobytes(), name
    for loop in _LOOPS:
        _assert_same_trace(_simulate_by_loop(scenario, loop), reference)


def test_an_alarm_raised_after_the_fixed_point_is_kept():
    """A forged monitor reading leaves the control loop at rest, so its
    state repeats within a few periods; the alarm still trips once the
    deviation has lasted its 30 s dwell."""
    binding = DpsBinding(model=archetype("A1011-00"))
    attack = AttackPlan(placement="high_port", forged_pa=8.0, affects="rpm")
    scenario = replace(
        _scenario(attack=attack, wiring_kw={"hvac": binding, "rpm": binding}),
        alarm=AlarmConfig(threshold_pa=2.0, dwell_s=30.0),
    )
    for loop in _LOOPS:
        trace, periods = _counted_run(scenario, loop)
        assert 1 <= periods <= 10, loop
        assert [(e.time_s, e.kind) for e in trace.alarm_events] == [(30.0, "raised")]
        _assert_same_trace(trace, _simulate_every_period(scenario))
