import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nprsim import (
    AcousticSource,
    AlarmConfig,
    AttackPlan,
    ControllerConfig,
    Countermeasure,
    CutoffError,
    DpsBinding,
    NprScenario,
    PortWiring,
    RoomConfig,
    SegmentSchedule,
    apply_lpf,
    archetype,
    enclosure_lag_s,
    evaluate_countermeasure,
    forged_pressure_estimate,
    lpf_cascade,
    measurement_settle_time_s,
)
from nprsim.sensor import TubeAssembly

FS = 50000.0
DT = 1.0 / FS


def _attack_plan():
    """The 65 dB burst-train attack at the high port."""
    schedule = SegmentSchedule(band_hz=(540.0, 670.0), duration_s=0.002, interval_s=0.015)
    source = AcousticSource(
        spl_db=65.0, ref_distance_m=0.002, position_distance_m=0.002,
        tone_hz=schedule.target_hz(),
    )
    return AttackPlan(placement="high_port", affects="both", source=source, schedule=schedule)


def _hvac():
    """The sensor the attack reaches, through a 1 m sense tube."""
    return DpsBinding(model=archetype("A1011-00"), tube=TubeAssembly(length_m=1.0))


def _scenario(setpoint=-2.5, attack=None):
    """One room under attack at its high port; by default the acoustic
    attack, whose forged reading is scored."""
    return NprScenario(
        rooms=(RoomConfig(name="iso1", controller=ControllerConfig(setpoint_pa=setpoint)),),
        wiring=PortWiring(hvac=_hvac(), attack=attack or _attack_plan()),
        alarm=AlarmConfig(threshold_pa=2.0, dwell_s=5.0),
    )


def test_lpf_passes_dc_exactly():
    x = np.full(1000, 3.75)
    assert np.array_equal(apply_lpf(x, 120.0, DT), x)


def test_lpf_gain_at_cutoff_is_half_power():
    t = np.arange(int(FS * 2)) / FS
    y = apply_lpf(np.sin(2 * np.pi * 120.0 * t), 120.0, DT)
    settled = np.max(np.abs(y[int(FS):]))
    assert settled == pytest.approx(1.0 / np.sqrt(2.0), abs=0.01)


def test_lpf_rolls_off_a_decade_up():
    t = np.arange(int(FS * 2)) / FS
    x = np.sin(2 * np.pi * 1200.0 * t)
    one = np.max(np.abs(apply_lpf(x, 120.0, DT)[int(FS):]))
    three = np.max(np.abs(lpf_cascade(x, 120.0, DT, 3)[int(FS):]))
    assert one == pytest.approx(0.1, abs=0.02)
    assert three < one / 50.0


def test_lpf_cutoff_bounds():
    x = np.zeros(10)
    with pytest.raises(CutoffError):
        apply_lpf(x, 0.0, DT)
    with pytest.raises(CutoffError):
        apply_lpf(x, FS, DT)
    with pytest.raises(ValueError):
        apply_lpf(x, 120.0, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("drive", [lambda: apply_lpf([1.0, math.nan, 2.0], 120.0, DT),
                                   lambda: lpf_cascade([math.inf, 1.0], 120.0, DT, 2),
                                   lambda: lpf_cascade([1.0, -math.inf], 120.0, DT, 3)],
                         ids=["apply_lpf-nan", "lpf_cascade-inf-first", "lpf_cascade-inf-last"])
def test_a_low_pass_refuses_a_non_finite_sample_as_the_transducer_does(drive):
    """A NaN or an infinity anywhere in the series is refused as
    step_response refuses it, and warns of nothing on the way."""
    with pytest.raises(ValueError, match="inlet contains non-finite samples"):
        drive()


def test_cascade_keeps_unit_dc_gain():
    step = np.ones(int(FS * 0.5))
    for order in (1, 2, 3, 4):
        assert lpf_cascade(step, 120.0, DT, order)[-1] == pytest.approx(1.0, abs=1e-3)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-6, 1.0 - 1e-6), st.integers(1, 4),
       st.integers(1, 2000))
def test_cascade_returns_a_constant_input_unchanged(level, cutoff_fraction, order, n):
    """Any cutoff below Nyquist, any order: a settled input passes as it is."""
    x = np.full(n, level)
    y = lpf_cascade(x, cutoff_fraction * 0.5 / DT, DT, order)
    assert np.all(np.abs(y - level) <= 1e-12 * abs(level))


def test_enclosure_lag_scaling():
    assert enclosure_lag_s(0.0) == 0.0
    assert enclosure_lag_s(20.0) == pytest.approx(9e-3, rel=1e-12)
    assert enclosure_lag_s(40.0) == pytest.approx(99e-3, rel=1e-12)


def test_settle_time_penalties_are_positive():
    model = archetype("A1011-00")
    tube = TubeAssembly(length_m=1.0)
    base = measurement_settle_time_s(model, tube)
    assert base > 0.0
    assert measurement_settle_time_s(model, tube, lpf_cutoff_hz=120.0, lpf_order=3) > base
    assert measurement_settle_time_s(model, tube, extra_lag_s=9e-3) > base + 8e-3
    assert measurement_settle_time_s(model, TubeAssembly(length_m=7.5)) > base


def test_countermeasure_validation():
    with pytest.raises(ValueError):
        Countermeasure(kind="magnet")
    with pytest.raises(ValueError):
        Countermeasure(kind="lpf")                 # parameter missing
    with pytest.raises(ValueError):
        Countermeasure.long_tube(0.0)
    with pytest.raises(ValueError):
        Countermeasure.lpf(120.0, order=0)
    with pytest.raises(ValueError):
        Countermeasure.raised_setpoint(5.0)
    with pytest.raises(ValueError):
        Countermeasure(kind="enclosure", extra_loss_db=-1.0)


@pytest.mark.parametrize("kind, params", [
    ("long_tube", {"tube_length_m": 2.0, "cutoff_hz": 120.0}),
    ("long_tube", {"tube_length_m": 2.0, "order": 3}),
    ("enclosure", {"extra_loss_db": 10.0, "setpoint_pa": -30.0}),
    ("lpf", {"cutoff_hz": 120.0, "extra_loss_db": 10.0}),
    ("raised_setpoint", {"setpoint_pa": -30.0, "tube_length_m": 2.0}),
])
def test_countermeasure_rejects_another_kinds_parameter(kind, params):
    with pytest.raises(ValueError, match="does not use"):
        Countermeasure(kind=kind, **params)


def test_countermeasure_accepts_the_default_order_on_any_kind():
    assert Countermeasure(kind="long_tube", tube_length_m=2.0, order=1).order == 1
    assert Countermeasure.lpf(120.0, order=3).order == 3


@pytest.mark.parametrize("kind, name", [
    ("long_tube", "tube_length_m"),
    ("enclosure", "extra_loss_db"),
    ("lpf", "cutoff_hz"),
    ("raised_setpoint", "setpoint_pa"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_countermeasure_rejects_a_non_finite_parameter(kind, name, value):
    with pytest.raises(ValueError, match=f"^Countermeasure.{name} must be finite, got {value}$"):
        Countermeasure(kind=kind, **{name: value})


@pytest.mark.parametrize("target, message", [
    (math.nan, "^AcousticSource.tone_hz must be finite, got nan$"),
])
def test_attack_setup_rejects_a_target_frequency_it_cannot_tune_to(target, message):
    """The attack's target frequency is its source's tone, so retuning a
    deployed setup to a non-finite frequency is refused."""
    plan = _attack_plan()
    with pytest.raises(ValueError, match=message):
        replace(plan, source=replace(plan.source, tone_hz=target))


def test_the_bursts_are_tuned_to_the_sources_tone():
    """The source's tone is the one statement of the attack frequency:
    detuning it moves both the estimate and the countermeasure baseline."""
    hvac = _hvac()
    tuned = _attack_plan()
    detuned = replace(tuned, source=replace(tuned.source, tone_hz=0.9 * tuned.source.tone_hz))
    forged = [forged_pressure_estimate(p.schedule, hvac.model, hvac.tube, p.source)
              for p in (tuned, detuned)]
    assert forged[1] != forged[0]
    assert forged[0] == forged_pressure_estimate(tuned.schedule, hvac.model, hvac.tube,
                                                 tuned.source, target_f_hz=tuned.source.tone_hz)
    cm = Countermeasure.raised_setpoint(-20.0)
    assert [evaluate_countermeasure(_scenario(attack=p), cm).baseline_forged_pa
            for p in (tuned, detuned)] == forged


def test_an_enclosure_whose_lag_overflows_is_rejected():
    with pytest.raises(ValueError, match="enclosure loss of 1e\\+308 dB gives a lag that is not finite"):
        enclosure_lag_s(1e308)
    with pytest.raises(ValueError, match="not finite"):
        evaluate_countermeasure(_scenario(), Countermeasure.enclosure(1e308))


def test_acoustic_defenses_need_the_attack_setup():
    attack = AttackPlan(placement="high_port", forged_pa=8.0, affects="both")
    with pytest.raises(ValueError):
        evaluate_countermeasure(_scenario(attack=attack), Countermeasure.lpf(120.0))


def test_enclosure_attenuates_forged_reading_linearly():
    report = evaluate_countermeasure(_scenario(), Countermeasure.enclosure(20.0))
    assert report.residual_forged_pa == pytest.approx(report.baseline_forged_pa / 10.0, rel=1e-9)
    assert report.sensitivity_penalty_s > 8e-3


@pytest.mark.parametrize("loss_db", [45.0, 60.0])
def test_an_enclosure_too_slow_for_a_half_second_window_is_scored(loss_db):
    """The settle window grows with the enclosure lag, so a defense whose
    step takes longer than the 0.5 s floor to settle still gets a score."""
    report = evaluate_countermeasure(_scenario(), Countermeasure.enclosure(loss_db))
    assert report.residual_forged_pa == pytest.approx(
        report.baseline_forged_pa * 10.0 ** (-loss_db / 20.0), rel=1e-9)
    assert not report.attack_success
    # Three lags settle a first-order step to within 5%.
    assert report.sensitivity_penalty_s == pytest.approx(3.0 * enclosure_lag_s(loss_db), rel=0.02)
    assert report.below_noise_floor == (loss_db == 60.0)


def test_a_low_cutoff_filter_is_scored():
    report = evaluate_countermeasure(_scenario(), Countermeasure.lpf(2.0, order=3))
    assert not report.attack_success
    assert report.sensitivity_penalty_s > 0.5


def test_long_tube_buries_the_attack_in_the_noise():
    report = evaluate_countermeasure(_scenario(), Countermeasure.long_tube(7.5))
    assert report.below_noise_floor
    assert not report.attack_success
    assert report.sensitivity_penalty_s > 0.0


def test_filter_strips_most_of_the_burst_energy():
    report = evaluate_countermeasure(_scenario(), Countermeasure.lpf(120.0, order=3))
    reduction = 1.0 - report.residual_forged_pa / report.baseline_forged_pa
    assert reduction >= 0.9
    assert not report.attack_success


def test_raised_setpoint_restores_margin_against_direct_forging():
    attack = AttackPlan(placement="high_port", forged_pa=8.0, affects="both")
    scenario = _scenario(attack=attack)

    undefended = evaluate_countermeasure(scenario, Countermeasure.raised_setpoint(-2.5))
    assert undefended.attack_success

    defended = evaluate_countermeasure(scenario, Countermeasure.raised_setpoint(-20.0))
    assert not defended.attack_success
    assert defended.residual_forged_pa == defended.baseline_forged_pa == 8.0
    assert defended.sensitivity_penalty_s == 0.0
