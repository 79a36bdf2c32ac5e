"""Defenses against acoustic sensor spoofing, with their costs.

Four defenses are modeled.  A longer sampling tube detunes the resonance
away from the deployed burst frequency and adds per-meter loss.  A damped
enclosure around the sensor inserts broadband loss in the path.  A
low-pass filter after the transducer strips the resonant ring, which sits
far above the pressure band a room controller cares about.  A deeper
setpoint leaves the forged offset short of positive pressure.  Each one
is scored by recomputing the forged reading through the modified chain,
rerunning the closed loop, and measuring what the defense costs on a
legitimate pressure step.  An acoustic AttackPlan is driven through the
scenario's hvac sensor; a replay plan is scored only against a deeper
setpoint.  The filter and the enclosure's equalization lag
are first-order sections that join the transducer's state-space chain, so
the burst train and the settle step are driven through the whole chain at
once; apply_lpf and lpf_cascade filter arbitrary series for library
callers, each section a one-state chain on the same drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .plant import NprScenario, simulate_scenario
from .sensor import (
    MAX_DRIVE_SAMPLES,
    NO_TUBE,
    DpsModel,
    TubeAssembly,
    _require_finite_fields,
    drive_chain,
    one_pole_chain,
    step_last_outside,
    transducer_chain,
)
from .waveform import forged_pressure_estimate, unit_response_means

NOISE_FLOOR_PA = 0.1
"""Residual forged pressure below this is indistinguishable from noise."""

SETTLE_BAND_FRACTION = 0.05
# The settle window is this many times the chain's total time constant,
# and at least SETTLE_WINDOW_MIN_S, which also covers the transducer's own
# ring.  A window past MAX_DRIVE_SAMPLES is refused: at 48 kHz that is
# about 100 s, from an enclosure of some 80 dB or a filter cutoff near
# 0.015 Hz per section.
SETTLE_WINDOW_TIME_CONSTANTS = 10.0
SETTLE_WINDOW_MIN_S = 0.5
# The settle and residual drives hold powers of the whole chain's matrix,
# so their cost grows as the cube of its states: a low-pass of more
# sections than this is refused.
MAX_LPF_ORDER = 250
ENCLOSURE_LAG_S_PER_UNIT = 1e-3
# Each kind with the parameters it reads, its required one first.
_KIND_PARAMS = {
    "long_tube": ("tube_length_m",),
    "enclosure": ("extra_loss_db",),
    "lpf": ("cutoff_hz", "order"),
    "raised_setpoint": ("setpoint_pa",),
}
COUNTERMEASURE_KINDS = tuple(_KIND_PARAMS)


class CutoffError(ValueError):
    """Low-pass cutoff at or beyond the Nyquist rate of the series."""


@dataclass(frozen=True)
class Countermeasure:
    """One defense with its single tunable parameter.

    Use the classmethod constructors, or pass only the parameters a config
    gives.  Setting a parameter of another kind (an order other than the
    default, unless the kind is lpf) raises ValueError, since nothing would
    read it.
    """

    kind: str
    tube_length_m: float | None = None
    extra_loss_db: float | None = None
    cutoff_hz: float | None = None
    order: int = 1
    setpoint_pa: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in COUNTERMEASURE_KINDS:
            raise ValueError(f"unknown countermeasure kind {self.kind!r}")
        _require_finite_fields(self)
        if self.order < 1:
            raise ValueError(f"filter order must be >= 1, got {self.order}")
        foreign = [
            f.name for f in fields(self)
            if f.name != "kind" and f.name not in _KIND_PARAMS[self.kind]
            and getattr(self, f.name) != f.default
        ]
        if foreign:
            raise ValueError(
                f"countermeasure {self.kind!r} does not use {', '.join(foreign)}"
            )
        if getattr(self, _KIND_PARAMS[self.kind][0]) is None:
            raise ValueError(f"countermeasure {self.kind!r} is missing its parameter")
        if self.kind == "long_tube" and self.tube_length_m <= 0.0:
            raise ValueError("tube length must be > 0")
        if self.kind == "enclosure" and self.extra_loss_db < 0.0:
            raise ValueError("enclosure loss must be >= 0 dB")
        if self.kind == "lpf" and self.cutoff_hz <= 0.0:
            raise ValueError("cutoff must be > 0 Hz")
        if self.kind == "raised_setpoint" and self.setpoint_pa >= 0.0:
            raise ValueError("raised setpoint must still be negative")

    @classmethod
    def long_tube(cls, length_m: float) -> Countermeasure:
        return cls(kind="long_tube", tube_length_m=float(length_m))

    @classmethod
    def enclosure(cls, extra_loss_db: float) -> Countermeasure:
        return cls(kind="enclosure", extra_loss_db=float(extra_loss_db))

    @classmethod
    def lpf(cls, cutoff_hz: float, order: int = 1) -> Countermeasure:
        return cls(kind="lpf", cutoff_hz=float(cutoff_hz), order=int(order))

    @classmethod
    def raised_setpoint(cls, setpoint_pa: float) -> Countermeasure:
        return cls(kind="raised_setpoint", setpoint_pa=float(setpoint_pa))


@dataclass(frozen=True)
class CountermeasureReport:
    kind: str
    baseline_forged_pa: float
    residual_forged_pa: float
    attack_success: bool
    sensitivity_penalty_s: float

    @property
    def below_noise_floor(self) -> bool:
        return self.residual_forged_pa < NOISE_FLOOR_PA


def apply_lpf(signal: np.ndarray, cutoff_hz: float, dt: float) -> np.ndarray:
    """First-order discrete low-pass with unit DC gain.

    The state starts at the first input value, so a series that begins
    settled passes through without a spurious startup transient; in
    particular a constant series is returned unchanged.
    """
    a = _lpf_gain(cutoff_hz, dt)
    x = np.asarray(signal, dtype=float)
    if x.size == 0:
        return x.copy()
    # With unit DC gain, the section settled at x[0] passes x[0] and filters
    # the rest from rest.
    return x[0] + drive_chain(one_pole_chain(a), x - x[0])[:, 0]


def _lpf_gain(cutoff_hz: float, dt: float) -> float:
    """Gain a of apply_lpf's section y[k] = a x[k] + (1 - a) y[k-1], once
    the cutoff is checked to lie below the Nyquist rate of dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    nyquist = 0.5 / dt
    if not 0.0 < cutoff_hz < nyquist:
        raise CutoffError(f"cutoff {cutoff_hz} Hz must lie in (0, {nyquist:g}) Hz")
    return 1.0 - math.exp(-2.0 * math.pi * cutoff_hz * dt)


def _lpf_gains(cutoff_hz: float, dt: float, order: int) -> list[float]:
    """The section gains of an lpf_cascade of order sections."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_LPF_ORDER:
        raise ValueError(f"a low-pass of order {order} has more than the {MAX_LPF_ORDER} "
                         "sections a drive holds")
    return [_lpf_gain(cutoff_hz, dt)] * order


def lpf_cascade(signal: np.ndarray, cutoff_hz: float, dt: float, order: int = 1) -> np.ndarray:
    """apply_lpf repeated order times (identical sections in series)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    out = np.asarray(signal, dtype=float)
    for _ in range(order):
        out = apply_lpf(out, cutoff_hz, dt)
    return out


def enclosure_lag_s(extra_loss_db: float) -> float:
    """Equalization lag a gasketed enclosure adds to slow pressure changes.

    The same sealing that blocks airborne sound slows static equalization
    through the enclosure's leak path.  Modeled as a first-order lag that
    grows with the insertion loss and vanishes at 0 dB.  Raises
    ValueError when the loss is so large that the lag is not finite.
    """
    if extra_loss_db < 0.0:
        raise ValueError("enclosure loss must be >= 0 dB")
    try:
        lag = ENCLOSURE_LAG_S_PER_UNIT * (10.0 ** (extra_loss_db / 20.0) - 1.0)
    except OverflowError:
        lag = math.inf
    if not math.isfinite(lag):
        raise ValueError(f"enclosure loss of {extra_loss_db:g} dB gives a lag that is not finite")
    return lag


def measurement_settle_time_s(
    model: DpsModel,
    tube: TubeAssembly | None,
    *,
    lpf_cutoff_hz: float | None = None,
    lpf_order: int = 1,
    extra_lag_s: float = 0.0,
) -> float:
    """Time for the measurement chain to settle within 5% of a 1 Pa step.

    Drives the transducer with a legitimate pressure step and follows it
    through any post-sensor filter and enclosure equalization lag, all one
    LinearChain driven by :func:`step_last_outside`; the result is the
    sensitivity cost metric countermeasure reports carry.  The step runs
    for SETTLE_WINDOW_TIME_CONSTANTS times the sum of the enclosure lag
    and each filter section's 1/(2 pi cutoff), and at least
    SETTLE_WINDOW_MIN_S.  Raises ValueError when that window needs more
    than MAX_DRIVE_SAMPLES samples, when the filter has more than
    MAX_LPF_ORDER sections, or when the step has not settled by the
    window's end.
    """
    fs = model.sample_rate_hz
    time_constant_s = extra_lag_s
    if lpf_cutoff_hz is not None:
        time_constant_s += lpf_order / (2.0 * math.pi * lpf_cutoff_hz)
    window_s = max(SETTLE_WINDOW_MIN_S, SETTLE_WINDOW_TIME_CONSTANTS * time_constant_s)
    if not window_s * fs <= MAX_DRIVE_SAMPLES:
        raise ValueError(
            f"settling needs a window of {window_s:.3g} s, over the "
            f"{MAX_DRIVE_SAMPLES} samples a step response may hold at {fs} Hz"
        )
    n = int(round(window_s * fs))
    dt = 1.0 / fs
    chain = transducer_chain(model, tube, dt)
    # The enclosure lag is a first-order section from rest.
    gains = [1.0 - math.exp(-dt / extra_lag_s)] if extra_lag_s > 0.0 else []
    if lpf_cutoff_hz is not None:
        gains += _lpf_gains(lpf_cutoff_hz, dt, lpf_order)
    last = step_last_outside(chain.then_sections(gains), n, SETTLE_BAND_FRACTION)
    if last < 0:
        return 0.0
    if last == n - 1:
        raise ValueError("step response did not settle within the window")
    return float((last + 1) * dt)


def evaluate_countermeasure(scenario: NprScenario, cm: Countermeasure) -> CountermeasureReport:
    """Score one defense against the scenario's attack.

    The forged reading is recomputed through the defended chain, the
    closed loop is rerun with that residual injected at the port and
    into the chains of the scenario's AttackPlan, and the report states
    whether the room still crosses into positive pressure plus what the
    defense costs in settle time on a 1 Pa legitimate step.

    An acoustic plan is driven through the scenario's hvac sensor and
    tube.  A replay plan's forged_pa is used directly; only
    raised_setpoint can be evaluated that way, since the other defenses
    act on the acoustic path itself.
    """
    attack = scenario.wiring.attack
    if attack.source is None and cm.kind != "raised_setpoint":
        raise ValueError(f"{cm.kind} evaluation needs an acoustic attack")
    if attack.placement == "none":
        raise ValueError("scenario carries no attack to defend against")
    hvac = scenario.wiring.hvac
    run_scenario = scenario
    penalty_s = 0.0
    if cm.kind == "raised_setpoint":
        rooms = tuple(
            replace(room, controller=replace(room.controller, setpoint_pa=cm.setpoint_pa))
            for room in scenario.rooms
        )
        run_scenario = replace(scenario, rooms=rooms)
    else:
        tube, settle = hvac.tube, {}
        if cm.kind == "long_tube":
            tube = replace(hvac.tube or NO_TUBE, length_m=cm.tube_length_m)
        elif cm.kind == "enclosure":
            settle = {"extra_lag_s": enclosure_lag_s(cm.extra_loss_db)}
        else:
            settle = {"lpf_cutoff_hz": cm.cutoff_hz, "lpf_order": cm.order}
        # The settle penalty comes first: the settle window and the filter
        # order are where a defense too slow or too large to score is
        # refused, before the attack is driven through it.
        penalty_s = (measurement_settle_time_s(hvac.model, tube, **settle)
                     - measurement_settle_time_s(hvac.model, hvac.tube))

    if attack.source is None:
        baseline = residual = attack.forged_pa
    else:
        # Every defense but long_tube leaves the burst train's 1 Pa
        # response as it is, or filters it after the transducer: one drive
        # gives the baseline's mean and, for an lpf, the filtered one.
        sections = ()
        if cm.kind == "lpf":
            sections = _lpf_gains(cm.cutoff_hz, 1.0 / hvac.model.sample_rate_hz, cm.order)
        means = unit_response_means(attack.schedule, hvac.model, hvac.tube,
                                    target_f_hz=attack.source.tone_hz, sections=sections)
        baseline = forged_pressure_estimate(attack.schedule, hvac.model, hvac.tube,
                                            attack.source, unit_mean_pa=means[0])
        # A long_tube's new tube is driven afresh.  Every other kind takes
        # the last mean: an lpf's filtered one, or without sections the
        # baseline's.  Only an enclosure sets extra_loss_db.
        long_tube = cm.kind == "long_tube"
        residual = forged_pressure_estimate(
            attack.schedule, hvac.model, tube if long_tube else hvac.tube, attack.source,
            extra_loss_db=cm.extra_loss_db or 0.0, unit_mean_pa=None if long_tube else means[-1])

    plan = replace(attack, forged_pa=residual, source=None, schedule=None)
    run_scenario = replace(run_scenario, wiring=replace(run_scenario.wiring, attack=plan))
    trace = simulate_scenario(run_scenario)
    success = bool(np.any(trace.steady_true_pd_pa() > 0.0))
    return CountermeasureReport(
        kind=cm.kind,
        baseline_forged_pa=float(baseline),
        residual_forged_pa=float(residual),
        attack_success=success,
        sensitivity_penalty_s=float(max(0.0, penalty_s)),
    )
