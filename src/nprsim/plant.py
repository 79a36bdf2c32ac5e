"""Closed-loop negative-pressure room simulation.

A room is one lumped pressure node on the same gauge scale as the hallway
datum.  Supply and exhaust fans inject and remove air with a first-order
speed lag, leakage flows through the envelope in proportion to the
room-to-hallway difference, and a periodic controller trims the fan
commands from the differential pressure it reads.  The reading can be
biased per port, which is how an acoustic spoofing attack enters the
loop: the upstream sensor pipeline reduces to a per-port offset on the
true pressures, and everything downstream reacts as if it were real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .sensor import DpsModel, TubeAssembly, _require_finite_fields

HALLWAY_PA = 12.5
"""Hallway absolute gauge pressure, the datum all rooms are read against."""

ADIABATIC_BULK_MODULUS_PA = 1.4 * 101325.0
"""Stiffness of air for fast volume changes, gamma times atmospheric."""

SUBSTEPS_PER_PERIOD = 20
MIN_HORIZON_PERIODS = 10
# Ceiling on control periods times rooms in one run.  simulate_scenario
# records five float64 arrays of (periods + 1) x rooms, 400 MB at this size.
MAX_ROOM_PERIODS = 10_000_000
STEADY_SLOPE_PA_PER_S = 1e-3
STEADY_HOLD_S = 5.0

ATTACK_PLACEMENTS = ("none", "low_port", "high_port", "common_high_port")
ATTACK_TARGETS = ("hvac", "rpm", "both")

# How a positive correction moves the (supply, exhaust) commands.
_TRIM_SIGNS = np.array([-1.0, 1.0])


class WiringError(ValueError):
    """Scenario wiring that cannot be simulated as declared."""


@dataclass(frozen=True)
class FanSpec:
    """Capacity and response lag shared by a room's supply and exhaust fan.

    The fan speeds are not settable: they start at the balanced pair
    from balanced_fans and move only on controller commands.
    """

    max_flow_m3ps: float = 0.4
    time_constant_s: float = 2.0

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.max_flow_m3ps <= 0.0:
            raise ValueError("fan capacity must be > 0")
        if self.time_constant_s <= 0.0:
            raise ValueError("fan time constant must be > 0")


@dataclass(frozen=True)
class ControllerConfig:
    """Periodic differential-pressure regulator settings.

    The controller wakes every control_period_s, compares the measured
    differential against the setpoint, and when the error is outside the
    deadband it shifts the two fan commands in opposite directions by
    gain times the part of the error that sticks out past the deadband
    edge.  The increment vanishes as the reading approaches the edge, so
    the loop parks there instead of hunting across the band.
    """

    setpoint_pa: float = -2.5
    gain: float = 0.0025
    control_period_s: float = 1.0
    deadband_pa: float = 0.2

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.setpoint_pa >= 0.0:
            raise ValueError(f"negative-pressure setpoint required, got {self.setpoint_pa}")
        if self.gain <= 0.0:
            raise ValueError("gain must be > 0")
        if self.control_period_s <= 0.0:
            raise ValueError("control period must be > 0")
        if self.deadband_pa < 0.0:
            raise ValueError("deadband must be >= 0")


@dataclass(frozen=True)
class AlarmConfig:
    """Pressure monitor trip rule: sustained deviation beyond a threshold."""

    threshold_pa: float = 2.0
    dwell_s: float = 5.0

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.threshold_pa <= 0.0:
            raise ValueError("alarm threshold must be > 0")
        if self.dwell_s < 0.0:
            raise ValueError("alarm dwell must be >= 0")


@dataclass(frozen=True)
class DpsBinding:
    """A sensor archetype plus the tube it samples through."""

    model: DpsModel
    tube: TubeAssembly | None = None


@dataclass(frozen=True)
class AttackPlan:
    """Forged-pressure injection as the plant sees it.

    The acoustic pipeline collapses to a reading offset at one port.
    forged_pa is that steady offset.  affects picks which sensing chain is
    exposed when the monitor has its own sensor: a source near the
    supervisory sensor's port does not reach an HVAC sensor plumbed
    elsewhere.
    """

    placement: str = "none"
    forged_pa: float = 0.0
    affects: str = "both"

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.placement not in ATTACK_PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.affects not in ATTACK_TARGETS:
            raise ValueError(f"unknown attack target {self.affects!r}")
        if self.forged_pa < 0.0:
            raise ValueError("forged pressure is a magnitude, must be >= 0")


@dataclass(frozen=True)
class PortWiring:
    """Sensor topology: which chains exist and where the attack couples."""

    hvac: DpsBinding | None = None
    rpm: DpsBinding | None = None
    common_high_port: bool = False
    attack: AttackPlan = field(default_factory=AttackPlan)

    @property
    def separate_rpm(self) -> bool:
        return self.rpm is not None


@dataclass(frozen=True)
class RoomConfig:
    """One room with its regulator and fans; the fans start at the balanced
    operating point that holds the setpoint exactly."""

    name: str = "room"
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    volume_m3: float = 50.0
    leak_coeff_m3ps_per_pa: float = 0.004
    fans: FanSpec = field(default_factory=FanSpec)
    initial_pressure_pa: float | None = None

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.volume_m3 <= 0.0:
            raise ValueError("room volume must be > 0")
        if self.leak_coeff_m3ps_per_pa <= 0.0:
            raise ValueError("leak coefficient must be > 0")
        # _period_maps divides by the time constant and multiplies the
        # capacity-over-leak ratio by a share that can round to 0.
        if not 0.0 < self.pressure_time_constant_s < math.inf:
            raise ValueError("room pressure time constant volume/(bulk modulus x leak) "
                             f"must be > 0 and finite, got {self.pressure_time_constant_s:g} s")
        if not math.isfinite(self.fans.max_flow_m3ps / self.leak_coeff_m3ps_per_pa):
            raise ValueError("fan capacity over leak coefficient must be finite")

    @property
    def pressure_time_constant_s(self) -> float:
        """How fast the room's pressure relaxes through its leak, s."""
        return self.volume_m3 / (ADIABATIC_BULK_MODULUS_PA * self.leak_coeff_m3ps_per_pa)


@dataclass(frozen=True)
class NprScenario:
    """Everything one closed-loop run needs."""

    rooms: tuple[RoomConfig, ...]
    wiring: PortWiring = field(default_factory=PortWiring)
    alarm: AlarmConfig = field(default_factory=AlarmConfig)
    hallway_pa: float = HALLWAY_PA
    horizon_s: float = 120.0

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if not self.rooms:
            raise ValueError("scenario needs at least one room")
        names = [r.name for r in self.rooms]
        if len(set(names)) != len(names):
            raise ValueError(f"room names must be unique, got {names}")
        periods = {r.controller.control_period_s for r in self.rooms}
        if len(periods) != 1:
            raise WiringError("all rooms must share one control period")
        placement = self.wiring.attack.placement
        if placement == "common_high_port" and not self.wiring.common_high_port:
            raise WiringError("common_high_port attack needs common_high_port wiring")
        if self.wiring.common_high_port and len(self.rooms) < 2:
            raise WiringError("a common high port implies at least 2 rooms")
        if self.wiring.attack.affects == "rpm" and not self.wiring.separate_rpm:
            raise WiringError("attack targets the monitor sensor but none is wired")
        # A run moves a room's differential from its start by at most four
        # times the fans' capacity over the leak (two speeds and two
        # commands, each within 1 of balance), and a reading adds the forged
        # offset: with this sum finite, so is every value the run computes.
        # The controller's error from the setpoint is within the sum too, so
        # a gain that keeps twice its product finite never overflows a trim.
        forged = self.wiring.attack.forged_pa
        for r in self.rooms:
            setpoint = r.controller.setpoint_pa
            start = 0.0 if r.initial_pressure_pa is None else (
                r.initial_pressure_pa - self.hallway_pa - setpoint)
            reach = r.fans.max_flow_m3ps / r.leak_coeff_m3ps_per_pa
            bound = abs(setpoint) + abs(start) + 4.0 * reach + forged
            if not math.isfinite(bound):
                raise ValueError(
                    f"room {r.name}: a start {start:g} Pa from the setpoint, fans that reach "
                    f"{reach:g} Pa and a forged offset of {forged:g} Pa overflow a float")
            if not math.isfinite(2.0 * r.controller.gain * bound):
                raise ValueError(
                    f"room {r.name}: a controller gain of {r.controller.gain:g} on errors of "
                    f"up to {bound:g} Pa overflows a float")

    @property
    def control_period_s(self) -> float:
        return self.rooms[0].controller.control_period_s


@dataclass(frozen=True)
class AlarmEvent:
    time_s: float
    room: str
    kind: str


@dataclass
class SimulationTrace:
    """Closed-loop run output, one row per control period.

    alarm_active holds the monitor's alarm state per row and room, as
    rpm_alarm decides it; alarm_events lists its transitions, ordered by
    time and room name.
    """

    times_s: np.ndarray
    true_pd_pa: np.ndarray
    measured_hvac_pa: np.ndarray
    measured_rpm_pa: np.ndarray
    supply_speed: np.ndarray
    exhaust_speed: np.ndarray
    alarm_active: np.ndarray
    alarm_events: list[AlarmEvent]
    converged: bool
    room_names: tuple[str, ...]
    hallway_pa: float

    def steady_true_pd_pa(self) -> np.ndarray:
        """Final true differential per room (meaningful once converged)."""
        return self.true_pd_pa[-1].copy()

    def raised_alarm_count(self) -> int:
        return sum(1 for e in self.alarm_events if e.kind == "raised")


def controller_step(
    cfg: ControllerConfig,
    measured_pa: float | np.ndarray,
    commands: tuple[float, float] | np.ndarray,
) -> np.ndarray:
    """One controller wakeup: trim fan commands toward the deadband edge.

    commands holds (supply, exhaust) along its last axis; the trimmed pair
    comes back in that shape.  Reading above the setpoint band (not
    negative enough) slows supply and speeds exhaust; below it the
    opposite.  Commands clamp to [0, 1].  The rule is elementwise:
    simulate_scenario passes one reading and one command pair per room,
    and one array per room for cfg's setpoint_pa, gain and deadband_pa.

    The correction is gain times the error less its clip to the deadband,
    which is gain * (error - copysign(deadband, error)) outside the band
    and 0.0 inside it.  Under a negative setpoint, as ControllerConfig
    requires, the error is never -0.0, and the two forms are equal bit
    for bit.
    """
    error = np.subtract(measured_pa, cfg.setpoint_pa)
    inside = np.minimum(np.maximum(error, -cfg.deadband_pa), cfg.deadband_pa)
    correction = cfg.gain * (error - inside)
    return np.minimum(1.0, np.maximum(0.0, commands + correction[..., None] * _TRIM_SIGNS))


def balanced_fans(room: RoomConfig) -> tuple[float, float]:
    """Supply and exhaust speeds whose steady flows hold the room exactly at
    its setpoint.

    Raises WiringError when the setpoint needs a speed outside [0, 1].
    """
    shift = room.leak_coeff_m3ps_per_pa * room.controller.setpoint_pa / (2.0 * room.fans.max_flow_m3ps)
    if not abs(shift) <= 0.5:  # a NaN shift fails here too
        raise WiringError(
            f"room {room.name!r}: setpoint {room.controller.setpoint_pa} Pa "
            "exceeds what its fans can hold"
        )
    return 0.5 + shift, 0.5 - shift


def _port_offsets(attack: AttackPlan, chain: str) -> tuple[float, float]:
    """(low, high) reading bias for one sensing chain."""
    if attack.placement == "none":
        return 0.0, 0.0
    if attack.affects != "both" and attack.affects != chain:
        return 0.0, 0.0
    if attack.placement == "low_port":
        return attack.forged_pa, 0.0
    return 0.0, attack.forged_pa


def horizon_periods(horizon_s: float, period_s: float, n_rooms: int) -> int:
    """Control periods a run of horizon_s covers, rounded to the nearest.

    Raises ValueError, with a message naming what the horizon must do, when
    that is under MIN_HORIZON_PERIODS or, across n_rooms rooms, over
    MAX_ROOM_PERIODS.
    """
    periods = horizon_s / period_s
    if not periods * n_rooms <= MAX_ROOM_PERIODS:
        raise ValueError(
            f"must cover at most {MAX_ROOM_PERIODS} control periods across all rooms, "
            f"got {periods:.3g} periods of {period_s:g} s for {n_rooms} room(s)"
        )
    # A negative horizon covers no period; max() also keeps -inf from round().
    n_periods = int(round(max(periods, 0.0)))
    if n_periods < MIN_HORIZON_PERIODS:
        raise ValueError(
            f"must cover at least {MIN_HORIZON_PERIODS} control periods of {period_s:g} s"
        )
    return n_periods


def _period_maps(rooms: tuple[RoomConfig, ...], period_s: float) -> np.ndarray:
    """(rooms, 3, 5) maps, one per room, from (x, supply, exhaust,
    supply_cmd, exhaust_cmd) at one wakeup to (x, supply, exhaust) at the
    next, x being p - hallway.

    One substep freezes the fan flows while the room pressure relaxes
    exponentially toward the balance point they define, then moves each
    fan speed its exact first-order step toward its command.  The period
    is SUBSTEPS_PER_PERIOD such substeps, so each map is a matrix power,
    taken once over the stack of every room's substep matrix.
    """
    dt_sub = period_s / SUBSTEPS_PER_PERIOD
    step = np.zeros((len(rooms), 5, 5))
    for i, room in enumerate(rooms):
        decay_room = math.exp(-dt_sub / room.pressure_time_constant_s)
        decay_fan = math.exp(-dt_sub / room.fans.time_constant_s)
        # Balance point per unit of supply-minus-exhaust speed, times the
        # share of the gap the pressure closes in one substep.
        drive = room.fans.max_flow_m3ps / room.leak_coeff_m3ps_per_pa * (1.0 - decay_room)
        step[i, 0, :3] = decay_room, drive, -drive
        step[i, 1, 1] = step[i, 2, 2] = decay_fan
        step[i, 1, 3] = step[i, 2, 4] = 1.0 - decay_fan
    step[:, 3, 3] = step[:, 4, 4] = 1.0
    # Contiguous, as einsum's summation order may follow the layout.
    return np.ascontiguousarray(np.linalg.matrix_power(step, SUBSTEPS_PER_PERIOD)[:, :3])


def simulate_scenario(scenario: NprScenario) -> SimulationTrace:
    """Run the closed loop over the scenario's horizon and return its
    per-period trace.

    Between controller wakeups each room is linear in five values: its
    differential to the hallway, its two fan speeds and its two fan
    commands.  Each substep is an exact step of a frozen-flow room and a
    first-order fan lag (see _period_maps), so one control period is the
    SUBSTEPS_PER_PERIOD-th power of the substep matrix, taken once over
    the stack of every room's.  Each period one controller_step call trims
    every room's command pair from its reading, then one product advances
    every room to the next wakeup.

    The five values are stepped as deviations from the room's balance
    point: the setpoint, with the balanced fan speeds as both speeds and
    commands.  The period map is linear and holds that point, so a zero
    deviation maps to exactly zero, and a quiet room holds its setpoint
    to the bit; stepping absolute values would let rounding drift it.
    The controller reads balance + deviation, and balance is subtracted
    from the commands it returns.  Recorded rows are balance + deviation.

    The period map does not change with time, so once a period leaves
    the whole deviation (differentials, speeds and commands of every
    room) bit for bit as it found it, every later period would too.  The
    loop then stops and copies that row to the end of the horizon; the
    trace is the one stepping every period would give.  The bytes are
    compared, not the values, so 0.0 and -0.0 count as different.

    Convergence means the pressure slope stayed under
    STEADY_SLOPE_PA_PER_S for STEADY_HOLD_S; a run that never gets there
    is returned with converged False rather than raised.
    """
    horizon = scenario.horizon_s
    period = scenario.control_period_s
    rooms = scenario.rooms
    n_rooms = len(rooms)
    try:
        n_periods = horizon_periods(horizon, period, n_rooms)
    except ValueError as exc:
        raise ValueError(f"horizon of {horizon:g} s {exc}") from None
    attack = scenario.wiring.attack
    hall = scenario.hallway_pa

    # Per room: x = p - hallway, supply, exhaust, supply_cmd, exhaust_cmd.
    balance = np.empty((n_rooms, 5))
    deviation = np.zeros((n_rooms, 5))
    for i, room in enumerate(rooms):
        balance[i, 0] = room.controller.setpoint_pa
        balance[i, 1:3] = balanced_fans(room)
        if room.initial_pressure_pa is not None:
            deviation[i, 0] = room.initial_pressure_pa - hall - balance[i, 0]
    balance[:, 3:] = balance[:, 1:3]
    period_maps = _period_maps(rooms, period)
    gains = SimpleNamespace(**{
        name: np.array([getattr(room.controller, name) for room in rooms])
        for name in ("setpoint_pa", "gain", "deadband_pa")
    })

    n_rows = n_periods + 1
    times = np.arange(n_rows) * period
    # true differential, supply and exhaust speed, one row per wakeup
    rows = np.empty((3, n_rows, n_rooms))

    hvac_low, hvac_high = _port_offsets(attack, "hvac")
    if scenario.wiring.separate_rpm:
        rpm_low, rpm_high = _port_offsets(attack, "rpm")
    else:
        rpm_low, rpm_high = hvac_low, hvac_high
    # One of the two offsets is always 0.0, so x + (low - high) is
    # (x + low) - high to the bit.
    hvac_shift = hvac_low - hvac_high
    for k in range(n_rows):
        state = balance + deviation
        rows[:, k] = state[:, :3].T
        if k == n_periods:
            break
        before = deviation.tobytes()
        # The reading is recomputed from the recorded rows below, to the bit.
        commands = controller_step(gains, state[:, 0] + hvac_shift, state[:, 3:])
        np.subtract(commands, balance[:, 3:], out=deviation[:, 3:])
        deviation[:, :3] = np.einsum("rij,rj->ri", period_maps, deviation)
        if deviation.tobytes() == before:
            # A fixed point: every later period maps this deviation to itself.
            rows[:, k + 1:] = rows[:, k:k + 1]
            break
    true_pd, sup_trace, exh_trace = rows
    meas_hvac = true_pd + hvac_shift
    meas_rpm = true_pd + rpm_low - rpm_high

    # A room whose reading never passes the threshold keeps its alarm down.
    alarm_active = np.zeros((n_rows, n_rooms), dtype=bool)
    tripped = np.abs(meas_rpm - gains.setpoint_pa) > scenario.alarm.threshold_pa
    for i in np.flatnonzero(tripped.any(axis=0)).tolist():
        alarm_active[:, i] = rpm_alarm(times, meas_rpm[:, i], rooms[i].controller.setpoint_pa,
                                       scenario.alarm)
    # An event is a row where a room's flag differs from the row before;
    # every flag starts the run down.
    names = tuple(r.name for r in rooms)
    events = sorted(
        (AlarmEvent(float(times[k]), names[i], "raised" if alarm_active[k, i] else "cleared")
         for k, i in zip(*np.nonzero(np.diff(alarm_active, axis=0, prepend=False)))),
        key=lambda e: (e.time_s, e.room),
    )

    hold_rows = max(1, int(math.ceil(STEADY_HOLD_S / period)))
    converged = False
    if n_rows > hold_rows:
        slopes = np.abs(np.diff(true_pd[-(hold_rows + 1):], axis=0)) / period
        converged = bool(np.all(slopes < STEADY_SLOPE_PA_PER_S))

    return SimulationTrace(
        times_s=times,
        true_pd_pa=true_pd,
        measured_hvac_pa=meas_hvac,
        measured_rpm_pa=meas_rpm,
        supply_speed=sup_trace,
        exhaust_speed=exh_trace,
        alarm_active=alarm_active,
        alarm_events=events,
        converged=converged,
        room_names=names,
        hallway_pa=hall,
    )


def rpm_alarm(
    times_s: np.ndarray,
    measured_pa: np.ndarray,
    setpoint_pa: float,
    cfg: AlarmConfig,
) -> np.ndarray:
    """The monitor's alarm state per row of one room's measured series.

    Returns a boolean array, True on the rows where the alarm is raised.
    It is raised on the row where the deviation from setpoint has exceeded
    the threshold continuously for the dwell, and cleared on the first row
    where it falls back under 90% of the threshold, so a reading
    chattering right at the limit does not retrigger.

    The series is read by episode, not by row: for each run of rows above
    the threshold, the row its dwell is met, and the first later row under
    90% of the threshold, where the next run may begin.
    """
    times = np.asarray(times_s, dtype=float)
    series = np.asarray(measured_pa, dtype=float)
    if times.shape != series.shape or times.ndim != 1:
        raise ValueError("times and measured series must be 1-D and equal length")
    deviation = np.abs(series - setpoint_pa)
    # Rows under 90% of the threshold, where a raised alarm clears.
    clear_rows = np.flatnonzero(deviation < 0.9 * cfg.threshold_pa)
    # The first row of each run of rows above the threshold, and the row
    # that ends it (or the row count): where the flag, padded with False
    # on both sides, changes.
    above = np.zeros(times.size + 2, dtype=bool)
    np.greater(deviation, cfg.threshold_pa, out=above[1:-1])
    edges = np.flatnonzero(above[1:] != above[:-1])
    run_starts, run_ends = edges[::2], edges[1::2]
    flags = np.zeros(times.size, dtype=bool)
    # A run that starts while an alarm is up ends before the row it clears
    # on, which is not above the threshold, so flagging it again from its
    # own raise row to that clear row changes nothing.
    for start, end in zip(run_starts.tolist(), run_ends.tolist()):
        run_times = times[start:end]
        late = np.flatnonzero(run_times - run_times[0] >= cfg.dwell_s)
        if not late.size:
            continue
        raised = start + int(late[0])
        after = int(np.searchsorted(clear_rows, raised, side="right"))
        if after == clear_rows.size:
            flags[raised:] = True
            break
        flags[raised:int(clear_rows[after])] = True
    return flags
