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
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .acoustics import AcousticSource
from .sensor import DpsModel, TubeAssembly, _require_finite_fields
from .waveform import SegmentSchedule, forged_pressure_estimate

HALLWAY_PA = 12.5
"""Hallway absolute gauge pressure, the datum all rooms are read against."""

ADIABATIC_BULK_MODULUS_PA = 1.4 * 101325.0
"""Stiffness of air for fast volume changes, gamma times atmospheric."""

SUBSTEPS_PER_PERIOD = 20
MIN_HORIZON_PERIODS = 10
# Ceiling on control periods times rooms in one run.  simulate_scenario
# records five float64 arrays of (periods + 1) x rooms, 400 MB at this size.
MAX_ROOM_PERIODS = 10_000_000
# Band and reach of the rest test past the horizon (see simulate_scenario): a quarter of the
# default deadband, and the 20 horizons that brought 410 of 417 still-moving sampled rooms to rest.
SETTLE_TOLERANCE_PA = 0.05
SETTLE_HORIZONS = 20

# Rooms still moving, at most this many, step one room at a time in Python
# floats, more every room at once in numpy arrays: a whole run of at most
# this many rooms, and the rooms left moving once the others rest.  The
# float loop's cost grows with the rooms, the array loop's, mostly numpy's
# per-call overhead, barely does.  On a 2-vCPU x86-64 VM a simulate_scenario
# call through the float loop took, of its time through the array loop,
# 0.36 at 4 rooms, 0.63 at 8, 0.90 at 12, 1.00 at 14, 1.14 at 16 and 1.20
# at 18 on the first rooms of the closed-loop benchmark's 100-room
# scenario, which rest within 85 periods (median of 60 alternating pairs),
# and 0.72 at 14, 0.80 at 16, 0.99 at 20 and 1.09 at 22 on rooms that never
# rest and step 20 horizons (median of 10).
FLOAT_LOOP_MAX_ROOMS = 16

ATTACK_PLACEMENTS = ("none", "low_port", "high_port", "common_high_port")
ATTACK_TARGETS = ("hvac", "rpm", "both")


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

    An acoustic plan gives source and schedule instead of forged_pa, and
    as_replay collapses it through the scenario's hvac sensor.  Its bursts
    are tuned to source.tone_hz, which countermeasure evaluation keeps
    fixed: a defense that moves the resonance is judged against the
    attack as deployed, not against an attacker who re-characterizes.
    """

    placement: str = "none"
    forged_pa: float = 0.0
    affects: str = "both"
    source: AcousticSource | None = None
    schedule: SegmentSchedule | None = None

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.placement not in ATTACK_PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.affects not in ATTACK_TARGETS:
            raise ValueError(f"unknown attack target {self.affects!r}")
        if self.forged_pa < 0.0:
            raise ValueError("forged pressure is a magnitude, must be >= 0")
        if (self.source is None) != (self.schedule is None):
            raise ValueError("an acoustic attack needs both a source and a schedule")
        if self.source is not None:
            if self.placement == "none":
                raise ValueError(f"placement must be one of {ATTACK_PLACEMENTS[1:]}")
            if self.forged_pa != 0.0:
                raise ValueError("give either forged_pa or an acoustic source, not both")


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
        if self.wiring.attack.source is not None and self.wiring.hvac is None:
            raise WiringError("an acoustic attack needs an hvac sensor to aim at")
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


def _float_max(a, b):
    """max(a, b) of two floats, without the builtin's argument parsing,
    which costs about three times this call."""
    return b if b > a else a


def _float_min(a, b):
    """min(a, b) of two floats, as _float_max is max."""
    return b if b < a else a


def _array_max(a, b):
    """np.maximum choosing as max does on a tie of signed zeros: a."""
    return np.maximum(b, a)


def _array_min(a, b):
    """np.minimum choosing as min does on a tie of signed zeros: a."""
    return np.minimum(b, a)


def _trim(setpoint, gain, deadband, reading, supply_cmd, exhaust_cmd,
          up=_float_max, down=_float_min):
    """The control law: the (supply, exhaust) commands trimmed from a reading.

    On one room's Python floats with _float_max and _float_min, or
    elementwise on arrays with _array_max and _array_min.  Both pairs
    return the first operand on a tie, as max and min do, which matters
    only between 0.0 and -0.0.  The
    correction is gain times the error less its clip to the deadband, so
    it is 0.0 inside the band and gain * (error - copysign(deadband,
    error)) outside it: under a negative setpoint, as ControllerConfig
    requires, the error is never -0.0, and the two forms are equal bit for
    bit.
    """
    error = reading - setpoint
    correction = gain * (error - down(deadband, up(-deadband, error)))
    return (down(up(supply_cmd - correction, 0.0), 1.0),
            down(up(exhaust_cmd + correction, 0.0), 1.0))


def _period_sum(p0, p1, p2, p3, p4):
    """A period map row's products with the deviation (x, supply, exhaust,
    supply_cmd, exhaust_cmd), one per term, summed in the order numpy's
    einsum sums a 5-term product, so that a trace is bit for bit the one an
    einsum over the period maps gives.  On one room's Python floats or on
    arrays.
    """
    return ((p0 + p2) + p4) + (p1 + p3)


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
    return np.linalg.matrix_power(step, SUBSTEPS_PER_PERIOD)[:, :3]


def _room_rows(maps: np.ndarray, balance: np.ndarray, state: list[float], cfg: ControllerConfig,
               shift: float, n_periods: int, steps: int, first: int,
               last: float) -> tuple[list[tuple], bool]:
    """One room's (x, supply, exhaust) rows from wakeup first on, stepped in
    Python floats up to its fixed point, and whether it came to rest.

    maps is the room's 3x5 period map, balance its (x, supply, exhaust)
    balance point and state its deviation from it at wakeup first: x,
    supply, exhaust, supply_cmd and exhaust_cmd.  The rows stop either at
    the row of the last wakeup or at the first period that leaves the
    deviation as it found it, bit for bit; that row then holds to the end
    of the horizon.  Past the last row the room steps on without rows
    while its differential stays within SETTLE_TOLERANCE_PA of that row's,
    last, which is read only when first is past the last row.
    """
    bx, bs, be = balance.tolist()
    (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4) = maps.tolist()
    setpoint, gain, deadband = cfg.setpoint_pa, cfg.gain, cfg.deadband_pa
    pack = struct.Struct("5d").pack
    x, s, e, supply_cmd, exhaust_cmd = before = tuple(state)
    rows = []
    for k in range(first, steps):
        row = (bx + x, bs + s, be + e)
        if k <= n_periods:
            rows.append(row)
            last = row[0]
        elif abs(row[0] - last) > SETTLE_TOLERANCE_PA:
            return rows, False
        supply, exhaust = _trim(setpoint, gain, deadband, row[0] + shift,
                                bs + supply_cmd, be + exhaust_cmd)
        supply_cmd, exhaust_cmd = supply - bs, exhaust - be
        x, s, e = (_period_sum(a0 * x, a1 * s, a2 * e, a3 * supply_cmd, a4 * exhaust_cmd),
                   _period_sum(b0 * x, b1 * s, b2 * e, b3 * supply_cmd, b4 * exhaust_cmd),
                   _period_sum(c0 * x, c1 * s, c2 * e, c3 * supply_cmd, c4 * exhaust_cmd))
        after = (x, s, e, supply_cmd, exhaust_cmd)
        # Values that compare equal are compared as bytes, where 0.0 and
        # -0.0 differ.
        if after == before and pack(*after) == pack(*before):
            return rows, True
        before = after
    return rows, False


def _step_stack(rows: np.ndarray, stack: tuple[np.ndarray, ...], shift: float, first: int,
                steps: int) -> tuple[int, np.ndarray] | None:
    """Step a stack of rooms at once in numpy arrays from wakeup first,
    writing their rows up to the horizon's last.

    stack holds per room, on its last axis: the deviation from the
    balance point, term j of the room's three period map rows (shaped to
    multiply deviation[j]), the balance point, the controller's setpoint,
    gain and deadband, the differential on the last row, and the room's
    index.  Returns None once a room past the last row leaves the band or
    the steps run out.  Otherwise it returns on the first period after
    which some room is at rest and the stack should shrink: past the last
    row, or once at most FLOAT_LOOP_MAX_ROOMS rooms still move.  It then
    gives the next wakeup and which rooms that period moved, and has
    copied every room's row to the end.
    """
    deviation, terms, balance, setpoint, gain, deadband, last, _ = stack
    n_periods = rows.shape[1] - 1
    bs, be = balance[1:]
    # Views that follow deviation and products as they are written in place.
    supply_cmd, exhaust_cmd = deviation[3:]
    products = np.empty(terms.shape)
    product_terms = list(products)
    before = np.empty_like(deviation)
    # Bits, not values, so that 0.0 and -0.0 differ.
    bits, before_bits = deviation.view(np.int64), before.view(np.int64)
    changed = np.empty(deviation.shape, dtype=bool)
    moved = np.empty(deviation.shape[1], dtype=bool)
    ahead = np.empty_like(balance)
    for k in range(first, steps):
        row = rows[:, k] if k <= n_periods else ahead
        np.add(balance, deviation[:3], out=row)
        if k > n_periods and np.any(np.abs(row[0] - last) > SETTLE_TOLERANCE_PA):
            return None
        np.copyto(before, deviation)
        supply, exhaust = _trim(setpoint, gain, deadband, row[0] + shift,
                                bs + supply_cmd, be + exhaust_cmd, _array_max, _array_min)
        np.subtract(supply, bs, out=supply_cmd)
        np.subtract(exhaust, be, out=exhaust_cmd)
        np.multiply(terms, deviation[:, None], out=products)
        deviation[:3] = _period_sum(*product_terms)
        np.not_equal(bits, before_bits, out=changed)
        np.logical_or.reduce(changed, axis=0, out=moved)
        n_moved = np.count_nonzero(moved)
        if n_moved < moved.size and (k >= n_periods or n_moved <= FLOAT_LOOP_MAX_ROOMS):
            if k < n_periods:
                rows[:, k + 1:] = row[:, None]
            return k + 1, moved
    return None


def _stack_rows(rows: np.ndarray, maps: np.ndarray, balance: np.ndarray, x: np.ndarray,
                rooms: tuple[RoomConfig, ...], shift: float, steps: int) -> bool:
    """Fill rows, (x, supply, exhaust) by wakeup and room, and return
    whether every room came to rest.

    maps is the (rooms, 3, 5) stack of period maps, balance the (3, rooms)
    balance point and x the rooms' starting deviations from it.  While
    more than FLOAT_LOOP_MAX_ROOMS rooms are still moving, they step at
    once in numpy arrays (_step_stack); once at most that many are, each
    steps on alone in Python floats (_room_rows).  A room rests on the
    first period that leaves its deviation as it found it, bit for bit,
    and its row is copied to the end.  The arrays cost about as much for
    one room as for a hundred, so a resting room stays in them up to the
    horizon's last row; past it no row is written, and each period steps
    only the rooms still moving.
    """
    n_periods = rows.shape[1] - 1
    deviation = np.zeros((5, x.size))
    deviation[0] = x
    moving = np.arange(x.size)
    first = 0
    if moving.size > FLOAT_LOOP_MAX_ROOMS:
        stack = (deviation, maps.transpose(2, 1, 0), balance,
                 *(np.array([getattr(room.controller, name) for room in rooms])
                   for name in ("setpoint_pa", "gain", "deadband_pa")),
                 rows[0, -1], moving)
        while stack[-1].size > FLOAT_LOOP_MAX_ROOMS:
            stop = _step_stack(rows, stack, shift, first, steps)
            if stop is None:
                return False
            first, moved = stop
            stack = tuple(a[..., moved] for a in stack)
        deviation, moving = stack[0], stack[-1]
    converged = True
    for state, i in zip(deviation.T.tolist(), moving.tolist()):
        room_rows, rested = _room_rows(maps[i], balance[:, i], state, rooms[i].controller, shift,
                                       n_periods, steps, first, float(rows[0, -1, i]))
        converged = converged and rested
        if room_rows:
            end = first + len(room_rows)
            rows[:, first:end, i] = np.array(room_rows).T
            rows[:, end:, i] = rows[:, end - 1:end, i]
    return converged


def as_replay(scenario: NprScenario) -> NprScenario:
    """The scenario with its acoustic attack collapsed to a replay: forged_pa
    set to the offset the bursts forge through the hvac sensor and tube,
    source and schedule cleared.  Any other scenario is returned as is.

    The replay takes the controller's reading over one control period T
    to be the mean rectified output over whole burst intervals, the same
    in every period.  That holds while T spans many intervals: at the
    paper's ti of 15-60 ms and T = 1 s the per-period mean spreads 1.5-6%
    of forged_pa.  A period holds floor(T/ti) or ceil(T/ti) bursts, so
    past that the per-period mean moves by one burst's share, forged_pa *
    ti / T, which the constant offset does not show."""
    plan = scenario.wiring.attack
    if plan.source is None:
        return scenario
    hvac = scenario.wiring.hvac
    forged = forged_pressure_estimate(plan.schedule, hvac.model, hvac.tube, plan.source)
    plan = replace(plan, forged_pa=forged, source=None, schedule=None)
    return replace(scenario, wiring=replace(scenario.wiring, attack=plan))


def simulate_scenario(scenario: NprScenario) -> SimulationTrace:
    """Run the closed loop over the scenario's horizon and return its
    per-period trace.

    Between controller wakeups each room is linear in five values: its
    differential to the hallway, its two fan speeds and its two fan
    commands.  Each substep is an exact step of a frozen-flow room and a
    first-order fan lag (see _period_maps), so one control period is the
    SUBSTEPS_PER_PERIOD-th power of the substep matrix.  Each period the
    control law (_trim) trims a room's command pair from its reading, then
    the period map's product (_period_sum) takes the room to the next wakeup.

    The five values are stepped as deviations from the room's balance
    point: the setpoint, with the balanced fan speeds as both speeds and
    commands.  The period map is linear and holds that point, so a zero
    deviation maps to exactly zero, and a quiet room holds its setpoint
    to the bit; stepping absolute values would let rounding drift it.
    The controller reads balance + deviation, and balance is subtracted
    from the commands it returns.  Recorded rows are balance + deviation.

    The period map does not change with time, so once a period leaves a
    room's deviation (differential, speeds and commands) bit for bit as it
    found it, every later period would too: the room's row is copied to
    the end of the horizon, and the trace is the one stepping every period
    would give.  The bytes are compared, not the values, so 0.0 and -0.0
    count as different.  Rooms never interact, so while more than
    FLOAT_LOOP_MAX_ROOMS rooms are still moving they step at once in numpy
    arrays, and at most that many step each alone in Python floats, to its
    own fixed point (see _stack_rows).  Both loops run _trim and
    _period_sum, so they agree bit for bit: numpy's elementwise operators
    round as Python floats do.

    Convergence is that rest: a room not at rest by the last row steps on
    without rows until it rests, its true differential moves more than
    SETTLE_TOLERANCE_PA from that row, or it has stepped SETTLE_HORIZONS
    horizons, at most MAX_ROOM_PERIODS across the rooms.  The run converged
    if every room rested.

    An acoustic attack runs as its replay (see as_replay).
    """
    scenario = as_replay(scenario)
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

    # Per room: the balance point of x = p - hallway, supply and exhaust,
    # and the start's deviation from it.
    balance = np.empty((3, n_rooms))
    start = np.zeros(n_rooms)
    for i, room in enumerate(rooms):
        balance[0, i] = room.controller.setpoint_pa
        balance[1:, i] = balanced_fans(room)
        if room.initial_pressure_pa is not None:
            start[i] = room.initial_pressure_pa - hall - balance[0, i]
    period_maps = _period_maps(rooms, period)

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
    # At least one period past the last row, the one that tests it for rest.
    steps = max(min(SETTLE_HORIZONS * n_periods, MAX_ROOM_PERIODS // n_rooms), n_periods + 1)
    converged = _stack_rows(rows, period_maps, balance, start, rooms, hvac_shift, steps)
    true_pd, sup_trace, exh_trace = rows
    # The reading each loop's controller saw, to the bit.
    meas_hvac = true_pd + hvac_shift
    meas_rpm = true_pd + rpm_low - rpm_high

    alarm_active = np.zeros((n_rows, n_rooms), dtype=bool)
    for i in _dwelling_rooms(times, meas_rpm, balance[0], scenario.alarm).tolist():
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


def _dwelling_rooms(times: np.ndarray, measured: np.ndarray, setpoint: np.ndarray,
                    cfg: AlarmConfig) -> np.ndarray:
    """The rooms, columns of measured, for which rpm_alarm raises the
    alarm on some row; every other room's flags stay down.

    rpm_alarm raises it in a run of rows above the threshold, on the first
    row whose time from the run's first meets the dwell.  times increase,
    and a rounded difference from one start never falls as the other time
    grows, so a run has such a row exactly when its last row does.
    """
    above = np.zeros((times.size + 2, measured.shape[1]), dtype=bool)
    np.greater(np.abs(measured - setpoint), cfg.threshold_pa, out=above[1:-1])
    # Room by room, where the padded flags change: the starts and ends of
    # each room's runs alternate.
    room, edge = np.nonzero((above[1:] != above[:-1]).T)
    starts, ends = edge[::2], edge[1::2]
    return np.unique(room[::2][times[ends - 1] - times[starts] >= cfg.dwell_s])


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
