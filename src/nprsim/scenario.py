"""Declarative scenario files.

A scenario is one YAML document describing rooms, sensing chains, the
attack, and optionally a countermeasure.  Loading is strict: every key
is checked, unknown keys are rejected, and each problem is reported with
the line it came from so a config typo never turns into a silently
different simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .acoustics import AcousticSource
from .countermeasures import (
    COUNTERMEASURE_KINDS,
    AcousticAttackSetup,
    Countermeasure,
    countermeasure_from,
)
from .plant import (
    ATTACK_PLACEMENTS,
    ATTACK_TARGETS,
    AlarmConfig,
    AttackPlan,
    ControllerConfig,
    DpsBinding,
    FanSpec,
    NprScenario,
    PortWiring,
    RoomConfig,
    WiringError,
    balanced_fans,
    horizon_periods,
)
from .sensor import REFERENCE_TUBE_ID_M, YAML_LOADER, TubeAssembly, archetype
from .waveform import SegmentSchedule, forged_pressure_estimate

_LINES_KEY = "__lines__"
_LINE_KEY = "__line__"


class ScenarioError(ValueError):
    """All problems found in a scenario file, each tagged with its line."""

    def __init__(self, messages: list[str]):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))


class _LineLoader(YAML_LOADER):
    """Safe loader that records the source line of every mapping key."""

    def construct_mapping(self, node, deep=False):
        mapping = {}
        lines = {}
        for key_node, value_node in node.value:
            key = self.construct_object(key_node, deep=True)
            if not isinstance(key, str):
                raise yaml.MarkedYAMLError(
                    problem=f"mapping keys must be strings, got {key!r}",
                    problem_mark=key_node.start_mark,
                )
            if key in mapping:
                raise yaml.MarkedYAMLError(
                    problem=f"duplicate key {key!r}",
                    problem_mark=key_node.start_mark,
                )
            mapping[key] = self.construct_object(value_node, deep=True)
            lines[key] = key_node.start_mark.line + 1
        mapping[_LINES_KEY] = lines
        mapping[_LINE_KEY] = node.start_mark.line + 1
        return mapping


_TYPES = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "map": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
}


def _finite_float(value: int | float) -> float | None:
    """value as a float, or None when it is not finite or, as an integer
    literal, too large for a float."""
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


class _Ctx:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def error(self, line: int, path: str, message: str) -> None:
        self.errors.append(f"line {line}: {path}: {message}")


class _Map:
    """One mapping section under validation."""

    def __init__(self, ctx: _Ctx, raw: dict, path: str):
        self.ctx = ctx
        self.raw = raw
        self.path = path
        self.lines: dict = raw.get(_LINES_KEY, {})
        self.start_line: int = raw.get(_LINE_KEY, 1)
        self._seen: set[str] = set()

    def line(self, key: str) -> int:
        return self.lines.get(key, self.start_line)

    def has(self, key: str) -> bool:
        self._seen.add(key)
        return key in self.raw

    def take(self, key: str, expect: str, default=None, required: bool = False):
        self._seen.add(key)
        if key not in self.raw:
            if required:
                self.ctx.error(self.start_line, f"{self.path}.{key}", "required key missing")
            return default
        value = self.raw[key]
        if not _TYPES[expect](value):
            self.ctx.error(self.line(key), f"{self.path}.{key}", f"expected {expect}")
            return default
        if expect == "number":
            value = _finite_float(value)
            if value is None:
                self.ctx.error(self.line(key), f"{self.path}.{key}", "must be finite")
                return default
        return value

    def number(self, key: str, default=None, required=False, minimum=None,
               maximum=None, exclusive_min=None):
        value = self.take(key, "number", default=default, required=required)
        if value is None or key not in self.raw:
            return value
        where = f"{self.path}.{key}"
        if exclusive_min is not None and value <= exclusive_min:
            self.ctx.error(self.line(key), where, f"must be > {exclusive_min}")
        if minimum is not None and value < minimum:
            self.ctx.error(self.line(key), where, f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            self.ctx.error(self.line(key), where, f"must be <= {maximum}")
        return value

    def choice(self, key: str, options: tuple[str, ...], default=None, required=False):
        value = self.take(key, "str", default=default, required=required)
        if value is not None and value not in options:
            self.ctx.error(
                self.line(key), f"{self.path}.{key}",
                f"must be one of {', '.join(options)}",
            )
            return default
        return value

    def submap(self, key: str, required: bool = False) -> _Map | None:
        value = self.take(key, "map", required=required)
        if value is None:
            return None
        return _Map(self.ctx, value, f"{self.path}.{key}")

    def close(self) -> None:
        for key in self.raw:
            if key in (_LINES_KEY, _LINE_KEY) or key in self._seen:
                continue
            self.ctx.error(self.line(key), f"{self.path}.{key}", "unknown key")


@dataclass(frozen=True)
class LoadedScenario:
    """A validated scenario plus the parts the CLI layers on top."""

    scenario: NprScenario
    attack_setup: AcousticAttackSetup | None
    countermeasure: Countermeasure | None
    source_path: Path | None = None

    def resolved(self) -> NprScenario:
        """Scenario with the acoustic attack collapsed to its forged offset."""
        if self.attack_setup is None:
            return self.scenario
        forged = forged_pressure_estimate(
            self.attack_setup.schedule,
            self.attack_setup.model,
            self.attack_setup.tube,
            self.attack_setup.source,
            target_f_hz=self.attack_setup.target_f_hz,
        )
        plan = replace(self.scenario.wiring.attack, forged_pa=forged)
        return replace(self.scenario, wiring=replace(self.scenario.wiring, attack=plan))


def _build_tube(section: _Map | None) -> TubeAssembly | None:
    if section is None:
        return None
    length = section.number("length_m", default=1.0, minimum=0.0)
    diameter = section.number("inner_diameter_m", default=REFERENCE_TUBE_ID_M,
                              exclusive_min=0.0)
    pickup = section.take("pickup_device", "bool", default=False)
    section.close()
    if section.ctx.errors:
        return None
    return TubeAssembly(length_m=length, inner_diameter_m=diameter, pickup_device=pickup)


def _build_binding(section: _Map | None, ctx: _Ctx) -> DpsBinding | None:
    if section is None:
        return None
    part = section.take("archetype", "str", required=True)
    damping = section.number("damping_ratio", default=None, minimum=0.0)
    tube = _build_tube(section.submap("tube"))
    section.close()
    if part is None:
        return None
    try:
        model = archetype(part)
    except (KeyError, ValueError) as exc:
        ctx.error(section.line("archetype"), f"{section.path}.archetype", str(exc))
        return None
    if damping is not None:
        model = model.with_damping(damping)
    return DpsBinding(model=model, tube=tube)


def _build_schedule(section: _Map, ctx: _Ctx) -> SegmentSchedule | None:
    band = section.take("band_hz", "list", required=True)
    duration = section.number("duration_s", required=True, exclusive_min=0.0)
    interval = section.number("interval_s", required=True, exclusive_min=0.0)
    cycles: int | tuple[int, ...] | None = None
    if section.has("cycles"):
        raw_cycles = section.raw["cycles"]
        if isinstance(raw_cycles, int) and not isinstance(raw_cycles, bool):
            cycles = raw_cycles
        elif (isinstance(raw_cycles, list) and raw_cycles
              and all(isinstance(c, int) and not isinstance(c, bool) for c in raw_cycles)):
            cycles = tuple(raw_cycles)
        else:
            ctx.error(section.line("cycles"), f"{section.path}.cycles",
                      "expected an integer or a list of integers")
    scale = section.number("amplitude_scale", default=SegmentSchedule.amplitude_scale,
                           exclusive_min=0.0, maximum=1.0)
    fade = section.number("fade_in_s", default=SegmentSchedule.fade_in_s,
                          minimum=0.0, maximum=0.001)
    section.close()
    band_ok = isinstance(band, list) and len(band) == 2 and all(map(_TYPES["number"], band))
    if band_ok and None in map(_finite_float, band):
        ctx.error(section.line("band_hz"), f"{section.path}.band_hz", "must be finite")
        return None
    if not band_ok or band[0] >= band[1]:
        ctx.error(section.line("band_hz"), f"{section.path}.band_hz",
                  "expected [low_hz, high_hz] with low < high")
        return None
    if duration is None or interval is None or ctx.errors:
        return None
    try:
        return SegmentSchedule(
            band_hz=(float(band[0]), float(band[1])),
            duration_s=duration,
            interval_s=interval,
            cycles=cycles,
            amplitude_scale=scale,
            fade_in_s=fade,
        )
    except ValueError as exc:
        ctx.error(section.start_line, section.path, str(exc))
        return None


def _build_countermeasure(section: _Map | None, ctx: _Ctx) -> Countermeasure | None:
    if section is None:
        return None
    kind = section.choice("kind", COUNTERMEASURE_KINDS, required=True)
    length = section.number("tube_length_m", exclusive_min=0.0)
    loss = section.number("extra_loss_db", minimum=0.0)
    cutoff = section.number("cutoff_hz", exclusive_min=0.0)
    order = section.take("order", "int")
    setpoint = section.number("setpoint_pa")
    section.close()
    if kind is None or ctx.errors:
        return None
    try:
        return countermeasure_from(
            kind, tube_length_m=length, extra_loss_db=loss,
            cutoff_hz=cutoff, order=order, setpoint_pa=setpoint,
        )
    except ValueError as exc:
        ctx.error(section.start_line, section.path, str(exc))
        return None


def parse_scenario(text: str, source_path: Path | None = None) -> LoadedScenario:
    """Validate a YAML scenario document and build the runtime objects."""
    ctx = _Ctx()
    try:
        raw = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = (mark.line + 1) if mark is not None else 1
        problem = getattr(exc, "problem", None) or str(exc)
        raise ScenarioError([f"line {line}: {problem}"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(["line 1: top level must be a mapping"])

    top = _Map(ctx, raw, "scenario")
    horizon = top.number("horizon_s", default=NprScenario.horizon_s, exclusive_min=0.0)
    hallway = top.number("hallway_pa", default=NprScenario.hallway_pa)

    controller = top.submap("controller")
    gain = ControllerConfig.gain
    period = ControllerConfig.control_period_s
    deadband = ControllerConfig.deadband_pa
    if controller is not None:
        gain = controller.number("gain", default=gain, exclusive_min=0.0)
        period = controller.number("control_period_s", default=period, exclusive_min=0.0)
        deadband = controller.number("deadband_pa", default=deadband, minimum=0.0)
        controller.close()
    fans = top.submap("fans")
    max_flow, fan_tau = FanSpec.max_flow_m3ps, FanSpec.time_constant_s
    if fans is not None:
        max_flow = fans.number("max_flow_m3ps", default=max_flow, exclusive_min=0.0)
        fan_tau = fans.number("time_constant_s", default=fan_tau, exclusive_min=0.0)
        fans.close()

    alarm_map = top.submap("alarm")
    threshold, dwell = AlarmConfig.threshold_pa, AlarmConfig.dwell_s
    if alarm_map is not None:
        threshold = alarm_map.number("threshold_pa", default=threshold, exclusive_min=0.0)
        dwell = alarm_map.number("dwell_s", default=dwell, minimum=0.0)
        alarm_map.close()

    rooms_raw = top.take("rooms", "list", required=True)
    room_configs: list[RoomConfig] = []
    if rooms_raw is not None:
        if not rooms_raw:
            ctx.error(top.line("rooms"), "scenario.rooms", "needs at least one room")
        for index, entry in enumerate(rooms_raw):
            path = f"scenario.rooms[{index}]"
            if not isinstance(entry, dict):
                ctx.error(top.line("rooms"), path, "expected a mapping")
                continue
            room = _Map(ctx, entry, path)
            name = room.take("name", "str", default=f"room{index}")
            setpoint = room.number("setpoint_pa", default=ControllerConfig.setpoint_pa)
            volume = room.number("volume_m3", default=RoomConfig.volume_m3, exclusive_min=0.0)
            leak = room.number("leak_coeff_m3ps_per_pa",
                               default=RoomConfig.leak_coeff_m3ps_per_pa, exclusive_min=0.0)
            initial = room.number("initial_pressure_pa", default=RoomConfig.initial_pressure_pa)
            room.close()
            if setpoint is not None and setpoint >= 0.0:
                ctx.error(room.line("setpoint_pa"), f"{path}.setpoint_pa",
                          "negative-pressure setpoint required")
                continue
            if ctx.errors:
                continue
            room_config = RoomConfig(
                name=name,
                controller=ControllerConfig(
                    setpoint_pa=setpoint, gain=gain,
                    control_period_s=period, deadband_pa=deadband,
                ),
                volume_m3=volume,
                leak_coeff_m3ps_per_pa=leak,
                fans=FanSpec(max_flow_m3ps=max_flow, time_constant_s=fan_tau),
                initial_pressure_pa=initial,
            )
            try:
                balanced_fans(room_config)
            except WiringError as exc:
                ctx.error(room.line("setpoint_pa"), f"{path}.setpoint_pa", str(exc))
                continue
            room_configs.append(room_config)

    # simulate_scenario's own rule, so every horizon accepted here runs.
    if horizon > 0.0 and period > 0.0:
        try:
            horizon_periods(horizon, period, max(1, len(rooms_raw or ())))
        except ValueError as exc:
            ctx.error(top.line("horizon_s"), "scenario.horizon_s", str(exc))

    sensors = top.submap("sensors")
    hvac = rpm = None
    if sensors is not None:
        hvac = _build_binding(sensors.submap("hvac"), ctx)
        rpm = _build_binding(sensors.submap("rpm"), ctx)
        sensors.close()

    wiring_map = top.submap("wiring")
    common_high = False
    if wiring_map is not None:
        common_high = wiring_map.take("common_high_port", "bool", default=False)
        wiring_map.close()

    attack_map = top.submap("attack")
    placement, affects, target_f = AttackPlan.placement, AttackPlan.affects, None
    forged: float | None = None
    source_map = schedule_map = None
    if attack_map is not None:
        placement = attack_map.choice("placement", ATTACK_PLACEMENTS, default=placement)
        affects = attack_map.choice("affects", ATTACK_TARGETS, default=affects)
        forged = attack_map.number("forged_pa", minimum=0.0)
        target_f = attack_map.number("target_f_hz", exclusive_min=0.0)
        source_map = attack_map.submap("source")
        schedule_map = attack_map.submap("schedule")
        attack_map.close()
        if (source_map is None) != (schedule_map is None):
            ctx.error(attack_map.start_line, "scenario.attack",
                      "source and schedule must be declared together")
        if forged is not None and source_map is not None:
            ctx.error(attack_map.start_line, "scenario.attack",
                      "give either forged_pa or an acoustic source, not both")
        if placement != "none" and forged is None and source_map is None:
            ctx.error(attack_map.start_line, "scenario.attack",
                      "an attack placement needs forged_pa or a source")

    attack_setup = None
    if source_map is not None and schedule_map is not None:
        schedule = _build_schedule(schedule_map, ctx)
        spl = source_map.number("spl_db", required=True, minimum=0.0, maximum=140.0)
        ref_d = source_map.number("ref_distance_m", required=True, exclusive_min=0.0)
        pos_d = source_map.number("position_distance_m", required=True, exclusive_min=0.0)
        source_map.close()
        if hvac is None:
            ctx.error(attack_map.start_line, "scenario.attack",
                      "an acoustic attack needs sensors.hvac to aim at")
        elif schedule is not None and spl is not None and not ctx.errors:
            tone = target_f if target_f is not None else schedule.target_hz()
            source = AcousticSource(
                spl_db=spl, ref_distance_m=ref_d, position_distance_m=pos_d,
                tone_hz=tone,
            )
            try:
                attack_setup = AcousticAttackSetup(
                    model=hvac.model, tube=hvac.tube, source=source,
                    schedule=schedule, placement=placement, affects=affects,
                    target_f_hz=target_f,
                )
            except ValueError as exc:
                ctx.error(attack_map.start_line, "scenario.attack", str(exc))

    countermeasure = _build_countermeasure(top.submap("countermeasure"), ctx)
    top.close()

    if ctx.errors:
        raise ScenarioError(ctx.errors)

    try:
        plan = AttackPlan(
            placement=placement,
            forged_pa=forged if forged is not None else AttackPlan.forged_pa,
            affects=affects,
        )
        scenario = NprScenario(
            rooms=tuple(room_configs),
            wiring=PortWiring(hvac=hvac, rpm=rpm, common_high_port=common_high, attack=plan),
            alarm=AlarmConfig(threshold_pa=threshold, dwell_s=dwell),
            hallway_pa=hallway,
            horizon_s=horizon,
        )
    except (ValueError, WiringError) as exc:
        raise ScenarioError([f"line 1: scenario: {exc}"]) from exc

    return LoadedScenario(
        scenario=scenario,
        attack_setup=attack_setup,
        countermeasure=countermeasure,
        source_path=source_path,
    )


def load_scenario(path: str | Path) -> LoadedScenario:
    """parse_scenario over a file, with the path recorded for diagnostics."""
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError([f"line 1: cannot read {file_path}: {exc}"]) from exc
    return parse_scenario(text, source_path=file_path)
