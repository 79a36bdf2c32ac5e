"""Declarative scenario files and the sensor archetype table.

A scenario is one YAML document describing rooms, sensing chains, the
attack, and optionally a countermeasure.  Loading is strict, and each
problem is reported with the line it came from, so a config typo never
turns into a silently different simulation.

A section's keys are its dataclass's fields, less or plus the few the
loader withholds or adds where it reads the section.  It checks what a
YAML document can get wrong: required keys (fields without a default),
unknown keys, and each value's type and finiteness, each on its key's
line.  Each section is then built as its dataclass from the keys present,
so an omitted key takes the dataclass's default and every value rule is
the dataclass's own.  The first rule a section breaks is reported on the
section's first line.

The archetype table is read by the same rules: each record of its
sensors list is a DpsModel section.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .acoustics import AcousticSource
from .countermeasures import Countermeasure
from .plant import (
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
from .sensor import DpsModel, Transducer, TubeAssembly, _field_schema
from .waveform import SegmentSchedule

_LINES_KEY = "__lines__"
_LINE_KEY = "__line__"

_ARCHETYPE_ENV = "NPRSIM_ARCHETYPES"
# The packaged table, as an absolute path string: a cached lookup builds no path.
_DEFAULT_ARCHETYPES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "data", "archetypes.yaml")
_ARCHETYPE_CACHE: dict[str, dict[str, DpsModel]] = {}


class ScenarioError(ValueError):
    """All problems found in a scenario file or an archetype table, each
    tagged with its line."""

    def __init__(self, messages: list[str]):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))


# libyaml's parser where PyYAML was built with it, the pure-Python one
# otherwise; both resolve and construct the same values.
class _LineLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that records the source line of every mapping key, under
    two keys of its own that a document may not use."""

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
            if key in mapping or key in (_LINES_KEY, _LINE_KEY):
                raise yaml.MarkedYAMLError(
                    problem=f"{'duplicate' if key in mapping else 'reserved'} key {key!r}",
                    problem_mark=key_node.start_mark,
                )
            mapping[key] = self.construct_object(value_node, deep=True)
            lines[key] = key_node.start_mark.line + 1
        mapping[_LINES_KEY] = lines
        mapping[_LINE_KEY] = node.start_mark.line + 1
        return mapping

    def construct_yaml_int(self, node):
        """An integer, or a YAML error on its line when the literal is past
        the digit limit of Python's int()."""
        try:
            return super().construct_yaml_int(node)
        except ValueError as exc:
            raise yaml.MarkedYAMLError(
                problem=f"integer literal of more than {sys.get_int_max_str_digits()} digits",
                problem_mark=node.start_mark,
            ) from exc


_LineLoader.add_constructor("tag:yaml.org,2002:int", _LineLoader.construct_yaml_int)


def _read_mapping(text: str) -> dict:
    """The mapping the YAML document text holds; a YAML error, or a
    document that is not a mapping, raises ScenarioError on its line."""
    try:
        raw = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = (mark.line + 1) if mark is not None else 1
        problem = getattr(exc, "problem", None) or str(exc)
        raise ScenarioError([f"line {line}: {problem}"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(["line 1: top level must be a mapping"])
    return raw


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_float(value: int | float) -> float | None:
    """value as a float, or None when it is not finite or, as an integer
    literal, too large for a float."""
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _finite_band(band: list) -> tuple[float, float] | None:
    low, high = map(_finite_float, band)
    return None if low is None or high is None else (low, high)


def _maps(value) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(e, dict) for e in value)


# Each kind of value a document may hold, keyed by the field annotation it
# fills or, for a shape no annotation names, by the shape's name: the
# value's check, the error's words when it fails, and what the value
# becomes (None: as it is; a conversion to None: not finite).
_TYPES = {
    "float": (_is_number, "expected number", _finite_float),
    "float | None": (_is_number, "expected number", _finite_float),
    "int": (_is_int, "expected int", None),
    "bool": (lambda v: isinstance(v, bool), "expected bool", None),
    "str": (lambda v: isinstance(v, str), "expected str", None),
    "Transducer": (lambda v: isinstance(v, str) and v in {t.value for t in Transducer},
                   f"expected one of {[t.value for t in Transducer]}", Transducer),
    "tuple[float, float]": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
                            "expected [low_hz, high_hz]", _finite_band),
    "int | tuple[int, ...] | None": (
        lambda v: _is_int(v) or (isinstance(v, list) and bool(v) and all(map(_is_int, v))),
        "expected an integer or a list of integers",
        lambda v: tuple(v) if isinstance(v, list) else v),
    "map": (lambda v: isinstance(v, dict), "expected map", None),
    "rooms": (_maps, "expected a list of at least one room mapping", None),
    "sensors": (_maps, "expected a list of at least one sensor mapping", None),
}


class _Map:
    """One mapping section of the document under validation.

    It checks only what YAML can get wrong, each problem on its key's
    line: required keys, unknown keys, and each value's type and
    finiteness.  construct builds the section's dataclass, whose own
    rules decide the values; the first it breaks is reported on the
    section's first line.  A section with a problem of its own or in a
    subsection is not built, so no value is reported twice.
    """

    def __init__(self, errors: list[str], raw: dict, path: str, parent: _Map | None = None):
        self.errors = errors
        self.raw = raw
        self.path = path
        self.parent = parent
        self.lines: dict = raw.get(_LINES_KEY, {})
        self.start_line: int = raw.get(_LINE_KEY, 1)
        self.ok = True
        self._seen: set[str] = set()

    def error(self, key: str | None, message: str) -> None:
        """Record message on key's line, or on the section's first line
        when key is None or absent."""
        where = self.path if key is None else f"{self.path}.{key}"
        self.errors.append(f"line {self.lines.get(key, self.start_line)}: {where}: {message}")
        section = self
        while section is not None:
            section.ok = False
            section = section.parent

    def take(self, key: str, expect: str, required: bool = False):
        """The value under key, checked against _TYPES[expect], which must
        hold expect; None when the key is absent or rejected."""
        check, expected, convert = _TYPES[expect]
        self._seen.add(key)
        if key not in self.raw:
            if required:
                self.error(key, "required key missing")
            return None
        if not check(self.raw[key]):
            self.error(key, expected)
            return None
        value = self.raw[key] if convert is None else convert(self.raw[key])
        if value is None:
            self.error(key, "must be finite")
        return value

    def read(self, cls, skip: tuple[str, ...] = (), **defaults) -> dict:
        """defaults, under the value of each key present that names a field
        of cls outside skip.  A field is required when neither cls nor
        defaults gives it a default."""
        taken = {key: self.take(key, annotation, required and key not in defaults)
                 for key, (annotation, required) in _field_schema(cls).items() if key not in skip}
        return {**defaults, **{key: value for key, value in taken.items() if key in self.raw}}

    def submap(self, key: str) -> _Map | None:
        value = self.take(key, "map")
        return None if value is None else _Map(self.errors, value, f"{self.path}.{key}", self)

    def close(self) -> None:
        for key in self.raw:
            if key not in (_LINES_KEY, _LINE_KEY) and key not in self._seen:
                self.error(key, "unknown key")

    def construct(self, make, /, *args, **kwargs):
        """make(*args, **kwargs) once the section is ok, else None.  A
        ValueError it raises is recorded on the section's first line."""
        if not self.ok:
            return None
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            self.error(None, str(exc))
            return None

    def build(self, cls, skip: tuple[str, ...] = (), **defaults):
        """cls from read's values, once every key is known."""
        values = self.read(cls, skip, **defaults)
        self.close()
        return self.construct(cls, **values)

    def section(self, key: str, cls, skip: tuple[str, ...] = ()):
        """build of the mapping under key, or cls() when key is absent."""
        if key not in self.raw:
            self._seen.add(key)
            return cls()
        sub = self.submap(key)
        return sub and sub.build(cls, skip)


@dataclass(frozen=True)
class LoadedScenario:
    """A validated scenario plus the countermeasure the CLI layers on top."""

    scenario: NprScenario
    countermeasure: Countermeasure | None
    source_path: Path | None = None


def _build_room(room: _Map, index: int, controller: ControllerConfig | None,
                fans: FanSpec | None) -> RoomConfig | None:
    # A room names itself, and sets the shared controller's setpoint.
    values = room.read(RoomConfig, ("controller", "fans"), name=f"room{index}")
    setpoint = room.take("setpoint_pa", "float")
    room.close()
    if controller is None or fans is None:
        return None
    config = room.construct(lambda: RoomConfig(
        **values, fans=fans, controller=replace(
            controller, setpoint_pa=controller.setpoint_pa if setpoint is None else setpoint),
    ))
    if config is None:
        return None
    try:
        balanced_fans(config)
    except WiringError as exc:
        room.error("setpoint_pa", str(exc))
        return None
    return config


def _build_binding(section: _Map | None) -> DpsBinding | None:
    if section is None:
        return None
    part = section.take("archetype", "str", required=True)
    damping = section.take("damping_ratio", "float")
    tube_map = section.submap("tube")
    tube = tube_map and tube_map.build(TubeAssembly, length_m=1.0)
    section.close()
    if not section.ok:
        return None
    try:
        model = archetype(part)
    except (KeyError, ValueError) as exc:
        section.error("archetype", exc.args[0])
        return None
    if damping is not None:
        model = section.construct(model.with_damping, damping)
    return model and DpsBinding(model=model, tube=tube)


def _build_attack(top: _Map, hvac_declared: bool) -> AttackPlan | None:
    attack = top.submap("attack")
    if attack is None:
        return AttackPlan()
    # target_f_hz pins the source's tone, which the source itself withholds;
    # amplitude_scale scales synth's audio, not the forged pressure.
    values = attack.read(AttackPlan, ("source", "schedule"))
    target_f = attack.take("target_f_hz", "float")
    plan = attack.construct(AttackPlan, **values)
    schedule_map = attack.submap("schedule")
    schedule = schedule_map and schedule_map.build(SegmentSchedule, ("amplitude_scale",))
    source_map = attack.submap("source")
    source_values = {}
    if source_map is not None:
        source_values = source_map.read(AcousticSource, ("tone_hz",))
        source_map.close()
    attack.close()

    acoustic = "source" in attack.raw
    if acoustic != ("schedule" in attack.raw):
        attack.error(None, "source and schedule must be declared together")
    if acoustic and "forged_pa" in attack.raw:
        attack.error(None, "give either forged_pa or an acoustic source, not both")
    if plan is not None and plan.placement != "none" and "forged_pa" not in attack.raw \
            and not acoustic:
        attack.error(None, "an attack placement needs forged_pa or a source")
    if acoustic and not hvac_declared:
        attack.error(None, "an acoustic attack needs sensors.hvac to aim at")
    if not attack.ok or not acoustic:
        return plan

    # The source emits the band centre, or the tone target_f_hz pins; a
    # tone the source rejects is reported on the attack's line.
    source = source_map.construct(AcousticSource, **source_values, tone_hz=schedule.target_hz())
    if target_f is not None:
        source = attack.construct(replace, source, tone_hz=target_f)
    return attack.construct(replace, plan, source=source, schedule=schedule)


def parse_scenario(text: str, source_path: Path | None = None) -> LoadedScenario:
    """Validate a YAML scenario document and build the runtime objects."""
    raw = _read_mapping(text)
    errors: list[str] = []
    top = _Map(errors, raw, "scenario")
    head = top.read(NprScenario, ("rooms", "wiring", "alarm"))
    controller = top.section("controller", ControllerConfig, ("setpoint_pa",))
    fans = top.section("fans", FanSpec)
    alarm = top.section("alarm", AlarmConfig)
    rooms_raw = top.take("rooms", "rooms", required=True) or []
    rooms = [
        _build_room(_Map(errors, entry, f"scenario.rooms[{index}]", top), index, controller, fans)
        for index, entry in enumerate(rooms_raw)
    ]

    # simulate_scenario's own rule, so every horizon accepted here runs.
    horizon = head.get("horizon_s", NprScenario.horizon_s)
    if horizon is not None and controller is not None:
        try:
            horizon_periods(horizon, controller.control_period_s, max(1, len(rooms_raw)))
        except ValueError as exc:
            top.error("horizon_s", str(exc))

    sensors = top.submap("sensors")
    hvac = rpm = None
    if sensors is not None:
        hvac = _build_binding(sensors.submap("hvac"))
        rpm = _build_binding(sensors.submap("rpm"))
        sensors.close()
    wiring = top.section("wiring", PortWiring, ("hvac", "rpm", "attack"))
    plan = _build_attack(top, sensors is not None and "hvac" in sensors.raw)
    countermeasure_map = top.submap("countermeasure")
    countermeasure = countermeasure_map and countermeasure_map.build(Countermeasure)
    top.close()

    scenario = top.construct(lambda: NprScenario(
        rooms=tuple(rooms), alarm=alarm,
        wiring=replace(wiring, hvac=hvac, rpm=rpm, attack=plan), **head,
    ))
    if errors:
        raise ScenarioError(errors)
    return LoadedScenario(
        scenario=scenario,
        countermeasure=countermeasure,
        source_path=source_path,
    )


def load_scenario(path: str | Path) -> LoadedScenario:
    """parse_scenario over a file, with the path recorded for diagnostics."""
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"line 1: cannot read {file_path}: {exc}"]) from exc
    return parse_scenario(text, source_path=file_path)


def _parse_archetypes(text: str) -> dict[str, DpsModel]:
    """{part_id: DpsModel} of an archetype table: each record of its
    sensors list is a DpsModel section, over the keys its optional defaults
    mapping gives.  Raises ScenarioError with every problem found."""
    errors: list[str] = []
    top = _Map(errors, _read_mapping(text), "archetypes")
    section = top.submap("defaults") or _Map(errors, {}, "archetypes.defaults")
    schema = _field_schema(DpsModel)
    defaults = {key: section.take(key, schema[key][0]) for key in section.raw if key in schema}
    section.close()
    records = top.take("sensors", "sensors", required=True)
    top.close()
    if errors:
        raise ScenarioError(errors)
    table: dict[str, DpsModel] = {}
    for index, record in enumerate(records):
        section = _Map(errors, record, f"archetypes.sensors[{index}]")
        model = section.build(DpsModel, **defaults)
        if model is not None and model.part_id in table:
            section.error("part_id", f"duplicate part id {model.part_id}")
        elif model is not None:
            table[model.part_id] = model
    if errors:
        raise ScenarioError(errors)
    return table


def load_archetypes() -> dict[str, DpsModel]:
    """Load the bundled (or user-supplied) sensor archetype table.

    The table is the file the NPRSIM_ARCHETYPES environment variable
    names, or else the packaged data file.  Each record of its 'sensors'
    list, over its 'defaults' mapping, holds DpsModel's fields.  Returns
    {part_id: DpsModel}; any problem with the file raises one ValueError
    that names it, then the first problem's line and key.
    """
    chosen = os.environ.get(_ARCHETYPE_ENV)
    # abspath, not resolve(): a lookup must not walk the file system.
    key = _DEFAULT_ARCHETYPES if chosen is None else os.path.abspath(chosen)
    if key in _ARCHETYPE_CACHE:
        return _ARCHETYPE_CACHE[key]
    path = Path(_DEFAULT_ARCHETYPES if chosen is None else chosen)
    try:
        table = _parse_archetypes(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: cannot read the archetype table: {exc}") from None
    except ScenarioError as exc:
        raise ValueError(f"{path}: {exc.messages[0]}") from None
    _ARCHETYPE_CACHE[key] = table
    return table


def archetype(part_id: str) -> DpsModel:
    """Look up one bundled archetype by part id."""
    table = load_archetypes()
    try:
        return table[part_id]
    except KeyError:
        raise KeyError(f"unknown archetype {part_id!r}; have {sorted(table)}") from None
