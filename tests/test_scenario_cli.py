import contextlib
import copy
import io
import math
import re
import sys
import tempfile
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from nprsim import (
    LoadedScenario,
    ScenarioError,
    acoustics,
    archetype,
    as_replay,
    countermeasures,
    load_archetypes,
    load_scenario,
    parse_scenario,
    plant,
    sensor,
    waveform,
)
from nprsim import cli as cli_module
from nprsim.cli import MAX_SILENCE_SAMPLES, SWEEP_AXES, _num, _trace_lines, main
from nprsim.plant import (
    HALLWAY_PA,
    AlarmConfig,
    AlarmEvent,
    ControllerConfig,
    FanSpec,
    RoomConfig,
    SimulationTrace,
)
from nprsim.scenario import _LineLoader, _Map
from nprsim.sensor import REFERENCE_TUBE_ID_M

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
rooms:
  - name: iso1
    setpoint_pa: -2.5
"""


def _parse_errors(text):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    return info.value.messages


def test_minimal_document_fills_defaults():
    loaded = parse_scenario(MINIMAL)
    scenario = loaded.scenario
    assert [r.name for r in scenario.rooms] == ["iso1"]
    assert scenario.rooms[0].controller.setpoint_pa == -2.5
    assert scenario.wiring.attack.placement == "none"
    assert loaded.countermeasure is None
    assert scenario.alarm.threshold_pa > 0.0


def test_shipped_replay_scenario_carries_its_offset():
    loaded = load_scenario(SCENARIO_DIR / "replay_low_port.yaml")
    plan = loaded.scenario.wiring.attack
    assert plan.placement == "low_port"
    assert plan.forged_pa == 8.0
    # no acoustic chain here, so resolution is a no-op
    assert as_replay(loaded.scenario) is loaded.scenario


def test_acoustic_scenario_resolves_forged_magnitude():
    loaded = load_scenario(SCENARIO_DIR / "acoustic_lpf.yaml")
    assert loaded.scenario.wiring.attack.source is not None
    assert loaded.countermeasure is not None
    resolved = as_replay(loaded.scenario)
    assert resolved.wiring.attack.placement == "high_port"
    assert 20.0 < resolved.wiring.attack.forged_pa < 40.0
    assert resolved.wiring.attack.source is resolved.wiring.attack.schedule is None


def test_unknown_key_is_rejected_with_its_line():
    messages = _parse_errors(MINIMAL + "furnace: 3\n")
    assert any("furnace" in m and "line 4" in m for m in messages)
    assert _parse_errors(MINIMAL + "seed: 0\n") == ["line 4: scenario.seed: unknown key"]


def test_duplicate_key_is_rejected():
    messages = _parse_errors(MINIMAL + "seed: 1\nseed: 2\n")
    assert any("duplicate" in m.lower() for m in messages)


def test_rooms_must_be_a_nonempty_list():
    assert any("rooms" in m for m in _parse_errors("rooms: []\n"))
    assert any("rooms" in m for m in _parse_errors("seed: 1\n"))


def test_top_level_must_be_a_mapping():
    with pytest.raises(ScenarioError):
        parse_scenario("- 1\n- 2\n")


def test_setpoint_sign_is_enforced():
    bad = "rooms:\n  - name: iso1\n    setpoint_pa: 2.5\n"
    assert any("setpoint" in m for m in _parse_errors(bad))


def test_setpoint_the_fans_cannot_hold_is_rejected_with_its_line():
    deep = "fans:\n  max_flow_m3ps: 0.2\n" + MINIMAL.replace("-2.5", "-60")
    assert _parse_errors(deep) == [
        "line 5: scenario.rooms[0].setpoint_pa: room 'iso1': setpoint -60.0 Pa "
        "exceeds what its fans can hold"
    ]


_OVERFLOWING_ROOM = """\
fans:
  max_flow_m3ps: 1.0e+308
rooms:
  - name: iso1
    setpoint_pa: -1.0e+308
    leak_coeff_m3ps_per_pa: LEAK
"""


@pytest.mark.parametrize("leak, expected", [
    ("1.0e+308", "line 4: scenario.rooms[0]: room pressure time constant "
                 "volume/(bulk modulus x leak) must be > 0 and finite, got 0 s"),
    ("1.0e+300", "line 5: scenario.rooms[0].setpoint_pa: room 'iso1': setpoint -1e+308 Pa "
                 "exceeds what its fans can hold"),
], ids=["time-constant", "nan-shift"])
def test_a_room_the_plant_cannot_step_is_one_error(leak, expected, tmp_path, capsys):
    text = _OVERFLOWING_ROOM.replace("LEAK", leak)
    assert _parse_errors(text) == [expected]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"nprsim: {expected}\n"


def test_attack_needs_exactly_one_magnitude_source():
    both = MINIMAL + (
        "sensors:\n"
        "  hvac:\n"
        "    archetype: A1011-00\n"
        "attack:\n"
        "  placement: high_port\n"
        "  forged_pa: 8.0\n"
        "  source:\n"
        "    spl_db: 65.0\n"
        "    ref_distance_m: 0.002\n"
        "    position_distance_m: 0.002\n"
        "  schedule:\n"
        "    band_hz: [540, 670]\n"
        "    duration_s: 0.002\n"
        "    interval_s: 0.015\n"
    )
    assert any("forged_pa" in m for m in _parse_errors(both))

    neither = MINIMAL + "attack:\n  placement: high_port\n"
    assert _parse_errors(neither)


def test_errors_are_collected_not_first_only():
    bad = "rooms: []\nfurnace: 3\nseed: true\n"
    messages = _parse_errors(bad)
    assert len(messages) >= 3


def test_cli_reports_scenario_errors_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL + "furnace: 3\n", encoding="utf-8")
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "nprsim:" in err and "line" in err


def test_cli_simulate_writes_trace_and_summary(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", str(SCENARIO_DIR / "baseline.yaml"), "--out", str(out)])
    assert rc == 0
    trace = (out / "trace.csv").read_text(encoding="utf-8")
    assert trace.splitlines()[0].startswith("time_s,true_pd_iso1")
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "converged: yes" in summary
    assert "containment_lost: no" in summary


def test_cli_simulate_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    scenario = str(SCENARIO_DIR / "replay_low_port.yaml")
    assert main(["simulate", scenario, "--out", str(out_a)]) == 0
    assert main(["simulate", scenario, "--out", str(out_b)]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_cli_simulate_flags_nonconvergence(tmp_path):
    text = (SCENARIO_DIR / "replay_low_port.yaml").read_text(encoding="utf-8")
    short = tmp_path / "short.yaml"
    short.write_text(text.replace("horizon_s: 120", "horizon_s: 12"), encoding="utf-8")
    rc = main(["simulate", str(short), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "converged: no" in (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("period, horizon", [("1.0e-5", "0.001"),
                                             ("1.0e-310", "2.2250738585072014e-308")],
                         ids=["1ms-horizon", "subnormal-period"])
def test_a_room_at_rest_from_its_first_row_has_converged_on_any_horizon(period, horizon, tmp_path):
    """baseline.yaml holds its setpoint from the first row, so a horizon of
    100 periods of 10 us, or of 222 subnormal periods, has converged."""
    text = (SCENARIO_DIR / "baseline.yaml").read_text(encoding="utf-8").replace(
        "horizon_s: 120", f"horizon_s: {horizon}\ncontroller:\n  control_period_s: {period}")
    (tmp_path / "short.yaml").write_text(text, encoding="utf-8")
    assert main(["simulate", str(tmp_path / "short.yaml"), "--out", str(tmp_path / "out")]) == 0
    assert "converged: yes" in (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")


def test_cli_synth_writes_wav_and_report(tmp_path, capsys):
    out = tmp_path / "attack.wav"
    rc = main([
        "synth", "--silence", "1.0", "--out", str(out),
        "--band", "540", "670", "--td-ms", "2", "--ti-ms", "15",
    ])
    captured = capsys.readouterr().out
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "attack.wav.psd.txt").exists()
    assert "psd_ratio:" in captured


def test_every_text_file_the_cli_writes_has_lf_line_ends(monkeypatch, tmp_path):
    """Each text output is written with newline="\\n", or trace.csv as
    bytes, so a run on any platform writes the same bytes."""
    written = {}
    write_text = Path.write_text

    def recorded(path, data, *args, **kwargs):
        written[path.name] = kwargs.get("newline")
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", recorded)
    assert main(["simulate", str(SCENARIO_DIR / "baseline.yaml"), "--out",
                 str(tmp_path / "run")]) == 0
    trace = (tmp_path / "run" / "trace.csv").read_bytes()
    assert b"\r" not in trace and trace.endswith(b"\n")
    assert trace.count(b"\n") == 122
    assert main(["synth", "--silence", "0.5", "--out", str(tmp_path / "attack.wav"),
                 "--band", "540", "670", "--td-ms", "2", "--ti-ms", "15"]) == 0
    assert main(["evaluate-cm", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--out",
                 str(tmp_path / "cm")]) == 0
    assert written == dict.fromkeys(
        ["summary.txt", "attack.wav.psd.txt", "report.csv", "report.txt"], "\n")


def test_cli_synth_rejects_target_outside_band(tmp_path, capsys):
    rc = main([
        "synth", "--silence", "1.0", "--out", str(tmp_path / "x.wav"),
        "--band", "540", "670", "--td-ms", "2", "--ti-ms", "15",
        "--target-hz", "900",
    ])
    assert rc == 2
    assert "nprsim: error:" in capsys.readouterr().err


def test_cli_characterize_finds_tube_resonance(tmp_path, capsys):
    out = tmp_path / "char.csv"
    rc = main([
        "characterize", "--archetype", "A1011-00", "--tube-length", "1.0",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[0] == "archetype"
    row = lines[1].split(",")
    assert row[0] == "A1011-00"
    assert row[-1] == "found"
    assert "found" in capsys.readouterr().out


_UNKNOWN_PART = f"unknown archetype 'NOPE-1'; have {sorted(load_archetypes())}"


def test_cli_characterize_rejects_unknown_archetype(tmp_path, capsys):
    rc = main(["characterize", "--archetype", "NOPE-1"])
    assert rc == 2
    assert capsys.readouterr().err == f"nprsim: error: {_UNKNOWN_PART}\n"


def test_a_scenario_naming_an_unknown_archetype_says_so_on_its_line(tmp_path, capsys):
    text = _LPF.replace("archetype: A1011-00", "archetype: NOPE-1")
    line = text.splitlines().index("    archetype: NOPE-1") + 1
    expected = f"line {line}: scenario.sensors.hvac.archetype: {_UNKNOWN_PART}"
    assert _parse_errors(text) == [expected]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"nprsim: {expected}\n"


def test_cli_characterize_rejects_an_oversized_grid(capsys):
    rc = main(["characterize", "--archetype", "A1011-00", "--step", "1e-5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("nprsim: error:") and captured.err.count("\n") == 1
    assert "tones" in captured.err


_AREA = "gives a cross-section that is not a positive finite area"


@pytest.mark.parametrize("diameter, message", [
    ("1e200", f"tube inner diameter of 1e+200 m {_AREA}"),
    ("1e-300", f"tube inner diameter of 1e-300 m {_AREA}"),
], ids=["overflows", "underflows"])
def test_cli_characterize_rejects_a_tube_whose_cross_section_is_0_or_overflows(
        diameter, message, capsys):
    rc = main(["characterize", "--archetype", "A1011-00", "--tube-length", "1",
               "--tube-diameter", diameter])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"nprsim: error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--lo", "500"], "--lo and --hi go together; omit both for the default band"),
    (["--hi", "900"], "--lo and --hi go together; omit both for the default band"),
    (["--tube-diameter", "0.01"], "--tube-diameter needs --tube-length"),
], ids=["lo-alone", "hi-alone", "diameter-without-tube"])
def test_cli_characterize_refuses_a_flag_it_would_drop(flags, message, tmp_path, capsys):
    """Each of these printed the row of a run without it."""
    rc = main(["characterize", "--archetype", "A1011-00", *flags, "--out",
               str(tmp_path / "char.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"nprsim: error: {message}\n"
    assert not (tmp_path / "char.csv").exists()


def test_cli_characterize_takes_no_pickup_flag(capsys):
    """A pickup is a path loss, which a resonance sweep never sees."""
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "--archetype", "A1011-00", "--tube-length", "1", "--pickup"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --pickup" in capsys.readouterr().err


def test_short_horizon_is_rejected_with_its_line(tmp_path, capsys):
    messages = _parse_errors("horizon_s: 5\n" + MINIMAL)
    assert messages == ["line 1: scenario.horizon_s: must cover at least 10 control periods of 1 s"]
    # the check uses the scenario's own control period
    assert parse_scenario("horizon_s: 5\ncontroller:\n  control_period_s: 0.5\n" + MINIMAL)
    text = (SCENARIO_DIR / "baseline.yaml").read_text(encoding="utf-8")
    short = tmp_path / "short.yaml"
    short.write_text(text.replace("horizon_s: 120", "horizon_s: 5"), encoding="utf-8")
    rc = main(["simulate", str(short), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "scenario.horizon_s" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overlong_horizon_is_rejected_with_its_line(tmp_path, capsys):
    # A ratio that overflows to infinity, and one that is finite but would
    # need petabytes of trace.
    for horizon in ("1.0e+308", "1.0e+6"):
        messages = _parse_errors(
            f"horizon_s: {horizon}\ncontroller:\n  control_period_s: 1.0e-10\n" + MINIMAL)
        assert len(messages) == 1
        assert messages[0].startswith(
            "line 1: scenario.horizon_s: must cover at most 10000000 control periods")
    # The ceiling counts every room.
    one_room = "horizon_s: 4.0e+6\n" + MINIMAL
    assert parse_scenario(one_room)
    three_rooms = one_room + "  - name: iso2\n    setpoint_pa: -2.5\n" \
        "  - name: iso3\n    setpoint_pa: -2.5\n"
    assert _parse_errors(three_rooms)[0].startswith("line 1: scenario.horizon_s: must cover at most")
    bad = tmp_path / "long.yaml"
    bad.write_text("horizon_s: 1.0e+308\ncontroller:\n  control_period_s: 1.0e-10\n" + MINIMAL,
                   encoding="utf-8")
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("nprsim: line 1: scenario.horizon_s:")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_countermeasure_parameter_of_another_kind_is_rejected_with_its_line(tmp_path, capsys):
    text = (SCENARIO_DIR / "acoustic_lpf.yaml").read_text(encoding="utf-8")
    text = text.replace("kind: lpf", "kind: long_tube\n  tube_length_m: 2.0").replace(
        "  order: 3\n", "")
    line = text.splitlines().index("  kind: long_tube") + 1
    assert _parse_errors(text) == [
        f"line {line}: scenario.countermeasure: countermeasure 'long_tube' does not use cutoff_hz"
    ]
    rc = main(["evaluate-cm", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--kind", "long_tube",
               "--tube-length", "5", "--cutoff-hz", "100", "--order", "3",
               "--setpoint-pa", "-30", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("nprsim: error: countermeasure 'long_tube' does not use "
                            "cutoff_hz, order, setpoint_pa\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [".nan", ".inf"])
def test_non_finite_countermeasure_parameter_is_rejected_with_its_line(value):
    text = (SCENARIO_DIR / "acoustic_lpf.yaml").read_text(encoding="utf-8")
    text = text.replace("kind: lpf", f"kind: enclosure\n  extra_loss_db: {value}").replace(
        "  cutoff_hz: 120.0\n", "").replace("  order: 3\n", "")
    line = text.splitlines().index(f"  extra_loss_db: {value}") + 1
    assert _parse_errors(text) == [
        f"line {line}: scenario.countermeasure.extra_loss_db: must be finite"
    ]


_HUGE = "1" + "0" * 400  # an integer literal past the largest float


@pytest.mark.parametrize("flags, message", [
    (["--kind", "enclosure", "--extra-loss-db", "nan"],
     "Countermeasure.extra_loss_db must be finite, got nan"),
    (["--kind", "lpf", "--cutoff-hz", "inf"], "Countermeasure.cutoff_hz must be finite, got inf"),
    (["--kind", "long_tube", "--tube-length", "nan"],
     "Countermeasure.tube_length_m must be finite, got nan"),
    (["--kind", "raised_setpoint", "--setpoint-pa=-inf"],
     "Countermeasure.setpoint_pa must be finite, got -inf"),
    (["--kind", "enclosure", "--extra-loss-db", "1e308"],
     "enclosure loss of 1e+308 dB gives a lag that is not finite"),
    (["--kind", "enclosure", "--extra-loss-db", "90"],
     "settling needs a window of 316 s, over the 5000000 samples a step response may hold "
     "at 48000 Hz"),
    (["--kind", "lpf", "--cutoff-hz", "1e-310"],
     "settling needs a window of inf s, over the 5000000 samples a step response may hold "
     "at 48000 Hz"),
    (["--kind", "lpf", "--cutoff-hz", "100", "--order", _HUGE],
     f"Countermeasure.order must be finite, got {_HUGE}"),
    # Fast enough to settle, but more sections than a drive holds.
    (["--kind", "lpf", "--cutoff-hz", "20000", "--order", "251"],
     "a low-pass of order 251 has more than the 250 sections a drive holds"),
], ids=["loss-nan", "cutoff-inf", "tube-nan", "setpoint-inf", "loss-overflow", "settle-ceiling",
        "cutoff-tiny", "order-huge", "order-past-the-drive"])
def test_cli_evaluate_cm_rejects_a_parameter_it_cannot_score(flags, message, tmp_path, capsys):
    rc = main(["evaluate-cm", str(SCENARIO_DIR / "acoustic_lpf.yaml"), *flags,
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"nprsim: error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, given", [
    (["--tube-length", "5"], "tube_length_m"),
    (["--extra-loss-db", "12"], "extra_loss_db"),
    (["--cutoff-hz", "5", "--order", "3"], "cutoff_hz, order"),
    (["--setpoint-pa", "-12"], "setpoint_pa"),
    (["--setpoint-pa", "-12", "--order", "3", "--cutoff-hz", "5", "--extra-loss-db", "12",
      "--tube-length", "5"], "tube_length_m, extra_loss_db, cutoff_hz, order, setpoint_pa"),
], ids=["tube-length", "extra-loss-db", "cutoff-hz-order", "setpoint-pa", "all"])
def test_cli_evaluate_cm_refuses_a_parameter_without_kind(flags, given, tmp_path, capsys):
    """Without --kind the scenario's block is scored, and a parameter
    given for another defense would change nothing."""
    rc = main(["evaluate-cm", str(SCENARIO_DIR / "acoustic_lpf.yaml"), *flags,
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"nprsim: error: {given} given without --kind\n"
    assert not (tmp_path / "out").exists()


def test_cli_evaluate_cm_refuses_a_slow_filter_before_filtering(monkeypatch, tmp_path, capsys):
    """An order whose settle window is past the ceiling exits 2 without
    driving a single settle step, or the burst train over the attack."""
    calls = [0]
    real = countermeasures.step_last_outside

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(countermeasures, "step_last_outside", counted)
    drives = _count_forged_drives(monkeypatch)
    rc = main(["evaluate-cm", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--kind", "lpf",
               "--cutoff-hz", "100", "--order", "20000", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert calls[0] == 0
    assert drives == []
    assert rc == 2
    assert captured.err == ("nprsim: error: settling needs a window of 318 s, over the 5000000 "
                            "samples a step response may hold at 48000 Hz\n")
    assert not (tmp_path / "out").exists()


def test_non_finite_band_is_rejected_with_its_line(tmp_path, capsys):
    text = (SCENARIO_DIR / "acoustic_lpf.yaml").read_text(encoding="utf-8")
    text = text.replace("band_hz: [540, 670]", "band_hz: [540, .inf]")
    line = text.splitlines().index("    band_hz: [540, .inf]") + 1
    assert _parse_errors(text) == [f"line {line}: scenario.attack.schedule.band_hz: must be finite"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "band_hz: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _with_huge(name, old, new):
    """A shipped scenario's text with old replaced by new, and the number
    of the line that now holds _HUGE."""
    text = (SCENARIO_DIR / name).read_text(encoding="utf-8").replace(old, new)
    return text, next(k for k, row in enumerate(text.splitlines(), 1) if _HUGE in row)


@pytest.mark.parametrize("name, old, new, where", [
    ("baseline.yaml", "horizon_s: 120", f"horizon_s: {_HUGE}", "horizon_s"),
    ("acoustic_lpf.yaml", "band_hz: [540, 670]", f"band_hz: [540, {_HUGE}]",
     "attack.schedule.band_hz"),
    ("acoustic_lpf.yaml", "cutoff_hz: 120.0", f"cutoff_hz: {_HUGE}", "countermeasure.cutoff_hz"),
    ("acoustic_lpf.yaml", "length_m: 1.0", f"length_m: {_HUGE}", "sensors.hvac.tube.length_m"),
], ids=["horizon_s", "band_hz", "cutoff_hz", "length_m"])
def test_a_number_too_large_for_a_float_is_rejected_with_its_line(name, old, new, where,
                                                                  tmp_path, capsys):
    text, line = _with_huge(name, old, new)
    assert _parse_errors(text) == [f"line {line}: scenario.{where}: must be finite"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"nprsim: line {line}: scenario.{where}: must be finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, header, where, field", [
    ("  order: 3", f"  order: {_HUGE}", "countermeasure:", "countermeasure",
     "Countermeasure.order"),
    ("    interval_s: 0.015", f"    interval_s: 0.015\n    cycles: {_HUGE}", "  schedule:",
     "attack.schedule", "SegmentSchedule.cycles"),
], ids=["order", "cycles"])
def test_an_integer_field_too_large_for_a_float_is_rejected_in_one_line(
        old, new, header, where, field, tmp_path, capsys):
    # The dataclass rejects it, so the error carries the line its
    # section's mapping starts on, the one after the header.
    text, _ = _with_huge("acoustic_lpf.yaml", old, new)
    line = text.splitlines().index(header) + 2
    assert _parse_errors(text) == [
        f"line {line}: scenario.{where}: {field} must be finite, got {_HUGE}"]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    rc = main(["evaluate-cm", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.count("\n") == 1


_LPF = (SCENARIO_DIR / "acoustic_lpf.yaml").read_text(encoding="utf-8")


@pytest.mark.parametrize("text, header, where, message", [
    ("controller:\n  gain: -1\n" + MINIMAL, "controller:", "controller", "gain must be > 0"),
    ("fans:\n  max_flow_m3ps: 0\n" + MINIMAL, "fans:", "fans", "fan capacity must be > 0"),
    ("alarm:\n  threshold_pa: 0\n" + MINIMAL, "alarm:", "alarm", "alarm threshold must be > 0"),
    (MINIMAL + "    volume_m3: -3\n", "rooms:", "rooms[0]", "room volume must be > 0"),
    (_LPF.replace("archetype: A1011-00", "archetype: A1011-00\n    damping_ratio: -0.1"),
     "  hvac:", "sensors.hvac", "A1011-00: damping ratio must be >= 0"),
    (_LPF.replace("length_m: 1.0", "length_m: -1.0"), "    tube:", "sensors.hvac.tube",
     "tube length must be >= 0, got -1.0"),
    (_LPF.replace("placement: high_port", "placement: sideways"), "attack:", "attack",
     "unknown placement 'sideways'"),
    (_LPF.replace("affects: both", "affects: both\n  target_f_hz: -5"), "attack:", "attack",
     "tone frequency must be > 0, got -5.0"),
    (_LPF.replace("spl_db: 65.0", "spl_db: 141"), "  source:", "attack.source",
     "SPL must be within [0, 140] dB, got 141.0"),
    (_LPF.replace("band_hz: [540, 670]", "band_hz: [670, 540]"), "  schedule:", "attack.schedule",
     "band must satisfy 0 < lower < upper, got (670.0, 540.0)"),
    (_LPF.replace("kind: lpf", "kind: magic"), "countermeasure:", "countermeasure",
     "unknown countermeasure kind 'magic'"),
], ids=["controller", "fans", "alarm", "room", "damping", "tube", "attack", "target_f_hz",
        "source", "schedule", "countermeasure"])
def test_a_value_its_dataclass_rejects_is_one_error_on_its_sections_line(
        text, header, where, message, tmp_path, capsys):
    # A section's mapping starts on the line after its header.
    line = text.splitlines().index(header) + 2
    expected = f"line {line}: scenario.{where}: {message}"
    assert _parse_errors(text) == [expected]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"nprsim: {expected}\n"
    assert not (tmp_path / "out").exists()


_PLACEMENT = "placement must be one of ('low_port', 'high_port', 'common_high_port')"


@pytest.mark.parametrize("text", [
    _LPF.replace("  placement: high_port\n", ""),
    _LPF.replace("placement: high_port", "placement: none"),
], ids=["absent", "none"])
def test_an_acoustic_attack_needs_a_port_to_aim_at(text, tmp_path, capsys):
    expected = f"line 14: scenario.attack: {_PLACEMENT}"
    assert _parse_errors(text) == [expected]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    assert main(["evaluate-cm", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"nprsim: {expected}\n"


_LPF_HVAC = "sensors:\n  hvac:\n    archetype: A1011-00\n    tube:\n      length_m: 1.0\n"


@pytest.mark.parametrize("text, message", [
    (_LPF.replace("  affects: both\n", "  affects: both\n  forged_pa: 0\n"),
     "give either forged_pa or an acoustic source, not both"),
    (_LPF.replace("  schedule:\n    band_hz: [540, 670]\n    duration_s: 0.002\n"
                  "    interval_s: 0.015\n", ""),
     "source and schedule must be declared together"),
    (MINIMAL + "attack:\n  placement: high_port\n", "an attack placement needs forged_pa or a source"),
    (_LPF.replace(_LPF_HVAC, ""), "an acoustic attack needs sensors.hvac to aim at"),
], ids=["forged-and-source", "source-alone", "neither", "no-hvac"])
def test_an_attack_missing_or_doubling_a_key_is_one_error_on_the_attacks_line(text, message):
    """Which keys an attack holds is the loader's check, so the error
    stands on the attack's own line, not the document's first."""
    line = text.splitlines().index("attack:") + 2
    assert _parse_errors(text) == [f"line {line}: scenario.attack: {message}"]


@pytest.mark.parametrize("name", sorted(path.name for path in SCENARIO_DIR.glob("*.yaml")))
def test_the_library_simulates_a_scenario_as_the_cli_does(name, tmp_path):
    """simulate_scenario on a loaded scenario runs its attack, acoustic or
    replayed, as nprsim simulate does: the same trace rows and the same
    forged offset."""
    scenario = load_scenario(SCENARIO_DIR / name).scenario
    trace = plant.simulate_scenario(scenario)
    assert main(["simulate", str(SCENARIO_DIR / name), "--out", str(tmp_path)]) in (0, 3)
    assert (_trace_lines(trace).splitlines(True)
            == (tmp_path / "trace.csv").read_bytes().splitlines(True)[1:])
    summary = (tmp_path / "summary.txt").read_text()
    assert f"converged: {'yes' if trace.converged else 'no'}\n" in summary
    plan = as_replay(scenario).wiring.attack
    assert (plan.placement == "none") == ("attack: none\n" in summary)
    if plan.placement != "none":
        assert f" forged_pa={_num(plan.forged_pa)}\n" in summary
    if name == "acoustic_lpf.yaml":
        assert _num(trace.steady_true_pd_pa()[0]) == "25.4223"
        assert "containment_lost: yes\n" in summary


def test_one_controller_is_checked_once_for_every_room():
    text = "controller:\n  deadband_pa: -1\n" + MINIMAL + "  - name: iso2\n"
    assert _parse_errors(text) == ["line 2: scenario.controller: deadband must be >= 0"]


# The values a room may give under each key, in the order the loader takes
# them: a few it holds, as often as the ends of a float's range, each side
# of the zero bound the dataclasses check and the non-finite values the
# loader refuses itself.
_ROOM_EDGES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, 5e-324, 0.0]
_ROOM_VALUES = {
    "volume_m3": [50.0, 2.5], "leak_coeff_m3ps_per_pa": [0.004, 0.01],
    "initial_pressure_pa": [-2.5, 2.5], "setpoint_pa": [-2.5, -8.0],
}


@st.composite
def _rooms_under_one_controller(draw):
    """(text, controller, rooms): a scenario whose drawn shared controller
    serves one to three rooms, and each room's (line, given keys, their
    lines).  Setpoints are drawn from few values, so rooms often repeat one."""
    controller = ControllerConfig(gain=draw(st.sampled_from([0.0025, 0.5])),
                                  deadband_pa=draw(st.sampled_from([0.0, 0.2])))
    rows = ["controller:", f"  gain: {controller.gain}", f"  deadband_pa: {controller.deadband_pa}",
            "rooms:"]
    rooms = []
    for index in range(draw(st.integers(1, 3))):
        rows.append(f"  - name: r{index}")
        line, given, lines = len(rows), {}, {}
        for key, values in _ROOM_VALUES.items():
            if draw(st.booleans()):
                given[key] = draw(st.sampled_from(values) | st.sampled_from(_ROOM_EDGES))
                rows.append(f"    {key}: {yaml.safe_dump(given[key]).splitlines()[0]}")
                lines[key] = len(rows)
        rooms.append((line, given, lines))
    return "\n".join(rows) + "\n", controller, rooms


def _rooms_or_errors(controller, rooms):
    """The rooms RoomConfig and ControllerConfig build from each room's
    values, or the errors the loader reports: a value that is not finite on
    its key's line, a dataclass's refusal on the room's line."""
    built, errors = [], []
    for index, (line, given, lines) in enumerate(rooms):
        where = f"scenario.rooms[{index}]"
        refused = [f"line {lines[key]}: {where}.{key}: must be finite" for key in _ROOM_VALUES
                   if key in given and not abs(given[key]) <= sys.float_info.max]
        errors += refused
        if refused:
            continue
        values = {key: float(value) for key, value in given.items()}
        setpoint = values.pop("setpoint_pa", controller.setpoint_pa)
        try:
            own = ControllerConfig(setpoint_pa=setpoint, gain=controller.gain,
                                   deadband_pa=controller.deadband_pa)
            room = RoomConfig(name=f"r{index}", controller=own, fans=FanSpec(), **values)
            plant.balanced_fans(room)
        except plant.WiringError as exc:
            errors.append(f"line {lines.get('setpoint_pa', line)}: {where}.setpoint_pa: {exc}")
        except ValueError as exc:
            errors.append(f"line {line}: {where}: {exc}")
        else:
            built.append(room)
    if not errors:
        try:
            plant.NprScenario(rooms=tuple(built))
        except ValueError as exc:
            errors.append(f"line 1: scenario: {exc}")
    return tuple(built), errors


@settings(max_examples=200, deadline=None)
@given(_rooms_under_one_controller())
@example(("controller:\n  gain: 0.5\nrooms:\n  - name: r0\n    setpoint_pa: -8.0\n"
          "  - name: r1\n    setpoint_pa: -8.0\n    volume_m3: 1.0e+308\n"
          "  - name: r2\n    setpoint_pa: -8.0\n",
          ControllerConfig(gain=0.5), [(4, {"setpoint_pa": -8.0}, {"setpoint_pa": 5}),
                                       (6, {"setpoint_pa": -8.0, "volume_m3": 1e308},
                                        {"setpoint_pa": 7, "volume_m3": 8}),
                                       (9, {"setpoint_pa": -8.0}, {"setpoint_pa": 10})]))
def test_each_room_is_the_room_its_values_build_under_the_shared_controller(case):
    text, controller, rooms = case
    expected, errors = _rooms_or_errors(controller, rooms)
    try:
        loaded = parse_scenario(text)
    except ScenarioError as exc:
        assert exc.messages == errors
    else:
        assert errors == [] and loaded.scenario.rooms == expected


def test_a_section_with_a_rejected_key_is_not_built_again():
    # The type error is the only one: the section's value rules do not run.
    text = "fans:\n  max_flow_m3ps: fast\n  time_constant_s: -1\n" + MINIMAL
    assert _parse_errors(text) == ["line 2: scenario.fans.max_flow_m3ps: expected number"]


@pytest.mark.parametrize("key, written, where, spelling", [
    ("duration_s", "2e-3", "attack.schedule.duration_s", "0.002"),
    ("horizon_s", "1.2e2", "horizon_s", "120.0"),
    ("spl_db", "6.5e1", "attack.source.spl_db", "65.0"),
    ("cutoff_hz", "1e+30", "countermeasure.cutoff_hz", "1.0e+30"),
], ids=["no-dot", "unsigned-exponent", "source", "signed-exponent-no-dot"])
def test_a_number_yaml_reads_as_text_is_named_with_a_spelling_it_reads(key, written, where,
                                                                       spelling, tmp_path, capsys):
    """YAML 1.1 reads a float only with a dot and a signed exponent, so 2e-3
    is text: the error says so and gives a spelling that loads the number."""
    text = re.sub(rf"(?m)^(\s*{key}): .*$", rf"\1: {written}", _LPF, count=1)
    line = next(k for k, row in enumerate(text.splitlines(), 1) if row.endswith(written))
    expected = (f"line {line}: scenario.{where}: expected number; "
                f"YAML 1.1 reads {written!r} as text, write {spelling}")
    assert _parse_errors(text) == [expected]
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"nprsim: {expected}\n"
    assert yaml.safe_load(f"{key}: {spelling}")[key] == float(written)


_LONG = "1" + "0" * 5000  # an integer literal past the digits int() converts


@pytest.mark.parametrize("name, old", [
    ("baseline.yaml", "horizon_s: 120"),
    ("acoustic_lpf.yaml", "length_m: 1.0"),
], ids=["top-level", "nested"])
def test_an_integer_literal_past_the_digit_limit_is_one_error_on_its_line(
        name, old, tmp_path, capsys):
    key = old.split(":")[0]
    text = (SCENARIO_DIR / name).read_text(encoding="utf-8").replace(old, f"{key}: {_LONG}")
    line = next(k for k, row in enumerate(text.splitlines(), 1) if _LONG in row)
    expected = f"line {line}: integer literal of more than {sys.get_int_max_str_digits()} digits"
    assert _parse_errors(text) == [expected]
    assert _loaded_or_error_line(text, _PureLineLoader) == f"line {line}"
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"nprsim: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_trace_rows_print_every_cell_as_num_does():
    """One %-format per row gives the bytes of the per-cell _num join."""
    values = np.array([
        [-0.0, 5e-324, 1e-5, 123456.5, 1e21],
        [-2.5, -1e-5, -123456.5, -1e21, 0.1 + 0.2],
        [1.0, 0.0, 1 / 3, 0.999999949999, 12.5],
        [-5e-324, 2.0**-1074, 9.999995e5, -9.999995e5, 1e-300],
    ])
    trace = SimulationTrace(
        times_s=np.array([0.0, 0.5, 1e-5, 123456.5]),
        true_pd_pa=values[:, :2], measured_hvac_pa=values[:, 1:3],
        measured_rpm_pa=values[:, 2:4], supply_speed=values[:, 3:], exhaust_speed=-values[:, :2],
        alarm_active=np.array([[False, False], [True, True], [False, True], [True, False]]),
        alarm_events=[AlarmEvent(0.5, "a", "raised"), AlarmEvent(1e-5, "b", "raised"),
                      AlarmEvent(123456.5, "b", "cleared")],
        converged=True, room_names=("a", "b"), hallway_pa=12.5,
    )
    expected = []
    for k in range(trace.times_s.size):
        row = [_num(float(trace.times_s[k]))]
        for j in range(len(trace.room_names)):
            row += [
                _num(float(trace.true_pd_pa[k, j])),
                _num(float(trace.measured_hvac_pa[k, j])),
                _num(float(trace.measured_rpm_pa[k, j])),
                _num(float(trace.supply_speed[k, j])),
                _num(float(trace.exhaust_speed[k, j])),
                str(int(trace.alarm_active[k, j])),
            ]
        expected.append(",".join(row))
    assert _trace_lines(trace).splitlines(True) == [f"{line}\n".encode() for line in expected]
    assert expected[0] == ("0,-0,4.94066e-324,1e-05,123456,0,0,"
                           "4.94066e-324,1e-05,123456,1e+21,-4.94066e-324,0")
    assert [line.split(",")[6] for line in expected] == ["0", "1", "0", "1"]
    assert [line.split(",")[12] for line in expected] == ["0", "1", "1", "0"]


def test_trace_rows_that_repeat_print_as_the_per_row_format_does():
    """Repeated rows, a 0.0 beside a -0.0, and an alarm flag that flips on
    an otherwise repeated row all print as one %-format per row would."""
    n_rows = 9
    true_pd = np.full((n_rows, 2), -2.5)
    true_pd[1:3, 0] = 1 / 3
    true_pd[4, 1], true_pd[5, 1] = 0.0, -0.0      # equal values, different bytes
    alarm = np.zeros((n_rows, 2), dtype=bool)
    alarm[7:, 0] = True                            # flips on a repeated row
    trace = SimulationTrace(
        times_s=np.arange(n_rows) * 0.5, true_pd_pa=true_pd, measured_hvac_pa=true_pd + 8.0,
        measured_rpm_pa=true_pd.copy(), supply_speed=np.full((n_rows, 2), 0.4875),
        exhaust_speed=np.full((n_rows, 2), 0.5125), alarm_active=alarm,
        alarm_events=[AlarmEvent(3.5, "a", "raised")], converged=True, room_names=("a", "b"),
        hallway_pa=12.5,
    )
    row_format = ",".join(["%.6g"] + ["%.6g,%.6g,%.6g,%.6g,%.6g,%d"] * 2)
    columns = [trace.times_s]
    for j in range(2):
        columns += [trace.true_pd_pa[:, j], trace.measured_hvac_pa[:, j],
                    trace.measured_rpm_pa[:, j], trace.supply_speed[:, j],
                    trace.exhaust_speed[:, j], trace.alarm_active[:, j]]
    expected = [row_format % tuple(row) for row in np.column_stack(columns).tolist()]
    lines = _trace_lines(trace).splitlines(True)
    assert lines == [f"{line}\n".encode() for line in expected]
    assert [line.split(b",")[7] for line in lines[4:6]] == [b"0", b"-0"]
    assert [line.split(b",")[6] for line in lines[6:]] == [b"0", b"1", b"1"]


def test_cli_sweep_needs_an_acoustic_attack(tmp_path, capsys):
    rc = main([
        "sweep", str(SCENARIO_DIR / "baseline.yaml"),
        "--axis", "ti", "--values", "15,30",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 2
    assert "no acoustic attack" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values", [
    ("tube_length", "0,0.5,1"), ("pickup", "0,1"), ("spl", "60,65"), ("distance", "0.002,0.01"),
    ("ti", "15,20"), ("td", "2,3"), ("tube_diameter", "0.005,0.01"),
])
def test_cli_sweep_treats_both_spellings_of_a_bare_port_alike(axis, values, tmp_path, capsys):
    """No tube block and a zero-length tube are one bare port: each axis
    gives the same rows and exit code on both, and tube_diameter is refused
    on both, since the diameter of no tube changes nothing."""
    doc = copy.deepcopy(SHIPPED["acoustic_lpf.yaml"])
    results = []
    for tube in ({}, {"tube": {"length_m": 0}}):
        doc["sensors"]["hvac"] = {"archetype": "A1011-00", **tube}
        scenario = tmp_path / "bare.yaml"
        scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out = tmp_path / f"sweep{len(results)}.csv"
        rc = main(["sweep", str(scenario), "--axis", axis, "--values", values, "--out", str(out)])
        captured = capsys.readouterr()
        results.append((rc, captured.err, out.read_text(encoding="utf-8") if out.exists() else None))
    assert results[0] == results[1]
    if axis == "tube_diameter":
        assert results[0] == (2, "nprsim: error: axis tube_diameter needs a tube longer than "
                                 "0 m; a bare port has none\n", None)
    else:
        assert results[0][:2] == (0, "")


_FINITE = "--start, --stop and --step must be finite"


@pytest.mark.parametrize("grid, message", [
    (["--start", "15", "--stop", "inf", "--step", "5"], _FINITE),
    (["--start", "nan", "--stop", "60", "--step", "5"], _FINITE),
    (["--start", "15", "--stop", "60", "--step", "nan"], _FINITE),
    (["--values", "15,inf"], "--values must be finite, got '15,inf'"),
    (["--values", "nan"], "--values must be finite, got 'nan'"),
    (["--values", "-5"], "ti=-5: interval -0.005 s must exceed burst duration 0.002 s"),
    # Just past the point ceiling: without it the list stays small and the
    # first point (an interval of 0 ms) fails at once.
    (["--start", "0", "--stop", "100000", "--step", "0.5"],
     "grid of 2e+05 points exceeds the limit of 100000; raise --step"),
], ids=["stop-inf", "start-nan", "step-nan", "values-inf", "values-nan", "values-negative",
        "past-ceiling"])
def test_cli_sweep_rejects_a_bad_grid_in_one_line(grid, message, tmp_path, capsys):
    rc = main(["sweep", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--axis", "ti", *grid,
               "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"nprsim: error: {message}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("silence", ["nan", "inf"])
def test_cli_synth_rejects_a_non_finite_silence(silence, tmp_path, capsys):
    rc = main(["synth", "--silence", silence, "--band", "540", "670", "--td-ms", "2",
               "--ti-ms", "15", "--out", str(tmp_path / "a.wav")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"nprsim: error: --silence must be finite, got {silence}\n"
    assert not (tmp_path / "a.wav").exists()


def test_cli_synth_rejects_a_silence_past_the_sample_ceiling(tmp_path, capsys):
    # 1e12 s is refused from its sample count; nothing of that size is built.
    rc = main(["synth", "--silence", "1e12", "--band", "540", "670", "--td-ms", "2",
               "--ti-ms", "15", "--out", str(tmp_path / "a.wav")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        "nprsim: error: --silence of 1e+12 s at 44100 Hz is 4.41e+16 samples, "
        f"more than the {MAX_SILENCE_SAMPLES} it may build\n")
    assert not (tmp_path / "a.wav").exists()


def test_cli_synth_rejects_an_unsupported_rate_in_one_line(tmp_path, capsys):
    rc = main(["synth", "--silence", "1", "--rate", "8000", "--band", "540", "670",
               "--td-ms", "2", "--ti-ms", "15", "--out", str(tmp_path / "a.wav")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("nprsim: error: --rate: sample rate must be one of")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("rate", ["8000", "48000"])
def test_cli_synth_refuses_a_rate_with_a_carrier(rate, tmp_path, capsys):
    """A carrier is written at its own rate, so --rate would change
    nothing, even when it names that rate."""
    carrier = tmp_path / "carrier.wav"
    waveform.write_wav(carrier, waveform.AudioBuffer(
        sample_rate_hz=48_000, samples=0.1 * np.sin(0.01 * np.arange(4_800))))
    rc = main(["synth", "--carrier", str(carrier), "--rate", rate, "--band", "540", "670",
               "--td-ms", "2", "--ti-ms", "15", "--out", str(tmp_path / "a.wav")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "nprsim: error: --rate sets the rate of --silence; a --carrier keeps its own\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["carrier.wav"]


@pytest.mark.parametrize("source", [["--carrier", "{empty}"], ["--silence", "0.001"],
                                    ["--silence", "0.0025"]],
                         ids=["empty-carrier", "silence-1ms", "silence-2.5ms"])
def test_cli_synth_refuses_audio_too_short_to_score_in_one_line(source, tmp_path, capsys):
    """A PSD ratio needs frames inside and outside the bursts; audio too
    short for both is refused before anything is written."""
    empty = tmp_path / "empty.wav"
    waveform.write_wav(empty, waveform.AudioBuffer(sample_rate_hz=48_000, samples=np.zeros(0)))
    source = [arg.format(empty=empty) for arg in source]
    rc = main(["synth", *source, "--band", "540", "670", "--td-ms", "2", "--ti-ms", "15",
               "--out", str(tmp_path / "a.wav")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "nprsim: error: psd_ratio: mask leaves one of the frame groups empty: the audio "
        "needs whole frames both inside and outside the bursts\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["empty.wav"]


@pytest.mark.parametrize("grid", [
    ["--start", "1"], ["--stop", "2"], ["--step", "1"],
    ["--start", "1", "--stop", "2", "--step", "1"],
], ids=["start", "stop", "step", "whole-grid"])
def test_cli_sweep_refuses_values_with_a_grid_flag(grid, tmp_path, capsys):
    """--values sets every point, so a grid flag given with it would
    change nothing."""
    rc = main(["sweep", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--axis", "ti",
               "--values", "50,60", *grid, "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "nprsim: error: give either --values or all of --start/--stop/--step, not both\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["evaluate-cm", str(SCENARIO_DIR / "replay_low_port.yaml"), "--kind", "raised_setpoint",
      "--setpoint-pa", "-inf"], "Countermeasure.setpoint_pa must be finite, got -inf"),
    (["evaluate-cm", str(SCENARIO_DIR / "replay_low_port.yaml"), "--kind", "raised_setpoint",
      "--setpoint-pa", "-NaN"], "Countermeasure.setpoint_pa must be finite, got nan"),
    (["sweep", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--axis", "ti",
      "--start", "-1e1", "--stop", "20", "--step", "5"],
     "ti=-10: interval -0.01 s must exceed burst duration 0.002 s"),
    (["sweep", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--axis", "ti",
      "--start", "15", "--stop", "-Infinity", "--step", "5"], _FINITE),
    (["synth", "--silence", "1", "--band", "-5.4E+2", "670", "--td-ms", "2", "--ti-ms", "15"],
     "band must satisfy 0 < lower < upper, got (-540.0, 670.0)"),
], ids=["evaluate-cm-inf", "evaluate-cm-nan", "sweep-start", "sweep-stop", "synth-band"])
def test_cli_reads_a_negative_float_in_any_form_as_a_value(argv, message, tmp_path, capsys):
    """-1e1, -inf and the like reach the option's own check, as -10 does."""
    rc = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"nprsim: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_reads_a_negative_exponent_form_as_the_plain_number(tmp_path, capsys):
    reports = []
    for value in ("-1e1", "-10"):
        out = tmp_path / value
        rc = main(["evaluate-cm", str(SCENARIO_DIR / "replay_low_port.yaml"),
                   "--kind", "raised_setpoint", "--setpoint-pa", value, "--out", str(out)])
        assert rc == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("grouped, plain", [
    ("1_0", "10"), ("1e1_0", "1e10"), ("1_000.5", "1000.5"),
], ids=["digits", "exponent", "fraction"])
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_cli_reads_underscore_digit_grouping_as_float_does(grouped, plain, sign, tmp_path, capsys):
    """float() reads 1_0 as 10, and so does every option, with either sign:
    the grouped value ends as its plain spelling does."""
    outcomes = []
    for value in (sign + grouped, sign + plain):
        out = tmp_path / value
        rc = main(["evaluate-cm", str(SCENARIO_DIR / "replay_low_port.yaml"),
                   "--kind", "raised_setpoint", "--setpoint-pa", value, "--out", str(out)])
        report = (out / "report.csv").read_bytes() if out.exists() else None
        outcomes.append((rc, *capsys.readouterr(), report))
    assert outcomes[0] == outcomes[1]
    assert "expected one argument" not in outcomes[0][2]


_DISPATCH_SCENARIO = str(SCENARIO_DIR / "acoustic_lpf.yaml")

# Argv that names a subcommand, each either valid or refused by that
# subcommand's own parser: main parses them without the top-level parser.
_ONE_PARSE_ARGV = {
    "simulate": ["simulate", _DISPATCH_SCENARIO, "--out", "sim"],
    "synth": ["synth", "--silence", "2", "--band", "540", "670", "--td-ms", "2",
              "--ti-ms", "15", "--cycles", "1,2", "--out", "a.wav"],
    "characterize": ["characterize", "--archetype", "all", "--tube-length", "1", "--step", "5"],
    "sweep": ["sweep", _DISPATCH_SCENARIO, "--axis", "ti", "--values", "15,20",
              "--out", "s.csv"],
    "evaluate-cm": ["evaluate-cm", _DISPATCH_SCENARIO, "--kind", "lpf", "--cutoff-hz", "120",
                    "--order", "3", "--out", "cm"],
    "abbreviated-flag": ["characterize", "--arch", "A1011-00", "--tube-len=1"],
    "negative-setpoint": ["evaluate-cm", _DISPATCH_SCENARIO, "--kind", "raised_setpoint",
                          "--setpoint-pa", "-1e1", "--out", "cm"],
    "negative-lo": ["characterize", "--archetype", "all", "--lo", "-inf", "--hi", "10"],
    "separator-inside": ["simulate", "--out", "sim", "--", "-odd.yaml"],
    "subcommand-help": ["synth", "-h"],
    "bad-float": ["characterize", "--archetype", "all", "--step", "ten"],
    "missing-required": ["simulate", _DISPATCH_SCENARIO],
    "missing-value": ["characterize", "--archetype"],
    "bad-choice": ["sweep", _DISPATCH_SCENARIO, "--axis", "volume", "--out", "s.csv"],
    "carrier-and-silence": ["synth", "--carrier", "in.wav", "--silence", "1", "--band", "540",
                            "670", "--td-ms", "2", "--ti-ms", "15", "--out", "a.wav"],
}

# Argv that names no subcommand, or leaves arguments its parser does not
# take: main runs the top-level parser on the whole of it.
_FULL_PARSE_ARGV = {
    "empty": [],
    "help": ["-h"],
    "unknown-command": ["frobnicate", "--out", "x"],
    "separator-first": ["--", "characterize", "--archetype", "all"],
    "option-first": ["--archetype", "all", "characterize"],
    "unrecognized": ["characterize", "--archetype", "A1011-00", "--tube-length", "1",
                     "--pickup"],
    "unrecognized-after-separator": ["sweep", _DISPATCH_SCENARIO, "--axis", "ti", "--values",
                                     "15", "--out", "s.csv", "--", "extra"],
}


@pytest.fixture
def recorded_commands(monkeypatch):
    """Every subcommand replaced by one that records the namespace it is
    given and returns 0, in a parser built afresh for the test."""
    calls = []

    def record(args):
        calls.append(args)
        return 0

    for name in ("simulate", "synth", "characterize", "sweep", "evaluate_cm"):
        monkeypatch.setattr(cli_module, f"cmd_{name}", record)
    cli_module.build_parser.cache_clear()
    yield calls
    cli_module.build_parser.cache_clear()


def _outcome(call, calls, capsys):
    """call()'s exit code, stdout and stderr, and the items of each
    namespace it ran a command with, less func, in order."""
    calls.clear()
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, [[(k, v) for k, v in vars(args).items() if k != "func"]
                            for args in calls]


@pytest.mark.parametrize("argv, one_parse", [
    *((argv, True) for argv in _ONE_PARSE_ARGV.values()),
    *((argv, False) for argv in _FULL_PARSE_ARGV.values()),
], ids=[*_ONE_PARSE_ARGV, *_FULL_PARSE_ARGV])
def test_main_parses_argv_as_the_top_level_parser_does(argv, one_parse, recorded_commands,
                                                       monkeypatch, capsys):
    """main ends as build_parser().parse_args and the command would: the
    same exit code, stdout and stderr, and the same namespace.  An argv
    that names a subcommand and leaves nothing over never reaches the
    top-level parser."""
    parser = cli_module.build_parser()

    def full_parse():
        args = parser.parse_args(argv)
        return args.func(args)

    expected = _outcome(full_parse, recorded_commands, capsys)
    top_level_parses = []
    parse_known_args = parser.parse_known_args

    def counted(*args, **kwargs):
        top_level_parses.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    assert _outcome(lambda: main(list(argv)), recorded_commands, capsys) == expected
    assert (not top_level_parses) == one_parse
    # A command ran exactly when the parse succeeded and printed nothing.
    assert bool(expected[3]) == (expected[0] == 0 and expected[1] == "")


def test_cli_simulate_notes_an_unapplied_countermeasure(tmp_path, capsys):
    rc = main(["simulate", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == (
        "nprsim: note: countermeasure 'lpf' is not applied by simulate; evaluate-cm scores it\n")
    assert "countermeasure" not in (tmp_path / "summary.txt").read_text(encoding="utf-8")
    rc = main(["simulate", str(SCENARIO_DIR / "baseline.yaml"), "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == ""


def _count_forged_drives(monkeypatch) -> list[int]:
    """Burst counts of the burst-train drives the forged-pressure chain makes."""
    sizes = []
    drive = waveform.segment_abs_means

    def counting(chain, inlet, segments, *args):
        sizes.append(len(segments))
        return drive(chain, inlet, segments, *args)

    monkeypatch.setattr(waveform, "segment_abs_means", counting)
    return sizes


def _sweep(axis, values, out):
    return main(["sweep", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--axis", axis,
                 "--values", values, "--out", str(out)])


@pytest.mark.parametrize("axis, values, drives", [
    ("spl", "50,55,60,65,70", 1),
    ("distance", "0.002,0.005,0.01,0.03,0.07", 1),
    ("ti", "15,20,30,40,60", 5),
    ("tube_length", "0.8,1.2,1.6,1.2", 3),
])
def test_a_sweep_drives_the_transducer_once_per_distinct_burst_train(
        axis, values, drives, monkeypatch, tmp_path):
    sizes = _count_forged_drives(monkeypatch)
    assert _sweep(axis, values, tmp_path / "sweep.csv") == 0
    assert len(sizes) == drives


def test_a_sweeps_unit_responses_last_only_as_long_as_its_command(monkeypatch, tmp_path):
    sizes = _count_forged_drives(monkeypatch)
    assert _sweep("spl", "50,55,60,65,70", tmp_path / "first.csv") == 0
    assert _sweep("spl", "50,55,60,65,70", tmp_path / "second.csv") == 0
    assert len(sizes) == 2
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


# Only long_tube changes the transducer's chain; every other kind is
# scored with the baseline's drive, an lpf by filtering it.
@pytest.mark.parametrize("kind, params, drives", [
    ("lpf", ["--cutoff-hz", "120", "--order", "3"], 1),
    ("enclosure", ["--extra-loss-db", "12"], 1),
    ("long_tube", ["--tube-length", "2"], 2),
    ("raised_setpoint", ["--setpoint-pa", "-12"], 1),
], ids=["lpf", "enclosure", "long_tube", "raised_setpoint"])
def test_a_countermeasure_drives_only_where_its_chain_changes(
        kind, params, drives, monkeypatch, tmp_path, capsys):
    sizes = _count_forged_drives(monkeypatch)
    rc = main(["evaluate-cm", str(SCENARIO_DIR / "acoustic_lpf.yaml"), "--kind", kind, *params,
               "--out", str(tmp_path)])
    assert rc == 0
    assert len(sizes) == drives


# Each line as the CLI printed it when every point drove the transducer
# at its own port amplitude.
@pytest.mark.parametrize("axis, values, line", [
    ("spl", "65,141", "spl=141: SPL must be within [0, 140] dB, got 141.0"),
    ("spl", "65,-1", "spl=-1: SPL must be within [0, 140] dB, got -1.0"),
    ("distance", "0.002,-1", "distance=-1: position distance must be > 0, got -1.0"),
    ("distance", "0.002,1e-320", "distance=9.99989e-321: inlet contains non-finite samples"),
    ("ti", "15,1", "ti=1: interval 0.001 s must exceed burst duration 0.002 s"),
    ("td", "2,0.001", "td=0.001: burst duration 0.001 ms is shorter than one period of "
                      "670 Hz; bursts must hold at least one full cycle"),
    ("td", "2,20", "td=20: interval 0.015 s must exceed burst duration 0.02 s"),
    ("tube_length", "1,0.001", "tube_length=0.001: dt=2.083e-05 s too coarse for 19062.2 Hz "
                               "dynamics; need dt <= 2.623e-06 s"),
    ("tube_length", "1,-1", "tube_length=-1: tube length must be >= 0, got -1.0"),
    ("pickup", "0,0.5", "pickup axis takes values 0 or 1"),
    # A cross-section past a float's range is refused as the tube is built.
    ("tube_diameter", "1e200", f"tube_diameter=1e+200: tube inner diameter of 1e+200 m {_AREA}"),
    ("tube_diameter", "1e-300", f"tube_diameter=1e-300: tube inner diameter of 1e-300 m {_AREA}"),
])
def test_an_invalid_grid_point_is_one_error_line(axis, values, line, tmp_path, capsys):
    assert _sweep(axis, values, tmp_path / "sweep.csv") == 2
    assert capsys.readouterr().err == f"nprsim: error: {line}\n"
    assert not (tmp_path / "sweep.csv").exists()


# Each of these crashed with a traceback, or ran on a grid too coarse to
# judge; each is one error line and writes nothing.  {scenario} and {wav}
# are the case's inputs, {out} its output path; a table replaces the
# archetype table.
_TABLE_MISSING_A_KEY = ("sensors:\n  - part_id: X1\n    transducer: capacitive\n"
                        "    resonant_band_hz: [400, 420]\n")


# A gain whose trim of the farthest reachable error passes a float's range.
_GAIN_OVERFLOW = "controller:\n  gain: 1.0e+300\n" + MINIMAL + "    initial_pressure_pa: 1.0e+10\n"


@pytest.mark.parametrize("argv, scenario, table, message", [
    (["simulate", "{scenario}", "--out", "{out}"],
     _LPF.replace("  affects: both\n", "  affects: both\n  target_f_hz: 0.1\n"), None,
     "trace window of 2.3 s too short to hold a single burst of the 0.1 Hz tone"),
    (["simulate", "{scenario}", "--out", "{out}"],
     _LPF.replace("length_m: 1.0", "length_m: 1.0e-9"), None, "too coarse for"),
    (["synth", "--silence", "1", "--band", "20000", "23000", "--td-ms", "2", "--ti-ms", "15",
      "--out", "{out}"], None, None, "the Nyquist frequency of 44100 Hz audio, got 23000 Hz"),
    (["synth", "--carrier", "{wav}", "--band", "20000", "25000", "--td-ms", "2", "--ti-ms", "15",
      "--out", "{out}"], None, None, "the Nyquist frequency of 48000 Hz audio, got 25000 Hz"),
    (["characterize", "--archetype", "all", "--out", "{out}"], None, _TABLE_MISSING_A_KEY,
     "table.yaml: line 2: archetypes.sensors[0].pressure_range_pa: required key missing"),
    (["simulate", "{scenario}", "--out", "{out}"], _LPF.replace("A1011-00", "X1"),
     _TABLE_MISSING_A_KEY,
     "table.yaml: line 2: archetypes.sensors[0].pressure_range_pa: required key missing"),
    (["characterize", "--archetype", "all", "--out", "{out}"], None,
     _TABLE_MISSING_A_KEY + "    pressure_range_pa: [-100, 100]\n    part_id: X2\n",
     "table.yaml: line 6: duplicate key 'part_id'"),
    (["synth", "--silence", "1", "--band", "540", "670", "--td-ms", "2", "--ti-ms", "15",
      "--target-hz", "1e308", "--out", "{out}"], None, None,
     "target 1e+308 Hz lies outside band (540.0, 670.0)"),
    (["evaluate-cm", "{scenario}", "--kind", "long_tube", "--tube-length", "1e-300",
      "--out", "{out}"], _LPF, None, "too coarse for 6.028e+152 Hz dynamics"),
    (["sweep", "{scenario}", "--axis", "tube_length", "--values", "1e-300", "--out", "{out}"],
     _LPF, None, "tube_length=1e-300: dt=2.083e-05 s too coarse for 6.028e+152 Hz dynamics"),
    (["sweep", "{scenario}", "--axis", "ti", "--values", "1e9", "--out", "{out}"], _LPF, None,
     "ti=1e+09: a trace window of 2e+06 s needs 9.6e+10 samples, over the 5000000"),
    (["sweep", "{scenario}", "--axis", "ti", "--values", "1e307", "--out", "{out}"], _LPF, None,
     "ti=1e+307: a trace window of inf s needs inf samples, over the 5000000"),
    (["simulate", "{scenario}", "--out", "{out}"],
     _LPF.replace("interval_s: 0.015", "interval_s: 1000"), None, "needs 9.6e+07 samples"),
    (["characterize", "--archetype", "A1011-00", "--tube-length", "1",
      "--tube-diameter", "1e-160", "--out", "{out}"], None, None,
     "gives 1 tones, fewer than the 5 a sweep needs"),
    (["sweep", "{scenario}", "--axis", "tube_diameter", "--values", "1e-160", "--out", "{out}"],
     _LPF, None, "too short to hold a single burst of the 7.59e-156 Hz tone"),
    (["simulate", "{scenario}", "--out", "{out}"],
     _LPF.replace("interval_s: 0.015", "interval_s: 0.015\n    amplitude_scale: 0.1"), None,
     "scenario.attack.schedule.amplitude_scale: unknown key"),
    (["simulate", "{scenario}", "--out", "{out}"],
     "hallway_pa: 1.0e+308\n" + MINIMAL + "    initial_pressure_pa: -1.0e+308\n", None,
     "room iso1: a start -inf Pa from the setpoint, fans that reach 100 Pa and a forged "
     "offset of 0 Pa overflow a float"),
    (["simulate", "{scenario}", "--out", "{out}"], _GAIN_OVERFLOW, None,
     "room iso1: a controller gain of 1e+300 on errors of up to 1e+10 Pa overflows a float"),
    # The countermeasure note comes only after a run that wrote its outputs.
    (["simulate", "{scenario}", "--out", "{scenario}"], _LPF, None, "[Errno 17] File exists"),
], ids=["simulate-tone-0.1hz", "simulate-tube-1e-9m", "synth-silence-past-nyquist",
        "synth-carrier-past-nyquist", "characterize-all-bad-table", "simulate-bad-table",
        "characterize-all-duplicate-key-table", "synth-target-1e308hz", "evaluate-cm-tube-1e-300m",
        "sweep-tube-length-1e-300m",
        "sweep-ti-1e9ms", "sweep-ti-1e307ms", "simulate-interval-1000s", "characterize-diameter-1e-160",
        "sweep-diameter-1e-160", "simulate-amplitude-scale",
        "simulate-room-start-overflow", "simulate-controller-gain-overflow",
        "simulate-countermeasure-out-is-a-file"])
def test_a_failing_run_is_one_error_line_and_writes_nothing(argv, scenario, table, message,
                                                            monkeypatch, tmp_path, capsys):
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "scenario.yaml").write_text(scenario or MINIMAL, encoding="utf-8")
    if table is not None:
        (inputs / "table.yaml").write_text(table, encoding="utf-8")
        monkeypatch.setenv("NPRSIM_ARCHETYPES", str(inputs / "table.yaml"))
    waveform.write_wav(inputs / "carrier.wav", waveform.AudioBuffer(
        sample_rate_hz=48_000, samples=0.1 * np.sin(0.01 * np.arange(48_000))))
    paths = {"scenario": inputs / "scenario.yaml", "wav": inputs / "carrier.wav",
             "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nprsim:")
    assert message in lines[0]
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


@pytest.mark.parametrize("argv", [["simulate", "{bad}", "--out", "{out}"],
                                  ["characterize", "--archetype", "all", "--out", "{out}"]],
                         ids=["scenario", "archetype-table"])
def test_a_file_that_is_not_utf8_is_one_error_line_naming_it(argv, monkeypatch, tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(b"rooms:\n  - name: caf\xe9\n")
    monkeypatch.setenv("NPRSIM_ARCHETYPES", str(bad))
    assert main([arg.format(bad=bad, out=tmp_path / "out") for arg in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and str(bad) in lines[0] and "can't decode byte 0xe9" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_a_gain_is_refused_before_its_trim_overflows_and_runs_quietly_below(tmp_path, capsys):
    (tmp_path / "over.yaml").write_text(_GAIN_OVERFLOW, encoding="utf-8")
    assert main(["simulate", str(tmp_path / "over.yaml"), "--out", str(tmp_path / "o1")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "o1").exists()
    # The same gain from the setpoint keeps every trim finite.
    (tmp_path / "near.yaml").write_text("controller:\n  gain: 1.0e+300\n" + MINIMAL,
                                        encoding="utf-8")
    assert main(["simulate", str(tmp_path / "near.yaml"), "--out", str(tmp_path / "o2")]) in (0, 3)
    assert capsys.readouterr().err == ""


def test_cli_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(SystemExit) as info:
        main([
            "sweep", str(SCENARIO_DIR / "acoustic_lpf.yaml"),
            "--axis", "volume", "--values", "1,2",
            "--out", str(tmp_path / "s.csv"),
        ])
    assert info.value.code == 2


def test_cli_sweep_interval_axis_decreases_forging(tmp_path):
    out = tmp_path / "ti.csv"
    rc = main([
        "sweep", str(SCENARIO_DIR / "acoustic_lpf.yaml"),
        "--axis", "ti", "--values", "15,60",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    forged_col = lines[0].split(",").index("forged_pressure_pa")
    p15 = float(lines[1].split(",")[forged_col])
    p60 = float(lines[2].split(",")[forged_col])
    assert p15 > p60 > 0.0


def test_cli_evaluate_cm_requires_a_countermeasure(tmp_path, capsys):
    rc = main([
        "evaluate-cm", str(SCENARIO_DIR / "baseline.yaml"),
        "--out", str(tmp_path / "cm"),
    ])
    assert rc == 2
    assert "countermeasure" in capsys.readouterr().err


def test_cli_evaluate_cm_writes_report(tmp_path, capsys):
    out = tmp_path / "cm"
    rc = main([
        "evaluate-cm", str(SCENARIO_DIR / "acoustic_lpf.yaml"),
        "--out", str(out),
    ])
    assert rc == 0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "countermeasure: lpf" in text
    assert "attack_success: no" in text
    assert (out / "report.csv").exists()
    assert "attack_success" in capsys.readouterr().out


SHIPPED = {p.name: yaml.safe_load(p.read_text(encoding="utf-8"))
           for p in sorted(SCENARIO_DIR.glob("*.yaml"))}


def _paths(node, want, path=()):
    """Paths to the scalar leaves (want="leaf") or the mappings (want="map")."""
    if isinstance(node, dict):
        if want == "map":
            yield path
        for key, value in node.items():
            yield from _paths(value, want, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, want, path + (index,))
    elif want == "leaf":
        yield path


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


_DRAWN = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -1e-9, 1e308, -1e308, 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.lists(st.integers() | st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
# Every key the loader accepts, in any section, and one it does not.
_KEYS = st.sampled_from([
    "seed", "horizon_s", "hallway_pa", "controller", "fans", "alarm", "rooms", "sensors",
    "wiring", "attack", "countermeasure",
    "gain", "control_period_s", "deadband_pa", "max_flow_m3ps", "time_constant_s",
    "threshold_pa", "dwell_s",
    "name", "setpoint_pa", "volume_m3", "leak_coeff_m3ps_per_pa", "initial_pressure_pa",
    "hvac", "rpm", "archetype", "damping_ratio", "tube", "length_m", "inner_diameter_m",
    "pickup_device", "common_high_port",
    "placement", "affects", "forged_pa", "target_f_hz", "source", "schedule",
    "spl_db", "ref_distance_m", "position_distance_m",
    "band_hz", "duration_s", "interval_s", "cycles", "fade_in_s",
    "kind", "tube_length_m", "extra_loss_db", "cutoff_hz", "order",
]) | st.text(max_size=6)


@st.composite
def _mutated_scenario(draw):
    doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    op = draw(st.sampled_from(["replace", "add", "remove"]))
    if op == "replace":
        path = draw(st.sampled_from(list(_paths(doc, "leaf"))))
        _at(doc, path[:-1])[path[-1]] = draw(_DRAWN)
    else:
        mapping = _at(doc, draw(st.sampled_from(list(_paths(doc, "map")))))
        if op == "add":
            mapping[draw(_KEYS)] = draw(_DRAWN)
        elif mapping:
            del mapping[draw(st.sampled_from(sorted(mapping)))]
    return yaml.safe_dump(doc)


@settings(max_examples=150, deadline=None)
@given(_mutated_scenario())
def test_loader_returns_a_scenario_or_a_scenario_error(text):
    try:
        loaded = parse_scenario(text)
    except ScenarioError:
        return
    assert isinstance(loaded, LoadedScenario)


# The shipped scenarios simulate runs without the sensor model, cut to 20
# control periods, with every default a leaf so a draw can replace it, and
# each room starting 10 Pa above the hallway.
_STATED = {
    "hallway_pa": HALLWAY_PA, "fans": asdict(FanSpec()), "alarm": asdict(AlarmConfig()),
    "controller": {k: v for k, v in asdict(ControllerConfig()).items() if k != "setpoint_pa"},
}
_STATED_ROOM = {"volume_m3": RoomConfig.volume_m3, "initial_pressure_pa": HALLWAY_PA + 10.0,
                "leak_coeff_m3ps_per_pa": RoomConfig.leak_coeff_m3ps_per_pa}
_FORGED_ONLY = {
    name: {**_STATED, **doc, "horizon_s": 20,
           "rooms": [{**_STATED_ROOM, **room} for room in doc["rooms"]]}
    for name, doc in SHIPPED.items() if "source" not in doc.get("attack", {})
}
# The ends of a float's range, subnormals, each side of the zero bound
# every dataclass checks, an integer past a float's range, and values a
# room could hold.
_EDGE_NUMBERS = st.sampled_from([
    0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 10**400,
    1, -1, 2.5, -2.5, 1e-9, -1e-9,
])


@st.composite
def _edge_scenario(draw):
    doc = copy.deepcopy(_FORGED_ONLY[draw(st.sampled_from(sorted(_FORGED_ONLY)))])
    leaves = [path for path in _paths(doc, "leaf") if type(_at(doc, path)) in (int, float)]
    for path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3, unique=True)):
        _at(doc, path[:-1])[path[-1]] = draw(_EDGE_NUMBERS)
    return yaml.safe_dump(doc)


def _numbers(text):
    """Every token of text, split at commas, '=' and whitespace, that reads
    as a float."""
    numbers = []
    for token in re.split(r"[,=\s]+", text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


@settings(max_examples=150, deadline=None)
@given(_edge_scenario())
# A room start whose distance from its setpoint overflows a float.
@example(yaml.safe_dump({**_FORGED_ONLY["baseline.yaml"], "hallway_pa": 1e308, "rooms": [
    {**_FORGED_ONLY["baseline.yaml"]["rooms"][0], "initial_pressure_pa": -1e308}]}))
# A negative horizon over a subnormal period is -inf periods.
@example(yaml.safe_dump({**_FORGED_ONLY["baseline.yaml"], "horizon_s": -1, "controller": {
    **_STATED["controller"], "control_period_s": 5e-324}}))
# A subnormal period, over which a hold of seconds was once inf periods.
@example(yaml.safe_dump({**_FORGED_ONLY["baseline.yaml"], "horizon_s": 2.2250738585072014e-308,
                         "controller": {**_STATED["controller"], "control_period_s": 1e-310}}))
def test_a_scenario_the_loader_accepts_runs_to_finite_outputs_or_is_refused(text):
    try:
        parse_scenario(text)
    except ScenarioError:
        return
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        (Path(tmp) / "scenario.yaml").write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        rc = main(["simulate", str(Path(tmp) / "scenario.yaml"), "--out", str(out)])
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("nprsim:"), lines
            assert not out.exists()
            return
        assert rc in (0, 3)
        for name in ("trace.csv", "summary.txt"):
            assert all(map(math.isfinite, _numbers((out / name).read_text(encoding="utf-8"))))


# The acoustic scenario, cut to 20 s, with its schedule's fade-in and its
# tube's diameter stated as leaves, under each kind of defense.
_ACOUSTIC = copy.deepcopy(SHIPPED["acoustic_lpf.yaml"])
_ACOUSTIC["horizon_s"] = 20
_ACOUSTIC["attack"]["schedule"]["fade_in_s"] = 0.0
_ACOUSTIC["sensors"]["hvac"]["tube"]["inner_diameter_m"] = REFERENCE_TUBE_ID_M
_DEFENSES = [{"kind": "lpf", "cutoff_hz": 120.0, "order": 3},
             {"kind": "long_tube", "tube_length_m": 2.0},
             {"kind": "enclosure", "extra_loss_db": 12.0},
             {"kind": "raised_setpoint", "setpoint_pa": -12.0}]


@st.composite
def _edge_acoustic(draw):
    """An acoustic scenario with up to two source, schedule, tube or
    defense leaves set to edge values, and a sweep axis with edge values."""
    doc = copy.deepcopy(_ACOUSTIC)
    doc["countermeasure"] = dict(draw(st.sampled_from(_DEFENSES)))
    leaves = [path for path in _paths(doc, "leaf")
              if path[0] in ("attack", "sensors", "countermeasure")
              and type(_at(doc, path)) in (int, float)]
    for path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=2, unique=True)):
        _at(doc, path[:-1])[path[-1]] = draw(_EDGE_NUMBERS)
    axis = draw(st.sampled_from(tuple(SWEEP_AXES)))
    values = draw(st.lists(_EDGE_NUMBERS, min_size=1, max_size=2))
    return yaml.safe_dump(doc), axis, ",".join(map(str, values))


def _finite_or_one_error_line(argv, out: Path) -> None:
    """main(argv) exits 2 with one nprsim: line and writes nothing, or
    exits 0 or 3 and writes only finite numbers."""
    with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("nprsim:"), (argv, lines)
        assert not out.exists()
        return
    assert rc in (0, 3), (argv, err.getvalue())
    for path in [out] if out.is_file() else sorted(out.iterdir()):
        assert all(map(math.isfinite, _numbers(path.read_text(encoding="utf-8")))), argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(_edge_acoustic())
# A subnormal position distance leaves no finite port amplitude.
@example((yaml.safe_dump({**_ACOUSTIC, "attack": {**_ACOUSTIC["attack"], "source": {
    **_ACOUSTIC["attack"]["source"], "position_distance_m": 5e-324}}}), "spl", "65"))
# A port amplitude whose forged pressure overflows a float.
@example((yaml.safe_dump(_ACOUSTIC), "distance", "1e-310"))
# A band whose centre tone has a phase past a float's range.
@example((yaml.safe_dump({**_ACOUSTIC, "attack": {**_ACOUSTIC["attack"], "schedule": {
    **_ACOUSTIC["attack"]["schedule"], "band_hz": [540, 1e308]}}}), "spl", "65"))
def test_an_acoustic_scenario_sweeps_and_is_defended_to_finite_outputs_or_is_refused(case):
    text, axis, values = case
    try:
        parse_scenario(text)
    except ScenarioError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.yaml"
        scenario.write_text(text, encoding="utf-8")
        out = Path(tmp) / "sweep.csv"
        _finite_or_one_error_line(["sweep", str(scenario), "--axis", axis, f"--values={values}",
                                   "--out", str(out)], out)
        out = Path(tmp) / "cm"
        _finite_or_one_error_line(["evaluate-cm", str(scenario), "--out", str(out)], out)


class _PureLineLoader(yaml.SafeLoader):
    """_LineLoader on PyYAML's pure-Python parser, as it was built before
    it took libyaml's: the reference for what a scenario loads to."""

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
        mapping["__lines__"] = lines
        mapping["__line__"] = node.start_mark.line + 1
        return mapping

    def construct_yaml_int(self, node):
        try:
            return super().construct_yaml_int(node)
        except ValueError as exc:
            raise yaml.MarkedYAMLError(problem=str(exc), problem_mark=node.start_mark) from exc


_PureLineLoader.add_constructor("tag:yaml.org,2002:int", _PureLineLoader.construct_yaml_int)


def _loaded_or_error_line(text, loader):
    """repr of what loader makes of text (repr, so NaN equals NaN and 1
    differs from 1.0), or the line of the error it raises."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.MarkedYAMLError as exc:
        return f"line {exc.problem_mark.line + 1}"


def test_scenarios_load_through_libyaml_where_pyyaml_has_it():
    if yaml.__with_libyaml__:
        assert issubclass(_LineLoader, yaml.CSafeLoader)
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        assert _loaded_or_error_line(text, _LineLoader) == \
            _loaded_or_error_line(text, _PureLineLoader), path.name


@settings(max_examples=150, deadline=None)
@given(_mutated_scenario())
def test_both_parsers_load_a_scenario_to_the_same_mapping_and_lines(text):
    assert _loaded_or_error_line(text, _LineLoader) == _loaded_or_error_line(text, _PureLineLoader)


class _PureOnePassLoader(_PureLineLoader):
    """_LineLoader's one-pass construction on PyYAML's pure-Python parser."""

    _construct = _LineLoader._construct
    construct_mapping = _LineLoader.construct_mapping


_LONG_INT = "9" * (sys.get_int_max_str_digits() + 1)


# Node kinds yaml.safe_dump never writes, so the strategy above never draws
# them: each is built by construct_object below a plain mapping or list.
@pytest.mark.parametrize("text", [
    "a: &x {b: 1, c: [2, 3]}\nd: *x\ne: [*x, *x]\n",
    "a: &x 0x10\nb: *x\n",
    "a: &x {b: *x}\n",
    "a: &x [1, *x]\n",
    "&x {b: *x}\n",
    "a: &x {b: 1}\nc:\n  <<: *x\n  d: 2\n",
    "a: !!str 1\nb: !!float 1\nc: !!int \"12\"\n",
    "a: [!!str [1]]\n",
    "a: 2001-12-14\nb: !!binary aGVsbG8=\nc: !!set {x, y}\n",
    "a: yes\nb: ~\nc:\nd: 0x10\ne: 017\nf: 1:30\ng: .inf\nh: [-.inf, .nan, off, 1_000, +12]\n",
    f"a: [1, {_LONG_INT}]\n",
], ids=["shared-alias", "shared-scalar", "recursive-map", "recursive-list", "recursive-top",
        "merge-key", "explicit-tags", "str-tagged-list", "timestamp-binary-set", "yaml-1.1-forms",
        "long-integer"])
def test_both_parsers_load_each_node_kind_to_the_same_mapping_and_lines(text):
    expected = _loaded_or_error_line(text, _PureLineLoader)
    assert _loaded_or_error_line(text, _LineLoader) == expected
    assert _loaded_or_error_line(text, _PureOnePassLoader) == expected


def test_an_alias_loads_to_the_object_its_anchor_does():
    for loader in (_LineLoader, _PureOnePassLoader, _PureLineLoader):
        loaded = yaml.load("a: &x {b: [1]}\nc: *x\nd: &y [2]\ne: *y\n", Loader=loader)
        assert loaded["c"] is loaded["a"] and loaded["e"] is loaded["d"]


@pytest.mark.parametrize("tail, line, problem", [
    ("horizon_s: 12: 3\n", 4, "mapping values are not allowed in this context"),
    ("  bad: 1\n", 4, "did not find expected '-' indicator"),
    ("band: [1, 2\n", 5, "did not find expected ',' or ']'"),
    ('name: "abc\n', 5, "found unexpected end of stream"),
    ("\thorizon_s: 3\n", 4, "found a tab character that violates indentation"),
    ("x: *nope\n", 4, "found undefined alias"),
    ("- 3\n", 4, "did not find expected key"),
    ("seed: 1\nseed: 2\n", 5, "duplicate key 'seed'"),
    ("1: 2\n", 4, "mapping keys must be strings, got 1"),
], ids=["colon", "indent", "flow", "quote", "tab", "alias", "dash", "duplicate", "int-key"])
def test_a_yaml_error_is_reported_on_the_line_the_pure_parser_names(tail, line, problem):
    """libyaml words a syntax error its own way; the line is the one
    PyYAML's own parser reports, and the loader's own errors read as
    before."""
    text = MINIMAL + tail
    messages = _parse_errors(text)
    if yaml.__with_libyaml__:
        assert messages == [f"line {line}: {problem}"]
    assert messages[0].startswith(f"line {line}: ")
    assert _loaded_or_error_line(text, _PureLineLoader) == f"line {line}"


@pytest.mark.parametrize("text, message", [
    ("__line__: 99\n" + MINIMAL, "line 1: reserved key '__line__'"),
    (MINIMAL + "    __lines__: {a: 1}\n", "line 4: reserved key '__lines__'"),
], ids=["top-level-line", "room-lines"])
def test_a_key_the_loader_keeps_its_lines_under_is_refused(text, message, tmp_path, capsys):
    """The loader records each mapping's lines under __line__ and
    __lines__, which would overwrite a document's own key of either name."""
    assert _parse_errors(text) == [message]
    (tmp_path / "scenario.yaml").write_text(text, encoding="utf-8")
    assert main(["simulate", str(tmp_path / "scenario.yaml"), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].endswith(message)
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_sections() -> dict[str, dict[str, bool]]:
    """README's "The sections and their keys" list: each section's path
    ("" for the top level) to {key: required}.  A bullet names its
    sections before the colon and lists their keys, * marking a required
    one, in the sentence after it."""
    text = README.read_text(encoding="utf-8")
    block = text.split("The sections and their keys (required ones marked *):\n\n", 1)[1]
    sections = {}
    for bullet in block.split("\n\n", 1)[0].split("\n- "):
        label, rest = " ".join(bullet.removeprefix("- ").split()).split(": ", 1)
        keys = {key: star == "*" for key, star in re.findall(r"`(\w+)`(\*?)", rest.split(". ")[0])}
        for path in re.findall(r"`([\w.]+)`", label) or [""]:
            sections[path] = keys
    return sections


def _flagged(path: str, section: dict, problem: str) -> set[str]:
    """The keys of section that a document holding it at path reports
    with problem."""
    doc = {}
    node = doc
    *parents, last = ["", *path.split(".")] if path else [""]
    for part in parents[1:]:
        node = node.setdefault(part, {})
    if path:
        node[last] = [section] if last == "rooms" else section
    else:
        doc = section
    prefix = ".".join(["scenario", *filter(None, path.split("."))]).replace("rooms", "rooms[0]")
    try:
        parse_scenario(yaml.safe_dump(doc))
    except ScenarioError as exc:
        errors = [error.split(": ", 2) for error in exc.messages]
        return {where.rpartition(".")[2] for _, where, said in errors
                if where.rpartition(".")[0] == prefix and said == problem}
    return set()


def test_readme_lists_every_key_and_required_key_the_loader_reads():
    """Each section's keys and required marks in README equal what the
    loader accepts, probed with every field name of the package's
    dataclasses: a key added to either side alone fails here."""
    readme = _readme_sections()
    candidates = {f.name for module in (acoustics, countermeasures, plant, sensor, waveform)
                  for cls in vars(module).values() if isinstance(cls, type) and is_dataclass(cls)
                  for f in fields(cls)}
    candidates |= {key for keys in readme.values() for key in keys} | {"seed", "bogus"}
    assert len(readme) == 15
    for path, keys in readme.items():
        accepted = candidates - _flagged(path, dict.fromkeys(candidates, 1), "unknown key")
        required = _flagged(path, {}, "required key missing")
        assert (path, set(keys)) == (path, accepted)
        assert (path, {key for key, star in keys.items() if star}) == (path, required)


def _archetype_error(path: Path, record: dict, monkeypatch) -> str:
    """What load_archetypes raises for a table at path of one record, or
    "" when it loads."""
    path.write_text(yaml.safe_dump({"sensors": [record]}), encoding="utf-8")
    monkeypatch.setenv("NPRSIM_ARCHETYPES", str(path))
    try:
        assert list(load_archetypes()) == [record["part_id"]]
    except ValueError as exc:
        return str(exc)
    return ""


def test_readme_lists_every_archetype_key_and_required_key_the_loader_reads(tmp_path,
                                                                             monkeypatch):
    """README's archetype keys and required marks equal what load_archetypes
    accepts and requires, probed with every DpsModel field and a bogus key."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = text.split("with these keys (required ones marked *): ", 1)[1].split(". ", 1)[0]
    keys = {key: star == "*" for key, star in re.findall(r"`(\w+)`(\*?)", listed)}
    record = {name: value.value if isinstance(value, sensor.Transducer)
              else list(value) if isinstance(value, tuple) else value
              for name, value in asdict(archetype("A1011-00")).items()}
    candidates = {f.name for f in fields(sensor.DpsModel)} | set(keys) | {"bogus"}
    accepted = {key for key in candidates if f".{key}: unknown key" not in _archetype_error(
        tmp_path / f"with-{key}.yaml", {**record, key: record.get(key, 1)}, monkeypatch)}
    required = {key for key in candidates if f".{key}: required key missing" in _archetype_error(
        tmp_path / f"without-{key}.yaml",
        {name: value for name, value in record.items() if name != key}, monkeypatch)}
    assert len(keys) == 7
    assert set(keys) == accepted
    assert {key for key, star in keys.items() if star} == required


def test_a_field_without_a_yaml_type_raises_on_first_use():
    """A field of a type the loader cannot check is never dropped as a key,
    even when the document does not give it."""

    @dataclass(frozen=True)
    class Odd:  # annotated as the package's modules are, in strings
        scale: "float" = 1.0
        phase: "complex" = 0j

    with pytest.raises(KeyError, match="complex"):
        _Map([], {}, "odd").build(Odd)
    assert _Map([], {}, "odd").build(Odd, ("phase",)) == Odd()


_LENGTHENED_NOTE = ("nprsim: note: a {td} ms burst is under one cycle of {tone} Hz; "
                    "each burst plays one cycle, {played} ms\n")


def test_a_sweep_notes_each_lengthened_burst_once(tmp_path, capsys, monkeypatch):
    """The golden tube_length sweep retunes its 2 ms bursts to 476.555 Hz
    at 1.6 m, so each plays one 2.098 ms cycle: one note on stderr, however
    often the point recurs, and the same stdout as before."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    note = _LENGTHENED_NOTE.format(td="2", tone="476.555", played="2.09839")
    for values in ("0.8,1.2,1.6", "1.6,1.2,1.6,1.6"):
        out = tmp_path / "tube_length.csv"
        assert main(["sweep", "scenarios/acoustic_lpf.yaml", "--axis", "tube_length",
                     "--values", values, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == note
        assert captured.out == f"wrote {values.count(',') + 1} rows to {out}\n"


def test_synth_notes_a_burst_under_one_cycle_of_its_tone(tmp_path, capsys):
    """A 1.6 ms burst passes the band's check (one 670 Hz period is 1.49 ms)
    but holds less than one cycle of the 605 Hz tone played."""
    out = tmp_path / "attacked.wav"
    assert main(["synth", "--silence", "2.0", "--rate", "48000", "--band", "540", "670",
                 "--td-ms", "1.6", "--ti-ms", "15", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == _LENGTHENED_NOTE.format(td="1.6", tone="605", played="1.65289")
    report = (tmp_path / "attacked.wav.psd.txt").read_text(encoding="utf-8")
    assert captured.out == report and "burst_ms: 1.6\n" in report


@pytest.mark.parametrize("command", ["simulate", "evaluate-cm"])
def test_a_scenario_run_notes_a_lengthened_burst(command, tmp_path, capsys):
    path = tmp_path / "short_bursts.yaml"
    path.write_text(_LPF.replace("duration_s: 0.002", "duration_s: 0.0016"), encoding="utf-8")
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 0
    note = _LENGTHENED_NOTE.format(td="1.6", tone="605", played="1.65289")
    assert capsys.readouterr().err.count(note) == 1
