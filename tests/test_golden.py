"""Byte-for-byte goldens for the CLI outputs on the shipped scenarios.

The files under tests/golden/ were written by the CLI on these same
inputs.  Any change to a trace, summary, report, WAV or sweep CSV, down
to one digit of one number, fails here; a deliberate change regenerates
them with the commands these tests run (from the repository root, with
relative scenario paths, so the summary's scenario line is path-stable;
synth from the output directory with a relative --out, so the report's
output line is too).  The characterize CSVs cover a bare port over the
default 50 Hz-40 kHz band, where the two ultrasonic parts are not found,
the same parts behind a 1 m tube, and one damped part on a fine grid.
No shipped scenario has more rooms than the float loop takes, so
golden/many_rooms holds a test-only scenario of twenty rooms beside its
outputs: its comments say which rooms alarm and which only pass the
threshold.
"""

from pathlib import Path

import pytest

from nprsim.cli import main
from nprsim.plant import FLOAT_LOOP_MAX_ROOMS
from nprsim.scenario import load_scenario
from nprsim.waveform import calibration_carrier, write_wav

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.yaml"))


def _assert_same_bytes(out_dir: Path, golden_dir: Path, names: tuple[str, ...]) -> None:
    for name in names:
        assert (out_dir / name).read_bytes() == (golden_dir / name).read_bytes(), name


def test_every_shipped_scenario_has_a_golden():
    assert SCENARIOS == sorted(p.name for p in (GOLDEN / "simulate").iterdir())


@pytest.mark.parametrize("name", SCENARIOS)
def test_simulate_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["simulate", f"scenarios/{name}.yaml", "--out", str(tmp_path)]) == 0
    _assert_same_bytes(tmp_path, GOLDEN / "simulate" / name, ("trace.csv", "summary.txt"))


def test_simulate_of_many_rooms_with_a_monitor_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    path = "tests/golden/many_rooms/many_rooms.yaml"
    assert len(load_scenario(path).scenario.rooms) > FLOAT_LOOP_MAX_ROOMS
    assert main(["simulate", path, "--out", str(tmp_path)]) == 0
    _assert_same_bytes(tmp_path, GOLDEN / "many_rooms", ("trace.csv", "summary.txt"))


def test_evaluate_cm_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["evaluate-cm", "scenarios/acoustic_lpf.yaml", "--out", str(tmp_path)]) == 0
    _assert_same_bytes(tmp_path, GOLDEN / "evaluate-cm" / "acoustic_lpf",
                       ("report.csv", "report.txt"))


def test_evaluate_cm_enclosure_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = ["evaluate-cm", "scenarios/acoustic_lpf.yaml", "--kind", "enclosure",
            "--extra-loss-db", "12", "--out", str(tmp_path)]
    assert main(argv) == 0
    _assert_same_bytes(tmp_path, GOLDEN / "evaluate-cm" / "acoustic_lpf_enclosure",
                       ("report.csv", "report.txt"))


SYNTH_ARGS = {
    "carrier": ["--carrier", "carrier.wav", "--band", "680", "690"],
    "carrier_239993": ["--carrier", "carrier.wav", "--band", "680", "690"],
    "carrier_240007": ["--carrier", "carrier.wav", "--band", "680", "690"],
    "silence": ["--silence", "2.0", "--rate", "48000", "--band", "540", "670"],
}

# Samples of each case's calibration carrier at 48 kHz: 239,993 is
# 13 x 18,461, so suppress_band splits it into 13 phases, and 240,007 is
# prime, so it is transformed whole.
SYNTH_CARRIER_SAMPLES = {"carrier_239993": 239_993, "carrier_240007": 240_007}


@pytest.mark.parametrize("name", sorted(SYNTH_ARGS))
def test_synth_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_wav("carrier.wav", calibration_carrier(SYNTH_CARRIER_SAMPLES.get(name, 240_000) / 48000))
    argv = ["synth", *SYNTH_ARGS[name], "--td-ms", "2", "--ti-ms", "15", "--out", "attacked.wav"]
    assert main(argv) == 0
    _assert_same_bytes(tmp_path, GOLDEN / "synth" / name,
                       ("attacked.wav", "attacked.wav.psd.txt"))


SWEEP_ARGS = {
    "distance": ["--values", "0.002,0.005,0.01,0.03,0.07"],
    "spl": ["--start", "50", "--stop", "70", "--step", "5"],
    "ti": ["--start", "15", "--stop", "60", "--step", "5"],
    "tube_length": ["--values", "0.8,1.2,1.6"],
}


@pytest.mark.parametrize("axis", sorted(SWEEP_ARGS))
def test_sweep_matches_golden(axis, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{axis}.csv"
    argv = ["sweep", "scenarios/acoustic_lpf.yaml", "--axis", axis, *SWEEP_ARGS[axis],
            "--out", str(out)]
    assert main(argv) == 0
    _assert_same_bytes(tmp_path, GOLDEN / "sweep", (f"{axis}.csv",))


CHARACTERIZE_ARGS = {
    "all": ["--archetype", "all"],
    "all_tube_1m": ["--archetype", "all", "--tube-length", "1.0"],
    "A1011-00_damped": ["--archetype", "A1011-00", "--damping", "0.2",
                        "--lo", "400", "--hi", "900", "--step", "5"],
}


@pytest.mark.parametrize("name", sorted(CHARACTERIZE_ARGS))
def test_characterize_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(["characterize", *CHARACTERIZE_ARGS[name], "--out", str(out)]) == 0
    _assert_same_bytes(tmp_path, GOLDEN / "characterize", (f"{name}.csv",))
