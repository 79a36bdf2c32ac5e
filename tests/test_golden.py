"""Byte-for-byte goldens for the CLI outputs on the shipped scenarios.

The files under tests/golden/ were written by the CLI on these same
inputs.  Any change to a trace, summary or report, down to one digit of
one number, fails here; a deliberate change regenerates them with the
commands these tests run (from the repository root, with relative
scenario paths, so the summary's scenario line is path-stable).
"""

from pathlib import Path

import pytest

from nprsim.cli import main

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


def test_evaluate_cm_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["evaluate-cm", "scenarios/acoustic_lpf.yaml", "--out", str(tmp_path)]) == 0
    _assert_same_bytes(tmp_path, GOLDEN / "evaluate-cm" / "acoustic_lpf",
                       ("report.csv", "report.txt"))
