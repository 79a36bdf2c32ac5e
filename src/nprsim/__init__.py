"""Simulation toolkit for acoustic resonance attacks on negative-pressure rooms.

Models the full chain: an audio source emitting resonant tone bursts, the
acoustic path into a differential pressure sensor, the sensor's second-order
response, the room's ventilation control loop acting on the corrupted
reading, and candidate countermeasures.
"""

__version__ = "0.1.0"


def _import_numpy_on_one_blas_thread() -> None:
    """Import numpy with OpenBLAS held to the calling thread.

    OpenBLAS starts a helper thread per extra core when numpy loads, and
    that thread spins through the rest of the import, and after any
    product large enough to wake it.  The commands gain nothing from it;
    a library drive over millions of samples runs faster in wall time
    with it, for more CPU time (README, Cold start).  OpenBLAS reads
    its thread count once, as it loads, so OPENBLAS_NUM_THREADS=1 is set
    only for the import and then deleted: child processes inherit nothing.
    A thread count the user set (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS) stands, and a numpy imported before this package
    keeps the threads it started with.
    """
    import importlib
    import os
    import sys

    if "numpy" in sys.modules or any(
            name in os.environ
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_on_one_blas_thread()

from .sensor import (
    DpsModel,
    NO_TUBE,
    NoResonanceError,
    SweepResult,
    Transducer,
    TransducerTrace,
    TubeAssembly,
    UnstableStepError,
    frequency_sweep,
    helmholtz_resonant_hz,
    natural_resonant_hz,
    peak_decay,
    step_response,
    step_response_fn,
    system_resonant_hz,
)
from .acoustics import (
    AcousticSource,
    propagate,
    spl_to_pressure_amp,
)
from .waveform import (
    AudioBuffer,
    ClippingError,
    ScheduleError,
    SegmentSchedule,
    attack_response_trace,
    calibration_carrier,
    forged_pressure_estimate,
    psd_ratio,
    read_wav,
    segment_mask,
    suppress_band,
    synthesize_attack,
    write_wav,
)
from .plant import (
    AlarmConfig,
    AlarmEvent,
    AttackPlan,
    ControllerConfig,
    DpsBinding,
    FanSpec,
    NprScenario,
    PortWiring,
    RoomConfig,
    SimulationTrace,
    WiringError,
    as_replay,
    balanced_fans,
    rpm_alarm,
    simulate_scenario,
)
from .countermeasures import (
    Countermeasure,
    CountermeasureReport,
    CutoffError,
    apply_lpf,
    enclosure_lag_s,
    evaluate_countermeasure,
    lpf_cascade,
    measurement_settle_time_s,
)
from .scenario import (LoadedScenario, ScenarioError, archetype, load_archetypes, load_scenario,
                       parse_scenario)

__all__ = [
    "AcousticSource",
    "AlarmConfig",
    "AlarmEvent",
    "AttackPlan",
    "AudioBuffer",
    "ClippingError",
    "ControllerConfig",
    "Countermeasure",
    "CountermeasureReport",
    "CutoffError",
    "DpsBinding",
    "DpsModel",
    "FanSpec",
    "LoadedScenario",
    "NO_TUBE",
    "NoResonanceError",
    "NprScenario",
    "PortWiring",
    "RoomConfig",
    "ScenarioError",
    "ScheduleError",
    "SegmentSchedule",
    "SimulationTrace",
    "SweepResult",
    "Transducer",
    "TransducerTrace",
    "TubeAssembly",
    "UnstableStepError",
    "WiringError",
    "apply_lpf",
    "archetype",
    "as_replay",
    "attack_response_trace",
    "balanced_fans",
    "calibration_carrier",
    "enclosure_lag_s",
    "evaluate_countermeasure",
    "forged_pressure_estimate",
    "frequency_sweep",
    "helmholtz_resonant_hz",
    "load_archetypes",
    "load_scenario",
    "lpf_cascade",
    "measurement_settle_time_s",
    "natural_resonant_hz",
    "parse_scenario",
    "peak_decay",
    "propagate",
    "psd_ratio",
    "read_wav",
    "rpm_alarm",
    "segment_mask",
    "simulate_scenario",
    "spl_to_pressure_amp",
    "step_response",
    "step_response_fn",
    "suppress_band",
    "synthesize_attack",
    "system_resonant_hz",
    "write_wav",
]
