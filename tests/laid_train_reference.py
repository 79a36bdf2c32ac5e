"""The burst train laid whole and driven through sensor.step_response: the
oracle the burst-interval drive of waveform.unit_response_means is checked
against, as lfilter_reference is the oracle for the state-space drive.
"""

import numpy as np

from nprsim.waveform import SegmentSchedule, _drive_bursts, _estimate_window


def unit_response(
    schedule: SegmentSchedule,
    model,
    tube,
    *,
    target_f_hz: float,
) -> tuple[np.ndarray, slice]:
    """Transducer output, Pa, for bursts of 1 Pa at the port, tuned to
    target_f_hz, and the estimate window over it: the whole burst
    intervals that fit in ESTIMATE_WINDOW_S after ESTIMATE_WARMUP_S of
    warm-up.  The output ends where the window does.

    The bursts are those that fit in two samples past the window, and a
    schedule is refused as such a drive would be.  The whole train is laid
    over those samples and step_response filters it in one call.
    """
    _k0, window = _estimate_window(schedule, model.sample_rate_hz)
    trace, _spans = _drive_bursts(schedule, model, tube, float(target_f_hz), 1.0,
                                  window.stop + 2)
    return trace.p_out_pa[:window.stop], window
