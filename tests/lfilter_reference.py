"""The transducer and low-pass drives run by scipy.signal.lfilter: the
oracle the agreement tests check the package's state-space drive against,
sharing no code with it beyond the recurrence's coefficients.

drive is the package's former lfilter drive, run in long double.  It
eliminates the rate state, so the RK4 recurrence becomes one second-order
difference equation in the inlet, evaluated in compiled code.  In float64
that section's rounding drifts from the recurrence by up to 3.6e-12 of a
lightly damped train's mean, more than the package's own drive does; in
an extended long double it stayed within 1e-16 on the train where float64
drifted 1.03e-12.
"""

import math

import numpy as np
from scipy.signal import lfilter

from nprsim import sensor


def drive(a, c_now, c_next, x: np.ndarray) -> np.ndarray:
    """Pressure p of z[k+1] = A z[k] + c_now x[k] + c_next x[k+1] from z[0] = 0.

    Eliminating the rate state turns p into a second-order difference
    equation in x, which lfilter evaluates in compiled code, in one call
    over the whole inlet.  The coefficients and the filter run in long
    double; the pressure returns in float64.
    """
    (a11, a12), (a21, a22) = ((np.longdouble(v) for v in row) for row in a)
    (n0p, n0v), (n1p, n1v) = ((np.longdouble(v) for v in c) for c in (c_now, c_next))
    den = np.array([1.0, -(a11 + a22), a11 * a22 - a12 * a21], dtype=np.longdouble)
    num = np.array([n1p, n0p - a22 * n1p + a12 * n1v, a12 * n0v - a22 * n0p],
                   dtype=np.longdouble)
    x = np.asarray(x, dtype=np.longdouble)
    # Initial filter state pinning z[0] = 0 and the correct first step even
    # when x starts nonzero.
    x0 = x[0]
    zi = np.array([-num[0] * x0, (n0p - num[1]) * x0], dtype=np.longdouble)
    return lfilter(num, den, x, zi=zi)[0].astype(float)


def step_response(model, tube, inlet, dt: float) -> np.ndarray:
    """sensor.step_response's pressure over a sampled inlet."""
    recurrence = sensor._sampled_recurrence(*sensor._oscillator(model, tube, dt), dt)
    return drive(*recurrence, np.asarray(inlet, dtype=float))


def step_response_fn(model, tube, inlet, duration_s: float, dt: float) -> np.ndarray:
    """sensor.step_response_fn's pressure: the inlet sampled on the half-step
    grid, its nodes and midpoints driven apart and added."""
    n = int(round(duration_s / dt)) + 1
    half_steps = np.array([inlet(t) for t in (0.5 * dt * np.arange(2 * n - 1)).tolist()])
    a, c0, cm, c1 = sensor._recurrence(*sensor._oscillator(model, tube, dt), dt)
    return (drive(a, c0, c1, half_steps[0::2])
            + drive(a, cm, (0.0, 0.0), np.append(half_steps[1::2], 0.0)))


def one_pole(x: np.ndarray, gain: float, first: float) -> np.ndarray:
    """y[k] = gain x[k] + (1 - gain) y[k-1] from y[-1] = first."""
    return lfilter([gain], [1.0, gain - 1.0], x, zi=[(1.0 - gain) * first])[0]


def lpf_cascade(signal, cutoff_hz: float, dt: float, order: int = 1) -> np.ndarray:
    """countermeasures.lpf_cascade: order sections, each settled at its
    input's first sample."""
    gain = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz * dt)
    out = np.asarray(signal, dtype=float)
    for _ in range(order):
        out = one_pole(out, gain, out[0])
    return out
