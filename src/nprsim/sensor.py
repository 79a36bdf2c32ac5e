"""Second-order models of differential pressure sensor (DPS) front ends.

A DPS diaphragm plus its pressure medium behaves as a damped second-order
oscillator.  When a sampling tube is attached, the tube/cavity acts as a
Helmholtz stage that shifts the resonance downward with tube length.  This
module provides the analytic resonance formulas, the critically damped
release envelope, and one fixed-step classical RK4 scheme for the
transducer response.

The oscillator is linear and the step is fixed, so one RK4 step is a linear
recurrence in the state and the inlet, derived once per model and step.
Every path runs on that recurrence:

- the swept-sine characterization, through the recurrence's exact
  steady-state gain at each tone, which is what a bench sweep with a
  speaker measures once each tone has rung up;
- the two structured inlets the command line drives, a burst train and a
  unit step, through the recurrence in state-space form (LinearChain),
  with any first-order sections after it as extra states, in numpy:
  segment_abs_means sums a train's rectified output one burst interval
  at a time, and step_last_outside finds where a step leaves a band, and
  neither builds the drive's samples;
- a sampled or callable inlet of any shape (step_response,
  step_response_fn), through lfilter, for library callers and as the
  tests' reference.  A periodic inlet is given as one period and
  filtered only until the state repeats; the samples after that are
  copied.

_lfilter is the package's single entry point to scipy.signal, imported on
first call; no subcommand reaches it.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

# libyaml's parser where PyYAML was built with it, the pure-Python one
# otherwise; both resolve and construct the same values.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

INCH_M = 0.0254

# Reference sampling tube: 5/16 inch inner diameter, the common size for
# room-pressure pickup lines.
REFERENCE_TUBE_ID_M = (5.0 / 16.0) * INCH_M

# One meter of reference tube shifts the resonance to 0.88x the tubeless
# value, which reproduces the measured downward drift of the resonant band
# when sampling tubes are attached.  See helmholtz_resonant_hz for the law.
TUBE_FREQ_RATIO_AT_1M = 0.88

# Dimensionless factor converting resonant diaphragm oscillation into
# displayed pressure units.  Bench readings of forged pressure are far larger
# than the raw acoustic amplitude at the port; this single gain absorbs the
# unmodeled transduction chain.  Value set by scripts/calibrate_defaults.py.
DEFAULT_READING_GAIN = 72626.6

DEFAULT_SAMPLE_RATE_HZ = 48000

# The integrator needs this many samples per period of the fastest dynamic
# to stay in its accurate regime.
MIN_SAMPLES_PER_PERIOD = 20

# Largest grid frequency_sweep evaluates.  A million tones peak at about
# 130 MB of temporaries; a finer grid is a mistyped step, not a sweep.
MAX_SWEEP_TONES = 1_000_000

# Fewest grid tones frequency_sweep scores: a resonance must peak at an
# interior tone, two or more from either end.
MIN_SWEEP_TONES = 5

# Most samples one drive of the transducer may hold: about 104 s at 48 kHz,
# 40 MB per array of them.  A longer burst or settle window is refused
# before it is built.
MAX_DRIVE_SAMPLES = 5_000_000

# The first block a drive filters holds at least this many samples.  On a
# 2-vCPU x86-64 VM an lfilter call costs about 23 us over its 6 ns a
# sample, the time of some 4,000 samples.
_FIRST_BLOCK_SAMPLES = 2048


class UnstableStepError(ValueError):
    """Raised when the integration step is too coarse for the model dynamics."""


class NoResonanceError(RuntimeError):
    """Raised when a frequency sweep finds no clear resonance in range."""


class Transducer(enum.Enum):
    CAPACITIVE = "capacitive"
    PIEZORESISTIVE = "piezoresistive"
    THERMAL_MASS_FLOW = "thermal_mass_flow"


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names, in order; fields() is slow to ask per instance."""
    return tuple(f.name for f in fields(cls))


def _require_finite_fields(obj) -> None:
    """Reject NaN and infinity in every numeric field of a dataclass, and
    integers too large to convert to a float.

    Range checks alone let NaN through, because every comparison with it
    is False.
    """
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        for x in value if isinstance(value, tuple) else (value,):
            try:
                finite = not isinstance(x, (int, float)) or math.isfinite(x)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class TubeAssembly:
    """Sampling tube between the monitored space and the sensor port.

    length_m of zero means the sensor port is bare (no tube).
    """

    length_m: float
    inner_diameter_m: float = REFERENCE_TUBE_ID_M
    pickup_device: bool = False

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.length_m < 0.0:
            raise ValueError(f"tube length must be >= 0, got {self.length_m}")
        if self.inner_diameter_m <= 0.0:
            raise ValueError(f"tube inner diameter must be > 0, got {self.inner_diameter_m}")
        try:
            area = self.cross_section_m2
        except OverflowError:
            area = math.inf
        if not 0.0 < area < math.inf:
            raise ValueError(f"tube inner diameter of {self.inner_diameter_m:g} m gives a "
                             "cross-section that is not a positive finite area")

    @property
    def cross_section_m2(self) -> float:
        return math.pi * self.inner_diameter_m**2 / 4.0

    @property
    def is_bare_port(self) -> bool:
        return self.length_m == 0.0


NO_TUBE = TubeAssembly(length_m=0.0)


@dataclass(frozen=True)
class DpsModel:
    """Second-order model of one differential pressure sensor.

    The tubeless resonance is the midpoint of resonant_band_hz, the band in
    which a bench sweep excites the strongest response; a sampling tube
    moves it by the law in :func:`helmholtz_resonant_hz`.  reading_gain
    scales resonant oscillation amplitude into displayed pressure units and
    has no effect on the static (DC) response.  transducer and
    pressure_range_pa label the part; no computation reads them.
    """

    part_id: str
    transducer: Transducer
    pressure_range_pa: tuple[float, float]
    resonant_band_hz: tuple[float, float]
    damping_ratio: float = 1.0
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ
    reading_gain: float = DEFAULT_READING_GAIN

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        lo, hi = self.pressure_range_pa
        if not lo < hi:
            raise ValueError(f"{self.part_id}: pressure range must have lower < upper, got ({lo}, {hi})")
        blo, bhi = self.resonant_band_hz
        if not 0.0 < blo < bhi:
            raise ValueError(f"{self.part_id}: resonant band must be positive with lower < upper")
        if self.damping_ratio < 0.0:
            raise ValueError(f"{self.part_id}: damping ratio must be >= 0")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"{self.part_id}: sample rate must be > 0")
        if self.reading_gain <= 0.0:
            raise ValueError(f"{self.part_id}: reading gain must be > 0")

    def with_damping(self, damping_ratio: float) -> "DpsModel":
        return replace(self, damping_ratio=damping_ratio)


@dataclass
class TransducerTrace:
    """Transducer output pressure at each sample time, samples dt_s apart
    from t = 0.

    Produced by :func:`step_response` and :func:`step_response_fn`.
    """

    p_out_pa: np.ndarray
    dt_s: float

    @property
    def time_s(self) -> np.ndarray:
        """Sample times, built on each read: most callers never ask."""
        return np.arange(self.p_out_pa.size) * self.dt_s


@dataclass
class SweepResult:
    """Outcome of a swept-sine characterization."""

    center_hz: float
    band_hz: tuple[float, float]
    frequencies_hz: np.ndarray
    peak_responses_pa: np.ndarray


def natural_resonant_hz(model: DpsModel) -> float:
    """Resonant frequency of the bare sensor: the midpoint of its band."""
    lo, hi = model.resonant_band_hz
    return 0.5 * (lo + hi)


def helmholtz_resonant_hz(model: DpsModel, tube: TubeAssembly) -> float:
    """Resonant frequency of the sensor with a sampling tube attached.

    The Helmholtz law f_n * TUBE_FREQ_RATIO_AT_1M * (d / REFERENCE_TUBE_ID_M)
    / sqrt(L) for a tube of inner diameter d and length L.  Raises
    ValueError for a bare port; use :func:`natural_resonant_hz` there.
    """
    if tube.is_bare_port:
        raise ValueError("bare port has no tube-coupled resonance; use natural_resonant_hz")
    return (natural_resonant_hz(model) * TUBE_FREQ_RATIO_AT_1M
            * (tube.inner_diameter_m / REFERENCE_TUBE_ID_M) / math.sqrt(tube.length_m))


def system_resonant_hz(model: DpsModel, tube: TubeAssembly | None) -> float:
    """Resonance of the assembled system: tube-coupled if a tube is present."""
    if tube is None or tube.is_bare_port:
        return natural_resonant_hz(model)
    return helmholtz_resonant_hz(model, tube)


def peak_decay(p0_pa: float, v0_pa_s: float, omega_h: float, t_s):
    """Critically damped release from pressure p0 and rate v0 at t=0.

    p(t) = p0*exp(-w*t) + (w*p0 + v0)*t*exp(-w*t).  Never changes sign when
    p0 > 0 and v0 >= -w*p0.  Accepts scalar or array t.
    """
    if omega_h <= 0.0:
        raise ValueError(f"omega_h must be > 0, got {omega_h}")
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("release time must be >= 0")
    envelope = np.exp(-omega_h * t)
    out = p0_pa * envelope + (omega_h * p0_pa + v0_pa_s) * t * envelope
    if out.ndim == 0:
        return float(out)
    return out


def _rk4_step(
    omega: float, xi: float, dt: float,
    p: float, v: float, u0: float, um: float, u1: float,
) -> tuple[float, float]:
    """One classical RK4 step of the oscillator from state (p, v).

    u0, um, u1 are the inlet at the step start, midpoint, and end.
    """
    w2 = omega * omega
    two_xi_w = 2.0 * xi * omega
    k1p = v
    k1v = w2 * (u0 - p) - two_xi_w * v
    p2 = p + 0.5 * dt * k1p
    v2 = v + 0.5 * dt * k1v
    k2p = v2
    k2v = w2 * (um - p2) - two_xi_w * v2
    p3 = p + 0.5 * dt * k2p
    v3 = v + 0.5 * dt * k2v
    k3p = v3
    k3v = w2 * (um - p3) - two_xi_w * v3
    p4 = p + dt * k3p
    v4 = v + dt * k3v
    k4p = v4
    k4v = w2 * (u1 - p4) - two_xi_w * v4
    return (
        p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
        v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _oscillator(model: DpsModel, tube: TubeAssembly | None, dt: float) -> tuple[float, float]:
    """(omega, xi) of the assembled system, once dt is checked to resolve it."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    f_sys = system_resonant_hz(model, tube)
    dt_max = 1.0 / (MIN_SAMPLES_PER_PERIOD * f_sys)
    if dt > dt_max:
        raise UnstableStepError(
            f"dt={dt:.3e} s too coarse for {f_sys:.1f} Hz dynamics; need dt <= {dt_max:.3e} s"
        )
    return 2.0 * math.pi * f_sys, model.damping_ratio


def _recurrence(omega: float, xi: float, dt: float):
    """(A, c0, cm, c1) of one RK4 step as a linear recurrence.

    The oscillator is linear and the step is fixed, so one step is
    z[k+1] = A z[k] + c0 u(t_k) + cm u(t_k + dt/2) + c1 u(t_k + dt) for the
    state z = (p, v).  Stepping basis states and unit inputs through
    _rk4_step gives every coefficient, so this is the classical scheme up
    to rounding.
    """
    def step(*args):
        return _rk4_step(omega, xi, dt, *args)

    (a11, a21), (a12, a22) = step(1.0, 0.0, 0.0, 0.0, 0.0), step(0.0, 1.0, 0.0, 0.0, 0.0)
    a = ((a11, a12), (a21, a22))
    return a, step(0.0, 0.0, 1.0, 0.0, 0.0), step(0.0, 0.0, 0.0, 1.0, 0.0), step(0.0, 0.0, 0.0, 0.0, 1.0)


def _sampled_recurrence(omega: float, xi: float, dt: float):
    """(A, c_now, c_next) of one RK4 step on a sampled inlet, whose midpoint
    is the average of its two neighbors: z[k+1] = A z[k] + c_now x[k] +
    c_next x[k+1]."""
    a, c0, cm, c1 = _recurrence(omega, xi, dt)
    return (a, (c0[0] + 0.5 * cm[0], c0[1] + 0.5 * cm[1]),
            (c1[0] + 0.5 * cm[0], c1[1] + 0.5 * cm[1]))


def _lfilter(b, a, x, zi=None):
    """scipy.signal.lfilter along the last axis, importing scipy.signal on first call."""
    from scipy.signal import lfilter

    return lfilter(b, a, x, zi=zi)


def _drive(a, c_now, c_next, period: np.ndarray, n: int) -> np.ndarray:
    """Pressure p of z[k+1] = A z[k] + c_now x[k] + c_next x[k+1] from z[0] = 0,
    for the n samples x[k] = period[k % period.size].

    Eliminating the rate state turns p into a second-order difference
    equation in x, which lfilter evaluates in compiled code.  It runs over
    blocks of whole periods, carrying its state; see step_response for
    when a block's output is copied instead.
    """
    (a11, a12), (a21, a22) = a
    (n0p, n0v), (n1p, n1v) = c_now, c_next
    den = [1.0, -(a11 + a22), a11 * a22 - a12 * a21]
    num = [n1p, n0p - a22 * n1p + a12 * n1v, a12 * n0v - a22 * n0p]
    # Initial filter state pinning z[0] = 0 and the correct first step even
    # when x starts nonzero.
    x0 = period[0]
    state = np.array([-num[0] * x0, (n0p - num[1]) * x0])
    size = period.size
    first = -(-_FIRST_BLOCK_SAMPLES // size) * size
    if 3 * first > n:
        # A repeat shows two blocks in at the earliest, too late to pay for
        # the blocks: filter the drive in one call.
        first = n
    out, done = np.empty(n), 0
    while done < n:
        # Each block after the first is as long as all before it.
        length = min(max(first, done), n - done)
        x = period[:length] if length <= size else np.tile(period, -(-length // size))[:length]
        p, end = _lfilter(num, den, x, zi=state)
        if length == n:
            return p
        out[done:done + length] = p
        done += length
        if end.tobytes() == state.tobytes():
            # The state and the inlet both repeat, so every later block
            # repeats this one: copy the filled run of it forward, doubling.
            start = done - length
            while done < n:
                span = min(done - start, n - done)
                out[done:done + span] = out[start:start + span]
                done += span
        state = end
    return out


def _require_finite_inlet(series: np.ndarray) -> None:
    if not np.all(np.isfinite(series)):
        raise ValueError("inlet contains non-finite samples")


def step_response(
    model: DpsModel,
    tube: TubeAssembly | None,
    inlet,
    dt: float,
    *,
    n_samples: int | None = None,
) -> TransducerTrace:
    """Integrate the transducer output for a sampled inlet pressure history.

    inlet is an array of samples spaced dt apart; the inlet midway between
    two samples is taken as their average.  The integrator is a fixed step
    classical 4th-order scheme; dt must give at least
    MIN_SAMPLES_PER_PERIOD samples per period of the system resonance or
    UnstableStepError is raised.  The transducer starts at rest.

    With n_samples given, inlet is one period of a drive that long: sample
    k of the drive is inlet[k % inlet.size].  By default the drive is the
    inlet once.  Either way it is driven in blocks of whole periods, the
    first of at least 2,048 samples and each next one as long as all
    before it, so a drive whose state never repeats makes about
    log2(n_samples / inlet.size) filter calls; a drive of under three
    first blocks is one call.  When the filter state at a block's end holds the same bytes as
    at its start, every later block starts from that state with the same
    inlet, and the recurrence is linear and time-invariant, so its output
    is this block's to the bit: the rest of the drive is copied from it.
    Bytes, not values, are compared, so 0.0 and -0.0 count as different.
    An empty inlet, or a drive of no samples or of more than
    MAX_DRIVE_SAMPLES, is refused.
    """
    omega, xi = _oscillator(model, tube, dt)
    if callable(inlet):
        raise TypeError("inlet must be a sample array; use step_response_fn for callables")
    series = np.asarray(inlet, dtype=float)
    if series.ndim != 1 or not series.size:
        raise ValueError(f"inlet must be one-dimensional and not empty, got shape {series.shape}")
    n = series.size if n_samples is None else n_samples
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_DRIVE_SAMPLES):
        raise ValueError(f"a drive must hold 1 to {MAX_DRIVE_SAMPLES} samples, got {n!r}")
    _require_finite_inlet(series)
    return TransducerTrace(p_out_pa=_drive(*_sampled_recurrence(omega, xi, dt), series, n), dt_s=dt)


def step_response_fn(
    model: DpsModel,
    tube: TubeAssembly | None,
    inlet: Callable[[float], float],
    duration_s: float,
    dt: float,
) -> TransducerTrace:
    """Like :func:`step_response` but with the inlet given as a smooth function.

    The function is sampled on the half-step grid, so every step sees the
    exact inlet at its start, midpoint and end and the scheme keeps its
    full 4th-order accuracy.
    """
    omega, xi = _oscillator(model, tube, dt)
    if not duration_s >= 0.0:
        raise ValueError(f"duration must be >= 0, got {duration_s}")
    n = int(round(duration_s / dt)) + 1
    # The inlet takes one time in seconds, so it is called once per half step;
    # the recurrence itself runs in lfilter.
    half_steps = np.array([inlet(t) for t in (0.5 * dt * np.arange(2 * n - 1)).tolist()], dtype=float)
    _require_finite_inlet(half_steps)
    a, c0, cm, c1 = _recurrence(omega, xi, dt)
    p_node = _drive(a, c0, c1, half_steps[0::2], n)
    # The midpoint after the last node drives no returned state.
    p_mid = _drive(a, cm, (0.0, 0.0), np.append(half_steps[1::2], 0.0), n)
    return TransducerTrace(p_out_pa=p_node + p_mid, dt_s=dt)


# The drives below hold tables of at most this many numbers (2 MB), and
# take longer spans in blocks of one table.  The settle step is driven in
# blocks of _STEP_SAMPLES.
_TABLE_ENTRIES = 1 << 18
_STEP_SAMPLES = 2048


@dataclass(frozen=True)
class LinearChain:
    """A linear time-invariant chain driven by one sampled inlet x.

    X[k+1] = a X[k] + b x[k], and output row i is
    y_i[k] = c[i] X[k] + d[i] x[k].  The chain starts at X[0] = first x[0],
    which for the transducer pins its output at sample 0 to zero even when
    the inlet starts nonzero, as :func:`step_response` does.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    first: np.ndarray

    def then_sections(self, gains) -> "LinearChain":
        """This chain with first-order sections y[k] = g u[k] + (1 - g) y[k-1]
        in series after its last output, one per gain g, each from rest; the
        output of the last section is added as a new last output row.  No
        gains leave the chain as it is."""
        if not gains:
            return self
        old, size = self.b.size, self.b.size + len(gains)
        a, b, first = np.zeros((size, size)), np.zeros(size), np.zeros(size)
        a[:old, :old], b[:old], first[:old] = self.a, self.b, self.first
        c_out, d_out = np.zeros(size), self.d[-1]
        c_out[:old] = self.c[-1]
        for k, g in enumerate(gains, start=old):
            # State k holds the section's last output.
            a[k] = g * c_out
            a[k, k] = 1.0 - g
            b[k] = g * d_out
            c_out *= g
            c_out[k] = 1.0 - g
            d_out *= g
        c = np.zeros((self.d.size + 1, size))
        c[:-1, :old], c[-1] = self.c, c_out
        return LinearChain(a=a, b=b, c=c, d=np.append(self.d, d_out), first=first)


def transducer_chain(model: DpsModel, tube: TubeAssembly | None, dt: float) -> LinearChain:
    """The RK4 recurrence of :func:`step_response` as a LinearChain whose
    one output is the transducer pressure.

    With w[k] = z[k] - c_next x[k], the recurrence
    z[k+1] = A z[k] + c_now x[k] + c_next x[k+1] becomes
    w[k+1] = A w[k] + (A c_next + c_now) x[k], and p[k] = w_p[k] + c_next_p x[k].
    """
    omega, xi = _oscillator(model, tube, dt)
    a, c_now, c_next = _sampled_recurrence(omega, xi, dt)
    a = np.array(a)
    c_next = np.array(c_next)
    return LinearChain(a=a, b=a @ c_next + np.array(c_now), c=np.array([[1.0, 0.0]]),
                       d=c_next[:1], first=-c_next)


def _borders(marks: list) -> list[int]:
    """The prefix function of marks: border[i] is the length of the longest
    proper prefix of marks[:i + 1] that is also a suffix of it.  marks
    repeats every len(marks) - border[-1] items, and the chain of borders
    from the last gives every other period, shortest first."""
    border = [0] * len(marks)
    for i in range(1, len(marks)):
        b = border[i - 1]
        while b and marks[i] != marks[b]:
            b = border[b - 1]
        border[i] = b + (marks[i] == marks[b])
    return border


def _period(marks: np.ndarray) -> int:
    """The smallest q for which marks[i] == marks[i - q] for every i >= q:
    tried directly up to 7, from the borders past that."""
    for q in range(1, min(marks.size, 8)):
        if marks[q] == marks[0] and np.array_equal(marks[q:], marks[:-q]):
            return q
    return marks.size - _borders(marks.tolist())[-1] if marks.size else 1


def _free_response(rows: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Outputs c a^j X of one output row c, for its table rows c a^j and
    states X of shape (state,) or (state, column): every sample the drives
    below evaluate from a state passes through here."""
    return rows @ states


class _Tables:
    """The powers a^j of one chain for j below a table length, its rows
    c a^j and its impulse response, built by doubling; a drive takes a
    span longer than the table in blocks of it."""

    def __init__(self, chain: LinearChain, needed: int):
        self.chain = chain
        size, outputs = chain.b.size, chain.d.size
        # Block j stacks a^j over c a^j, so one product doubles the table:
        # blocks 1..m times a^m are blocks m+1..2m, the last one a^(2m).
        # The table spans the smallest power of two of samples that covers
        # needed, or as many as _TABLE_ENTRIES numbers allow.
        width = size + outputs
        most = max(2, _TABLE_ENTRIES // (width * size))
        length = 1 << min(max(needed - 1, 1).bit_length(), most.bit_length() - 1)
        table = np.empty(((length + 1) * width, size))
        table[:size], table[size:width] = np.eye(size), chain.c
        table[width:2 * width] = table[:width] @ chain.a
        filled = 1
        while filled < length:
            jump = table[filled * width:filled * width + size]
            np.matmul(table[width:(filled + 1) * width], jump,
                      out=table[(filled + 1) * width:(2 * filled + 1) * width])
            filled *= 2
        blocks = table.reshape(length + 1, width, size)
        self.length = length
        self.powers = blocks[:, :size]
        self.jump = self.powers[length]
        # The rows c a^j of each output, and a^j b, as (j, state) views.
        self.rows = [blocks[:length, size + i] for i in range(outputs)]
        table_b = (table @ chain.b).reshape(length + 1, width)
        self.powers_b = table_b[:length, :size]
        # The impulse response d, c b, c a b, ... as (j, output).
        self.pulse = np.vstack((chain.d, table_b[:length - 1, size:]))
        self.ones = np.ones(length)

    def power(self, k: int) -> np.ndarray:
        if k < self.length:
            return self.powers[k]
        blocks, rest = divmod(k, self.length)
        return np.linalg.matrix_power(self.jump, blocks) @ self.powers[rest]

    def outputs(self, states: np.ndarray, count: int) -> np.ndarray:
        """The free response c a^j states for j < count, at most one table
        long, as (j, output, ...)."""
        if len(self.rows) == 1:
            return _free_response(self.rows[0][:count], states)[:, None]
        return np.stack([_free_response(rows[:count], states) for rows in self.rows], axis=1)

    def free(self, states: np.ndarray, lo: int, hi: int):
        """(j, outputs) blocks of the free response c a^j states over
        lo <= j < hi, for states of shape (state,) or (state, column)."""
        if lo:
            states = self.power(lo) @ states
        for start in range(lo, hi, self.length):
            count = min(self.length, hi - start)
            yield start, self.outputs(states, count)
            if start + count < hi:
                states = self.jump @ states

    def zero_state(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Outputs (sample, output) of the chain driven by x from X[0] = 0,
        and its state after the last sample."""
        out = np.empty((x.size, self.chain.d.size))
        state = np.zeros(self.chain.b.size)
        for start in range(0, x.size, self.length):
            part = x[start:start + self.length]
            count = part.size
            for i in range(out.shape[1]):
                out[start:start + count, i] = np.convolve(part, self.pulse[:count, i])[:count]
            if start:
                out[start:start + count] += self.outputs(state, count)
            # a^count state plus the sum of a^(count-1-j) b x[j].
            state = self.power(count) @ state + part[::-1] @ self.powers_b[:count]
        return out, state

    def unit_step(self) -> tuple[np.ndarray, np.ndarray]:
        """Outputs (sample, output) of the response to a unit step from
        X[0] = 0 over one table length, and the state after it: output j
        sums the impulse response up to j, and the state a^i b over all i."""
        return np.cumsum(self.pulse, axis=0), self.ones @ self.powers_b


def segment_abs_means(
    chain: LinearChain,
    inlet: np.ndarray,
    segments: np.ndarray,
    n: int,
    window: slice,
) -> np.ndarray:
    """Mean |y| of each output of chain over window, for an n-sample inlet
    that is zero but for the heads of its segments.

    segments holds one (start, offset, size) row per segment: segment i
    runs from its start (the first at 0) to the next segment's, the last
    one to n, and its inlet is inlet[offset:offset + size] followed by
    zeros.  By superposition its output is the free response to the state
    it starts in plus the zero-state response to its inlet, which is
    computed once per kind, a distinct head and length; the state is
    carried from segment to segment.

    The chain is linear and time-invariant, so where the kinds repeat
    every q segments and the segment at a multiple i of q starts in the
    bytes the one at an earlier multiple j started in, every later
    segment starts in the state the segment i - j before it did: the
    drive stops carrying the state there.  Each kind's segments are
    summed in one product per block, once per distinct start state, and
    no output is held for more than one table of samples per state.  An
    inlet with a non-finite sample is refused, as step_response refuses
    it.
    """
    _require_finite_inlet(inlet)
    segments = np.asarray(segments)
    starts = segments[:, 0]
    lengths = np.append(starts[1:], n) - starts
    tables = _Tables(chain, int(np.max(lengths)))
    # Segment i is of kind kind[i], a head (offset, size) and a length;
    # segment first[k] is the first of kind k.
    marks = np.column_stack((segments[:, 1:], lengths))
    reach = [int(np.max(column)) + 1 for column in marks.T]
    axis = 0
    if reach[0] * reach[1] * reach[2] < 1 << 63:
        # One number per kind, which np.unique sorts faster than rows.
        marks, axis = (marks[:, 0] * reach[1] + marks[:, 1]) * reach[2] + marks[:, 2], None
    _marks, first, kind = np.unique(marks, axis=axis, return_index=True, return_inverse=True)
    kind = kind.ravel()
    kind_head = list(zip(*(column.tolist() for column in segments[first, 1:].T)))
    kind_length = lengths[first].tolist()
    longest: dict[tuple[int, int], int] = {}
    for h, length in zip(kind_head, kind_length):
        longest[h] = max(longest.get(h, 0), length)
    heads: dict[tuple[int, int], tuple] = {}
    responses: dict[int, tuple] = {}

    def response(k):
        """Zero-state outputs (sample, output) over a segment of kind k, and
        the map (jump, drive) from its start state to its end state."""
        if k not in responses:
            h, length = kind_head[k], kind_length[k]
            offset, size = h
            if h not in heads:
                # Over the head's longest segment: a shorter one is a prefix.
                outputs, after = tables.zero_state(inlet[offset:offset + size])
                zero_state = np.empty((longest[h], chain.d.size))
                zero_state[:size] = outputs
                for start, y in tables.free(after, 0, longest[h] - size):
                    zero_state[size + start:size + start + y.shape[0]] = y
                heads[h] = (zero_state, after)
            zero_state, after = heads[h]
            responses[k] = (zero_state[:length], tables.power(length),
                            tables.power(length - size) @ after)
        return responses[k]

    kinds = kind.tolist()
    # The kinds of all segments but the last, which the drive's end may
    # cut, repeat every q segments; so does the state from the first
    # multiple of q at which it holds bytes it held at an earlier one.
    # Rounding can leave the state cycling over several multiples of q
    # rather than still, so every multiple of q is remembered.
    q = _period(kind[:-1])
    _start, offset, size = segments[0].tolist()
    carried = [chain.first * (float(inlet[offset]) if starts[0] == 0 and size else 0.0)]
    seen = {carried[0].tobytes(): 0}
    repeat = period = None
    for i in range(1, len(kinds)):
        _zero_state, jump, drive = response(kinds[i - 1])
        state = jump @ carried[-1] + drive
        if i % q == 0:
            j = seen.setdefault(state.tobytes(), i)
            if j < i:
                repeat, period = j, i - j
                break
        carried.append(state)

    # Segment i starts in the state carried[at[i]] and adds its samples lo
    # to hi to the window: all of them but where the window cuts it.
    at = np.arange(len(kinds))
    if repeat is not None:
        at[len(carried):] = repeat + (at[len(carried):] - repeat) % period
    lo = np.maximum(window.start - starts, 0)
    hi = np.minimum(window.stop - starts, lengths)
    whole = (lo == 0) & (hi == lengths)
    groups: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    pairs, counts = np.unique(kind[whole] * len(carried) + at[whole], return_counts=True)
    for pair, count in zip(pairs.tolist(), counts.tolist()):
        k, i = divmod(pair, len(carried))
        groups.setdefault((k, 0, kind_length[k]), []).append((i, count))
    for i in np.flatnonzero((hi > lo) & ~whole).tolist():
        groups.setdefault((kinds[i], int(lo[i]), int(hi[i])), []).append((int(at[i]), 1))
    total = np.zeros(chain.d.size)
    for (k, first_sample, last_sample), members in groups.items():
        states = np.column_stack([carried[i] for i, _count in members])
        sums = _segment_abs_sums(tables, states, response(k)[0], first_sample, last_sample)
        total += sums @ np.array([count for _i, count in members], dtype=float)
    return total / (window.stop - window.start)


def _segment_abs_sums(tables: _Tables, states, zero_state, lo: int, hi: int) -> np.ndarray:
    """Sums (output, column) of |y| over samples lo <= j < hi of segments
    that start in the columns of states, with the zero-state outputs
    zero_state."""
    total = np.zeros(zero_state.shape[1] * states.shape[1])
    for start, y in tables.free(states, lo, hi):
        y += zero_state[start:start + y.shape[0], :, None]
        total += tables.ones[:y.shape[0]] @ np.abs(y, out=y).reshape(y.shape[0], -1)
    return total.reshape(zero_state.shape[1], states.shape[1])


def step_last_outside(chain: LinearChain, n: int, band: float) -> int:
    """Index of the last of the first n samples at which the last output of
    chain's response to a unit step lies band or more from 1, or -1 when
    none does.

    The step is driven in blocks of one table length, each the free
    response to its start state plus the zero-state step response.  Once a
    block ends in the bytes it started in, every later block repeats it,
    and the rest is read off that block.
    """
    tables = _Tables(chain, _STEP_SAMPLES)
    block = tables.length
    step, after = tables.unit_step()
    rows, step = tables.rows[-1], step[:, -1]
    state = chain.first.copy()
    last = -1
    for start in range(0, n, block):
        count = min(block, n - start)
        y = _free_response(rows[:count], state) + step[:count]
        outside = np.flatnonzero(np.abs(y - 1.0) >= band)
        if outside.size:
            last = start + int(outside[-1])
        following = tables.jump @ state + after
        if following.tobytes() == state.tobytes():
            final = (n - 1) // block * block
            if not outside.size or final == start:
                return last
            # The final block is this one, cut to n - final samples.
            in_final = outside[outside < n - final]
            if in_final.size:
                return final + int(in_final[-1])
            return final - block + int(outside[-1])
        state = following
    return last


def frequency_sweep(
    model: DpsModel,
    tube: TubeAssembly | None,
    lo_hz: float,
    hi_hz: float,
    step_hz: float,
) -> SweepResult:
    """Score the sensor's steady response to single tones over a frequency grid.

    Each grid tone is scored by the amplitude its output settles to under
    the same RK4 recurrence that :func:`step_response` integrates, at a
    step dt = 1/(25 max(hi_hz, f_sys)).  With z = exp(j 2 pi f dt) that
    amplitude is |e1' (zI - A)^-1 (c0 + cm z^(1/2) + c1 z)| per pascal of
    tone, which a time-domain tone run approaches once its transient has
    decayed; no state is shared between tones, so the result does not
    depend on sweep direction.

    A resonance is reported when a clear interior peak stands out from the
    rest of the curve.  Raises NoResonanceError when the response is flat
    or keeps rising into the sweep boundary, which is how a resonance
    above the sweep ceiling presents, and ValueError for a grid of fewer
    than MIN_SWEEP_TONES or more than MAX_SWEEP_TONES tones.
    """
    if not 0.0 < lo_hz < hi_hz:
        raise ValueError(f"need 0 < lo < hi, got ({lo_hz}, {hi_hz})")
    if not step_hz > 0.0:
        raise ValueError(f"step must be > 0, got {step_hz}")
    tones = (hi_hz - lo_hz) / step_hz + 0.5
    if not tones <= MAX_SWEEP_TONES:
        raise ValueError(
            f"a {step_hz:g} Hz step over {lo_hz:g}-{hi_hz:g} Hz gives {tones:.3g} tones, "
            f"more than the {MAX_SWEEP_TONES} a sweep allows"
        )
    if model.damping_ratio <= 0.0:
        raise ValueError("an undamped model never settles; sweep needs damping_ratio > 0")
    freqs = np.arange(lo_hz, hi_hz + 0.5 * step_hz, step_hz)
    if freqs.size < MIN_SWEEP_TONES:
        raise ValueError(
            f"a {step_hz:g} Hz step over {lo_hz:g}-{hi_hz:g} Hz gives {freqs.size} tones, "
            f"fewer than the {MIN_SWEEP_TONES} a sweep needs to find an interior peak"
        )
    dt = 1.0 / (25.0 * max(hi_hz, system_resonant_hz(model, tube)))
    a, c0, cm, c1 = _recurrence(*_oscillator(model, tube, dt), dt)
    (a11, a12), (a21, a22) = a
    w_dt = 2.0 * math.pi * freqs * dt
    z = np.exp(1j * w_dt)
    half = np.exp(0.5j * w_dt)
    b_p = c0[0] + cm[0] * half + c1[0] * z
    b_v = c0[1] + cm[1] * half + c1[1] * z
    gain = ((z - a22) * b_p + a12 * b_v) / (z * z - (a11 + a22) * z + (a11 * a22 - a12 * a21))
    peak = np.abs(gain)

    i_max = int(np.argmax(peak))
    floor = float(np.percentile(peak, 25.0))
    # The interior check is the real discriminator: a second-order response
    # with no peak in range (or a peak beyond the sweep edge) always
    # maximizes at a boundary.  The prominence floor only rejects near-flat
    # plateaus whose argmax wanders into the interior on numerical wiggle;
    # those measure within a percent of 1x, so a 1.2x floor is generous.
    prominent = peak[i_max] >= 1.2 * max(floor, 1e-30)
    interior = 2 <= i_max <= freqs.size - 3
    if not (prominent and interior):
        raise NoResonanceError(
            f"{model.part_id}: no resonance between {lo_hz:.0f} and {hi_hz:.0f} Hz "
            f"(peak index {i_max} of {freqs.size}, prominence {peak[i_max] / max(floor, 1e-30):.2f}x)"
        )
    center = float(freqs[i_max])
    return SweepResult(
        center_hz=center,
        band_hz=(center - step_hz, center + step_hz),
        frequencies_hz=freqs,
        peak_responses_pa=peak,
    )


_ARCHETYPE_ENV = "NPRSIM_ARCHETYPES"
# The packaged table, as an absolute path string: a cached lookup builds no path.
_DEFAULT_ARCHETYPES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "data", "archetypes.yaml")
_ARCHETYPE_CACHE: dict[str, dict[str, DpsModel]] = {}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The table values each DpsModel field type accepts; DpsModel checks the rest.
_ARCHETYPE_TYPES = {
    "str": lambda v: isinstance(v, str),
    "int": _is_int,
    "float": _is_number,
    "Transducer": lambda v: isinstance(v, str) and v in {t.value for t in Transducer},
    "tuple[float, float]": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
}


def _archetype_model(path: Path, index: int, record: dict) -> DpsModel:
    """DpsModel(**record), once each key is a field and each value has its field's type."""
    where = f"{path}: archetype {record.get('part_id', f'sensors[{index}]')}"
    names = {f.name for f in fields(DpsModel)}
    unknown = [key for key in record if key not in names]
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")
    for f in fields(DpsModel):
        if f.name in record and not _ARCHETYPE_TYPES[f.type](record[f.name]):
            raise ValueError(f"{where}: key {f.name!r}: expected {f.type}, got {record[f.name]!r}")
        if f.name not in record and f.default is MISSING:
            raise ValueError(f"{where}: required key {f.name!r} missing")
    try:
        return DpsModel(**{**record, "transducer": Transducer(record["transducer"]),
                           "pressure_range_pa": tuple(record["pressure_range_pa"]),
                           "resonant_band_hz": tuple(record["resonant_band_hz"])})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_archetypes() -> dict[str, DpsModel]:
    """Load the bundled (or user-supplied) sensor archetype table.

    The table is the file the NPRSIM_ARCHETYPES environment variable
    names, or else the packaged data file.  Each record of its 'sensors'
    list, over its 'defaults' mapping, holds DpsModel's fields.  Returns
    {part_id: DpsModel}; any problem with the file raises one ValueError
    that names it.
    """
    chosen = os.environ.get(_ARCHETYPE_ENV)
    # abspath, not resolve(): a lookup must not walk the file system.
    key = _DEFAULT_ARCHETYPES if chosen is None else os.path.abspath(chosen)
    if key in _ARCHETYPE_CACHE:
        return _ARCHETYPE_CACHE[key]
    path = Path(_DEFAULT_ARCHETYPES if chosen is None else chosen)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read the archetype table: {exc}") from None
    except yaml.YAMLError as exc:  # one line: the problem and where it is
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else 1
        raise ValueError(f"{path}: line {line}: {getattr(exc, 'problem', None) or exc}") from None
    defaults = raw.get("defaults") or {} if isinstance(raw, dict) else None
    if not (isinstance(defaults, dict) and isinstance(raw.get("sensors"), list)):
        raise ValueError(f"{path}: archetype file must be a mapping with a 'sensors' list "
                         "and an optional 'defaults' mapping")
    out: dict[str, DpsModel] = {}
    for index, rec in enumerate(raw["sensors"]):
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: sensors[{index}] must be a mapping")
        model = _archetype_model(path, index, {**defaults, **rec})
        if model.part_id in out:
            raise ValueError(f"{path}: duplicate part id {model.part_id}")
        out[model.part_id] = model
    _ARCHETYPE_CACHE[key] = out
    return out


def archetype(part_id: str) -> DpsModel:
    """Look up one bundled archetype by part id."""
    table = load_archetypes()
    try:
        return table[part_id]
    except KeyError:
        raise KeyError(f"unknown archetype {part_id!r}; have {sorted(table)}") from None
