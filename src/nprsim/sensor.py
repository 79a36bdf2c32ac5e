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
- every drive in the time domain, through the recurrence in state-space
  form (LinearChain), with any first-order sections after it as extra
  states: segment_abs_means sums a burst train's rectified output by
  burst intervals, carrying the state one interval at a time, and
  step_last_outside finds where a step leaves a band, neither building
  the drive's samples; a sampled or callable inlet of any shape
  (step_response, step_response_fn) is driven whole, in blocks, by
  drive_chain.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import types
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable

import numpy as np

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


class UnstableStepError(ValueError):
    """Raised when the integration step is too coarse for the model dynamics."""


class NoResonanceError(RuntimeError):
    """Raised when a frequency sweep finds no clear resonance in range."""


class Transducer(enum.Enum):
    CAPACITIVE = "capacitive"
    PIEZORESISTIVE = "piezoresistive"
    THERMAL_MASS_FLOW = "thermal_mass_flow"


@functools.cache
def _field_schema(cls: type) -> types.MappingProxyType[str, tuple[str, bool]]:
    """{name: (annotation, required)} of a dataclass's fields in order, required
    meaning it has no default; fields() is slow to ask per instance."""
    return types.MappingProxyType({
        f.name: (f.type, f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)})


def _require_finite_fields(obj) -> None:
    """Reject NaN and infinity in every numeric field of a dataclass, and
    integers too large to convert to a float.

    Range checks alone let NaN through, because every comparison with it
    is False.
    """
    for name in _field_schema(type(obj)):
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
            f"dt={dt:.3e} s too coarse for {f_sys:g} Hz dynamics; need dt <= {dt_max:.3e} s"
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


def _require_finite_inlet(series: np.ndarray) -> None:
    if not np.all(np.isfinite(series)):
        raise ValueError("inlet contains non-finite samples")


def step_response(
    model: DpsModel,
    tube: TubeAssembly | None,
    inlet,
    dt: float,
) -> TransducerTrace:
    """Integrate the transducer output for a sampled inlet pressure history.

    inlet is an array of samples spaced dt apart; the inlet midway between
    two samples is taken as their average.  The integrator is a fixed step
    classical 4th-order scheme; dt must give at least
    MIN_SAMPLES_PER_PERIOD samples per period of the system resonance or
    UnstableStepError is raised.  The transducer starts at rest.  An
    empty inlet is refused.
    """
    chain = transducer_chain(model, tube, dt)
    if callable(inlet):
        raise TypeError("inlet must be a sample array; use step_response_fn for callables")
    series = np.asarray(inlet, dtype=float)
    if series.ndim != 1 or not series.size:
        raise ValueError(f"inlet must be one-dimensional and not empty, got shape {series.shape}")
    return TransducerTrace(p_out_pa=drive_chain(chain, series)[:, 0], dt_s=dt)


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
    # The inlet takes one time in seconds, so it is called once per half step.
    half_steps = np.array([inlet(t) for t in (0.5 * dt * np.arange(2 * n - 1)).tolist()], dtype=float)
    a, c0, cm, c1 = _recurrence(omega, xi, dt)
    # The nodes and the midpoints drive the recurrence as two chains, whose
    # pressures add; the midpoint after the last node drives no returned state.
    p_node = drive_chain(_chain(a, c0, c1), half_steps[0::2])
    p_mid = drive_chain(_chain(a, cm, (0.0, 0.0)), np.append(half_steps[1::2], 0.0))
    return TransducerTrace(p_out_pa=(p_node + p_mid)[:, 0], dt_s=dt)


# The drives below hold tables of at most this many numbers (2 MB), and
# take longer spans in blocks of one table.  The settle step is driven in
# blocks of _STEP_SAMPLES, and a whole inlet in blocks of _DRIVE_SAMPLES.
_TABLE_ENTRIES = 1 << 18
_STEP_SAMPLES = 2048
_DRIVE_SAMPLES = 64


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


def _chain(a, c_now, c_next) -> LinearChain:
    """The recurrence z[k+1] = A z[k] + c_now x[k] + c_next x[k+1] from
    z[0] = 0 as a LinearChain whose one output is the pressure p.

    With w[k] = z[k] - c_next x[k], it becomes
    w[k+1] = A w[k] + (A c_next + c_now) x[k], and p[k] = w_p[k] + c_next_p x[k].
    """
    a = np.array(a)
    c_next = np.array(c_next)
    return LinearChain(a=a, b=a @ c_next + np.array(c_now), c=np.array([[1.0, 0.0]]),
                       d=c_next[:1], first=-c_next)


def transducer_chain(model: DpsModel, tube: TubeAssembly | None, dt: float) -> LinearChain:
    """The RK4 recurrence of :func:`step_response` as a LinearChain whose
    one output is the transducer pressure."""
    return _chain(*_sampled_recurrence(*_oscillator(model, tube, dt), dt))


def one_pole_chain(gain: float) -> LinearChain:
    """The section y[k] = gain x[k] + (1 - gain) y[k-1] from rest as a
    one-state LinearChain, whose state holds y[k-1]."""
    return LinearChain(a=np.array([[1.0 - gain]]), b=np.array([gain]),
                       c=np.array([[1.0 - gain]]), d=np.array([gain]), first=np.zeros(1))


def drive_chain(chain: LinearChain, x: np.ndarray) -> np.ndarray:
    """Outputs (sample, output) of chain driven by the whole of x, which is
    not empty and is refused if not finite, from X[0] = chain.first x[0],
    in blocks of _DRIVE_SAMPLES."""
    _require_finite_inlet(x)
    return _Tables(chain, _DRIVE_SAMPLES).zero_state(x, chain.first * x[0])[0]


def _borders(marks: list) -> list[int]:
    """The prefix function of marks: border[i] is the length of the longest
    proper prefix of marks[:i + 1] that is also a suffix of it.  marks
    repeats every len(marks) - border[-1] items."""
    border = [0] * len(marks)
    for i in range(1, len(marks)):
        b = border[i - 1]
        while b and marks[i] != marks[b]:
            b = border[b - 1]
        border[i] = b + (marks[i] == marks[b])
    return border


def _period(raw: bytes, width: int) -> int:
    """The smallest q for which row i of raw, a run of rows of width bytes,
    equals row i - q for every i >= q: tried directly up to 32 rows, from
    the borders past that."""
    count = len(raw) // width
    for q in range(1, min(count, 33)):
        if raw[q * width:] == raw[:-q * width]:
            return q
    if not count:
        return 1
    return count - _borders([raw[i:i + width] for i in range(0, len(raw), width)])[-1]


def _free_response(rows: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Outputs c a^j X for table rows c a^j and states X of shape (state,)
    or (state, column): every sample the drives below evaluate from a
    state passes through here."""
    return rows @ states


class _Tables:
    """The powers a^j of one chain for j up to a table length, and its
    rows c a^j below it, built by doubling; a drive takes a span longer
    than the table in blocks of it."""

    def __init__(self, chain: LinearChain, needed: int):
        self.chain = chain
        size, outputs = chain.b.size, chain.d.size
        # Block j stacks a^j over c a^j, so one product extends the table:
        # blocks 1..m times a^m are blocks m+1..2m.  The table spans needed
        # samples, or as many as _TABLE_ENTRIES numbers allow with the
        # rows' copy.
        width = size + outputs
        most = (_TABLE_ENTRIES - width * size) // ((width + outputs) * size)
        length = max(1, min(needed, most))
        table = np.empty(((length + 1) * width, size))
        table[:size], table[size:width] = np.eye(size), chain.c
        table[width:2 * width] = table[:width] @ chain.a
        filled = 1
        while filled < length:
            more = min(filled, length - filled)
            jump = table[filled * width:filled * width + size]
            # np.dot, whose call costs less than np.matmul's on these
            # small operands.
            np.dot(table[width:(more + 1) * width], jump,
                   out=table[(filled + 1) * width:(filled + more + 1) * width])
            filled += more
        self.length = length
        self.outputs = outputs
        self.table = table
        self.blocks = table.reshape(length + 1, width, size)
        self.powers = self.blocks[:, :size]
        self.jump = self.powers[length]

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The rows c a^j, row j * outputs + i being c[i] a^j, so that a
        span of samples is one slice; built on first use, as a copy when
        there are several outputs."""
        size = self.powers.shape[2]
        return self.blocks[:self.length, size:].reshape(self.length * self.outputs, size)

    def powers_at(self, ks: list[int]) -> np.ndarray:
        """a^k for each k of ks, stacked: from the table, or for a k past
        it as a power of the table's last entry times a table entry."""
        if max(ks) <= self.length:
            return self.powers[ks]
        return np.stack([self.powers[k] if k <= self.length else
                         np.linalg.matrix_power(self.jump, k // self.length)
                         @ self.powers[k % self.length] for k in ks])

    def free(self, states: np.ndarray, count: int) -> np.ndarray:
        """The free response c a^j states for j < count, at most one table
        long, as (j, output) or (j, output, column) for states of shape
        (state,) or (state, column)."""
        y = _free_response(self.rows[:count * self.outputs], states)
        return y.reshape(count, self.outputs, *states.shape[1:])

    def _impulse(self, count: int) -> np.ndarray:
        """Row j, for j < count and at most one table length, holds a^j b
        over c a^j b: the state and the outputs a unit impulse at sample 0
        gives at sample j + 1."""
        return (self.table[:count * (self.chain.b.size + self.outputs)]
                @ self.chain.b).reshape(count, -1)

    def zero_state(self, x: np.ndarray, start: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Outputs (sample, output) of the chain driven by x from X[0] =
        start, or from rest, and its state after the last sample.

        x is taken whole when it fits in the table, and in blocks of one
        table length, the last one short, when it does not.  A block's
        outputs are its zero-state outputs, one product of the blocked
        inlet with the Toeplitz matrix of the impulse response, plus the
        free response to the state it starts in.  Those states come from
        a doubling scan over a^block, and their free responses from one
        more product.
        """
        size, outputs, n = self.chain.b.size, self.outputs, x.size
        if not n:
            return np.empty((0, outputs)), np.zeros(size) if start is None else start
        block = min(n, self.length)
        blocks, full = -(-n // block), n // block
        last = n - (blocks - 1) * block
        impulse = self._impulse(block)
        powers_b = impulse[:, :size]
        # reverse[o] is output o's impulse response d, c b, c a b, ...
        # reversed, then zeros.  Row i * outputs + o of toeplitz, which
        # weighs the block's samples j into output o at sample i by the
        # response's term i - j, is reverse[o, block - 1 - i:][:block]: a
        # view with a negative stride along i, copied.
        reverse = np.zeros((outputs, 2 * block - 1))
        reverse[:, block - 1] = self.chain.d
        reverse[:, :block - 1] = impulse[:block - 1, size:][::-1].T
        item = reverse.itemsize
        toeplitz = np.ascontiguousarray(np.ndarray(
            (block, outputs, block), buffer=reverse, offset=(block - 1) * item,
            strides=(-item, (2 * block - 1) * item, item))).reshape(-1, block)
        whole = x[:full * block].reshape(full, block)
        y = np.empty((blocks, block * outputs))
        np.matmul(whole, toeplitz.T, out=y[:full])
        if full < blocks:
            y[full] = toeplitz[:, :last] @ x[full * block:]
        # The state after the last sample from the last block's start state
        # (added below): the sum of a^(last-1-j) b x[j].
        end = x[(blocks - 1) * block:] @ powers_b[last - 1::-1]
        if blocks > 1 or start is not None:
            # Column m of states is the state block m starts in: the state
            # block m - 1 drives from rest, plus a^block times the one it
            # started in.
            states = np.empty((size, blocks))
            states[:, 0] = 0.0 if start is None else start
            states[:, 1:] = powers_b[::-1].T @ whole[:blocks - 1].T
            jump, shift = self.powers[block], 1
            while shift < blocks:
                states[:, shift:] += jump @ states[:, :-shift]
                jump, shift = jump @ jump, 2 * shift
            y += _free_response(self.rows[:block * outputs], states).T
            end += self.powers[last] @ states[:, -1]
        return y.reshape(-1, outputs)[:n], end

    def unit_step(self) -> tuple[np.ndarray, np.ndarray]:
        """Outputs (sample, output) of the response to a unit step from
        X[0] = 0 over one table length, and the state after it: output j
        sums the impulse response up to j, and the state a^i b over all i."""
        size, impulse = self.chain.b.size, self._impulse(self.length)
        steps = np.empty((self.length, self.outputs))
        steps[0], steps[1:] = self.chain.d, impulse[:-1, size:]
        return np.cumsum(steps, axis=0), np.ones(self.length) @ impulse[:, :size]


def segment_abs_means(
    chain: LinearChain,
    inlet: np.ndarray,
    segments: np.ndarray,
    n: int,
    first: int,
) -> np.ndarray:
    """Mean |y| of each output of chain over segments first to the last,
    for an n-sample inlet that is zero but for the heads of its segments.

    segments holds one (start, offset, size) row per segment: segment i
    runs from its start (the first at 0) to the next segment's, the last
    one to n, and its inlet is inlet[offset:offset + size] followed by
    zeros.  By superposition its output is the free response to the state
    it starts in plus the zero-state response to its inlet, which is
    computed once per distinct head; a segment's kind, its head and
    length, gives the affine map from its start state to its end state.

    The chain is linear and time-invariant, and the kinds repeat every q
    segments, so where the state at a multiple i of q holds the bytes it
    held at an earlier multiple j, every later segment starts in the
    state the segment i - j before it did, and the drive stops carrying
    the state there (see _carry).
    The segments from first on are then summed in one product over every
    distinct pair of kind and start state, and no output is held for
    more than one table of samples per pair.  An inlet with a non-finite
    sample is refused, as step_response refuses it.
    """
    _require_finite_inlet(inlet)
    segments = np.asarray(segments)
    count = len(segments)
    # Row i of marks is segment i's kind: its length and its head (offset,
    # size).  The kinds of all segments but the last, which the drive's
    # end may cut, repeat every q segments, so only one period of them
    # and the last are told apart: kinds[i] is the kind of segment i for
    # i < q and kinds[q] the last one's, each kind numbered by the first
    # segment of it.
    marks = segments.copy()
    np.subtract(segments[1:, 0], segments[:-1, 0], out=marks[:-1, 0])
    marks[-1, 0] = n - segments[-1, 0]
    raw = marks.tobytes()
    width = len(raw) // count
    q = _period(raw[:-width], width)
    first_of: dict[bytes, int] = {}
    kinds = [first_of.setdefault(raw[i * width:(i + 1) * width], i) for i in range(q)]
    kinds.append(first_of.setdefault(raw[-width:], count - 1))
    number = {row: k for k, row in enumerate(first_of.values())}
    kinds = [number[row] for row in kinds]
    kind_marks = marks[list(number)].tolist()
    longest = max(length for length, _offset, _size in kind_marks)
    tables = _Tables(chain, longest)
    size = chain.b.size

    # Head h's zero-state outputs over the longest segment (a shorter one
    # is a prefix) are zero_states[:, :, h], and its state after the head
    # afters[h].  A kind maps the state [X; 1] a segment starts in to the
    # one it ends in by maps[kind].
    head_of: dict[tuple[int, int], int] = {}
    kind_head = [head_of.setdefault((offset, head_size), len(head_of))
                 for _length, offset, head_size in kind_marks]
    zero_states = np.empty((longest, chain.d.size, len(head_of)))
    afters = np.empty((len(head_of), size))
    for (offset, head_size), h in head_of.items():
        zero_states[:head_size, :, h], afters[h] = tables.zero_state(inlet[offset:offset + head_size])
        state = afters[h]
        for start in range(head_size, longest, tables.length):
            stop = min(start + tables.length, longest)
            zero_states[start:stop, :, h] = tables.free(state, stop - start)
            if stop < longest:
                state = tables.jump @ state
    maps = np.zeros((len(kind_marks), size + 1, size + 1))
    maps[:, size, size] = 1.0
    maps[:, :size, :size] = tables.powers_at([length for length, _offset, _size in kind_marks])
    maps[:, :size, size:] = tables.powers_at([length - head_size for length, _offset, head_size
                                              in kind_marks]) @ afters[kind_head, :, None]
    initial = np.ones(size + 1)
    _start, offset, head_size = segments[0].tolist()
    initial[:size] = chain.first * (inlet[offset] if head_size else 0.0)
    carried, repeat, cycle = _carry(maps, kinds[:q], count, initial)
    columns = carried.shape[1]

    def pair(i: int) -> tuple[int, int]:
        """The kind of segment i and the column of carried it starts in."""
        kind = kinds[q] if i == count - 1 else kinds[i % q]
        return kind, i if i < columns else repeat + (i - repeat) % cycle

    # Past the carried columns, the pairs of all segments but the last
    # repeat every cycle segments, so each pair of one cycle is counted
    # once with the times it recurs.
    last = count - 1
    recurring = max(first, columns)
    runs = [(i, 1) for i in range(first, min(last, columns))]
    runs += [(i, (last - i - 1) // cycle + 1) for i in range(recurring, min(last, recurring + (cycle or 0)))]
    runs.append((last, 1))
    times: dict[tuple[int, int], int] = {}
    for i, recurs in runs:
        key = pair(i)
        times[key] = times.get(key, 0) + recurs
    # Each (length, kind, column, weight), ordered so that columns of one
    # length sit together.
    entries = sorted((kind_marks[kind][0], kind, column, weight)
                     for (kind, column), weight in times.items())
    lengths, kind_p, column_p, weights = zip(*entries)
    if len(head_of) > 1:
        zero_states = zero_states[:, :, [kind_head[kind] for kind in kind_p]]
    sums = _segment_sums(tables, carried[:size, list(column_p)], zero_states, lengths)
    return sums @ np.array(weights, dtype=float) / (n - segments[first, 0])


def _carry(maps: np.ndarray, kinds: list[int], count: int, first: np.ndarray):
    """(carried, repeat, cycle): of count segments of the kinds
    kinds[i % q], q being len(kinds), the first starting in the state
    [X; 1] first, segment i starts in carried[:, i] for i below
    carried.shape[1], and past that where segment
    repeat + (i - repeat) % cycle does.

    The state is carried one segment at a time by its kind's map, and the
    carry stops at the first multiple of q whose state holds the bytes of
    an earlier one's: from there the states cycle.
    """
    q = len(kinds)
    state, seen, path = first, {first.tobytes(): 0}, [first]
    repeat = cycle = None
    for m in range(1, count):
        state = maps[kinds[(m - 1) % q]] @ state
        # A state one segment on is told apart from every earlier one only
        # at multiples of q.
        if m % q == 0:
            j = seen.setdefault(state.tobytes(), m)
            if j < m:
                repeat, cycle = j, m - j
                break
        path.append(state)
    return np.array(path).T, repeat, cycle


def _segment_sums(tables: _Tables, states, zero_states, lengths) -> np.ndarray:
    """Sums (output, column) of |y| over the first lengths[p] samples of
    the segments that start in the columns p of states, with the
    zero-state outputs zero_states[:, :, p] (or [:, :, 0] for all): one
    product per table's span.  Columns of one length sit together in
    lengths."""
    groups, column = [], 0
    for length, members in itertools.groupby(lengths):
        width = len(list(members))
        groups.append((length, column, column + width))
        column += width
    top = max(lengths)
    sums = 0.0
    for start in range(0, top, tables.length):
        count = min(tables.length, top - start)
        y = tables.free(states, count)
        y += zero_states[start:start + count]
        # Samples past a column's segment count for nothing.
        for length, first, end in groups:
            if length < start + count:
                y[max(length - start, 0):, :, first:end] = 0.0
        sums = sums + np.ones(count) @ np.abs(y, out=y).reshape(count, -1)
        if start + count < top:
            states = tables.jump @ states
    return sums.reshape(tables.outputs, -1)


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
    rows, step = tables.blocks[:block, -1], step[:, -1]
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


def _lower_quartile(values: np.ndarray) -> float:
    """float(np.percentile(values, 25.0)), bit for bit, by one partition.

    The 25th percentile lies at index k = (n - 1)/4 of the sorted values,
    between the order statistics a at floor(k) and b one above it; numpy
    interpolates them as a + (b - a) t, or b - (b - a)(1 - t) when the
    fraction t = k - floor(k) is at least 1/2, and so does this.  The
    partition also places the largest value last, where a NaN sorts, so a
    NaN anywhere gives NaN, as numpy's does.
    """
    n = values.size
    k = 0.25 * (n - 1)
    lo = int(k)
    hi = min(lo + 1, n - 1)
    part = np.partition(values, (lo, hi, n - 1))
    if math.isnan(part[-1]):
        return math.nan
    a, b, t = float(part[lo]), float(part[hi]), k - lo
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


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
    floor = _lower_quartile(peak)
    # The interior check is the real discriminator: a second-order response
    # with no peak in range (or a peak beyond the sweep edge) always
    # maximizes at a boundary.  The prominence floor only rejects near-flat
    # plateaus whose argmax wanders into the interior on numerical wiggle;
    # those measure within a percent of 1x, so a 1.2x floor is generous.
    prominent = peak[i_max] >= 1.2 * max(floor, 1e-30)
    interior = 2 <= i_max <= freqs.size - 3
    if not (prominent and interior):
        raise NoResonanceError(
            f"{model.part_id}: no resonance between {lo_hz:g} and {hi_hz:g} Hz "
            f"(peak index {i_max} of {freqs.size}, prominence {peak[i_max] / max(floor, 1e-30):.2f}x)"
        )
    center = float(freqs[i_max])
    return SweepResult(
        center_hz=center,
        band_hz=(center - step_hz, center + step_hz),
        frequencies_hz=freqs,
        peak_responses_pa=peak,
    )
