"""Attack waveform synthesis and spectral stealth analysis.

The attack embeds short resonant tone bursts in an ordinary audio carrier.
The carrier first has the sensor's resonant band notched out so the bursts
are the only in-band energy, then bursts are spliced in on a fixed interval.
Every burst ends exactly on a positive waveform peak: the transducer is
released from its maximum and rings down instead of being driven back to
zero, which is what leaves a one-signed pressure residue between bursts.

Also here: the time-averaged forged pressure estimator, which couples a
synthesized burst train through the acoustic path into the transducer model,
and the packaged calibration carrier used for repeatable spectral checks.
The path and the transducer are both linear, so the estimate is the reading
gain times the path's port amplitude times the rectified mean response to
bursts of 1 Pa.  forged_pressure_estimate is the one place that product is
formed; a caller that already holds the mean for the same burst train,
model, tube and tone passes it as unit_mean_pa, so one that varies only the
source or the path loss drives the transducer once.  That mean comes from
unit_response_means, which drives the train by burst intervals in state
space.

WAV files are read and written with the standard library.
"""

from __future__ import annotations

import math
import os
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acoustics import propagate, spl_to_pressure_amp
from .sensor import (
    MAX_DRIVE_SAMPLES,
    NO_TUBE,
    _require_finite_fields,
    drive_chain,
    one_pole_chain,
    segment_abs_means,
    step_response,
    transducer_chain,
)

SUPPORTED_RATES = (44100, 48000)
PSD_RATIO_CAP = 1.0e9

# psd_ratio projects its frames in blocks of this many samples // nperseg,
# and a frame's projection has at most nperseg + 2 columns, so its
# temporaries stay near 2 MB (float64) whatever the signal length and band.
_PSD_BLOCK_SAMPLES = 1 << 18

# Warm-up discarded before the steady averaging window of the forged
# pressure estimate, and the length of that window, seconds.
ESTIMATE_WARMUP_S = 0.3
ESTIMATE_WINDOW_S = 2.0


class ClippingError(ValueError):
    """Raised when burst insertion would push samples beyond full scale."""


class ScheduleError(ValueError):
    """Raised for burst schedules that cannot be realized."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio at a supported sample rate, finite samples within [-1, 1]."""

    sample_rate_hz: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        rate = self.sample_rate_hz  # an integer first: `in` asks an array for its truth value
        if not isinstance(rate, (int, np.integer)) or rate not in SUPPORTED_RATES:
            raise ValueError(f"sample rate must be one of {SUPPORTED_RATES}, got {rate}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        # Written so that NaN, whose every comparison is False, is refused.
        peak = _peak(samples)
        if not peak <= 1.0 + 1e-9:
            if not math.isfinite(peak):
                raise ValueError("samples include a non-finite value")
            raise ValueError("samples exceed full scale [-1, 1]")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class SegmentSchedule:
    """Timing plan for the inserted resonant bursts.

    band_hz brackets the target resonance.  duration_s is the nominal burst
    length and must hold at least one period of the band's upper edge.
    interval_s is the burst repetition period, and burst k plays its first
    min(length, next start - start) samples.  cycles pins each burst to a
    whole number of tone cycles; a sequence cycles through the values on
    consecutive bursts.  When cycles is None, as many whole cycles of the
    tone played as fit in duration_s are used, and at least one: a lower
    tone whose period exceeds duration_s lengthens the burst to one cycle.

    Bursts hold whole cycles so each one integrates to nearly zero, like
    any loudspeaker output.  fade_in_s defaults to zero because an onset
    ramp removes part of the first cycle and leaves the burst with a net
    area, which shows up downstream as a spurious DC term in the sensor
    response.  A short ramp (at most 1 ms) can be enabled to soften the
    onset click at that cost.
    """

    band_hz: tuple[float, float]
    duration_s: float
    interval_s: float
    cycles: int | tuple[int, ...] | None = None
    amplitude_scale: float = 0.9
    fade_in_s: float = 0.0

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        lo, hi = self.band_hz
        if not 0.0 < lo < hi:
            raise ValueError(f"band must satisfy 0 < lower < upper, got ({lo}, {hi})")
        if self.duration_s < 1.0 / hi:
            raise ValueError(
                f"burst duration {self.duration_s * 1e3:g} ms is shorter than one "
                f"period of {hi:g} Hz; bursts must hold at least one full cycle"
            )
        if self.interval_s <= self.duration_s:
            raise ValueError(
                f"interval {self.interval_s} s must exceed burst duration {self.duration_s} s"
            )
        if not 0.0 < self.amplitude_scale <= 1.0:
            raise ValueError(f"amplitude scale must be in (0, 1], got {self.amplitude_scale}")
        if not 0.0 <= self.fade_in_s <= 0.001:
            raise ValueError(f"fade-in must be within [0, 1] ms, got {self.fade_in_s}")
        if self.cycles is not None:
            seq = (self.cycles,) if isinstance(self.cycles, int) else tuple(self.cycles)
            if not seq or any((not isinstance(c, int)) or c < 1 for c in seq):
                raise ValueError(f"cycles must be positive integers, got {self.cycles}")
            object.__setattr__(self, "cycles", seq if len(seq) > 1 else seq[0])

    def target_hz(self) -> float:
        return 0.5 * (self.band_hz[0] + self.band_hz[1])

    def cycle_sequence(self, frequency_hz: float) -> tuple[int, ...]:
        """Cycle counts applied round-robin to consecutive bursts."""
        if self.cycles is None:
            n = max(1, int(math.floor(self.duration_s * frequency_hz + 1e-9)))
            return (n,)
        seq = (self.cycles,) if isinstance(self.cycles, int) else self.cycles
        for c in seq:
            if c / frequency_hz > self.duration_s + 1e-12:
                raise ScheduleError(
                    f"{c} cycles of {frequency_hz:g} Hz need {c / frequency_hz * 1e3:g} ms, "
                    f"longer than the {self.duration_s * 1e3:g} ms burst duration"
                )
        return seq


def _peak(samples: np.ndarray) -> float:
    """Largest |sample|, 0 for no samples, without an |x| copy of the buffer."""
    if not samples.size:
        return 0.0
    return max(float(np.max(samples)), -float(np.min(samples)))


# Format tags of the WAV 'fmt ' chunk: integer PCM, and the extensible
# header whose sub-format GUID starts with the tag it stands for.
_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _wav_chunks(fh, path):
    """(id, size) of each chunk of an open RIFF WAVE file, with fh at the
    chunk's body; the caller reads the body or leaves it to be skipped."""
    riff = fh.read(12)
    if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
        raise ValueError(f"{path}: not a little-endian RIFF WAVE file")
    while len(header := fh.read(8)) == 8:
        chunk, size = header[:4], struct.unpack("<I", header[4:])[0]
        end = fh.tell() + size + (size & 1)  # bodies are padded to even sizes
        yield chunk, size
        fh.seek(end)


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a 16-bit PCM WAV file, downmixing stereo to mono by averaging.

    The file is read chunk by chunk with the standard library: a plain PCM
    'fmt ' chunk and a WAVE_FORMAT_EXTENSIBLE one whose sub-format is PCM
    are both taken.  Anything else, a data chunk shorter than its header
    says, or a rate outside SUPPORTED_RATES raises ValueError.
    """
    fmt = None
    with open(path, "rb") as fh:
        for chunk, size in _wav_chunks(fh, path):
            if chunk == b"fmt ":
                body = fh.read(size)
                if len(body) < 16:
                    raise ValueError(f"{path}: 'fmt ' chunk of {len(body)} bytes is too short")
                tag, channels, rate, _byte_rate, _align, bits = struct.unpack("<HHIIHH", body[:16])
                if tag == _WAVE_FORMAT_EXTENSIBLE and len(body) >= 26:
                    tag = struct.unpack("<H", body[24:26])[0]
                fmt = (tag, channels, rate, bits)
            elif chunk == b"data":
                break
        else:
            raise ValueError(f"{path}: no data chunk")
        if fmt is None:
            raise ValueError(f"{path}: data chunk before any 'fmt ' chunk")
        tag, channels, rate, bits = fmt
        if tag != _WAVE_FORMAT_PCM or bits != 16:
            raise ValueError(f"{path}: expected 16-bit PCM, got format {tag:#06x} of "
                             f"{bits}-bit samples")
        if channels < 1:
            raise ValueError(f"{path}: 'fmt ' chunk declares no channels")
        if rate not in SUPPORTED_RATES:
            raise ValueError(f"{path}: sample rate {rate} not in {SUPPORTED_RATES}")
        payload = fh.read(size)
    if len(payload) < size:
        raise ValueError(f"{path}: data chunk holds {len(payload)} of its {size} bytes")
    frames = len(payload) // (2 * channels)
    data = np.frombuffer(payload, dtype="<i2", count=frames * channels)
    samples = data.astype(float)
    samples /= 32768.0
    if channels > 1:
        samples = samples.reshape(frames, channels).mean(axis=1)
    return AudioBuffer(sample_rate_hz=int(rate), samples=samples)


_WAV_BLOCK_SAMPLES = 1 << 16


def write_wav(path: str | Path, audio: AudioBuffer) -> None:
    """Write mono 16-bit PCM little-endian WAV."""
    # Clip, scale and round a block at a time in one float buffer, convert
    # it into one reused 16-bit buffer and write that, so no full-length
    # array is added; the wave module writes each block through a view.
    samples = audio.samples
    block = np.empty(min(samples.size, _WAV_BLOCK_SAMPLES))
    pcm = np.empty(block.size, dtype="<i2")
    with wave.open(os.fspath(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(audio.sample_rate_hz)
        # The header's sizes are written once, for the whole data chunk.
        fh.setnframes(samples.size)
        for start in range(0, samples.size, _WAV_BLOCK_SAMPLES):
            part = samples[start:start + _WAV_BLOCK_SAMPLES]
            scaled = block[:part.size]
            np.clip(part, -1.0, 1.0, out=scaled)
            scaled *= 32767.0
            np.round(scaled, out=scaled)
            pcm[:part.size] = scaled
            fh.writeframesraw(pcm[:part.size])


def suppress_band(audio: AudioBuffer, band_hz: tuple[float, float]) -> AudioBuffer:
    """Notch a frequency band out of the carrier.

    The band interior is zeroed in the frequency domain; raised-cosine
    transitions just outside the band edges avoid ringing.  Energy outside
    the band (beyond the narrow transitions) is untouched.

    The notch is circular, as one rfft and irfft of the whole buffer make
    it, but only the weighted band is transformed back and subtracted, and
    the n samples are transformed as d interleaved phases of m = n / d: d
    is the largest divisor of n up to 16 that keeps the band below m / 2,
    so a prime n is transformed whole.  On a 2-vCPU x86-64 VM, 479,999
    samples (13 x 36,923) took 60-81 ms against about 14 ms for 480,000.
    """
    lo, hi = band_hz
    nyquist = audio.sample_rate_hz / 2.0
    if not 0.0 < lo < hi < nyquist:
        raise ValueError(f"band ({lo}, {hi}) must lie inside (0, {nyquist}) Hz")
    x = audio.samples
    n = x.size
    if not n:
        raise ValueError("cannot notch a band out of an empty buffer")
    taper = max(2.0, 0.1 * (hi - lo))
    # Every gain outside [lo - taper, hi + taper] is 1, so only the bins of
    # that span, plus one spare on each side, are weighted.  Bin j sits at
    # j * df, as np.fft.rfftfreq puts it.
    df = 1.0 / (n * (1.0 / audio.sample_rate_hz))
    first = max(0, int((lo - taper) / df) - 1)
    stop = min(n // 2 + 1, int((hi + taper) / df) + 2)
    freqs = np.arange(first, stop) * df
    gain = np.ones_like(freqs)
    gain[(freqs >= lo) & (freqs <= hi)] = 0.0
    rise = (freqs >= lo - taper) & (freqs < lo)
    gain[rise] = 0.5 * (1.0 + np.cos(np.pi * (freqs[rise] - (lo - taper)) / taper))
    fall = (freqs > hi) & (freqs <= hi + taper)
    gain[fall] = 0.5 * (1.0 - np.cos(np.pi * (freqs[fall] - hi) / taper))
    # Row s of x.reshape(m, d).T is the phase x[s::d], and bin k of x is the
    # sum over s of exp(-2 pi i s k / n) X_s[k].  More than 16 phases saved
    # no time at 480,000 samples; d = 1 holds every bin.
    d = max(d for d in range(1, 17) if n % d == 0 and (d == 1 or 2 * (stop - 1) < n // d))
    m = n // d
    twiddle = np.exp(-2j * np.pi / n * np.outer(np.arange(d), np.arange(first, stop)))
    band = np.einsum("sk,sk->k", np.fft.rfft(x.reshape(m, d).T)[:, first:stop], twiddle)
    removed = np.zeros((d, m // 2 + 1), dtype=complex)
    removed[:, first:stop] = (1.0 - gain) / d * band * twiddle.conj()
    removed = np.fft.irfft(removed, m)
    out = np.subtract(x.reshape(m, d), removed.T, order="C").reshape(n)
    # Gibbs overshoot can poke a hair past full scale; clamp it.
    np.clip(out, -1.0, 1.0, out=out)
    return AudioBuffer(sample_rate_hz=audio.sample_rate_hz, samples=out)


def _burst_spans(
    schedule: SegmentSchedule, frequency_hz: float, n_samples: int, sample_rate_hz: int
) -> np.ndarray:
    """Half-open sample index spans of the bursts that fit in n_samples, one
    (start, stop) row per burst.

    Burst k starts at sample round(k * interval * rate), holds
    round(c / f * rate) samples (c its cycle count) and plays the first
    min(length, next start - start).  The train ends at the first burst
    past n_samples; a burst of under 2 samples before it raises ScheduleError.
    """
    cycles = schedule.cycle_sequence(frequency_hz)
    lengths = np.array([int(round(c / frequency_hz * sample_rate_hz)) for c in cycles])
    # Burst k starts at or after k * interval * rate - 1/2, so none from
    # k = n_samples / (interval * rate) + 1 on fits.  A short burst ends
    # the train or raises, so the candidates stop at the first one.
    count = int(n_samples / (schedule.interval_s * sample_rate_hz)) + 3
    short = np.flatnonzero(lengths < 2)
    if short.size:
        count = min(count, int(short[0]) + 1)
    k = np.arange(count)
    # A start past the buffer stays past it at n_samples + 1, which an int64 holds.
    starts = np.minimum(np.rint(k * schedule.interval_s * sample_rate_hz),
                        n_samples + 1).astype(np.int64)
    length = lengths[k % lengths.size]
    end = int(np.argmax((length < 2) | (starts + length > n_samples)))
    if length[end] < 2:
        c = cycles[end % len(cycles)]
        raise ScheduleError(f"burst of {c} cycles at {frequency_hz:g} Hz spans under 2 samples")
    return np.column_stack((starts[:end], starts[:end] + length[:end]))


def _burst_cuts(spans: np.ndarray, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, sizes): burst k of spans holds lengths[k] samples and plays
    the first sizes[k], up to the next burst's start or, for the last, stop."""
    lengths = spans[:, 1] - spans[:, 0]
    return lengths, np.minimum(lengths, np.diff(spans[:, 0], append=stop))


def _burst_windows(out: np.ndarray, spans: np.ndarray):
    """(windows, starts, length) per distinct burst length and played size:
    windows is a writable view of out's every size-long run, and
    windows[starts] are where the bursts of that length play that many."""
    lengths, sizes = _burst_cuts(spans, out.size)
    # Both are at most out.size, so one number keys the pair.
    keys = lengths * (out.size + 1) + sizes
    for key in np.unique(keys).tolist():
        length, size = divmod(key, out.size + 1)
        windows = np.lib.stride_tricks.sliding_window_view(out, size, writeable=True)
        yield windows, spans[keys == key, 0], length


def _burst_samples(
    schedule: SegmentSchedule,
    frequency_hz: float,
    length: int,
    sample_rate_hz: int,
    amplitude: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One burst and its carrier-duck weight.

    The phase is anchored to the final sample: the burst is
    amplitude*cos(2*pi*f*(t - t_last)), so the last sample sits exactly on a
    positive peak.  Only the onset is faded; the end is never faded, since
    the abrupt release from the peak is the attack mechanism.
    """
    t_rel = (np.arange(length) - (length - 1)) / sample_rate_hz
    burst = amplitude * np.cos(2.0 * math.pi * frequency_hz * t_rel)
    weight = np.ones(length)
    n_fade = min(int(round(schedule.fade_in_s * sample_rate_hz)), length // 3)
    if n_fade > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_fade) / n_fade))
        weight[:n_fade] = ramp
        burst[:n_fade] *= ramp
    return burst, weight


def synthesize_attack(
    carrier: AudioBuffer,
    schedule: SegmentSchedule,
    target_f_hz: float | None = None,
) -> AudioBuffer:
    """Embed a resonant burst train in a carrier.

    The carrier's target band is suppressed first; each burst then replaces
    the carrier over the samples it plays, its first min(length, next
    start - start), the carrier crossfaded out over the onset ramp.  Burst
    amplitude is amplitude_scale times the carrier peak, or amplitude_scale
    itself for a silent carrier.  Output length and rate equal the input's.
    Raises ClippingError if the result would leave full scale.
    """
    f = schedule.target_hz() if target_f_hz is None else float(target_f_hz)
    if not schedule.band_hz[0] <= f <= schedule.band_hz[1]:
        raise ScheduleError(f"target {f:g} Hz lies outside band {schedule.band_hz}")
    fs = carrier.sample_rate_hz
    peak = _peak(carrier.samples)
    amplitude = schedule.amplitude_scale * (peak if peak > 0.0 else 1.0)
    # suppress_band returns a fresh buffer, so the bursts go into it in place.
    if peak > 0.0:
        out = suppress_band(carrier, schedule.band_hz).samples
    else:
        out = carrier.samples.copy()
    _lay_bursts(out, _burst_spans(schedule, f, out.size, fs), schedule, f, fs, amplitude)
    worst = _peak(out)
    if worst > 1.0 + 1e-9:
        raise ClippingError(
            f"amplitude scale {schedule.amplitude_scale} drives samples to {worst:.3f} FS"
        )
    np.clip(out, -1.0, 1.0, out=out)
    return AudioBuffer(sample_rate_hz=fs, samples=out)


def _lay_bursts(
    out: np.ndarray,
    spans: np.ndarray,
    schedule: SegmentSchedule,
    frequency_hz: float,
    sample_rate_hz: int,
    amplitude: float,
) -> None:
    """Write the bursts of spans into out in place.

    Each burst replaces out over the samples it plays (see _burst_cuts),
    the signal already in out crossfaded out over its onset ramp.  One
    burst is built per distinct length and played size.
    """
    for windows, starts, length in _burst_windows(out, spans):
        size = windows.shape[1]
        burst, weight = _burst_samples(schedule, frequency_hz, length, sample_rate_hz, amplitude)
        windows[starts] = burst[:size] + (1.0 - weight[:size]) * windows[starts]


def segment_mask(
    schedule: SegmentSchedule,
    frequency_hz: float,
    n_samples: int,
    sample_rate_hz: int,
) -> np.ndarray:
    """Boolean mask over samples, True inside burst spans.

    Reproduces the exact spans :func:`synthesize_attack` uses, so analysis
    code can classify samples without re-deriving the schedule arithmetic.
    """
    mask = np.zeros(n_samples, dtype=bool)
    for windows, starts, _length in _burst_windows(
            mask, _burst_spans(schedule, frequency_hz, n_samples, sample_rate_hz)):
        windows[starts] = True
    return mask


def psd_ratio(
    audio: AudioBuffer,
    band_hz: tuple[float, float],
    mask: np.ndarray,
    nperseg: int | None = None,
) -> float:
    """Band power density inside masked spans over band power outside.

    Short Hann-windowed frames, nperseg samples long and nperseg // 4
    apart, are classified as inside (>= 80% masked samples) or outside
    (<= 20%); straddling frames are dropped.  The ratio of mean band-bin
    power between the two groups is returned.  A silent outside group
    returns the PSD_RATIO_CAP sentinel.  nperseg defaults to the median
    masked run, clipped to [32, 512]; a given one must be an int from 2 to
    the sample count.

    A frame's band power is the sum of its squared projections on the
    windowed cos and sin columns of the band's rfft bins, so the cost grows
    with the number of band bins.  The shipped and benchmark bands hold 1
    to 4, and 480,000 samples then take 2-5 ms on a 2-vCPU x86-64 VM; a
    band over the whole spectrum at nperseg 512 (257 bins) took 47 ms
    there, against 33 ms for one FFT per frame.
    """
    lo, hi = band_hz
    if not 0.0 < lo < hi < audio.sample_rate_hz / 2.0:
        raise ValueError(f"band ({lo}, {hi}) outside valid range")
    mask = np.asarray(mask, dtype=bool)
    if mask.size != audio.samples.size:
        raise ValueError("mask length must match sample count")
    if nperseg is None:
        runs = _true_run_lengths(mask)
        nperseg = int(np.clip(int(np.median(runs)) if runs.size else 96, 32, 512))
    elif (isinstance(nperseg, bool) or not isinstance(nperseg, (int, np.integer))
          or not 2 <= nperseg <= audio.samples.size):
        raise ValueError(
            f"nperseg must be an integer in [2, {audio.samples.size}] "
            f"(the sample count), got {nperseg!r}"
        )
    if nperseg > audio.samples.size:
        # Only the automatic frame length can outgrow the signal.
        raise ValueError("mask leaves one of the frame groups empty")
    x = audio.samples
    hop = max(1, nperseg // 4)
    basis = _band_basis(nperseg, audio.sample_rate_hz, band_hz)
    # Frame k starts at sample k * hop, so it is rows k .. k+q-1 of
    # x.reshape(-1, hop) and the first r samples of row k+q.  Its projection
    # is one row-slice matmul per part, and its masked count a sum of row
    # counts.  Only a last frame can reach past the last full row; it is
    # projected and counted on its own.
    q, r = divmod(nperseg, hop)
    m = x.size // hop
    n_frames = (x.size - nperseg) // hop + 1
    body = min(n_frames, m - q) if r else n_frames
    rows = x[: m * hop].reshape(m, hop)
    mask_rows = mask[: m * hop].reshape(m, hop)
    row_counts = np.zeros(m + 1, dtype=np.int64)
    np.sum(mask_rows, axis=1, out=row_counts[1:])
    np.cumsum(row_counts, out=row_counts)
    counts = np.empty(n_frames, dtype=np.int64)
    counts[:body] = row_counts[q : q + body] - row_counts[:body]
    if r:
        counts[:body] += np.count_nonzero(mask_rows[q : q + body, :r], axis=1)
    power = np.empty(n_frames)
    block = max(1, _PSD_BLOCK_SAMPLES // nperseg)
    for k in range(0, body, block):
        stop = min(k + block, body)
        proj = rows[k:stop] @ basis[:hop]
        for i in range(1, q + (r > 0)):
            proj += rows[k + i : stop + i, : nperseg - i * hop] @ basis[i * hop : (i + 1) * hop]
        proj *= proj
        np.sum(proj, axis=1, out=power[k:stop])
    for k in range(body, n_frames):
        span = slice(k * hop, k * hop + nperseg)
        counts[k] = np.count_nonzero(mask[span])
        power[k] = np.sum((x[span] @ basis) ** 2)
    frac = counts / nperseg
    inside = power[frac >= 0.8]
    outside = power[frac <= 0.2]
    if not inside.size or not outside.size:
        raise ValueError("mask leaves one of the frame groups empty")
    num = float(np.mean(inside))
    den = float(np.mean(outside))
    if den <= num / PSD_RATIO_CAP:
        return PSD_RATIO_CAP
    return num / den


def _band_basis(nperseg: int, sample_rate_hz: int, band_hz: tuple[float, float]) -> np.ndarray:
    """Hann-windowed cos and sin columns of the rfft bins of an nperseg-sample
    frame that lie within half a bin of band_hz: a frame's power over those
    bins is the sum of its squared projections on the columns."""
    lo, hi = band_hz
    freqs = np.fft.rfftfreq(nperseg, 1.0 / sample_rate_hz)
    df = sample_rate_hz / nperseg
    bins = np.flatnonzero((freqs >= lo - 0.5 * df) & (freqs <= hi + 0.5 * df))
    phase = np.outer(np.arange(nperseg), bins) % nperseg * (2.0 * math.pi / nperseg)
    window = np.hanning(nperseg)[:, None]
    return np.hstack((window * np.cos(phase), window * np.sin(phase)))


def _true_run_lengths(mask: np.ndarray) -> np.ndarray:
    edges = np.diff(mask.view(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    stops = np.flatnonzero(edges == -1) + 1
    if mask.size and mask[0]:
        starts = np.concatenate([[0], starts])
    if mask.size and mask[-1]:
        stops = np.concatenate([stops, [mask.size]])
    return stops - starts


def port_amplitude_pa(source, tube, extra_loss_db: float = 0.0) -> float:
    """Burst amplitude at the transducer inlet, Pa: the source's pressure
    amplitude times the path gain h of :func:`propagate`.

    A non-finite amplitude raises ValueError, as a drive of that inlet
    would.
    """
    amplitude = propagate(source, tube or NO_TUBE, extra_loss_db) * spl_to_pressure_amp(
        source.spl_db)
    if not math.isfinite(amplitude):
        raise ValueError("inlet contains non-finite samples")
    return amplitude


def _require_drive_length(n_samples: float, sample_rate_hz: int) -> None:
    """Refuse a drive of more than MAX_DRIVE_SAMPLES samples, or of a count
    that is not a number."""
    if not n_samples <= MAX_DRIVE_SAMPLES:
        raise ScheduleError(
            f"a trace window of {n_samples / sample_rate_hz:.3g} s needs {n_samples:.3g} "
            f"samples, over the {MAX_DRIVE_SAMPLES} one drive may hold at {sample_rate_hz} Hz")


def _drive_bursts(schedule, model, tube, frequency_hz, amplitude, n_samples):
    """Transducer response to the burst train that fits in n_samples, at
    amplitude Pa, laid whole and driven in one step_response call; returns
    (trace, spans)."""
    fs = model.sample_rate_hz
    spans = _train_spans(schedule, frequency_hz, n_samples, fs)
    inlet = np.zeros(n_samples)
    _lay_bursts(inlet, spans, schedule, frequency_hz, fs, amplitude)
    return step_response(model, tube, inlet, 1.0 / fs), spans


def _train_spans(schedule, frequency_hz, n_samples, sample_rate_hz) -> np.ndarray:
    """:func:`_burst_spans` of a drive of n_samples, refused as too long, as
    holding no burst, or for a tone whose phase passes a float's range."""
    _require_drive_length(n_samples, sample_rate_hz)
    if not math.isfinite(2.0 * math.pi * frequency_hz):
        raise ScheduleError(f"a {frequency_hz:.3g} Hz tone has a phase past a float's range")
    spans = _burst_spans(schedule, frequency_hz, n_samples, sample_rate_hz)
    if not spans.size:
        raise ScheduleError(f"trace window of {n_samples / sample_rate_hz:.3g} s too short to "
                            f"hold a single burst of the {frequency_hz:.3g} Hz tone")
    return spans


def attack_response_trace(
    schedule: SegmentSchedule,
    model,
    tube,
    source,
    *,
    target_f_hz: float | None = None,
    duration_s: float = 2.5,
):
    """Transducer response to the scheduled burst train arriving at the port.

    Synthesizes the burst train in pascals (amplitude = path attenuation
    times the source amplitude), tuned to target_f_hz or, by default, to
    source.tone_hz, and integrates the transducer.  The suppressed carrier
    is omitted: by design it carries no resonant-band energy, and its
    off-band residue has no noticeable effect on the forged pressure.

    Returns (trace, spans, port_amplitude_pa), spans holding one
    (start, stop) sample row per burst: the samples it plays, up to the
    next burst's start where it would overrun that (see _burst_cuts).
    """
    f = source.tone_hz if target_f_hz is None else float(target_f_hz)
    amplitude = port_amplitude_pa(source, tube)
    n = int(round(duration_s * model.sample_rate_hz))
    trace, spans = _drive_bursts(schedule, model, tube, f, amplitude, n)
    played = spans.copy()
    played[:, 1] = spans[:, 0] + _burst_cuts(spans, n)[1]
    return trace, played, amplitude


def _estimate_window(schedule: SegmentSchedule, sample_rate_hz: int) -> tuple[int, slice]:
    """(k0, window): the samples of the whole burst intervals that fit in
    ESTIMATE_WINDOW_S after ESTIMATE_WARMUP_S, from burst k0's start; a
    drive to two samples past them is refused as too long as
    :func:`_require_drive_length` refuses it.

    The window starts where :func:`_burst_spans` starts burst k0 and stops
    where it starts the burst after the window's last, and every burst
    that starts before the stop ends within the two samples past it."""
    t_i = schedule.interval_s
    k0 = int(math.ceil(ESTIMATE_WARMUP_S / t_i))
    n_periods = max(1, int(math.floor(ESTIMATE_WINDOW_S / t_i)))
    # Checked in float first: a long interval makes the window inf, which
    # int() cannot take.
    stop = (k0 + n_periods) * t_i * sample_rate_hz
    _require_drive_length(stop + 2, sample_rate_hz)
    return k0, slice(int(round(k0 * t_i * sample_rate_hz)), int(round(stop)))


def unit_response_means(
    schedule: SegmentSchedule,
    model,
    tube,
    *,
    target_f_hz: float,
    sections=(),
) -> np.ndarray:
    """Mean rectified output, Pa, over the estimate window (see
    :func:`_estimate_window`), for bursts of 1 Pa at the port tuned to
    target_f_hz: of the transducer and then, when sections holds
    first-order section gains (see :meth:`LinearChain.then_sections`), of
    the transducer followed by those sections.

    The bursts are those that fit in two samples past the window, and a
    schedule is refused as such a drive would be.  The means agree to
    rounding with a drive of the whole train laid over those samples, but
    no sample array of the drive is built: :func:`segment_abs_means`
    drives the chain one burst interval at a time, and only until the
    state repeats with the train.  Burst k plays its first min(length,
    next start - start) samples, as a laid train does, so only one burst
    of each length is built.
    """
    fs = model.sample_rate_hz
    k0, window = _estimate_window(schedule, fs)
    stop = window.stop
    f = float(target_f_hz)
    spans = _train_spans(schedule, f, stop + 2, fs)
    chain = transducer_chain(model, tube, 1.0 / fs).then_sections(sections)
    spans = spans[:spans[:, 0].searchsorted(stop)]
    # Segment i's head is the start of the one burst laid of its length.
    lengths, sizes = _burst_cuts(spans, stop)
    distinct = sorted(set(lengths.tolist()))
    inlet = np.concatenate([_burst_samples(schedule, f, length, fs, 1.0)[0]
                            for length in distinct])
    at = np.cumsum([0] + distinct[:-1])
    segments = np.column_stack((spans[:, 0], at[np.searchsorted(distinct, lengths)], sizes))
    return segment_abs_means(chain, inlet, segments, stop, k0)


def unit_response_mean(
    schedule: SegmentSchedule,
    model,
    tube,
    *,
    target_f_hz: float,
) -> float:
    """Mean rectified transducer output, Pa, over the estimate window (see
    :func:`_estimate_window`), for bursts of 1 Pa at the port tuned to
    target_f_hz.

    The chain is linear, so bursts of amplitude A give A times this mean.
    """
    return float(unit_response_means(schedule, model, tube, target_f_hz=target_f_hz)[0])


def forged_pressure_estimate(
    schedule: SegmentSchedule,
    model,
    tube,
    source,
    *,
    target_f_hz: float | None = None,
    extra_loss_db: float = 0.0,
    unit_mean_pa: float | None = None,
) -> float:
    """Steady displayed pressure offset produced by the burst train, Pa.

    The model's reading gain times :func:`port_amplitude_pa` (with
    extra_loss_db of added path loss) times :func:`unit_response_mean` of
    bursts tuned to target_f_hz or, by default, to source.tone_hz.  Grows
    toward a plateau as bursts pack closer (smaller interval) and falls
    off roughly as 1/interval as they spread out, reaching zero in the
    limit of a lone burst.

    unit_mean_pa is that last term when the caller already holds it for
    the same schedule, model, tube and tone; the transducer is then not
    driven.  A product past a float's range raises ValueError.
    """
    if unit_mean_pa is None:
        f = source.tone_hz if target_f_hz is None else target_f_hz
        unit_mean_pa = unit_response_mean(schedule, model, tube, target_f_hz=f)
    amplitude = port_amplitude_pa(source, tube, extra_loss_db)
    forged = model.reading_gain * amplitude * unit_mean_pa
    if not math.isfinite(forged):
        raise ValueError(f"the forged pressure, {model.reading_gain:g} x {amplitude:.3g} Pa at "
                         f"the port x {unit_mean_pa:.3g}, overflows a float")
    return forged


def calibration_carrier(duration_s: float = 5.0) -> AudioBuffer:
    """Deterministic music-like carrier for spectral checks, at 48 kHz.

    A stationary chord of steady tones plus low-passed noise drawn from a
    fixed seed.  Stationarity keeps windowed band-power estimates stable,
    which matters for the null-case behavior of :func:`psd_ratio`.
    """
    sample_rate_hz = 48000
    if not 1.0 <= duration_s * sample_rate_hz < math.inf:
        raise ValueError(f"a calibration carrier's duration must be finite and hold a "
                         f"sample at {sample_rate_hz} Hz, got {duration_s!r} s")
    rng = np.random.default_rng(7)
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    tones = [
        (220.0, 0.30), (330.0, 0.24), (440.0, 0.20), (523.25, 0.16),
        (659.25, 0.13), (685.0, 0.11), (783.99, 0.09), (880.0, 0.07),
    ]
    x = np.zeros(n)
    for k, (f, a) in enumerate(tones):
        x += a * np.sin(2.0 * math.pi * f * t + 0.7 * k)
    # One-pole smoothing tilts the noise toward low frequencies.
    alpha = 0.05
    smooth = drive_chain(one_pole_chain(alpha), rng.standard_normal(n))[:, 0]
    x += 0.8 * smooth
    x *= 0.95 / float(np.max(np.abs(x)))
    return AudioBuffer(sample_rate_hz=sample_rate_hz, samples=x)
