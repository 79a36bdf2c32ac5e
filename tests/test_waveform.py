import dataclasses
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nprsim import (
    AcousticSource,
    AttackPlan,
    AudioBuffer,
    Countermeasure,
    DpsBinding,
    NprScenario,
    PortWiring,
    RoomConfig,
    ScheduleError,
    SegmentSchedule,
    archetype,
    attack_response_trace,
    calibration_carrier,
    evaluate_countermeasure,
    forged_pressure_estimate,
    natural_resonant_hz,
    psd_ratio,
    read_wav,
    segment_mask,
    step_response,
    suppress_band,
    synthesize_attack,
    write_wav,
)
from nprsim import sensor
from nprsim.cli import main
from nprsim.acoustics import propagate, spl_to_pressure_amp
from nprsim.countermeasures import enclosure_lag_s, measurement_settle_time_s
from nprsim.scenario import load_archetypes, load_scenario
from nprsim.sensor import NO_TUBE, TubeAssembly, system_resonant_hz
from nprsim.waveform import (
    ESTIMATE_WARMUP_S,
    ESTIMATE_WINDOW_S,
    PSD_RATIO_CAP,
    SUPPORTED_RATES,
    _WAV_BLOCK_SAMPLES,
    _band_basis,
    _burst_samples,
    _burst_spans,
    _estimate_window,
    _true_run_lengths,
    unit_response_mean,
    unit_response_means,
)

import lfilter_reference
from laid_train_reference import unit_response


def _source(spl_db=65.0, distance_m=0.002, f_hz=685.0):
    return AcousticSource(spl_db=spl_db, ref_distance_m=0.002,
                          position_distance_m=distance_m, tone_hz=f_hz)


def test_schedule_rejects_subperiod_bursts():
    with pytest.raises(ValueError):
        SegmentSchedule(band_hz=(680.0, 690.0), duration_s=0.0005, interval_s=0.015)


def test_a_burst_shorter_than_the_played_tones_period_holds_one_whole_cycle():
    """duration_s is checked against the band's upper edge, not the tone
    played: the shipped 2 ms bursts (one 670 Hz period is 1.49 ms),
    retuned to the 476.6 Hz resonance of a 1.6 m tube as sweep --axis
    tube_length does, play one whole 2.098 ms cycle."""
    schedule = SegmentSchedule(band_hz=(540.0, 670.0), duration_s=0.002, interval_s=0.015)
    tone = system_resonant_hz(_A1011, TubeAssembly(length_m=1.6))
    assert round(tone, 1) == 476.6 and round(1e3 / tone, 3) == 2.098
    assert schedule.cycle_sequence(tone) == (1,)
    spans = _burst_spans(schedule, tone, 48000, 48000)
    assert set((spans[:, 1] - spans[:, 0]).tolist()) == {round(48000 / tone)} == {101}
    with pytest.raises(ScheduleError, match="1 cycles of 476.555 Hz need 2.09839 ms"):
        dataclasses.replace(schedule, cycles=1).cycle_sequence(tone)


def test_schedule_rejects_interval_not_exceeding_burst():
    with pytest.raises(ValueError):
        SegmentSchedule(band_hz=(680.0, 690.0), duration_s=0.01, interval_s=0.01)


def test_schedule_rejects_long_fade_and_bad_cycles():
    with pytest.raises(ValueError):
        SegmentSchedule(band_hz=(680.0, 690.0), duration_s=0.002,
                        interval_s=0.015, fade_in_s=0.002)
    with pytest.raises(ValueError):
        SegmentSchedule(band_hz=(680.0, 690.0), duration_s=0.002,
                        interval_s=0.015, cycles=0)
    with pytest.raises(ValueError):
        SegmentSchedule(band_hz=(690.0, 680.0), duration_s=0.002, interval_s=0.015)


@pytest.mark.parametrize("kw", [
    {"band_hz": (540.0, math.inf)},
    {"band_hz": (math.nan, 670.0)},
    {"duration_s": math.inf},
    {"interval_s": math.nan},
    {"amplitude_scale": math.nan},
    {"fade_in_s": math.nan},
])
def test_schedule_rejects_non_finite_fields(kw):
    base = {"band_hz": (540.0, 670.0), "duration_s": 0.002, "interval_s": 0.015}
    with pytest.raises(ValueError, match="must be finite"):
        SegmentSchedule(**{**base, **kw})


def test_every_burst_ends_at_a_tone_peak():
    sched = SegmentSchedule(band_hz=(680.0, 690.0), duration_s=0.002, interval_s=0.015)
    carrier = calibration_carrier()
    attacked = synthesize_attack(carrier, sched)
    spans = _burst_spans(sched, sched.target_hz(), attacked.samples.size,
                         attacked.sample_rate_hz)
    assert len(spans) > 100
    for start, stop in spans:
        segment = attacked.samples[start:stop]
        assert abs(segment[-1]) == pytest.approx(float(np.max(np.abs(segment))), rel=1e-6)


def test_psd_ratio_exceeds_stealth_threshold_on_calibration_carrier():
    sched = SegmentSchedule(band_hz=(680.0, 690.0), duration_s=0.002, interval_s=0.015)
    carrier = calibration_carrier()
    attacked = synthesize_attack(carrier, sched)
    mask = segment_mask(sched, sched.target_hz(), attacked.samples.size,
                        attacked.sample_rate_hz)
    ratio = psd_ratio(attacked, sched.band_hz, mask)
    assert 3.0 <= ratio <= 30.0


def test_suppress_band_removes_band_energy():
    fs = 48000
    t = np.arange(fs) / fs
    tone = 0.5 * np.sin(2.0 * math.pi * 685.0 * t)
    audio = AudioBuffer(sample_rate_hz=fs, samples=tone)
    cleaned = suppress_band(audio, (660.0, 710.0))
    # steady-state section, away from filter edge transients
    mid = slice(fs // 4, 3 * fs // 4)
    before = float(np.sqrt(np.mean(audio.samples[mid] ** 2)))
    after = float(np.sqrt(np.mean(cleaned.samples[mid] ** 2)))
    assert after < 0.02 * before


def _suppress_band_full_gain(audio, band_hz):
    """suppress_band with a gain for every rfft bin: the reference.

    The transforms run in long double: a float64 rfft and irfft of the
    whole buffer round its every sample, by over 8 eps at 16,387 samples
    of the carrier (7 x the prime 2,341), where suppress_band, which
    transforms back only the band it removes, is within an eps."""
    lo, hi = band_hz
    n = audio.samples.size
    spectrum = np.fft.rfft(audio.samples.astype(np.longdouble))
    freqs = np.fft.rfftfreq(n, 1.0 / audio.sample_rate_hz)
    taper = max(2.0, 0.1 * (hi - lo))
    gain = np.ones_like(freqs)
    gain[(freqs >= lo) & (freqs <= hi)] = 0.0
    rise = (freqs >= lo - taper) & (freqs < lo)
    gain[rise] = 0.5 * (1.0 + np.cos(np.pi * (freqs[rise] - (lo - taper)) / taper))
    fall = (freqs > hi) & (freqs <= hi + taper)
    gain[fall] = 0.5 * (1.0 - np.cos(np.pi * (freqs[fall] - hi) / taper))
    out = np.fft.irfft(spectrum * gain, n)
    np.clip(out, -1.0, 1.0, out=out)
    return out.astype(float)


@pytest.mark.parametrize("n", [1000, 1001, 48000, 47999])
@pytest.mark.parametrize("band_hz", [
    (660.0, 710.0),
    (1.0, 10.0),            # the rising taper starts below 0 Hz
    (23980.0, 23999.0),     # the falling taper ends past Nyquist
    (100.0, 23000.0),       # both
    (3000.0, 3000.5),
])
def test_suppress_band_equals_the_full_gain_notch(n, band_hz, tmp_path):
    audio = AudioBuffer(sample_rate_hz=48000, samples=calibration_carrier(1.0).samples[:n])
    _assert_full_gain_notch(audio, band_hz, tmp_path)


def _assert_full_gain_notch(audio, band_hz, tmp_path):
    """suppress_band sums the band's DFT in another order than the
    reference, so its samples may differ by a few ulp: by at most 8 eps,
    and never by a 16-bit PCM step."""
    got = suppress_band(audio, band_hz)
    expected = AudioBuffer(sample_rate_hz=audio.sample_rate_hz,
                           samples=_suppress_band_full_gain(audio, band_hz))
    assert np.max(np.abs(got.samples - expected.samples)) <= 8 * np.finfo(float).eps
    write_wav(tmp_path / "got.wav", got)
    write_wav(tmp_path / "expected.wav", expected)
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "expected.wav").read_bytes()


_PRIMES = [p for p in range(1009, 6000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
_NOTCH_CARRIER = calibration_carrier(1.0).samples


@st.composite
def _notch_cases(draw):
    """A length whose phase count suppress_band picks as 1 (a prime), 7 or
    13 (that times a prime) or 16 (a power of two), and a band whose taper
    (at least 2 Hz) passes 0 Hz or the 24 kHz Nyquist frequency, or whose
    top may lie above a phase's Nyquist bin, which forces fewer phases."""
    n = draw(st.one_of(
        st.sampled_from(_PRIMES),
        st.builds(lambda k, p: k * p, st.sampled_from((7, 13)), st.sampled_from(_PRIMES)),
        st.integers(10, 16).map(lambda e: 2 ** e),
    ))
    width = draw(st.floats(0.5, 20.0))
    band_hz = draw(st.one_of(
        st.floats(0.1, 1.9).map(lambda lo: (lo, lo + width)),
        st.floats(23998.1, 23999.9).map(lambda hi: (hi - width, hi)),
        st.floats(100.0, 6000.0).map(lambda lo: (lo, lo + 25.0 * width)),
    ))
    return n, band_hz


@settings(max_examples=40, deadline=None)
@given(_notch_cases())
def test_suppress_band_matches_the_full_gain_notch_at_any_split(tmp_path_factory, case):
    n, band_hz = case
    audio = AudioBuffer(sample_rate_hz=48000, samples=np.resize(_NOTCH_CARRIER, n))
    _assert_full_gain_notch(audio, band_hz, tmp_path_factory.mktemp("notch"))


def test_suppress_band_clamps_the_notch_of_a_full_scale_carrier():
    """Removing a band from a carrier at full scale pushes samples past it,
    which the notch clamps, as AudioBuffer would refuse them."""
    samples = np.sign(np.random.default_rng(1).standard_normal(48000))
    out = suppress_band(AudioBuffer(sample_rate_hz=48000, samples=samples), (680.0, 690.0))
    assert np.abs(out.samples).max() == 1.0


def test_suppress_band_refuses_an_empty_buffer():
    with pytest.raises(ValueError, match="empty buffer"):
        suppress_band(AudioBuffer(sample_rate_hz=48000, samples=np.zeros(0)), (600.0, 700.0))


def test_suppress_band_peaks_under_two_point_two_floats_a_sample():
    """The split transform holds at most two full-length arrays at once:
    the phases' spectrum and their removed band, then that band and the
    output."""
    carrier = calibration_carrier(10.0)
    tracemalloc.start()
    try:
        suppress_band(carrier, (540.0, 670.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * carrier.samples.size


def test_write_wav_converts_in_blocks_to_the_one_buffer_samples(tmp_path):
    """write_wav holds one block of floats and one 16-bit block, whatever
    the buffer's length: at most 11 bytes a block sample (a 16-bit copy
    of this buffer alone would take 2 MB), for the same samples the
    whole-buffer conversion wrote."""
    from scipy.io import wavfile

    rng = np.random.default_rng(11)
    samples = np.clip(rng.normal(scale=0.4, size=1_000_003), -1.0, 1.0)
    samples[:4] = [1.0 + 1e-9, -1.0 - 1e-9, 0.5 / 32767.0, -0.5 / 32767.0]
    audio = AudioBuffer(sample_rate_hz=48000, samples=samples)
    path = tmp_path / "blocks.wav"
    tracemalloc.start()
    try:
        write_wav(path, audio)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * _WAV_BLOCK_SAMPLES
    whole = np.clip(samples, -1.0, 1.0)
    whole *= 32767.0
    np.round(whole, out=whole)
    assert wavfile.read(path)[1].tobytes() == whole.astype("<i2").tobytes()


def _write_wav_whole(path, audio):
    """write_wav as it was written with one 16-bit copy of the whole
    buffer and one writeframes call."""
    import wave

    whole = np.clip(audio.samples, -1.0, 1.0)
    whole *= 32767.0
    np.round(whole, out=whole)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(audio.sample_rate_hz)
        fh.writeframes(whole.astype("<i2"))


@pytest.mark.parametrize("n", [0, 1 << 16, 3 * (1 << 16) + 17])
def test_write_wav_by_blocks_writes_the_whole_buffers_bytes(n, tmp_path):
    """An empty buffer, exactly one 65,536-sample block, and three blocks
    and 17 samples, written block by block, give the bytes the one-copy
    writer gave."""
    samples = np.clip(np.random.default_rng(n).normal(scale=0.5, size=n), -1.0, 1.0)
    audio = AudioBuffer(sample_rate_hz=44100, samples=samples)
    write_wav(tmp_path / "blocks.wav", audio)
    _write_wav_whole(tmp_path / "whole.wav", audio)
    assert (tmp_path / "blocks.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_an_audio_buffer_refuses_a_non_finite_sample(bad):
    """A NaN compares False with any bound, so a peak test alone let it in."""
    with pytest.raises(ValueError, match="non-finite"):
        AudioBuffer(sample_rate_hz=48000, samples=np.array([0.1, bad, 0.2]))


@pytest.mark.parametrize("duration_s", [0.0, -1.0, math.nan, math.inf, 0.4 / 48000])
def test_a_calibration_carrier_refuses_a_duration_without_a_sample(duration_s):
    """A duration of no sample, or not finite, is one ValueError naming
    it, not an error numpy raises on the way."""
    message = f"duration must be finite and hold a sample at 48000 Hz, got {duration_s!r} s"
    with pytest.raises(ValueError, match=re.escape(message)):
        calibration_carrier(duration_s)
    assert calibration_carrier(1.0 / 48000).samples.size == 1


@pytest.mark.parametrize("rate", [np.zeros(4), np.array([48000]), True, 48000.0, "48000"])
def test_an_audio_buffer_refuses_a_rate_that_is_not_a_supported_integer(rate):
    """Swapped arguments put the samples in the rate, where `in` asked an
    array for its truth value."""
    with pytest.raises(ValueError, match=r"^sample rate must be one of \(44100, 48000\)"):
        AudioBuffer(rate, np.zeros(4))
    assert AudioBuffer(np.int64(48000), np.zeros(4)).sample_rate_hz == 48000


def test_wav_roundtrip_is_16_bit_faithful(tmp_path):
    fs = 44100
    rng = np.random.default_rng(5)
    samples = np.clip(rng.normal(scale=0.2, size=fs // 2), -1.0, 1.0)
    path = tmp_path / "roundtrip.wav"
    write_wav(path, AudioBuffer(sample_rate_hz=fs, samples=samples))
    back = read_wav(path)
    assert back.sample_rate_hz == fs
    assert back.samples.size == samples.size
    # writer rounds at 32767, reader divides by 32768: two LSBs of slack
    assert float(np.max(np.abs(back.samples - samples))) <= 2.0 / 32768.0


# The sub-format GUID of a WAVE_FORMAT_EXTENSIBLE PCM file.
_PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")


def _wav_bytes(data: bytes, *, tag=1, channels=1, rate=48_000, bits=16, magic=b"RIFF",
               extensible=False, declared=None) -> bytes:
    """A WAV file of one 'fmt ' and one 'data' chunk, built by hand; declared
    overrides the data chunk's stated size."""
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * align,
                      align, bits)
    if extensible:
        fmt += struct.pack("<HHI", 22, bits, (1 << channels) - 1) + _PCM_GUID
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data) if declared is None else declared) + data)
    return magic + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("channels", [1, 2])
def test_an_extensible_pcm_wav_reads_as_scipy_reads_it(channels, tmp_path):
    from scipy.io import wavfile

    pcm = np.random.default_rng(channels).integers(-32768, 32768, size=(999, channels))
    path = tmp_path / "extensible.wav"
    path.write_bytes(_wav_bytes(pcm.astype("<i2").tobytes(), channels=channels, extensible=True))
    rate, oracle = wavfile.read(path)
    expected = oracle.astype(float) / 32768.0
    if expected.ndim == 2:
        expected = expected.mean(axis=1)
    audio = read_wav(path)
    assert audio.sample_rate_hz == rate == 48_000
    assert audio.samples.tobytes() == expected.tobytes()


_TONE = np.arange(480, dtype="<i2").tobytes()


@pytest.mark.parametrize("content, message", [
    (b"not a wav file, only junk bytes", "not a little-endian RIFF WAVE file"),
    (_wav_bytes(_TONE, declared=4 * len(_TONE)), "data chunk holds 960 of its 3840 bytes"),
    (_wav_bytes(_TONE, bits=8), "expected 16-bit PCM, got format 0x0001 of 8-bit samples"),
    (_wav_bytes(_TONE[:720], bits=24), "expected 16-bit PCM, got format 0x0001 of 24-bit samples"),
    (_wav_bytes(_TONE, tag=3, bits=32), "expected 16-bit PCM, got format 0x0003 of 32-bit samples"),
    (_wav_bytes(_TONE, magic=b"RIFX"), "not a little-endian RIFF WAVE file"),
    (_wav_bytes(_TONE, rate=22_050), "sample rate 22050 not in (44100, 48000)"),
], ids=["junk", "truncated-data", "8-bit", "24-bit", "float32", "rifx", "rate-22050"])
def test_an_unreadable_carrier_is_one_error_line(content, message, tmp_path, capsys):
    carrier = tmp_path / "carrier.wav"
    carrier.write_bytes(content)
    rc = main(["synth", "--carrier", str(carrier), "--band", "540", "670", "--td-ms", "2",
               "--ti-ms", "15", "--out", str(tmp_path / "out.wav")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"nprsim: error: cannot read carrier {carrier}: {carrier}: {message}\n")
    assert not (tmp_path / "out.wav").exists()


def test_synthesize_rejects_out_of_band_target():
    sched = SegmentSchedule(band_hz=(680.0, 690.0), duration_s=0.002, interval_s=0.015)
    with pytest.raises(ScheduleError):
        synthesize_attack(calibration_carrier(), sched, target_f_hz=900.0)


def test_synthesized_output_stays_within_full_scale():
    """Burst insertion replaces the carrier, so full-scale input stays legal."""
    fs = 48000
    t = np.arange(fs) / fs
    sched = SegmentSchedule(band_hz=(680.0, 690.0), duration_s=0.002,
                            interval_s=0.015, amplitude_scale=1.0,
                            fade_in_s=0.0005)
    for carrier_samples in (
        0.999 * np.ones(fs),
        0.999 * np.sin(2.0 * math.pi * 675.0 * t),
        np.clip(np.random.default_rng(3).normal(scale=0.5, size=fs), -1.0, 1.0),
    ):
        out = synthesize_attack(AudioBuffer(sample_rate_hz=fs, samples=carrier_samples),
                                sched)
        assert float(np.max(np.abs(out.samples))) <= 1.0


def test_forged_estimate_scales_inversely_with_interval():
    model = archetype("A1011-00")
    f = natural_resonant_hz(model)
    src = _source(f_hz=f)
    base = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=0.002, interval_s=0.015)
    p15 = forged_pressure_estimate(base, model, None, src, target_f_hz=f)
    p60 = forged_pressure_estimate(
        SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=0.002, interval_s=0.060),
        model, None, src, target_f_hz=f)
    assert p60 == pytest.approx(p15 / 4.0, rel=0.01)


def test_forged_estimate_scales_exactly_with_level():
    model = archetype("A1011-00")
    f = natural_resonant_hz(model)
    sched = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=0.002, interval_s=0.015)
    quiet = forged_pressure_estimate(sched, model, None, _source(spl_db=55.0, f_hz=f),
                                     target_f_hz=f)
    loud = forged_pressure_estimate(sched, model, None, _source(spl_db=75.0, f_hz=f),
                                    target_f_hz=f)
    assert loud / quiet == pytest.approx(10.0, rel=1e-9)


_A1011 = archetype("A1011-00")
_F_A1011 = natural_resonant_hz(_A1011)
_SCHED_A1011 = SegmentSchedule(band_hz=(0.9 * _F_A1011, 1.1 * _F_A1011), duration_s=0.002,
                               interval_s=0.015)


def _forged(source, tube=None, extra_loss_db=0.0):
    return forged_pressure_estimate(_SCHED_A1011, _A1011, tube, source, target_f_hz=_F_A1011,
                                    extra_loss_db=extra_loss_db)


@settings(max_examples=25, deadline=None)
# A tube under about 0.1 m puts the resonance past what 48 kHz resolves.
@given(st.floats(0.0, 120.0), st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
       st.floats(20.0, 100.0))
def test_forged_estimate_scales_as_the_path_gain(loss_db, tube_m, spl_db):
    """An added barrier of L dB scales the reading by exactly 10**(-L/20)."""
    source = _source(spl_db=spl_db, f_hz=_F_A1011)
    tube = TubeAssembly(length_m=tube_m) if tube_m > 0.0 else None
    ratio = _forged(source, tube, loss_db) / _forged(source, tube)
    assert ratio == pytest.approx(10.0 ** (-loss_db / 20.0), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-3, 10.0), st.floats(1.0, 100.0))
def test_forged_estimate_does_not_rise_with_distance(near_m, factor):
    """Up to rounding: the filter scales its output by h only to about
    1e-16, so two distances a few ulps apart can read the other way round."""
    near = _forged(_source(distance_m=near_m, f_hz=_F_A1011))
    far = _forged(_source(distance_m=near_m * factor, f_hz=_F_A1011))
    assert far <= near * (1.0 + 1e-12)


def test_response_trace_spans_follow_the_interval():
    model = archetype("A1011-00")
    f = natural_resonant_hz(model)
    sched = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=0.002, interval_s=0.015)
    _trace, spans, amp = attack_response_trace(sched, model, None, _source(f_hz=f),
                                               target_f_hz=f, duration_s=0.2)
    assert amp > 0.0
    starts = np.array([s for s, _ in spans], dtype=float) / model.sample_rate_hz
    gaps = np.diff(starts)
    assert np.allclose(gaps, 0.015, atol=1.0 / model.sample_rate_hz)


def test_response_trace_needs_room_for_one_burst():
    model = archetype("A1011-00")
    f = natural_resonant_hz(model)
    sched = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=0.002, interval_s=1.0)
    with pytest.raises(ScheduleError):
        attack_response_trace(sched, model, None, _source(f_hz=f),
                              target_f_hz=f, duration_s=0.001)


def _automatic_nperseg(mask):
    runs = _true_run_lengths(mask)
    return int(np.clip(int(np.median(runs)) if runs.size else 96, 32, 512))


def _ratio_of_groups(inside, outside):
    if not inside or not outside:
        raise ValueError("mask leaves one of the frame groups empty")
    num = float(np.mean(inside))
    den = float(np.mean(outside))
    if den <= num / PSD_RATIO_CAP:
        return PSD_RATIO_CAP
    return num / den


def _psd_ratio_by_frame(audio, band_hz, mask, nperseg=None):
    """psd_ratio as one FFT per frame in a Python loop: the reference."""
    lo, hi = band_hz
    mask = np.asarray(mask, dtype=bool)
    nperseg = nperseg or _automatic_nperseg(mask)
    hop = max(1, nperseg // 4)
    window = np.hanning(nperseg)
    freqs = np.fft.rfftfreq(nperseg, 1.0 / audio.sample_rate_hz)
    df = audio.sample_rate_hz / nperseg
    band_bins = (freqs >= lo - 0.5 * df) & (freqs <= hi + 0.5 * df)
    inside = []
    outside = []
    for start in range(0, audio.samples.size - nperseg + 1, hop):
        frac = mask[start : start + nperseg].mean()
        if 0.2 < frac < 0.8:
            continue
        seg = audio.samples[start : start + nperseg] * window
        power = float(np.sum(np.abs(np.fft.rfft(seg)[band_bins]) ** 2))
        (inside if frac >= 0.8 else outside).append(power)
    return _ratio_of_groups(inside, outside)


def _psd_ratio_by_projection(audio, band_hz, mask, nperseg=None):
    """psd_ratio as one frame at a time in a Python loop, each frame
    projected hop by hop on the band's columns, as psd_ratio sums them."""
    mask = np.asarray(mask, dtype=bool)
    nperseg = nperseg or _automatic_nperseg(mask)
    hop = max(1, nperseg // 4)
    basis = _band_basis(nperseg, audio.sample_rate_hz, band_hz)
    inside = []
    outside = []
    for start in range(0, audio.samples.size - nperseg + 1, hop):
        frac = np.count_nonzero(mask[start : start + nperseg]) / nperseg
        if 0.2 < frac < 0.8:
            continue
        frame = audio.samples[start : start + nperseg]
        proj = frame[:hop] @ basis[:hop]
        for i in range(hop, nperseg, hop):
            proj += frame[i : i + hop] @ basis[i : i + hop]
        (inside if frac >= 0.8 else outside).append(float(np.sum(proj * proj)))
    return _ratio_of_groups(inside, outside)


# psd_ratio projects blocks of frames with one matmul per hop, the loop one
# frame at a time, and the FFT loop sums the same products in its own
# order: BLAS sums a block and a single row in different orders, so the
# three agree to rounding, not bit for bit.  Each frame's power is a sum of
# at most 640 products; the largest difference seen over 400 draws of the
# property below is 1.5e-15.
_RATIO_RTOL = 1e-13


def _attacked(carrier, band_hz, duration_s, cycles=None):
    sched = SegmentSchedule(band_hz=band_hz, duration_s=duration_s, interval_s=0.015,
                            cycles=cycles)
    attacked = synthesize_attack(carrier, sched)
    mask = segment_mask(sched, sched.target_hz(), attacked.samples.size,
                        attacked.sample_rate_hz)
    return attacked, mask


@pytest.mark.parametrize("band_hz, duration_s, cycles, nperseg, frame", [
    ((590.0, 610.0), 0.002, None, None, 80),    # one 600 Hz cycle
    ((600.0, 615.0), 0.002, None, None, 79),    # one 607.5 Hz cycle
    ((680.0, 690.0), 0.002, None, None, 70),    # frames at exactly 20% and 80% masked
    ((590.0, 610.0), 0.002, None, 64, 64),
    ((590.0, 610.0), 0.004, None, 128, 128),
    ((540.0, 670.0), 0.004, (1, 2), None, 119),
])
def test_psd_ratio_equals_the_frame_loop(band_hz, duration_s, cycles, nperseg, frame):
    attacked, mask = _attacked(calibration_carrier(), band_hz, duration_s, cycles)
    if nperseg is None:
        assert int(np.median(_true_run_lengths(mask))) == frame
    expected = _psd_ratio_by_projection(attacked, band_hz, mask, nperseg)
    assert psd_ratio(attacked, band_hz, mask, nperseg) == pytest.approx(
        expected, rel=_RATIO_RTOL, abs=0.0)


@st.composite
def _psd_cases(draw):
    lo = draw(st.floats(300.0, 3000.0))
    hi = lo + draw(st.floats(1.0, 600.0))
    cycles = draw(st.one_of(st.none(), st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    f = 0.5 * (lo + hi)
    # At most 13.3 ms, inside the 15 ms interval.
    duration_s = (max(cycles) / f if cycles else draw(st.floats(1.0, 4.0)) / lo) + 1e-6
    # An explicit frame no longer than a burst, so both frame groups can fill.
    longest = int(duration_s * 48000)
    primes = [p for p in (2, 3, 5, 7, 13, 79, 83, 127, 509) if p <= longest]
    nperseg = draw(st.one_of(st.none(), st.integers(2, longest), st.sampled_from(primes)))
    return (lo, hi), duration_s, tuple(cycles) if cycles else None, nperseg


def _ratio_or_error(psd, *args):
    try:
        return psd(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(_psd_cases())
def test_psd_ratio_is_the_power_of_one_fft_per_frame(case):
    band_hz, duration_s, cycles, nperseg = case
    attacked, mask = _attacked(calibration_carrier(0.25), band_hz, duration_s, cycles)
    expected = _ratio_or_error(_psd_ratio_by_frame, attacked, band_hz, mask, nperseg)
    got = _ratio_or_error(psd_ratio, attacked, band_hz, mask, nperseg)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=_RATIO_RTOL, abs=0.0)


@pytest.mark.parametrize("band_hz, nperseg", [((590.0, 610.0), None), ((600.0, 2400.0), 80)])
def test_psd_ratio_peaks_under_four_bytes_a_sample(band_hz, nperseg):
    """The automatic 80-sample frames hold one band bin, the wide band four."""
    attacked, mask = _attacked(calibration_carrier(10.0), (590.0, 610.0), 0.002)
    assert attacked.samples.size == 480_000
    tracemalloc.start()
    try:
        psd_ratio(attacked, band_hz, mask, nperseg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * attacked.samples.size


def test_psd_ratio_over_silence_equals_the_frame_loop_at_the_cap():
    # Silent but for a tone deep inside the one masked span: every outside
    # frame is silent.
    fs = 48000
    samples = np.zeros(fs)
    samples[12000:18000] = 0.5 * np.sin(2.0 * math.pi * 600.0 * np.arange(6000) / fs)
    mask = np.zeros(fs, dtype=bool)
    mask[10000:20000] = True
    audio = AudioBuffer(sample_rate_hz=fs, samples=samples)
    assert _psd_ratio_by_frame(audio, (590.0, 610.0), mask) == PSD_RATIO_CAP
    assert psd_ratio(audio, (590.0, 610.0), mask) == PSD_RATIO_CAP


def test_psd_ratio_raises_like_the_frame_loop_when_a_group_is_empty():
    attacked, mask = _attacked(calibration_carrier(), (590.0, 610.0), 0.002)
    empty = np.zeros_like(mask)
    with pytest.raises(ValueError, match="frame groups empty"):
        _psd_ratio_by_frame(attacked, (590.0, 610.0), empty)
    with pytest.raises(ValueError, match="frame groups empty"):
        psd_ratio(attacked, (590.0, 610.0), empty)


@pytest.mark.parametrize("nperseg", [0, 1, 2.5, True, 10**6])
def test_psd_ratio_rejects_a_bad_frame_length(nperseg):
    attacked, mask = _attacked(calibration_carrier(1.0), (590.0, 610.0), 0.002)
    with pytest.raises(ValueError, match="nperseg"):
        psd_ratio(attacked, (590.0, 610.0), mask, nperseg=nperseg)


def test_burst_trains_equal_a_per_burst_construction():
    sched = SegmentSchedule(band_hz=(540.0, 670.0), duration_s=0.004, interval_s=0.015,
                            cycles=(1, 2), fade_in_s=0.0005)
    f = sched.target_hz()
    carrier = calibration_carrier(1.0)
    fs = carrier.sample_rate_hz
    expected = suppress_band(carrier, sched.band_hz).samples.copy()
    amplitude = 0.9 * float(np.max(np.abs(carrier.samples)))
    spans = _burst_spans(sched, f, expected.size, fs)
    assert len({stop - start for start, stop in spans}) == 2
    for start, stop in spans:
        burst, weight = _burst_samples(sched, f, stop - start, fs, amplitude)
        expected[start:stop] = burst + (1.0 - weight) * expected[start:stop]
    assert np.array_equal(synthesize_attack(carrier, sched).samples,
                          np.clip(expected, -1.0, 1.0))

    model = archetype("A1011-00")
    trace, spans, amp = attack_response_trace(sched, model, None, _source(f_hz=f),
                                              duration_s=0.3)
    inlet = np.zeros(int(round(0.3 * model.sample_rate_hz)))
    for start, stop in spans:
        inlet[start:stop] = _burst_samples(sched, f, stop - start, model.sample_rate_hz, amp)[0]
    assert np.array_equal(trace.p_out_pa,
                          step_response(model, None, inlet, 1.0 / model.sample_rate_hz).p_out_pa)


# Bursts of 2 and 1 cycles of 993.79 Hz, 97 and 48 samples, 96.7 samples
# apart: a 2-cycle burst overruns the 1-cycle one after it by a sample
# wherever their starts lie 96 samples apart.
_MIXED_OVERRUN = SegmentSchedule(band_hz=(894.4, 1093.2), duration_s=96.6 / 48000,
                                 interval_s=96.7 / 48000, cycles=(2, 1))


@pytest.mark.parametrize("schedule", [
    dataclasses.replace(_MIXED_OVERRUN, fade_in_s=0.0003),
    dataclasses.replace(_MIXED_OVERRUN, cycles=2, fade_in_s=0.0002),
], ids=["mixed-lengths", "one-length"])
def test_each_burst_plays_until_the_next_one_starts(schedule):
    """synthesize_attack and segment_mask equal a construction burst by
    burst in which burst k plays its first min(length, next start - start)
    samples, its onset ramp crossfaded with the notched carrier."""
    f = 993.79
    carrier = calibration_carrier(0.5)
    fs = carrier.sample_rate_hz
    expected = suppress_band(carrier, schedule.band_hz).samples.copy()
    mask = np.zeros(expected.size, dtype=bool)
    amplitude = 0.9 * float(np.max(np.abs(carrier.samples)))
    spans = _burst_spans_by_loop(schedule, f, expected.size, fs)
    nexts = [start for start, _stop in spans[1:]] + [expected.size]
    for (start, stop), next_start in zip(spans, nexts):
        burst, weight = _burst_samples(schedule, f, stop - start, fs, amplitude)
        size = min(stop, next_start) - start
        expected[start:start + size] = (burst[:size]
                                        + (1.0 - weight[:size]) * expected[start:start + size])
        mask[start:start + size] = True
    assert any(stop > next_start for (_start, stop), next_start in zip(spans, nexts))
    assert np.array_equal(synthesize_attack(carrier, schedule, f).samples,
                          np.clip(expected, -1.0, 1.0))
    assert np.array_equal(segment_mask(schedule, f, expected.size, fs), mask)


def _burst_spans_by_loop(schedule, frequency_hz, n_samples, sample_rate_hz):
    """Burst spans one burst at a time: the loop _burst_spans replaces."""
    cycles = schedule.cycle_sequence(frequency_hz)
    spans = []
    k = 0
    while True:
        start = int(round(k * schedule.interval_s * sample_rate_hz))
        c = cycles[k % len(cycles)]
        length = int(round(c / frequency_hz * sample_rate_hz))
        if length < 2:
            raise ScheduleError(
                f"burst of {c} cycles at {frequency_hz:g} Hz spans under 2 samples")
        if start + length > n_samples:
            break
        spans.append((start, start + length))
        k += 1
    return spans


def _spans_or_error(spans_of, *args):
    try:
        return [tuple(span) for span in np.asarray(spans_of(*args)).tolist()]
    except ScheduleError as exc:
        return str(exc)


@st.composite
def _span_cases(draw):
    fs = draw(st.sampled_from(SUPPORTED_RATES))
    # Past 2/3 fs a cycle rounds to under 2 samples.
    f = draw(st.floats(50.0, 1.5 * fs))
    cycles = draw(st.one_of(st.none(), st.integers(1, 4),
                            st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple)))
    longest = max(cycles) if isinstance(cycles, tuple) else (cycles or 1)
    duration = longest / f * draw(st.floats(1.0, 2.0))
    schedule = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=duration,
                               interval_s=duration * draw(st.floats(1.01, 20.0)), cycles=cycles)
    if draw(st.booleans()):
        n = draw(st.integers(0, 20_000))
    else:
        # The window ends exactly at the end of burst k.
        k = draw(st.integers(0, 40))
        seq = schedule.cycle_sequence(f)
        n = (int(round(k * schedule.interval_s * fs))
             + int(round(seq[k % len(seq)] / f * fs)))
    return schedule, f, n, fs


@settings(max_examples=300, deadline=None)
@given(_span_cases())
# A 3-cycle burst spans 4 samples and a 1-cycle one under 2: the error
# comes at burst 1 once burst 0 fits, and not before.
@example((SegmentSchedule(band_hz=(27e3, 33e3), duration_s=1e-4, interval_s=2e-4,
                          cycles=(3, 1)), 30e3, 100, 44100))
@example((SegmentSchedule(band_hz=(27e3, 33e3), duration_s=1e-4, interval_s=2e-4,
                          cycles=(3, 1)), 30e3, 3, 44100))
def test_burst_spans_equal_the_burst_loop(case):
    schedule, f, n, fs = case
    assert _spans_or_error(_burst_spans, schedule, f, n, fs) == _spans_or_error(
        _burst_spans_by_loop, schedule, f, n, fs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("interval_s", [1e15, 1e18, 1e300])
def test_a_burst_train_of_one_burst_keeps_it_at_any_interval(interval_s):
    """Burst 1 starts far past an int64 sample index; burst 0 still fits,
    as it does when burst 1 starts just past the buffer."""
    schedule = SegmentSchedule(band_hz=(540.0, 670.0), duration_s=0.002, interval_s=interval_s)
    spans = _burst_spans(schedule, 605.0, 44100, 44100).tolist()
    assert len(spans) == 1 and spans == _burst_spans(
        dataclasses.replace(schedule, interval_s=1.0), 605.0, 44100, 44100).tolist()
    assert spans[0][0] == 0


@st.composite
def _estimate_trains(draw):
    """(schedule, f, fs): bursts of a tone at either rate, of one count of
    cycles or a sequence, with intervals from 1.0001x the burst up."""
    fs = draw(st.sampled_from(SUPPORTED_RATES))
    # Up to fs / 2 a cycle spans at least 2 samples.
    f = draw(st.floats(50.0, 0.5 * fs))
    cycles = draw(st.one_of(st.none(), st.integers(1, 4),
                            st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple)))
    longest = max(cycles) if isinstance(cycles, tuple) else (cycles or 1)
    duration = longest / f * draw(st.floats(1.0, 2.0))
    schedule = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=duration,
                               interval_s=duration * draw(st.floats(1.0001, 20.0)), cycles=cycles)
    return schedule, f, fs


@settings(max_examples=300, deadline=None)
@given(_estimate_trains())
# One-cycle bursts of 595.6 Hz, 81 samples, 80.74 samples apart: every
# other burst runs into the next, as behind _OVERRUN_TUBE_M.
@example((SegmentSchedule(band_hz=(536.0, 655.2), duration_s=80.64 / 48000,
                          interval_s=80.74 / 48000, cycles=1), 595.6, 48000))
def test_the_estimate_window_is_whole_burst_intervals_from_burst_k0(case):
    """The window starts where burst k0 does, and every burst that starts
    before its stop ends within the two samples past it that the drive
    lays: the window is the drive's segments k0 to the last, which
    unit_response_means sums."""
    schedule, f, fs = case
    k0, window = _estimate_window(schedule, fs)
    spans = _burst_spans(schedule, f, 2 * window.stop + 4, fs)
    assert spans[k0, 0] == window.start
    assert spans[spans[:, 0] < window.stop, 1].max() <= window.stop + 2


def _full_train(schedule, model, f_hz, amplitude=1.0):
    """The whole burst train, two samples past the estimate window, built
    burst by burst, and that window."""
    fs = model.sample_rate_hz
    t_i = schedule.interval_s
    k0 = int(math.ceil(ESTIMATE_WARMUP_S / t_i))
    n_periods = max(1, int(math.floor(ESTIMATE_WINDOW_S / t_i)))
    start = int(round(k0 * t_i * fs))
    stop = int(round((k0 + n_periods) * t_i * fs))
    inlet = np.zeros(stop + 2)
    for a, b in _burst_spans_by_loop(schedule, f_hz, inlet.size, fs):
        inlet[a:b] = _burst_samples(schedule, f_hz, b - a, fs, amplitude)[0]
    return inlet, slice(start, stop)


def _train_by_lfilter(schedule, model, tube, f_hz, amplitude=1.0):
    """The lfilter reference's response to _full_train, and its window."""
    inlet, window = _full_train(schedule, model, f_hz, amplitude)
    return lfilter_reference.step_response(model, tube, inlet, 1.0 / model.sample_rate_hz), window


def _forged_by_direct_drive(schedule, model, tube, source, *, target_f_hz=None,
                            post_filter=None, extra_loss_db=0.0):
    """The estimate from one drive of the burst train at the port amplitude,
    built burst by burst."""
    f = schedule.target_hz() if target_f_hz is None else target_f_hz
    amplitude = propagate(source, tube or NO_TUBE, extra_loss_db) * spl_to_pressure_amp(
        source.spl_db)
    p, window = _train_by_lfilter(schedule, model, tube, f, amplitude)
    if post_filter is not None:
        p = post_filter(p, model.sample_rate_hz)
    return model.reading_gain * float(np.mean(np.abs(p[window])))


def _attacked_room(tube, source, schedule):
    """One room attacked at its high port through A1011-00 on tube, run
    for 20 control periods."""
    attack = AttackPlan(placement="high_port", source=source, schedule=schedule)
    return NprScenario(rooms=(RoomConfig(name="iso1"),), horizon_s=20.0,
                       wiring=PortWiring(hvac=DpsBinding(model=_A1011, tube=tube), attack=attack))


@settings(max_examples=30, deadline=None)
@given(spl_db=st.floats(0.0, 140.0), distance_m=st.floats(1e-3, 10.0),
       loss_db=st.floats(0.0, 120.0), tube_m=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
       lpf=st.one_of(st.none(), st.tuples(st.floats(20.0, 2000.0), st.integers(1, 3))),
       interval_s=st.floats(0.006, 0.06))
# The slowest filter the strategy draws, where the two paths' rounding differs most.
@example(spl_db=0.0, distance_m=1.0, loss_db=110.0, tube_m=0.0, lpf=(20.0, 3),
         interval_s=0.03125)
def test_the_unit_response_times_the_port_amplitude_is_the_direct_drive(
        spl_db, distance_m, loss_db, tube_m, lpf, interval_s):
    source = _source(spl_db=spl_db, distance_m=distance_m, f_hz=_F_A1011)
    tube = TubeAssembly(length_m=tube_m) if tube_m > 0.0 else None
    schedule = SegmentSchedule(band_hz=_SCHED_A1011.band_hz, duration_s=0.002,
                               interval_s=interval_s)
    if lpf is None:
        kw = {"target_f_hz": _F_A1011, "extra_loss_db": loss_db}
        assert forged_pressure_estimate(schedule, _A1011, tube, source, **kw) == pytest.approx(
            _forged_by_direct_drive(schedule, _A1011, tube, source, **kw), rel=1e-12, abs=0.0)
        return
    # The filter acts after the transducer, on evaluate_countermeasure's
    # baseline drive; that chain adds no path loss.
    cutoff_hz, order = lpf
    report = evaluate_countermeasure(_attacked_room(tube, source, schedule),
                                     Countermeasure.lpf(cutoff_hz, order))
    assert report.baseline_forged_pa == pytest.approx(_forged_by_direct_drive(
        schedule, _A1011, tube, source, target_f_hz=_F_A1011), rel=1e-12, abs=0.0)

    def post(series, fs):
        return lfilter_reference.lpf_cascade(series, cutoff_hz, 1.0 / fs, order)
    # The two paths agree only to rounding, and a one-pole section with
    # coefficient a carries each step's rounding for about 1/a steps:
    # a 20 Hz third-order cascade at 48 kHz differs by up to 3.6 x
    # order**2 x eps/a (about 2.7e-12) over the strategy's draws.
    a = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz / _A1011.sample_rate_hz)
    rel = 1e-12 + 16.0 * order ** 2 * np.finfo(float).eps / a
    assert report.residual_forged_pa == pytest.approx(_forged_by_direct_drive(
        schedule, _A1011, tube, source, target_f_hz=_F_A1011, post_filter=post),
        rel=rel, abs=0.0)


_AUDIBLE = sorted(p for p, m in load_archetypes().items() if m.resonant_band_hz[1] < 20_000.0)


# unit_response and attack_response_trace lay the bursts and the window a
# burst-by-burst loop lays.  Burst spacings in 48 kHz samples, whole and
# fractional; a damping of 0.01 on a long tube rings for longer than the
# window.  The trace window may cut a burst short, which must not be laid.
@settings(max_examples=40, deadline=None)
@given(part=st.sampled_from(_AUDIBLE),
       tube_m=st.one_of(st.just(0.0), st.floats(0.5, 8.0)),
       damping=st.sampled_from([1.0, 0.05, 0.01]),
       gap=st.sampled_from([720.0, 1440.0, 720.2, 1000.2, 720.0 + 1.0 / math.sqrt(2.0), 1000.37]),
       cycles=st.sampled_from([1, (1, 2)]),
       trace_samples=st.integers(1440, 28_800))
# Two bursts of different lengths in two spacings: their spacings repeat,
# their lengths do not.
@example(part="A1011-00", tube_m=0.0, damping=1.0, gap=720.0, cycles=(1, 2), trace_samples=1440)
# The window ends 30 samples into burst 10.
@example(part="A1011-00", tube_m=0.0, damping=1.0, gap=720.0, cycles=1, trace_samples=7230)
def test_the_reference_drive_lays_the_burst_by_burst_train_bit_for_bit(
        part, tube_m, damping, gap, cycles, trace_samples):
    model = archetype(part).with_damping(damping)
    tube = TubeAssembly(length_m=tube_m) if tube_m > 0.0 else None
    f = system_resonant_hz(model, tube)
    fs = model.sample_rate_hz
    schedule = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=2.5 / f,
                               interval_s=gap / fs, cycles=cycles)
    response, window = unit_response(schedule, model, tube, target_f_hz=f)
    inlet, full_window = _full_train(schedule, model, f)
    full = step_response(model, tube, inlet, 1.0 / fs).p_out_pa
    assert window == full_window
    assert response.size == window.stop == full.size - 2
    assert response.tobytes() == full[:response.size].tobytes()
    assert response[window].tobytes() == full[window].tobytes()

    trace, spans, amplitude = attack_response_trace(schedule, model, tube, _source(f_hz=f),
                                                    duration_s=trace_samples / fs)
    inlet = np.zeros(trace_samples)
    for a, b in _burst_spans_by_loop(schedule, f, inlet.size, fs):
        inlet[a:b] = _burst_samples(schedule, f, b - a, fs, amplitude)[0]
    assert trace.p_out_pa.tobytes() == step_response(model, tube, inlet, 1.0 / fs).p_out_pa.tobytes()


def _count_driven(monkeypatch) -> list[int]:
    """Sample counts of the drives of whole inlets."""
    sizes = []
    zero_state = sensor._Tables.zero_state

    def counting(self, x, start=None):
        sizes.append(x.size)
        return zero_state(self, x, start)

    monkeypatch.setattr(sensor._Tables, "zero_state", counting)
    return sizes


_LPF_WIRING = load_scenario(
    Path(__file__).resolve().parent.parent / "scenarios" / "acoustic_lpf.yaml").scenario.wiring


def _count_evaluated(monkeypatch) -> list[int]:
    """Sample counts of the outputs the state-space drives evaluate from a
    state, for chains of one output: each table row once per state."""
    sizes = []
    free = sensor._free_response

    def counting(rows, states):
        sizes.append(len(rows) * (states.shape[1] if states.ndim == 2 else 1))
        return free(rows, states)

    monkeypatch.setattr(sensor, "_free_response", counting)
    return sizes


def test_a_repeating_burst_train_filters_a_fraction_of_its_drive(monkeypatch):
    attack, hvac = _LPF_WIRING.attack, _LPF_WIRING.hvac
    f = attack.source.tone_hz
    response, _window = unit_response(attack.schedule, hvac.model, hvac.tube, target_f_hz=f)
    sizes = _count_evaluated(monkeypatch)
    unit_response_mean(attack.schedule, hvac.model, hvac.tube, target_f_hz=f)
    assert 0 < sum(sizes) < response.size / 4
    # The settle step repeats after its first two blocks of 2,048 samples,
    # of the 24,000.
    sizes.clear()
    measurement_settle_time_s(hvac.model, hvac.tube)
    assert 0 < sum(sizes) < int(round(0.5 * hvac.model.sample_rate_hz)) / 3


# Burst intervals of the lpf scenario's attack (A1011-00 on a 1 m tube)
# whose segment kinds repeat every 1, 5 and 25 bursts.
_REPEATING_INTERVALS_S = {1: 0.015, 5: 0.0148, 25: 0.02347}


@pytest.mark.parametrize("q", sorted(_REPEATING_INTERVALS_S))
@pytest.mark.parametrize("order", [0, 3])
def test_a_burst_train_drive_keeps_to_its_work_budget(q, order, monkeypatch):
    """The drive's work is counted, not timed, so its fixed cost per call
    cannot creep back: it builds one table, as long as the longest
    segment; it carries the state segment by segment, one product per
    segment, and stops within eight periods, where the state repeats; and
    it evaluates one product for each head's zero-state tail and one for
    the window of every kind."""
    attack, hvac = _LPF_WIRING.attack, _LPF_WIRING.hvac
    schedule = dataclasses.replace(attack.schedule, interval_s=_REPEATING_INTERVALS_S[q])
    tables, carried, evaluated = [], [], []
    build, carry, free = sensor._Tables.__init__, sensor._carry, sensor._free_response

    def building(self, chain, needed):
        build(self, chain, needed)
        tables.append((needed, self.length))

    def carrying(maps, kinds, count, first):
        states, repeat, cycle = carry(maps, kinds, count, first)
        # One product per state after the first, and one more for the
        # repeating state that stopped the carry.
        carried.append(states.shape[1] - 1 + (repeat is not None))
        return states, repeat, cycle

    def evaluating(rows, states):
        evaluated.append(rows.shape)
        return free(rows, states)

    monkeypatch.setattr(sensor._Tables, "__init__", building)
    monkeypatch.setattr(sensor, "_carry", carrying)
    monkeypatch.setattr(sensor, "_free_response", evaluating)
    gains = [1.0 - math.exp(-2.0 * math.pi * 120.0 / 48000.0)] * order
    unit_response_means(schedule, hvac.model, hvac.tube, target_f_hz=attack.source.tone_hz,
                        sections=gains)
    # One table, of the longest segment's samples: its gap to the next burst.
    gap = int(round(schedule.interval_s * 48000.0)) + 1
    assert len(tables) == 1 and tables[0][0] == tables[0][1] <= gap
    assert len(carried) == 1 and 0 < carried[0] <= 8 * q
    assert len(evaluated) == 2


@pytest.mark.parametrize("q", [5, 25])
def test_the_carry_agrees_with_the_lfilter_drive_through_twenty_sections(q):
    """The 5- and 25-burst trains through 20 low-pass sections at 120 Hz,
    slow enough that every segment's start state weighs in its outputs,
    meet the lfilter reference within the agreement test's bounds."""
    attack, hvac = _LPF_WIRING.attack, _LPF_WIRING.hvac
    schedule = dataclasses.replace(attack.schedule, interval_s=_REPEATING_INTERVALS_S[q])
    f = attack.source.tone_hz
    order, cutoff_hz = 20, 120.0
    a = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz / 48000.0)
    means = unit_response_means(schedule, hvac.model, hvac.tube, target_f_hz=f,
                                sections=[a] * order)
    response, window = _train_by_lfilter(schedule, hvac.model, hvac.tube, f)
    rel = 1e-12
    assert means[0] == pytest.approx(np.mean(np.abs(response[window])), rel=rel, abs=0.0)
    filtered = lfilter_reference.lpf_cascade(response, cutoff_hz, 1.0 / 48000.0, order)
    rel += 16.0 * order ** 2 * np.finfo(float).eps / a
    assert means[1] == pytest.approx(np.mean(np.abs(filtered[window])), rel=rel, abs=0.0)


def test_a_state_that_rounding_keeps_cycling_still_stops_the_carry(monkeypatch):
    """Two-sample bursts of a 23.95 kHz tone three samples apart: the
    bursts repeat every burst, but the state settles into a 24-burst cycle
    in its last bits rather than holding still, and the drive still stops
    carrying it, evaluating a small fraction of the window."""
    model = archetype("A1011-00")
    schedule = SegmentSchedule(band_hz=(23900.0, 23990.0), duration_s=2.01 / 48000,
                               interval_s=3.0 / 48000, cycles=1)
    response, window = _train_by_lfilter(schedule, model, None, 23950.0)
    sizes = _count_evaluated(monkeypatch)
    mean = unit_response_mean(schedule, model, None, target_f_hz=23950.0)
    assert 0 < sum(sizes) < (window.stop - window.start) / 100
    assert mean == pytest.approx(np.mean(np.abs(response[window])), rel=1e-12, abs=0.0)


def _settle_by_lfilter(model, tube, *, lpf_cutoff_hz=None, lpf_order=1, extra_lag_s=0.0):
    """measurement_settle_time_s as it was found by driving the step
    through step_response and filtering it, both by the lfilter reference."""
    fs = model.sample_rate_hz
    dt = 1.0 / fs
    time_constant_s = extra_lag_s
    if lpf_cutoff_hz is not None:
        time_constant_s += lpf_order / (2.0 * math.pi * lpf_cutoff_hz)
    n = int(round(max(0.5, 10.0 * time_constant_s) * fs))
    out = lfilter_reference.step_response(model, tube, np.ones(n), dt)
    if extra_lag_s > 0.0:
        out = lfilter_reference.one_pole(out, 1.0 - math.exp(-dt / extra_lag_s), 0.0)
    if lpf_cutoff_hz is not None:
        out = lfilter_reference.lpf_cascade(out, lpf_cutoff_hz, dt, lpf_order)
    outside = np.flatnonzero(np.abs(out - 1.0) >= 0.05)
    if outside.size and outside[-1] == n - 1:
        raise ValueError("step response did not settle within the window")
    return float((outside[-1] + 1) * dt) if outside.size else 0.0


# A1011-00 behind this tube resonates at 595.6 Hz, a cycle of 80.59
# samples: one-cycle bursts 80.74 samples apart overrun every other gap,
# and the estimate window starts and ends inside a burst.
_OVERRUN_TUBE_M = (685.0 * 0.88 / 595.6) ** 2


def _resonant_train(part, tube_m, damping, gap, cycles):
    """(model, tube, f, schedule): the part at its damping behind a tube of
    tube_m (none at 0), its resonance f, and bursts tuned to f gap samples
    apart, each of 2.5 cycles or 0.1 sample short of the gap."""
    model = archetype(part).with_damping(damping)
    tube = TubeAssembly(length_m=tube_m) if tube_m > 0.0 else None
    f = system_resonant_hz(model, tube)
    fs = model.sample_rate_hz
    schedule = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f),
                               duration_s=min(2.5 / f, (gap - 0.1) / fs),
                               interval_s=gap / fs, cycles=cycles)
    return model, tube, f, schedule


def test_a_mixed_length_overrunning_train_drives_as_laid_burst_by_burst():
    """A 2-cycle burst cut by the 1-cycle burst after it plays until that
    one starts: the burst-interval drive and the laid train's drive agree
    with the step_response drive of the train laid burst by burst."""
    model = archetype("A1011-00").with_damping(0.05)
    fs = model.sample_rate_hz
    inlet, window = _full_train(_MIXED_OVERRUN, model, 993.79)
    spans = _burst_spans(_MIXED_OVERRUN, 993.79, inlet.size, fs)
    assert (spans[1:, 0] < spans[:-1, 1]).any()
    assert len(set((spans[:, 1] - spans[:, 0]).tolist())) == 2
    full = step_response(model, None, inlet, 1.0 / fs).p_out_pa
    mean = unit_response_mean(_MIXED_OVERRUN, model, None, target_f_hz=993.79)
    assert mean == pytest.approx(np.mean(np.abs(full[window])), rel=1e-12, abs=0.0)
    response, _window = unit_response(_MIXED_OVERRUN, model, None, target_f_hz=993.79)
    assert response.tobytes() == full[:response.size].tobytes()


def test_the_response_trace_spans_are_what_each_burst_plays():
    """attack_response_trace's spans end where the next burst starts when
    the laid burst would run past it, and are the laid spans otherwise."""
    model = archetype("A1011-00")
    fs = model.sample_rate_hz
    for schedule in (_MIXED_OVERRUN, dataclasses.replace(_MIXED_OVERRUN, interval_s=200 / fs)):
        _trace, spans, _amplitude = attack_response_trace(schedule, model, None,
                                                          _source(f_hz=993.79), duration_s=0.1)
        laid = _burst_spans(schedule, 993.79, int(round(0.1 * fs)), fs)
        assert spans.tolist() == [[start, min(stop, after)] for (start, stop), after
                                  in zip(laid.tolist(), [*laid[1:, 0].tolist(), 0.1 * fs])]
        assert np.all(spans[:-1, 1] <= spans[1:, 0])
        overruns = int(np.sum(laid[:-1, 1] > laid[1:, 0]))
        assert overruns == (5 if schedule is _MIXED_OVERRUN else 0)


def test_an_overrunning_train_builds_one_zero_state_response_per_distinct_head(monkeypatch):
    """The overrunning train below has some 1,370 segments but two head
    contents: each is driven from rest once."""
    model, tube, f, schedule = _resonant_train("A1011-00", _OVERRUN_TUBE_M, 1.0, 80.74, 1)
    calls = []
    zero_state = sensor._Tables.zero_state

    def counting(self, x):
        calls.append(x.size)
        return zero_state(self, x)

    monkeypatch.setattr(sensor._Tables, "zero_state", counting)
    unit_response_means(schedule, model, tube, target_f_hz=f)
    assert 0 < len(calls) <= 2


# Spacings in 48 kHz samples that repeat every 1, 5 and 25 bursts, and
# nowhere; a sequence of cycles doubles the period.
@settings(max_examples=25, deadline=None)
@given(part=st.sampled_from(_AUDIBLE),
       tube_m=st.one_of(st.just(0.0), st.floats(0.5, 8.0)),
       damping=st.sampled_from([1.0, 0.05, 0.01]),
       gap=st.sampled_from([720.0, 720.2, 720.04, 720.0 + 1.0 / math.sqrt(2.0)]),
       cycles=st.sampled_from([1, (1, 2)]),
       lpf=st.tuples(st.floats(60.0, 2000.0), st.integers(1, 3)),
       loss_db=st.floats(0.0, 40.0))
@example(part="A1011-00", tube_m=_OVERRUN_TUBE_M, damping=1.0, gap=80.74, cycles=1,
         lpf=(120.0, 3), loss_db=12.0)
# A float64 lfilter drifted 1.03e-12 from the recurrence here, past the bound.
@example(part="A1011-00", tube_m=7.862207639139642, damping=0.05, gap=720.0, cycles=1,
         lpf=(60.0, 1), loss_db=0.0)
def test_the_state_space_drive_agrees_with_the_lfilter_drive(part, tube_m, damping, gap, cycles,
                                                             lpf, loss_db):
    model, tube, f, schedule = _resonant_train(part, tube_m, damping, gap, cycles)
    fs = model.sample_rate_hz
    cutoff_hz, order = lpf
    a = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz / fs)
    means = unit_response_means(schedule, model, tube, target_f_hz=f, sections=[a] * order)
    response, window = _train_by_lfilter(schedule, model, tube, f)
    # lfilter evaluates the transducer as one second-order section, in long
    # double: in float64 its rounding drifts from the recurrence by up to
    # 3.6e-12 for a damping of 0.01; see the extended-precision test below.
    # Each filter section adds its own drift, as in the direct-drive test above.
    rel = 1e-12 if damping > 0.01 else 5e-12
    assert means[0] == pytest.approx(np.mean(np.abs(response[window])), rel=rel, abs=0.0)
    filtered = lfilter_reference.lpf_cascade(response, cutoff_hz, 1.0 / fs, order)
    rel += 16.0 * order ** 2 * np.finfo(float).eps / a
    assert means[1] == pytest.approx(np.mean(np.abs(filtered[window])), rel=rel, abs=0.0)
    for settle in ({}, {"lpf_cutoff_hz": cutoff_hz, "lpf_order": order},
                   {"extra_lag_s": enclosure_lag_s(loss_db)}):
        try:
            expected = _settle_by_lfilter(model, tube, **settle)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                measurement_settle_time_s(model, tube, **settle)
        else:
            assert measurement_settle_time_s(model, tube, **settle) == pytest.approx(
                expected, rel=1e-12, abs=0.0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
def test_the_state_space_drive_meets_an_extended_precision_run_of_the_recurrence():
    """Where a float64 lfilter drifts most from the recurrence it evaluates
    (3.6e-12 on this train), the state-space drives, by burst intervals and over
    the whole laid train, stay within 1e-13 of that recurrence run sample
    by sample in extended precision."""
    model = archetype("P993-1B").with_damping(0.01)
    tube = TubeAssembly(length_m=8.0)
    f = system_resonant_hz(model, tube)
    fs = model.sample_rate_hz
    schedule = SegmentSchedule(band_hz=(0.9 * f, 1.1 * f), duration_s=2.5 / f,
                               interval_s=1440.0 / fs)
    _response, window = unit_response(schedule, model, tube, target_f_hz=f)
    inlet = np.zeros(window.stop + 1, dtype=np.longdouble)
    for start, stop in _burst_spans(schedule, f, window.stop + 1, fs):
        inlet[start:stop] = _burst_samples(schedule, f, stop - start, fs, 1.0)[0]
    a, c_now, c_next = sensor._sampled_recurrence(
        *sensor._oscillator(model, tube, 1.0 / fs), 1.0 / fs)
    (a11, a12), (a21, a22) = ((np.longdouble(v) for v in row) for row in a)
    drive_p = c_now[0] * inlet[:-1] + c_next[0] * inlet[1:]
    drive_v = c_now[1] * inlet[:-1] + c_next[1] * inlet[1:]
    p = v = np.longdouble(0.0)
    out = [p]
    for up, uv in zip(drive_p[:window.stop - 1].tolist(), drive_v[:window.stop - 1].tolist()):
        p, v = a11 * p + a12 * v + up, a21 * p + a22 * v + uv
        out.append(p)
    exact = np.mean(np.abs(np.array(out[window.start:], dtype=np.longdouble)))
    got = unit_response_mean(schedule, model, tube, target_f_hz=f)
    assert abs(np.longdouble(got) / exact - 1) < 1e-13
    whole = step_response(model, tube, inlet.astype(float), 1.0 / fs).p_out_pa
    assert abs(np.mean(np.abs(whole[window]), dtype=np.longdouble) / exact - 1) < 1e-13


def test_each_reference_drive_is_one_filter_call_over_its_whole_inlet(monkeypatch):
    """Even a train that repeats every burst is driven in one call."""
    attack, hvac = _LPF_WIRING.attack, _LPF_WIRING.hvac
    f = attack.source.tone_hz
    sizes = _count_driven(monkeypatch)
    _response, window = unit_response(attack.schedule, hvac.model, hvac.tube, target_f_hz=f)
    assert sizes == [window.stop + 2]
    sizes.clear()
    trace, _spans, _amplitude = attack_response_trace(attack.schedule, hvac.model,
                                                      hvac.tube, attack.source)
    assert sizes == [trace.p_out_pa.size]
