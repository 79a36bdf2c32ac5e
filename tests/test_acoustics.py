import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nprsim import AcousticSource, TubeAssembly, propagate, spl_to_pressure_amp
from nprsim.acoustics import PICKUP_LOSS_DB, TUBE_LOSS_DB_PER_M
from nprsim.sensor import NO_TUBE, REFERENCE_TUBE_ID_M


def _tone(distance_m=0.002, spl_db=65.0, f_hz=685.0):
    return AcousticSource(
        spl_db=spl_db, ref_distance_m=0.002,
        position_distance_m=distance_m, tone_hz=f_hz,
    )


def test_spl_conversion_goldens():
    assert spl_to_pressure_amp(94.0) == pytest.approx(1.0023744673, abs=1e-9)
    assert spl_to_pressure_amp(65.0) == pytest.approx(0.0355655882, abs=1e-9)
    assert spl_to_pressure_amp(0.0) == pytest.approx(20e-6)
    # every 20 dB is exactly one decade
    assert spl_to_pressure_amp(85.0) / spl_to_pressure_amp(65.0) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        spl_to_pressure_amp(141.0)
    with pytest.raises(ValueError):
        spl_to_pressure_amp(-1.0)


def test_spreading_is_inverse_distance():
    h1 = propagate(_tone(0.01), NO_TUBE)
    h2 = propagate(_tone(0.02), NO_TUBE)
    assert h1 / h2 == pytest.approx(2.0, rel=1e-12)


def test_at_reference_distance_only_tube_terms_remain():
    h = propagate(_tone(0.002), NO_TUBE)
    assert h == pytest.approx(1.0, rel=1e-12)


def test_tube_loss_scales_with_length():
    h1 = propagate(_tone(), TubeAssembly(length_m=1.0))
    h2 = propagate(_tone(), TubeAssembly(length_m=2.0))
    assert h1 / h2 == pytest.approx(10.0 ** (TUBE_LOSS_DB_PER_M / 20.0), rel=1e-9)


def test_narrow_tube_loses_more_per_meter():
    # At the reference distance the loss of one meter of tube is all of h.
    wide = -20.0 * math.log10(propagate(_tone(), TubeAssembly(length_m=1.0)))
    narrow = -20.0 * math.log10(propagate(
        _tone(), TubeAssembly(length_m=1.0, inner_diameter_m=REFERENCE_TUBE_ID_M / 2.0)))
    assert wide == pytest.approx(TUBE_LOSS_DB_PER_M)
    assert narrow == pytest.approx(2.0 * TUBE_LOSS_DB_PER_M)


def test_pickup_device_adds_fixed_insertion_loss():
    h0 = propagate(_tone(), TubeAssembly(length_m=1.0))
    h1 = propagate(_tone(), TubeAssembly(length_m=1.0, pickup_device=True))
    assert 20.0 * math.log10(h0 / h1) == pytest.approx(PICKUP_LOSS_DB, abs=1e-9)


def test_extra_loss_reduces_by_exact_decibels():
    h0 = propagate(_tone(), NO_TUBE)
    h1 = propagate(_tone(), NO_TUBE, 20.0)
    assert h0 / h1 == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        propagate(_tone(), NO_TUBE, -1.0)


def _h_term_by_term(source, tube, extra_loss_db):
    """h as it was summed when propagate also returned a delay: a running
    loss total, with the tube term added only for a tube of some length."""
    spread = source.ref_distance_m / source.position_distance_m
    loss_db = 0.0
    if tube.length_m > 0.0:
        loss_db += TUBE_LOSS_DB_PER_M * (REFERENCE_TUBE_ID_M / tube.inner_diameter_m) * tube.length_m
    loss_db += (PICKUP_LOSS_DB if tube.pickup_device else 0.0) + extra_loss_db
    return spread * 10.0 ** (-loss_db / 20.0)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 140.0), st.floats(1e-3, 10.0), st.floats(1e-3, 100.0),
    st.one_of(st.just(0.0), st.floats(0.0, 30.0)), st.floats(1e-4, 0.05), st.booleans(),
    st.one_of(st.just(0.0), st.floats(0.0, 120.0)),
)
def test_h_is_bit_identical_to_the_term_by_term_sum(spl, ref, distance, length, diameter,
                                                    pickup, extra):
    source = AcousticSource(spl_db=spl, ref_distance_m=ref, position_distance_m=distance,
                            tone_hz=685.0)
    tube = TubeAssembly(length_m=length, inner_diameter_m=diameter, pickup_device=pickup)
    assert propagate(source, tube, extra) == _h_term_by_term(source, tube, extra)


def test_source_requires_exactly_one_signal_description():
    with pytest.raises(TypeError, match="tone_hz"):
        AcousticSource(spl_db=65.0, ref_distance_m=0.002, position_distance_m=0.002)


@pytest.mark.parametrize("field", ["spl_db", "ref_distance_m", "position_distance_m", "tone_hz"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_source_rejects_non_finite_fields(field, value):
    kw = dict(spl_db=65.0, ref_distance_m=0.002, position_distance_m=0.002, tone_hz=685.0)
    kw[field] = value
    with pytest.raises(ValueError, match="must be finite"):
        AcousticSource(**kw)


@pytest.mark.parametrize("tone_hz", [-5.0, 0.0])
def test_source_rejects_a_tone_it_cannot_emit(tone_hz):
    with pytest.raises(ValueError, match=f"^tone frequency must be > 0, got {tone_hz}$"):
        _tone(f_hz=tone_hz)


def test_source_rejects_bad_geometry():
    with pytest.raises(ValueError):
        AcousticSource(spl_db=65.0, ref_distance_m=0.0,
                       position_distance_m=0.002, tone_hz=685.0)
    with pytest.raises(ValueError):
        AcousticSource(spl_db=65.0, ref_distance_m=0.002,
                       position_distance_m=-0.01, tone_hz=685.0)
