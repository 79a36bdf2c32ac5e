import math

import pytest

from nprsim import AcousticSource, PathModel, TubeAssembly, port_pressure, propagate, spl_to_pressure_amp
from nprsim.acoustics import (
    PICKUP_LOSS_DB,
    TUBE_LOSS_DB_PER_M,
    default_tube_loss_db_per_m,
)
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
    path = PathModel(tube=NO_TUBE)
    h1, d1 = propagate(_tone(0.01), path)
    h2, d2 = propagate(_tone(0.02), path)
    assert h1 / h2 == pytest.approx(2.0, rel=1e-12)
    assert d2 - d1 == pytest.approx(0.01 / 343.0, rel=1e-9)


def test_at_reference_distance_only_tube_terms_remain():
    h, _ = propagate(_tone(0.002), PathModel(tube=NO_TUBE))
    assert h == pytest.approx(1.0, rel=1e-12)


def test_tube_loss_scales_with_length():
    h1, _ = propagate(_tone(), PathModel(tube=TubeAssembly(length_m=1.0)))
    h2, _ = propagate(_tone(), PathModel(tube=TubeAssembly(length_m=2.0)))
    assert h1 / h2 == pytest.approx(10.0 ** (TUBE_LOSS_DB_PER_M / 20.0), rel=1e-9)


def test_narrow_tube_loses_more_per_meter():
    wide = default_tube_loss_db_per_m(685.0, REFERENCE_TUBE_ID_M)
    narrow = default_tube_loss_db_per_m(685.0, REFERENCE_TUBE_ID_M / 2.0)
    assert wide == pytest.approx(TUBE_LOSS_DB_PER_M)
    assert narrow == pytest.approx(2.0 * TUBE_LOSS_DB_PER_M)


def test_pickup_device_adds_fixed_insertion_loss():
    plain = PathModel(tube=TubeAssembly(length_m=1.0))
    picked = PathModel(tube=TubeAssembly(length_m=1.0, pickup_device=True))
    h0, _ = propagate(_tone(), plain)
    h1, _ = propagate(_tone(), picked)
    assert 20.0 * math.log10(h0 / h1) == pytest.approx(PICKUP_LOSS_DB, abs=1e-9)


def test_extra_loss_reduces_by_exact_decibels():
    base = PathModel(tube=NO_TUBE)
    damped = PathModel(tube=NO_TUBE, extra_loss_db=20.0)
    h0, _ = propagate(_tone(), base)
    h1, _ = propagate(_tone(), damped)
    assert h0 / h1 == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        PathModel(tube=NO_TUBE, extra_loss_db=-1.0)


def test_port_pressure_honors_saturation_clamp():
    import numpy as np

    loud = _tone(spl_db=120.0)
    t = np.arange(0, 0.01, 1.0 / 48000.0)
    free = port_pressure(loud, PathModel(tube=NO_TUBE), t)
    clamped = port_pressure(loud, PathModel(tube=NO_TUBE, max_port_pa=1.0), t)
    assert float(np.max(np.abs(free))) > 1.0
    assert float(np.max(np.abs(clamped))) == pytest.approx(1.0, rel=1e-9)


def test_port_tone_is_the_source_tone_delayed_by_the_path():
    import numpy as np

    source = AcousticSource(spl_db=65.0, ref_distance_m=0.002, position_distance_m=0.3,
                            tone_hz=685.0)
    tube = TubeAssembly(length_m=1.2)
    path = PathModel(tube=tube)
    t = np.arange(0, 0.01, 1.0 / 48000.0)
    h, _ = propagate(source, path)
    delay = (0.3 + 1.2) / tube.sound_speed_mps
    expected = h * spl_to_pressure_amp(65.0) * np.cos(2.0 * math.pi * 685.0 * (t - delay))
    np.testing.assert_allclose(port_pressure(source, path, t), expected, rtol=0.0, atol=1e-12)


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


def test_source_rejects_bad_geometry():
    with pytest.raises(ValueError):
        AcousticSource(spl_db=65.0, ref_distance_m=0.0,
                       position_distance_m=0.002, tone_hz=685.0)
    with pytest.raises(ValueError):
        AcousticSource(spl_db=65.0, ref_distance_m=0.002,
                       position_distance_m=-0.01, tone_hz=685.0)
