"""Propagation of an audio source's pressure wave to a sensor port.

The chain is: source SPL -> pressure amplitude at the stated reference
distance -> inverse-distance spreading to the port -> per-meter loss along
any sampling tube -> fixed insertion loss of a foam pickup gasket when one
is fitted.  The result is the attenuation factor h(d, f) and the propagation
delay, which together turn the source tone into the inlet pressure the
transducer model integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensor import REFERENCE_TUBE_ID_M, TubeAssembly, _require_finite_fields

P_REF_PA = 20.0e-6

# Per-meter attenuation of the reference 5/16 inch tube, dB/m, applied as
# loss_db = TUBE_LOSS_DB_PER_M * (ref_diameter / diameter) * length.
# Narrower tubes lose more per meter.  Value set by
# scripts/calibrate_defaults.py so that bench-scale endpoints hold: a 90 dB
# source is pushed below the 0.1 Pa noise floor by a bit over 7 m of tube
# while the same source retains its effect through 1 m.
TUBE_LOSS_DB_PER_M = 10.935

# Insertion loss of the foam pickup gasket used to couple a tube to a wall
# port, dB.
PICKUP_LOSS_DB = 6.0


def default_tube_loss_db_per_m(frequency_hz: float, inner_diameter_m: float) -> float:
    """Per-meter tube loss in dB.  Flat in frequency, higher for narrow bores."""
    if inner_diameter_m <= 0.0:
        raise ValueError(f"diameter must be > 0, got {inner_diameter_m}")
    return TUBE_LOSS_DB_PER_M * (REFERENCE_TUBE_ID_M / inner_diameter_m)


@dataclass(frozen=True)
class AcousticSource:
    """A tone source at a known SPL and position.

    spl_db is interpreted at ref_distance_m, so the same loudness number can
    describe a phone speaker rated at one inch or a bench speaker rated at
    one meter.  position_distance_m is the source-to-port distance and
    tone_hz the emitted tone.
    """

    spl_db: float
    ref_distance_m: float
    position_distance_m: float
    tone_hz: float

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if not 0.0 <= self.spl_db <= 140.0:
            raise ValueError(f"SPL must be within [0, 140] dB, got {self.spl_db}")
        if self.ref_distance_m <= 0.0:
            raise ValueError(f"reference distance must be > 0, got {self.ref_distance_m}")
        if self.position_distance_m <= 0.0:
            raise ValueError(f"position distance must be > 0, got {self.position_distance_m}")
        if self.tone_hz <= 0.0:
            raise ValueError(f"tone frequency must be > 0, got {self.tone_hz}")


@dataclass(frozen=True)
class PathModel:
    """Everything between the source and the transducer inlet."""

    tube: TubeAssembly
    max_port_pa: float | None = None
    extra_loss_db: float = 0.0

    def __post_init__(self) -> None:
        if self.extra_loss_db < 0.0:
            raise ValueError(f"extra path loss must be >= 0 dB, got {self.extra_loss_db}")
        if self.max_port_pa is not None and self.max_port_pa <= 0.0:
            raise ValueError(f"saturation clamp must be > 0 Pa, got {self.max_port_pa}")


def spl_to_pressure_amp(spl_db: float) -> float:
    """Pressure amplitude in Pa for a sound pressure level in dB re 20 uPa."""
    if not 0.0 <= spl_db <= 140.0:
        raise ValueError(f"SPL must be within [0, 140] dB, got {spl_db}")
    return P_REF_PA * 10.0 ** (spl_db / 20.0)


def propagate(source: AcousticSource, path: PathModel, frequency_hz: float | None = None) -> tuple[float, float]:
    """Attenuation factor and propagation delay from source to inlet.

    Returns (h, delay_s).  h combines inverse-distance spreading relative to
    the SPL reference distance, per-meter tube loss at frequency_hz (the
    source tone when None), and pickup insertion loss; it is at most
    ref_distance/position_distance, so h <= 1 whenever the port is at or
    beyond the reference distance.  delay_s is distance/sound speed.
    """
    if frequency_hz is None:
        frequency_hz = source.tone_hz
    spread = source.ref_distance_m / source.position_distance_m
    loss_db = 0.0
    if path.tube.length_m > 0.0:
        per_m = default_tube_loss_db_per_m(frequency_hz, path.tube.inner_diameter_m)
        loss_db += per_m * path.tube.length_m
    pickup_loss_db = PICKUP_LOSS_DB if path.tube.pickup_device else 0.0
    loss_db += pickup_loss_db + path.extra_loss_db
    h = spread * 10.0 ** (-loss_db / 20.0)
    total_distance = source.position_distance_m + path.tube.length_m
    delay_s = total_distance / path.tube.sound_speed_mps
    return h, delay_s


def port_pressure(source: AcousticSource, path: PathModel, t_s: np.ndarray) -> np.ndarray:
    """Inlet pressure series at the transducer for the given time grid.

    This is h * A0 * cos(2*pi*f*(t - delay)) with A0 from the SPL, so the
    port hears the source tone delay seconds late, clamped to max_port_pa
    when the path sets one.
    """
    t = np.asarray(t_s, dtype=float)
    h, delay_s = propagate(source, path)
    amp = spl_to_pressure_amp(source.spl_db)
    press = h * amp * np.cos(2.0 * math.pi * source.tone_hz * (t - delay_s))
    if path.max_port_pa is not None:
        press = np.clip(press, -path.max_port_pa, path.max_port_pa)
    return press
