"""Propagation of an audio source's pressure wave to a sensor port.

The chain is: source SPL -> pressure amplitude at the stated reference
distance -> inverse-distance spreading to the port -> per-meter loss along
any sampling tube -> fixed insertion loss of a foam pickup gasket when one
is fitted.  The result is one attenuation factor h, which scales the source
amplitude into the inlet pressure the transducer model integrates.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def spl_to_pressure_amp(spl_db: float) -> float:
    """Pressure amplitude in Pa for a sound pressure level in dB re 20 uPa."""
    if not 0.0 <= spl_db <= 140.0:
        raise ValueError(f"SPL must be within [0, 140] dB, got {spl_db}")
    return P_REF_PA * 10.0 ** (spl_db / 20.0)


def propagate(source: AcousticSource, tube: TubeAssembly, extra_loss_db: float = 0.0) -> float:
    """Attenuation factor h from the source to the transducer inlet.

    h combines inverse-distance spreading relative to the SPL reference
    distance, the tube's per-meter loss (flat in frequency, higher for
    narrow bores), the pickup gasket's insertion loss when one is fitted,
    and extra_loss_db of any added barrier such as a damped enclosure.  It
    is at most ref_distance/position_distance, so h <= 1 whenever the port
    is at or beyond the reference distance.
    """
    if extra_loss_db < 0.0:
        raise ValueError(f"extra path loss must be >= 0 dB, got {extra_loss_db}")
    spread = source.ref_distance_m / source.position_distance_m
    per_m = TUBE_LOSS_DB_PER_M * (REFERENCE_TUBE_ID_M / tube.inner_diameter_m)
    pickup_loss_db = PICKUP_LOSS_DB if tube.pickup_device else 0.0
    loss_db = per_m * tube.length_m + (pickup_loss_db + extra_loss_db)
    return spread * 10.0 ** (-loss_db / 20.0)
