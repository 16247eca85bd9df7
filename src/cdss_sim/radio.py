"""Simplified downlink radio abstraction.

Free-space path loss plus a flat NLOS penalty stands in for full channel
models; LOS is a distance-dependent coin flipped once per (UE, cell) pair
since everything is stationary.  Beams use a quadratic off-boresight roll
with a 30 dB floor, TN sectors a parabolic azimuth pattern.  All powers
are per resource block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class RadioParams:
    """Link-model constants; every value is scenario-overridable."""

    freq_ghz: float = 2.0
    tn_tx_power_dbm: float = 18.0        # per RB at the sector input
    tn_antenna_gain_dbi: float = 14.0
    tn_sector_width_deg: float = 70.0    # full 3 dB beamwidth of the pattern
    tn_front_to_back_db: float = 25.0
    nlos_offset_db: float = 20.0
    los_d0_m: float = 700.0
    los_scale_m: float = 2500.0
    noise_figure_db: float = 13.0        # noise figure plus body/implementation losses
    se_cap_bps_hz: float = 7.4
    se_min_bps_hz: float = 0.05
    min_rsrp_dbm: float = -105.0
    ntn_eirp_dbm: float = 74.0           # over the nominal beam bandwidth
    sat_altitude_km: float = 600.0
    elevation_deg: float = 75.0
    beam_3db_radius_km: float = 25.0


@dataclass(frozen=True)
class TnCell:
    cell_id: int
    site_xy: Tuple[float, float]         # metres, planar
    azimuth_deg: float
    tx_power_dbm: float                  # per RB
    antenna_gain_dbi: float
    freq_ghz: float


@dataclass(frozen=True)
class NtnBeam:
    beam_id: int
    center_xy: Tuple[float, float]       # metres, planar
    group_index: int
    altitude_km: float
    elevation_deg: float
    eirp_dbm: float                      # over the nominal beam bandwidth
    beam_3db_radius_km: float
    freq_ghz: float
    nominal_rbs: float                   # RBs spanned by the EIRP reference


@dataclass
class Ue:
    ue_id: int
    xy: Tuple[float, float]
    kind: str                            # "tn" or "ntn" placement area
    antenna_gain_dbi: float = 0.0


def distance_m(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def fspl_db(distance_km: float, freq_ghz: float) -> float:
    """Free-space loss, 32.45 + 20 log10(f_MHz) + 20 log10(d_km)."""
    if distance_km <= 0:
        raise ValueError(f"distance must be positive, got {distance_km} km")
    return 32.45 + 20.0 * math.log10(freq_ghz * 1e3) + 20.0 * math.log10(distance_km)


def tn_pathloss(
    distance_m_: float, los: bool, freq_ghz: float, nlos_offset_db: float = 20.0
) -> float:
    """Terrestrial path loss: free space when LOS, plus a flat NLOS penalty."""
    if distance_m_ <= 0:
        raise ValueError(f"distance must be positive, got {distance_m_} m")
    loss = fspl_db(distance_m_ / 1e3, freq_ghz)
    return loss if los else loss + nlos_offset_db


def los_probability(
    distance_m_: float, d0_m: float = 700.0, scale_m: float = 2500.0
) -> float:
    """P(LOS) = 1 inside d0, exp(-(d - d0)/scale) beyond it."""
    if distance_m_ <= d0_m:
        return 1.0
    return min(1.0, math.exp(-(distance_m_ - d0_m) / scale_m))


def los_state(
    ue: Ue, cell: TnCell, rng_draw: float,
    d0_m: float = 700.0, scale_m: float = 2500.0,
) -> bool:
    """One-shot LOS decision for a stationary (UE, cell) pair."""
    return rng_draw < los_probability(distance_m(ue.xy, cell.site_xy), d0_m, scale_m)


def sector_loss_db(
    azimuth_offset_deg: float, width_deg: float = 70.0, front_to_back_db: float = 25.0
) -> float:
    """Parabolic azimuth pattern, capped at the front-to-back ratio."""
    a = (azimuth_offset_deg + 180.0) % 360.0 - 180.0
    return min(12.0 * (a / width_deg) ** 2, front_to_back_db)


def tn_rx_power(ue: Ue, cell: TnCell, los: bool, params: RadioParams) -> float:
    """Per-RB received power from one TN sector, dBm."""
    d = distance_m(ue.xy, cell.site_xy)
    bearing = math.degrees(math.atan2(ue.xy[1] - cell.site_xy[1], ue.xy[0] - cell.site_xy[0]))
    pattern = sector_loss_db(
        bearing - cell.azimuth_deg, params.tn_sector_width_deg, params.tn_front_to_back_db
    )
    loss = tn_pathloss(d, los, cell.freq_ghz, params.nlos_offset_db)
    return cell.tx_power_dbm + cell.antenna_gain_dbi - pattern - loss + ue.antenna_gain_dbi


def slant_range_km(altitude_km: float, elevation_deg: float) -> float:
    if not (0.0 < elevation_deg <= 90.0):
        raise ValueError(f"elevation must be in (0, 90], got {elevation_deg}")
    return altitude_km / math.sin(math.radians(elevation_deg))


def beam_offbore_loss_db(ground_offset_km: float, radius_3db_km: float) -> float:
    """Quadratic beam roll-off: exactly 3 dB at the 3 dB radius, 30 dB floor."""
    return min(3.0 * (ground_offset_km / radius_3db_km) ** 2, 30.0)


def ntn_rx_power(ue: Ue, beam: NtnBeam) -> float:
    """Per-RB received power from one satellite beam, dBm."""
    r_km = distance_m(ue.xy, beam.center_xy) / 1e3
    slant = slant_range_km(beam.altitude_km, beam.elevation_deg)
    eirp_per_rb = beam.eirp_dbm - 10.0 * math.log10(beam.nominal_rbs)
    return (
        eirp_per_rb
        - fspl_db(slant, beam.freq_ghz)
        - beam_offbore_loss_db(r_km, beam.beam_3db_radius_km)
        + ue.antenna_gain_dbi
    )


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def spectral_efficiency_array(
    sinr_linear: np.ndarray, cap_bps_hz: float = 7.4, min_bps_hz: float = 0.05
) -> np.ndarray:
    """Capped Shannon efficiency, element-wise; below the service floor
    the UE gets 0."""
    se = np.log2(1.0 + sinr_linear)
    se[se < min_bps_hz] = 0.0
    return np.minimum(se, cap_bps_hz)


def select_serving(rx_dbm: np.ndarray, min_rsrp_dbm: float) -> Optional[int]:
    """Attach to the strongest per-RB transmitter in one UE's rx column.

    Returns the row index of the first maximum, so with rows ordered cells
    then beams, each by id, ties go to cells before beams and then to the
    lower id.  Returns None when every candidate is below the
    out-of-service power threshold (the UE is unserved; this happens in
    TN-only cases for UEs far from the sites).
    """
    best = int(np.argmax(rx_dbm))
    return best if rx_dbm[best] >= min_rsrp_dbm else None
