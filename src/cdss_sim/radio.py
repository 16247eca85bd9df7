"""Simplified downlink radio abstraction.

Free-space path loss plus a flat NLOS penalty stands in for full channel
models; LOS is a distance-dependent coin flipped once per (UE, cell) pair
since everything is stationary.  Beams use a quadratic off-boresight roll
with a 30 dB floor, TN sectors a parabolic azimuth pattern.  All powers
are per resource block.

The link budget is columnar (a row per transmitter, a column per UE) with
the bits of the scalar per-pair oracle in `tests/reference_placement.py`:
transcendentals and squares go through `math`, numpy does the arithmetic.
The sectors of a site share its distance, bearing, P(LOS) and free-space
loss to a UE: those run per (site, UE) pair, and each cell gathers its site's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class RadioParams:
    """Link-model constants; every value is scenario-overridable, and this
    is their only home: the link budget reads them from here."""

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


class TnCell(NamedTuple):
    cell_id: int
    site_xy: Tuple[float, float]         # metres, planar
    azimuth_deg: float


class NtnBeam(NamedTuple):
    beam_id: int
    center_xy: Tuple[float, float]       # metres, planar
    group_index: int
    nominal_rbs: float                   # RBs spanned by the EIRP reference


class Ue(NamedTuple):
    ue_id: int
    xy: Tuple[float, float]
    kind: str                            # "tn" or "ntn" placement area


def _each(f, *arrays: np.ndarray) -> np.ndarray:
    """The `math` function `f` applied element by element over arrays of
    one shape.  numpy's own hypot, arctan2, exp and log10 differ from
    `math`'s in the last bit on some inputs; `f` keeps every bit of the
    scalar model."""
    values = map(f, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)


def _capped_square(scale: float, x: np.ndarray, cap: float) -> np.ndarray:
    """min(scale * x ** 2, cap) element by element, squared by `math.pow` (numpy's
    x * x differs in the last bit) only where `scale * x * x` is not clearly above `cap`."""
    flat = x.ravel()
    below = np.flatnonzero(scale * (flat * flat) * (1.0 - 1e-9) <= cap)
    square = scale * np.fromiter(map(math.pow, flat[below].tolist(), repeat(2.0)), float)
    out = np.full(x.shape, cap, dtype=float)
    out.flat[below] = np.where(cap < square, cap, square)
    return out


def offsets(ue_xy, origins) -> Tuple[np.ndarray, np.ndarray]:
    """x and y offsets from each origin (rows) to each UE (columns), metres."""
    ue = np.asarray(ue_xy, dtype=float).reshape(-1, 2)
    at = np.asarray(origins, dtype=float).reshape(-1, 2)
    return ue[:, 0] - at[:, :1], ue[:, 1] - at[:, 1:]


def distance_m(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Planar length of each (dx, dy) offset, metres."""
    return _each(math.hypot, dx, dy)


def fspl_db(distance_km, freq_ghz: float) -> np.ndarray:
    """Free-space loss, 32.45 + 20 log10(f_MHz) + 20 log10(d_km), element-wise."""
    distance_km = np.asarray(distance_km, dtype=float)
    bad = distance_km[distance_km <= 0]
    if bad.size:
        raise ValueError(f"distance must be positive, got {bad[0]} km")
    return 32.45 + 20.0 * math.log10(freq_ghz * 1e3) + 20.0 * _each(math.log10, distance_km)


def tn_pathloss(d_m: np.ndarray, site_of, los: np.ndarray, freq_ghz: float,
                nlos_offset_db: float) -> np.ndarray:
    """Terrestrial path loss of each (cell, UE) pair of `los`: free space at
    its site's distances (row `site_of[cell]` of `d_m`), plus a flat NLOS penalty."""
    loss = fspl_db(d_m / 1e3, freq_ghz)[site_of]
    return np.where(los, loss, loss + nlos_offset_db)


def los_state(d_m: np.ndarray, site_of, draws, d0_m: float, scale_m: float) -> np.ndarray:
    """One-shot LOS decisions for the stationary (cell, UE) pairs, rows
    cells and columns UEs as in `draws`, at the distances `d_m` of each
    cell's site (row `site_of[cell]`): a pair is LOS when its draw is below
    P(LOS) = 1 inside d0, exp(-(d - d0)/scale) beyond it."""
    p = np.ones_like(d_m)
    beyond = d_m > d0_m         # exp only here: inside d0 it can overflow
    with np.errstate(over="ignore"):        # as silent as float division
        p[beyond] = np.minimum(1.0, _each(math.exp, -(d_m[beyond] - d0_m) / scale_m))
    return draws < p[site_of]


def tn_rx_power(cells, site_of, dx, dy, d_m, los, params: RadioParams) -> np.ndarray:
    """Per-RB received power from each TN sector (rows) at each UE
    (columns), dBm, from the offsets `dx`, `dy` and distances `d_m` of
    their sites (cell i at row `site_of[i]`).  The sector pattern is
    parabolic in azimuth, capped at the front-to-back ratio."""
    bearing = _each(math.atan2, dy, dx) * (180.0 / math.pi)    # as math.degrees computes it
    azimuth = np.array([cell.azimuth_deg for cell in cells], dtype=float)[:, None]
    a = (bearing[site_of] - azimuth + 180.0) % 360.0 - 180.0
    pattern = _capped_square(12.0, a / params.tn_sector_width_deg, params.tn_front_to_back_db)
    loss = tn_pathloss(d_m, site_of, los, params.freq_ghz, params.nlos_offset_db)
    return params.tn_tx_power_dbm + params.tn_antenna_gain_dbi - pattern - loss


def slant_range_km(altitude_km: float, elevation_deg: float) -> float:
    if not (0.0 < elevation_deg <= 90.0):
        raise ValueError(f"elevation must be in (0, 90], got {elevation_deg}")
    return altitude_km / math.sin(math.radians(elevation_deg))


def ntn_rx_power(ue_xy, beams, params: RadioParams) -> np.ndarray:
    """Per-RB received power from each satellite beam (rows) at each UE
    (columns), dBm.  The beam rolls off quadratically off boresight:
    exactly 3 dB at the 3 dB radius, with a 30 dB floor."""
    r_km = distance_m(*offsets(ue_xy, [beam.center_xy for beam in beams])) / 1e3
    slant = slant_range_km(params.sat_altitude_km, params.elevation_deg)
    eirp_per_rb = np.array([params.ntn_eirp_dbm - 10.0 * math.log10(beam.nominal_rbs)
                            for beam in beams], dtype=float)[:, None]
    offbore = _capped_square(3.0, r_km / params.beam_3db_radius_km, 30.0)
    return eirp_per_rb - fspl_db(slant, params.freq_ghz) - offbore


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def spectral_efficiency_array(
    sinr_linear: np.ndarray, cap_bps_hz: float, min_bps_hz: float
) -> np.ndarray:
    """Capped Shannon efficiency, element-wise; below the service floor
    the UE gets 0."""
    se = np.log2(1.0 + sinr_linear)
    se[se < min_bps_hz] = 0.0
    return np.minimum(se, cap_bps_hz)


def select_serving(rx_dbm: np.ndarray, min_rsrp_dbm: float) -> List[Optional[int]]:
    """Attach each UE (column of `rx_dbm`) to its strongest per-RB
    transmitter (row).

    Gives the row index of the column's first maximum, so with rows
    ordered cells then beams, each by id, ties go to cells before beams
    and then to the lower id.  Gives None when every candidate is below
    the out-of-service power threshold (the UE is unserved; this happens
    in TN-only cases for UEs far from the sites).
    """
    served = (rx_dbm.max(axis=0) >= min_rsrp_dbm).tolist()
    return [row if ok else None for row, ok in zip(rx_dbm.argmax(axis=0).tolist(), served)]
