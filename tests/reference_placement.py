"""Naive reference for the seeded draws of a run and its link budget.

Draws every random number with its own scalar `Generator.uniform` call,
one value at a time, in the order the simulator has always used: per TN
cell, rejection-sampled (dx, dy) pairs inside the cell's hexagon wedge;
per beam, a radius and an angle in its disc; then one LOS value per
(UE, cell) pair, UE-major.  Each received power comes from the scalar
per-pair chain below, one Python float operation at a time.  The
production code takes the same values from blocks and computes the powers
a whole row at a time, so its UE coordinates and received powers must
equal these exactly.  Deliberately naive, and sharing no code with
`cdss_sim.radio`, so it cannot share a bug with the block draws or the
columnar link budget.
"""

import math
from typing import List, Sequence, Tuple

import numpy as np

from cdss_sim.radio import Ue
from cdss_sim.scenario import derive_seed


def _in_hexagon(dx: float, dy: float, circumradius: float) -> bool:
    # Flat-top hexagon with a vertex on the +x axis; edge normals at
    # 30/90/150 degrees, apothem sqrt(3)/2 * R.
    apothem = math.sqrt(3.0) / 2.0 * circumradius
    for ang in (30.0, 90.0, 150.0):
        r = math.radians(ang)
        if abs(dx * math.cos(r) + dy * math.sin(r)) > apothem:
            return False
    return True


def _wrap_deg(a: float) -> float:
    return (a + 180.0) % 360.0 - 180.0


def _sample_in_sector(rng, site, azimuth_deg, hex_radius_m, wedge_deg) -> Tuple[float, float]:
    while True:
        dx = rng.uniform(-hex_radius_m, hex_radius_m)
        dy = rng.uniform(-hex_radius_m, hex_radius_m)
        if not _in_hexagon(dx, dy, hex_radius_m):
            continue
        if math.hypot(dx, dy) < 1.0:
            continue
        bearing = math.degrees(math.atan2(dy, dx))
        if abs(_wrap_deg(bearing - azimuth_deg)) <= wedge_deg / 2.0:
            return (site[0] + dx, site[1] + dy)


def _sample_in_disc(rng, center, radius_m) -> Tuple[float, float]:
    r = radius_m * math.sqrt(rng.uniform(0.0, 1.0))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (center[0] + r * math.cos(theta), center[1] + r * math.sin(theta))


def place_ues(cfg, cells: Sequence, seed: int) -> List[Ue]:
    """The UEs of `build_topology(cfg, case, seed)`, in id order, for the
    topology's `cells` (sorted by id)."""
    topo, radio = cfg.topology, cfg.radio
    rng = np.random.default_rng(derive_seed(seed, "ue-placement"))
    hex_radius = topo.isd_m / math.sqrt(3.0)
    wedge = 360.0 / topo.sectors_per_site
    ues: List[Ue] = []
    for cell in cells:
        for _ in range(topo.ues_per_tn_cell):
            xy = _sample_in_sector(rng, cell.site_xy, cell.azimuth_deg, hex_radius, wedge)
            ues.append(Ue(len(ues), xy, "tn"))
    for center in topo.beam_centers_m:
        for _ in range(topo.ues_per_beam):
            ues.append(Ue(len(ues), _sample_in_disc(rng, center, radio.beam_3db_radius_km * 1e3),
                          "ntn"))
    return ues


def distance_m(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def fspl_db(distance_km: float, freq_ghz: float) -> float:
    """Free-space loss, 32.45 + 20 log10(f_MHz) + 20 log10(d_km)."""
    if distance_km <= 0:
        raise ValueError(f"distance must be positive, got {distance_km} km")
    return 32.45 + 20.0 * math.log10(freq_ghz * 1e3) + 20.0 * math.log10(distance_km)


def tn_pathloss(distance_m_: float, los: bool, freq_ghz: float, nlos_offset_db: float) -> float:
    """Terrestrial path loss: free space when LOS, plus a flat NLOS penalty."""
    if distance_m_ <= 0:
        raise ValueError(f"distance must be positive, got {distance_m_} m")
    loss = fspl_db(distance_m_ / 1e3, freq_ghz)
    return loss if los else loss + nlos_offset_db


def los_probability(distance_m_: float, d0_m: float, scale_m: float) -> float:
    """P(LOS) = 1 inside d0, exp(-(d - d0)/scale) beyond it."""
    if distance_m_ <= d0_m:
        return 1.0
    return min(1.0, math.exp(-(distance_m_ - d0_m) / scale_m))


def sector_loss_db(azimuth_offset_deg: float, width_deg: float, front_to_back_db: float) -> float:
    """Parabolic azimuth pattern, capped at the front-to-back ratio."""
    a = (azimuth_offset_deg + 180.0) % 360.0 - 180.0
    return min(12.0 * (a / width_deg) ** 2, front_to_back_db)


def tn_rx_power(ue, cell, los: bool, params) -> float:
    """Per-RB received power from one TN sector, dBm."""
    d = distance_m(ue.xy, cell.site_xy)
    bearing = math.degrees(math.atan2(ue.xy[1] - cell.site_xy[1], ue.xy[0] - cell.site_xy[0]))
    pattern = sector_loss_db(
        bearing - cell.azimuth_deg, params.tn_sector_width_deg, params.tn_front_to_back_db
    )
    loss = tn_pathloss(d, los, params.freq_ghz, params.nlos_offset_db)
    return params.tn_tx_power_dbm + params.tn_antenna_gain_dbi - pattern - loss


def slant_range_km(altitude_km: float, elevation_deg: float) -> float:
    if not (0.0 < elevation_deg <= 90.0):
        raise ValueError(f"elevation must be in (0, 90], got {elevation_deg}")
    return altitude_km / math.sin(math.radians(elevation_deg))


def beam_offbore_loss_db(ground_offset_km: float, radius_3db_km: float) -> float:
    """Quadratic beam roll-off: exactly 3 dB at the 3 dB radius, 30 dB floor."""
    return min(3.0 * (ground_offset_km / radius_3db_km) ** 2, 30.0)


def ntn_rx_power(ue, beam, params) -> float:
    """Per-RB received power from one satellite beam, dBm."""
    r_km = distance_m(ue.xy, beam.center_xy) / 1e3
    slant = slant_range_km(params.sat_altitude_km, params.elevation_deg)
    eirp_per_rb = params.ntn_eirp_dbm - 10.0 * math.log10(beam.nominal_rbs)
    return (
        eirp_per_rb
        - fspl_db(slant, params.freq_ghz)
        - beam_offbore_loss_db(r_km, params.beam_3db_radius_km)
    )


def link_budget(cells, beams, ues, radio_p, seed: int) -> np.ndarray:
    """`engine._link_budget` pair by pair, with one scalar LOS draw per
    (UE, cell) pair."""
    rng_los = np.random.default_rng(derive_seed(seed, "los"))
    rx_dbm = np.full((len(cells) + len(beams), len(ues)), -np.inf)
    for ui, ue in enumerate(ues):
        for ti, cell in enumerate(cells):
            draw = float(rng_los.uniform(0.0, 1.0))
            d = distance_m(ue.xy, cell.site_xy)
            is_los = draw < los_probability(d, radio_p.los_d0_m, radio_p.los_scale_m)
            rx_dbm[ti, ui] = tn_rx_power(ue, cell, is_los, radio_p)
        for bi, beam in enumerate(beams):
            rx_dbm[len(cells) + bi, ui] = ntn_rx_power(ue, beam, radio_p)
    return rx_dbm
