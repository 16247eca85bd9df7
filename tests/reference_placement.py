"""Naive reference for the seeded draws of a run: UE placement and LOS.

Draws every random number with its own scalar `Generator.uniform` call,
one value at a time, in the order the simulator has always used: per TN
cell, rejection-sampled (dx, dy) pairs inside the cell's hexagon wedge;
per beam, a radius and an angle in its disc; then one LOS value per
(UE, cell) pair, UE-major.  The production code takes the same values from
blocks, so its UE coordinates and received powers must equal these
exactly.  Deliberately naive so it cannot share a bug with the block
draws.
"""

import math
from typing import List, Sequence, Tuple

import numpy as np

from cdss_sim.radio import Ue, los_state, ntn_rx_power, tn_rx_power
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


def link_budget(cells, beams, ues, radio_p, seed: int) -> np.ndarray:
    """`engine._link_budget` with one scalar LOS draw per (UE, cell) pair."""
    rng_los = np.random.default_rng(derive_seed(seed, "los"))
    rx_dbm = np.full((len(cells) + len(beams), len(ues)), -np.inf)
    for ui, ue in enumerate(ues):
        for ti, cell in enumerate(cells):
            draw = float(rng_los.uniform(0.0, 1.0))
            is_los = los_state(ue, cell, draw, radio_p.los_d0_m, radio_p.los_scale_m)
            rx_dbm[ti, ui] = tn_rx_power(ue, cell, is_los, radio_p)
        for bi, beam in enumerate(beams):
            rx_dbm[len(cells) + bi, ui] = ntn_rx_power(ue, beam)
    return rx_dbm
