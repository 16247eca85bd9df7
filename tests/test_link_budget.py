"""The columnar link budget against the scalar per-pair oracle, bit for bit.

`engine._link_budget` computes each transmitter's row of received powers
in whole-array passes; `reference_placement.link_budget` computes each
(UE, transmitter) pair with Python floats and `math`.  The two must give
the same bytes, and `radio.select_serving` must pick the rows that
`reference_engine.attach` picks.  Besides seeded random geometry, the
corners are where a columnar rewrite drifts: UEs exactly at the LOS
breakpoint, LOS exponents that overflow, bearings of exactly +-180
degrees, squares where x * x differs from x ** 2, no UEs, no beams and
tied rows.
"""

import math
import warnings
from dataclasses import replace

import numpy as np

from cdss_sim.band import build_band_plan
from cdss_sim.domains import DOMAINS
from cdss_sim.engine import ByteFactors, _link_budget
from cdss_sim.radio import (
    NtnBeam, RadioParams, TnCell, Ue, distance_m, los_state, select_serving,
)
from cdss_sim.scenario import CASES, SimClock, build_topology, default_scenario, validate_scenario

import reference_placement
from reference_engine import attach

PARAMS = RadioParams()
ORIGIN = TnCell(0, (0.0, 0.0), 0.0)


def assert_bit_exact(cells, beams, ues, radio_p, seed=1) -> np.ndarray:
    got = _link_budget(cells, beams, ues, radio_p, seed)
    want = reference_placement.link_budget(cells, beams, ues, radio_p, seed)
    assert got.shape == want.shape == (len(cells) + len(beams), len(ues))
    assert got.tobytes() == want.tobytes()
    # a copy of the rows below them ties every column with a later row
    for rx in (got, np.vstack((got, got)), np.vstack((got, got[::-1]))):
        assert select_serving(rx, radio_p.min_rsrp_dbm) == attach(rx, radio_p.min_rsrp_dbm)
    return got


def ues_at(points):
    return [Ue(i, (float(x), float(y)), "tn") for i, (x, y) in enumerate(points)]


# Ranges for the [radio] fields of the random draws.
RANDOM_RADIO = {"freq_ghz": (0.1, 100.0), "tn_tx_power_dbm": (-10.0, 50.0),
                "tn_sector_width_deg": (1.0, 360.0), "tn_front_to_back_db": (0.0, 60.0),
                "nlos_offset_db": (0.0, 40.0), "los_d0_m": (-2000.0, 5000.0),
                "los_scale_m": (1.0, 1e4), "ntn_eirp_dbm": (40.0, 90.0),
                "sat_altitude_km": (100.0, 40_000.0), "elevation_deg": (10.0, 90.0),
                "beam_3db_radius_km": (1.0, 100.0)}


def random_radio(rng) -> RadioParams:
    return replace(PARAMS, **{name: float(rng.uniform(lo, hi))
                              for name, (lo, hi) in RANDOM_RADIO.items()})


def test_columnar_link_budget_matches_scalar_oracle_on_random_geometry():
    rng = np.random.default_rng(14)
    for draw in range(40):
        cells = [TnCell(i, tuple(rng.uniform(-20e3, 20e3, 2).tolist()),
                        float(rng.uniform(-400.0, 400.0)))
                 for i in range(int(rng.integers(1, 10)))]
        beams = [NtnBeam(i, tuple(rng.uniform(-100e3, 100e3, 2).tolist()), 0,
                         float(rng.uniform(1.0, 300.0)))
                 for i in range(int(rng.integers(0, 5)))]
        ues = ues_at(rng.uniform(-40e3, 40e3, (int(rng.integers(0, 60)), 2)).tolist())
        assert_bit_exact(cells, beams, ues, PARAMS if draw % 4 == 0 else random_radio(rng),
                         seed=draw)
    cfg = default_scenario()
    for seed in (1, 2, 3):
        for case_id in (3, 4):
            topo = build_topology(cfg, CASES[case_id], seed)
            assert_bit_exact(topo.cells, topo.beams, topo.ues, cfg.radio, seed)


def squares_that_round_apart(rng, count, ratio):
    """`count` seeded random points whose `ratio(point)`, the quantity the
    link budget squares, has x * x != x ** 2."""
    found = []
    while len(found) < count:
        for point in rng.uniform(-3000.0, 3000.0, (50_000, 2)).tolist():
            x = ratio(point)
            if x * x != x ** 2 and len(found) < count:
                found.append(point)
    return found


def test_columnar_link_budget_matches_scalar_oracle_at_corners():
    d0 = PARAMS.los_d0_m
    cells = [ORIGIN, TnCell(1, (0.0, 0.0), 180.0), TnCell(2, (0.0, 0.0), -180.0),
             TnCell(3, (350.0, -900.0), 77.5)]
    beams = [NtnBeam(0, (0.0, 0.0), 0, 53.0), NtnBeam(1, (-2500.0, 1200.0), 1, 53.0)]
    # exactly at the LOS breakpoint, on and off the axes
    at_d0 = [(d0, 0.0), (0.0, -d0), (0.6 * d0, 0.8 * d0), (-0.8 * d0, 0.6 * d0)]
    assert [math.hypot(x, y) for x, y in at_d0] == [d0] * 4
    # bearings of exactly +180 and -180 degrees from the sites at the origin
    behind = [(-1000.0, 0.0), (-1000.0, -0.0)]
    assert [math.degrees(math.atan2(y - 0.0, x - 0.0)) for x, y in behind] == [180.0, -180.0]
    ues = ues_at(at_d0 + behind + [(123.0, 456.0), (-5000.0, 2500.0)])
    assert_bit_exact(cells, beams, ues, PARAMS)
    # every pair beyond d0, with (d - d0) / scale overflowing to inf, so
    # P(LOS) = exp(-inf) = 0; then every pair inside a d0 so far out that
    # exp((d0 - d) / scale) would overflow, where P(LOS) = 1 needs no exp
    for d0_m, scale_m in ((-1e308, 5e-324), (1e6, 1.0)):
        assert_bit_exact(cells, beams, ues, replace(PARAMS, los_d0_m=d0_m, los_scale_m=scale_m))
    # squares where x * x and x ** 2 round apart: the sector pattern's
    # offset over the width, and the beam's ground offset over its radius
    rng = np.random.default_rng(2026)
    width, radius = PARAMS.tn_sector_width_deg, PARAMS.beam_3db_radius_km
    sector = squares_that_round_apart(
        rng, 200, lambda p: ((math.degrees(math.atan2(p[1], p[0])) + 180.0) % 360.0 - 180.0)
        / width)
    offbore = squares_that_round_apart(rng, 200, lambda p: math.hypot(p[0], p[1]) / 1e3 / radius)
    assert_bit_exact([ORIGIN], beams[:1], ues_at(sector + offbore), PARAMS)
    # no UEs; TN only, without beams; co-sited identical cells and
    # co-centred identical beams, whose rows tie in every column once every
    # pair is LOS
    assert_bit_exact(cells, beams, [], PARAMS)
    assert_bit_exact(cells, [], ues, PARAMS)
    twins = assert_bit_exact([cells[3], cells[3]], [beams[1], beams[1]], ues,
                             replace(PARAMS, los_d0_m=1e6))
    assert (twins[0] == twins[1]).all() and (twins[2] == twins[3]).all()


def test_los_state_pins_the_oracles_los_probability():
    # A draw equal to P(LOS) is NLOS and the next float below it is LOS, so
    # both sets of decisions come out right only where P(LOS) has the
    # oracle's bits.  A last-bit change in P(LOS) rarely flips one of the
    # seeded draws, so the powers alone cannot show it.  The six cells
    # stand two to a site, in turn, so each gathers its own site's row.
    rng = np.random.default_rng(7)
    at = [tuple(rng.uniform(-5e3, 5e3, 2).tolist()) for _ in range(3)]
    cells = [TnCell(i, at[i % 3], 0.0) for i in range(6)]
    ue_xy = rng.uniform(-20e3, 20e3, (300, 2)).tolist()
    site_of = [0, 1, 2, 0, 1, 2]
    d_m = distance_m(ue_xy, at)
    for d0_m, scale_m in ((700.0, 2500.0), (3000.0, 50.0), (-1e308, 5e-324), (1e6, 1.0)):
        p = np.array([[reference_placement.los_probability(
            reference_placement.distance_m(xy, cell.site_xy), d0_m, scale_m) for xy in ue_xy]
            for cell in cells])
        assert not los_state(d_m, site_of, p, d0_m, scale_m).any()
        assert los_state(d_m, site_of, np.nextafter(p, -1.0), d0_m, scale_m).all()


# The [radio] fields `engine._link_budget` reads; the rest (noise figure,
# SE limits, minimum RSRP) are read after it.
LINK_BUDGET_FIELDS = ("freq_ghz", "tn_tx_power_dbm", "tn_antenna_gain_dbi", "tn_sector_width_deg",
                      "tn_front_to_back_db", "nlos_offset_db", "los_d0_m", "los_scale_m",
                      "ntn_eirp_dbm", "sat_altitude_km", "elevation_deg", "beam_3db_radius_km")


def domain_edges(row):
    """A row's two edges as values inside it: the smallest positive float
    for an open 0 edge, +-1e308 for an infinite one."""
    lo, hi, *lo_open = row
    if lo_open:
        lo = math.nextafter(lo, math.inf)
    return [max(lo, -1e308), min(hi, 1e308)]


def test_link_budget_domain_edges_match_oracle_silently_and_stay_finite():
    base = default_scenario()
    band = base.band
    plan = build_band_plan(band.total_rbs, band.num_groups, band.coordinated,
                           band.rb_bandwidth_hz)
    epoch_s = SimClock.from_config(base).epoch_s
    probed = 0
    for name in LINK_BUDGET_FIELDS:
        for edge in domain_edges(DOMAINS[("radio", name)]):
            cfg = replace(base, radio=replace(base.radio, **{name: edge}))
            validate_scenario(cfg)
            topo = build_topology(cfg, CASES[2], 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rx = assert_bit_exact(topo.cells, topo.beams, topo.ues, cfg.radio)
                factors = ByteFactors(plan, rx, select_serving(rx, cfg.radio.min_rsrp_dbm),
                                      topo.beams, cfg.radio, epoch_s)
                factors.refresh([1.0] * rx.shape[0])
            assert np.isfinite(factors.rows).all(), (name, edge)
            probed += 1
    assert probed == 2 * len(LINK_BUDGET_FIELDS)
