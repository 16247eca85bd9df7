import math
import random
from dataclasses import replace

import numpy as np
import pytest

from cdss_sim.band import build_band_plan
from cdss_sim.engine import ByteFactors
from cdss_sim.radio import (
    NtnBeam,
    RadioParams,
    TnCell,
    distance_m,
    fspl_db,
    los_state,
    ntn_rx_power,
    select_serving,
    slant_range_km,
    spectral_efficiency_array,
    thermal_noise_dbm,
    tn_pathloss,
    tn_rx_power,
)

PARAMS = RadioParams()
ZENITH = replace(PARAMS, elevation_deg=90.0)
NLOS_DB = PARAMS.nlos_offset_db
LOS_MODEL = (PARAMS.los_d0_m, PARAMS.los_scale_m)
SE_LIMITS = (PARAMS.se_cap_bps_hz, PARAMS.se_min_bps_hz)
ORIGIN = TnCell(0, (0.0, 0.0), 0.0)


def make_beam(center=(0.0, 0.0), nominal_rbs=1.0):
    return NtnBeam(0, center, 0, nominal_rbs)


def tn_rx(ue_xy, cells, los=True, params=PARAMS):
    """Rows of per-RB rx powers, one per cell, every pair LOS or every NLOS."""
    index = {}          # site -> row
    site_of = [index.setdefault(cell.site_xy, len(index)) for cell in cells]
    sites = list(index)
    d_m = distance_m(ue_xy, sites)
    los = np.full((len(cells), d_m.shape[1]), los)
    return tn_rx_power(ue_xy, cells, sites, site_of, d_m, los, params)


def pathloss(d, los):
    """`tn_pathloss` at 2 GHz of distances `d`, each a site of its own."""
    return tn_pathloss(d, range(len(d)), los, 2.0, NLOS_DB)


def test_tn_pathloss_free_space_reference():
    assert pathloss(np.array([1000.0]), True)[0] == pytest.approx(98.47, abs=0.01)


def test_tn_pathloss_doubling_distance_adds_6db():
    d1, d2 = pathloss(np.array([1000.0, 2000.0]), True)
    assert d2 - d1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_tn_pathloss_nlos_offset():
    los, nlos = pathloss(np.array([1000.0, 1000.0]), np.array([True, False]))
    assert nlos == pytest.approx(118.47, abs=0.01)
    assert nlos == los + NLOS_DB


def test_tn_pathloss_rejects_zero_distance():
    with pytest.raises(ValueError):
        pathloss(np.array([500.0, 0.0]), True)


def test_tn_pathloss_strictly_increasing_in_distance():
    d = np.random.default_rng(3).uniform(1.0, 50_000.0, size=50)
    assert (pathloss(d * 1.01, False) > pathloss(d, False)).all()


def test_los_probability_thresholds():
    # P(LOS) = 1 inside d0 and at d0 itself, and exactly exp(-1) one scale
    # beyond: a pair is LOS for the float just below P(LOS), NLOS at it
    p = [1.0, 1.0, math.exp(-1.0)]
    ue_xy = [(500.0, 0.0), (700.0, 0.0), (3200.0, 0.0)]
    d_m = distance_m(ue_xy, [ORIGIN.site_xy])
    below = np.array([[math.nextafter(x, 0.0) for x in p]])
    assert los_state(d_m, [0], below, *LOS_MODEL).tolist() == [[True] * 3]
    assert los_state(d_m, [0], np.array([p]), *LOS_MODEL).tolist() == [[False] * 3]


def test_los_state_uses_draw_against_probability():
    ue_xy = [(300.0, 0.0), (3200.0, 0.0), (3200.0, 0.0)]
    draws = np.array([[0.999999, 0.3, 0.5]])           # 0.3 < exp(-1) < 0.5
    d_m = distance_m(ue_xy, [ORIGIN.site_xy])
    assert los_state(d_m, [0], draws, *LOS_MODEL).tolist() == [[True, True, False]]


def test_ntn_fspl_reference_at_zenith():
    assert fspl_db(600.0, 2.0) == pytest.approx(154.03, abs=0.01)
    rx = ntn_rx_power([(0.0, 0.0)], [make_beam()], ZENITH)
    assert rx.shape == (1, 1)
    assert rx[0, 0] == pytest.approx(74.0 - 154.03, abs=0.01)


def test_ntn_offbore_exactly_3db_at_beam_radius():
    (center, edge), = ntn_rx_power([(0.0, 0.0), (25_000.0, 0.0)], [make_beam()], ZENITH)
    assert center - edge == pytest.approx(3.0, abs=1e-9)


def test_ntn_offbore_monotone_down_to_30db_cap():
    ue_xy = [(r * 1e3, 0.0) for r in range(0, 100, 5)] + [(500_000.0, 0.0)]
    row = ntn_rx_power(ue_xy, [make_beam()], ZENITH)[0]
    losses = (row[0] - row).tolist()
    assert losses[0] == 0.0
    assert losses == sorted(losses)
    assert losses[-1] == pytest.approx(30.0, abs=1e-9)


def test_ntn_eirp_normalized_per_rb():
    narrow, wide = ntn_rx_power([(0.0, 0.0)], [make_beam(nominal_rbs=1.0),
                                               make_beam(nominal_rbs=100.0)], ZENITH)
    assert narrow[0] - wide[0] == pytest.approx(20.0)


def test_slant_range():
    assert slant_range_km(600.0, 90.0) == pytest.approx(600.0)
    assert slant_range_km(600.0, 30.0) == pytest.approx(1200.0)
    with pytest.raises(ValueError):
        slant_range_km(600.0, 0.0)


def test_sector_loss_pattern():
    # UEs 1 km from the site at bearings 0, 35, 180 and -35 degrees; the
    # second cell's azimuth is a turn back, so every offset is 360 more
    bearings = [0.0, 35.0, 180.0, -35.0]
    ue_xy = [(1000.0 * math.cos(math.radians(b)), 1000.0 * math.sin(math.radians(b)))
             for b in bearings]
    ahead, turned = tn_rx(ue_xy, [ORIGIN, TnCell(1, (0.0, 0.0), -360.0)])
    loss = (ahead[0] - ahead).tolist()
    assert loss[0] == 0.0
    assert loss[1] == pytest.approx(3.0)
    assert loss[2] == pytest.approx(PARAMS.tn_front_to_back_db)     # the front-to-back cap
    assert loss[3] == pytest.approx(loss[1])
    assert turned.tolist() == pytest.approx(ahead.tolist())


def test_thermal_noise_per_rb():
    noise = thermal_noise_dbm(180_000.0, 7.0)
    assert noise == pytest.approx(-174.0 + 10.0 * math.log10(180_000.0) + 7.0)


NOISE_DBM = thermal_noise_dbm(180_000.0, PARAMS.noise_figure_db)


def engine_sinr(signal_dbm, interferers):
    """Linear SINR that the engine's byte-factor stage gives a UE served by
    cell 0 at `signal_dbm`, with the other cells' (rx dBm, activity) pairs
    as interferers; read back from one RB's bytes through the Shannon SE."""
    plan = build_band_plan(1, 1, [True])
    rx_dbm = np.array([[signal_dbm]] + [[power] for power, _ in interferers])
    factors = ByteFactors(plan, rx_dbm, [0], [], PARAMS, 1.0)
    factors.refresh([1.0] + [activity for _, activity in interferers])
    se = factors.rows[0][0] / (plan.rb_bandwidth_hz / 8.0)
    assert PARAMS.se_min_bps_hz < se < PARAMS.se_cap_bps_hz  # neither floored nor capped
    return 2.0 ** se - 1.0


def test_sinr_without_interference_is_snr():
    assert engine_sinr(NOISE_DBM + 10.0, []) == pytest.approx(10.0)
    assert engine_sinr(NOISE_DBM + 10.0, [(NOISE_DBM + 5.0, 0.0)]) == pytest.approx(10.0)


def test_sinr_interferer_equal_to_noise_halves_snr():
    snr = engine_sinr(NOISE_DBM + 10.0, [])
    degraded = engine_sinr(NOISE_DBM + 10.0, [(NOISE_DBM, 1.0)])
    assert degraded == pytest.approx(snr / 2.0)


def test_sinr_activity_scales_interference():
    full = engine_sinr(NOISE_DBM + 10.0, [(NOISE_DBM + 5.0, 1.0)])
    half = engine_sinr(NOISE_DBM + 10.0, [(NOISE_DBM + 5.0, 0.5)])
    assert half > full
    assert half == pytest.approx(10.0 / (1.0 + 0.5 * 10.0 ** 0.5))


def test_sinr_never_exceeds_snr():
    rng = random.Random(5)
    for _ in range(50):
        s = NOISE_DBM + rng.uniform(0.0, 20.0)
        interferers = [(NOISE_DBM + rng.uniform(-20.0, 5.0), rng.uniform(0, 1)) for _ in range(4)]
        assert engine_sinr(s, interferers) <= engine_sinr(s, [])


def test_spectral_efficiency_examples():
    se = spectral_efficiency_array(np.array([1.0, 1000.0, 0.03, 0.0]), *SE_LIMITS)
    assert se.tolist() == pytest.approx([1.0, 7.4, 0.0, 0.0])


def test_select_serving_dominant_proximity():
    cells = [
        TnCell(0, (0.0, 0.0), 0.0),
        TnCell(1, (5000.0, 0.0), 180.0),
    ]
    assert select_serving(tn_rx([(200.0, 0.0), (4800.0, 0.0)], cells),
                          PARAMS.min_rsrp_dbm) == [0, 1]


def test_select_serving_remote_beam_wins():
    cells = [TnCell(i, (0.0, 0.0), i * 120.0) for i in range(3)]
    beam = NtnBeam(2, (70_000.0, 0.0), 2, 160.0 / 3.0)
    ue_xy = [(70_000.0, 0.0)]
    rx = np.vstack((tn_rx(ue_xy, cells, los=False), ntn_rx_power(ue_xy, [beam], PARAMS)))
    assert select_serving(rx, PARAMS.min_rsrp_dbm) == [3]


def test_select_serving_tie_breaks_to_lower_id():
    # two co-sited identical cells: the lower row wins
    rx = tn_rx([(1000.0, 0.0)], [ORIGIN, ORIGIN])
    assert rx[0, 0] == rx[1, 0]
    assert select_serving(rx, PARAMS.min_rsrp_dbm) == [0]
    # per column: rows 0-1 are cells, row 2 a beam as strong as cell 1 (the
    # cell wins) or as cell 0 (cell 0 wins); the last column is unserved
    p = rx[0, 0]
    rx = np.array([[p - 1.0, p, p - 1.0, PARAMS.min_rsrp_dbm - 1.0],
                   [p, p - 1.0, p - 2.0, -np.inf],
                   [p, p, p - 3.0, PARAMS.min_rsrp_dbm - 1.0]])
    assert select_serving(rx, PARAMS.min_rsrp_dbm) == [1, 0, 0, None]


def test_select_serving_below_threshold_unserved():
    served_and_not = tn_rx([(1000.0, 0.0), (300_000.0, 0.0)], [ORIGIN], los=False)
    assert select_serving(served_and_not, PARAMS.min_rsrp_dbm) == [0, None]


def test_select_serving_no_ues():
    assert select_serving(np.zeros((3, 0)), PARAMS.min_rsrp_dbm) == []


def test_tn_rx_power_composition():
    rx = tn_rx([(1000.0, 0.0)], [ORIGIN])
    loss = pathloss(np.array([1000.0]), True)
    assert rx.shape == (1, 1)
    assert rx[0, 0] == pytest.approx(18.0 + 14.0 - loss[0])
