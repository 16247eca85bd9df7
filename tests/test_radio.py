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
    Ue,
    beam_offbore_loss_db,
    fspl_db,
    los_probability,
    los_state,
    ntn_rx_power,
    sector_loss_db,
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
SECTOR = (PARAMS.tn_sector_width_deg, PARAMS.tn_front_to_back_db)
SE_LIMITS = (PARAMS.se_cap_bps_hz, PARAMS.se_min_bps_hz)


def make_beam(center=(0.0, 0.0), nominal_rbs=1.0):
    return NtnBeam(0, center, 0, nominal_rbs)


def test_tn_pathloss_free_space_reference():
    assert tn_pathloss(1000.0, True, 2.0, NLOS_DB) == pytest.approx(98.47, abs=0.01)


def test_tn_pathloss_doubling_distance_adds_6db():
    d1 = tn_pathloss(1000.0, True, 2.0, NLOS_DB)
    d2 = tn_pathloss(2000.0, True, 2.0, NLOS_DB)
    assert d2 - d1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_tn_pathloss_nlos_offset():
    assert tn_pathloss(1000.0, False, 2.0, NLOS_DB) == pytest.approx(118.47, abs=0.01)


def test_tn_pathloss_rejects_zero_distance():
    with pytest.raises(ValueError):
        tn_pathloss(0.0, True, 2.0, NLOS_DB)


def test_tn_pathloss_strictly_increasing_in_distance():
    rng = random.Random(3)
    for _ in range(50):
        d = rng.uniform(1.0, 50_000.0)
        assert tn_pathloss(d * 1.01, False, 2.0, NLOS_DB) > tn_pathloss(d, False, 2.0, NLOS_DB)


def test_los_probability_thresholds():
    assert los_probability(500.0, *LOS_MODEL) == 1.0
    assert los_probability(700.0, *LOS_MODEL) == 1.0
    assert los_probability(3200.0, *LOS_MODEL) == pytest.approx(math.exp(-1.0))


def test_los_state_uses_draw_against_probability():
    cell = TnCell(0, (0.0, 0.0), 0.0)
    near = Ue(0, (300.0, 0.0), "tn")
    far = Ue(1, (3200.0, 0.0), "tn")
    assert los_state(near, cell, 0.999999, *LOS_MODEL)          # P(LOS) = 1 inside d0
    assert los_state(far, cell, 0.3, *LOS_MODEL)                # 0.3 < exp(-1)
    assert not los_state(far, cell, 0.5, *LOS_MODEL)            # 0.5 > exp(-1)


def test_ntn_fspl_reference_at_zenith():
    assert fspl_db(600.0, 2.0) == pytest.approx(154.03, abs=0.01)
    beam = make_beam()
    ue = Ue(0, (0.0, 0.0), "ntn")
    assert ntn_rx_power(ue, beam, ZENITH) == pytest.approx(74.0 - 154.03, abs=0.01)


def test_ntn_offbore_exactly_3db_at_beam_radius():
    beam = make_beam()
    center = ntn_rx_power(Ue(0, (0.0, 0.0), "ntn"), beam, ZENITH)
    edge = ntn_rx_power(Ue(1, (25_000.0, 0.0), "ntn"), beam, ZENITH)
    assert center - edge == pytest.approx(3.0, abs=1e-9)


def test_ntn_offbore_monotone_down_to_30db_cap():
    losses = [beam_offbore_loss_db(r, 25.0) for r in range(0, 100, 5)]
    assert losses == sorted(losses)
    assert beam_offbore_loss_db(500.0, 25.0) == 30.0
    assert beam_offbore_loss_db(0.0, 25.0) == 0.0


def test_ntn_eirp_normalized_per_rb():
    ue = Ue(0, (0.0, 0.0), "ntn")
    wide = make_beam(nominal_rbs=100.0)
    narrow = make_beam(nominal_rbs=1.0)
    gain = ntn_rx_power(ue, narrow, ZENITH) - ntn_rx_power(ue, wide, ZENITH)
    assert gain == pytest.approx(20.0)


def test_slant_range():
    assert slant_range_km(600.0, 90.0) == pytest.approx(600.0)
    assert slant_range_km(600.0, 30.0) == pytest.approx(1200.0)
    with pytest.raises(ValueError):
        slant_range_km(600.0, 0.0)


def test_sector_loss_pattern():
    assert sector_loss_db(0.0, *SECTOR) == 0.0
    assert sector_loss_db(35.0, *SECTOR) == pytest.approx(3.0)
    assert sector_loss_db(180.0, *SECTOR) == 25.0
    assert sector_loss_db(-35.0, *SECTOR) == sector_loss_db(35.0, *SECTOR)
    assert sector_loss_db(360.0 + 35.0, *SECTOR) == pytest.approx(3.0)


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


def rx_column(ue, cells, beams=(), los=True):
    """Per-RB rx powers of one UE: cells then beams, as the engine orders them."""
    return np.array(
        [tn_rx_power(ue, cell, los, PARAMS) for cell in cells]
        + [ntn_rx_power(ue, beam, PARAMS) for beam in beams]
    )


def test_select_serving_dominant_proximity():
    cells = [
        TnCell(0, (0.0, 0.0), 0.0),
        TnCell(1, (5000.0, 0.0), 180.0),
    ]
    ue = Ue(0, (200.0, 0.0), "tn")
    assert select_serving(rx_column(ue, cells), PARAMS.min_rsrp_dbm) == 0


def test_select_serving_remote_beam_wins():
    cells = [TnCell(i, (0.0, 0.0), i * 120.0) for i in range(3)]
    beam = NtnBeam(2, (70_000.0, 0.0), 2, 160.0 / 3.0)
    ue = Ue(0, (70_000.0, 0.0), "ntn")
    column = rx_column(ue, cells, [beam], los=False)
    assert select_serving(column, PARAMS.min_rsrp_dbm) == 3


def test_select_serving_tie_breaks_to_lower_id():
    cell = TnCell(0, (0.0, 0.0), 0.0)
    ue = Ue(0, (1000.0, 0.0), "tn")
    rx = tn_rx_power(ue, cell, True, PARAMS)
    # two co-sited identical cells: the lower row wins
    assert select_serving(rx_column(ue, [cell, cell]), PARAMS.min_rsrp_dbm) == 0
    # rows 0-1 are cells, row 2 a beam as strong as cell 1: the cell wins
    assert select_serving(np.array([rx - 1.0, rx, rx]), PARAMS.min_rsrp_dbm) == 1


def test_select_serving_below_threshold_unserved():
    cells = [TnCell(0, (0.0, 0.0), 0.0)]
    ue = Ue(0, (300_000.0, 0.0), "tn")
    assert select_serving(rx_column(ue, cells, los=False), PARAMS.min_rsrp_dbm) is None


def test_tn_rx_power_composition():
    cell = TnCell(0, (0.0, 0.0), 0.0)
    ue = Ue(0, (1000.0, 0.0), "tn")
    rx = tn_rx_power(ue, cell, True, PARAMS)
    assert rx == pytest.approx(18.0 + 14.0 - tn_pathloss(1000.0, True, 2.0, NLOS_DB))
