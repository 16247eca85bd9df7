"""The domain of every numeric scenario field, and the one loop that checks it.

`DOMAINS` maps `(section, key)` of each int and float field, and of each
beam-centre coordinate, to a closed `(lo, hi)` or to `(lo, hi, OPEN)`, whose
lower edge is open.  Floats must also be finite; `(-INF, INF)` asks no more.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

INF = math.inf
OPEN = True

# The [radio] powers, gains and losses enter the link budget as 10^(x/10).
# Within +-MAX_ABS_DB each, they cannot push a linear power, an interference
# sum or an SINR out of float range.
MAX_ABS_DB = 300.0
RADIO_DB_FIELDS = ("tn_tx_power_dbm", "tn_antenna_gain_dbi", "tn_front_to_back_db",
                   "nlos_offset_db", "noise_figure_db", "min_rsrp_dbm", "ntn_eirp_dbm")

DOMAINS = {
    ("band", "total_rbs"): (1, INF),
    ("band", "num_groups"): (1, INF),
    # An RB from a 1 kHz narrowband channel to a whole 100 MHz carrier.  At
    # 1e-300 Hz the noise power underflows, the SINR overflows and an RB
    # carries about 1e-303 bytes.
    ("band", "rb_bandwidth_hz"): (1e3, 1e8),
    ("cdss", "lower_threshold"): (0.0, 1.0),
    ("cdss", "upper_threshold"): (0.0, 1.0),
    ("cdss", "step_rbs"): (1, INF),
    **{("cdss", name): (0, INF) for name in ("tn_min", "ntn_min", "guard_rbs",
                                             "guard_time_epochs")},
    ("cdss", "period_s"): (0.0, INF, OPEN),
    # The link budget takes log10 of the frequency and of the slant range,
    # 1 / sin(elevation), divides by the LOS scale, and squares offsets over
    # the beam radius and the sector width.  The closed ranges are physical,
    # and each keeps the free-space loss and the pattern losses within a few
    # hundred dB.
    ("radio", "freq_ghz"): (0.1, 100.0),                # 100 MHz to 100 GHz carriers
    ("radio", "sat_altitude_km"): (100.0, 40_000.0),    # the Karman line to beyond GEO
    ("radio", "beam_3db_radius_km"): (1.0, 5_000.0),
    ("radio", "tn_sector_width_deg"): (1.0, 360.0),
    # 3GPP's NTN studies (TR 38.811, TR 38.821) serve UEs down to 10 degrees
    # of elevation.  Toward the horizon the flat-Earth slant range
    # altitude / sin(elevation) grows without bound, and at 5e-324 degrees
    # the sine underflows to 0.
    ("radio", "elevation_deg"): (10.0, 90.0),
    ("radio", "los_d0_m"): (-INF, INF),
    ("radio", "los_scale_m"): (0.0, INF, OPEN),
    # A receiver's own impairments keep the SINR below about 40 dB
    # (13.3 bps/Hz), so a larger cap never binds; a larger floor only
    # starves UEs.  The floor must also not exceed the cap.
    ("radio", "se_cap_bps_hz"): (0.0, 30.0, OPEN),
    ("radio", "se_min_bps_hz"): (0.0, 30.0),
    **{("radio", name): (-MAX_ABS_DB, MAX_ABS_DB) for name in RADIO_DB_FIELDS},
    # At 4 m over 3/4 of each cell's hexagon lies outside the 1 m mast
    # exclusion; 10^6 m is wider than any terrestrial layout, and far below
    # the ISD whose placement range overflows a float.
    ("topology", "isd_m"): (4.0, 1e6),
    ("topology", "num_sites"): (1, 3),
    ("topology", "sectors_per_site"): (1, INF),
    **{("topology", name): (0, INF) for name in ("ues_per_tn_cell", "ues_per_beam")},
    # each coordinate, from the first site: a quarter of the Earth's
    # circumference
    ("topology", "beam_centers_m"): (-1e7, 1e7),
    # 1e8 kbps (100 Gbps) is far above any NR UE's peak rate (IMT-2020 asks
    # for 20 Gbps).  At 1.7e308 kbps the rate in bps overflows to inf, and
    # so would every backlog the scheduler sees.
    **{("traffic", name): (0.0, 1e8)
       for name in ("ld_tn_kbps", "ld_ntn_kbps", "hd_tn_kbps", "hd_ntn_kbps")},
    ("sim", "total_s"): (-INF, INF),
    ("sim", "warmup_s"): (-INF, INF),
    # From 1 ns, far below any NR slot (15.6 us at the widest subcarrier
    # spacing), to 1 s, a hundred 10 ms NR frames.  A shorter epoch
    # underflows epoch_ms / 1e3 to a subnormal or to 0, and the epoch counts
    # overflow or divide by zero.  At 1e306 ms the bytes an RB carries in
    # one epoch, rb_bandwidth_hz * epoch_s / 8, overflow.
    ("sim", "epoch_ms"): (1e-6, 1e3),
}


def check_domains(section: str, params) -> None:
    """Raise ConfigurationError naming the first field of `params`, a
    `[section]` dataclass, that lies outside its row of DOMAINS."""
    for (row_section, key), row in DOMAINS.items():
        if row_section != section:
            continue
        lo, hi, *lo_open = row
        value = getattr(params, key)
        for v in (c for pair in value for c in pair) if isinstance(value, tuple) else (value,):
            inside = (lo < v if lo_open else lo <= v) and v <= hi     # False for NaN
            # inf passes an infinite edge, and overflows the epoch counts
            if not inside or (isinstance(v, float) and not math.isfinite(v)):
                raise ConfigurationError(
                    f"[{section}] {key}: must be in {'(' if lo_open else '['}{lo:g}, {hi:g}], "
                    f"got {v!r}")
