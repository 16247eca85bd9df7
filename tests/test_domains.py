"""The domain table against the scenario sections, a seeded scenario fuzz, and
the quantities derived from the table's corners."""

import itertools
import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from cdss_sim.band import build_band_plan
from cdss_sim.domains import DOMAINS
from cdss_sim.engine import ByteFactors, RunSpec, run_and_write
from cdss_sim.errors import ConfigurationError
from cdss_sim.radio import Ue, ntn_rx_power, thermal_noise_dbm
from cdss_sim.scenario import (
    CASES, MAX_RUN_WORK, SimClock, build_topology, default_scenario, demand_bps,
    parse_scenario, validate_scenario,
)

DEFAULT = default_scenario()
NUMERIC_TYPES = ("int", "float", "Tuple[Tuple[float, float], ...]")
# a 30-epoch run with six controller periods after the warmup
SHORT = {("sim", "total_s"): 0.3, ("sim", "warmup_s"): 0.1, ("cdss", "period_s"): 0.05}


def test_every_numeric_field_has_one_domain_row():
    # a numeric field added later cannot go unchecked, and no row names a
    # field that is gone
    numeric = {(section.name, f.name) for section in fields(DEFAULT)
               for f in fields(getattr(DEFAULT, section.name)) if f.type in NUMERIC_TYPES}
    assert sorted(DOMAINS) == sorted(numeric)


def probe_values(key):
    """Each finite edge and the value just outside it, then 0, -1, huge and
    tiny values; ints step by 1 and also get 10**400."""
    lo, hi, *_ = DOMAINS[key]
    is_int = isinstance(getattr(getattr(DEFAULT, key[0]), key[1]), int)
    values = []
    for edge, away in ((lo, -math.inf), (hi, math.inf)):
        if math.isfinite(edge):
            values += [edge, edge + (1 if away > 0 else -1) if is_int
                       else math.nextafter(edge, away)]
    values += [0, -1, 1e300, 1.7e308, 1e-300, 5e-324]
    return values + [10**400] if is_int else values


def inside(key, value):
    lo, hi, *lo_open = DOMAINS[key]
    return ((lo < value if lo_open else lo <= value) and value <= hi
            and (not isinstance(value, float) or math.isfinite(value)))


def scenario_text(overrides):
    values = {**SHORT, **overrides}
    sections = {}
    for (section, key), value in values.items():
        text = repr(value)
        if key == "beam_centers_m":         # into the first beam's x
            pairs = [(value, DEFAULT.topology.beam_centers_m[0][1])]
            pairs += DEFAULT.topology.beam_centers_m[1:]
            text = "; ".join(f"{x!r}, {y!r}" for x, y in pairs)
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def test_scenario_fuzz_rejects_or_runs_to_finite_outputs(tmp_path):
    # Every probe value of every row alone, then seeded pairs.  A scenario
    # is rejected with a ConfigurationError, naming the key when one value
    # lies outside its row, or a short run writes only finite numbers.
    rng = random.Random(1010)
    keys = sorted(DOMAINS)
    draws = [{key: value} for key in keys for value in probe_values(key)]
    for _ in range(150):
        draws.append({key: rng.choice(probe_values(key)) for key in rng.sample(keys, 2)})
    runs = 0
    for i, overrides in enumerate(draws):
        try:
            cfg = parse_scenario(scenario_text(overrides))
        except ConfigurationError as exc:
            if len(overrides) == 1:
                [(key, value)] = overrides.items()
                if not inside(key, value):
                    assert str(exc).startswith(f"[{key[0]}] {key[1]}"), (overrides, str(exc))
            continue
        store, files = run_and_write(RunSpec(cfg, rng.choice((2, 4)), 1), tmp_path / str(i))
        assert math.isfinite(store.total_rx_bytes()), overrides
        for path in files.values():
            text = path.read_text().lower()
            assert "nan" not in text and "inf" not in text, (overrides, path.name)
        runs += 1
    assert runs >= 100, runs


def corners(*keys):
    """Every corner of the DOMAINS box over `keys`, as {key: value} dicts.
    An open lower edge is taken as the next float above it.  An infinite
    upper edge is taken as MAX_RUN_WORK: only `[band] total_rbs` and
    `num_groups` use one here, and `validate_scenario` rejects a band of
    more than MAX_RUN_WORK RBs x groups, as one epoch's work."""
    ends = []
    for key in keys:
        lo, hi, *lo_open = DOMAINS[key]
        ends.append((math.nextafter(lo, math.inf) if lo_open else lo,
                     hi if math.isfinite(hi) else MAX_RUN_WORK))
    return [dict(zip(keys, corner)) for corner in itertools.product(*ends)]


def with_values(values, cfg=DEFAULT):
    for (section, key), value in values.items():
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{key: value})})
    return cfg


def clock_for(epoch_ms, epochs):
    """The SimClock of a run of `epochs` epochs of `epoch_ms`, one per period."""
    seconds = epochs * epoch_ms / 1e3
    return SimClock.from_config(with_values({
        ("sim", "epoch_ms"): epoch_ms, ("sim", "total_s"): seconds,
        ("sim", "warmup_s"): 0.0, ("cdss", "period_s"): epoch_ms / 1e3}))


def test_derived_quantities_are_finite_at_domain_corners():
    """Every scalar the engine derives before epoch 0 is finite over the
    whole DOMAINS box of its inputs.

    Each is monotone in each input while the others are held: epoch_s =
    epoch_ms / 1e3; the epoch counts, seconds / epoch_s; the per-UE
    increment, rate x 1e3 x epoch_s / 8; the RB byte scale, rb_bandwidth_hz
    x epoch_s / 8; the thermal noise, -174 + 10 log10(bandwidth) + noise
    figure, and its linear power 10^(dBm / 10); the EIRP per RB,
    ntn_eirp_dbm - 10 log10(total_rbs / num_groups); the capped bytes per
    RB, se_cap_bps_hz x the byte scale; and the largest backlog, the
    increment x the largest epoch count.  Correctly rounded float
    operations are monotone too.  A function monotone in each input
    separately takes its least and greatest values over a box at corners,
    so if it is finite at every corner it is finite everywhere inside.
    The epoch counts are bounded by `validate_scenario`, not by a DOMAINS
    row: a run may have at most MAX_RUN_WORK work units, and so at most
    MAX_RUN_WORK epochs, which the smallest layout reaches.
    """
    epoch_keys = (("sim", "epoch_ms"),)
    # epoch_s and the epoch counts: one epoch, and the most validate accepts
    smallest = with_values({("band", "total_rbs"): 1, ("band", "num_groups"): 1,
                            ("band", "coordinated"): (False,),
                            ("topology", "num_sites"): 1, ("topology", "sectors_per_site"): 1,
                            ("topology", "beam_centers_m"): (), ("topology", "beam_groups"): (),
                            ("topology", "ues_per_tn_cell"): 0})
    for corner in corners(*epoch_keys):
        epoch_ms = corner[("sim", "epoch_ms")]
        for epochs in (1, MAX_RUN_WORK):
            clock = clock_for(epoch_ms, epochs)
            assert math.isfinite(clock.epoch_s) and clock.epoch_s > 0.0, corner
            assert (clock.total_epochs, clock.period_epochs) == (epochs, 1), corner
        most = with_values({("sim", "epoch_ms"): epoch_ms,
                            ("sim", "total_s"): MAX_RUN_WORK * epoch_ms / 1e3,
                            ("sim", "warmup_s"): 0.0, ("cdss", "period_s"): epoch_ms / 1e3},
                           smallest)
        validate_scenario(most)
        with pytest.raises(ConfigurationError, match="MAX_RUN_WORK"):
            validate_scenario(with_values({("sim", "total_s"): (MAX_RUN_WORK + 1) * epoch_ms / 1e3},
                                          most))
    # the per-UE increment, as run_simulation derives it, and the largest backlog
    rates = [("traffic", name) for name in ("ld_tn_kbps", "ld_ntn_kbps", "hd_tn_kbps",
                                             "hd_ntn_kbps")]
    for corner in corners(*epoch_keys, rates[0]):
        rate = corner[rates[0]]
        cfg = with_values({**{key: rate for key in rates}, **corner})
        clock = clock_for(corner[("sim", "epoch_ms")], 1)
        for case, kind in itertools.product(CASES.values(), ("tn", "ntn")):
            increment = demand_bps(cfg, case, Ue(0, (0.0, 0.0), kind)) * clock.epoch_s / 8.0
            assert math.isfinite(increment) and math.isfinite(increment * MAX_RUN_WORK), corner
    # the RB byte scale, the thermal noise and the capped bytes per RB, from
    # ByteFactors over one cell and one UE whose signal saturates the SE cap
    keys = (("band", "rb_bandwidth_hz"), ("radio", "noise_figure_db"), *epoch_keys,
            ("radio", "se_cap_bps_hz"))
    for corner in corners(*keys):
        bandwidth, noise_figure, epoch_ms, se_cap = corner.values()
        noise_dbm = thermal_noise_dbm(bandwidth, noise_figure)
        radio = with_values({("radio", "noise_figure_db"): noise_figure,
                             ("radio", "se_cap_bps_hz"): se_cap,
                             ("radio", "se_min_bps_hz"): 0.0}).radio
        plan = build_band_plan(1, 1, (False,), bandwidth)
        factors = ByteFactors(plan, np.array([[300.0]]), [0], [], radio,
                              clock_for(epoch_ms, 1).epoch_s)
        factors.refresh([0.0])
        assert math.isfinite(noise_dbm), corner
        assert math.isfinite(factors._noise_lin) and factors._noise_lin > 0.0, corner
        assert math.isfinite(factors._byte_scale) and factors._byte_scale > 0.0, corner
        assert factors.rows[0][0] == se_cap * factors._byte_scale, corner
    # the EIRP per RB, from each beam's nominal RB count as build_topology
    # derives it, seen in the power at the beam's centre
    keys = (("radio", "ntn_eirp_dbm"), ("band", "total_rbs"), ("band", "num_groups"))
    for corner in corners(*keys):
        cfg = with_values(corner)
        beam = build_topology(cfg, CASES[2], 1).beams[0]
        assert beam.nominal_rbs == cfg.band.total_rbs / cfg.band.num_groups
        assert np.isfinite(ntn_rx_power([beam.center_xy], [beam], cfg.radio)).all(), corner
