import importlib.util
import math
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cdss_sim.engine as engine_mod
from cdss_sim.band import active_guard_rbs, build_band_plan, initial_allocation, rb_ranges
from cdss_sim.controller import CdssConfig, SpectrumManager, apply_adjustment
from cdss_sim.domains import DOMAINS, RADIO_DB_FIELDS
from cdss_sim.engine import (
    ByteFactors,
    RunSpec,
    SimClock,
    ntn_granted_rbs,
    run_and_write,
    run_campaign,
    run_simulation,
    tn_granted_rbs,
)
from cdss_sim.errors import ConfigurationError, InvariantError
from cdss_sim.radio import RadioParams, select_serving, thermal_noise_dbm
from cdss_sim.scenario import (
    CASES,
    SimParams,
    build_topology,
    default_scenario,
    serialize_scenario,
    validate_scenario,
)
from cdss_sim.traffic import Node, grant_tables


def test_sim_clock_epoch_counts(fast_cfg):
    clock = SimClock.from_config(fast_cfg)
    assert clock.total_epochs == 300
    assert clock.warmup_epochs == 100
    assert clock.period_epochs == 25


def test_unknown_case_rejected(fast_cfg):
    with pytest.raises(ConfigurationError, match="case 9"):
        run_simulation(RunSpec(fast_cfg, 9, 1))


def test_same_spec_same_store(fast_cfg):
    a = run_simulation(RunSpec(fast_cfg, 2, 7))
    b = run_simulation(RunSpec(fast_cfg, 2, 7))
    assert a.ue_bytes == b.ue_bytes
    assert a.node_bytes == b.node_bytes
    assert a.timeline == b.timeline
    assert a.utilization == b.utilization


def test_same_spec_byte_identical_files(fast_cfg, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    _, files1 = run_and_write(RunSpec(fast_cfg, 2, 7), d1)
    _, files2 = run_and_write(RunSpec(fast_cfg, 2, 7), d2)
    assert set(files1) == set(files2)
    for name in files1:
        assert files1[name].read_bytes() == files2[name].read_bytes()


def test_tn_only_constant_timeline_and_no_beam_traffic(fast_cfg):
    store = run_simulation(RunSpec(fast_cfg, 1, 1))
    assert store.sms_steps == 12
    by_group = {}
    for row in store.timeline:
        by_group.setdefault(row.group_index, []).append(
            (row.tn_rbs, row.guard_rbs, row.ntn_rbs, row.version)
        )
    for rows in by_group.values():
        assert len(set(rows)) == 1
    assert all(node.startswith("tn-") for node in store.node_bytes)
    assert store.tn_share == 1.0 and store.ntn_share == 0.0
    assert all(count == 160 for count in store.node_rb_counts.values())


def test_cdss_run_converges_monotonically(run_cache):
    store = run_cache(2, 1)
    coord = {}
    for row in store.timeline:
        if row.coordinated:
            coord.setdefault(row.group_index, []).append(row)
    assert sorted(coord) == [0, 1]
    for rows in coord.values():
        tn = [r.tn_rbs for r in rows]
        assert all(a >= b for a, b in zip(tn, tn[1:]))
        reached = [r for r in rows if r.tn_rbs == 12]
        assert reached and reached[0].time_s < 5.0


def test_warmup_exclusion_exact(fast_cfg):
    store = run_simulation(RunSpec(fast_cfg, 1, 1))
    served = [uid for uid, b in store.ue_bytes.items() if b > 0]
    post_epochs = 200
    for uid in served:
        assert store.ue_bytes[uid] == pytest.approx(500.0 * post_epochs)
    assert all(s.period_index > 4 for s in store.utilization)


def test_order_independence_of_topology_listing(fast_cfg, monkeypatch):
    baseline = run_simulation(RunSpec(fast_cfg, 2, 3))
    original = build_topology

    def shuffled(cfg, case, seed):
        topo = original(cfg, case, seed)
        topo.cells.reverse()
        topo.beams.reverse()
        topo.ues.reverse()
        return topo

    monkeypatch.setattr(engine_mod, "build_topology", shuffled)
    permuted = run_simulation(RunSpec(fast_cfg, 2, 3))
    assert permuted.ue_bytes == baseline.ue_bytes
    assert permuted.timeline == baseline.timeline


def test_tn_granted_interleaves_groups_proportionally():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    state = initial_allocation(plan, cfg)
    order = tn_granted_rbs(plan, state, frozenset())
    group_of = {rb: g.index for g in plan.groups for rb in g.rb_range}
    avail = [sum(1 for rb in order if group_of[rb] == g.index) for g in plan.groups]
    assert avail == [25, 25, 53]
    assert len(order) == 103 and len(set(order)) == 103
    for prefix_len in (10, 30, 60, 103):
        prefix = order[:prefix_len]
        for g, share in zip(plan.groups, avail):
            got = sum(1 for rb in prefix if group_of[rb] == g.index)
            expected = prefix_len * share / 103
            assert abs(got - expected) <= 1.5


def test_granted_sets_respect_guard_time_exactly():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    state = initial_allocation(plan, cfg)
    state = apply_adjustment(state, plan, 0, 4, now=25, cfg=cfg)
    changed = set(state.guard_timed)
    for epoch, expect_blocked in ((25, True), (26, False)):
        blocked = frozenset(active_guard_rbs(state, epoch))
        tn_order = tn_granted_rbs(plan, state, blocked)
        ntn = ntn_granted_rbs(plan, state, 0, blocked)
        overlap = (set(tn_order) | set(ntn)) & changed
        if expect_blocked:
            assert overlap == set()
            assert blocked == changed
        else:
            assert blocked == frozenset()
            # all surviving role-changed RBs are usable again
            tn_rbs, _, ntn_rbs = rb_ranges(plan.group(0), state.allocations[0])
            assert set(tn_order) == set(tn_rbs)
            assert set(ntn) == set(ntn_rbs)


def test_ntn_granted_uncoordinated_group_is_full():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    state = initial_allocation(plan, cfg)
    rbs = ntn_granted_rbs(plan, state, 2, frozenset())
    assert rbs == list(plan.group(2).rb_range)


def test_campaign_single_run_matches_direct_run(fast_cfg, tmp_path):
    result = run_campaign(fast_cfg, [2], [7], tmp_path, jobs=1)
    assert len(result.records) == 1
    rec = result.records[0]
    direct = run_simulation(RunSpec(fast_cfg, 2, 7))
    assert rec.ok
    assert rec.total_rx_bytes == pytest.approx(direct.total_rx_bytes())
    agg = result.aggregates[2]
    assert agg["runs"] == 1
    assert agg["mean_total_rx_bytes"] == pytest.approx(direct.total_rx_bytes())
    assert agg["std_total_rx_bytes"] == 0.0
    assert (tmp_path / "campaign_totals.csv").exists()
    assert (tmp_path / "2_pooled_throughput_cdf.csv").exists()


def test_campaign_requires_cases_and_seeds(fast_cfg, tmp_path):
    with pytest.raises(ConfigurationError):
        run_campaign(fast_cfg, [], [1], tmp_path)
    with pytest.raises(ConfigurationError):
        run_campaign(fast_cfg, [1], [], tmp_path)


def test_campaign_clamps_jobs(fast_cfg, tmp_path, monkeypatch):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    short = replace(fast_cfg, sim=replace(fast_cfg.sim, total_s=0.2, warmup_s=0.1))
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 8)
    result = run_campaign(short, [1], [1, 2], tmp_path / "a", jobs=3)
    assert pools == [2]                        # two runs need two workers
    assert all(r.ok for r in result.records)
    monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 1)
    run_campaign(short, [1], [1, 2], tmp_path / "b", jobs=3)
    assert pools == [2]                        # one CPU: no pool at all
    with pytest.raises(ConfigurationError):
        run_campaign(short, [1], [1], tmp_path / "c", jobs=0)


def test_campaign_isolates_run_failures(fast_cfg, tmp_path, monkeypatch):
    real = engine_mod.run_simulation

    def flaky(spec):
        if spec.seed == 2:
            raise RuntimeError("boom")
        return real(spec)

    monkeypatch.setattr(engine_mod, "run_simulation", flaky)
    result = run_campaign(fast_cfg, [1], [1, 2], tmp_path, jobs=1)
    by_seed = {r.seed: r for r in result.records}
    assert by_seed[1].ok
    failed = by_seed[2]
    assert not failed.ok and failed.error == "RuntimeError: boom"
    # the formatted traceback names the function that raised; `error`
    # stays the one line the CLI prints
    assert ", in flaky\n" in failed.traceback
    assert failed.traceback.endswith("RuntimeError: boom\n")
    assert by_seed[1].traceback is None
    assert result.aggregates[1]["runs"] == 1


def test_scenario_survives_campaign_round_trip(fast_cfg):
    # the campaign worker re-parses the serialized scenario
    from cdss_sim.scenario import parse_scenario

    assert parse_scenario(serialize_scenario(fast_cfg)) == fast_cfg


def test_some_tn_area_ues_offload_to_beams(fast_cfg):
    store = run_simulation(RunSpec(fast_cfg, 2, 1))
    topo = build_topology(fast_cfg, CASES[2], 1)
    tn_area = [u.ue_id for u in topo.ues if u.kind == "tn"]
    offloaded = sum(1 for uid in tn_area if store.ue_system[uid] == "NTN")
    fraction = offloaded / len(tn_area)
    assert 0.0 < fraction < 0.5


def test_tn_and_ntn_granted_disjoint_in_coordinated_groups():
    import random

    rng = random.Random(31)
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    state = initial_allocation(plan, cfg)
    for step in range(1, 30):
        gi = rng.choice(plan.coordinated_indices())
        delta = rng.choice([-4, -2, 0, 2, 4])
        lo = cfg.tn_min - state.allocations[gi].tn_rbs
        hi = state.allocations[gi].ntn_rbs - cfg.ntn_min
        state = apply_adjustment(state, plan, gi, max(lo, min(hi, delta)), step, cfg)
        blocked = frozenset(active_guard_rbs(state, step))
        tn_order = tn_granted_rbs(plan, state, blocked)
        tn_set = set(tn_order)
        for g in plan.groups:
            ntn = set(ntn_granted_rbs(plan, state, g.index, blocked))
            if g.coordinated:
                assert tn_set.isdisjoint(ntn)
            else:
                assert ntn <= tn_set  # shared group: both sides use it all


def test_throughput_never_exceeds_demand(run_cache):
    for case_id, max_demand in ((1, 400e3), (2, 400e3), (3, 4e6), (4, 4e6)):
        store = run_cache(case_id, 1)
        top = max(store.throughputs_bps().values())
        assert top <= max_demand + 1e-6, (case_id, top)


def naive_byte_factors(plan, rx_dbm, serving, beams, activity, radio, epoch_s):
    """Oracle: {(group, ue_id): bytes per RB}, summing interferers one by one.

    A TN-attached UE is offered every group and hears the other cells,
    plus the group's beams where the group is uncoordinated.  An
    NTN-attached UE is offered its beam's group and hears the group's
    other beams, plus every cell where the group is uncoordinated.
    """
    n_cells = rx_dbm.shape[0] - len(beams)
    beam_group = {n_cells + i: beam.group_index for i, beam in enumerate(beams)}
    noise = 10.0 ** (thermal_noise_dbm(plan.rb_bandwidth_hz, radio.noise_figure_db) / 10.0)
    scale = plan.rb_bandwidth_hz * epoch_s / 8.0
    out = {}
    for ue, tx in enumerate(serving):
        if tx is None:
            continue
        for g in plan.groups:
            beams_here = [b for b, gi in beam_group.items() if gi == g.index]
            if tx < n_cells:
                interferers = [c for c in range(n_cells) if c != tx]
                interferers += [] if g.coordinated else beams_here
            elif beam_group[tx] == g.index:
                interferers = [b for b in beams_here if b != tx]
                interferers += [] if g.coordinated else list(range(n_cells))
            else:
                continue
            interference = 0.0
            for t in interferers:
                interference += activity[t] * 10.0 ** (rx_dbm[t, ue] / 10.0)
            sinr = 10.0 ** (rx_dbm[tx, ue] / 10.0) / (noise + interference)
            se = math.log2(1.0 + sinr)
            se = 0.0 if se < radio.se_min_bps_hz else min(se, radio.se_cap_bps_hz)
            out[(g.index, ue)] = se * scale
    return out


def test_byte_factors_match_naive_oracle(fast_cfg, monkeypatch):
    # beams 1 and 2 share coordinated group 0, so same-group beam
    # interference is exercised too
    shared = replace(fast_cfg, topology=replace(fast_cfg.topology, beam_groups=(0, 0, 2)))
    rng = np.random.default_rng(11)
    se_calls = []
    se = engine_mod.spectral_efficiency_array
    monkeypatch.setattr(engine_mod, "spectral_efficiency_array",
                        lambda *args: se_calls.append(1) or se(*args))
    for cfg in (fast_cfg, shared):
        band, radio = cfg.band, cfg.radio
        epoch_s = SimClock.from_config(cfg).epoch_s
        plan = build_band_plan(band.total_rbs, band.num_groups, band.coordinated,
                               band.rb_bandwidth_hz)
        topo = build_topology(cfg, CASES[2], 1)
        beams = sorted(topo.beams, key=lambda b: b.beam_id)
        rx_dbm = engine_mod._link_budget(
            sorted(topo.cells, key=lambda c: c.cell_id), beams,
            sorted(topo.ues, key=lambda u: u.ue_id), radio, 1,
        )
        serving = [select_serving(column, radio.min_rsrp_dbm) for column in rx_dbm.T]
        group_of_rb = [g.index for g in plan.groups for _ in g.rb_range]
        factors = ByteFactors(plan, rx_dbm, serving, beams, radio, epoch_s)
        # first and last RB of every group, read through the scheduler's
        # per-grant row references
        edges = [rb for g in plan.groups for rb in (g.rb_start, g.rb_stop - 1)]
        edge_rows, _ = grant_tables(edges, group_of_rb, factors.rows)
        n_tx = rx_dbm.shape[0]
        a, b = rng.uniform(size=n_tx).tolist(), rng.uniform(size=n_tx).tolist()
        # a repeated activity must not serve stale rows from the refresh
        # skip; only an activity equal to the previous one is skipped, and
        # refresh reports a rewrite (which clears the scheduler's memos)
        # exactly when it recomputed the rows
        sequence = [([0.0] * n_tx, False), ([1.0] * n_tx, False), (a, False),
                    (b, False), (a, False), (list(a), True)]
        for activity, skipped in sequence:
            before = len(se_calls)
            rewritten = factors.refresh(activity)
            assert (len(se_calls) == before) == skipped
            assert rewritten is not skipped
            fresh = ByteFactors(plan, rx_dbm, serving, beams, radio, epoch_s)
            fresh.refresh(activity)
            assert factors.rows == fresh.rows
            want = naive_byte_factors(plan, rx_dbm, serving, beams, activity, radio, epoch_s)
            assert {gi for gi, _ in want} == {0, 1, 2}
            for (gi, ue), value in want.items():
                for rb, row in zip(edges, edge_rows):
                    if group_of_rb[rb] == gi:
                        assert row[ue] == pytest.approx(value, rel=1e-12), (gi, ue, rb)


def test_byte_factors_reject_non_finite_inputs():
    # a NaN byte factor would pass the scheduler's zero-capacity test
    plan = build_band_plan(1, 1, [True])
    radio = RadioParams()
    ByteFactors(plan, np.array([[-80.0]]), [0], [], radio, 0.01)
    for rx, params, epoch_s in (
        (np.array([[np.inf]]), radio, 0.01),
        (np.array([[np.nan]]), radio, 0.01),
        (np.array([[-80.0]]), replace(radio, noise_figure_db=np.nan), 0.01),
        (np.array([[-80.0]]), radio, np.inf),
    ):
        with pytest.raises(InvariantError):
            ByteFactors(plan, rx, [0], [], params, epoch_s)


def test_byte_factors_refresh_skips_an_equal_list():
    plan = build_band_plan(1, 1, [True])
    factors = ByteFactors(plan, np.array([[-80.0], [-90.0]]), [0], [], RadioParams(), 0.01)
    assert factors.refresh([1.0, 0.5]) is True
    rows = [list(row) for row in factors.rows]
    assert factors.refresh([1.0, 0.5]) is False        # a new, equal list
    assert factors.rows == rows
    assert factors.refresh([1.0, 0.25]) is True
    assert factors.rows != rows


SHORT = replace(default_scenario(), sim=SimParams(total_s=0.1, warmup_s=0.05))
# the sign that raises received power, per dB field (+1 unless listed)
LOUDER = {"tn_front_to_back_db": -1, "nlos_offset_db": -1, "noise_figure_db": -1}


def assert_valid_and_finite(configs, tmp_path):
    """Each config passes validation, and cases 2 and 3 run on it to finite
    report files."""
    for i, cfg in enumerate(configs):
        validate_scenario(cfg)
        for case_id in (2, 3):
            store, files = run_and_write(RunSpec(cfg, case_id, 1), tmp_path / f"{i}-{case_id}")
            assert math.isfinite(store.total_rx_bytes()), (cfg.radio, cfg.topology)
            for path in files.values():
                text = path.read_text().lower()
                assert "nan" not in text and "inf" not in text, (i, path.name)


def with_radio(**radio):
    return replace(SHORT, radio=replace(SHORT.radio, **radio))


def test_radio_db_domain_edges_run_to_finite_outputs(tmp_path):
    # each power, gain and loss at either end of its domain, alone and all
    # at once in the direction that maximizes or minimizes received power
    probes = [{key: edge} for key in RADIO_DB_FIELDS for edge in DOMAINS[("radio", key)]]
    probes += [{key: sign * LOUDER.get(key, 1) * DOMAINS[("radio", key)][1]
                for key in RADIO_DB_FIELDS} for sign in (-1, 1)]
    assert_valid_and_finite([with_radio(**radio) for radio in probes], tmp_path)


def test_link_model_domain_edges_run_to_finite_outputs(tmp_path):
    # every edge of the other [radio] link-model domains, of the placement
    # extent and of the RB bandwidth, alone, then at the corners that make
    # received power loudest and quietest
    se_max = DOMAINS[("radio", "se_cap_bps_hz")][1]
    probes = [{name: edge} for name in ("freq_ghz", "sat_altitude_km", "beam_3db_radius_km",
                                        "tn_sector_width_deg", "elevation_deg")
              for edge in DOMAINS[("radio", name)]]
    probes += [{"se_cap_bps_hz": 5e-324, "se_min_bps_hz": 0.0}, {"se_cap_bps_hz": se_max},
               {"se_min_bps_hz": 0.0}, {"se_min_bps_hz": SHORT.radio.se_cap_bps_hz},
               {"se_cap_bps_hz": se_max, "se_min_bps_hz": se_max}]
    loud = {key: LOUDER.get(key, 1) * DOMAINS[("radio", key)][1] for key in RADIO_DB_FIELDS}
    probes += [dict(loud, freq_ghz=0.1, sat_altitude_km=100.0, beam_3db_radius_km=5000.0,
                    tn_sector_width_deg=360.0, se_cap_bps_hz=se_max),
               {**{key: -value for key, value in loud.items()}, "freq_ghz": 100.0,
                "sat_altitude_km": 40_000.0, "beam_3db_radius_km": 1.0,
                "tn_sector_width_deg": 1.0}]
    far = DOMAINS[("topology", "beam_centers_m")][1]
    layouts = [{"isd_m": edge} for edge in DOMAINS[("topology", "isd_m")]]
    layouts.append({"beam_centers_m": ((far, far), (-far, -far), (far, -far))})
    configs = [with_radio(**radio) for radio in probes]
    configs += [replace(SHORT, topology=replace(SHORT.topology, **topo)) for topo in layouts]
    configs += [replace(SHORT, band=replace(SHORT.band, rb_bandwidth_hz=edge))
                for edge in DOMAINS[("band", "rb_bandwidth_hz")]]
    assert_valid_and_finite(configs, tmp_path)


# Each [radio] constant the link budget reads: a changed value, the rows
# it feeds (TN cells, beams or both) and, for a power or a gain, the dB it
# adds to each of them.
WIRING = {
    "tn_tx_power_dbm": (21.5, "tn", 3.5),
    "tn_antenna_gain_dbi": (11.0, "tn", -3.0),
    "ntn_eirp_dbm": (78.25, "ntn", 4.25),
    "sat_altitude_km": (1200.0, "ntn", None),
    "elevation_deg": (40.0, "ntn", None),
    "beam_3db_radius_km": (60.0, "ntn", None),
    "freq_ghz": (3.5, "both", None),
}


def test_link_budget_reads_each_radio_constant_from_the_scenario():
    # One [radio] field changed at a time moves only the rows it feeds, and
    # a power or a gain moves them by exactly the dB added.  Cells and beams
    # hold no radio constant, so the topology is the default one; only the
    # beam radius, the NTN placement disc, moves UEs, and the default UEs
    # are kept for it too.
    base_cfg = default_scenario()
    topo = build_topology(base_cfg, CASES[2], 1)
    n_cells = len(topo.cells)
    base = engine_mod._link_budget(topo.cells, topo.beams, topo.ues, base_cfg.radio, 1)
    for name, (value, fed, shift) in WIRING.items():
        cfg = replace(base_cfg, radio=replace(base_cfg.radio, **{name: value}))
        validate_scenario(cfg)
        built = build_topology(cfg, CASES[2], 1)
        assert (built.cells, built.beams) == (topo.cells, topo.beams), name
        assert (built.ues == topo.ues) == (name != "beam_3db_radius_km"), name
        rx = engine_mod._link_budget(topo.cells, topo.beams, topo.ues, cfg.radio, 1)
        for side, rows in (("tn", slice(0, n_cells)), ("ntn", slice(n_cells, None))):
            if fed not in (side, "both"):
                assert np.array_equal(rx[rows], base[rows]), (name, side)
            elif shift is None:
                assert (rx[rows] != base[rows]).any(), (name, side)
            else:
                assert rx[rows] - base[rows] == pytest.approx(
                    np.full_like(base[rows], shift), abs=1e-9), (name, side)


def test_grant_rebuilds_exactly_when_the_guard_key_changes(fast_cfg, monkeypatch):
    # The engine looks at the guard set only when the allocation state
    # changes or a guard time expires.  It must still rebuild the grants in
    # exactly the epochs where the naive per-epoch key, the version and the
    # sorted guard-timed RBs, changes.
    rebuilds, steps = [], []
    granted, step = engine_mod.tn_granted_rbs, SpectrumManager.sms_step
    monkeypatch.setattr(engine_mod, "tn_granted_rbs",
                        lambda *args: rebuilds.append(1) or granted(*args))

    def recording_step(self, state, reports, now):
        result = step(self, state, reports, now)
        steps.append((now, result[0]))
        return result

    monkeypatch.setattr(SpectrumManager, "sms_step", recording_step)
    expiry_rebuilds = 0
    for case_id, guard_time in ((2, 0), (2, 1), (2, 2), (2, 3), (4, 2)):
        cfg = replace(fast_cfg, cdss=replace(fast_cfg.cdss, guard_time_epochs=guard_time))
        rebuilds.clear()
        steps.clear()
        run_simulation(RunSpec(cfg, case_id, 3))
        band = cfg.band                 # cases 2 and 4 keep the coordination flags
        plan = build_band_plan(band.total_rbs, band.num_groups, band.coordinated)
        state = initial_allocation(plan, cfg.cdss)
        changes, key, later = 0, None, list(steps)
        for epoch in range(SimClock.from_config(cfg).total_epochs):
            while later and later[0][0] <= epoch:
                state = later.pop(0)[1]
            new_key = (state.version, tuple(sorted(active_guard_rbs(state, epoch))))
            changes += new_key != key
            key = new_key
        moves = state.version
        assert moves > 0, (case_id, guard_time)
        assert len(rebuilds) == changes, (case_id, guard_time)
        expiry_rebuilds += changes - 1 - moves
    assert expiry_rebuilds > 0          # guard expiries alone rebuilt some grants


def test_settled_run_fast_forwards_most_node_epochs(fast_cfg, monkeypatch):
    # Case 3 settles within a few epochs of each grant, so nearly every
    # node-epoch is replayed by the fast-forward, not by `schedule_epoch`
    # (162 of 2,700 calls remain for seed 1).  A change that turns the
    # fast-forward off gives one call per node per epoch.
    calls = []
    schedule = engine_mod.schedule_epoch
    monkeypatch.setattr(engine_mod, "schedule_epoch",
                        lambda node: calls.append(1) or schedule(node))
    store = run_simulation(RunSpec(fast_cfg, 3, 1))
    node_epochs = len(store.node_bytes) * SimClock.from_config(fast_cfg).total_epochs
    assert node_epochs == 2700
    assert 0 < len(calls) < node_epochs / 10, len(calls)


def test_fast_forwarded_credit_is_paid_before_the_next_epoch_credits(fast_cfg, monkeypatch):
    # Bytes are added to each total in epoch order, so the credit a
    # fast-forward leaves a node owing must be settled before that node's
    # next scheduled epoch, and before the store is filled.  Each node's
    # totals are its own, so the order is checked node by node.
    events = defaultdict(list)                  # node_id -> "owe", "settle" or "schedule"
    fast_forward, settle, schedule = Node.fast_forward, Node.settle, engine_mod.schedule_epoch

    def recording_fast_forward(node, epochs, credited):
        if credited:
            events[node.node_id].append("owe")
        return fast_forward(node, epochs, credited)

    def recording_settle(node, *args):
        events[node.node_id].append("settle")
        return settle(node, *args)

    def recording_schedule(node):
        events[node.node_id].append("schedule")
        return schedule(node)

    monkeypatch.setattr(Node, "fast_forward", recording_fast_forward)
    monkeypatch.setattr(Node, "settle", recording_settle)
    monkeypatch.setattr(engine_mod, "schedule_epoch", recording_schedule)
    run_simulation(RunSpec(fast_cfg, 2, 1))
    paid_then_scheduled = 0
    for node_id, log in events.items():
        owed = paid = False
        for kind in log:
            if kind == "owe":
                owed = True
            elif kind == "settle":
                owed, paid = False, owed
            else:                               # a scheduled epoch
                assert not owed, node_id
                paid_then_scheduled += paid
                paid = False
        assert not owed and log[-1] == "settle", node_id
    assert len(events) == 12                   # 9 cells and 3 beams
    assert paid_then_scheduled >= 12, paid_then_scheduled   # 48 for this seed


def test_benchmark_tracer_names_resolve_on_engine():
    # perfbench/layers.py traces a run by swapping these names on the
    # engine module; a refactor that drops one breaks the traced benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = [name for names in layers.ENGINE_LAYERS.values() for name in names]
    names += ["run_and_write", "_campaign_worker", "ProcessPoolExecutor", "SpectrumManager"]
    missing = [name for name in names if not hasattr(engine_mod, name)]
    assert missing == []
    assert hasattr(engine_mod.SpectrumManager, "sms_step")
