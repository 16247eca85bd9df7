import copy
import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cdss_sim.controller as controller_mod
import cdss_sim.engine as engine_mod
import cdss_sim.traffic as traffic_mod
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
from cdss_sim.metrics import MetricsStore
from cdss_sim.radio import RadioParams, select_serving, thermal_noise_dbm
from cdss_sim.scenario import (
    CASES,
    SimParams,
    build_topology,
    default_scenario,
    serialize_scenario,
    validate_scenario,
)
from cdss_sim.traffic import Node, grant_tables, period_load, schedule_epoch


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
    assert a.node_rb_counts == b.node_rb_counts
    assert a.timeline == b.timeline
    assert a.utilization == b.utilization


def test_same_spec_byte_identical_files(fast_cfg, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    _, files1 = run_and_write(RunSpec(fast_cfg, 2, 7), d1)
    _, files2 = run_and_write(RunSpec(fast_cfg, 2, 7), d2)
    assert set(files1) == set(files2)
    for name in files1:
        assert files1[name].read_bytes() == files2[name].read_bytes()


def test_negative_zero_rates_write_the_files_of_zero_rates(default_cfg, tmp_path):
    # `[traffic] ld_tn_kbps = -0.0` lies on the closed lower edge of its
    # domain, and gives every TN-area UE -0.0 bytes per epoch, also where a
    # beam serves it next to UEs with demand.  The backlogs they are added
    # to are never -0.0, so the run writes the files of a 0.0 rate.
    short = replace(default_cfg, sim=replace(default_cfg.sim, total_s=1.0, warmup_s=0.5))
    written = []
    for rate in (0.0, -0.0):
        cfg = replace(short, traffic=replace(short.traffic, ld_tn_kbps=rate))
        _, files = run_and_write(RunSpec(cfg, 2, 1), tmp_path / repr(rate))
        written.append({name: path.read_bytes() for name, path in files.items()})
    assert written[0] == written[1]


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
    assert all(node.startswith("tn-") for node in store.node_rb_counts)
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
    # `cdss-sim validate` prints the serialized scenario, which must read
    # back as the same config
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


def byte_factor_inputs(cfg, case_id=2):
    """The band plan, beams, link budget and attachment of a run of `cfg`,
    seed 1, in case 2 or in TN-only case 3, as `ByteFactors` takes them."""
    band = cfg.band
    flags = band.coordinated if case_id == 2 else (False,) * band.num_groups
    plan = build_band_plan(band.total_rbs, band.num_groups, flags, band.rb_bandwidth_hz)
    topo = build_topology(cfg, CASES[case_id], 1)
    beams = sorted(topo.beams, key=lambda b: b.beam_id)
    rx_dbm = engine_mod._link_budget(
        sorted(topo.cells, key=lambda c: c.cell_id), beams,
        sorted(topo.ues, key=lambda u: u.ue_id), cfg.radio, 1,
    )
    return plan, beams, rx_dbm, select_serving(rx_dbm, cfg.radio.min_rsrp_dbm)


def with_beam_groups(cfg, beam_groups):
    return replace(cfg, topology=replace(cfg.topology, beam_groups=beam_groups))


def assert_beamless_groups_share_one_row(factors, plan, beams):
    """Two groups' rows are one object exactly when neither has a beam."""
    beamless = {g.index for g in plan.groups} - {beam.group_index for beam in beams}
    for i in range(len(plan.groups)):
        for j in range(i):
            assert (factors.rows[i] is factors.rows[j]) == ({i, j} <= beamless), (i, j)


def test_byte_factors_match_naive_oracle(fast_cfg, monkeypatch):
    # beams 1 and 2 share coordinated group 0, so same-group beam
    # interference is exercised too; with every beam in group 0, the
    # coordinated group 1 and the uncoordinated group 2 have no beam and
    # share one row, as do all three groups of the TN-only case 3
    rng = np.random.default_rng(11)
    se_calls = []
    se = engine_mod.spectral_efficiency_array
    monkeypatch.setattr(engine_mod, "spectral_efficiency_array",
                        lambda *args: se_calls.append(1) or se(*args))
    for cfg, case_id in ((fast_cfg, 2), (with_beam_groups(fast_cfg, (0, 0, 2)), 2),
                         (with_beam_groups(fast_cfg, (0, 0, 0)), 2), (fast_cfg, 3)):
        radio, epoch_s = cfg.radio, SimClock.from_config(cfg).epoch_s
        plan, beams, rx_dbm, serving = byte_factor_inputs(cfg, case_id)
        group_of_rb = [g.index for g in plan.groups for _ in g.rb_range]
        factors = ByteFactors(plan, rx_dbm, serving, beams, radio, epoch_s)
        assert_beamless_groups_share_one_row(factors, plan, beams)
        assert (len({id(row) for row in factors.rows}) == 1) == (case_id == 3)
        # first and last RB of every group, read through the scheduler's
        # per-grant row references
        edges = [rb for g in plan.groups for rb in (g.rb_start, g.rb_stop - 1)]
        edge_rows, _, _ = grant_tables(edges, [factors.rows[g] for g in group_of_rb],
                                       group_of_rb)
        n_tx = rx_dbm.shape[0]
        a, b = rng.uniform(size=n_tx).tolist(), rng.uniform(size=n_tx).tolist()
        # a repeated activity must not serve stale rows from the refresh
        # skip; only an activity equal to the previous one at every audible
        # transmitter is skipped (these change every transmitter), and
        # refresh reports changed entries (which clear the memos of the
        # nodes serving them) exactly when it recomputed the rows: each of
        # these activities changes some UE's entry
        sequence = [([0.0] * n_tx, False), ([1.0] * n_tx, False), (a, False),
                    (b, False), (a, False), (list(a), True)]
        for activity, skipped in sequence:
            before = len(se_calls)
            changed = factors.refresh(activity)
            assert (len(se_calls) == before) == skipped
            assert bool(changed) is not skipped
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
    assert factors.refresh([1.0, 0.5]) == {0}
    rows = [list(row) for row in factors.rows]
    assert factors.refresh([1.0, 0.5]) == set()        # a new, equal list
    assert factors.rows == rows
    assert factors.refresh([1.0, 0.25]) == {0}
    assert factors.rows != rows


def test_byte_factors_refresh_reports_exactly_the_changed_entries(fast_cfg, monkeypatch):
    # The engine clears only the memos of nodes that serve a reported UE,
    # so the report must name every UE whose entry changed in any group,
    # and may name no other.  Random activity sequences on the default
    # layout, and on one where two beams share a coordinated group, change
    # every transmitter, a few of them or only the beams, or repeat the
    # last activity in a new list; a third layout puts every beam in group
    # 0, so groups 1 and 2 share one row.  On the default layout they also
    # change only the beams alone in a coordinated group, whose activity
    # enters no entry.  A repeat and such an inaudible change must make no SE call
    # and report nothing.  A naive oracle compares the rows before and
    # after, and a fresh instance's rows check that no skip kept stale ones.
    rng = np.random.default_rng(19)
    se_calls = []
    se = engine_mod.spectral_efficiency_array
    monkeypatch.setattr(engine_mod, "spectral_efficiency_array",
                        lambda *args: se_calls.append(1) or se(*args))
    kinds = {"some": 0, "inaudible": 0, "repeat": 0}
    for beam_groups in ((0, 1, 2), (0, 0, 2), (0, 0, 0)):
        cfg = with_beam_groups(fast_cfg, beam_groups)
        plan, beams, rx_dbm, serving = byte_factor_inputs(cfg)
        epoch_s = SimClock.from_config(cfg).epoch_s
        factors = ByteFactors(plan, rx_dbm, serving, beams, cfg.radio, epoch_s)
        assert_beamless_groups_share_one_row(factors, plan, beams)
        n_tx, n_cells = rx_dbm.shape[0], rx_dbm.shape[0] - len(beams)
        groups = [beam.group_index for beam in beams]
        alone = [n_cells + i for i, gi in enumerate(groups)
                 if plan.groups[gi].coordinated and groups.count(gi) == 1]
        moves = ["every", "few", "beams", "repeat"] + (["inaudible"] if alone else [])
        activity = [1.0] * n_tx
        factors.refresh(activity)
        for _ in range(60):
            move = rng.choice(moves)
            activity = list(activity)
            if move == "every":
                activity = rng.choice([0.25, 0.5, 1.0], size=n_tx).tolist()
            elif move == "few":
                for tx in rng.choice(n_tx, size=rng.integers(1, 4), replace=False):
                    activity[tx] = float(rng.choice([0.0, 0.5, 1.0]))
            elif move == "beams":
                activity[n_cells:] = rng.choice([0.0, 0.5, 1.0], size=len(beams)).tolist()
            elif move == "inaudible":
                for tx in alone:
                    activity[tx] = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            old = [list(row) for row in factors.rows]
            before = len(se_calls)
            changed = factors.refresh(activity)
            want = {ue for row, old_row in zip(factors.rows, old)
                    for ue, (new, was) in enumerate(zip(row, old_row)) if new != was}
            assert changed == want, move
            if move in ("repeat", "inaudible"):
                assert len(se_calls) == before and changed == set(), move
                kinds[move] += 1
            elif len(se_calls) > before and changed:
                kinds["some"] += 1
            fresh = ByteFactors(plan, rx_dbm, serving, beams, cfg.radio, epoch_s)
            fresh.refresh(activity)
            assert factors.rows == fresh.rows, move
    # rewrites that change some entries, repeats and inaudible changes
    # (106, 43 and 17 with this seed)
    assert min(kinds.values()) >= 5, kinds


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

    def recording_step(self, state, reports, now, rows=None):
        result = step(self, state, reports, now, rows)
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


def test_tn_only_cells_and_beams_hold_one_row_grants(fast_cfg, monkeypatch):
    # `grant_tables` gives a node its grant's one byte row when every
    # granted RB carries that very list, and the scheduler then deals it
    # per UE in whole rounds.  After every grant rebuild, each cell of cases
    # 1 and 3 (one row shared by every group, as no group has a beam) and
    # each beam (its group's row) holds one; no cell of cases 2 and 4 does,
    # as their TN grant interleaves the rows of three groups.
    rebuilds = {}
    grant_rbs = engine_mod._grant_rbs

    def granting(plan, state, blocked, nodes, *maps):
        grant_rbs(plan, state, blocked, nodes, *maps)
        for node in nodes:
            one_row = node.group_index is not None or case_id in (1, 3)
            assert node.granted
            assert node.row is (node.granted_rows[0] if one_row else None), (case_id, node)
            assert all(row is node.granted_rows[0] for row in node.granted_rows) == one_row
        rebuilds[case_id] = rebuilds.get(case_id, 0) + 1

    monkeypatch.setattr(engine_mod, "_grant_rbs", granting)
    for case_id in (1, 2, 3, 4):
        run_simulation(RunSpec(fast_cfg, case_id, 1))
    assert sorted(rebuilds) == [1, 2, 3, 4]


def test_a_step_is_given_the_reports_of_the_group_it_selects(fast_cfg, monkeypatch):
    # The engine builds each TN cell's report for the one group the step
    # selects, from that group's column of the cell's load row, and for no
    # other group: the step reads no other.
    step = SpectrumManager.sms_step
    selected = []

    def reading_step(self, state, reports, now, rows=None):
        gi = self.selected
        reports = list(reports)
        column = 1 + self.coordinated.index(gi)
        assert [(r.group_index, r.used_rb_epochs, r.available_rb_epochs) for r in reports] == \
            [(gi, row[column], row[len(row) // 2 + column]) for row in rows]
        assert len(reports) == 9
        selected.append(gi)
        return step(self, state, reports, now, rows)

    monkeypatch.setattr(SpectrumManager, "sms_step", reading_step)
    for case_id in (2, 4):
        selected.clear()
        run_simulation(RunSpec(fast_cfg, case_id, 2))
        assert selected == [0, 1] * 6, case_id


def test_settled_run_fast_forwards_most_node_epochs(fast_cfg, monkeypatch):
    # Case 3 settles within a few epochs of each grant, so nearly every
    # node-epoch is replayed by the fast-forward, not by `schedule_epoch`
    # (63 of 2,700 calls remain for seed 1).  A change that turns the
    # fast-forward off gives one call per node per epoch.
    calls = []
    schedule = engine_mod.schedule_epoch
    monkeypatch.setattr(engine_mod, "schedule_epoch",
                        lambda node: calls.append(1) or schedule(node))
    store = run_simulation(RunSpec(fast_cfg, 3, 1))
    node_epochs = len(store.node_rb_counts) * SimClock.from_config(fast_cfg).total_epochs
    assert node_epochs == 2700
    assert 0 < len(calls) < node_epochs / 10, len(calls)


def test_settled_runs_advance_each_node_once_per_stretch(default_cfg, monkeypatch):
    # Once a run settles, the period ends ahead are run from the cycles and
    # each node is advanced once per stretch, not once per period end.  In
    # case 3, seed 1, the nine cells settle for the whole run: 9 calls (360
    # when every period end stopped the fast-forward).  Case 2, seed 1:
    # 108 calls (480).
    calls = []
    fast_forward = Node.fast_forward
    monkeypatch.setattr(Node, "fast_forward",
                        lambda node, *args: calls.append(1) or fast_forward(node, *args))
    for case_id, most in ((3, 18), (2, 120)):
        calls.clear()
        run_simulation(RunSpec(default_cfg, case_id, 1))
        assert 0 < len(calls) <= most, (case_id, len(calls))


def planning_cells():
    """Two steady cells whose load rows differ by rotation start with the
    same activity.  The grant alternates RBs of load columns 1 and 2, and
    some UEs decline every column-2 RB (a zero byte entry), so the UE the
    rotation starts with decides how many column-2 RBs go unused and which
    column-1 RBs replace them.  Each UE wants one RB per epoch.  Cell 0
    (UEs 0 and 1, UE 0 declining) deals columns (1, 1) from start 0 and
    (2, 0) from start 1; cell 1 (UEs 2-4, UEs 2 and 3 declining) deals
    (2, 1), (2, 1) and (3, 0)."""
    column_of_rb = [1, 2] * 3
    row_of_rb = [[100.0] * 5 if column == 1 else [0.0, 100.0, 0.0, 0.0, 100.0]
                 for column in column_of_rb]
    cells = []
    for cell_id, ue_ids in enumerate(([0, 1], [2, 3, 4])):
        cell = Node(f"tn-{cell_id}", cell_id, ue_ids, 1, [0.0] * len(ue_ids),
                    [100.0] * len(ue_ids))
        granted = list(range(2 * len(ue_ids)))
        cell.set_grant(granted, *grant_tables(granted, row_of_rb, column_of_rb))
        cells.append(cell)
    return cells


def test_planned_periods_read_each_cell_at_the_start_it_reaches(monkeypatch):
    # `_fast_forward` runs each period end ahead from the cells' cycles.  Its
    # load rows must be those an epoch-by-epoch walk of a twin gives, and
    # each whole period's must be the cycle's window from the start the twin
    # reaches there.  The plan stops after the period end whose
    # step moves a boundary, and where the next whole period would pass the
    # limit (a guard expiry inside a period, one on a period end, the run
    # end); then each cell is advanced once, to where its twin is.
    clock = SimClock(0.001, 0, 48, 5)
    for limit, move_at, end in ((48, 30, 30), (37, None, 35), (40, None, 40), (48, None, 45)):
        cells = planning_cells()
        for epoch in range(5, 8):               # periods end at 5, 10, ...
            for cell in cells:
                cell.record(schedule_epoch(cell), True)
        assert all(cell.steady() for cell in cells)
        twins = copy.deepcopy(cells)
        held, moved, planned = object(), object(), []

        def period_end(store, manager, clock, tn_nodes, state, epoch, loads, last):
            planned.append((epoch, list(loads)))
            return (moved if epoch == move_at else state), planned[-1][1]

        advanced = []
        fast_forward = Node.fast_forward
        monkeypatch.setattr(engine_mod, "_period_end", period_end)
        monkeypatch.setattr(Node, "fast_forward",
                            lambda node, *args: advanced.append(1) or fast_forward(node, *args))
        state, reached = engine_mod._fast_forward(None, None, clock, cells, held, 8, limit)
        monkeypatch.undo()
        assert (state, reached) == ((moved if move_at else held), end)
        assert len(advanced) == len(cells)
        walked, starts = [], [twin.offset for twin in twins]
        for epoch in range(8, end):
            for twin in twins:
                twin.record(schedule_epoch(twin), True)
            if (epoch + 1) % clock.period_epochs == 0:
                walked.append((epoch + 1, [period_load(twin.period) for twin in twins]))
                if epoch + 1 > 10:      # a whole period, from `starts`
                    assert walked[-1][1] == [cell.cycle.window(start, clock.period_epochs)
                                             for cell, start in zip(cells, starts)]
                for twin in twins:
                    twin.period = []
                starts = [twin.offset for twin in twins]
        assert planned == walked, limit
        for cell, twin in zip(cells, twins):
            assert (cell.offset, cell.backlog, cell.books) == (twin.offset, twin.backlog,
                                                               twin.books)
    # the two columns' split differs between the planned periods
    assert len({tuple(loads[0]) for _, loads in planned[1:]}) == 2


class RowlessManager(SpectrumManager):
    """The controller without the rows of its steps: every step runs."""

    def sms_step(self, state, reports, now, rows=None):
        return super().sms_step(state, reports, now)


def twin_cells():
    """Two cells, drained and steady with a verified twin after one epoch.
    The grant is one RB of load column 2, then three of column 1, and each
    of a cell's three UEs wants one RB per epoch, so every epoch deals the
    first three: coordinated group 1 reads a load of 1.0 and group 0 one
    of 2/3 in every period."""
    column_of_rb = [2, 1, 1, 1]
    row_of_rb = [[100.0] * 6 for _ in column_of_rb]
    cells = []
    for cell_id in range(2):
        ue_ids = [3 * cell_id, 3 * cell_id + 1, 3 * cell_id + 2]
        cell = Node(f"tn-{cell_id}", cell_id, ue_ids, cell_id, [0.0] * 3, [100.0] * 3)
        cell.set_grant([0, 1, 2, 3], *grant_tables([0, 1, 2, 3], row_of_rb, column_of_rb))
        cells.append(cell)
    return cells


def plan_and_walk(monkeypatch, cells, coordinated, cfg, cursor: int):
    """Schedule `cells` over epochs 5-7 (periods of 5 epochs, no warmup) and
    plan from epoch 8 to at most 58 with `_fast_forward`, under a
    controller of the `coordinated` flags whose cursor starts at `cursor`;
    then walk deep copies epoch by epoch to where the plan stopped, each
    period end as a scheduled one, under a `RowlessManager`.  Returns the
    plan's and the walk's manager, store, state and the steps that ran
    (the group and its cells' used RB-epochs), and the epoch reached."""
    clock = SimClock(0.001, 0, 60, 5)
    plan = build_band_plan(60, len(coordinated), coordinated)
    managers = SpectrumManager(plan, cfg), RowlessManager(plan, cfg)
    stores = MetricsStore(2, 1, 0.06, 0.0), MetricsStore(2, 1, 0.06, 0.0)
    for manager in managers:
        manager._cursor = cursor
    for epoch in range(5, 8):
        for cell in cells:
            cell.record(schedule_epoch(cell), True)
    assert all(cell.steady() for cell in cells)
    twins, runs, aggregate = copy.deepcopy(cells), [], controller_mod.aggregate_load

    def recording_aggregate(reports, gi):
        reports = list(reports)
        runs.append((gi, [r.used_rb_epochs for r in reports if r.group_index == gi]))
        return aggregate(reports, gi)

    monkeypatch.setattr(controller_mod, "aggregate_load", recording_aggregate)
    state = initial_allocation(plan, cfg)
    planned, end = engine_mod._fast_forward(stores[0], managers[0], clock, cells, state, 8, 58)
    planned_runs = runs[:]
    runs.clear()
    walked = state
    for epoch in range(8, end):
        for twin in twins:
            twin.record(schedule_epoch(twin), True)
        if (epoch + 1) % clock.period_epochs == 0:
            walked = engine_mod._period_end(stores[1], managers[1], clock, twins, walked,
                                            epoch + 1, [period_load(twin.period)
                                                        for twin in twins])[0]
            for twin in twins:
                twin.period = []
    monkeypatch.undo()
    return ((managers[0], stores[0], planned, planned_runs),
            (managers[1], stores[1], walked, runs), end)


def assert_same_period_ends(planned, walked):
    """The plan's samples, timeline rows, step count, cursor and state are
    the walk's."""
    (manager, store, state, _), (walk_manager, walk_store, walk_state, _) = planned, walked
    assert (store.utilization, store.timeline, store.sms_steps, manager._cursor) == (
        walk_store.utilization, walk_store.timeline, walk_store.sms_steps, walk_manager._cursor)
    assert (state.version, state.allocations) == (walk_state.version, walk_state.allocations)


def test_a_held_step_runs_once_per_group(monkeypatch):
    # Over steady twin cells every period of a plan reads equal load rows
    # (each whole period the same lists).  Each group's step runs once on
    # them; a group that held does not run again, but the other group runs
    # on the same rows, so group 1 (load 1.0) moves its boundary at its
    # first step when 1.0 is above the upper threshold, although group 0
    # (load 2/3) held on those rows, and the move stops the plan.  Samples,
    # timeline rows, the step count, the cursor and the state must be those
    # of an epoch-by-epoch walk whose steps all run.
    for upper, cursor, end, groups in ((1.0, 0, 55, [0, 1]), (1.0, 1, 55, [1, 0]),
                                       (0.8, 0, 15, [0, 1]), (0.8, 1, 10, [1])):
        cfg = CdssConfig(upper_threshold=upper)
        planned, walked, reached = plan_and_walk(monkeypatch, twin_cells(), (True, True),
                                                 cfg, cursor)
        assert reached == end, (upper, cursor)
        assert [gi for gi, _ in planned[3]] == groups, (upper, cursor)
        assert len(walked[3]) == walked[1].sms_steps == end // 5 - 1
        assert (planned[2].version > 0) == (upper < 1.0)
        assert_same_period_ends(planned, walked)


def test_a_held_step_runs_again_on_other_rows(monkeypatch):
    # A cell whose rotation does not divide the period reads its cycle from
    # the other start in the next whole period, so one group's load rows
    # alternate (cell 0 of `planning_cells`: 8 then 7 of 10 column-1
    # RB-epochs, period 5, rotation 2).  A group that held on one row runs
    # again on the other: every period end runs the step while all hold,
    # and with a lower threshold of 0.75 the step at the second period end
    # moves the boundary down, as in the walk.  Ahead of that cell, a twin
    # cell reads the same window list in every whole period, which must
    # not stand for the other cell's.
    for cells, lower, end, used in ((planning_cells()[:1], 0.0, 55, [[8], [7]] * 5),
                                    (planning_cells()[:1], 0.75, 15, [[8], [7]]),
                                    ([twin_cells()[1], planning_cells()[0]], 0.0, 55,
                                     [[10, 8], [10, 7]] * 5)):
        cfg = CdssConfig(lower_threshold=lower, upper_threshold=1.0)
        planned, walked, reached = plan_and_walk(monkeypatch, cells, (True, False), cfg, 0)
        assert reached == end, lower
        assert planned[3] == walked[3] and [u for _, u in planned[3]] == used, lower
        assert (planned[2].version > 0) == (lower > 0.0)
        assert_same_period_ends(planned, walked)


def counting_schedule(twin_hits, loops):
    """`schedule_epoch` that, for a node with UEs and a grant whose slot
    for its start does not hold its backlog, appends the node's id to
    `loops` if the call deals, which writes that slot, and to `twin_hits`
    if it replays the node's twin slot, which writes none."""
    schedule = engine_mod.schedule_epoch

    def counting(node):
        start = node.offset % node.rotation
        slot = node.slots.get(start)
        miss = node.ue_ids and node.granted and (slot is None or slot[0] != node.backlog)
        sched = schedule(node)
        if miss:
            (loops if node.slots.get(start) is not slot else twin_hits).append(node.node_id)
        return sched

    return counting


def test_grant_and_row_changes_keep_unchanged_memos(default_cfg, monkeypatch):
    # A grant rebuild keeps the memo of a node whose grant is equal, and a
    # row rewrite that of a node whose UEs' entries are, so the nodes that
    # keep theirs need not deal again before the run can fast-forward.  In
    # case 2, seeds 1 and 2, `schedule_epoch` runs the dealing loop 192
    # times in each on a node with UEs and a grant, and replays a twin slot
    # from a start with no slot of its key 36 and 33 times.  Clearing every
    # memo at each rebuild and rewrite makes it 228 loops in both; a
    # rebuild that clears every memo alone deals 224 times, a rewrite that
    # clears every memo alone 204 times (1,161 misses in seed 1 before a
    # drained node with a twin was steady from one slot).
    twin_hits, loops = [], []
    monkeypatch.setattr(engine_mod, "schedule_epoch", counting_schedule(twin_hits, loops))
    for seed, hits in ((1, 36), (2, 33)):
        twin_hits.clear()
        loops.clear()
        run_simulation(RunSpec(default_cfg, 2, seed))
        assert len(twin_hits) == hits, (seed, len(twin_hits))
        assert len(loops) == 192, (seed, len(loops))


def test_nodes_settle_from_scheduled_epochs_without_more_dealing(default_cfg, monkeypatch):
    # Scheduled epochs alone fill the replay memos: every `schedule_epoch`
    # call is one node's share of a scheduled epoch, and the run
    # fast-forwards once every node is steady.  A drained node whose twin
    # is verified (a deal whose takes do not depend on the rotation start)
    # is steady one epoch after a controller move; any other node settles
    # once the next n - 1 epochs have filled its other rotation starts.
    # The runs of case 2, seed 1, case 3, seed 2, and case 2, seed 12 (where
    # cell tn-3, 7 UEs, reaches a fixed point that is no twin three times)
    # schedule 19, 10 and 38 epochs (132 in case 2, seed 1, when each epoch
    # filled one slot per node; 21 in seed 12 when a fixed point's other
    # starts were dealt ahead).  A miss from a drained key copies its
    # node's `drained` arrivals, so `generate_arrivals` runs once per node
    # for them and once per miss from any other key: in case 2, where every
    # UE drains every epoch, 12 times for 12 nodes, and in case 3, seed 2,
    # 16 times.  A drained key whose node holds a twin replays the twin
    # slot without dealing, 36, 8 and 220 times, so the dealing loop runs
    # 192, 82 and 229 times (937 and 173 in the first two when every miss
    # dealt).
    twin_hits, loops, epochs, arrivals, calls = [], [], [], [], []
    counting, schedule_nodes = counting_schedule(twin_hits, loops), engine_mod._schedule_nodes
    generate_arrivals = traffic_mod.generate_arrivals

    def scheduling(nodes, credit):
        epochs.append(len(nodes))
        return schedule_nodes(nodes, credit)

    monkeypatch.setattr(engine_mod, "schedule_epoch",
                        lambda node: calls.append(1) or counting(node))
    monkeypatch.setattr(engine_mod, "_schedule_nodes", scheduling)
    monkeypatch.setattr(traffic_mod, "generate_arrivals",
                        lambda *args: arrivals.append(1) or generate_arrivals(*args))
    for case_id, seed, hits, most, added, looped in (
            (2, 1, 36, 25, 12, 192), (3, 2, 8, 30, 16, 82), (2, 12, 220, 40, 12, 229)):
        for counts in (twin_hits, loops, epochs, arrivals, calls):
            counts.clear()
        run_simulation(RunSpec(default_cfg, case_id, seed))
        assert len(twin_hits) == hits and len(epochs) <= most, \
            (case_id, len(twin_hits), len(epochs))
        assert len(arrivals) == added, (case_id, len(arrivals))
        assert len(loops) == looped, (case_id, len(loops))
        assert len(calls) == sum(epochs), (case_id, len(calls), sum(epochs))


def test_fast_forwarded_credit_is_paid_before_the_next_epoch_credits(fast_cfg, monkeypatch):
    # Bytes are added to each total in epoch order, so the epochs a
    # fast-forward credits must be in its node's books before the node's
    # next scheduled epoch is credited, and before the store is filled.
    # Before every epoch the run schedules, each node's books must hold
    # the values they hold at that epoch in a run that schedules every
    # epoch, and so must the store's totals at the end.
    books = {}                  # (run, epoch) -> each node's books before the epoch
    resumed = set()             # epochs a fast-forward ended on
    run, epoch = "forwarded", [0]
    schedule_nodes, plan = engine_mod._schedule_nodes, engine_mod._fast_forward

    def scheduling(nodes, credit):
        books[run, epoch[0]] = [list(node.books) for node in nodes]
        epoch[0] += 1
        return schedule_nodes(nodes, credit)

    def planning(*args):
        state, epoch[0] = plan(*args)
        resumed.add(epoch[0])
        return state, epoch[0]

    monkeypatch.setattr(engine_mod, "_schedule_nodes", scheduling)
    monkeypatch.setattr(engine_mod, "_fast_forward", planning)
    forwarded = run_simulation(RunSpec(fast_cfg, 2, 1))
    run, epoch[0] = "scheduled", 0
    monkeypatch.setattr(engine_mod, "_blocker", lambda nodes, last: 0)    # never steady
    scheduled = run_simulation(RunSpec(fast_cfg, 2, 1))
    checked = [e for run_name, e in books if run_name == "forwarded"]
    assert [e for e in checked if books["forwarded", e] != books["scheduled", e]] == []
    assert forwarded.ue_bytes == scheduled.ue_bytes
    warmup = SimClock.from_config(fast_cfg).warmup_epochs
    # node-epochs scheduled right after a credited stretch: 48 for this
    # seed, 4 epochs of 9 cells and 3 beams
    paid = sum(len(books["forwarded", e]) for e in checked if e in resumed and e > warmup)
    assert paid >= 12, paid
    assert len(books) == len(checked) + SimClock.from_config(fast_cfg).total_epochs


def benchmark_layers():
    """perfbench/layers.py, loaded by path (it is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_benchmark_tracer_names_resolve_on_engine():
    # perfbench/layers.py traces a run by swapping these names on the
    # engine module; a refactor that drops one breaks the traced benchmark.
    layers = benchmark_layers()
    names = [name for names in layers.ENGINE_LAYERS.values() for name in names]
    names += ["run_and_write", "_campaign_worker", "ProcessPoolExecutor", "SpectrumManager"]
    missing = [name for name in names if not hasattr(engine_mod, name)]
    assert missing == []
    assert hasattr(engine_mod.SpectrumManager, "sms_step")


def test_benchmark_tracer_counts_dealt_and_offered_rbs():
    # The traced benchmark wraps schedule_epoch with an observer that reads
    # the returned record's `used_rb` and `granted`; a change to the record
    # must keep its counts.  Two UEs with 450 bytes each take 4 of 10 RBs
    # of 225 bytes, on a miss and on a replay hit alike; a node with UEs
    # and no grant deals and offers none.
    layers = benchmark_layers()
    tracer = layers.Tracer()
    traced = tracer.wrap("traffic.schedule", schedule_epoch, layers.OBSERVERS["schedule_epoch"])
    granted = list(range(10))
    node = Node("tn-0", 0, [0, 1], 0, [], [0.0, 0.0])
    node.set_grant(granted, *grant_tables(granted, [[225.0, 225.0]] * 10, [0] * 10))
    returned = []
    for _ in range(3):                  # rotation starts 0, 1, then 0 again
        node.backlog = [450.0, 450.0]
        returned.append(traced(node))
    assert returned[2] is returned[0]   # the hit
    idle = Node("tn-1", 1, [2], 0, [0.0], [1.0])
    idle.set_grant([], [], [(0, 0)], None)
    traced(idle)
    assert tracer.calls["traffic.schedule"] == 4
    assert tracer.counts == {"rbs_dealt": 12, "rbs_offered": 30}
