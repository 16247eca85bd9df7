import math

import pytest

from cdss_sim.band import build_band_plan
from cdss_sim.domains import DOMAINS
from cdss_sim.errors import ConfigurationError
from cdss_sim.scenario import (
    CASES,
    MAX_RUN_WORK,
    build_topology,
    default_scenario,
    demand_bps,
    derive_seed,
    parse_scenario,
    serialize_scenario,
    site_positions,
)


def test_empty_document_gives_defaults():
    assert parse_scenario("") == default_scenario()


def test_partial_override_keeps_other_defaults():
    cfg = parse_scenario("[cdss]\nstep_rbs = 2\n")
    assert cfg.cdss.step_rbs == 2
    assert cfg.cdss.tn_min == 12
    assert cfg.band == default_scenario().band


def test_threshold_ordering_rejected():
    with pytest.raises(ConfigurationError, match="thresholds"):
        parse_scenario("[cdss]\nlower_threshold = 0.9\nupper_threshold = 0.8\n")


def test_unknown_key_rejected_with_path():
    # and each value that does not parse as its field's type
    for text, message in (
            ("[band]\nbogus = 1\n", r"^\[band\] bogus: unknown key"),
            ("[topology]\nbeam_centers_m = 2000, 1500, 0; 6000, 4000; 70000, 0\n",
             r"^\[topology\] beam_centers_m: cannot parse"),
            ("[band]\ncoordinated = maybe\n", r"^\[band\] coordinated: expected a boolean"),
            ("[band]\ntotal_rbs = 1.5\n", r"^\[band\] total_rbs: cannot parse")):
        with pytest.raises(ConfigurationError, match=message):
            parse_scenario(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigurationError, match=r"\[nonsense\]"):
        parse_scenario("[nonsense]\nx = 1\n")


def test_default_section_rejected():
    # configparser's DEFAULT section would be ignored on its own and copied
    # into every other section, where its keys pass as that section's
    for text in ("[DEFAULT]\nbogus = 1\n",
                 "[DEFAULT]\ntotal_rbs = 100\n[band]\n",
                 "[DEFAULT]\ntotal_rbs = 100\n[band]\n[sim]\n",
                 "[DEFAULT]\n"):
        with pytest.raises(ConfigurationError, match=r"^\[DEFAULT\]: unknown section"):
            parse_scenario(text)


def test_malformed_syntax_rejected():
    with pytest.raises(ConfigurationError, match="malformed"):
        parse_scenario("not an ini file at all\n= =")


def test_reference_band_accepted_with_expected_group_sizes():
    cfg = parse_scenario("[band]\ntotal_rbs = 160\nnum_groups = 3\n")
    plan = build_band_plan(
        cfg.band.total_rbs, cfg.band.num_groups, cfg.band.coordinated
    )
    assert [g.size for g in plan.groups] == [54, 53, 53]


def test_round_trip_identity():
    cfg = default_scenario()
    assert parse_scenario(serialize_scenario(cfg)) == cfg


def test_round_trip_identity_with_overrides():
    overrides = (
        "[band]\ntotal_rbs = 120\nnum_groups = 2\ncoordinated = true, false\n"
        "[radio]\nntn_eirp_dbm = 70.5\n"
        "[topology]\nbeam_centers_m = 0, 0; 50000, 2000\nbeam_groups = 0, 1\n"
        "[sim]\ntotal_s = 4.0\nwarmup_s = 2.0\n",
        # no beams: the empty lists serialize as empty values
        "[topology]\nbeam_centers_m =\nbeam_groups =\n",
    )
    for text in overrides:
        cfg = parse_scenario(text)
        assert parse_scenario(serialize_scenario(cfg)) == cfg
    assert cfg.topology.beam_centers_m == cfg.topology.beam_groups == ()


def test_infeasible_minimums_rejected_at_parse():
    with pytest.raises(ConfigurationError, match="group"):
        parse_scenario("[band]\ntotal_rbs = 30\nnum_groups = 3\ncoordinated = true, true, true\n")


def test_period_must_be_whole_epochs():
    with pytest.raises(ConfigurationError, match="period_s"):
        parse_scenario("[cdss]\nperiod_s = 0.25\n[sim]\nepoch_ms = 7.0\n")


def test_warmup_must_precede_end():
    with pytest.raises(ConfigurationError, match="warmup"):
        parse_scenario("[sim]\nwarmup_s = 10.0\ntotal_s = 10.0\n")


def test_beam_group_out_of_range():
    with pytest.raises(ConfigurationError, match="beam_groups"):
        parse_scenario("[topology]\nbeam_groups = 0, 1, 9\n")


def test_beam_lists_length_mismatch():
    with pytest.raises(ConfigurationError, match="beam_groups"):
        parse_scenario("[topology]\nbeam_groups = 0, 1\n")


def test_work_bound_counts_epochs_band_and_topology():
    # 12 transmitters x 160 RBs x 3 groups + 105 UEs x (12 + 3) = 7335
    # work units per default epoch
    epochs = MAX_RUN_WORK // 7335
    parse_scenario(f"[sim]\ntotal_s = {epochs / 100}\n")
    with pytest.raises(ConfigurationError, match=r"\[sim\] total_s"):
        parse_scenario(f"[sim]\ntotal_s = {(epochs + 1) / 100}\n")


def test_work_bound_names_band_or_topology_when_one_epoch_is_too_large():
    # one epoch alone over the bound: the run length is not the cause, so
    # the message names the largest factor, the band or the topology
    with pytest.raises(ConfigurationError, match=r"^\[band\] total_rbs: .* one epoch"):
        parse_scenario("[band]\ntotal_rbs = 1000000000\n")
    with pytest.raises(ConfigurationError, match=r"^\[topology\] size: .* one epoch"):
        parse_scenario("[topology]\nsectors_per_site = 1000000\n")
    with pytest.raises(ConfigurationError, match=r"^\[topology\] size: .* one epoch"):
        parse_scenario("[topology]\nues_per_tn_cell = 100000000\n")


def test_smallest_isd_places_ues_outside_the_mast_exclusion():
    min_isd = DOMAINS[("topology", "isd_m")][0]
    cfg = parse_scenario(f"[topology]\nisd_m = {min_isd}\n")
    topo = build_topology(cfg, CASES[1], seed=1)
    cells = [c for c in topo.cells for _ in range(10)]
    assert all(math.dist(ue.xy, cell.site_xy) >= 1.0 for ue, cell in zip(topo.ues, cells))
    with pytest.raises(ConfigurationError, match=r"\[topology\] isd_m"):
        parse_scenario(f"[topology]\nisd_m = {min_isd * 0.99}\n")


def test_case_table_semantics():
    assert [CASES[c].ntn_enabled for c in (1, 2, 3, 4)] == [False, True, False, True]
    assert [CASES[c].high_demand for c in (1, 2, 3, 4)] == [False, False, True, True]


def test_site_layout_is_isd_triangle():
    cfg = default_scenario()
    sites = site_positions(cfg.topology)
    assert len(sites) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            d = math.dist(sites[i], sites[j])
            assert d == pytest.approx(7500.0)


def test_topology_counts_and_case_dependence():
    cfg = default_scenario()
    topo_cdss = build_topology(cfg, CASES[2], seed=1)
    topo_tn = build_topology(cfg, CASES[1], seed=1)
    assert len(topo_cdss.cells) == 9
    assert len(topo_cdss.beams) == 3
    assert len(topo_cdss.ues) == 105
    assert topo_tn.beams == []
    # in id order, which the engine reads them in
    assert ([c.cell_id for c in topo_cdss.cells], [b.beam_id for b in topo_cdss.beams],
            [u.ue_id for u in topo_cdss.ues]) == (list(range(9)), list(range(3)), list(range(105)))
    # same seed -> identical placement regardless of case
    assert [u.xy for u in topo_tn.ues] == [u.xy for u in topo_cdss.ues]


def test_topology_placement_respects_regions():
    cfg = default_scenario()
    topo = build_topology(cfg, CASES[2], seed=3)
    hex_radius = cfg.topology.isd_m / math.sqrt(3.0)
    for ue, cell in zip(topo.ues[:90], [c for c in topo.cells for _ in range(10)]):
        assert ue.kind == "tn"
        assert math.dist(ue.xy, cell.site_xy) <= hex_radius + 1e-6
    for i, beam in enumerate(topo.beams):
        for ue in topo.ues[90 + 5 * i : 95 + 5 * i]:
            assert ue.kind == "ntn"
            assert math.dist(ue.xy, beam.center_xy) <= 25_000.0 + 1e-6


def test_topology_seed_determinism():
    cfg = default_scenario()
    a = build_topology(cfg, CASES[2], seed=5)
    b = build_topology(cfg, CASES[2], seed=5)
    c = build_topology(cfg, CASES[2], seed=6)
    assert [u.xy for u in a.ues] == [u.xy for u in b.ues]
    assert [u.xy for u in a.ues] != [u.xy for u in c.ues]


def test_demand_by_kind_and_case():
    cfg = default_scenario()
    topo = build_topology(cfg, CASES[2], seed=1)
    tn_ue, ntn_ue = topo.ues[0], topo.ues[100]
    assert demand_bps(cfg, CASES[1], tn_ue) == 400e3
    assert demand_bps(cfg, CASES[2], ntn_ue) == 400e3
    assert demand_bps(cfg, CASES[3], tn_ue) == 4e6
    assert demand_bps(cfg, CASES[4], ntn_ue) == 1.2e6


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(1, "los") == derive_seed(1, "los")
    assert derive_seed(1, "los") != derive_seed(2, "los")
    assert derive_seed(1, "los") != derive_seed(1, "ue-placement")


def test_shipped_scenario_matches_builtin_defaults():
    from pathlib import Path

    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "default.ini"
    # each float there has a point, and a value parses as its default's
    # type, so this also fails for a float field whose default is an int
    assert parse_scenario(shipped.read_text()) == default_scenario()
