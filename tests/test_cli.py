import json
from dataclasses import fields

import pytest

import cdss_sim.engine as engine_mod
from cdss_sim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, _parse_cases, _parse_seeds, main
from cdss_sim.domains import DOMAINS, RADIO_DB_FIELDS
from cdss_sim.errors import ConfigurationError
from cdss_sim.scenario import default_scenario

FAST_SCENARIO = """\
[sim]
total_s = 2.0
warmup_s = 1.0
"""


@pytest.fixture()
def fast_scenario_file(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_SCENARIO)
    return path


def test_parse_seeds_forms():
    assert _parse_seeds("3") == [3]
    assert _parse_seeds("1,2,5") == [1, 2, 5]
    assert _parse_seeds("1..4") == [1, 2, 3, 4]
    for bad in ("5..1", "abc", "1..x", "1,two"):
        with pytest.raises(ConfigurationError):
            _parse_seeds(bad)


def test_parse_cases_validates_range():
    assert _parse_cases("1,2,3,4") == [1, 2, 3, 4]
    for bad in ("0", "two"):
        with pytest.raises(ConfigurationError):
            _parse_cases(bad)


def test_validate_default_scenario_exits_zero(capsys):
    assert main(["validate", "--quiet"]) == EXIT_OK


def test_validate_bad_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[cdss]\nlower_threshold = 0.9\nupper_threshold = 0.8\n")
    # a bad value, a missing file, a directory
    for scenario in (bad, tmp_path / "missing.ini", tmp_path):
        assert main(["validate", "--scenario", str(scenario)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1


def non_finite_lines():
    """(section, key, scenario line) for every float field of the default
    scenario, once each with nan, inf and -inf; the beam centres get the
    value in the first beam's x."""
    cfg = default_scenario()
    for section in fields(cfg):
        params = getattr(cfg, section.name)
        for f in fields(params):
            default = getattr(params, f.name)
            for value in ("nan", "inf", "-inf"):
                if isinstance(default, float):
                    yield section.name, f.name, f"{f.name} = {value}"
                elif f.name == "beam_centers_m":
                    pairs = [f"{value}, {default[0][1]}"]
                    pairs += [f"{x}, {y}" for x, y in default[1:]]
                    yield section.name, f.name, f"{f.name} = {'; '.join(pairs)}"


def test_validate_non_finite_values_exit_one(tmp_path, capsys):
    # NaN slips through range checks and inf overflows the epoch counts;
    # each must be a configuration error, not a run or a traceback.
    bad = tmp_path / "bad.ini"
    keys = set()
    for section, key, line in non_finite_lines():
        keys.add((section, key))
        bad.write_text(f"[{section}]\n{line}\n")
        for argv in (["validate"],
                     ["run", "--case", "2", "--out", str(tmp_path / "out")]):
            assert main(argv + ["--scenario", str(bad)]) == EXIT_CONFIG, line
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: [{section}]"), err
            assert key in err and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()
    assert {("band", "rb_bandwidth_hz"), ("sim", "epoch_ms"), ("sim", "total_s"),
            ("sim", "warmup_s"), ("cdss", "period_s"), ("radio", "se_cap_bps_hz"),
            ("topology", "isd_m"), ("topology", "beam_centers_m")} <= keys


def test_validate_and_run_agree_on_epoch_counts(tmp_path, capsys):
    # The first two passed `validate` once and then failed `run` on their
    # epoch counts; a negative warmup must fail both, however small.  An
    # epoch so short that it underflows, or a duration whose epoch count
    # overflows, raised OverflowError or ZeroDivisionError (exit 2).
    bad = tmp_path / "bad.ini"
    probes = [("[cdss]\nperiod_s = 1e-13\n", "[cdss] period_s"),
              ("[sim]\nwarmup_s = 0\ntotal_s = 1e-13\n", "[sim] total_s"),
              ("[sim]\nwarmup_s = -0.01\n", "[sim] warmup_s"),
              ("[sim]\nwarmup_s = -1e-13\n", "[sim] warmup_s")]
    probes += [(f"[sim]\nepoch_ms = {value}\n", "[sim] epoch_ms")
               for value in ("1e-310", "1e-320", "5e-324")]
    # passed `validate` and then overflowed the RB byte scale in `run` (exit 2)
    probes.append(("[sim]\nepoch_ms = 1e306\ntotal_s = 3e304\nwarmup_s = 1e304\n"
                   "[cdss]\nperiod_s = 1e304\n", "[sim] epoch_ms"))
    probes += [(f"[{section}]\n{key} = 1.7e308\n", f"[{section}] {key}")
               for section, key in (("cdss", "period_s"), ("sim", "total_s"),
                                    ("sim", "warmup_s"))]
    for text, path in probes:
        bad.write_text(text)
        for argv in (["validate"],
                     ["run", "--case", "1", "--out", str(tmp_path / "out")]):
            assert main(argv + ["--scenario", str(bad)]) == EXIT_CONFIG, text
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {path}"), err
            assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_validate_radio_and_traffic_domain_exit_one(tmp_path, capsys):
    # Each passed validation once and then crashed the link budget with a
    # raw ValueError (or, for NaN rates, ran); `validate` and `run` must
    # both reject it with one line.
    bad = tmp_path / "bad.ini"
    cases = [("radio", "freq_ghz", value) for value in ("-2", "0", "nan", "inf")]
    cases += [("radio", "elevation_deg", value) for value in ("0", "-10", "90.5", "nan")]
    # 5e-324 passed validation, and the slant range then divided by a zero
    # sine; the domain's lower edge is 10 degrees
    cases += [("radio", "elevation_deg", value) for value in ("5e-324", "9.999")]
    # 1.7e308 kbps ran to exit 0 with infinite backlogs; the upper edge is
    # 1e8 kbps
    rate_max = DOMAINS[("traffic", "ld_tn_kbps")][1]
    cases += [("traffic", key, value)
              for key in ("ld_tn_kbps", "ld_ntn_kbps", "hd_tn_kbps", "hd_ntn_kbps")
              for value in ("nan", "inf", "-1", "1.7e308", repr(rate_max * (1 + 1e-9)))]
    # these divide or take a log in the link budget or the placement
    cases += [("radio", key, value)
              for key in ("sat_altitude_km", "los_scale_m", "beam_3db_radius_km",
                          "tn_sector_width_deg")
              for value in ("0", "-1")]
    # powers, gains and losses: 1e9 dB passed validation and overflowed the
    # noise power in `run`; just outside either edge is rejected
    cases += [("radio", key, value) for key in RADIO_DB_FIELDS
              for lo, hi in [DOMAINS[("radio", key)]]
              for value in (repr(hi + 1e-9), repr(lo - 1e-9), "1e9")]
    # these passed validation once: at 1e-300 the link budget overflowed
    # (exit 2), and a negative SE cap or a 1e300 floor ran to meaningless
    # outputs; just outside each domain is rejected too
    cases += [("radio", key, value)
              for key in ("freq_ghz", "sat_altitude_km", "beam_3db_radius_km",
                          "tn_sector_width_deg")
              for lo, hi in [DOMAINS[("radio", key)]]
              for value in ("1e-300", repr(lo * (1 - 1e-9)), repr(hi * (1 + 1e-9)))]
    se_max = DOMAINS[("radio", "se_cap_bps_hz")][1]
    cases += [("radio", "se_cap_bps_hz", value)
              for value in ("-1", "0", repr(se_max * (1 + 1e-9)))]
    cases += [("radio", "se_min_bps_hz", value) for value in ("1e300", "-1e-9", "7.4000001")]
    # at 1e-300 Hz a run exited 0 with meaningless outputs
    lo, hi = DOMAINS[("band", "rb_bandwidth_hz")]
    cases += [("band", "rb_bandwidth_hz", value)
              for value in ("1e-300", "0", "-1", repr(lo * (1 - 1e-9)), repr(hi * (1 + 1e-9)))]
    # a placement range that overflows raised OverflowError (exit 2)
    isd_max = DOMAINS[("topology", "isd_m")][1]
    cases += [("topology", "isd_m", value) for value in ("1.7e308", repr(isd_max * (1 + 1e-9)))]
    far = DOMAINS[("topology", "beam_centers_m")][0]
    cases += [("topology", "beam_centers_m", f"{x}, 0; 6000.0, 4000.0; 70000.0, 0.0")
              for x in ("1e200", repr(far * (1 + 1e-9)))]
    for section, key, value in cases:
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        for argv in (["validate"],
                     ["run", "--case", "2", "--out", str(tmp_path / "out")]):
            assert main(argv + ["--scenario", str(bad)]) == EXIT_CONFIG, (key, value)
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: [{section}] {key}"), err
            assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_unbounded_work_and_tiny_isd_exit_one(tmp_path, capsys):
    # Each passed validation once, and `run` then never finished: 10^10
    # epochs, a million UEs or cells, or (isd_m) a cell that lies wholly
    # inside the mast exclusion, so UE placement rejects every draw.
    bad = tmp_path / "bad.ini"
    probes = [("sim", "epoch_ms", "1e-6"), ("sim", "total_s", "1e9"),
              ("topology", "ues_per_tn_cell", "1000000"),
              ("topology", "ues_per_beam", "1000000"),
              ("topology", "sectors_per_site", "1000000"),
              ("topology", "isd_m", "1e-9"), ("topology", "isd_m", "3.9"),
              ("band", "total_rbs", "1000000000")]
    for section, key, value in probes:
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        for argv in (["validate"],
                     ["run", "--case", "2", "--out", str(tmp_path / "out")]):
            assert main(argv + ["--scenario", str(bad)]) == EXIT_CONFIG, (key, value)
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ["), err
            assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_unexpected_error_is_one_line_exit_two(fast_scenario_file, tmp_path, capsys,
                                              monkeypatch):
    # An error the program does not expect is reported in one line, not a
    # traceback.
    def simulate(spec):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(engine_mod, "run_simulation", simulate)
    argv = ["run", "--case", "1", "--scenario", str(fast_scenario_file),
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("runtime error: OverflowError: "), err
    assert err.count("\n") == 1, err


def test_campaign_bad_grid_exits_one(tmp_path, capsys):
    for flag, value in (("--seeds", "abc"), ("--case", "two"), ("--jobs", "0")):
        argv = ["campaign", flag, value, "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1


def test_unwritable_out_exits_two(fast_scenario_file, tmp_path, capsys, monkeypatch):
    # A directory that cannot be created is one runtime error line, found
    # before anything is simulated.
    def simulate(spec):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(engine_mod, "run_simulation", simulate)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (["run", "--case", "1"], ["campaign", "--case", "1", "--seeds", "1"]):
        argv += ["--scenario", str(fast_scenario_file), "--out", str(blocker / "x")]
        assert main(argv + ["--quiet"]) == EXIT_RUNTIME, argv
        err = capsys.readouterr().err
        assert err.startswith("runtime error: cannot create output directory"), err
        assert err.count("\n") == 1


def test_run_out_of_range_case_exits_one(capsys):
    assert main(["run", "--case", "5", "--out", "/tmp/unused"]) == EXIT_CONFIG


def test_run_writes_reports_and_prints_summary(fast_scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "run", "--case", "2", "--seed", "1",
        "--scenario", str(fast_scenario_file), "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert (out / "2_1_summary.json").exists()
    captured = capsys.readouterr().out
    assert "case 2" in captured and "total RX bytes" in captured
    summary = json.loads((out / "2_1_summary.json").read_text())
    assert summary["case"] == 2


def test_campaign_grid_and_aggregate_table(fast_scenario_file, tmp_path, capsys):
    out = tmp_path / "camp"
    rc = main([
        "campaign", "--case", "1,2", "--seeds", "1..2",
        "--scenario", str(fast_scenario_file), "--out", str(out),
    ])
    assert rc == EXIT_OK
    for case in (1, 2):
        for seed in (1, 2):
            assert (out / f"{case}_{seed}_summary.json").exists()
    assert (out / "campaign_totals.csv").exists()
    captured = capsys.readouterr().out
    assert "4 runs" in captured


def test_epoch_ms_override_validated(fast_scenario_file, tmp_path, capsys):
    for value, path in (("7.0", "[cdss] period_s"), ("5e-324", "[sim] epoch_ms")):
        rc = main([
            "run", "--case", "1", "--scenario", str(fast_scenario_file),
            "--out", str(tmp_path / "x"), "--epoch-ms", value, "--quiet",
        ])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}") and err.count("\n") == 1, err


def test_campaign_with_no_ue_writes_header_only_cdfs(tmp_path, capsys):
    # validate and run accept a scenario with no UE, so a campaign on it
    # runs too: every run succeeds, and each case's pooled CDF has no sample.
    scenario = tmp_path / "empty.ini"
    scenario.write_text("[topology]\nues_per_tn_cell = 0\nues_per_beam = 0\n"
                        "[sim]\ntotal_s = 0.5\nwarmup_s = 0.25\n")
    out = tmp_path / "camp"
    argv = ["campaign", "--case", "1,2", "--seeds", "1..2", "--scenario", str(scenario),
            "--out", str(out)]
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    totals = (out / "campaign_totals.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in totals[1:]] == [["1", "2"], ["2", "2"]]
    for case in (1, 2):
        cdf = (out / f"{case}_pooled_throughput_cdf.csv").read_text()
        assert cdf == "throughput_bps,probability\n"
