import json

import pytest

from cdss_sim.cli import EXIT_CONFIG, EXIT_OK, _parse_cases, _parse_seeds, main
from cdss_sim.errors import ConfigurationError

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


def test_validate_non_finite_values_exit_one(tmp_path, capsys):
    # NaN slips through range checks and inf overflows the epoch counts;
    # each must be a configuration error, not a run or a traceback.
    bad = tmp_path / "bad.ini"
    for section, key in (("band", "rb_bandwidth_hz"), ("sim", "epoch_ms"),
                         ("sim", "total_s"), ("sim", "warmup_s"), ("cdss", "period_s")):
        for value in ("nan", "inf"):
            bad.write_text(f"[{section}]\n{key} = {value}\n")
            assert main(["validate", "--scenario", str(bad)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: [{section}] {key}"), err
            assert err.count("\n") == 1


def test_validate_radio_and_traffic_domain_exit_one(tmp_path, capsys):
    # Each passed validation once and then crashed the link budget with a
    # raw ValueError (or, for NaN rates, ran); `validate` and `run` must
    # both reject it with one line.
    bad = tmp_path / "bad.ini"
    cases = [("radio", "freq_ghz", value) for value in ("-2", "0", "nan", "inf")]
    cases += [("radio", "elevation_deg", value) for value in ("0", "-10", "90.5", "nan")]
    cases += [("traffic", key, value)
              for key in ("ld_tn_kbps", "ld_ntn_kbps", "hd_tn_kbps", "hd_ntn_kbps")
              for value in ("nan", "inf", "-1")]
    for section, key, value in cases:
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        for argv in (["validate"],
                     ["run", "--case", "2", "--out", str(tmp_path / "out")]):
            assert main(argv + ["--scenario", str(bad)]) == EXIT_CONFIG, (key, value)
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: [{section}] {key}"), err
            assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_campaign_bad_grid_exits_one(tmp_path, capsys):
    for flag, value in (("--seeds", "abc"), ("--case", "two"), ("--jobs", "0")):
        argv = ["campaign", flag, value, "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1


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


def test_epoch_ms_override_validated(fast_scenario_file, tmp_path):
    rc = main([
        "run", "--case", "1", "--scenario", str(fast_scenario_file),
        "--out", str(tmp_path / "x"), "--epoch-ms", "7.0", "--quiet",
    ])
    assert rc == EXIT_CONFIG
