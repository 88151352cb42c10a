"""Scenario runner, report schema and CLI behaviour."""

import json

import pytest

from cl13.cli import main
from cl13.verify import (
    Check,
    ConfigError,
    Report,
    ScenarioConfig,
    emit_report,
    run_scenario,
)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(suite="nope")
    with pytest.raises(ConfigError):
        ScenarioConfig(sample_count=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(tolerances={"bogus": 1.0})
    with pytest.raises(ConfigError):
        ScenarioConfig(grid_steps=(0.0,))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json_obj({"suite": "algebra", "mystery": 1})
    cfg = ScenarioConfig.from_json_obj({"suite": "algebra", "format": "text"})
    assert cfg.fmt == "text"


def test_empty_report_schema():
    report = Report({"name": "cl13", "version": "0.0"}, {}, [])
    obj = report.to_json_obj()
    assert obj["checks"] == []
    assert obj["summary"] == {"passed": 0, "failed": 0}
    assert set(obj) == {"tool", "config", "checks", "summary"}


def test_single_check_summary():
    ok = Check("a", "x", 0.0, 1e-9, 0.0)
    bad = Check("b", "x", 2.0, 1e-9, 0.0)
    report = Report({}, {}, [ok, bad])
    assert report.summary == {"passed": 1, "failed": 1}
    assert ok.status == "pass" and bad.status == "fail"


def test_algebra_scenario_passes():
    report = run_scenario(ScenarioConfig(suite="algebra", seed=7))
    assert report.failed == 0
    names = [c.name for c in report.checks]
    assert names == sorted(names)
    for c in report.checks:
        assert c.anchor and c.tolerance >= 0.0


def test_report_json_deterministic():
    cfg1 = ScenarioConfig(suite="idempotents", seed=5)
    cfg2 = ScenarioConfig(suite="idempotents", seed=5)
    r1 = emit_report(run_scenario(cfg1), "json")
    r2 = emit_report(run_scenario(cfg2), "json")
    assert r1 == r2
    obj = json.loads(r1)
    for check in obj["checks"]:
        assert set(check) == {"name", "anchor", "status", "residual", "tolerance"}


def test_text_report_contains_summary():
    report = run_scenario(ScenarioConfig(suite="idempotents", seed=5))
    text = emit_report(report, "text")
    assert "passed=" in text and "PASS" in text


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "idempotents", "--seed", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] == 0
    assert payload["config"]["suite"] == "idempotents"

    # Absurd residual tolerance forces failures -> exit 1.
    code = main(
        ["verify", "reduction", "--seed", "3", "--tol", "1e-30", "--out", str(out)]
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] >= 1

    # Usage errors -> exit 2.
    assert main(["verify", "not-a-suite"]) == 2
    assert main(["verify", "algebra", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 9, "sample_count": 4, "format": "text"}))
    out = tmp_path / "r.txt"
    code = main(
        [
            "verify",
            "idempotents",
            "--config",
            str(cfg_path),
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "passed=" in text  # text format came from the config file


def test_cli_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CL13_OUT_DIR", str(tmp_path))
    code = main(["verify", "idempotents", "--seed", "2", "--out", "nested.json"])
    assert code == 0
    assert (tmp_path / "nested.json").exists()


def test_cli_stdout(capsys):
    code = main(["verify", "idempotents", "--seed", "2", "--format", "text"])
    assert code == 0
    captured = capsys.readouterr()
    assert "passed=" in captured.out


def test_inline_idempotent_config(t2):
    cfg = ScenarioConfig(
        suite="idempotents", idempotent=t2.element.to_json_obj(), seed=3
    )
    resolved = cfg.resolve_idempotent()
    assert resolved.element.equals(t2.element, 1e-12)


def test_family_json_config(family):
    cfg = ScenarioConfig(suite="convergence", family=family.to_json_obj(), seed=3)
    fams = cfg.resolve_families()
    assert len(fams) == 1


def test_cli_config_top_level_must_be_object(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    assert main(["verify", "idempotents", "--config", str(cfg_path)]) == 2


def test_cli_malformed_family_file(tmp_path):
    # The poly term carries its powers but no coefficient.
    fam = {
        "factors": [
            {
                "generator": {"e12": [0.5, 0.0]},
                "shape": {"type": "poly", "coeffs": [[[1, 0, 0, 0]]]},
            }
        ]
    }
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(fam))
    assert main(["verify", "reduction", "--family", str(fam_path)]) == 2


def test_cli_nan_tolerance():
    assert main(["verify", "idempotents", "--tol", "nan"]) == 2


def test_cli_negative_exact_tolerance(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tolerances": {"exact": -1.0}}))
    assert main(["verify", "idempotents", "--config", str(cfg_path)]) == 2
