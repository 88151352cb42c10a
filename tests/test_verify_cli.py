"""Scenario runner, report schema and CLI behaviour."""

import json
import warnings
from collections import Counter

import numpy as np
import pytest

from cl13 import subspaces, verify
from cl13.algebra import E, J, CliffordElement, random_element
from cl13.cli import main
from cl13.fields import (
    CliffordField,
    ExpField,
    FieldFamily,
    ProductField,
    ShapeField,
    SumField,
    random_family,
)
from cl13.shapes import TrigShape
from cl13.subspaces import IDEMPOTENT_LABELS, fixed_idempotent, sample
from cl13.verify import (
    Check,
    ConfigError,
    Report,
    ScenarioConfig,
    _Suite,
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
    assert cfg.format == "text"


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


@pytest.mark.parametrize("residual", [float("nan"), float("inf")])
def test_a_non_finite_residual_fails_and_is_written_as_null(residual):
    check = Check("a", "x", residual, 1e-9, 0.0)
    assert check.status == "fail"
    assert check.to_json_obj()["residual"] is None
    report = emit_report(Report({}, {}, [check]))
    assert json.loads(report, parse_constant=_reject)["checks"][0]["residual"] is None


def test_a_nan_among_the_residuals_fails_the_check():
    suite = _Suite(ScenarioConfig(suite="algebra"))
    suite.add("a", "x", [0.0, np.array([1e-13, np.nan]), 1e-14], "involution")
    assert suite.checks[0].status == "fail"


def _reject(token):
    raise ValueError(f"not JSON: {token}")


def _write_family(tmp_path, obj) -> str:
    path = tmp_path / "family.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _overflowing_family() -> dict:
    # Fields of this size would overflow to inf and NaN at the sample points.
    gen = sample("sp_cl", seed=3, scale=0.5) * 1000
    return FieldFamily(((gen, random_family(1042).factors[0][1]),)).to_json_obj()


def test_a_family_that_overflows_is_a_config_error(tmp_path, capsys):
    path = _write_family(tmp_path, _overflowing_family())
    assert main(["verify", "reduction", "--family", path]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad family")


def test_a_family_that_overflows_is_rejected_before_the_symmetries_run(tmp_path, capsys):
    path = _write_family(tmp_path, _overflowing_family())
    assert main(["verify", "symmetries", "--family", path]) == 2
    assert capsys.readouterr().err.startswith("error: bad family")


def test_an_unmeasurable_slope_is_written_as_null(tmp_path, capsys):
    # Constant fields: central differences are exact, so there is no slope.
    path = _write_family(tmp_path, {"factors": []})
    assert main(["verify", "convergence", "--family", path]) == 1
    checks = json.loads(capsys.readouterr().out, parse_constant=_reject)["checks"]
    slope = {c["name"]: c for c in checks}["convergence/fd-slope"]
    assert slope["residual"] is None and slope["status"] == "fail"


def test_cli_rejects_a_config_a_report_cannot_echo(tmp_path):
    shape = {"type": "poly", "coeffs": [[[0, 0, 0, 0], float("inf")]]}
    fam = {"factors": [{"generator": sample("sp_cl", seed=3).to_json_obj(), "shape": shape}]}
    assert main(["verify", "algebra", "--family", _write_family(tmp_path, fam)]) == 2


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


def test_cli_nan_grid_step():
    assert main(["verify", "convergence", "--grid-steps", "nan,1e-3,5e-4"]) == 2


def test_cli_non_numeric_m_values(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m_values": "abc"}))
    assert main(["verify", "reduction", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("suite", ["idempotents", "reduction"])
def test_cli_non_idempotent_custom_idempotent(tmp_path, suite):
    # (2e + e0)^2 = 5e + 4e0 is not 2e + e0.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"idempotent": {"e": [2, 0], "e0": [1, 0]}}))
    assert main(["verify", suite, "--config", str(cfg_path)]) == 2


def test_an_idempotent_too_large_to_square_is_a_config_error_without_warnings(tmp_path):
    # |M|_F / 2 <= 1 for an orthogonal projector, so 1e300 e is rejected by
    # its norm before t * t overflows; any numpy warning fails the test.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"idempotent": {"e": [1e300, 0]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "idempotents", "--config", str(cfg_path)]) == 2


def test_cli_unknown_idempotent_label():
    assert main(["verify", "idempotents", "--idempotent", "t9"]) == 2


def test_cli_non_symplectic_family(tmp_path):
    # The unit e is not in sp(cl(1,3)) = i*(real grade-1) + (real grade-2).
    fam = {
        "factors": [
            {
                "generator": {"e": [1, 0]},
                "shape": {"type": "poly", "coeffs": [[[1, 0, 0, 0], 0.5]]},
            }
        ]
    }
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(fam))
    assert main(["verify", "reduction", "--family", str(fam_path)]) == 2


@pytest.mark.parametrize(
    "obj",
    [
        {"sample_count": 2.5},
        {"sample_count": True},
        {"seed": "x"},
        {"seed": -1},
        {"tolerances": []},
        {"m_values": [1e308]},  # m**3 overflows
        {"m_values": "12"},  # not read one character at a time
        {"grid_steps": "12"},
        {"m_values": [True]},
        {"tolerances": {"exact": True}},
        {"m_values": [10**400]},  # no float holds it
    ],
    ids=["fractional-sample-count", "bool-sample-count", "string-seed", "negative-seed",
         "list-tolerances", "mass-cube-overflows", "string-m-values", "string-grid-steps",
         "bool-mass", "bool-tolerance", "int-mass-beyond-float"],
)
def test_cli_malformed_config_value(tmp_path, capsys, obj):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(obj))
    assert main(["verify", "reduction", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _family(generator=None, shape=None) -> dict:
    generator = generator or {"e12": [0.5, 0.0]}
    shape = shape or {"type": "poly", "coeffs": [[[1, 0, 0, 0], 0.5]]}
    return {"family": {"factors": [{"generator": generator, "shape": shape}]}}


def _poly(powers, coeff) -> dict:
    return _family(shape={"type": "poly", "coeffs": [[powers, coeff]]})


def _trig(**coeffs) -> dict:
    wave = {"kind": "sin", "amplitude": 0.5, "wave_vector": [1.0, 0.0, 0.0, 0.0]}
    return _family(shape={"type": "trig", "coeffs": {**wave, **coeffs}})


_MALFORMED = {
    "idempotent-overflow": ({"idempotent": {"e": [10**400, 0]}}, []),
    "fractional-power": (_poly([1.5, 0, 0, 0], 0.5), []),
    "string-power": (_poly(["1", 0, 0, 0], 0.5), []),
    "bool-power": (_poly([True, 0, 0, 0], 0.5), []),
    "string-poly-coefficient": (_poly([1, 0, 0, 0], "0.5"), []),
    "bool-poly-coefficient": (_poly([1, 0, 0, 0], True), []),
    "string-amplitude": (_trig(amplitude="0.5"), []),
    "string-wave-vector": (_trig(wave_vector=["1", "0", "0", "0"]), []),
    "bool-phase": (_trig(phase=True), []),
    "bool-generator-coefficient": (_family({"e12": [True, 0]}), []),
    "bool-idempotent-coefficient": ({"idempotent": {"e": [True, 0]}}, []),
    "misspelt-phase": (_trig(phse=0.3), []),
    "huge-sample-count": ({}, ["--sample-count", "1000000000000000000000"]),
}


@pytest.mark.parametrize("config, flags", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_cli_rejects_a_malformed_json_number_or_key(tmp_path, capsys, config, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["verify", "reduction", "--config", str(cfg_path), *flags]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_the_sample_count_limit_is_accepted_and_one_more_is_not():
    assert verify._SAMPLE_LIMIT >= 2000
    ScenarioConfig(sample_count=verify._SAMPLE_LIMIT)
    with pytest.raises(ConfigError):
        ScenarioConfig(sample_count=verify._SAMPLE_LIMIT + 1)


def test_cli_rejects_a_family_whose_derivatives_exceed_the_limit(tmp_path, capsys):
    # A plane wave of wave vector 1e160: small values, derivatives that overflow.
    wave = TrigShape("sin", 1.0, (1e160, 1e160, 0, 0))
    fam = FieldFamily(((sample("sp_cl", seed=3, scale=0.5), wave),))
    assert fam.bound(1e-2) <= verify._FAMILY_LIMIT < fam.derivative_bound(1e-2)
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(fam.to_json_obj()))
    assert main(["verify", "reduction", "--family", str(fam_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "steps, well_conditioned",
    [
        ((1e-2, 5e-3, 2.5e-3), True),
        ((1e-3, 1.000000000001e-3), True),
        ((float(np.finfo(float).eps), 1.0), True),
        ((2.220446049250313e-16, 2.2204460492503136e-16), False),
    ],
)
def test_grid_steps_are_a_config_error_exactly_when_the_slope_fit_is_rank_deficient(
    capsys, steps, well_conditioned
):
    # np.polyfit warns (RankWarning, a RuntimeWarning) on the steps that
    # the config rejects, and runs silently on those it accepts.
    fit = lambda: np.polyfit(np.log(steps), np.log(np.arange(1.0, len(steps) + 1)), 1)
    argv = ["verify", "convergence", "--grid-steps", ",".join(map(repr, steps))]
    if well_conditioned:
        fit()
        assert main(argv) in (0, 1)
    else:
        with pytest.warns(RuntimeWarning):
            fit()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


def _count_evaluations(monkeypatch, classes):
    """Per (node, point array), how often the nodes of ``classes`` are
    evaluated; every node and array seen is held, so no identity is reused."""
    counts, arrays = Counter(), []
    for cls in classes:

        def counted(self, points, evaluate=vars(cls)["_evaluate"]):
            arrays.append(points.x)
            counts[self, id(points.x)] += 1
            return evaluate(self, points)

        monkeypatch.setattr(cls, "_evaluate", counted)
    return counts


def test_a_reduction_report_evaluates_each_exponential_once(monkeypatch):
    # W and W^-1 of the three families hold 12 exponentials.  Every node of
    # the report, d_mu C_nu among them, is evaluated once per point array:
    # each family's pass evaluates W, h, C and their partials for all masses.
    classes = [cls for cls in CliffordField.__subclasses__() if "_evaluate" in vars(cls)]
    assert {ExpField, ProductField, ShapeField, SumField} <= set(classes)
    counts = _count_evaluations(monkeypatch, classes)
    cfg = ScenarioConfig(suite="reduction", seed=1, sample_count=128)
    for _ in range(2):
        counts.clear()
        run_scenario(cfg)
        assert set(counts.values()) == {1}
        assert sum(isinstance(node, ExpField) for node, _ in counts) == 12


def test_a_symmetries_report_evaluates_each_exponential_once_per_point_array(monkeypatch):
    # Each transformation's payload is evaluated once for both field sets,
    # and the global_unitary payload once at the origin for its t-law.
    counts = _count_evaluations(monkeypatch, [ExpField])
    run_scenario(ScenarioConfig(suite="symmetries", seed=42))
    assert set(counts.values()) == {1}


def test_source_nonzero_fails_when_one_point_has_no_source(monkeypatch):
    # The 1e-6 floor holds at every sample point, not only the first.
    source_norm = verify.source_norm

    def no_source_at_the_last_point(fs, points):
        norms = source_norm(fs, points).copy()
        norms[-1] = 0.0
        return norms

    monkeypatch.setattr(verify, "source_norm", no_source_at_the_last_point)
    report = run_scenario(ScenarioConfig(suite="reduction", seed=1))
    status = {c.name: c.status for c in report.checks}
    assert status["reduction/source-nonzero"] == "fail"


def test_cli_negative_seed_flag():
    assert main(["verify", "algebra", "--seed", "-1"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["reduction", "--m", ","],
        ["symmetries", "--m", ","],
        ["convergence", "--m", ","],
        ["convergence", "--grid-steps", ","],
        ["convergence", "--grid-steps", "1e-3"],
        ["convergence", "--grid-steps", "1e-3,1e-3"],
        ["convergence", "--grid-steps", "1e300,1e-3"],  # exp overflows off the box
        ["convergence", "--grid-steps", "5e-324,1e-3"],  # 0.5 / step is infinite
        ["reduction", "--m", "1e60"],  # residual norms overflow
        # seed + offset up to 6009 must fit the suites' int64 seed arrays
        ["subspaces", "--seed", "9223372036854775000"],
        ["algebra", "--seed", "18446744073709551616"],
    ],
    ids=lambda args: " ".join(args),
)
def test_cli_rejects_flags_a_suite_cannot_run(capsys, args):
    assert main(["verify", *args]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_the_largest_accepted_seed_runs_the_kernel_suites():
    assert verify._SEED_LIMIT + 6009 < np.iinfo(np.int64).max
    ScenarioConfig(seed=22_000_000_000)  # bench kernel-sweep seeds stay valid
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=verify._SEED_LIMIT + 1)
    for suite in ("algebra", "subspaces"):
        run_scenario(ScenarioConfig(suite=suite, seed=verify._SEED_LIMIT))


def test_each_check_is_timed_from_the_previous_check(monkeypatch):
    suite = _Suite(ScenarioConfig(suite="algebra"))

    def three_checks(s):
        for name in ("a", "b", "c"):
            s.add(name, "anchor", [0.0], "exact")

    ticks = iter([10.0, 11.0, 13.0, 16.0, 100.0, 105.0, 106.0, 108.0])
    monkeypatch.setattr(verify.time, "perf_counter", lambda: next(ticks))
    suite.run(three_checks)
    suite.run(three_checks)  # the clock restarts with each suite
    assert [c.elapsed for c in suite.checks] == [1.0, 2.0, 3.0, 5.0, 1.0, 2.0]


def _involution_laws_by_pair(seed: int) -> float:
    """The involution-law residual, one random pair at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        u = random_element(rng)
        v = random_element(rng)
        uv = u * v
        worst = max(
            worst,
            (uv.pseudo_conj() - v.pseudo_conj() * u.pseudo_conj()).norm(),
            ((u + v).pseudo_conj() - (u.pseudo_conj() + v.pseudo_conj())).norm(),
            (u.pseudo_conj().pseudo_conj() - u).norm(),
            (u.herm_conj().herm_conj() - u).norm(),
            (uv.herm_conj() - v.herm_conj() * u.herm_conj()).norm(),
            (u.conj().conj() - u).norm(),
            (uv.conj() - u.conj() * v.conj()).norm(),
        )
    return worst


@pytest.mark.parametrize("seed", range(5))
def test_involution_laws_check_equals_a_per_pair_loop(seed):
    report = run_scenario(ScenarioConfig(suite="algebra", seed=seed))
    residuals = {c.name: c.residual for c in report.checks}
    assert residuals["algebra/involution-laws"] == _involution_laws_by_pair(seed)


# One ulp of a unit coefficient, so the lifted residual stays far above the
# underflow of the exact norm's float result.
ULP = np.spacing(1.0)


@pytest.mark.parametrize(
    "module, name, mutant, suite, check",
    [
        (verify, "E", E * (1 + ULP), "algebra", "algebra/generator-relations-exact"),
        (
            subspaces,
            "J",
            J + CliffordElement.from_blade("e1", ULP),
            "idempotents",
            "idempotents/defining-conditions-exact",
        ),
    ],
)
def test_an_exact_check_lifts_its_float_constants_without_rounding(
    monkeypatch, module, name, mutant, suite, check
):
    def residual():
        report = run_scenario(ScenarioConfig(suite=suite, seed=1))
        return next(c for c in report.checks if c.name == check)

    assert residual().residual == 0.0
    monkeypatch.setattr(module, name, mutant)
    mutated = residual()
    assert mutated.residual > 0.0 and mutated.status == "fail"


def test_no_exact_element_is_made_in_the_field_layer(monkeypatch):
    # An exact value in a field tree would turn each 4x4 GEMM into a
    # blade-table loop.  The reference idempotents are built once per
    # process from their exact table, before counting starts.
    for label in IDEMPOTENT_LABELS:
        fixed_idempotent(label)
    made = Counter()
    init = CliffordElement.__init__

    def counting_init(self, coeffs, exact=False):
        made[bool(exact)] += 1
        init(self, coeffs, exact)

    monkeypatch.setattr(CliffordElement, "__init__", counting_init)
    for suite in ("reduction", "convergence"):
        assert run_scenario(ScenarioConfig(suite=suite, seed=1)).failed == 0
    assert made[False] > 0 and made[True] == 0
