"""Scenario runner, report schema and CLI behaviour."""

import functools
import importlib
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cl13
from cl13 import algebra, subspaces, verify
from cl13.algebra import BLADE_SIGNS, E, J, CliffordElement, random_element
from cl13.cli import main
from cl13.exactnum import RationalComplex
from cl13.fields import (
    BracketField,
    CliffordField,
    ExpField,
    FieldFamily,
    MappedField,
    ProductField,
    ShapeField,
    SumField,
    random_family,
)
from cl13.rep import gamma_rep
from cl13.shapes import TrigShape
from cl13.subspaces import sample
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
    cfg = ScenarioConfig(suite="idempotents", idempotent=t2.to_json_obj(), seed=3)
    resolved = cfg.resolve_idempotent()
    assert resolved.equals(t2, 1e-12)


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


@pytest.mark.parametrize("flag, what", [("--config", "config"), ("--family", "family")])
def test_a_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys, flag, what):
    path = tmp_path / "file.json"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["verify", "algebra", flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {what} file: ")


def test_cli_nan_tolerance():
    assert main(["verify", "idempotents", "--tol", "nan"]) == 2


def test_cli_negative_exact_tolerance(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tolerances": {"exact": -1.0}}))
    assert main(["verify", "idempotents", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize(
    "suite, m, masses",
    [
        ("reduction", "-2,7", [-2.0, 7.0]),
        ("reduction", "-1e3", [-1000.0]),  # fails two-yang-mills-residuals: exit 1
        ("reduction", "-.5,1", [-0.5, 1.0]),
        ("convergence", "-2e0", [-2.0]),
    ],
)
def test_a_negative_mass_that_argparse_reads_as_a_flag_runs(tmp_path, suite, m, masses):
    out = tmp_path / "report.json"
    assert main(["verify", suite, "--seed", "1", "--m", m, "--out", str(out)]) in (0, 1)
    assert json.loads(out.read_text())["config"]["m_values"] == masses


@pytest.mark.parametrize("args", [["--m", "1", "--bogus"], ["--m", "--bogus"], ["-2,7"]])
def test_an_unknown_flag_still_exits_2(capsys, args):
    assert main(["verify", "reduction", "--seed", "1", *args]) == 2
    assert "usage:" in capsys.readouterr().err


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(cl13.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_SECOND_REPORT_FAULTS = """
import contextlib, io, resource
from cl13.cli import main
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "reduction", "--seed", "1", "--sample-count", "128"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy is set on glibc only")
def test_a_second_128_point_report_faults_in_almost_no_pages():
    # Without the CLI's malloc thresholds glibc trims the heap and maps the
    # large temporaries afresh: about 21,000 minor faults per report.
    assert int(_run_python(_SECOND_REPORT_FAULTS)) < 2000


def test_importing_the_cli_does_not_import_ctypes():
    # numpy imports ctypes itself, so drop it after numpy to see cl13's imports.
    code = (
        "import sys, numpy; del sys.modules['ctypes']; import cl13.cli; "
        "print('ctypes' in sys.modules)"
    )
    assert _run_python(code).strip() == "False"


def test_the_heap_policy_is_a_no_op_where_confstr_has_no_glibc_name(monkeypatch):
    import ctypes

    def no_such_name(name):
        raise ValueError("unrecognized configuration name")

    def no_library(*args, **kwargs):
        raise AssertionError("the heap policy loaded a library off glibc")

    monkeypatch.setattr(os, "confstr", no_such_name)
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert main(["verify", "algebra", "--seed", "1"]) == 0


def test_cli_nan_grid_step():
    assert main(["verify", "convergence", "--grid-steps", "nan,1e-3,5e-4"]) == 2


def test_cli_non_numeric_m_values(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m_values": "abc"}))
    assert main(["verify", "reduction", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("suite", ["idempotents", "reduction"])
def test_cli_non_idempotent_custom_idempotent(tmp_path, capsys, suite):
    # (2e + e0)^2 = 5e + 4e0 is not 2e + e0.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"idempotent": {"e": [2, 0], "e0": [1, 0]}}))
    assert main(["verify", suite, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad idempotent: not a Hermitian idempotent: residuals")


def test_a_custom_idempotent_passes_every_check():
    # (e - e0)/2, none of t1..t4; the report scan runs the same config file.
    path = Path(__file__).resolve().parent.parent / "tools" / "custom_idempotent.json"
    assert main(["verify", "all", "--seed", "42", "--config", str(path)]) == 0


def test_an_idempotent_too_large_to_square_is_a_config_error_without_warnings(tmp_path):
    # |M|_F / 2 <= 1 for an orthogonal projector, so 1e300 e is rejected by
    # its norm before t * t overflows; any numpy warning fails the test.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"idempotent": {"e": [1e300, 0]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "idempotents", "--config", str(cfg_path)]) == 2


def test_an_idempotent_whose_matrix_overflows_is_a_config_error_without_warnings(tmp_path, capsys):
    # Both coefficients are finite, but the Dirac matrix entry e + e0 is not.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"idempotent": {"e": [1.7e308, 0], "e0": [1.7e308, 0]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "idempotents", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad idempotent")


def test_cli_unknown_idempotent_label(capsys):
    assert main(["verify", "idempotents", "--idempotent", "t9"]) == 2
    assert capsys.readouterr().err == "error: bad idempotent: unknown idempotent label 't9'\n"


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


def _bracket_evaluations(counts):
    """The counts of the bracket nodes of two maps of the i h_mu family (the
    family i h_mu itself or a row of it) and of the products of two such
    maps or their partials: the bracket rows [i h_mu, i h_nu] and the
    products in their partials."""

    def weighted(node):  # i h_mu: h^mu times the weights i eta^{mu mu}, or a partial of it
        return isinstance(node, MappedField) and isinstance(node.op, functools.partial)

    def ih(node):  # the family or a view of it; a view of B is a map of a StackField
        return weighted(node) or (isinstance(node, MappedField) and weighted(node.inner))

    return {
        key: n
        for key, n in counts.items()
        if isinstance(key[0], (BracketField, ProductField)) and ih(key[0].left) and ih(key[0].right)
    }


def _count_element_operations(monkeypatch):
    """Float products and float element operations: each call of ``__mul__``,
    ``__add__``, ``__sub__``, ``__neg__`` and ``_scalar_mul`` on float operands;
    ``zero_products`` counts the products with an all-zero operand."""
    counts = Counter()

    def counting(name, method):
        def counted(u, *args):
            if not (u.exact or any(isinstance(v, CliffordElement) and v.exact for v in args)):
                counts["operations"] += 1
                if name == "__mul__" and isinstance(args[0], CliffordElement):
                    counts["products"] += 1
                    counts["zero_products"] += not (gamma_rep(u).any() and gamma_rep(args[0]).any())
            return method(u, *args)

        return counted

    for name in ("__mul__", "__add__", "__sub__", "__neg__", "_scalar_mul"):
        monkeypatch.setattr(CliffordElement, name, counting(name, getattr(CliffordElement, name)))
    return counts


def test_a_reduction_report_evaluates_the_brackets_once_for_every_mass(monkeypatch):
    # The brackets do not depend on m, so the masses of a family's pass
    # share them: three masses evaluate as many bracket nodes as one.
    classes = [cls for cls in CliffordField.__subclasses__() if "_evaluate" in vars(cls)]
    counts = _count_evaluations(monkeypatch, classes)
    work = _count_element_operations(monkeypatch)
    run_scenario(ScenarioConfig(suite="reduction", seed=1, sample_count=128))
    assert sum(counts.values()) <= 1538
    assert work["products"] <= 659 and work["operations"] <= 2337
    brackets = _bracket_evaluations(counts)
    assert brackets and set(brackets.values()) == {1}
    counts.clear()
    run_scenario(ScenarioConfig(suite="reduction", seed=1, sample_count=128, m_values=(0.5,)))
    assert len(_bracket_evaluations(counts)) == len(brackets)


def test_a_massless_reduction_report_builds_no_mass_term(monkeypatch):
    # At m = 0 every weight of the mass is 0 and folds: B is C's rows, and G,
    # the sourced equation of B and the bracket term of the h transport
    # identity are not built, so no product has an all-zero operand.
    classes = [cls for cls in CliffordField.__subclasses__() if "_evaluate" in vars(cls)]
    counts = _count_evaluations(monkeypatch, classes)
    work = _count_element_operations(monkeypatch)
    run_scenario(ScenarioConfig(suite="reduction", seed=1, m_values=(0.0,)))
    assert sum(counts.values()) <= 929
    assert work["products"] <= 527 and work["zero_products"] == 0


def test_a_convergence_report_evaluates_each_fd_pass_on_one_stencil(monkeypatch):
    # Each grid step's pass evaluates a node once on its stencil of eight
    # shifted point sets, not once per shift.
    classes = [cls for cls in CliffordField.__subclasses__() if "_evaluate" in vars(cls)]
    counts = _count_evaluations(monkeypatch, classes)
    run_scenario(ScenarioConfig(suite="convergence", seed=1))
    assert sum(counts.values()) <= 689


def test_a_symmetries_report_evaluates_each_exponential_once_per_point_array(monkeypatch):
    # Each transformation's payload is evaluated once for both field sets,
    # and the global_unitary payload once at the origin for its t-law.
    counts = _count_evaluations(monkeypatch, [ExpField])
    run_scenario(ScenarioConfig(suite="symmetries", seed=42))
    assert set(counts.values()) == {1}


def test_a_symmetries_report_evaluates_the_nonsolution_residuals_once(monkeypatch):
    # covariance_check returns the peaks of the non-solution's residual roots,
    # which the scale check reads instead of building the roots again.
    classes = [cls for cls in CliffordField.__subclasses__() if "_evaluate" in vars(cls)]
    counts = _count_evaluations(monkeypatch, classes)
    work = _count_element_operations(monkeypatch)
    run_scenario(ScenarioConfig(suite="symmetries", seed=42))
    assert sum(counts.values()) <= 2410
    assert work["products"] <= 1067


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
        ["convergence", "--grid-steps", "-1e-2,1e-2"],  # a config error, not a usage one
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
    # blade-table loop.  Every exact element, a lift or the result of
    # exact arithmetic, is made by one constructor.
    made = []
    make = vars(CliffordElement)["_from_coeffs"].__func__

    def counting(cls, coeffs):
        made.append(cls)
        return make(cls, coeffs)

    monkeypatch.setattr(CliffordElement, "_from_coeffs", classmethod(counting))
    assert (E.lift() * E).exact and len(made) == 3  # two lifts and the product
    made.clear()
    for suite in ("reduction", "convergence"):
        assert run_scenario(ScenarioConfig(suite=suite, seed=1)).failed == 0
    assert made == []


def test_exact_checks_make_no_rational_complex_arithmetic(monkeypatch):
    # An exact element holds integer numerators over one denominator, so
    # the exact checks run none of the RationalComplex operations that the
    # benchmark's exactnum.ops probe wraps.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    names = [spec.rpartition(".")[2] for spec in importlib.import_module("probes").SPANS["exactnum.ops"]]
    wrapped = {vars(RationalComplex)[name] for name in names}
    calls = Counter()

    def counting(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)

        return call

    for key, fn in list(vars(RationalComplex).items()):
        if fn in wrapped:  # each listed method under every name, __radd__ too
            monkeypatch.setattr(RationalComplex, key, counting(key, fn))
    assert RationalComplex(1) + 1 == 2 and calls == Counter({"__add__": 1})
    calls.clear()
    for suite in ("algebra", "idempotents", "symmetries"):
        assert run_scenario(ScenarioConfig(suite=suite, seed=1)).failed == 0
    assert calls == Counter()


def test_rep_homomorphism_fails_when_the_blade_table_flips_one_sign():
    # The check reads the table that the exact product reads, at report time.
    BLADE_SIGNS[3][6] *= -1
    try:
        report = run_scenario(ScenarioConfig(suite="algebra", seed=1))
    finally:
        BLADE_SIGNS[3][6] *= -1
    failed = [c for c in report.checks if c.status == "fail"]
    assert [c.name for c in failed] == ["algebra/rep-homomorphism"]
    assert failed[0].residual == 2.0


@pytest.mark.parametrize("suite, seed, lifts", [("algebra", 1, 21), ("all", 42, 45)])
def test_a_report_makes_no_blade_mul_call_and_lifts_e_once(
    monkeypatch, suite, seed, lifts
):
    # The blade table is built once, at import; the generator relations lift
    # E once, not in each of their 16 relations.
    counts = Counter()
    blade_mul, lift = algebra.blade_mul, CliffordElement.lift

    def counted_blade_mul(a, b):
        counts["blade_mul"] += 1
        return blade_mul(a, b)

    def counted_lift(u):
        counts["float lifts"] += not u.exact
        return lift(u)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "cl13"]:
        if getattr(module, "blade_mul", None) is blade_mul:
            monkeypatch.setattr(module, "blade_mul", counted_blade_mul)
    monkeypatch.setattr(CliffordElement, "lift", counted_lift)
    assert run_scenario(ScenarioConfig(suite=suite, seed=seed)).failed == 0
    assert counts["blade_mul"] == 0 and 0 < counts["float lifts"] <= lifts


def test_an_algebra_report_makes_at_most_32_all_exact_products(monkeypatch):
    # The exact generator relations take 32; the rep-homomorphism check
    # compares float products with the blade table and makes none.
    counts = Counter()
    mul = CliffordElement.__mul__

    def counted(u, v):
        if isinstance(v, CliffordElement):
            counts[u.exact, v.exact] += 1
        return mul(u, v)

    monkeypatch.setattr(CliffordElement, "__mul__", counted)
    assert run_scenario(ScenarioConfig(suite="algebra", seed=1)).failed == 0
    assert counts[False, False] > 0 and counts[True, True] <= 32
