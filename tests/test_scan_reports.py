"""tools/scan_reports.py: the report scan that compares two source trees."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("scan_reports", ROOT / "tools" / "scan_reports.py")
scan_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scan_reports)


def test_the_scan_covers_378_reports():
    assert len(scan_reports.SCAN) == 378
    assert len({tuple(args) for args in scan_reports.SCAN}) == 378


def test_a_tree_compared_with_itself_is_byte_identical(capsys):
    src = str(ROOT / "src")
    scan = [["algebra", "--seed", "1"], ["reduction", "--seed", "3"]]
    assert scan_reports.main([src, src], scan=scan) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 of 2 reports byte-identical"
    assert "max |delta residual| 0.000e+00  reduction/h-identities" in lines
    usage = re.escape(src) + r": \d+\.\d\d s CPU \(user \+ system\), [1-9]\d* minor faults"
    assert all(re.fullmatch(usage, line) for line in lines[-3:-1]), lines[-3:-1]
    count = scan_reports.nonblank_lines(src)
    assert lines[-1] == f"cl13/*.py non-blank lines: {count} -> {count}"


def test_nonblank_lines_counts_the_package_modules_only(tmp_path):
    (tmp_path / "cl13" / "sub").mkdir(parents=True)
    (tmp_path / "cl13" / "a.py").write_text("x = 1\n\n   \n\ty = 2\n")
    (tmp_path / "cl13" / "b.py").write_text("# one\n")
    (tmp_path / "cl13" / "notes.txt").write_text("not code\n")
    (tmp_path / "cl13" / "sub" / "c.py").write_text("z = 3\n")
    assert scan_reports.nonblank_lines(str(tmp_path)) == 3


def _report(status: str, residual) -> str:
    return json.dumps({"checks": [{"name": "c", "status": status, "residual": residual}]})


def test_a_status_or_exit_code_change_is_reported_and_fails_the_scan():
    scan = [["a"], ["b"], ["c"]]
    before = [[0, _report("pass", 1e-12), ""], [0, _report("pass", 0.0), ""], [1, "", ""]]
    after = [[0, _report("pass", 3e-12), ""], [1, _report("fail", None), ""], [2, "", "error: x"]]
    lines, changed = scan_reports.compare(scan, before, after)
    assert changed
    assert lines == [
        "0 of 3 reports byte-identical",
        "exit code 0 -> 1: verify b",
        "c pass -> fail: verify b",
        "exit code 1 -> 2: verify c",
        "max |delta residual| inf  c  at verify b",
    ]
    lines, changed = scan_reports.compare(scan[:1], before[:1], after[:1])
    assert not changed
    moved = "max |delta residual| 2.000e-12  c  at verify a"
    assert lines == ["0 of 1 reports byte-identical", moved]


def test_each_moved_residual_names_the_report_where_it_moved_most():
    # x moves by 3e-12 in report b and by 1e-12 in report c; y never moves.
    scan = [["a"], ["b"], ["c"]]

    def reports(*xs):
        def check(name, residual):
            return {"name": name, "status": "pass", "residual": residual}

        return [[0, json.dumps({"checks": [check("x", x), check("y", 0.0)]}), ""] for x in xs]

    before, after = reports(1e-12, 1e-12, 2e-12), reports(1e-12, 4e-12, 3e-12)
    lines, changed = scan_reports.compare(scan, before, after)
    assert not changed
    assert lines == [
        "1 of 3 reports byte-identical",
        "max |delta residual| 3.000e-12  x  at verify b",
        "max |delta residual| 0.000e+00  y",
    ]
