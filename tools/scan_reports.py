#!/usr/bin/env python3
"""Compare the reports of two cl13 source trees over a fixed scan.

    python3 tools/scan_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the ``cl13`` package
(a checkout's ``src``).  Each tree runs the same 378 reports, in a
subprocess of its own whose PYTHONPATH is that tree:

  * ``verify reduction`` at seeds 0-199 (20 points),
  * ``verify all`` at seeds 1, 7, 42 and 123,
  * ``verify algebra``, ``subspaces`` and ``idempotents`` at seeds 40-79,
  * ``verify reduction --sample-count 128`` at seeds 1, 3, 5 and 9,
  * ``verify symmetries --sample-count 40`` at seeds 0 and 3 (10 points;
    the other scanned reports run the symmetries suite on 5),
  * ``verify all --seed 42`` with each of the idempotents t1, t3 and t4
    (every other scanned report uses t2),
  * ``verify reduction --m 0,-2,7 --seed 1`` (a zero and a negative mass),
  * ``verify convergence`` with four grid steps at seed 3,
  * ``verify convergence`` at seeds 0-19 (so 28 reports, the seven
    ``verify all`` ones among them, run a finite-difference pass),
  * ``verify reduction --sample-count 128 --m 0.5,1,2,4,8 --seed 3`` (five
    masses sharing one family pass),
  * ``verify symmetries`` at seeds 0-19 (with the ``verify all`` reports
    and the two above, 29 reports run the symmetries suite),
  * ``verify reduction --seed 1 --m 100`` (which fails
    ``two-yang-mills-residuals`` from round-off: the tolerance is absolute),
  * ``verify all --seed 42`` with the config file ``custom_idempotent.json``
    beside this script: the idempotent (e - e0)/2, none of t1..t4.

The scan prints how many reports are byte-identical, every check whose
status changed and every changed exit code, and per check the largest
|residual difference| over the scan, with the report where it is largest
when the residual moved.  Then one line per tree gives the user + system
CPU seconds, minor page faults and max RSS of its subprocess (not part of
the byte-identity count), and the last line the non-blank line count of
``cl13/*.py`` in each tree.  It exits 1 on any status or exit-code
change and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path

CUSTOM_IDEMPOTENT = str(Path(__file__).resolve().parent / "custom_idempotent.json")

SCAN = (
    [["reduction", "--seed", str(seed)] for seed in range(200)]
    + [["all", "--seed", str(seed)] for seed in (1, 7, 42, 123)]
    + [
        [suite, "--seed", str(seed)]
        for seed in range(40, 80)
        for suite in ("algebra", "subspaces", "idempotents")
    ]
    + [["reduction", "--sample-count", "128", "--seed", str(seed)] for seed in (1, 3, 5, 9)]
    + [["symmetries", "--sample-count", "40", "--seed", str(seed)] for seed in (0, 3)]
    + [["all", "--idempotent", label, "--seed", "42"] for label in ("t1", "t3", "t4")]
    + [["reduction", "--m", "0,-2,7", "--seed", "1"]]
    + [["convergence", "--grid-steps", "2e-2,1e-2,5e-3,2.5e-3", "--seed", "3"]]
    + [["convergence", "--seed", str(seed)] for seed in range(20)]
    + [["reduction", "--sample-count", "128", "--m", "0.5,1,2,4,8", "--seed", "3"]]
    + [["symmetries", "--seed", str(seed)] for seed in range(20)]
    + [["reduction", "--seed", "1", "--m", "100"]]
    + [["all", "--seed", "42", "--config", CUSTOM_IDEMPOTENT]]
)


def _worker() -> None:
    """Run ``cl13 verify`` on each argument list read from stdin and write
    to stdout, as one JSON object, [exit code, stdout, stderr] per report
    and this process's CPU seconds (user + system), minor faults and max
    RSS.  A report that raises gets what the command would give: exit code
    1 and the traceback on stderr."""
    from cl13.cli import main

    out = []
    for args in json.load(sys.stdin):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(["verify", *args])
            except Exception:
                traceback.print_exc()
                code = 1
        out.append([code, stdout.getvalue(), stderr.getvalue()])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime
    maxrss_mb = usage.ru_maxrss / 1000  # kilobytes on Linux
    json.dump(
        {"reports": out, "cpu_s": cpu_s, "minor_faults": usage.ru_minflt, "maxrss_mb": maxrss_mb},
        sys.stdout,
    )


def _start(src: str, scan) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    proc.stdin.write(json.dumps(scan))
    proc.stdin.close()
    return proc


def run_reports(sources, scan=SCAN) -> list[dict]:
    """Per source tree, what its worker wrote: the reports of the scan and
    the worker's CPU seconds, minor faults and max RSS; the trees run at
    once, one subprocess each."""
    procs = [_start(src, scan) for src in sources]
    results = []
    for proc, src in zip(procs, sources):
        text = proc.stdout.read()
        if proc.wait() != 0:
            raise SystemExit(f"scan_reports: the reports of {src} did not run")
        results.append(json.loads(text))
    return results


def _checks(stdout: str) -> dict:
    """{check name: (status, residual)} of a JSON report; empty otherwise."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return {}
    return {c["name"]: (c["status"], c["residual"]) for c in report["checks"]}


def compare(scan, before, after) -> tuple[list[str], bool]:
    """The summary lines of two runs of the scan, and whether any status or
    exit code changed between them."""
    lines, changed, identical, delta = [], False, 0, {}
    for args, (code0, out0, err0), (code1, out1, err1) in zip(scan, before, after):
        label = "verify " + " ".join(args)
        identical += (code0, out0, err0) == (code1, out1, err1)
        if code0 != code1:
            changed = True
            lines.append(f"exit code {code0} -> {code1}: {label}")
        checks0, checks1 = _checks(out0), _checks(out1)
        for name in sorted(checks0.keys() | checks1.keys()):
            status0, res0 = checks0.get(name, ("missing", None))
            status1, res1 = checks1.get(name, ("missing", None))
            if status0 != status1:
                changed = True
                lines.append(f"{name} {status0} -> {status1}: {label}")
            if res0 == res1:
                diff = 0.0
            elif res0 is None or res1 is None:
                diff = float("inf")
            else:
                diff = abs(res0 - res1)
            if name not in delta or diff > delta[name][0]:
                delta[name] = (diff, label)
    lines.insert(0, f"{identical} of {len(scan)} reports byte-identical")
    for name in sorted(delta):
        diff, label = delta[name]
        lines.append(f"max |delta residual| {diff:.3e}  {name}" + (f"  at {label}" if diff else ""))
    return lines, changed


def nonblank_lines(src: str) -> int:
    """Non-blank lines of the ``cl13/*.py`` files under src."""
    files = sorted(Path(src, "cl13").glob("*.py"))
    return sum(1 for f in files for line in f.read_text().splitlines() if line.strip())


def main(argv=None, scan=SCAN) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", nargs="?")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker()
        return 0
    if args.change_src is None:
        parser.error("PARENT_SRC and CHANGE_SRC are required")
    runs = run_reports([args.parent_src, args.change_src], scan)
    lines, changed = compare(scan, runs[0]["reports"], runs[1]["reports"])
    for src, run in zip((args.parent_src, args.change_src), runs):
        cpu_s, faults, rss = run["cpu_s"], run["minor_faults"], run["maxrss_mb"]
        lines.append(
            f"{src}: {cpu_s:.2f} s CPU (user + system), {faults} minor faults, {rss:.1f} MB max RSS"
        )
    counts = [nonblank_lines(src) for src in (args.parent_src, args.change_src)]
    lines.append("cl13/*.py non-blank lines: {} -> {}".format(*counts))
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
