#!/usr/bin/env python3
"""Benchmark of the cl13 certifier: report latency end to end, cost per layer.

    python3 bench/run.py --workload certify-all --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; cl13 is imported from its ``src``.
``--trace 0`` times reports without instrumentation and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced reports
of one input and prints the per-layer metrics derived from the spans
(the spans of the run go to ``bench/out/spans-<workload>.npz``).
``--workload all`` runs every workload in its own process.  Every report
passes a correctness gate; the last line of output is one JSON object.
See bench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS thread: otherwise numpy's thread pool inflates user time (and
# noise) on small matrices.  Set by main() before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

SETUP_SPAWNS = 11  # fresh interpreters timed per run for setup_s
SWEEP_WIDTH = 40  # consecutive seeds per kernel-sweep window
KERNEL_SUITES = ("algebra", "subspaces", "idempotents")

# The check set of every suite, pinned: a report that loses or adds a name
# fails the gate.  At the default config every check is expected to pass.
EXPECTED_CHECKS = {
    "algebra": (
        "exp-rotation-plane", "exp-symplectic-inverse", "generator-relations-exact",
        "involution-laws", "rep-homomorphism",
    ),
    "subspaces": (
        "adjoint-stability", "algebra-closure", "gauge-group-samples", "group-closure",
        "matrix-sp-dimensions", "sp-dimension", "sp-dimension-cross-check",
    ),
    "idempotents": (
        "defining-conditions-exact", "gauge-algebra-dimension", "ideal-membership",
    ),
    "reduction": (
        "constant-source-norm", "h-identities", "pure-gauge-model-residuals",
        "source-nonzero", "transport-identities", "two-yang-mills-residuals",
    ),
    "symmetries": (
        "bilinear-antisymmetry-exact", "bilinear-hermitian", "bilinear-ideal-membership",
        "bilinear-real-eigenvalues", "covariance-on-solutions", "covariance-residual-law",
        "current-conservation", "current-trivial-on-zero-phi", "gauge-composition",
        "nonsolution-scale",
    ),
    "convergence": ("bianchi-current", "fd-slope"),
}


def expected_checks(suite: str) -> set[tuple[str, str]]:
    suites = EXPECTED_CHECKS if suite == "all" else {suite: EXPECTED_CHECKS[suite]}
    return {(f"{s}/{name}", "pass") for s, names in suites.items() for name in names}


# -- scenarios and workloads ---------------------------------------------------


class Scenario(NamedTuple):
    """One report: ``run()`` returns (exit code, rendered JSON report)."""

    suite: str
    key: tuple  # the (config, seed) identity two reports must agree on
    run: Callable[[], tuple[int, str]]


def cli_scenario(suite: str, seed: int, *flags: str) -> Scenario:
    argv = ["verify", suite, "--seed", str(seed), *flags]

    def run():
        import cl13.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cl13.cli.main(argv)
        return code, buf.getvalue()

    return Scenario(suite, tuple(argv), run)


def api_scenario(suite: str, seed: int) -> Scenario:
    def run():
        from cl13.verify import ScenarioConfig, emit_report, run_scenario

        report = run_scenario(ScenarioConfig(suite=suite, seed=seed))
        return (0 if report.failed == 0 else 1), emit_report(report, "json")

    return Scenario(suite, ("run_scenario", suite, seed), run)


class Workload(NamedTuple):
    why: str
    unit: Callable[[int, int], list[Scenario]]  # (report seed, unit index) -> scenarios
    unit_doc: str  # what one report_s sample covers
    sample_count: int | None = None  # points of its reduction suite, if it runs one


WORKLOADS = {
    "certify-all": Workload(
        "cl13 verify all at the default config, the command users run; every layer works "
        "and 20 points fit the 64-entry per-node cache",
        lambda seed, k: [cli_scenario("all", seed)],
        "one `cl13 verify all` report",
        20,
    ),
    "reduction-wide": Workload(
        "cl13 verify reduction at 128 points, twice the per-node cache; field-tree "
        "evaluation dominates and cost per point is read",
        lambda seed, k: [cli_scenario("reduction", seed, "--sample-count", "128")],
        "one `cl13 verify reduction --sample-count 128` report",
        128,
    ),
    "kernel-sweep": Workload(
        "algebra, subspaces and idempotents suites over consecutive seeds; no field tree, "
        "so a fields change must predict no change here",
        lambda seed, k: [
            api_scenario(s, seed * SWEEP_WIDTH + k % SWEEP_WIDTH) for s in KERNEL_SUITES
        ],
        "the three kernel scenarios of one seed",
    ),
}


# -- report seeds ---------------------------------------------------------------

# Known cl13 defect: reduction/h-identities (absolute tolerance 1e-10) and
# reduction/two-yang-mills-residuals (1e-9) fail from round-off alone where
# the seed's random families make |h^mu| = |W^-1 e^mu W| large at a sample
# point: the residual grows as |h|^2 (residual / |h|^2 stayed below 6e-14
# on 310 scanned seeds) and first exceeds the tolerance near |h| = 120, on
# about 2% of seeds.  A benchmark run must not fail, so a workload that runs
# the reduction suite takes its report seed from the bench seed onwards,
# skipping each seed whose |h| exceeds H_NORM_LIMIT, and prints every seed
# it skipped.
H_NORM_LIMIT = 30.0


def h_norm(seed: int, sample_count: int) -> float:
    """Largest |h^mu| of the reduction suite's pure-gauge fields at its sample points."""
    from cl13.fields import build_pure_gauge, sample_points
    from cl13.verify import ScenarioConfig

    cfg = ScenarioConfig(seed=seed, sample_count=sample_count)
    t = cfg.resolve_idempotent()
    points = sample_points(seed, sample_count)
    return max(
        h.value(x).norm()
        for fam in cfg.resolve_families()
        for h in build_pure_gauge(fam, t, 1.0).h
        for x in points
    )


def report_seed(seed: int, sample_count: int) -> tuple[int, list[tuple[int, float]]]:
    """The first seed from ``seed`` on with |h| <= H_NORM_LIMIT, and the (seed, |h|) skipped."""
    skipped = []
    while (norm := h_norm(seed, sample_count)) > H_NORM_LIMIT:
        skipped.append((seed, norm))
        seed += 1
    return seed, skipped


# -- correctness gate -----------------------------------------------------------


class Gate:
    """Runs scenarios and counts every report that fails a check.

    A report fails when it raises, exits non-zero, differs from the pinned
    (check name, status) set, or differs byte for byte from an earlier
    report with the same (config, seed).
    """

    def __init__(self):
        self.reference: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, scenario: Scenario) -> float:
        """Run one report through the gate; return its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, text = scenario.run()
        except Exception as exc:  # a scenario that raises is a failed report
            self.fail(scenario, f"raised {exc!r}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        problem = self.check(scenario, code, text)
        if problem:
            self.fail(scenario, problem)
        return elapsed

    def check(self, scenario: Scenario, code: int, text: str) -> str | None:
        problems = [f"exit code {code}"] if code != 0 else []
        try:
            rows = json.loads(text)["checks"]
            got = {(row["name"], row["status"]) for row in rows}
        except (ValueError, KeyError, TypeError) as exc:
            return "; ".join([*problems, f"unreadable report: {exc!r}"])
        want = expected_checks(scenario.suite)
        if got != want:
            problems.append(f"checks differ: expected but missing {sorted(want - got)}, "
                            f"unexpected {sorted(got - want)}")
        if self.reference.setdefault(scenario.key, text) != text:
            problems.append("report differs from an earlier report of the same config and seed")
        return "; ".join(problems) or None

    def fail(self, scenario: Scenario, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{' '.join(map(str, scenario.key))}: {problem}")


def run_unit(gate: Gate, scenarios: list[Scenario]) -> float:
    return sum(gate.run(s) for s in scenarios)


# -- measurement ------------------------------------------------------------------


def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import the cl13 CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import cl13.cli"]
    times = []
    for i in range(SETUP_SPAWNS + 1):  # the first spawn also writes bytecode caches
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest whole percentile (at most p90) with at least ten samples above it.

    Nearest-rank percentiles.  Below twenty samples that percentile would
    fall under the median, so the maximum is returned instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], f"max of {n}"
    p = min(90, 100 * (n - 10) // n)
    return xs[math.ceil(p * n / 100) - 1], f"p{p} of {n}"


def keep_going(start: float, seconds: float, samples: list[float], minimum: int) -> bool:
    """Start another unit while the next one is expected to end in time."""
    if len(samples) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(samples) <= seconds


def measure(workload: Workload, seed: int, seconds: float, gate: Gate):
    setup_s = setup_seconds()
    samples: list[float] = []
    start = time.perf_counter()
    while keep_going(start, seconds, samples, 2):
        samples.append(run_unit(gate, workload.unit(seed, len(samples))))
    value, label = tail(samples)
    metrics = {
        "report_s": (statistics.median(samples), "s"),
        "report_s.tail": (value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"report_s: median of {len(samples)} samples, one sample = {workload.unit_doc}",
        f"report_s.tail: {label}",
        f"setup_s: median of {SETUP_SPAWNS} fresh interpreters importing cl13.cli",
    ]
    return metrics, notes


def measure_traced(workload: Workload, seed: int, seconds: float, gate: Gate):
    import probes
    from tracer import Tracer

    tracer = Tracer()
    scenarios = workload.unit(seed, 0)
    pairs: list[tuple[float, float]] = []
    start = time.perf_counter()
    while keep_going(start, seconds, [u + t for u, t in pairs], 1):
        untraced = run_unit(gate, scenarios)
        tracer.begin_report()
        probes.install(tracer)
        try:
            with tracer.span("report"):
                traced = run_unit(gate, scenarios)
        finally:
            tracer.restore()
        pairs.append((untraced, traced))

    per_report = [
        probes.layer_metrics(summary, *pair)
        for summary, pair in zip(tracer.summary(), pairs)
    ]
    # Counts come from the first traced report, which follows the same history
    # (one untraced report) in every run: module-level constant fields keep
    # their point cache across reports, so later node-evaluation counts drift.
    units = {n: unit for n, unit, *_ in probes.METRICS}
    metrics = {
        k: (
            per_report[0][k] if k.endswith((".calls", ".hit_ratio"))
            else statistics.median(v[k] for v in per_report),
            units[k],
        )
        for k in per_report[0]
    }
    notes = [
        f"{len(pairs)} untraced/traced pairs of one unit ({workload.unit_doc}); "
        "counts are the first traced report's, times are medians over the traced reports",
    ]
    return metrics, notes, tracer


# -- environment and output -------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (parents are not searched)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "cl13").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def result_line(gate: Gate, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        part = json.loads(lines[-1])
        totals["correct"] &= part["correct"]
        totals["attempted"] += part["attempted"]
        totals["failed"] += part["failed"]
        for k, v in part["metrics"].items():
            totals["metrics"][f"{name}/{k}"] = v
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cl13" / "__init__.py").is_file():
        print(f"error: no cl13 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cl13

    if Path(cl13.__file__).resolve().parent != SRC / "cl13":
        print(f"error: imported cl13 from {cl13.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    gate = Gate()
    print(f"# workload {args.workload}: {workload.why}")
    print(f"# env {json.dumps(environment())}")
    seed = args.seed
    if workload.sample_count:
        seed, skipped = report_seed(seed, workload.sample_count)
        for s, norm in skipped:
            print(f"# skipped report seed {s}: |h| = {norm:.4g} > {H_NORM_LIMIT:g} at its "
                  "sample points; large |h| makes cl13 fail reduction/h-identities")
        print(f"# report seed {seed}")
    if args.trace:
        metrics, notes, tracer = measure_traced(workload, seed, args.seconds, gate)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}.npz"
        tracer.save(spans)
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, notes = measure(workload, seed, args.seconds, gate)
    for note in notes:
        print(f"# {note}")
    moves = {}
    if args.trace:
        import probes

        moves = {name: f"  (moves {m})" for name, _, _, m in probes.METRICS}
    for k, (v, unit) in metrics.items():
        print(f"{args.workload:15s} {k:42s} {v:14.6g} {unit}{moves.get(k, '')}")
    print(f"{args.workload:15s} {'failed_ratio':42s} {gate.failed}/{gate.attempted}")
    for problem in gate.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print(result_line(gate, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
