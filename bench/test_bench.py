"""Tests of the benchmark itself: python3 -m pytest bench"""

import gc
import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import cl13.cli  # noqa: E402  (after the path insert)
import probes  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402


def cl13_bindings(fn) -> list[str]:
    """Where cl13 holds ``fn``: found through the garbage collector, not the tracer."""
    modules = package_modules("cl13")
    namespaces = {id(vars(m)): m.__name__ for m in modules}
    held = {
        id(value): f"{m.__name__}.{key}"
        for m in modules
        for key, value in vars(m).items()
        if isinstance(value, (dict, list, tuple))
    }
    found = []
    for ref in gc.get_referrers(fn):
        if id(ref) in namespaces:
            found.append(f"module {namespaces[id(ref)]}")
        elif id(ref) in held:
            found.append(f"global {held[id(ref)]}")
        elif isinstance(ref, dict) and str(ref.get("__module__", "")).startswith("cl13"):
            found.append(f"class dict of {ref['__module__']}")
    return found


def test_no_binding_of_a_wrapped_function_is_left_unpatched():
    originals = [fn for fn, _, _ in probes.targets()]
    before = {fn: cl13_bindings(fn) for fn in originals}
    assert all(before.values())
    assert len(before[cl13.algebra.exp_element]) >= 4  # algebra, fields, subspaces, verify

    exp = cl13.algebra.exp_element
    tr = Tracer()
    probes.install(tr)
    try:
        left = {fn.__qualname__: cl13_bindings(fn) for fn in originals if cl13_bindings(fn)}
        assert left == {}
        assert cl13.fields.exp_element is not exp and cl13.fields.exp_element.__wrapped__ is exp
    finally:
        tr.restore()
    assert {fn: cl13_bindings(fn) for fn in originals} == before


def test_self_time_on_a_synthetic_span_tree(monkeypatch):
    ticks = iter([0, 10, 20, 30, 35, 45, 50, 60, 70, 80, 90, 100, 200, 207])
    monkeypatch.setattr(tracer_mod.time, "perf_counter_ns", lambda: next(ticks))
    tr = Tracer()

    def leaf():
        pass

    b = tr.wrap(leaf, "b")
    tr.begin_report()
    with tr.span("report"):  # [0, 100]
        with tr.span("a"):  # [10, 50], children b [20, 30] and b [35, 45]
            b()
            b()
        with tr.span("c"):  # [60, 90], child a [70, 80]
            with tr.span("a"):
                pass
    tr.begin_report()
    with tr.span("report"):  # [200, 207]
        pass

    first, second = tr.summary()
    own = {name: round(v["self_s"] * 1e9) for name, v in first.items()}
    assert own == {"report": 30, "a": 30, "b": 20, "c": 20}
    assert {name: v["calls"] for name, v in first.items()} == {"report": 1, "a": 2, "b": 2, "c": 1}
    assert round(first["a"]["total_s"] * 1e9) == 50
    assert sum(own.values()) == 100
    assert {name: round(v["self_s"] * 1e9) for name, v in second.items()} == {"report": 7}
    table = tr.table()
    assert table["report"].tolist() == [0] * 6 + [1]
    assert table["parent"].tolist() == [-1, 0, 1, 1, 0, 4, -1]


SMALL = run.Workload(
    "test workload: a few points of the reduction suite and one kernel suite",
    lambda seed, k: [
        run.cli_scenario("reduction", seed, "--sample-count", "2"),
        run.api_scenario("idempotents", seed),
    ],
    "two small reports",
)


def test_traced_runs_with_one_seed_make_identical_calls():
    calls = []
    for _ in range(2):
        gate = run.Gate()
        metrics, _, tr = run.measure_traced(SMALL, 5, 0.0, gate)
        assert gate.failed == 0, gate.problems  # traced reports equal untraced ones
        assert gate.attempted == 4
        calls.append({k: v for k, (v, _) in metrics.items() if k.endswith(".calls")})
    assert calls[0] == calls[1]
    assert calls[0]["fields.value.calls"] > 0 and calls[0]["algebra.mul_exact.calls"] > 0
    assert cl13.fields.exp_element is cl13.algebra.exp_element  # restored


def scenario(code=0, checks=None, suffix=""):
    rows = [{"name": n, "status": s} for n, s in (checks or run.expected_checks("idempotents"))]
    text = json.dumps({"checks": rows}) + suffix
    return run.Scenario("idempotents", ("fake", 1), lambda: (code, text))


def test_gate_counts_every_kind_of_failed_report():
    gate = run.Gate()
    gate.run(scenario())
    gate.run(scenario())
    assert (gate.attempted, gate.failed) == (2, 0)
    gate.run(scenario(suffix=" "))  # bytes differ from the first report
    gate.run(scenario(code=1))
    gate.run(scenario(checks=sorted(run.expected_checks("idempotents"))[1:]))

    def boom():
        raise ArithmeticError("no convergence")

    gate.run(run.Scenario("idempotents", ("fake", 2), boom))
    assert (gate.attempted, gate.failed) == (6, 4)
    assert len(run.expected_checks("all")) == 33


@pytest.mark.parametrize(
    "n, label, rank", [(5, "max of 5", 5), (19, "max of 19", 19), (20, "p50 of 20", 10), (40, "p75 of 40", 30),
     (200, "p90 of 200", 180)]
)
def test_tail_is_the_highest_percentile_with_ten_samples_above(n, label, rank):
    samples = [float(i) for i in range(n, 0, -1)]
    value, got = run.tail(samples)
    assert got == label and value == rank
    assert n < 20 or sum(x > value for x in samples) >= 10


def test_report_seed_skips_seeds_whose_fields_grow_past_the_limit():
    # seed 540606868: |h| reaches about 870, and cl13 fails reduction/h-identities
    seed, skipped = run.report_seed(540606868, 20)
    assert [s for s, _ in skipped] == list(range(540606868, seed))
    assert skipped[0][1] > 800
    assert run.h_norm(seed, 20) <= run.H_NORM_LIMIT
    assert run.report_seed(seed, 20) == (seed, [])


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in probes.METRICS
    ]
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"report_s", "report_s.tail", "setup_s", "peak_rss_mb"}


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
