"""The cl13 functions the traced run wraps, and the per-layer metrics.

Each span name below is a layer boundary: one span is recorded per call of
any function listed for it, at every binding cl13 holds for that function.
``METRICS`` names every per-layer metric, its unit, which way is better
and the end-to-end metric and workload it is expected to move; the
``per_layer`` list of BENCHMARK.json mirrors it.
"""

from __future__ import annotations

import importlib

from tracer import Tracer, package_modules

# span name -> "module:attribute" of each function it covers
SPANS = {
    "cli.main": ["cl13.cli:main"],
    "verify.run_scenario": ["cl13.verify:run_scenario"],
    "verify.emit_report": ["cl13.verify:emit_report"],
    "algebra.exp": ["cl13.algebra:exp_element"],
    "algebra.involution": [
        f"cl13.algebra:CliffordElement.{m}" for m in ("pseudo_conj", "herm_conj", "conj")
    ],
    "algebra.norm": ["cl13.algebra:CliffordElement.norm"],
    "exactnum.ops": [
        f"cl13.exactnum:RationalComplex.{m}"
        for m in (
            "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
            "__pow__", "__neg__", "conjugate", "abs_sq",
        )
    ],
    "rep": [
        f"cl13.rep:{f}"
        for f in ("gamma_rep", "inverse", "rep_inverse", "rep_rank", "hermitian_eigenvalues")
    ],
    "shapes.value": ["cl13.shapes:PolyShape.value", "cl13.shapes:TrigShape.value"],
    "shapes.deriv": ["cl13.shapes:PolyShape.deriv", "cl13.shapes:TrigShape.deriv"],
    "subspaces.subspace_basis": ["cl13.subspaces:subspace_basis"],
    "subspaces.sample": ["cl13.subspaces:sample"],
    "subspaces.membership": [
        f"cl13.subspaces:{f}"
        for f in (
            "sp_algebra_residual", "in_sp_algebra", "sp_group_residual",
            "in_sp_group", "ideal_residual", "in_ideal",
        )
    ],
    "fields.value": ["cl13.fields:CliffordField.value"],
    "fields.partial": ["cl13.fields:CliffordField.partial"],
    "fields.fd_derivative": ["cl13.fields:fd_derivative"],
    "fields.residual_component": [
        "cl13.fields:model_residual_components",
        "cl13.fields:two_yang_mills_residual_components",
    ],
    "fields.identity_check": [
        f"cl13.fields:{f}"
        for f in ("check_h_identities", "check_reduction_identities", "bianchi_current_check")
    ],
    "symmetries.apply_transformation": ["cl13.symmetries:apply_transformation"],
    "symmetries.covariance_check": ["cl13.symmetries:covariance_check"],
    "symmetries.bilinear_form": ["cl13.symmetries:bilinear_form"],
}

SUITES = ("algebra", "subspaces", "idempotents", "reduction", "symmetries", "convergence")


def _resolve(spec: str):
    module, _, attr = spec.partition(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name] if path else getattr(owner, name)


def targets() -> list[tuple[object, str, object]]:
    """(function, span name, per-call namer) for every wrapped function.

    One of span name and namer is None.
    """
    algebra = importlib.import_module("cl13.algebra")
    fields = importlib.import_module("cl13.fields")
    verify = importlib.import_module("cl13.verify")
    element = algebra.CliffordElement

    def product(args):
        u, v = args[0], args[1]
        if not isinstance(v, element):
            return "algebra.mul_scalar"
        return "algebra.mul_exact" if u.exact and v.exact else "algebra.mul_float"

    out = [(_resolve(s), name, None) for name, specs in SPANS.items() for s in specs]
    out.append((vars(element)["__mul__"], None, product))
    out.append((vars(element)["__rmul__"], "algebra.mul_scalar", None))
    pending = [fields.CliffordField]
    while pending:  # every node class's own _evaluate is one node evaluation
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not fields.CliffordField and "_evaluate" in vars(cls):
            out.append((vars(cls)["_evaluate"], "fields.node_eval", None))
    out.extend((verify.SUITES[s], f"verify.suite.{s}", None) for s in SUITES)
    return out


def install(tracer: Tracer) -> None:
    """Wrap every target at each of its bindings in cl13."""
    wanted = targets()  # imports every module named in SPANS
    modules = package_modules("cl13")
    for fn, name, classify in wanted:
        if tracer.patch(fn, modules, name, classify) == 0:
            raise LookupError(f"no binding of {fn.__qualname__} found in cl13")


# (name, unit, better, expected to move: "<end-to-end metric> on <workloads>")
METRICS = [
    ("algebra.mul_float.calls", "count", "lower", "report_s on all three workloads"),
    ("algebra.mul_float.self_s", "s", "lower", "report_s on all three workloads"),
    ("algebra.mul_float.us_per_call", "us", "lower", "report_s on all three workloads"),
    ("algebra.mul_exact.calls", "count", "lower", "report_s on certify-all and kernel-sweep"),
    ("algebra.mul_exact.self_s", "s", "lower", "report_s on certify-all and kernel-sweep"),
    ("algebra.mul_scalar.calls", "count", "lower", "report_s on all three workloads"),
    ("algebra.mul_scalar.self_s", "s", "lower", "report_s on all three workloads"),
    ("algebra.exp.calls", "count", "lower", "report_s on all three workloads"),
    ("algebra.exp.self_s", "s", "lower", "report_s on all three workloads"),
    ("algebra.exp.us_per_call", "us", "lower", "report_s on all three workloads"),
    ("algebra.involution.calls", "count", "lower", "report_s on all three workloads"),
    ("algebra.involution.self_s", "s", "lower", "report_s on all three workloads"),
    ("algebra.norm.calls", "count", "lower", "report_s on all three workloads"),
    ("algebra.norm.self_s", "s", "lower", "report_s on all three workloads"),
    ("exactnum.ops.calls", "count", "lower", "report_s on kernel-sweep and certify-all"),
    ("exactnum.ops.self_s", "s", "lower", "report_s on kernel-sweep and certify-all"),
    ("rep.calls", "count", "lower", "report_s on kernel-sweep"),
    ("rep.self_s", "s", "lower", "report_s on kernel-sweep"),
    ("shapes.value.calls", "count", "lower", "report_s on reduction-wide"),
    ("shapes.value.self_s", "s", "lower", "report_s on reduction-wide"),
    ("shapes.deriv.calls", "count", "lower", "report_s on reduction-wide"),
    ("subspaces.subspace_basis.calls", "count", "lower", "report_s on kernel-sweep"),
    ("subspaces.subspace_basis.self_s", "s", "lower", "report_s on kernel-sweep"),
    ("subspaces.sample.calls", "count", "lower", "report_s on kernel-sweep"),
    ("subspaces.sample.self_s", "s", "lower", "report_s on kernel-sweep"),
    ("subspaces.membership.calls", "count", "lower", "report_s on kernel-sweep"),
    ("subspaces.membership.self_s", "s", "lower", "report_s on kernel-sweep"),
    ("fields.value.calls", "count", "lower", "report_s on reduction-wide"),
    ("fields.node_eval.calls", "count", "lower", "report_s on reduction-wide"),
    ("fields.value.hit_ratio", "ratio", "higher", "report_s on reduction-wide"),
    ("fields.partial.calls", "count", "lower", "report_s on reduction-wide"),
    ("fields.fd_derivative.calls", "count", "lower", "report_s on certify-all"),
    ("fields.fd_derivative.self_s", "s", "lower", "report_s on certify-all"),
    ("fields.residual_component.calls", "count", "lower", "report_s on reduction-wide"),
    ("fields.residual_component.self_s", "s", "lower", "report_s on reduction-wide"),
    ("fields.residual_component.us_per_call", "us", "lower", "report_s on reduction-wide"),
    ("fields.identity_check.self_s", "s", "lower", "report_s on reduction-wide"),
    ("fields.residual_points_per_s", "1/s", "higher", "report_s on reduction-wide and certify-all"),
    ("symmetries.apply_transformation.calls", "count", "lower", "report_s on certify-all"),
    ("symmetries.apply_transformation.self_s", "s", "lower", "report_s on certify-all"),
    ("symmetries.covariance_check.self_s", "s", "lower", "report_s on certify-all"),
    ("symmetries.bilinear_form.calls", "count", "lower", "report_s on certify-all"),
    ("symmetries.bilinear_form.self_s", "s", "lower", "report_s on certify-all"),
    *[(f"verify.suite.{s}.s", "s", "lower", "report_s on certify-all") for s in SUITES],
    ("verify.emit_report.s", "s", "lower", "report_s on certify-all"),
    ("cli.main.self_s", "s", "lower", "report_s and setup_s on short reports"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of the traced run itself"),
]


def layer_metrics(summary: dict, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metric values of one traced report, in ``METRICS`` order.

    ``summary`` is that report's entry of :meth:`Tracer.summary`;
    ``untraced_s`` and ``traced_s`` are its wall time without and with
    tracing.  ``<span>.calls`` and ``<span>.self_s`` read the span's totals,
    ``<span>.s`` its inclusive time and ``<span>.us_per_call`` its mean
    inclusive time.
    """

    def stat(span, key):
        return summary.get(span, {}).get(key, 0)

    def per_call(span):
        calls = stat(span, "calls")
        return stat(span, "total_s") * 1e6 / calls if calls else 0.0

    values = stat("fields.value", "calls")
    special = {
        "fields.value.hit_ratio": 1.0 - stat("fields.node_eval", "calls") / values if values else 0.0,
        "fields.residual_points_per_s": stat("fields.residual_component", "calls") / untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    kinds = {
        "calls": lambda span: stat(span, "calls"),
        "self_s": lambda span: stat(span, "self_s"),
        "s": lambda span: stat(span, "total_s"),
        "us_per_call": per_call,
    }
    out = {}
    for name, *_ in METRICS:
        span, _, kind = name.rpartition(".")
        out[name] = special[name] if name in special else kinds[kind](span)
    return out
