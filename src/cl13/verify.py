"""Scenario runner: wires the verification suites to a machine-readable report.

A scenario names a suite, a seed and a handful of knobs; the run executes
every check of that suite and aggregates (name, anchor, status, residual,
tolerance) rows into a :class:`Report`.  Reports are deterministic for a
fixed (config, seed): checks are sorted by name and the JSON rendering
omits wall-clock timings (the text rendering shows them).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (
    GENERATORS,
    GENERATORS_EXACT,
    METRIC_DIAG,
    N_BLADES,
    CliffordElement,
    E,
    commutator,
    exp_element,
    random_element,
    unit,
)
from .exactnum import RC_ONE
from .fields import (
    FieldFamily,
    PointSet,
    ShapeField,
    bianchi_current_check,
    build_pure_gauge,
    check_h_identities,
    check_reduction_identities,
    convergence_slope,
    model_residuals,
    random_family,
    random_two_yang_mills_set,
    reduce_to_two_yang_mills,
    sample_points,
    two_yang_mills_residuals,
)
from .rep import gamma_rep, rep_rank
from .shapes import PolyShape
from .subspaces import (
    IDEMPOTENT_LABELS,
    HermitianIdempotent,
    adjoint_conjugate,
    fixed_idempotent,
    hermitian_idempotent_residuals,
    ideal_residual,
    in_ideal,
    matrix_sp_dimension,
    sample,
    sp_algebra_residual,
    sp_group_residual,
    subspace_basis,
)
from .symmetries import (
    TRANSFORM_KINDS,
    TransformationSpec,
    apply_transformation,
    bilinear_form,
    check_current_conservation,
    compose_unitary_payloads,
    covariance_check,
)

TOOL = {"name": "cl13", "version": "0.1.0"}

SUITE_NAMES = (
    "algebra",
    "subspaces",
    "idempotents",
    "reduction",
    "symmetries",
    "convergence",
    "all",
)

DEFAULT_TOLERANCES = {
    "exact": 0.0,
    "involution": 1e-12,
    "algebra": 1e-12,
    "membership": 1e-9,
    "group": 1e-10,
    "h_identity": 1e-10,
    "residual": 1e-9,
    "current": 1e-8,
    "eigen": 1e-10,
    "slope_band": 0.2,
}


# The largest mass whose cube, in the source coupling (3/16) m^3, is finite.
_MASS_LIMIT = np.finfo(float).max ** (1 / 3)


class ConfigError(ValueError):
    """Bad scenario configuration (maps to exit code 2)."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class ScenarioConfig:
    suite: str = "all"
    seed: int = 42
    m_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    grid_steps: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)
    tolerances: dict = field(default_factory=dict)
    family: object = "random"  # "random" or a family JSON object
    sample_count: int = 20
    idempotent: object = "t2"  # label or serialized element
    fmt: str = "json"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {self.suite!r}; expected {SUITE_NAMES}")
        if self.fmt not in ("json", "text"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_int(self.sample_count) or self.sample_count < 1:
            raise ConfigError(f"sample_count must be a positive integer, got {self.sample_count!r}")
        if not all(abs(m) < _MASS_LIMIT for m in self.m_values):
            raise ConfigError(f"m_values must be finite with a finite cube, below {_MASS_LIMIT:.3g}")
        if not all(np.isfinite(s) and s > 0 for s in self.grid_steps):
            raise ConfigError("grid steps must be positive and finite")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object of tolerance class: value")
        for key, val in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance class {key!r}")
            if not isinstance(val, (int, float)) or not np.isfinite(val):
                raise ConfigError(f"tolerance {key!r} must be a finite number, got {val!r}")
            if val < 0 or (val == 0 and key != "exact"):
                raise ConfigError("tolerance overrides must be positive (exact: non-negative)")
        # A custom idempotent or family is checked here, so a bad one is a
        # configuration error whichever suite runs.
        try:
            self.resolve_idempotent()
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad idempotent: {exc}") from None
        if self.family != "random":
            try:
                for fam in self.resolve_families():
                    fam.validate_symplectic()
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad family: {exc!r}") from None

    def tol(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])

    def resolve_idempotent(self) -> HermitianIdempotent:
        if isinstance(self.idempotent, str):
            if self.idempotent not in IDEMPOTENT_LABELS:
                raise ConfigError(f"unknown idempotent label {self.idempotent!r}")
            return fixed_idempotent(self.idempotent)
        elem = CliffordElement.from_json_obj(self.idempotent)
        return HermitianIdempotent.checked(elem)

    def resolve_families(self, count: int = 3) -> list[FieldFamily]:
        if self.family == "random":
            return [random_family(self.seed + 1000 * j) for j in range(count)]
        return [FieldFamily.from_json_obj(self.family)]

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "m_values": list(self.m_values),
            "grid_steps": list(self.grid_steps),
            "tolerances": dict(sorted(self.tolerances.items())),
            "family": self.family if isinstance(self.family, (str, dict)) else None,
            "sample_count": self.sample_count,
            "idempotent": self.idempotent,
            "format": self.fmt,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScenarioConfig":
        known = {
            "suite",
            "seed",
            "m_values",
            "grid_steps",
            "tolerances",
            "family",
            "sample_count",
            "idempotent",
            "format",
        }
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        if "format" in kwargs:
            kwargs["fmt"] = kwargs.pop("format")
        try:
            for key in ("m_values", "grid_steps"):
                if key in kwargs:
                    kwargs[key] = tuple(float(v) for v in kwargs[key])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class Check:
    name: str
    anchor: str
    residual: float
    tolerance: float
    elapsed: float

    @property
    def status(self) -> str:
        return "pass" if self.residual <= self.tolerance else "fail"

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "residual": self.residual,
            "tolerance": self.tolerance,
        }


@dataclass
class Report:
    tool: dict
    config: dict
    checks: list[Check]

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.status == "pass")
        return {"passed": passed, "failed": len(self.checks) - passed}

    @property
    def failed(self) -> int:
        return self.summary["failed"]

    def to_json_obj(self) -> dict:
        return {
            "tool": self.tool,
            "config": self.config,
            "checks": [c.to_json_obj() for c in self.checks],
            "summary": self.summary,
        }


class _Suite:
    """Collects checks; each check is timed from the previous check of its
    suite, or from the start of the suite."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.checks: list[Check] = []
        self._since = 0.0

    def add(self, name: str, anchor: str, residual: float, tol_key: str) -> None:
        now = time.perf_counter()
        self.checks.append(
            Check(name, anchor, float(residual), self.cfg.tol(tol_key), now - self._since)
        )
        self._since = now

    def run(self, fn) -> None:
        self._since = time.perf_counter()
        fn(self)


# -- individual suites -----------------------------------------------------------


def _suite_algebra(s: _Suite) -> None:
    cfg = s.cfg
    # Generator relations, exact rational mode.
    worst = 0.0
    two_e = unit(True) * 2
    for a in range(4):
        for b in range(4):
            lhs = GENERATORS_EXACT[a] * GENERATORS_EXACT[b] + GENERATORS_EXACT[b] * GENERATORS_EXACT[a]
            target = two_e * METRIC_DIAG[a] if a == b else unit(True) * 0
            worst = max(worst, (lhs - target).norm())
    s.add("algebra/generator-relations-exact", "e^a e^b + e^b e^a = 2 eta^{ab} e", worst, "exact")

    # Involution laws on 1000 seeded random pairs, drawn from one generator
    # stream (u then v, real then imaginary parts) in stacks of 100 pairs.
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(10):
        re_u, im_u, re_v, im_v = np.moveaxis(rng.uniform(-1.0, 1.0, (100, 4, N_BLADES)), 1, 0)
        u = CliffordElement(re_u + 1j * im_u)
        v = CliffordElement(re_v + 1j * im_v)
        uv = u * v
        laws = (
            uv.pseudo_conj() - v.pseudo_conj() * u.pseudo_conj(),
            (u + v).pseudo_conj() - (u.pseudo_conj() + v.pseudo_conj()),
            u.pseudo_conj().pseudo_conj() - u,
            u.herm_conj().herm_conj() - u,
            uv.herm_conj() - v.herm_conj() * u.herm_conj(),
            u.conj().conj() - u,
            uv.conj() - u.conj() * v.conj(),
        )
        worst = max(worst, *(float(np.max(law.norm())) for law in laws))
    s.add("algebra/involution-laws", "(UV)* = V* U*, U^dag = beta U* beta", worst, "involution")

    # Representation is a *-homomorphism: the float product and Hermitian
    # conjugation (Dirac matrices) against the exact blade table; by
    # linearity the 256 blade pairs and 16 blades cover every element.
    blades = [CliffordElement.from_blade(m, RC_ONE, exact=True) for m in range(N_BLADES)]
    floats = [u.to_float() for u in blades]
    pairs = [
        (gamma_rep(fu * fv), gamma_rep(u * v))
        for u, fu in zip(blades, floats)
        for v, fv in zip(blades, floats)
    ]
    pairs += [(gamma_rep(fu).conj().T, gamma_rep(u.herm_conj())) for u, fu in zip(blades, floats)]
    worst = max(float(np.max(np.abs(a - b))) for a, b in pairs)
    s.add("algebra/rep-homomorphism", "rep(UV) = rep(U) rep(V)", worst, "algebra")

    # Exponential map: closed form on a rotation plane and group inverses.
    theta = 0.731
    e12 = CliffordElement.from_blade("e12")
    closed = E * float(np.cos(theta)) + e12 * float(np.sin(theta))
    s.add(
        "algebra/exp-rotation-plane",
        "exp(theta e^{12}) = cos(theta) e + sin(theta) e^{12}",
        (exp_element(e12 * theta) - closed).norm(),
        "involution",
    )
    g = exp_element(sample("sp_cl", seed=cfg.seed + np.arange(5), scale=0.8))
    worst = float(np.max((g.pseudo_conj() * g - E).norm()))
    s.add("algebra/exp-symplectic-inverse", "exp(v)* exp(v) = e on sp(cl(1,3))", worst, "group")


def _suite_subspaces(s: _Suite) -> None:
    cfg = s.cfg
    dim_sp = subspace_basis("sp_cl").dim
    s.add("subspaces/sp-dimension", "dim sp(cl(1,3)) = 10", abs(dim_sp - 10), "exact")

    worst = 0.0
    for m in (1, 2, 3):
        worst = max(worst, abs(matrix_sp_dimension(m) - m * (2 * m + 1)))
    s.add("subspaces/matrix-sp-dimensions", "dim sp(m,R) = m(2m+1)", worst, "exact")
    s.add(
        "subspaces/sp-dimension-cross-check",
        "dim sp(cl(1,3)) = dim sp(2,R)",
        abs(dim_sp - matrix_sp_dimension(2)),
        "exact",
    )

    # Each check samples a stack: entry j is the sample for seed j.
    pairs = cfg.seed + 2 * np.arange(200)
    v1 = sample("Sp_cl", seed=pairs, scale=0.6)
    v2 = sample("Sp_cl", seed=pairs + 1, scale=0.6)
    worst = np.max(sp_group_residual(v1 * v2))
    s.add("subspaces/group-closure", "V* V = e closed under products", worst, "membership")

    pairs = cfg.seed + 3000 + 2 * np.arange(50)
    u1 = sample("sp_cl", seed=pairs)
    u2 = sample("sp_cl", seed=pairs + 1)
    worst = np.max(sp_algebra_residual(commutator(u1, u2)))
    s.add("subspaces/algebra-closure", "[u, v] stays in sp(cl(1,3))", worst, "involution")

    w = sample("Sp_cl", seed=cfg.seed + 4000 + np.arange(25), scale=0.6)
    v = sample("sp_cl", seed=cfg.seed + 5000 + np.arange(25))
    worst = np.max(sp_algebra_residual(adjoint_conjugate(w, v)))
    s.add("subspaces/adjoint-stability", "W^{-1} v W stays in sp(cl(1,3))", worst, "membership")

    t = cfg.resolve_idempotent()
    u = sample("G", t, seed=cfg.seed + 6000 + np.arange(10), scale=0.7)
    worst = max(
        np.max((u.herm_conj() * u - E).norm()),
        np.max(commutator(u, t.element.to_float()).norm()),
    )
    s.add(
        "subspaces/gauge-group-samples",
        "U in G(t): U^dag U = e and [U, t] = 0",
        worst,
        "group",
    )


def _suite_idempotents(s: _Suite) -> None:
    worst = 0.0
    for label in IDEMPOTENT_LABELS:
        t = fixed_idempotent(label, exact=True)
        residuals = hermitian_idempotent_residuals(t.element)
        worst = max(worst, max(residuals.values()))
    s.add(
        "idempotents/defining-conditions-exact",
        "t^2 = t, t^dag = t, conj(t) J = J t",
        worst,
        "exact",
    )

    worst = 0.0
    for label in IDEMPOTENT_LABELS:
        t = fixed_idempotent(label)
        r = rep_rank(t.element)
        dim_l = subspace_basis("L", t).dim
        worst = max(worst, abs(dim_l - r * r))
    s.add("idempotents/gauge-algebra-dimension", "dim L(t) = rank(t)^2", worst, "exact")

    t2 = fixed_idempotent("t2")
    spot = 0.0
    spot = max(spot, ideal_residual(t2.element, t2, "I"))
    spot = max(spot, ideal_residual(t2.element * 1j, t2, "L"))
    e1 = GENERATORS[1]
    if in_ideal(e1 * t2.element, t2, "K"):
        spot = max(spot, 1.0)  # e1 t2 must stay outside K(t2)
    s.add("idempotents/ideal-membership", "I(t), K(t), L(t) membership", spot, "involution")


def _suite_reduction(s: _Suite) -> None:
    cfg = s.cfg
    t = cfg.resolve_idempotent()
    points = sample_points(cfg.seed, cfg.sample_count)

    # One walk per family: h and C do not depend on m, so the model set of
    # the first mass serves the h identities and every reduced set, and each
    # reduced set is checked by both the residuals and the identities.
    model_worst = h_worst = two_ym_worst = identity_worst = 0.0
    rhs_floor = np.inf
    for fam in cfg.resolve_families():
        fs = build_pure_gauge(fam, t, cfg.m_values[0])
        # The model residuals and the h identities share one pass over the points.
        pts = PointSet(points)
        model_worst = max(model_worst, model_residuals(fs, pts).max_residual)
        h_identities = check_h_identities([f.value(pts) for f in fs.h])
        h_worst = max(h_worst, *(float(np.max(r)) for r in h_identities.values()))
        for m in cfg.m_values:
            reduced = reduce_to_two_yang_mills(replace(fs, mass=float(m)))
            rec = two_yang_mills_residuals(reduced, points)
            two_ym_worst = max(two_ym_worst, rec.max_residual)
            if m != 0:
                rhs_floor = min(rhs_floor, rec.metadata.get("source_b_rhs_norm", 0.0))
            rec = check_reduction_identities(reduced, points)
            identity_worst = max(identity_worst, rec.max_residual)

    s.add(
        "reduction/pure-gauge-model-residuals",
        "model system solved by pure gauge",
        model_worst,
        "residual",
    )
    s.add(
        "reduction/h-identities",
        "h^mu h^nu + h^nu h^mu = 2 eta^{mu nu} e",
        h_worst,
        "h_identity",
    )
    s.add(
        "reduction/two-yang-mills-residuals",
        "B = C - (m/4) i h_mu solves the two-field system",
        two_ym_worst,
        "residual",
    )
    s.add(
        "reduction/source-nonzero",
        "source (3/16) m^3 i h^nu stays nonzero",
        0.0 if rhs_floor > 1e-6 else 1.0,
        "exact",
    )
    s.add(
        "reduction/transport-identities",
        "d(i h) - [B, i h] = (m/4)[i h, i h] and conservation",
        identity_worst,
        "residual",
    )

    # Constant-field oracle: empty family, m = 1, both sides norm 3/16.
    fs0 = reduce_to_two_yang_mills(
        build_pure_gauge(FieldFamily(()), t, 1.0)
    )
    rec0 = two_yang_mills_residuals(fs0, points[:1])
    rhs0 = rec0.metadata["source_b_rhs_norm"]
    s.add(
        "reduction/constant-source-norm",
        "constant fields: source norm = 3/16 at m = 1",
        max(rec0.equations["source_b"].max_residual, abs(rhs0 - 3.0 / 16.0)),
        "residual",
    )


def _suite_symmetries(s: _Suite) -> None:
    cfg = s.cfg
    t = cfg.resolve_idempotent()
    points = sample_points(cfg.seed + 7, max(4, cfg.sample_count // 4))

    def payload(kind: str, seed: int) -> TransformationSpec:
        if kind == "global_unitary":
            perturb = random_element(np.random.default_rng(seed), 0.4)
            gen = (perturb - perturb.herm_conj()) * 0.5  # anti-Hermitian
            fam = FieldFamily(((gen, PolyShape({(0, 0, 0, 0): 1.0})),))
            return TransformationSpec(kind, fam)
        if kind == "gauge_unitary":
            gens = [
                sample("L", t, seed=seed + i, scale=0.5) for i in range(2)
            ]
            fam = FieldFamily(
                tuple(
                    (g, PolyShape({(0, 0, 0, 0): 0.3, (1, 0, 0, 0): 0.5, (0, 0, 1, 0): -0.4}))
                    for g in gens
                )
            )
            return TransformationSpec(kind, fam)
        if kind == "gauge_symplectic":
            fam = random_family(seed, n_factors=2, scale=0.4)
            return TransformationSpec(kind, fam)
        return TransformationSpec(kind)

    solution = reduce_to_two_yang_mills(
        build_pure_gauge(cfg.resolve_families()[0], t, cfg.m_values[0])
    )
    nonsolution = random_two_yang_mills_set(cfg.seed + 11, t, cfg.m_values[0])

    worst_solution = 0.0
    worst_nonsolution = 0.0
    scale_floor = np.inf
    for k, kind in enumerate(TRANSFORM_KINDS):
        spec = payload(kind, cfg.seed + 100 + k)
        rec = covariance_check(solution, spec, points)
        worst_solution = max(worst_solution, rec.max_residual)
        rec = covariance_check(nonsolution, spec, points)
        worst_nonsolution = max(worst_nonsolution, rec.max_residual)
        scale_floor = min(scale_floor, rec.metadata["original_residual_scale"])
    s.add(
        "symmetries/covariance-on-solutions",
        "equivalence transformations preserve solutions",
        worst_solution,
        "residual",
    )
    s.add(
        "symmetries/covariance-residual-law",
        "residuals transform by the stated conjugations",
        worst_nonsolution,
        "residual",
    )
    s.add(
        "symmetries/nonsolution-scale",
        "non-solution residuals are order one",
        0.0 if scale_floor > 1e-3 else 1.0,
        "exact",
    )

    # Composition of two gauge transformations equals the composite payload.
    u1 = payload("gauge_unitary", cfg.seed + 300)
    u2 = payload("gauge_unitary", cfg.seed + 301)
    once = apply_transformation(apply_transformation(solution, u1), u2)
    combined = apply_transformation(
        solution,
        TransformationSpec(
            "gauge_unitary", compose_unitary_payloads(u1.family, u2.family)
        ),
    )
    pts = PointSet(points)
    pairs = [(once.phi, combined.phi), *zip(once.a, combined.a)]
    worst = max(float(np.max((f.value(pts) - g.value(pts)).norm())) for f, g in pairs)
    s.add(
        "symmetries/gauge-composition",
        "transforming by U1 then U2 equals U1 U2",
        worst,
        "group",
    )

    _bilinear_checks(s, t)

    # Current conservation: trivial on phi = 0 solutions, Bianchi-driven otherwise.
    rec = check_current_conservation(solution, points)
    s.add(
        "symmetries/current-trivial-on-zero-phi",
        "d_mu J^mu - [A_mu, J^mu] = 0",
        rec.equations["current_conservation"].max_residual,
        "residual",
    )
    rec = check_current_conservation(nonsolution, points[:4])
    s.add(
        "symmetries/current-conservation",
        "d_mu J^mu - [A_mu, J^mu] = 0",
        rec.equations["current_conservation"].max_residual,
        "current",
    )


def _bilinear_checks(s: _Suite, t: HermitianIdempotent) -> None:
    cfg = s.cfg
    # Exact antisymmetry in rational mode on the generator frame.
    t2x = fixed_idempotent("t2", exact=True)
    h_exact = list(GENERATORS_EXACT)
    worst = 0.0
    swaps = {
        2: [(0, 1), (1, 0)],
        3: [(0, 1, 2), (1, 0, 2)],
        4: [(0, 1, 2, 3), (0, 1, 3, 2)],
    }
    for k, (idx, swapped) in swaps.items():
        j1 = bilinear_form(t2x.element, h_exact, idx).value
        j2 = bilinear_form(t2x.element, h_exact, swapped).value
        worst = max(worst, (j1 + j2).norm())
    repeated = bilinear_form(t2x.element, h_exact, (2, 2)).value
    worst = max(worst, repeated.norm())
    s.add(
        "symmetries/bilinear-antisymmetry-exact",
        "J^{...} totally antisymmetric",
        worst,
        "exact",
    )

    # Hermiticity, ideal membership and real eigenvalues on float samples.
    rng = np.random.default_rng(cfg.seed + 999)
    fam = random_family(cfg.seed + 55, n_factors=1)
    herm_worst = 0.0
    member_worst = 0.0
    eig_worst = 0.0
    x = np.array([0.3, 0.1, 0.7, 0.2])
    h_vals = [
        (fam.inverse_field().value(x) * g) * fam.group_field().value(x)
        for g in GENERATORS
    ]
    tf = t.element.to_float()
    for _ in range(6):
        phi = random_element(rng, 0.8) * tf
        for indices in [(0,), (1,), (0, 1), (0, 2, 3), (0, 1, 2, 3)]:
            j = bilinear_form(phi, h_vals, indices).value
            herm_worst = max(herm_worst, (j.herm_conj() - j).norm())
            member_worst = max(member_worst, ideal_residual(j * 1j, t, "L"))
            eigs = np.linalg.eigvals(gamma_rep(j))
            eig_worst = max(eig_worst, float(np.max(np.abs(eigs.imag))))
    s.add("symmetries/bilinear-hermitian", "J^dag = J", herm_worst, "involution")
    s.add("symmetries/bilinear-ideal-membership", "i J in L(t)", member_worst, "membership")
    s.add("symmetries/bilinear-real-eigenvalues", "eigenvalues of J are real", eig_worst, "eigen")


def _suite_convergence(s: _Suite) -> None:
    cfg = s.cfg
    t = cfg.resolve_idempotent()
    fam = cfg.resolve_families()[0]
    reduced = reduce_to_two_yang_mills(build_pure_gauge(fam, t, cfg.m_values[0]))
    points = sample_points(cfg.seed + 3, 5)
    slope, residuals = convergence_slope(reduced, points, cfg.grid_steps)
    s.add(
        "convergence/fd-slope",
        "central differences converge at order 2",
        abs(slope - 2.0),
        "slope_band",
    )

    # Polynomial gauge family current conservation (needs third derivatives).
    l_basis = subspace_basis("L", t).basis
    rng = np.random.default_rng(cfg.seed + 4)
    a_fields = []
    for mu in range(4):
        u = l_basis[int(rng.integers(0, len(l_basis)))]
        poly = PolyShape(
            {
                (0, 0, 0, 0): float(rng.uniform(-0.5, 0.5)),
                (1, 0, 0, 0): float(rng.uniform(-0.5, 0.5)),
                (0, 2, 0, 0): float(rng.uniform(-0.5, 0.5)),
                (0, 0, 1, 1): float(rng.uniform(-0.5, 0.5)),
            }
        )
        a_fields.append(ShapeField(poly, u))
    rec = bianchi_current_check(tuple(a_fields), points)
    s.add(
        "convergence/bianchi-current",
        "induced current is covariantly conserved",
        rec.equations["current_conservation"].max_residual,
        "current",
    )


SUITES = {
    "algebra": _suite_algebra,
    "subspaces": _suite_subspaces,
    "idempotents": _suite_idempotents,
    "reduction": _suite_reduction,
    "symmetries": _suite_symmetries,
    "convergence": _suite_convergence,
}


def run_scenario(cfg: ScenarioConfig) -> Report:
    suite = _Suite(cfg)
    names = SUITES if cfg.suite == "all" else {cfg.suite: SUITES[cfg.suite]}
    for fn in names.values():
        suite.run(fn)
    checks = sorted(suite.checks, key=lambda c: c.name)
    return Report(dict(TOOL), cfg.to_json_obj(), checks)


def emit_report(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        lines = []
        width = max((len(c.name) for c in report.checks), default=10)
        for c in report.checks:
            lines.append(
                f"{c.status.upper():4s} {c.name:<{width}s} "
                f"residual={c.residual:.3e} tol={c.tolerance:.3e} "
                f"[{1000 * c.elapsed:.0f} ms] ({c.anchor})"
            )
        summ = report.summary
        lines.append(f"passed={summ['passed']} failed={summ['failed']}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")
