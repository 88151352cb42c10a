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
from dataclasses import asdict, dataclass, field, fields, replace

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
)
from .exactnum import is_finite_real, is_int
from .fields import (
    FieldFamily,
    PointSet,
    ShapeField,
    bianchi_current_check,
    build_pure_gauge,
    check_h_identities,
    check_reduction_identities,
    convergence_slope,
    current_vector,
    model_residuals,
    random_family,
    random_two_yang_mills_set,
    reduce_to_two_yang_mills,
    sample_points,
    source_norm,
    two_yang_mills_residual_components,
    two_yang_mills_residuals,
    worst,
)
from .rep import gamma_rep, inverse, rep_rank
from .shapes import PolyShape
from .subspaces import (
    IDEMPOTENT_LABELS,
    HermitianIdempotent,
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
    covariance_check,
    random_transformation,
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


# Residual norms square terms of size |m|^3 |h|^3 (the sourced divergence
# of B); below this mass they stay finite for |h| up to 1e6.
_MASS_LIMIT = 1e45
# A central-difference step must move the points of the [0, 1]^4 sample box
# (at least the float spacing there) and stay within the box's side.
_STEP_RANGE = (np.finfo(float).eps, 1.0)
# A custom family's bounds (FieldFamily.bound and .derivative_bound) on the
# sample box widened by the largest grid step, up to which every field suite
# runs without overflow at every mass below _MASS_LIMIT
# (tests/test_config_property.py).
_FAMILY_LIMIT = 10.0
# The suites draw int64 seed arrays from the seed plus offsets up to +6009.
_SEED_LIMIT = 2**63 - 1 - 10**4
# The reduction suite holds about 0.17 MiB per point (tracemalloc peaks of 53.4
# MiB at 320 points and 327 MiB at 2000), so the roadmap's 2000 points fit in
# about 370 MB of RSS; far larger counts exhaust memory or numpy's array sizes.
_SAMPLE_LIMIT = 2000


class ConfigError(ValueError):
    """Bad scenario configuration (maps to exit code 2)."""


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
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {self.suite!r}; expected {SUITE_NAMES}")
        if self.format not in ("json", "text"):
            raise ConfigError(f"unknown format {self.format!r}")
        if not is_int(self.seed) or not 0 <= self.seed <= _SEED_LIMIT:
            raise ConfigError(f"seed must be an integer in [0, {_SEED_LIMIT}], got {self.seed!r}")
        if not is_int(self.sample_count) or not 1 <= self.sample_count <= _SAMPLE_LIMIT:
            raise ConfigError(
                f"sample_count must be an integer in [1, {_SAMPLE_LIMIT}], got {self.sample_count!r}"
            )
        for key in ("m_values", "grid_steps"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)) or not all(map(is_finite_real, values)):
                raise ConfigError(f"{key} must be a list of finite numbers, got {values!r}")
            setattr(self, key, tuple(float(v) for v in values))
        if not self.m_values or not all(abs(m) < _MASS_LIMIT for m in self.m_values):
            raise ConfigError(f"m_values needs one or more masses of size < {_MASS_LIMIT:.3g}")
        if not all(_STEP_RANGE[0] <= s <= _STEP_RANGE[1] for s in self.grid_steps):
            raise ConfigError(f"grid steps must lie in [{_STEP_RANGE[0]:.3g}, {_STEP_RANGE[1]:g}]")
        if len(set(self.grid_steps)) < 2:
            raise ConfigError("the convergence slope needs at least two distinct grid steps")
        # np.polyfit's own rank test of the slope fit: its degree-1 Vandermonde
        # matrix of log steps, columns scaled to unit norm, at its rcond.
        logs = np.vander(np.log(self.grid_steps), 2)
        if np.linalg.matrix_rank(logs / np.linalg.norm(logs, axis=0)) < 2:
            raise ConfigError("the grid steps are too close for a well-conditioned slope fit")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object of tolerance class: value")
        for key, val in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance class {key!r}")
            if not is_finite_real(val):
                raise ConfigError(f"tolerance {key!r} must be a finite number, got {val!r}")
            if val < 0 or (val == 0 and key != "exact"):
                raise ConfigError("tolerance overrides must be positive (exact: non-negative)")
        # A custom idempotent or family is checked here, so a bad one is a
        # configuration error whichever suite runs.
        try:
            self.resolve_idempotent()
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad idempotent: {exc}") from None
        if self.family != "random":
            try:
                step = max(self.grid_steps)
                for fam in self.resolve_families():
                    fam.validate_symplectic()
                    sizes = {"size": fam.bound(step), "derivative size": fam.derivative_bound(step)}
                    for what, size in sizes.items():
                        if not size <= _FAMILY_LIMIT:
                            raise ValueError(f"{what} {size:.3g} on the box exceeds {_FAMILY_LIMIT:g}")
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad family: {exc!r}") from None
        # The report echoes the config, and a report is strict JSON.
        try:
            json.dumps(self.to_json_obj(), allow_nan=False)
        except ValueError:
            raise ConfigError("the config holds a non-finite number") from None

    def tol(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])

    def resolve_idempotent(self) -> HermitianIdempotent:
        if isinstance(self.idempotent, str):
            if self.idempotent not in IDEMPOTENT_LABELS:
                raise ConfigError(f"unknown idempotent label {self.idempotent!r}")
            return fixed_idempotent(self.idempotent)
        elem = CliffordElement.from_json_obj(self.idempotent)
        return HermitianIdempotent.checked(elem)

    def resolve_families(self) -> list[FieldFamily]:
        if self.family == "random":
            return [random_family(self.seed + 1000 * j) for j in range(3)]
        return [FieldFamily.from_json_obj(self.family)]

    def to_json_obj(self) -> dict:
        """The config as its JSON object: one key per field."""
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScenarioConfig":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**obj)
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
        return "pass" if np.isfinite(self.residual) and self.residual <= self.tolerance else "fail"

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "residual": self.residual if np.isfinite(self.residual) else None,
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

    def add(self, name: str, anchor: str, residuals, tol_key: str) -> None:
        """One check whose residual is the worst of ``residuals`` (numbers or
        arrays); a NaN among them makes the check fail."""
        now = time.perf_counter()
        self.checks.append(
            Check(name, anchor, worst(residuals), self.cfg.tol(tol_key), now - self._since)
        )
        self._since = now

    def run(self, fn) -> None:
        self._since = time.perf_counter()
        fn(self)


# -- individual suites -----------------------------------------------------------


def _suite_algebra(s: _Suite) -> None:
    cfg = s.cfg
    # Generator relations, exact rational mode (the exact sums lift E).
    relations = []
    for a in range(4):
        for b in range(4):
            lhs = GENERATORS_EXACT[a] * GENERATORS_EXACT[b] + GENERATORS_EXACT[b] * GENERATORS_EXACT[a]
            target = E * (2 * METRIC_DIAG[a] * (a == b))
            relations.append((lhs - target).norm())
    s.add("algebra/generator-relations-exact", "e^a e^b + e^b e^a = 2 eta^{ab} e", relations, "exact")

    # Involution laws on 1000 seeded random pairs, drawn from one generator
    # stream (u then v, real then imaginary parts) in stacks of 100 pairs.
    rng = np.random.default_rng(cfg.seed)
    laws = []
    for _ in range(10):
        re_u, im_u, re_v, im_v = np.moveaxis(rng.uniform(-1.0, 1.0, (100, 4, N_BLADES)), 1, 0)
        u = CliffordElement(re_u + 1j * im_u)
        v = CliffordElement(re_v + 1j * im_v)
        uv = u * v
        laws += [
            law.norm()
            for law in (
                uv.pseudo_conj() - v.pseudo_conj() * u.pseudo_conj(),
                (u + v).pseudo_conj() - (u.pseudo_conj() + v.pseudo_conj()),
                u.pseudo_conj().pseudo_conj() - u,
                u.herm_conj().herm_conj() - u,
                uv.herm_conj() - v.herm_conj() * u.herm_conj(),
                u.conj().conj() - u,
                uv.conj() - u.conj() * v.conj(),
            )
        ]
    s.add("algebra/involution-laws", "(UV)* = V* U*, U^dag = beta U* beta", laws, "involution")

    # Representation is a *-homomorphism: the float product and Hermitian
    # conjugation (Dirac matrices) against the exact blade table; by
    # linearity the 256 blade pairs and 16 blades cover every element.
    blades = [CliffordElement.from_blade(m, exact=True) for m in range(N_BLADES)]
    floats = [u.to_float() for u in blades]
    pairs = [
        (gamma_rep(fu * fv), gamma_rep(u * v))
        for u, fu in zip(blades, floats)
        for v, fv in zip(blades, floats)
    ]
    pairs += [(gamma_rep(fu).conj().T, gamma_rep(u.herm_conj())) for u, fu in zip(blades, floats)]
    s.add(
        "algebra/rep-homomorphism",
        "rep(UV) = rep(U) rep(V)",
        [np.abs(a - b) for a, b in pairs],
        "algebra",
    )

    # Exponential map: closed form on a rotation plane and group inverses.
    theta = 0.731
    e12 = CliffordElement.from_blade("e12")
    closed = E * float(np.cos(theta)) + e12 * float(np.sin(theta))
    s.add(
        "algebra/exp-rotation-plane",
        "exp(theta e^{12}) = cos(theta) e + sin(theta) e^{12}",
        [(exp_element(e12 * theta) - closed).norm()],
        "involution",
    )
    g = exp_element(sample("sp_cl", seed=cfg.seed + np.arange(5), scale=0.8))
    s.add(
        "algebra/exp-symplectic-inverse",
        "exp(v)* exp(v) = e on sp(cl(1,3))",
        [(g.pseudo_conj() * g - E).norm()],
        "group",
    )


def _suite_subspaces(s: _Suite) -> None:
    cfg = s.cfg
    dim_sp = subspace_basis("sp_cl").dim
    s.add("subspaces/sp-dimension", "dim sp(cl(1,3)) = 10", [abs(dim_sp - 10)], "exact")
    s.add(
        "subspaces/matrix-sp-dimensions",
        "dim sp(m,R) = m(2m+1)",
        [abs(matrix_sp_dimension(m) - m * (2 * m + 1)) for m in (1, 2, 3)],
        "exact",
    )
    s.add(
        "subspaces/sp-dimension-cross-check",
        "dim sp(cl(1,3)) = dim sp(2,R)",
        [abs(dim_sp - matrix_sp_dimension(2))],
        "exact",
    )

    # Each check samples a stack: entry j is the sample for seed j.
    pairs = cfg.seed + 2 * np.arange(200)
    v1 = sample("Sp_cl", seed=pairs, scale=0.6)
    v2 = sample("Sp_cl", seed=pairs + 1, scale=0.6)
    s.add(
        "subspaces/group-closure",
        "V* V = e closed under products",
        [sp_group_residual(v1 * v2)],
        "membership",
    )

    pairs = cfg.seed + 3000 + 2 * np.arange(50)
    u1 = sample("sp_cl", seed=pairs)
    u2 = sample("sp_cl", seed=pairs + 1)
    s.add(
        "subspaces/algebra-closure",
        "[u, v] stays in sp(cl(1,3))",
        [sp_algebra_residual(commutator(u1, u2))],
        "involution",
    )

    w = sample("Sp_cl", seed=cfg.seed + 4000 + np.arange(25), scale=0.6)
    v = sample("sp_cl", seed=cfg.seed + 5000 + np.arange(25))
    s.add(
        "subspaces/adjoint-stability",
        "W^{-1} v W stays in sp(cl(1,3))",
        [sp_algebra_residual(inverse(w) * v * w)],
        "membership",
    )

    t = cfg.resolve_idempotent()
    u = sample("G", t, seed=cfg.seed + 6000 + np.arange(10), scale=0.7)
    s.add(
        "subspaces/gauge-group-samples",
        "U in G(t): U^dag U = e and [U, t] = 0",
        [(u.herm_conj() * u - E).norm(), commutator(u, t.element.to_float()).norm()],
        "group",
    )


def _suite_idempotents(s: _Suite) -> None:
    exact = [fixed_idempotent(label, exact=True) for label in IDEMPOTENT_LABELS]
    s.add(
        "idempotents/defining-conditions-exact",
        "t^2 = t, t^dag = t, conj(t) J = J t",
        [r for t in exact for r in hermitian_idempotent_residuals(t.element).values()],
        "exact",
    )

    dims = []
    for label in IDEMPOTENT_LABELS:
        t = fixed_idempotent(label)
        dims.append(abs(subspace_basis("L", t).dim - rep_rank(t.element) ** 2))
    s.add("idempotents/gauge-algebra-dimension", "dim L(t) = rank(t)^2", dims, "exact")

    t2 = fixed_idempotent("t2")
    spot = [
        ideal_residual(t2.element, t2, "I"),
        ideal_residual(t2.element * 1j, t2, "L"),
        float(in_ideal(GENERATORS[1] * t2.element, t2, "K")),  # e1 t2 must stay outside K(t2)
    ]
    s.add("idempotents/ideal-membership", "I(t), K(t), L(t) membership", spot, "involution")


def _suite_reduction(s: _Suite) -> None:
    cfg = s.cfg
    t = cfg.resolve_idempotent()
    points = sample_points(cfg.seed, cfg.sample_count)

    # One pass per family: W, h and C do not depend on m, so the model set
    # of the first mass serves the h identities and every reduced set, all
    # in the family's pass.  Each mass's own nodes leave the pass with its
    # reduced set; W, h, C and their partials stay for the next mass.
    model, h_identities, two_ym, identities, sources = [], [], [], [], []
    for fam in cfg.resolve_families():
        fs = build_pure_gauge(fam, t, cfg.m_values[0])
        pts = PointSet(points)
        model += model_residuals(fs, pts).values()
        h_identities += check_h_identities([f.value(pts) for f in fs.h]).values()
        for m in cfg.m_values:
            reduced = reduce_to_two_yang_mills(replace(fs, mass=float(m)))
            two_ym += two_yang_mills_residuals(reduced, pts).values()
            if m != 0:
                sources.append(source_norm(reduced, pts))
            identities += check_reduction_identities(reduced, pts).values()

    s.add(
        "reduction/pure-gauge-model-residuals",
        "model system solved by pure gauge",
        model,
        "residual",
    )
    s.add(
        "reduction/h-identities",
        "h^mu h^nu + h^nu h^mu = 2 eta^{mu nu} e",
        h_identities,
        "h_identity",
    )
    s.add(
        "reduction/two-yang-mills-residuals",
        "B = C - (m/4) i h_mu solves the two-field system",
        two_ym,
        "residual",
    )
    # The floor holds at every point; np.min propagates a NaN source norm,
    # which then fails it.
    s.add(
        "reduction/source-nonzero",
        "source (3/16) m^3 i h^nu stays nonzero",
        [0.0 if np.min(sources, initial=np.inf) > 1e-6 else 1.0],
        "exact",
    )
    s.add(
        "reduction/transport-identities",
        "d(i h) - [B, i h] = (m/4)[i h, i h] and conservation",
        identities,
        "residual",
    )

    # Constant-field oracle: empty family, m = 1, both sides norm 3/16.
    fs0 = reduce_to_two_yang_mills(build_pure_gauge(FieldFamily(()), t, 1.0))
    pts0 = PointSet(points[:1])
    s.add(
        "reduction/constant-source-norm",
        "constant fields: source norm = 3/16 at m = 1",
        [
            two_yang_mills_residuals(fs0, pts0)["source_b"],
            abs(source_norm(fs0, pts0) - 3.0 / 16.0),
        ],
        "residual",
    )


def _suite_symmetries(s: _Suite) -> None:
    cfg = s.cfg
    t = cfg.resolve_idempotent()
    points = sample_points(cfg.seed + 7, max(4, cfg.sample_count // 4))

    solution = reduce_to_two_yang_mills(
        build_pure_gauge(cfg.resolve_families()[0], t, cfg.m_values[0])
    )
    nonsolution = random_two_yang_mills_set(cfg.seed + 11, t, cfg.m_values[0])

    # One pass shared by every check on these points.  The untransformed
    # residual components of each field set are computed once.  Each
    # transformation is drawn, checked against both field sets and let go,
    # so its payload is evaluated once and leaves the pass before the next
    # is drawn.
    pts = PointSet(points)
    solution_before = two_yang_mills_residual_components(solution, pts)
    nonsolution_before = two_yang_mills_residual_components(nonsolution, pts)
    on_solution, on_nonsolution = [], []
    for k, kind in enumerate(TRANSFORM_KINDS):
        spec = random_transformation(kind, cfg.seed + 100 + k, t)
        on_solution += covariance_check(solution, spec, pts, solution_before).values()
        on_nonsolution += covariance_check(nonsolution, spec, pts, nonsolution_before).values()
    s.add(
        "symmetries/covariance-on-solutions",
        "equivalence transformations preserve solutions",
        on_solution,
        "residual",
    )
    s.add(
        "symmetries/covariance-residual-law",
        "residuals transform by the stated conjugations",
        on_nonsolution,
        "residual",
    )
    scale = worst(r.norm() for comps in nonsolution_before.values() for r in comps.values())
    s.add(
        "symmetries/nonsolution-scale",
        "non-solution residuals are order one",
        [0.0 if scale > 1e-3 else 1.0],
        "exact",
    )

    # Composition of two gauge transformations equals the composite payload.
    u1 = random_transformation("gauge_unitary", cfg.seed + 300, t)
    u2 = random_transformation("gauge_unitary", cfg.seed + 301, t)
    once = apply_transformation(apply_transformation(solution, u1), u2)
    combined = apply_transformation(
        solution,
        TransformationSpec("gauge_unitary", FieldFamily(u1.family.factors + u2.family.factors)),
    )
    pairs = [(once.phi, combined.phi), *zip(once.a, combined.a)]
    s.add(
        "symmetries/gauge-composition",
        "transforming by U1 then U2 equals U1 U2",
        [(f.value(pts) - g.value(pts)).norm() for f, g in pairs],
        "group",
    )

    _bilinear_checks(s, t)

    # Current conservation: the solution's phi = 0 makes its current vanish, and
    # on any configuration F's antisymmetry conserves the current A induces.
    current = current_vector(solution.phi.value(pts), [f.value(pts) for f in solution.h])
    s.add(
        "symmetries/current-trivial-on-zero-phi",
        "d_mu J^mu - [A_mu, J^mu] = 0",
        [j.norm() for j in current],
        "residual",
    )
    s.add(
        "symmetries/current-conservation",
        "d_mu J^mu - [A_mu, J^mu] = 0",
        bianchi_current_check(nonsolution.a, points[:4]).values(),
        "current",
    )


def _bilinear_checks(s: _Suite, t: HermitianIdempotent) -> None:
    cfg = s.cfg
    # Exact antisymmetry in rational mode on the generator frame.
    t2x = fixed_idempotent("t2", exact=True)
    h_exact = list(GENERATORS_EXACT)
    swaps = [((0, 1), (1, 0)), ((0, 1, 2), (1, 0, 2)), ((0, 1, 2, 3), (0, 1, 3, 2))]
    antisymmetry = [
        (
            bilinear_form(t2x.element, h_exact, idx)
            + bilinear_form(t2x.element, h_exact, swapped)
        ).norm()
        for idx, swapped in swaps
    ]
    antisymmetry.append(bilinear_form(t2x.element, h_exact, (2, 2)).norm())
    s.add(
        "symmetries/bilinear-antisymmetry-exact",
        "J^{...} totally antisymmetric",
        antisymmetry,
        "exact",
    )

    # Hermiticity, ideal membership and real eigenvalues on float samples.
    rng = np.random.default_rng(cfg.seed + 999)
    fam = random_family(cfg.seed + 55, n_factors=1)
    hermitian, member, eig = [], [], []
    x = PointSet([0.3, 0.1, 0.7, 0.2])
    winv, w = fam.inverse_field().value(x), fam.group_field().value(x)
    h_vals = [(winv * g) * w for g in GENERATORS]
    tf = t.element.to_float()
    for _ in range(6):
        phi = random_element(rng, 0.8) * tf
        for indices in [(0,), (1,), (0, 1), (0, 2, 3), (0, 1, 2, 3)]:
            j = bilinear_form(phi, h_vals, indices)
            hermitian.append((j.herm_conj() - j).norm())
            member.append(ideal_residual(j * 1j, t, "L"))
            eig.append(np.abs(np.linalg.eigvals(gamma_rep(j)).imag))
    s.add("symmetries/bilinear-hermitian", "J^dag = J", hermitian, "involution")
    s.add("symmetries/bilinear-ideal-membership", "i J in L(t)", member, "membership")
    s.add("symmetries/bilinear-real-eigenvalues", "eigenvalues of J are real", eig, "eigen")


def _suite_convergence(s: _Suite) -> None:
    cfg = s.cfg
    t = cfg.resolve_idempotent()
    fam = cfg.resolve_families()[0]
    reduced = reduce_to_two_yang_mills(build_pure_gauge(fam, t, cfg.m_values[0]))
    points = sample_points(cfg.seed + 3, 5)
    slope, _ = convergence_slope(reduced, points, cfg.grid_steps)
    s.add(
        "convergence/fd-slope",
        "central differences converge at order 2",
        [abs(slope - 2.0)],
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
    s.add(
        "convergence/bianchi-current",
        "induced current is covariantly conserved",
        bianchi_current_check(tuple(a_fields), points).values(),
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
        return json.dumps(report.to_json_obj(), indent=2, sort_keys=True, allow_nan=False) + "\n"
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
