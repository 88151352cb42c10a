"""Equivalence transformations of the two-Yang-Mills system, bilinear
covariants, and covariance certification.

Five transformation kinds are built from three steps:

  conj              coefficient conjugation of every variable
                    (h -> -conj(h), t -> conj(t))
  unitary U         U^dag = U^{-1}: phi -> phi U,
                    A -> U^{-1} A U - U^{-1} dU, F -> U^{-1} F U
  symplectic W      W(x) in Sp(cl(1,3)): phi -> W^{-1} phi, h -> W^{-1} h W,
                    B -> W^{-1} B W - W^{-1} dW, G -> W^{-1} G W

  global_unitary    unitary step with a constant U; t -> U^{-1} t U
  gauge_unitary     unitary step with U(x) in G(t); t is kept
  gauge_symplectic  symplectic step
  conjugation       conj step
  discrete_J        conj step, then the unitary step with the constant J:
                    phi -> conj(phi) J, A -> J^{-1} conj(A) J, t is restored

Covariance is certified at the residual level: for each equation the
residual of the transformed configuration must equal the stated
transform of the original residual, identically in x, whether or not the
configuration solves the system.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from typing import Callable

import numpy as np

from .algebra import (
    BETA,
    CliffordElement,
    J,
    random_element,
)
from .fields import (
    ZERO_FIELD,
    CliffordField,
    ConstantField,
    FieldFamily,
    MappedField,
    ProductField,
    TwoYangMillsFieldSet,
    _aggregate,
    _as_points,
    _total,
    random_family,
    two_yang_mills_residual_components,
)
from .rep import inverse
from .shapes import PolyShape, constant_shape
from .subspaces import HermitianIdempotent, sample

TRANSFORM_KINDS = (
    "global_unitary",
    "gauge_unitary",
    "gauge_symplectic",
    "conjugation",
    "discrete_J",
)

_J_FIELD = ConstantField(J)
_JINV_FIELD = ConstantField(J * -1)  # J^2 = -e, so J^{-1} = -J


def _conj_field(f: CliffordField) -> CliffordField:
    return MappedField(f, lambda u: u.conj())


def _conj_idempotent(t: HermitianIdempotent) -> HermitianIdempotent:
    return HermitianIdempotent(t.element.conj(), t.label)


def _conjugate_by(uinv: CliffordField, f: CliffordField, u: CliffordField) -> CliffordField:
    return ProductField(ProductField(uinv, f), u)


def _gauge_action(u, uinv, pot, strength):
    """P_mu -> U^{-1} P_mu U - U^{-1} d_mu U and X_{mu nu} -> U^{-1} X_{mu nu} U.

    A constant field U (the J twist) has d_mu U = 0 and no such term.
    """

    def potential(mu):
        gauged = _conjugate_by(uinv, pot[mu], u)
        du = u.partial(mu)
        return gauged if du is ZERO_FIELD else gauged - ProductField(uinv, du)

    p = tuple(potential(mu) for mu in range(4))
    x = tuple(
        tuple(_conjugate_by(uinv, strength[mu][nu], u) for nu in range(4)) for mu in range(4)
    )
    return p, x


# -- the three steps -------------------------------------------------------------
#
# Each step states its action on the field set (``apply``) and the law by
# which it moves the residual of one equation at the points x (``law``).


class _Conjugation:
    """Coefficient conjugation of every variable, with h -> -conj(h) and
    t -> conj(t); every residual is conjugated."""

    def apply(self, fs: TwoYangMillsFieldSet) -> TwoYangMillsFieldSet:
        conj = _conj_field
        return replace(
            fs,
            t=_conj_idempotent(fs.t),
            phi=conj(fs.phi),
            h=tuple(-conj(h) for h in fs.h),
            a=tuple(conj(a) for a in fs.a),
            f=tuple(tuple(conj(f) for f in row) for row in fs.f),
            b=tuple(conj(b) for b in fs.b),
            g=tuple(tuple(conj(g) for g in row) for row in fs.g),
        )

    def law(self, equation: str, r: CliffordElement, x) -> CliffordElement:
        return r.conj()


_CONJUGATION = _Conjugation()


@dataclass(frozen=True)
class _Unitary:
    """U(x) with U^dag = U^{-1}, acting on phi from the right and gauging
    the A/F pair: phi -> phi U, A -> U^{-1} A U - U^{-1} dU,
    F -> U^{-1} F U and t -> t_law(t).  The Dirac residual picks up U from
    the right and the A/F residuals are conjugated by U."""

    u: CliffordField
    uinv: CliffordField
    t_law: Callable[[HermitianIdempotent], HermitianIdempotent] = lambda t: t

    def apply(self, fs: TwoYangMillsFieldSet) -> TwoYangMillsFieldSet:
        a, f = _gauge_action(self.u, self.uinv, fs.a, fs.f)
        return replace(fs, t=self.t_law(fs.t), phi=ProductField(fs.phi, self.u), a=a, f=f)

    def law(self, equation: str, r: CliffordElement, x) -> CliffordElement:
        if equation == "dirac":
            return r * self.u.value(x)
        if equation in ("curvature_a", "source_a"):
            return self.uinv.value(x) * r * self.u.value(x)
        return r


@dataclass(frozen=True)
class _Symplectic:
    """W(x) in Sp(cl(1,3)), acting on phi from the left, conjugating h and
    gauging the B/G pair: phi -> W^{-1} phi, h -> W^{-1} h W,
    B -> W^{-1} B W - W^{-1} dW, G -> W^{-1} G W.  The Dirac residual picks
    up W^{-1} from the left and the B/G residuals are conjugated by W."""

    w: CliffordField
    winv: CliffordField

    def apply(self, fs: TwoYangMillsFieldSet) -> TwoYangMillsFieldSet:
        b, g = _gauge_action(self.w, self.winv, fs.b, fs.g)
        h = tuple(_conjugate_by(self.winv, h, self.w) for h in fs.h)
        return replace(fs, phi=ProductField(self.winv, fs.phi), h=h, b=b, g=g)

    def law(self, equation: str, r: CliffordElement, x) -> CliffordElement:
        if equation == "dirac":
            return self.winv.value(x) * r
        if equation in ("curvature_b", "source_b"):
            return self.winv.value(x) * r * self.w.value(x)
        return r


# conj(t) J = J t for every admissible t, so J^{-1} t J = conj(t).
_J_TWIST = _Unitary(_J_FIELD, _JINV_FIELD, _conj_idempotent)


def _steps(kind: str, family: FieldFamily | None) -> tuple:
    """The steps of one transformation, applied left to right."""
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transformation kind {kind!r}")
    needs_payload = kind in ("global_unitary", "gauge_unitary", "gauge_symplectic")
    if needs_payload != (family is not None):
        need = "needs a payload family" if needs_payload else "takes no payload"
        raise ValueError(f"{kind} {need}")
    if kind == "conjugation":
        return (_CONJUGATION,)
    if kind == "discrete_J":
        return (_CONJUGATION, _J_TWIST)
    u, uinv = family.group_field(), family.inverse_field()
    if kind == "gauge_symplectic":
        return (_Symplectic(u, uinv),)
    if kind == "gauge_unitary":  # U(x) in G(t) commutes with t
        return (_Unitary(u, uinv),)

    # A constant U moves t to U^{-1} t U; U is read at the origin once.
    u0 = family.value((0.0, 0.0, 0.0, 0.0))
    u0inv = inverse(u0)
    return (_Unitary(u, uinv, lambda t: HermitianIdempotent(u0inv * t.element * u0, None)),)


@dataclass(frozen=True)
class TransformationSpec:
    """A transformation kind plus its payload, and the steps they make.

    ``family`` carries U(x) or W(x) as an ordered product of exponentials
    (a constant payload is a family with constant shapes); discrete kinds
    take no payload.
    """

    kind: str
    family: FieldFamily | None = None
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", _steps(self.kind, self.family))


def random_transformation(kind: str, seed: int, t: HermitianIdempotent) -> TransformationSpec:
    """A seeded transformation of one kind: a constant anti-Hermitian
    exponent for global_unitary, two L(t) factors for gauge_unitary (so
    U(x) lies in G(t)), a random symplectic family for gauge_symplectic."""
    if kind == "global_unitary":
        perturb = random_element(np.random.default_rng(seed), 0.4)
        gen = (perturb - perturb.herm_conj()) * 0.5
        return TransformationSpec(kind, FieldFamily(((gen, constant_shape(1.0)),)))
    if kind == "gauge_unitary":
        gens = [sample("L", t, seed=seed + i, scale=0.5) for i in range(2)]
        shape = PolyShape({(0, 0, 0, 0): 0.3, (1, 0, 0, 0): 0.5, (0, 0, 1, 0): -0.4})
        return TransformationSpec(kind, FieldFamily(tuple((g, shape) for g in gens)))
    if kind == "gauge_symplectic":
        return TransformationSpec(kind, random_family(seed, n_factors=2, scale=0.4))
    return TransformationSpec(kind)


def apply_transformation(
    fs: TwoYangMillsFieldSet, spec: TransformationSpec
) -> TwoYangMillsFieldSet:
    """Transformed field set; h et al. stay exact derivative expressions."""
    return reduce(lambda out, step: step.apply(out), spec.steps, fs)


def expected_residual_transform(
    spec: TransformationSpec, equation: str, residual: CliffordElement, x
) -> CliffordElement:
    """How each equation's residual must transform: by the law of each step,
    in order."""
    return reduce(lambda r, step: step.law(equation, r, x), spec.steps, residual)


def covariance_check(
    fs: TwoYangMillsFieldSet, spec: TransformationSpec, points, before=None
) -> dict[str, np.ndarray]:
    """Certify the residual transformation law of one transformation: per
    equation, |r_transformed - expected(r_original)| at each point.  A
    caller that shares the pass ``points`` between field sets and specs
    evaluates each node they share once there; the transformed set's own
    nodes leave the pass when this returns.  ``before`` holds the residual
    components of ``fs`` on ``points``, which do not depend on the spec: a
    caller that checks several specs computes them once and passes them."""
    x = _as_points(points)
    if before is None:
        before = two_yang_mills_residual_components(fs, x)
    after = two_yang_mills_residual_components(apply_transformation(fs, spec), x)
    mismatch = {
        eq: {
            idx: after[eq][idx] - expected_residual_transform(spec, eq, r, x)
            for idx, r in comps.items()
        }
        for eq, comps in before.items()
    }
    return _aggregate(mismatch, x)


# -- bilinear covariants --------------------------------------------------------


def antisymmetrized_product(h_vals, indices: tuple[int, ...]) -> CliffordElement:
    """h^{[mu1} ... h^{muk]} with 1/k! normalization; each ordering of the
    index positions carries the sign of its inversion count."""
    total = _total(
        reduce(operator.mul, (h_vals[indices[p]] for p in perm))
        * (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for perm in itertools.permutations(range(len(indices)))
    )
    # In float mode Fraction(1, k!) converts to 1.0 / k! bit for bit.
    return total * Fraction(1, math.factorial(len(indices)))


def bilinear_form(phi: CliffordElement, h_vals, indices: tuple[int, ...]) -> CliffordElement:
    """J^{mu1...muk} = i^{k(k-1)/2} phi^dag beta h^{[mu1}...h^{muk]} phi.

    The value is J itself; the covariant that lives in L(t) is i*J.
    Repeated indices collapse to zero by antisymmetry.
    """
    k = len(indices)
    if not 1 <= k <= 4:
        raise ValueError("rank k must be between 1 and 4")
    middle = antisymmetrized_product(h_vals, indices)
    core = phi.herm_conj() * BETA * middle * phi
    return core * 1j ** (k * (k - 1) // 2)
