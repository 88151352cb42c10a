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
from dataclasses import dataclass, replace
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
    CliffordField,
    ConstantField,
    FieldFamily,
    MappedField,
    ProductField,
    StackField,
    TwoYangMillsFieldSet,
    _as_points,
    _peak,
    _total,
    random_family,
    two_yang_mills_equations,
)
from .rep import inverse
from .shapes import PolyShape, constant_shape
from .subspaces import sample

TRANSFORM_KINDS = (
    "global_unitary",
    "gauge_unitary",
    "gauge_symplectic",
    "conjugation",
    "discrete_J",
)

_JINV = J * -1  # J^2 = -e, so J^{-1} = -J
_J_FIELD, _JINV_FIELD = ConstantField(J), ConstantField(_JINV)


def _conj_field(f: CliffordField) -> CliffordField:
    return MappedField(f, lambda u: u.conj())


def _conjugate_by(uinv: CliffordField, f: CliffordField, u: CliffordField) -> CliffordField:
    return ProductField(ProductField(uinv, f), u)


def _gauge_action(u, uinv, pot, strength):
    """P_mu -> U^{-1} P_mu U - U^{-1} d_mu U and X_{mu nu} -> U^{-1} X_{mu nu} U.

    A constant U (the J twist) has d_mu U = ZERO_FIELD, so its term folds away.
    """
    gauged = _conjugate_by(uinv, pot, u) - uinv * StackField(u.partial(mu) for mu in range(4))
    return gauged, StackField(_conjugate_by(uinv, row, u) for row in strength)


# -- the three steps -------------------------------------------------------------
#
# Each step states its action on the field set (``apply``) and the law by
# which it moves the residual root of one equation (``law``), a node.


class _Conjugation:
    """Coefficient conjugation of every variable, with h -> -conj(h) and
    t -> conj(t); every residual is conjugated."""

    def apply(self, fs: TwoYangMillsFieldSet) -> TwoYangMillsFieldSet:
        conj = _conj_field
        return replace(
            fs,
            t=fs.t.conj(),
            phi=conj(fs.phi),
            h=-conj(fs.h),
            a=conj(fs.a),
            f=StackField(map(conj, fs.f)),
            b=conj(fs.b),
            g=StackField(map(conj, fs.g)),
        )

    def law(self, equation: str, r: CliffordField) -> CliffordField:
        return _conj_field(r)


_CONJUGATION = _Conjugation()


@dataclass(frozen=True)
class _Unitary:
    """U(x) with U^dag = U^{-1}, acting on phi from the right and gauging
    the A/F pair: phi -> phi U, A -> U^{-1} A U - U^{-1} dU,
    F -> U^{-1} F U and t -> t_law(t).  The Dirac residual picks up U from
    the right and the A/F residuals are conjugated by U."""

    u: CliffordField
    uinv: CliffordField
    t_law: Callable[[CliffordElement], CliffordElement] = lambda t: t

    def apply(self, fs: TwoYangMillsFieldSet) -> TwoYangMillsFieldSet:
        a, f = _gauge_action(self.u, self.uinv, fs.a, fs.f)
        return replace(fs, t=self.t_law(fs.t), phi=ProductField(fs.phi, self.u), a=a, f=f)

    def law(self, equation: str, r: CliffordField) -> CliffordField:
        if equation == "dirac":
            return ProductField(r, self.u)
        if equation in ("curvature_a", "source_a"):
            return _conjugate_by(self.uinv, r, self.u)
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
        h = _conjugate_by(self.winv, fs.h, self.w)
        return replace(fs, phi=ProductField(self.winv, fs.phi), h=h, b=b, g=g)

    def law(self, equation: str, r: CliffordField) -> CliffordField:
        if equation == "dirac":
            return ProductField(self.winv, r)
        if equation in ("curvature_b", "source_b"):
            return _conjugate_by(self.winv, r, self.w)
        return r


# conj(t) J = J t for every admissible t, so J^{-1} t J = conj(t).
_J_TWIST = _Unitary(_J_FIELD, _JINV_FIELD, CliffordElement.conj)


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
    u, uinv = family.w, family.winv
    if kind == "gauge_symplectic":
        return (_Symplectic(u, uinv),)
    if kind == "gauge_unitary":  # U(x) in G(t) commutes with t
        return (_Unitary(u, uinv),)

    # A constant U moves t to U^{-1} t U; U is read at the origin once.
    u0 = u.value((0.0, 0.0, 0.0, 0.0))
    u0inv = inverse(u0)
    return (_Unitary(u, uinv, lambda t: u0inv * t * u0),)


class TransformationSpec:
    """A transformation kind plus its payload, and the steps they make.

    ``family`` carries U(x) or W(x) as an ordered product of exponentials
    (a constant payload is a family with constant shapes); discrete kinds
    take no payload.
    """

    def __init__(self, kind: str, family: FieldFamily | None = None):
        self.kind, self.family, self.steps = kind, family, _steps(kind, family)


def random_transformation(kind: str, seed: int, t: CliffordElement) -> TransformationSpec:
    """A seeded transformation of one kind: a constant anti-Hermitian
    exponent for global_unitary, two L(t) factors for gauge_unitary (so
    U(x) lies in G(t)), a random symplectic family for gauge_symplectic."""
    if kind == "global_unitary":
        perturb = random_element(np.random.default_rng(seed), 0.4)
        gen = (perturb - perturb.herm_conj()) * 0.5
        # With g = J^{-1} conj(g) J, conj(U) = J U J^{-1}: U^{-1} t U keeps conj(t) J = J t.
        gen = (gen + _JINV * gen.conj() * J) * 0.5
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


def covariance_check(fs: TwoYangMillsFieldSet, specs, points) -> tuple[dict, list[dict]]:
    """Certify the residual transformation law of each transformation in
    ``specs``: per spec and equation, |r_transformed - expected(r_original)|
    at each point, where the expected root applies the law of each step of
    the spec in order.  Returns the residuals of ``fs`` (as
    ``two_yang_mills_residuals`` gives them) and the mismatches of each
    spec.  The residual roots of ``fs`` are built once for every spec, so
    each is evaluated once in the pass ``points``; each transformed set and
    its roots leave the pass after its spec.  A caller that shares the pass
    between field sets evaluates each node they share once there."""
    x = _as_points(points)
    before = dict(two_yang_mills_equations(fs, x))
    residuals = {eq: _peak(root.value(x), x) for eq, root in before.items()}
    out = []
    for spec in specs:
        mismatch = (
            (eq, after - reduce(lambda r, step: step.law(eq, r), spec.steps, before[eq]))
            for eq, after in two_yang_mills_equations(apply_transformation(fs, spec), x)
        )
        out.append({eq: _peak(root.value(x), x) for eq, root in mismatch})
    return residuals, out


# -- bilinear covariants --------------------------------------------------------


def antisymmetrized_product(h_vals, indices: tuple[int, ...]) -> CliffordElement:
    """h^{[mu1} ... h^{muk]} with 1/k! normalization, for h_vals a sequence
    or an index stack; an ordering of odd inversion count is negated."""

    def signed(perm):
        product = reduce(operator.mul, (h_vals[indices[p]] for p in perm))
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        return -product if odd else product

    total = _total(signed(perm) for perm in itertools.permutations(range(len(indices))))
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
