"""Equivalence transformations of the two-Yang-Mills system, bilinear
covariants, and covariance certification.

Five transformation kinds are supported:

  global_unitary    constant U, U^dag = U^{-1}:
                    phi -> phi U, A -> U^{-1} A U, F -> U^{-1} F U, t -> U^{-1} t U
  gauge_unitary     U(x) in G(t):
                    phi -> phi U, A -> U^{-1} A U - U^{-1} dU, F -> U^{-1} F U
  gauge_symplectic  W(x) in Sp(cl(1,3)):
                    phi -> W^{-1} phi, h -> W^{-1} h W,
                    B -> W^{-1} B W - W^{-1} dW, G -> W^{-1} G W
  conjugation       coefficient conjugation of every variable
                    (h -> -conj(h), t -> conj(t))
  discrete_J        h -> -conj(h), phi -> conj(phi) J, B -> conj(B),
                    G -> conj(G), A -> J^{-1} conj(A) J, F -> J^{-1} conj(F) J

Covariance is certified at the residual level: for each equation the
residual of the transformed configuration must equal the stated
transform of the original residual, identically in x, whether or not the
configuration solves the system.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce

import numpy as np

from .algebra import (
    BETA,
    E0_EXACT,
    CliffordElement,
    J,
    unit,
)
from .exactnum import RC_I
from .fields import (
    EXACT,
    CliffordField,
    ConstantField,
    DerivativeMode,
    FieldFamily,
    MappedField,
    ProductField,
    ResidualRecord,
    ScaledField,
    SumField,
    TwoYangMillsFieldSet,
    _aggregate,
    _as_points,
    _peak,
    _total,
    bianchi_current_check,
    current_vector,
    two_yang_mills_residual_components,
)
from .rep import inverse
from .subspaces import (
    HermitianIdempotent,
    ideal_residual,
    sp_group_residual,
)

TRANSFORM_KINDS = (
    "global_unitary",
    "gauge_unitary",
    "gauge_symplectic",
    "conjugation",
    "discrete_J",
)

_J_FIELD = ConstantField(J)
_JINV_FIELD = ConstantField(J * -1)  # J^2 = -e, so J^{-1} = -J


@dataclass(frozen=True)
class TransformationSpec:
    """A transformation kind plus its payload.

    ``family`` carries U(x) or W(x) as an ordered product of exponentials
    (a constant payload is a family with constant shapes); discrete kinds
    take no payload.
    """

    kind: str
    family: FieldFamily | None = None

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transformation kind {self.kind!r}")
        needs_payload = self.kind in ("global_unitary", "gauge_unitary", "gauge_symplectic")
        if needs_payload and self.family is None:
            raise ValueError(f"{self.kind} needs a payload family")
        if not needs_payload and self.family is not None:
            raise ValueError(f"{self.kind} takes no payload")

    def payload_fields(self) -> tuple[CliffordField, CliffordField]:
        """(U, U^{-1}) as fields; identity for discrete kinds."""
        if self.family is None:
            one = ConstantField(unit())
            return one, one
        return self.family.group_field(), self.family.inverse_field()

    def payload_residual(self, t: HermitianIdempotent, points) -> float:
        """Worst membership residual of the payload over the points."""
        if self.family is None:
            return 0.0
        val = self.family.group_field().value(points)
        if self.kind == "gauge_symplectic":
            r = sp_group_residual(val)
        elif self.kind == "gauge_unitary":
            r = ideal_residual(val, t, "G")
        else:
            r = (val.herm_conj() * val - unit()).norm()
        return float(np.max(r))

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "payload": self.family.to_json_obj() if self.family is not None else None,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TransformationSpec":
        fam = obj.get("payload")
        return cls(obj["kind"], FieldFamily.from_json_obj(fam) if fam else None)


def _conj_field(f: CliffordField) -> CliffordField:
    return MappedField(f, lambda u: u.conj())


def _conjugate_by(uinv: CliffordField, f: CliffordField, u: CliffordField) -> CliffordField:
    return ProductField(ProductField(uinv, f), u)


def _gauge_action(u, uinv, pot, strength):
    """P_mu -> U^{-1} P_mu U - U^{-1} d_mu U and X_{mu nu} -> U^{-1} X_{mu nu} U."""
    p = tuple(
        SumField(
            (
                _conjugate_by(uinv, pot[mu], u),
                ScaledField(-1.0, ProductField(uinv, u.partial(mu))),
            )
        )
        for mu in range(4)
    )
    x = tuple(
        tuple(_conjugate_by(uinv, strength[mu][nu], u) for nu in range(4)) for mu in range(4)
    )
    return p, x


def apply_transformation(
    fs: TwoYangMillsFieldSet, spec: TransformationSpec
) -> TwoYangMillsFieldSet:
    """Transformed field set; h et al. stay exact derivative expressions."""
    kind = spec.kind
    if kind in ("global_unitary", "gauge_unitary"):
        u, uinv = spec.payload_fields()
        a, f = _gauge_action(u, uinv, fs.a, fs.f)
        t_new = fs.t
        if kind == "global_unitary":
            u0 = spec.family.value((0.0, 0.0, 0.0, 0.0))
            t_new = HermitianIdempotent(inverse(u0) * fs.t.element * u0, None)
        return replace(fs, t=t_new, phi=ProductField(fs.phi, u), a=a, f=f)

    if kind == "gauge_symplectic":
        w, winv = spec.payload_fields()
        b, g = _gauge_action(w, winv, fs.b, fs.g)
        h = tuple(_conjugate_by(winv, fs.h[mu], w) for mu in range(4))
        return replace(fs, phi=ProductField(winv, fs.phi), h=h, b=b, g=g)

    # conjugation and discrete_J conjugate every coefficient; discrete_J then
    # twists phi, A and F by J.
    conj = _conj_field
    phi, a, f = conj(fs.phi), fs.a, fs.f
    t_new = fs.t
    if kind == "conjugation":
        t_new = HermitianIdempotent(fs.t.element.conj(), fs.t.label)
        a = tuple(conj(a[mu]) for mu in range(4))
        f = tuple(tuple(conj(f[mu][nu]) for nu in range(4)) for mu in range(4))
    else:
        phi = ProductField(phi, _J_FIELD)
        a = tuple(_conjugate_by(_JINV_FIELD, conj(a[mu]), _J_FIELD) for mu in range(4))
        f = tuple(
            tuple(_conjugate_by(_JINV_FIELD, conj(f[mu][nu]), _J_FIELD) for nu in range(4))
            for mu in range(4)
        )
    return replace(
        fs,
        t=t_new,
        phi=phi,
        h=tuple(ScaledField(-1.0, conj(fs.h[mu])) for mu in range(4)),
        a=a,
        f=f,
        b=tuple(conj(fs.b[mu]) for mu in range(4)),
        g=tuple(tuple(conj(fs.g[mu][nu]) for nu in range(4)) for mu in range(4)),
    )


def expected_residual_transform(
    spec: TransformationSpec, equation: str, residual: CliffordElement, x
) -> CliffordElement:
    """How each equation's residual must transform (derived and asserted).

    Unitary kinds act on the Dirac residual from the right and conjugate
    the A/F pair; the symplectic kind acts from the left on the Dirac
    residual and conjugates the B/G pair; discrete kinds conjugate the
    coefficients, with an extra J twist for the last kind.
    """
    kind = spec.kind
    if kind in ("global_unitary", "gauge_unitary"):
        u, uinv = spec.payload_fields()
        if equation == "dirac":
            return residual * u.value(x)
        if equation in ("curvature_a", "source_a"):
            return uinv.value(x) * residual * u.value(x)
        return residual
    if kind == "gauge_symplectic":
        w, winv = spec.payload_fields()
        if equation == "dirac":
            return winv.value(x) * residual
        if equation in ("curvature_b", "source_b"):
            return winv.value(x) * residual * w.value(x)
        return residual
    if kind == "conjugation":
        return residual.conj()
    if kind == "discrete_J":
        if equation == "dirac":
            return residual.conj() * J
        if equation in ("curvature_a", "source_a"):
            return (J * -1) * residual.conj() * J
        return residual.conj()
    raise ValueError(f"unknown transformation kind {kind!r}")


def covariance_check(
    fs: TwoYangMillsFieldSet,
    spec: TransformationSpec,
    points,
    deriv: DerivativeMode = EXACT,
) -> ResidualRecord:
    """Certify the residual transformation law of one transformation.

    Per equation, records max |r_transformed - expected(r_original)| over
    the points; metadata carries the residual scale of the original
    configuration so solution and non-solution runs are distinguishable.
    """
    transformed = apply_transformation(fs, spec)
    points = _as_points(points)
    before = two_yang_mills_residual_components(fs, points, deriv)
    after = two_yang_mills_residual_components(transformed, points, deriv)
    mismatch = {
        eq: {
            idx: after[eq][idx] - expected_residual_transform(spec, eq, r, points)
            for idx, r in comps.items()
        }
        for eq, comps in before.items()
    }
    rec = _aggregate(
        lambda _: mismatch, points, {"kind": spec.kind, "derivatives": deriv.describe()}
    )
    rec.metadata["original_residual_scale"] = float(
        np.max(_peak(r.norm() for comps in before.values() for r in comps.values()))
    )
    return rec


# -- bilinear covariants --------------------------------------------------------


@dataclass(frozen=True)
class BilinearForm:
    """Antisymmetrized fermion covariant of rank k with Hermitian value."""

    k: int
    indices: tuple[int, ...]
    value: CliffordElement


def _permutations_with_sign(items: tuple[int, ...]):
    items = list(items)
    n = len(items)
    if n == 1:
        yield 1, tuple(items)
        return
    for i in range(n):
        rest = items[:i] + items[i + 1 :]
        sign = (-1) ** i
        for s, perm in _permutations_with_sign(tuple(rest)):
            yield sign * s, (items[i],) + perm


def antisymmetrized_product(h_vals, indices: tuple[int, ...]) -> CliffordElement:
    """h^{[mu1} ... h^{muk]} with 1/k! normalization."""
    exact = all(h.exact for h in h_vals)
    total = _total(
        reduce(operator.mul, (h_vals[mu] for mu in perm)) * sign
        for sign, perm in _permutations_with_sign(tuple(indices))
    )
    fact = math.factorial(len(indices))
    scale = Fraction(1, fact) if exact else 1.0 / fact
    return total * scale


def bilinear_form(
    phi: CliffordElement, h_vals, indices: tuple[int, ...]
) -> BilinearForm:
    """J^{mu1...muk} = i^{k(k-1)/2} phi^dag beta h^{[mu1}...h^{muk]} phi.

    The stored value is J itself; the covariant that lives in L(t) is
    i*J.  Repeated indices collapse to zero by antisymmetry.
    """
    k = len(indices)
    if not 1 <= k <= 4:
        raise ValueError("rank k must be between 1 and 4")
    exact = phi.exact and all(h.exact for h in h_vals)
    beta = E0_EXACT if exact else BETA
    middle = antisymmetrized_product(h_vals, indices)
    core = phi.herm_conj() * beta * middle * phi
    p = k * (k - 1) // 2
    factor = RC_I**p if exact else 1j**p
    return BilinearForm(k, tuple(indices), core * factor)


def check_current_conservation(
    fs: TwoYangMillsFieldSet, points, deriv: DerivativeMode = EXACT
) -> ResidualRecord:
    """Non-abelian conservation of the Dirac current.

    For phi identically zero the law is the trivial 0 = 0 statement and is
    reported as such; otherwise it is the antisymmetry-forced identity of
    the induced current, delegated to the Bianchi check on the A fields.
    """
    phi_scale = np.max(fs.phi.value(points).norm())
    if phi_scale <= 1e-14:
        return _aggregate(
            lambda x: {
                "current_conservation": dict(
                    enumerate(current_vector(fs.phi.value(x), [f.value(x) for f in fs.h]))
                )
            },
            points,
            {"trivial": True},
        )
    rec = bianchi_current_check(fs.a, points, deriv)
    rec.metadata["trivial"] = False
    return rec


def compose_unitary_payloads(f1: FieldFamily, f2: FieldFamily) -> FieldFamily:
    """Payload for the composite transformation: first f1, then f2."""
    return FieldFamily(f1.factors + f2.factors)
