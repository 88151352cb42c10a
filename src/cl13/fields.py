"""Spacetime field configurations and residual evaluation for the model
Dirac-Yang-Mills systems.

Index conventions: coordinates x^mu on [0,1]^4 by default, metric
eta = diag(1,-1,-1,-1).  h is stored contravariant (h^mu), the potentials
A_mu, C_mu, B_mu and the strengths F_{mu nu}, G_{mu nu} covariant; raising
is a metric sign per index.

Fields are expression trees (:class:`CliffordField`) with exact partial
derivatives built structurally.  Every first-order residual is evaluated
over a :class:`PointSet`, which carries the derivative rule of its pass:
exact partials, or central finite differences of step ``fd_step``.
Group-valued configurations come from ordered products of exponentials
W(x) = prod_j exp(v_j s_j(x)) with shape functions s_j; the derivative of
one factor is (d_mu s_j) v_j exp(v_j s_j) since v_j commutes with its own
exponential.

Two systems are covered:

  model system (variables phi, h^mu, A_mu, F_{mu nu}, C_mu, mass m):
      i h^mu (d_mu phi + phi A_mu - C_mu phi) - m phi = 0
      d_mu A_nu - d_nu A_mu - [A_mu, A_nu] = F_{mu nu}
      d_mu F^{mu nu} - [A_mu, F^{mu nu}] = phi^dag beta i h^nu phi
      d_mu h^nu - [C_mu, h^nu] = 0

  two-Yang-Mills system (B_mu, G_{mu nu} replacing C_mu):
      i h^mu (d_mu phi + phi A_mu - B_mu phi) = 0
      ... same A/F pair ...
      d_mu B_nu - d_nu B_mu - [B_mu, B_nu] = G_{mu nu}
      d_mu G^{mu nu} - [B_mu, G^{mu nu}] = (3/16) m^3 i h^nu

The substitution  B_mu = C_mu - (m/4) i h_mu,
G_{mu nu} = -(m/4)^2 [i h_mu, i h_nu]  maps solutions of the first system
to solutions of the second; ``reduce_to_two_yang_mills`` implements it.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .algebra import (
    BETA,
    E,
    GENERATORS,
    METRIC_DIAG,
    CliffordElement,
    anticommutator,
    commutator,
    exp_element,
)
from .exactnum import known_keys
from .shapes import PolyShape, Shape, TrigShape, shape_from_json
from .subspaces import (
    MEMBERSHIP_TOL,
    HermitianIdempotent,
    sp_algebra_residual,
    subspace_basis,
)

SOURCE_COUPLING = 3.0 / 16.0  # coefficient of m^3 i h^nu in the sourced equation

_ZERO = CliffordElement.zero()


# -- differentiable Clifford-valued fields ------------------------------------


class PointSet:
    """One point (shape (4,)) or N points (shape (N, 4)), the derivative
    rule of the pass over them, and the value of every live field node
    evaluated on them so far.

    One pass owns one PointSet, so a node shared by its equations is
    evaluated once; no node holds point values.  Values are keyed weakly
    by node: a value stays in the pass exactly as long as its node exists,
    so suites hand one pass to every field set on the same points and the
    nodes of a field set they let go leave with it.  The pass
    differentiates exactly when ``fd_step`` is None and by central
    differences of that step otherwise.
    """

    __slots__ = ("x", "fd_step", "values", "_shifts")

    def __init__(self, x, fd_step: float | None = None):
        if fd_step is not None and not fd_step > 0:
            raise ValueError(f"fd_step must be positive, got {fd_step!r}")
        self.x = np.asarray(x, dtype=float)
        self.fd_step = fd_step
        self.values: weakref.WeakKeyDictionary[CliffordField, CliffordElement] = (
            weakref.WeakKeyDictionary()
        )
        self._shifts: dict[tuple[int, float], PointSet] = {}

    def shifted(self, mu: int, h: float) -> "PointSet":
        """The same points moved by h along axis mu, built once per pass."""
        out = self._shifts.get((mu, h))
        if out is None:
            x = self.x.copy()
            x[..., mu] += h
            out = self._shifts[(mu, h)] = PointSet(x)
        return out


def _as_points(x) -> PointSet:
    return x if isinstance(x, PointSet) else PointSet(x)


class CliffordField:
    """Clifford-valued field on R^{1,3} with structural exact derivatives.

    ``value`` takes one point, an (N, 4) array of points or a PointSet and
    returns one element or a stack of N; the PointSet keeps the value while
    this node exists.  ``partial`` nodes are built once and shared, so
    repeated evaluation across equations reuses subexpressions.

    Nodes form no reference cycle: a node holds its operands and its
    partials, and the nodes that a partial of theirs holds back (see
    ``ExpField``) hold their partials weakly.  So reference counting frees
    a node, and its values in every pass, as soon as the last holder lets
    go.
    """

    __slots__ = ("_partials", "__weakref__")

    def __init__(self):
        self._partials: dict[int, CliffordField] = {}

    def value(self, x) -> CliffordElement:
        points = _as_points(x)
        val = points.values.get(self)
        if val is None:
            val = points.values[self] = self._evaluate(points)
        return val

    def partial(self, mu: int) -> "CliffordField":
        f = self._partials.get(mu)
        if f is None:
            f = self._differentiate(mu)
            self._partials[mu] = f
        return f

    def _evaluate(self, points: PointSet) -> CliffordElement:
        raise NotImplementedError

    def _differentiate(self, mu: int) -> "CliffordField":
        raise NotImplementedError

    # Sugar so field expressions read like the equations.
    def __add__(self, other: "CliffordField") -> "CliffordField":
        return SumField(((1, self), (1, other)))

    def __sub__(self, other: "CliffordField") -> "CliffordField":
        return SumField(((1, self), (-1, other)))

    def __mul__(self, other: "CliffordField") -> "CliffordField":
        return ProductField(self, other)

    def __rmul__(self, scalar) -> "CliffordField":
        return SumField(((scalar, self),))

    def __neg__(self) -> "CliffordField":
        return SumField(((-1, self),))


class ConstantField(CliffordField):
    """One element at every point; it holds its value, so no pass stores it."""

    __slots__ = ("element",)

    def __init__(self, element: CliffordElement):
        super().__init__()
        self.element = element.to_float()

    def value(self, x):
        return self.element

    def _differentiate(self, mu):
        return ZERO_FIELD


class ShapeField(CliffordField):
    """s(x) * u for a scalar shape s and constant element u."""

    __slots__ = ("shape", "element")

    def __init__(self, shape: Shape, element: CliffordElement):
        super().__init__()
        self.shape = shape
        self.element = element.to_float()

    def _evaluate(self, points):
        return self.element * self.shape.value(points.x)

    def _differentiate(self, mu):
        return ShapeField(self.shape.deriv(mu), self.element)


class SumField(CliffordField):
    """sum_k w_k f_k over (weight, field) terms, added left to right.

    A weight of 1 is never multiplied, so an unweighted term keeps the
    rounding of its field's value.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple((complex(w), f) for w, f in terms)

    def _evaluate(self, points):
        return _total(f.value(points) if w == 1 else f.value(points) * w for w, f in self.terms)

    def _differentiate(self, mu):
        return SumField((w, f.partial(mu)) for w, f in self.terms)


class ProductField(CliffordField):
    __slots__ = ("left", "right")

    def __init__(self, left: CliffordField, right: CliffordField):
        super().__init__()
        self.left = left
        self.right = right

    def _evaluate(self, points):
        return self.left.value(points) * self.right.value(points)

    def _differentiate(self, mu):
        left, right = self.left, self.right
        return ProductField(left.partial(mu), right) + ProductField(left, right.partial(mu))


class ExpField(CliffordField):
    """exp(v * s(x)) for a constant generator v and scalar shape s.

    d_mu exp(v s) holds this node, and d_nu d_mu exp(v s) holds
    d_nu exp(v s), so this node and its partials memoize their own
    partials weakly: a strong memo would close a reference cycle.  Such a
    partial lives while a tree that uses it does.
    """

    __slots__ = ("generator", "shape")

    def __init__(self, generator: CliffordElement, shape: Shape):
        super().__init__()
        self._partials = weakref.WeakValueDictionary()
        self.generator = generator.to_float()
        self.shape = shape

    def _evaluate(self, points):
        return exp_element(self.generator * self.shape.value(points.x))

    def _differentiate(self, mu):
        # v commutes with exp(v s), so d_mu exp(v s) = (d_mu s) v exp(v s).
        out = ProductField(ShapeField(self.shape.deriv(mu), self.generator), self)
        out._partials = weakref.WeakValueDictionary()
        return out


class MappedField(CliffordField):
    """op(f(x)) for a coefficient-wise op that commutes with d_mu."""

    __slots__ = ("inner", "op")

    def __init__(self, inner: CliffordField, op):
        super().__init__()
        self.inner = inner
        self.op = op

    def _evaluate(self, points):
        return self.op(self.inner.value(points))

    def _differentiate(self, mu):
        return MappedField(self.inner.partial(mu), self.op)


ZERO_FIELD = ConstantField(_ZERO)


def _total(terms) -> CliffordElement:
    """Left-to-right sum of a non-empty sequence of elements."""
    return reduce(operator.add, terms)


def fd_derivative(func, x, mu: int, step: float):
    """Central difference, with O(step^2) error, along axis mu of a field's
    ``value`` at a point or point set x (the whole set is shifted at once)."""
    if not step > 0:
        raise ValueError("step must be positive")
    points = _as_points(x)
    return (func(points.shifted(mu, step)) - func(points.shifted(mu, -step))) * (0.5 / step)


def _field_partial(f: CliffordField, points: PointSet, mu: int) -> CliffordElement:
    """d_mu f over the points, by the derivative rule of their pass."""
    if points.fd_step is None:
        return f.partial(mu).value(points)
    return fd_derivative(f.value, points, mu, points.fd_step)


# -- families of group-valued fields -------------------------------------------


@dataclass(frozen=True)
class FieldFamily:
    """W(x) = prod_j exp(v_j * s_j(x)), evaluated left to right.

    The generators v_j are arbitrary constant elements; pure-gauge
    constructions require them in sp(cl(1,3)) (``validate_symplectic``).
    """

    factors: tuple[tuple[CliffordElement, Shape], ...]
    _fields: tuple[CliffordField, CliffordField] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple((v.to_float(), s) for v, s in self.factors)
        object.__setattr__(self, "factors", factors)
        # W and W^-1 are built once, so every use of the family shares their nodes.
        w = [ExpField(v, s) for v, s in factors]
        winv = [ExpField(-v, s) for v, s in reversed(factors)]
        trees = (reduce(ProductField, t) if t else ConstantField(E) for t in (w, winv))
        object.__setattr__(self, "_fields", tuple(trees))

    def validate_symplectic(self) -> None:
        for v, _ in self.factors:
            r = sp_algebra_residual(v)
            if r > MEMBERSHIP_TOL:
                raise ValueError(f"family generator leaves sp(cl(1,3)): residual {r:.3e}")

    def bound(self, step: float) -> float:
        """sum_j |v_j| max|s_j| over [0,1]^4 widened by step on every side,
        which bounds the exponents of W and W^-1 there."""
        with np.errstate(over="ignore"):
            return sum(float(v.norm()) * s.bound(step) for v, s in self.factors)

    def derivative_bound(self, step: float) -> float:
        """sum_j |v_j| max_{mu,nu} (max|d_mu s_j|, max|d_mu d_nu s_j|) on the
        box of ``bound``, which bounds the first and second derivatives of
        the exponents there (inf or NaN when one of those bounds overflows)."""

        def peak(s: Shape) -> float:
            firsts = [s.deriv(mu) for mu in range(4)]
            shapes = firsts + [d.deriv(nu) for d in firsts for nu in range(4)]
            return float(np.max([d.bound(step) for d in shapes]))

        with np.errstate(over="ignore"):
            return sum(float(v.norm()) * peak(s) for v, s in self.factors)

    def group_field(self) -> CliffordField:
        return self._fields[0]

    def inverse_field(self) -> CliffordField:
        return self._fields[1]

    def value(self, x) -> CliffordElement:
        return self.group_field().value(x)

    def to_json_obj(self) -> dict:
        return {
            "factors": [
                {"generator": v.to_json_obj(), "shape": s.to_json_obj()}
                for v, s in self.factors
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FieldFamily":
        factors = []
        for f in known_keys(obj, ("factors",), "family")["factors"]:
            known_keys(f, ("generator", "shape"), "family factor")
            gen = CliffordElement.from_json_obj(f["generator"])
            factors.append((gen, shape_from_json(f["shape"])))
        return cls(tuple(factors))


def random_family(seed: int, n_factors: int = 2, scale: float = 0.5) -> FieldFamily:
    """Deterministic random symplectic family with smooth low-order shapes:
    a plane-wave trig profile on every second factor, polynomials otherwise."""
    rng = np.random.default_rng(seed)
    basis = subspace_basis("sp_cl")
    factors = []
    for j in range(n_factors):
        weights = rng.uniform(-scale, scale, basis.dim)
        v = _total(b * float(wgt) for wgt, b in zip(weights, basis.basis))
        if j % 2 == 1:
            shape: Shape = TrigShape(
                "sin",
                float(rng.uniform(0.3, 1.0)),
                rng.uniform(-1.0, 1.0, 4),
                float(rng.uniform(0.0, 2.0)),
            )
        else:
            terms = {}
            for axis in range(4):
                powers = [0, 0, 0, 0]
                powers[axis] = 1
                terms[tuple(powers)] = float(rng.uniform(-1.0, 1.0))
            terms[(0, 0, 0, 0)] = float(rng.uniform(-0.5, 0.5))
            terms[(1, 1, 0, 0)] = float(rng.uniform(-0.5, 0.5))
            shape = PolyShape(terms)
        factors.append((v, shape))
    return FieldFamily(tuple(factors))


def sample_points(seed: int, count: int = 20) -> np.ndarray:
    """Deterministic sample points in the [0,1]^4 box."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(count, 4))


def _random_poly(rng: np.random.Generator, scale: float = 1.0) -> PolyShape:
    terms = {(0, 0, 0, 0): float(rng.uniform(-scale, scale))}
    for axis in range(4):
        powers = [0, 0, 0, 0]
        powers[axis] = 1
        terms[tuple(powers)] = float(rng.uniform(-scale, scale))
    terms[(0, 1, 0, 1)] = float(rng.uniform(-scale, scale))
    return PolyShape(terms)


def _random_span_field(rng: np.random.Generator, basis_elements) -> CliffordField:
    parts = []
    for _ in range(2):
        idx = int(rng.integers(0, len(basis_elements)))
        parts.append(ShapeField(_random_poly(rng, 0.5), basis_elements[idx]))
    return SumField((1, p) for p in parts)


# -- field sets ----------------------------------------------------------------


@dataclass(frozen=True)
class ModelFieldSet:
    """Variables of the model system: phi, h^mu, A_mu, F_{mu nu}, C_mu."""

    mass: float
    t: HermitianIdempotent
    phi: CliffordField
    h: tuple[CliffordField, ...]
    a: tuple[CliffordField, ...]
    f: tuple[tuple[CliffordField, ...], ...]
    c: tuple[CliffordField, ...]


@dataclass(frozen=True)
class TwoYangMillsFieldSet:
    """Variables of the two-Yang-Mills system: phi, h^mu, A, F, B, G."""

    mass: float
    t: HermitianIdempotent
    phi: CliffordField
    h: tuple[CliffordField, ...]
    a: tuple[CliffordField, ...]
    f: tuple[tuple[CliffordField, ...], ...]
    b: tuple[CliffordField, ...]
    g: tuple[tuple[CliffordField, ...], ...]


def antisymmetric_pair_fields(components) -> tuple[tuple[CliffordField, ...], ...]:
    """Build the full lower-index antisymmetric grid from {(mu,nu): field}, mu<nu."""
    grid: list[list[CliffordField]] = [[ZERO_FIELD] * 4 for _ in range(4)]
    for (mu, nu), fld in components.items():
        if mu == nu:
            raise ValueError("diagonal strength components must vanish")
        grid[mu][nu] = fld
        grid[nu][mu] = -fld
    return tuple(tuple(row) for row in grid)


def build_pure_gauge(family: FieldFamily, t: HermitianIdempotent, mass: float) -> ModelFieldSet:
    """Pure-gauge solution of the model system.

    h^mu = W^{-1} e^mu W,  C_mu = -W^{-1} d_mu W,  phi = 0,  A = F = 0.
    All four equations hold identically: phi kills the Dirac equation and
    the source, A = F = 0 settles the unitary pair, and the transport
    equation is the Maurer-Cartan identity of W.
    """
    family.validate_symplectic()
    w = family.group_field()
    winv = family.inverse_field()
    h = tuple(ProductField(ProductField(winv, ConstantField(g)), w) for g in GENERATORS)
    c = tuple(-ProductField(winv, w.partial(mu)) for mu in range(4))
    return ModelFieldSet(
        mass=float(mass),
        t=t,
        phi=ZERO_FIELD,
        h=h,
        a=(ZERO_FIELD,) * 4,
        f=((ZERO_FIELD,) * 4,) * 4,
        c=c,
    )


def random_two_yang_mills_set(seed: int, t: HermitianIdempotent, mass: float) -> TwoYangMillsFieldSet:
    """A membership-valid configuration that does not solve the system.

    h stays pure gauge (its algebraic constraint is part of the variable
    class), while phi, A, F, B, G are random smooth fields in their
    respective spaces; every equation residual is then of order one.
    """
    rng = np.random.default_rng(seed)
    base = build_pure_gauge(random_family(seed + 17), t, mass)

    t_elem = t.element.to_float()
    phi_span = []
    for _ in range(3):
        u = CliffordElement(
            rng.uniform(-0.7, 0.7, 16) + 1j * rng.uniform(-0.7, 0.7, 16)
        )
        phi_span.append(u * t_elem)
    phi = SumField((1, ShapeField(_random_poly(rng, 0.7), u)) for u in phi_span)

    l_basis = subspace_basis("L", t).basis
    sp_basis = subspace_basis("sp_cl").basis
    a = tuple(_random_span_field(rng, l_basis) for _ in range(4))
    f = antisymmetric_pair_fields(
        {
            (mu, nu): _random_span_field(rng, l_basis)
            for mu in range(4)
            for nu in range(mu + 1, 4)
        }
    )
    b = tuple(_random_span_field(rng, sp_basis) for _ in range(4))
    g = antisymmetric_pair_fields(
        {
            (mu, nu): _random_span_field(rng, sp_basis)
            for mu in range(4)
            for nu in range(mu + 1, 4)
        }
    )
    return TwoYangMillsFieldSet(
        mass=float(mass), t=t, phi=phi, h=base.h, a=a, f=f, b=b, g=g
    )


def reduce_to_two_yang_mills(fs: ModelFieldSet) -> TwoYangMillsFieldSet:
    """Substitute B_mu = C_mu - (m/4) i h_mu and G_{mu nu} = -(m/4)^2 [i h_mu, i h_nu]."""
    m4 = fs.mass / 4.0
    ih_lower = tuple((1j * METRIC_DIAG[mu]) * fs.h[mu] for mu in range(4))
    b = tuple(SumField(((1, fs.c[mu]), (-m4, ih_lower[mu]))) for mu in range(4))
    g = tuple(
        tuple(-(m4**2) * commutator(ih_lower[mu], ih_lower[nu]) for nu in range(4))
        for mu in range(4)
    )
    return TwoYangMillsFieldSet(
        mass=fs.mass, t=fs.t, phi=fs.phi, h=fs.h, a=fs.a, f=fs.f, b=b, g=g
    )


# -- residual evaluation ---------------------------------------------------------
#
# Every residual is built from three covariant operators of a potential P,
# evaluated over a PointSet x at once and differentiated by its rule: the
# curvature, the covariant derivative and the metric-signed divergence.
# ``pv`` holds the values P_mu(x).


def _values(fields, x):
    return [f.value(x) for f in fields]


def _curvature(x, pot, pv, mu, nu) -> CliffordElement:
    """d_mu P_nu - d_nu P_mu - [P_mu, P_nu]."""
    d1 = _field_partial(pot[nu], x, mu)
    d2 = _field_partial(pot[mu], x, nu)
    return d1 - d2 - commutator(pv[mu], pv[nu])


def _covariant(x, pv, mu, f) -> CliffordElement:
    """d_mu f - [P_mu, f]."""
    return _field_partial(f, x, mu) - commutator(pv[mu], f.value(x))


def _divergence(x, pv, strength, nu) -> CliffordElement:
    """d_mu X^{mu nu} - [P_mu, X^{mu nu}] for a lower-index strength X_{mu nu}."""
    return _total(
        _covariant(x, pv, mu, strength[mu][nu]) * (METRIC_DIAG[mu] * METRIC_DIAG[nu])
        for mu in range(4)
    )


def _yang_mills_pair(x, pot, strength, rhs):
    """Curvature and sourced divergence residuals of one potential/strength pair."""
    pv = _values(pot, x)
    curvature = {
        (mu, nu): _curvature(x, pot, pv, mu, nu) - strength[mu][nu].value(x)
        for mu in range(4)
        for nu in range(mu + 1, 4)
    }
    source = {(nu,): _divergence(x, pv, strength, nu) - rhs[nu] for nu in range(4)}
    return curvature, source


def _dirac(fs, x, hv, pv) -> CliffordElement:
    """i h^mu (d_mu phi + phi A_mu - P_mu phi), summed over mu."""
    phi = fs.phi.value(x)
    return _total(
        (1j * hv[mu])
        * (_field_partial(fs.phi, x, mu) + phi * fs.a[mu].value(x) - pv[mu] * phi)
        for mu in range(4)
    )


def current_vector(phi: CliffordElement, h_vals) -> list[CliffordElement]:
    """i J^mu = phi^dag beta i h^mu phi, returned as the four iJ values."""
    return [phi.herm_conj() * BETA * (1j * h_vals[mu]) * phi for mu in range(4)]


def model_residual_components(fs: ModelFieldSet, x) -> dict[str, dict[tuple, CliffordElement]]:
    x = _as_points(x)
    hv = _values(fs.h, x)
    cv = _values(fs.c, x)
    phi = fs.phi.value(x)
    curvature_a, source_a = _yang_mills_pair(x, fs.a, fs.f, current_vector(phi, hv))
    return {
        "dirac": {(): _dirac(fs, x, hv, cv) - phi * fs.mass},
        "curvature_a": curvature_a,
        "source_a": source_a,
        "h_transport": {
            (mu, nu): _covariant(x, cv, mu, fs.h[nu])
            for mu in range(4)
            for nu in range(4)
        },
    }


def two_yang_mills_residual_components(
    fs: TwoYangMillsFieldSet, x
) -> dict[str, dict[tuple, CliffordElement]]:
    x = _as_points(x)
    hv = _values(fs.h, x)
    phi = fs.phi.value(x)
    m3 = SOURCE_COUPLING * fs.mass**3
    curvature_a, source_a = _yang_mills_pair(x, fs.a, fs.f, current_vector(phi, hv))
    curvature_b, source_b = _yang_mills_pair(
        x, fs.b, fs.g, [hv[nu] * (1j * m3) for nu in range(4)]
    )
    return {
        "dirac": {(): _dirac(fs, x, hv, _values(fs.b, x))},
        "curvature_a": curvature_a,
        "source_a": source_a,
        "curvature_b": curvature_b,
        "source_b": source_b,
    }


def _peak(norms):
    """Elementwise maximum of a non-empty sequence of norms (per point for a set)."""
    return reduce(np.maximum, norms)


def worst(residuals) -> float:
    """The largest of a non-empty sequence of residual numbers and arrays.

    NaN if any entry holds a NaN: ``np.max`` propagates it, where the
    builtin ``max`` drops a NaN that does not come first.
    """
    return float(np.max([np.max(r) for r in residuals]))


def _aggregate(components, points: PointSet) -> dict[str, np.ndarray]:
    """Per equation, the largest component norm at each point."""
    shape = points.x.shape[:-1]
    return {
        eq: np.broadcast_to(_peak(r.norm() for r in by_index.values()), shape)
        for eq, by_index in components.items()
    }


def model_residuals(fs: ModelFieldSet, points) -> dict[str, np.ndarray]:
    points = _as_points(points)
    return _aggregate(model_residual_components(fs, points), points)


def two_yang_mills_residuals(fs: TwoYangMillsFieldSet, points) -> dict[str, np.ndarray]:
    points = _as_points(points)
    return _aggregate(two_yang_mills_residual_components(fs, points), points)


def source_norm(fs: TwoYangMillsFieldSet, points) -> np.ndarray:
    """Norm scale (3/16)|m|^3 max_nu |i h^nu| of the sourced equation's
    right-hand side at each point: nonzero certifies the source is there."""
    points = _as_points(points)
    m3 = SOURCE_COUPLING * abs(fs.mass) ** 3
    rhs = {(nu,): fs.h[nu].value(points) * (1j * m3) for nu in range(4)}
    return _aggregate({"source": rhs}, points)["source"]


# -- identity checks --------------------------------------------------------------


def check_h_identities(h_vals) -> dict[str, float]:
    """Residuals of the three h identities at one point (per point for stacks).

    h^mu h^nu + h^nu h^mu = 2 eta^{mu nu} e ; (1/4) h^mu h_mu = e ;
    h^mu h^nu h_mu = h_mu h^nu h^mu = -2 h^nu (sum over mu).
    """
    clifford = _peak(
        (anticommutator(h_vals[mu], h_vals[nu]) - E * (2 * METRIC_DIAG[mu] * (mu == nu))).norm()
        for mu in range(4)
        for nu in range(4)
    )

    h_lower = [h_vals[mu] * METRIC_DIAG[mu] for mu in range(4)]
    contraction = _total(h_vals[mu] * h_lower[mu] for mu in range(4))
    contraction_res = (contraction * Fraction(1, 4) - E).norm()

    sandwich = _peak(
        (side - h_vals[nu] * (-2)).norm()
        for nu in range(4)
        for side in (
            _total(h_vals[mu] * h_vals[nu] * h_lower[mu] for mu in range(4)),
            _total(h_lower[mu] * h_vals[nu] * h_vals[mu] for mu in range(4)),
        )
    )

    return {
        "h_clifford": clifford,
        "h_contraction": contraction_res,
        "h_sandwich": sandwich,
    }


def check_reduction_identities(fs: TwoYangMillsFieldSet, points) -> dict[str, np.ndarray]:
    """Identities induced by the reduction on (h, B):

    d_mu(i h^nu) - [B_mu, i h^nu] = (m/4) [i h_mu, i h^nu]
    d_mu B_nu - d_nu B_mu - [B_mu, B_nu] = -(m/4)^2 [i h_mu, i h_nu]
    d_mu h^mu - [B_mu, h^mu] = 0
    """
    m4 = fs.mass / 4.0
    x = _as_points(points)
    bv = _values(fs.b, x)
    ih = [f.value(x) * 1j for f in fs.h]
    ih_lower = [ih[mu] * METRIC_DIAG[mu] for mu in range(4)]
    transport = [[_covariant(x, bv, mu, fs.h[nu]) for nu in range(4)] for mu in range(4)]
    components = {
        "h_b_transport": {
            (mu, nu): transport[mu][nu] * 1j - commutator(ih_lower[mu], ih[nu]) * m4
            for mu in range(4)
            for nu in range(4)
        },
        "b_curvature_consistency": {
            (mu, nu): _curvature(x, fs.b, bv, mu, nu)
            - commutator(ih_lower[mu], ih_lower[nu]) * (-(m4**2))
            for mu in range(4)
            for nu in range(mu + 1, 4)
        },
        "h_conservation": {(): _total(transport[mu][mu] for mu in range(4))},
    }
    return _aggregate(components, x)


def bianchi_current_check(a_fields, points) -> dict[str, np.ndarray]:
    """Conservation of the current induced by a gauge potential.

    F is defined from the potential by its curvature equation, the current
    by i J^nu = d_mu F^{mu nu} - [A_mu, F^{mu nu}]; antisymmetry of F then
    forces  d_nu J^nu - [A_nu, J^nu] = 0, which is evaluated here.  F and J
    are built as field trees, since J is differentiated once more.
    """
    f_fields: list[list[CliffordField]] = [[ZERO_FIELD] * 4 for _ in range(4)]
    for mu in range(4):
        for nu in range(4):
            if mu == nu:
                continue
            f_fields[mu][nu] = SumField(
                (
                    (1, a_fields[nu].partial(mu)),
                    (-1, a_fields[mu].partial(nu)),
                    (-1, commutator(a_fields[mu], a_fields[nu])),
                )
            )

    current = []
    for nu in range(4):
        terms = []
        for mu in range(4):
            up = (METRIC_DIAG[mu] * METRIC_DIAG[nu]) * f_fields[mu][nu]
            terms.append((1, up.partial(mu)))
            terms.append((-1, commutator(a_fields[mu], up)))
        current.append(SumField(terms))

    x = _as_points(points)
    av = _values(a_fields, x)
    total = _total(_covariant(x, av, nu, current[nu]) for nu in range(4))
    return _aggregate({"current_conservation": {(): total}}, x)


def convergence_slope(
    fs: TwoYangMillsFieldSet,
    points,
    steps=(1e-2, 5e-3, 2.5e-3),
) -> tuple[float, list[float]]:
    """Log-log slope of the max FD residual versus step.

    Central differences carry an O(step^2) error, so a reduced pure-gauge
    set should measure a slope near 2.
    """
    residuals = [
        worst(two_yang_mills_residuals(fs, PointSet(points, fd_step=h)).values()) for h in steps
    ]
    # A zero residual (central differences exact) or a NaN leaves no slope to measure.
    if not np.min(residuals) > 0.0:
        return float("nan"), residuals
    logs = np.log(np.asarray(steps, dtype=float))
    logr = np.log(np.asarray(residuals, dtype=float))
    slope = float(np.polyfit(logs, logr, 1)[0])
    return slope, residuals
