"""Spacetime field configurations and residual evaluation for the model
Dirac-Yang-Mills systems.

Index conventions: coordinates x^mu on [0,1]^4 by default, metric
eta = diag(1,-1,-1,-1).  h is stored contravariant (h^mu), the potentials
A_mu, C_mu, B_mu and the strengths F_{mu nu}, G_{mu nu} covariant; raising
is a metric sign per index.

Fields are expression trees (:class:`CliffordField`) with exact partial
derivatives built structurally, and so is every residual: each equation is
one root node over the field set's nodes, evaluated over a :class:`PointSet`
and differentiated by the rule of its pass, exact partials or central
finite differences of step ``fd_step``.  A known zero folds where it is
built: the pure-gauge phi = A = F = 0 are ZERO_FIELD, and so is an equation
made only of them, whose value is one zero element.
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
to solutions of the second; ``reductions`` implements it for a list of
masses and ``reduce_to_two_yang_mills`` for the model set's own.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from .algebra import (
    BETA,
    E,
    GENERATORS,
    METRIC_DIAG,
    CliffordElement,
    commutator,
    exp_element,
    random_element,
    stack,
)
from .exactnum import known_keys
from .rep import gamma_rep
from .shapes import PolyShape, Shape, TrigShape, shape_from_json
from .subspaces import (
    MEMBERSHIP_TOL,
    sp_algebra_residual,
    subspace_basis,
)

SOURCE_COUPLING = 3.0 / 16.0  # coefficient of m^3 i h^nu in the sourced equation

_ZERO = CliffordElement.zero()
_ETA = np.array(METRIC_DIAG, dtype=complex)  # a metric sign multiplies by a complex weight
_PAIRS = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]
_ROWS, _COLS = map(list, zip(*_PAIRS))
_UNIT_POWERS = [tuple(int(mu == axis) for mu in range(4)) for axis in range(4)]  # x^axis alone


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
    differences of that step otherwise, over its ``stencil``: the points
    moved by +step (shifts 0-3) and -step (shifts 4-7) along each axis, one
    pass of shape (..., 8, 4) that serves every axis.

    Value layout: index axes, then point axes, then the 4x4 matrix, so an
    index-free value (W, phi, U) broadcasts against an index stack; a value
    constant over the points has singleton point axes if it has index axes
    and is one matrix if not; on a stencil the last point axis holds the shifts.
    """

    __slots__ = ("x", "fd_step", "values", "stencil")

    def __init__(self, x, fd_step: float | None = None):
        if fd_step is not None and not 0 < fd_step < np.inf:
            raise ValueError(f"fd_step must be positive and finite, got {fd_step!r}")
        self.x = np.asarray(x, dtype=float)
        self.fd_step = fd_step
        self.values: weakref.WeakKeyDictionary[CliffordField, CliffordElement] = (
            weakref.WeakKeyDictionary()
        )
        self.stencil = None
        if fd_step is not None:
            shifts = np.concatenate((np.eye(4), -np.eye(4))) * fd_step
            self.stencil = PointSet(self.x[..., None, :] + shifts)


def _as_points(x) -> PointSet:
    return x if isinstance(x, PointSet) else PointSet(x)


def _at_points(u: CliffordElement, rank: int) -> CliffordElement:
    """u with ``rank`` singleton point axes after its index axes."""
    return u[(Ellipsis,) + (None,) * rank + (slice(None),) * 2]


def _by_index(u: CliffordElement, weights: np.ndarray) -> CliffordElement:
    """u times weights[i] at each index i of its leading index axes."""
    return u * weights.reshape(weights.shape + (1,) * (gamma_rep(u).ndim - 2 - weights.ndim))


class CliffordField:
    """Clifford-valued field on R^{1,3} with structural exact derivatives.

    ``value`` takes one point, an (N, 4) array of points or a PointSet and
    returns one element or a stack of N; the PointSet keeps the value while
    this node exists.  ``partial`` nodes are built once and shared, so
    repeated evaluation across equations reuses subexpressions.

    A Lorentz index family is one node with index axes before the point axes
    (see ``PointSet``); ``f[key]`` is an index view (row mu, ``[:, None]``,
    ...), a ``MappedField`` that commutes with d_mu, and iteration yields rows.

    A known zero folds where it is built: a product, map or bracket with a
    ``ZERO_FIELD`` operand (one of its first ``_zero_operands`` arguments), a
    sum with no nonzero term and a stack of zero rows are ``ZERO_FIELD``
    itself, so no pass evaluates or differentiates them.

    Nodes form no reference cycle: a node holds its operands and its
    partials, and the nodes that a partial of theirs holds back (see
    ``ExpField``) hold their partials weakly.  So reference counting frees
    a node, and its values in every pass, as soon as the last holder lets
    go.
    """

    __slots__ = ("_partials", "__weakref__")
    _zero_operands = 0

    def __new__(cls, *args):
        if any(f is ZERO_FIELD for f in args[: cls._zero_operands]):
            return ZERO_FIELD
        node = super().__new__(cls)
        node._partials = {}
        return node

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

    def __getitem__(self, key) -> "CliffordField":
        return MappedField(self, operator.itemgetter(key))

    def __iter__(self):
        return (self[mu] for mu in range(4))


class ConstantField(CliffordField):
    """One element or index stack (e^mu) at every point, held here, not by a pass."""

    __slots__ = ("element",)

    def __init__(self, element: CliffordElement):
        self.element = element.to_float()

    def value(self, x):
        if gamma_rep(self.element).ndim == 2:
            return self.element
        return _at_points(self.element, _as_points(x).x.ndim - 1)

    def _differentiate(self, mu):
        return ZERO_FIELD


class ShapeField(CliffordField):
    """s(x) * u for a scalar shape s and constant element u; ZERO_FIELD for a
    shape bounded by 0, such as a derivative of a constant."""

    __slots__ = ("shape", "element")

    def __new__(cls, shape: Shape, element: CliffordElement):
        return ZERO_FIELD if shape.bound(0.0) == 0.0 else super().__new__(cls)

    def __init__(self, shape: Shape, element: CliffordElement):
        self.shape = shape
        self.element = element.to_float()

    def _evaluate(self, points):
        return self.element * self.shape.value(points.x)

    def _differentiate(self, mu):
        return ShapeField(self.shape.deriv(mu), self.element)


class SumField(CliffordField):
    """sum_k w_k f_k over (weight, field) terms, added left to right.

    A term of weight 1 is added and one of weight -1 subtracted, so neither
    is multiplied and each keeps the rounding of its field's value.  A term
    of weight 0 or field ``ZERO_FIELD`` is dropped: a sum with none left is
    ``ZERO_FIELD``, and one whose only term has weight 1 is that term's field.
    """

    __slots__ = ("terms",)

    def __new__(cls, terms):
        terms = tuple((complex(w), f) for w, f in terms if w != 0 and f is not ZERO_FIELD)
        if not terms:
            return ZERO_FIELD
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        node = super().__new__(cls)
        node.terms = terms
        return node

    def _evaluate(self, points):
        (w, f), *rest = self.terms
        total = f.value(points)
        total = total if w == 1 else -total if w == -1 else total * w
        for w, f in rest:
            val = f.value(points)
            total = total + val if w == 1 else total - val if w == -1 else total + val * w
        return total

    def _differentiate(self, mu):
        return SumField((w, f.partial(mu)) for w, f in self.terms)


class ProductField(CliffordField):
    __slots__ = ("left", "right")
    _zero_operands = 2

    def __init__(self, left: CliffordField, right: CliffordField):
        self.left, self.right = left, right

    def _evaluate(self, points):
        return self.left.value(points) * self.right.value(points)

    def _differentiate(self, mu):
        left, right = self.left, self.right
        return ProductField(left.partial(mu), right) + ProductField(left, right.partial(mu))


class BracketField(CliffordField):
    """[u, v]: ``commutator`` of the operand values, differentiated by the
    Leibniz rule d[u, v] = [du, v] + [u, dv]."""

    __slots__ = ("left", "right")
    _zero_operands = 2
    __init__ = ProductField.__init__

    def _evaluate(self, points):
        return commutator(self.left.value(points), self.right.value(points))

    def _differentiate(self, mu):
        u, v = self.left, self.right
        return BracketField(u.partial(mu), v) + BracketField(u, v.partial(mu))


class ExpField(CliffordField):
    """exp(v * s(x)) for a constant generator v and scalar shape s.

    d_mu exp(v s) holds this node, and d_nu d_mu exp(v s) holds
    d_nu exp(v s), so this node and its partials memoize their own
    partials weakly: a strong memo would close a reference cycle.  Such a
    partial lives while a tree that uses it does.
    """

    __slots__ = ("generator", "shape")

    def __init__(self, generator: CliffordElement, shape: Shape):
        self._partials = weakref.WeakValueDictionary()
        self.generator = generator.to_float()
        self.shape = shape

    def _evaluate(self, points):
        return exp_element(self.generator * self.shape.value(points.x))

    def _differentiate(self, mu):
        # v commutes with exp(v s), so d_mu exp(v s) = (d_mu s) v exp(v s).
        out = ProductField(ShapeField(self.shape.deriv(mu), self.generator), self)
        if out is not ZERO_FIELD:
            out._partials = weakref.WeakValueDictionary()
        return out


class MappedField(CliffordField):
    """op(f(x)) for a coefficient-wise linear op that commutes with d_mu."""

    __slots__ = ("inner", "op")
    _zero_operands = 1

    def __init__(self, inner: CliffordField, op):
        self.inner, self.op = inner, op

    def _evaluate(self, points):
        return self.op(self.inner.value(points))

    def _differentiate(self, mu):
        return MappedField(self.inner.partial(mu), self.op)


class StackField(CliffordField):
    """The family that stacks its rows' trees on a new leading axis; its partial
    stacks theirs, ``f[mu]`` is row mu's own tree, and a pass holds the rows'
    values, not their stack."""

    __slots__ = ("rows",)

    def __new__(cls, rows):
        rows = tuple(rows)
        if all(f is ZERO_FIELD for f in rows):
            return ZERO_FIELD
        node = super().__new__(cls)
        node.rows = rows
        return node

    def __getitem__(self, key) -> CliffordField:
        return self.rows[key] if isinstance(key, int) else super().__getitem__(key)

    def value(self, x):
        points = _as_points(x)
        out = stack([f.value(points) for f in self.rows])
        return _at_points(out, points.x.ndim - 1) if gamma_rep(out).ndim == 3 else out

    def _differentiate(self, mu):
        return StackField(f.partial(mu) for f in self.rows)


class DifferenceField(CliffordField):
    """d_mu f by ``fd_derivative`` at the ``fd_step`` of its pass: the derivative
    rule of a finite-difference pass, and the one node that reads the step."""

    __slots__ = ("inner", "mu")
    _zero_operands = 1

    def __init__(self, inner: CliffordField, mu: int):
        self.inner, self.mu = inner, mu

    def _evaluate(self, points):
        return fd_derivative(self.inner.value, points, self.mu)


ZERO_FIELD = ConstantField(_ZERO)


def _total(terms) -> CliffordElement:
    """Left-to-right sum of a non-empty sequence of elements."""
    return reduce(operator.add, terms)


def fd_derivative(func, points: PointSet, mu: int):
    """Central difference, with O(step^2) error, along axis mu of a field's
    ``value`` over a finite-difference pass, at the pass's ``fd_step``.
    func is evaluated once on the pass's stencil, so the other three axes
    read the same value: shifts mu and 4 + mu at axis -3."""
    val = func(points.stencil)
    if gamma_rep(val).shape[-3:-2] == (8,):
        plus, minus = val[..., mu, :, :], val[..., 4 + mu, :, :]
    else:  # a value with no 8 shifts at axis -3 does not vary over the stencil
        plus = minus = val[..., 0, :, :] if gamma_rep(val).ndim > 2 else val
    return (plus - minus) * (0.5 / points.fd_step)


# -- families of group-valued fields -------------------------------------------


class FieldFamily:
    """W(x) = prod_j exp(v_j * s_j(x)), evaluated left to right.

    ``w`` and ``winv`` are the trees of W and W^-1, built once and shared by every
    use.  Pure-gauge constructions require each v_j in sp(cl(1,3)) (``validate_symplectic``).
    """

    def __init__(self, factors: tuple[tuple[CliffordElement, Shape], ...]):
        self.factors = tuple((v.to_float(), s) for v, s in factors)
        w = [ExpField(v, s) for v, s in self.factors]
        winv = [ExpField(-v, s) for v, s in reversed(self.factors)]
        self.w, self.winv = (reduce(ProductField, t) if t else ConstantField(E) for t in (w, winv))

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
        weights = rng.uniform(-scale, scale, len(basis))
        v = _total(b * float(wgt) for wgt, b in zip(weights, basis))
        if j % 2 == 1:
            shape: Shape = TrigShape(
                "sin",
                float(rng.uniform(0.3, 1.0)),
                rng.uniform(-1.0, 1.0, 4),
                float(rng.uniform(0.0, 2.0)),
            )
        else:
            terms = {p: float(rng.uniform(-1.0, 1.0)) for p in _UNIT_POWERS}
            terms[(0, 0, 0, 0)] = float(rng.uniform(-0.5, 0.5))
            terms[(1, 1, 0, 0)] = float(rng.uniform(-0.5, 0.5))
            shape = PolyShape(terms)
        factors.append((v, shape))
    return FieldFamily(tuple(factors))


def sample_points(seed: int, count: int) -> np.ndarray:
    """Deterministic sample points in the [0,1]^4 box."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(count, 4))


def _random_poly(rng: np.random.Generator, scale: float = 1.0) -> PolyShape:
    terms = {(0, 0, 0, 0): float(rng.uniform(-scale, scale))}
    terms.update((p, float(rng.uniform(-scale, scale))) for p in _UNIT_POWERS)
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
    t: CliffordElement
    phi: CliffordField
    h: CliffordField
    a: CliffordField
    f: CliffordField
    c: CliffordField


@dataclass(frozen=True)
class TwoYangMillsFieldSet:
    """Variables of the two-Yang-Mills system: phi, h^mu, A, F, B, G."""

    mass: float
    t: CliffordElement
    phi: CliffordField
    h: CliffordField
    a: CliffordField
    f: CliffordField
    b: CliffordField
    g: CliffordField


def build_pure_gauge(family: FieldFamily, t: CliffordElement, mass: float) -> ModelFieldSet:
    """Pure-gauge solution of the model system.

    h^mu = W^{-1} e^mu W,  C_mu = -W^{-1} d_mu W,  phi = 0,  A = F = 0.
    All four equations hold identically: phi kills the Dirac equation and
    the source, A = F = 0 settles the unitary pair, and the transport
    equation is the Maurer-Cartan identity of W.
    """
    family.validate_symplectic()
    w, winv = family.w, family.winv
    h = ProductField(ProductField(winv, ConstantField(stack(GENERATORS))), w)
    c = StackField(-ProductField(winv, w.partial(mu)) for mu in range(4))
    zero = ZERO_FIELD
    return ModelFieldSet(mass=float(mass), t=t, phi=zero, h=h, a=zero, f=zero, c=c)


def random_two_yang_mills_set(seed: int, t: CliffordElement, mass: float) -> TwoYangMillsFieldSet:
    """A membership-valid configuration that does not solve the system.

    h stays pure gauge (its algebraic constraint is part of the variable
    class), while phi, A, F, B, G are random smooth fields in their
    respective spaces; every equation residual is then of order one.
    """
    rng = np.random.default_rng(seed)
    base = build_pure_gauge(random_family(seed + 17), t, mass)

    phi_span = [random_element(rng, 0.7) * t.to_float() for _ in range(3)]
    phi = SumField((1, ShapeField(_random_poly(rng, 0.7), u)) for u in phi_span)

    l_basis, sp_basis = subspace_basis("L", t), subspace_basis("sp_cl")
    a = StackField(_random_span_field(rng, l_basis) for _ in range(4))
    f = MappedField(StackField(_random_span_field(rng, l_basis) for _ in _PAIRS), _antisymmetric)
    b = StackField(_random_span_field(rng, sp_basis) for _ in range(4))
    g = MappedField(StackField(_random_span_field(rng, sp_basis) for _ in _PAIRS), _antisymmetric)
    return TwoYangMillsFieldSet(mass=float(mass), t=t, phi=phi, h=base.h, a=a, f=f, b=b, g=g)


def reductions(fs: ModelFieldSet, masses):
    """Yield the reduced set of fs at each mass in turn:
    B_mu = C_mu - (m/4) i h_mu and G_{mu nu} = -(m/4)^2 [i h_mu, i h_nu].

    The mass enters only as a weight (at m = 0 it folds: B stacks C's rows, G is ZERO_FIELD),
    so i h_mu and their bracket rows are built once and shared by every set yielded; they
    live as long as this generator or one of those sets, and a pass keeps their values as long.
    """
    ih_lower = MappedField(fs.h, partial(_by_index, weights=1j * _ETA))
    brackets = [BracketField(ih_lower[mu], ih_lower) for mu in range(4)]
    for m in masses:
        m4 = m / 4.0
        b = StackField(SumField(((1, fs.c[mu]), (-m4, ih_lower[mu]))) for mu in range(4))
        g = StackField(-(m4**2) * row for row in brackets)
        yield TwoYangMillsFieldSet(mass=m, t=fs.t, phi=fs.phi, h=fs.h, a=fs.a, f=fs.f, b=b, g=g)


def reduce_to_two_yang_mills(fs: ModelFieldSet) -> TwoYangMillsFieldSet:
    """The reduced set of fs at its own mass (see ``reductions``)."""
    return next(reductions(fs, (fs.mass,)))


# -- residual evaluation ---------------------------------------------------------
#
# Every residual is one root node built from three covariant operators of a
# potential P and the derivative rule ``d`` of its pass (``_derivative``):
# the curvature, the covariant derivative (whose trace is a conservation law)
# and the metric-signed divergence, each commutator one BracketField.  A
# residual function builds its roots one at a time, evaluates each and lets it
# go, so a root's own nodes leave the pass with it while the field set's nodes
# stay; a root whose terms all fold is ZERO_FIELD.  Index sums fold left to right.

_RAISE = np.outer(_ETA, METRIC_DIAG)  # eta^{mu mu} eta^{nu nu} raises both indices of X_{mu nu}
# Where X_{mu nu} of an antisymmetric family sits in the stack [u, -u, 0] of
# its pair rows u (row k at _PAIRS[k]): side 0, 1 or 2 and row k.
_SIDE, _ROW = np.full((4, 4), 2), np.zeros((4, 4), dtype=int)
_SIDE[_ROWS, _COLS], _SIDE[_COLS, _ROWS] = 0, 1
_ROW[_ROWS, _COLS] = _ROW[_COLS, _ROWS] = range(6)


def _index_sum(u: CliffordElement) -> CliffordElement:
    """sum_mu u[mu] over the leading index axis."""
    return _total(u[mu] for mu in range(4))


def _trace(u: CliffordElement) -> CliffordElement:
    """sum_mu u[mu, mu] over the two leading index axes."""
    return _total(u[mu, mu] for mu in range(4))


def _antisymmetric(u: CliffordElement) -> CliffordElement:
    """The (4, 4) antisymmetric family whose pair rows are u."""
    return stack([u, -u, _ZERO])[_SIDE, _ROW]


def _derivative(x: PointSet):
    """The derivative rule of the pass x, (f, mu) -> the node d_mu f."""
    return CliffordField.partial if x.fd_step is None else DifferenceField


def _curvature(pot, d) -> CliffordField:
    """d_mu P_nu - d_nu P_mu - [P_mu, P_nu] over the pairs mu < nu."""
    p = list(pot)
    d1 = StackField(d(p[nu], mu) for mu, nu in _PAIRS)
    d2 = StackField(d(p[mu], nu) for mu, nu in _PAIRS)
    return SumField(((1, d1), (-1, d2), (-1, BracketField(pot[_ROWS], pot[_COLS]))))


def _transport(pot, f, d) -> CliffordField:
    """d_mu f^nu - [P_mu, f^nu] over (mu, nu) for a (4,) family f."""
    return StackField(d(f, mu) for mu in range(4)) - BracketField(pot[:, None], f)


def _divergence(pot, strength, d) -> CliffordField:
    """d_mu X^{mu nu} - [P_mu, X^{mu nu}] over nu for a lower-index strength X_{mu nu}."""
    dx = StackField(d(row, mu) for mu, row in enumerate(strength))
    terms = dx - BracketField(pot[:, None], strength)
    return MappedField(terms, lambda u: _index_sum(_by_index(u, _RAISE)))


def _yang_mills_pair(name, pot, strength, rhs, d):
    """The curvature and sourced divergence residuals of one potential/strength pair."""
    yield "curvature_" + name, _curvature(pot, d) - strength[_ROWS, _COLS]
    yield "source_" + name, _divergence(pot, strength, d) - rhs


def _dirac(fs, pot, d) -> CliffordField:
    """i h^mu (d_mu phi + phi A_mu - P_mu phi), summed over mu."""
    dphi = StackField(d(fs.phi, mu) for mu in range(4))
    terms = SumField(((1, dphi), (1, ProductField(fs.phi, fs.a)), (-1, ProductField(pot, fs.phi))))
    return MappedField(ProductField(1j * fs.h, terms), _index_sum)


def current_vector(phi: CliffordField, h: CliffordField) -> CliffordField:
    """i J^mu = phi^dag beta i h^mu phi, a family of index mu, for fields phi and h^mu."""
    conj = MappedField(phi, operator.methodcaller("herm_conj"))
    return ProductField(ProductField(ProductField(conj, ConstantField(BETA)), 1j * h), phi)


def _model_equations(fs: ModelFieldSet, x: PointSet):
    d = _derivative(x)
    yield "dirac", _dirac(fs, fs.c, d) - fs.mass * fs.phi
    yield from _yang_mills_pair("a", fs.a, fs.f, current_vector(fs.phi, fs.h), d)
    yield "h_transport", _transport(fs.c, fs.h, d)


def two_yang_mills_equations(fs: TwoYangMillsFieldSet, x: PointSet):
    """Yield (equation, residual root) in turn, differentiated by the rule
    of the pass x; each root is built when the previous one is let go."""
    d = _derivative(x)
    yield "dirac", _dirac(fs, fs.b, d)
    yield from _yang_mills_pair("a", fs.a, fs.f, current_vector(fs.phi, fs.h), d)
    m3 = SOURCE_COUPLING * fs.mass**3
    yield from _yang_mills_pair("b", fs.b, fs.g, (1j * m3) * fs.h, d)


def model_residual_components(fs: ModelFieldSet, x) -> dict[str, CliffordElement]:
    """Per equation, one stacked element: index shape (), (6,) pairs, (4,) or
    (4, 4), or one zero element for an equation that folds to ZERO_FIELD."""
    x = _as_points(x)
    return {eq: root.value(x) for eq, root in _model_equations(fs, x)}


def two_yang_mills_residual_components(fs: TwoYangMillsFieldSet, x) -> dict[str, CliffordElement]:
    """Per equation, its residual as one stacked element (see ``model_residual_components``)."""
    x = _as_points(x)
    return {eq: root.value(x) for eq, root in two_yang_mills_equations(fs, x)}


def worst(residuals) -> float:
    """The largest of a non-empty sequence of residual numbers and arrays.

    NaN if any entry holds a NaN: ``np.max`` propagates it, where the
    builtin ``max`` drops a NaN that does not come first.
    """
    return float(np.max([np.max(r) for r in residuals]))


def _peak(r: CliffordElement, points: PointSet) -> np.ndarray:
    """The largest norm of r over its index axes at each point."""
    shape = points.x.shape[:-1]
    norm = r.norm()
    return np.broadcast_to(np.max(norm, axis=tuple(range(norm.ndim - len(shape)))), shape)


def model_residuals(fs: ModelFieldSet, points) -> dict[str, np.ndarray]:
    x = _as_points(points)
    return {eq: _peak(r, x) for eq, r in model_residual_components(fs, x).items()}


def two_yang_mills_residuals(fs: TwoYangMillsFieldSet, points) -> dict[str, np.ndarray]:
    x = _as_points(points)
    return {eq: _peak(r, x) for eq, r in two_yang_mills_residual_components(fs, x).items()}


def source_norm(fs: TwoYangMillsFieldSet, points) -> np.ndarray:
    """Norm scale (3/16)|m|^3 max_nu |i h^nu| of the sourced equation's
    right-hand side at each point: nonzero certifies the source is there."""
    points = _as_points(points)
    m3 = SOURCE_COUPLING * abs(fs.mass) ** 3
    return _peak(fs.h.value(points) * (1j * m3), points)


# -- identity checks --------------------------------------------------------------

# 2 eta^{mu nu} e, the right-hand side of the Clifford relation of h.
_CLIFFORD_RHS = stack(
    [stack([E * (2 * METRIC_DIAG[mu] * (mu == nu)) for nu in range(4)]) for mu in range(4)]
)


def check_h_identities(h: CliffordElement) -> dict[str, np.ndarray]:
    """Residuals of the three h identities at one point (per point for
    stacks), for the value h of h^mu, index mu first.

    h^mu h^nu + h^nu h^mu = 2 eta^{mu nu} e ; (1/4) h^mu h_mu = e ;
    h^mu h^nu h_mu = h_mu h^nu h^mu = -2 h^nu (sum over mu).
    """
    hh = h[:, None] * h[None, :]  # [mu, nu] = h^mu h^nu
    rhs = _at_points(_CLIFFORD_RHS, gamma_rep(h).ndim - 3)
    hh_swapped = stack([hh[:, nu] for nu in range(4)])  # [mu, nu] = h^nu h^mu
    clifford = np.max((hh + hh_swapped - rhs).norm(), axis=(0, 1))

    h_lower = _by_index(h, _ETA)
    contraction = (_index_sum(h * h_lower) * Fraction(1, 4) - E).norm()

    # h_mu h^nu h^mu is the same product bit for bit: lowering an index is an exact sign.
    sandwich = np.max((_index_sum(hh * h_lower[:, None]) - h * (-2)).norm(), axis=0)

    return {
        "h_clifford": clifford,
        "h_contraction": contraction,
        "h_sandwich": sandwich,
    }


def _reduction_identities(fs: TwoYangMillsFieldSet, x: PointSet):
    transport, ih = _transport(fs.b, fs.h, _derivative(x)), 1j * fs.h
    bracket = BracketField(MappedField(ih, partial(_by_index, weights=_ETA))[:, None], ih)
    yield "h_b_transport", SumField(((1j, transport), (-fs.mass / 4.0, bracket)))
    yield "h_conservation", MappedField(transport, _trace)


def check_reduction_identities(fs: TwoYangMillsFieldSet, points) -> dict[str, np.ndarray]:
    """Identities induced by the reduction on (h, B):

    d_mu(i h^nu) - [B_mu, i h^nu] = (m/4) [i h_mu, i h^nu]
    d_mu h^mu - [B_mu, h^mu] = 0

    The third, d_mu B_nu - d_nu B_mu - [B_mu, B_nu] = -(m/4)^2 [i h_mu, i h_nu],
    is the curvature equation of B in ``two_yang_mills_residuals``.
    """
    x = _as_points(points)
    return {eq: _peak(root.value(x), x) for eq, root in _reduction_identities(fs, x)}


def bianchi_current_check(a: CliffordField, points) -> dict[str, np.ndarray]:
    """Conservation of the current induced by a gauge potential A_mu.

    F is the curvature of the potential, the current i J^nu its divergence
    d_mu F^{mu nu} - [A_mu, F^{mu nu}]; antisymmetry of F then forces
    d_nu J^nu - [A_nu, J^nu] = 0, evaluated here as the trace of J's transport.
    F and J are differentiated structurally, the transport by the rule of the pass.
    """
    x = _as_points(points)
    f = MappedField(_curvature(a, CliffordField.partial), _antisymmetric)
    j = _divergence(a, f, CliffordField.partial)
    conservation = MappedField(_transport(a, j, _derivative(x)), _trace)
    return {"current_conservation": _peak(conservation.value(x), x)}


def convergence_slope(fs: TwoYangMillsFieldSet, points, steps) -> tuple[float, list[float]]:
    """Log-log slope of the max FD residual versus step.

    Central differences carry an O(step^2) error, so a reduced pure-gauge
    set should measure a slope near 2.
    """
    # Each step opens a pass of its own, base values included: a value map
    # shared across FD passes would hand one step's central-difference nodes
    # to another, since they are keyed by node and not by step.
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
