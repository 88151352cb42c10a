"""Arithmetic in the complex Clifford algebra Cl(1,3).

Generators e0..e3 obey  e^a e^b + e^b e^a = 2 eta^{ab} e  with
eta = diag(1,-1,-1,-1).  A blade e^{a1...ak} (indices strictly ascending)
is stored as a 4-bit mask with bit a set when e^a is a factor, so the 16
basis blades are ordered lexicographically by mask:

    e, e0, e1, e01, e2, e02, e12, e012, e3, e03, e13, e013, e23, e023, e123, e0123

An element carries 16 complex coefficients, either as a numpy complex128
vector (float mode) or as a tuple of RationalComplex (exact mode).  Float
mode is for field evaluation; exact mode certifies algebraic identities
with zero rounding.

Involutions:
  * pseudo-Hermitian conjugation ``pseudo_conj`` fixes each generator,
    conjugates scalars and reverses products: on a grade-k blade it is the
    reversion sign (-1)^{k(k-1)/2} together with coefficient conjugation.
  * Hermitian conjugation ``herm_conj`` is U -> beta U* beta with beta = e0.
  * ``complex_conj`` conjugates coefficients and fixes every blade.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exactnum import RC_ONE, RationalComplex

N_BLADES = 16
METRIC_DIAG = (1, -1, -1, -1)
ETA = np.diag(METRIC_DIAG).astype(int)

DEFAULT_TOL = 1e-12


class ExpConvergenceError(RuntimeError):
    """Raised when the exponential series fails to converge under its cap."""


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(a for a in range(4) if mask >> a & 1)


def grade_of(mask: int) -> int:
    """Number of generator factors in the blade with this mask."""
    return bin(mask).count("1")


BLADE_LABELS = tuple(
    "e" + "".join(str(a) for a in _bits(mask)) for mask in range(N_BLADES)
)
_LABEL_TO_MASK = {label: mask for mask, label in enumerate(BLADE_LABELS)}
GRADES = tuple(grade_of(mask) for mask in range(N_BLADES))
GRADE_MASKS = tuple(
    tuple(m for m in range(N_BLADES) if GRADES[m] == k) for k in range(5)
)
# Reversion sign (-1)^{k(k-1)/2} per blade.
REVERSION_SIGNS = tuple((-1) ** (GRADES[m] * (GRADES[m] - 1) // 2) for m in range(N_BLADES))


def label_to_mask(label: str) -> int:
    try:
        return _LABEL_TO_MASK[label]
    except KeyError:
        raise ValueError(f"unknown blade label {label!r}") from None


def blade_mul(a: int, b: int) -> tuple[int, int]:
    """Product of two basis blades: (sign, result mask).

    Each index of b is merged into a from the left, counting the
    transpositions past higher indices of a; a repeated index contracts
    with its metric sign eta^{aa}.
    """
    sign = 1
    acc = a
    for idx in _bits(b):
        higher = grade_of(acc >> (idx + 1) << (idx + 1))
        if higher & 1:
            sign = -sign
        if acc >> idx & 1:
            sign *= METRIC_DIAG[idx]
            acc &= ~(1 << idx)
        else:
            acc |= 1 << idx
    return sign, acc


_SIGNS = np.zeros((N_BLADES, N_BLADES), dtype=np.int8)
_PROD_MASK = np.zeros((N_BLADES, N_BLADES), dtype=np.int8)
for _a in range(N_BLADES):
    for _b in range(N_BLADES):
        _s, _m = blade_mul(_a, _b)
        _SIGNS[_a, _b] = _s
        _PROD_MASK[_a, _b] = _m

# 256 x 16 scatter matrix so a float-mode product is one matrix multiply:
# coeffs(UV) = outer(coeffs(U), coeffs(V)).ravel() @ _MUL_MATRIX
_MUL_MATRIX = np.zeros((N_BLADES * N_BLADES, N_BLADES))
for _a in range(N_BLADES):
    for _b in range(N_BLADES):
        _MUL_MATRIX[_a * N_BLADES + _b, _PROD_MASK[_a, _b]] = _SIGNS[_a, _b]

_REV_SIGNS_F = np.array(REVERSION_SIGNS, dtype=float)


def _coerce_scalar_exact(value) -> RationalComplex:
    return RationalComplex.from_value(value)


class CliffordElement:
    """A value of Cl(1,3): 16 coefficients over the blade basis.

    Immutable. ``exact`` selects rational-coefficient arithmetic.
    """

    __slots__ = ("_coeffs", "exact")

    def __init__(self, coeffs, exact: bool = False):
        if exact:
            data = tuple(_coerce_scalar_exact(c) for c in coeffs)
            if len(data) != N_BLADES:
                raise ValueError("need exactly 16 coefficients")
            object.__setattr__(self, "_coeffs", data)
        else:
            arr = np.asarray(
                [complex(c) for c in coeffs] if not isinstance(coeffs, np.ndarray) else coeffs,
                dtype=complex,
            ).copy()
            if arr.shape != (N_BLADES,):
                raise ValueError("need exactly 16 coefficients")
            arr.flags.writeable = False
            object.__setattr__(self, "_coeffs", arr)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, exact: bool = False) -> "CliffordElement":
        if exact:
            return cls([RationalComplex(0)] * N_BLADES, exact=True)
        return cls(np.zeros(N_BLADES, dtype=complex))

    @classmethod
    def from_blade(cls, blade, coeff=1, exact: bool = False) -> "CliffordElement":
        mask = label_to_mask(blade) if isinstance(blade, str) else int(blade)
        if not 0 <= mask < N_BLADES:
            raise ValueError(f"blade mask out of range: {mask}")
        if exact:
            coeffs = [RationalComplex(0)] * N_BLADES
            coeffs[mask] = _coerce_scalar_exact(coeff)
            return cls(coeffs, exact=True)
        arr = np.zeros(N_BLADES, dtype=complex)
        arr[mask] = complex(coeff)
        return cls(arr)

    @classmethod
    def from_coeff_map(cls, mapping, exact: bool = False) -> "CliffordElement":
        """Build from {blade label or mask: coefficient}."""
        out = cls.zero(exact)
        for blade, coeff in mapping.items():
            out = out + cls.from_blade(blade, coeff, exact)
        return out

    # -- mode handling -----------------------------------------------------

    def to_float(self) -> "CliffordElement":
        if not self.exact:
            return self
        return CliffordElement(np.array([complex(c) for c in self._coeffs]), exact=False)

    def coefficient(self, blade):
        mask = label_to_mask(blade) if isinstance(blade, str) else int(blade)
        return self._coeffs[mask]

    def coefficients(self):
        """The 16 coefficients in mask order (numpy array in float mode)."""
        return self._coeffs

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.exact and other.exact:
            return CliffordElement(
                [a + b for a, b in zip(self._coeffs, other._coeffs)], exact=True
            )
        a, b = self.to_float(), other.to_float()
        return CliffordElement(a._coeffs + b._coeffs)

    def __sub__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        if self.exact:
            return CliffordElement([-c for c in self._coeffs], exact=True)
        return CliffordElement(-self._coeffs)

    def _scalar_mul(self, scalar):
        if self.exact and isinstance(scalar, (int, Fraction, RationalComplex)):
            s = _coerce_scalar_exact(scalar)
            return CliffordElement([c * s for c in self._coeffs], exact=True)
        return CliffordElement(self.to_float()._coeffs * complex(scalar))

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            if self.exact and other.exact:
                return _mul_exact(self, other)
            a, b = self.to_float(), other.to_float()
            prod = np.outer(a._coeffs, b._coeffs).reshape(-1) @ _MUL_MATRIX
            return CliffordElement(prod)
        if isinstance(other, (int, float, complex, Fraction, RationalComplex)):
            return self._scalar_mul(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, Fraction, RationalComplex)):
            return self._scalar_mul(other)
        return NotImplemented

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction, RationalComplex)) and self.exact:
            one = RC_ONE / _coerce_scalar_exact(scalar)
            return self._scalar_mul(one)
        return self._scalar_mul(1.0 / complex(scalar))

    # -- grade structure ----------------------------------------------------

    def grade(self, k: int) -> "CliffordElement":
        """Projection onto the grade-k blades."""
        if not 0 <= k <= 4:
            raise ValueError(f"grade must be in 0..4, got {k}")
        if self.exact:
            coeffs = [
                c if GRADES[m] == k else RationalComplex(0)
                for m, c in enumerate(self._coeffs)
            ]
            return CliffordElement(coeffs, exact=True)
        keep = np.array([GRADES[m] == k for m in range(N_BLADES)])
        return CliffordElement(np.where(keep, self._coeffs, 0.0))

    # -- involutions ---------------------------------------------------------

    def pseudo_conj(self) -> "CliffordElement":
        """The * operation: antilinear antiautomorphism fixing each e^a."""
        if self.exact:
            return CliffordElement(
                [c.conjugate() * REVERSION_SIGNS[m] for m, c in enumerate(self._coeffs)],
                exact=True,
            )
        return CliffordElement(self._coeffs.conj() * _REV_SIGNS_F)

    def herm_conj(self) -> "CliffordElement":
        """Hermitian conjugation U -> beta U* beta, beta = e0."""
        beta = E0_EXACT if self.exact else E0
        return beta * self.pseudo_conj() * beta

    def conj(self) -> "CliffordElement":
        """Complex conjugation: coefficients conjugate, blades fixed."""
        if self.exact:
            return CliffordElement([c.conjugate() for c in self._coeffs], exact=True)
        return CliffordElement(self._coeffs.conj())

    # -- metrics -------------------------------------------------------------

    def norm(self) -> float:
        """Euclidean norm of the 16 coefficients."""
        if self.exact:
            s = sum((c.abs_sq() for c in self._coeffs), Fraction(0))
            return math.sqrt(float(s)) if s else 0.0
        return float(np.linalg.norm(self._coeffs))

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.exact:
            return all(not c for c in self._coeffs)
        return bool(np.max(np.abs(self._coeffs)) <= tol)

    def equals(self, other: "CliffordElement", tol: float = DEFAULT_TOL) -> bool:
        """Exact equality in exact mode, absolute tolerance otherwise."""
        if self.exact and other.exact:
            return self._coeffs == other._coeffs
        a, b = self.to_float(), other.to_float()
        return bool(np.max(np.abs(a._coeffs - b._coeffs)) <= tol)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.exact != other.exact:
            return False
        if self.exact:
            return self._coeffs == other._coeffs
        return bool(np.array_equal(self._coeffs, other._coeffs))

    __hash__ = None

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        """JSON object {blade label: [re, im]} over the nonzero coefficients."""
        out = {}
        for mask in range(N_BLADES):
            c = complex(self._coeffs[mask])
            if c != 0:
                out[BLADE_LABELS[mask]] = [c.real, c.imag]
        return out

    @classmethod
    def from_json_obj(cls, obj: dict, exact: bool = False) -> "CliffordElement":
        mapping = {}
        for label, pair in obj.items():
            re, im = pair
            if exact:
                mapping[label] = RationalComplex(Fraction(re), Fraction(im))
            else:
                mapping[label] = complex(re, im)
        return cls.from_coeff_map(mapping, exact)

    def __repr__(self):
        terms = []
        for mask in range(N_BLADES):
            c = self._coeffs[mask]
            if (not c) if self.exact else c == 0:
                continue
            terms.append(f"({c})*{BLADE_LABELS[mask]}")
        body = " + ".join(terms) if terms else "0"
        mode = "exact" if self.exact else "float"
        return f"<{body} [{mode}]>"


def _mul_exact(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    coeffs = [RationalComplex(0)] * N_BLADES
    for a, ca in enumerate(u._coeffs):
        if not ca:
            continue
        for b, cb in enumerate(v._coeffs):
            if not cb:
                continue
            m = _PROD_MASK[a, b]
            coeffs[m] = coeffs[m] + ca * cb * int(_SIGNS[a, b])
    return CliffordElement(coeffs, exact=True)


# -- module-level operations ----------------------------------------------


def mul(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    return u * v


def linear_combine(terms) -> CliffordElement:
    """Sum of scalar * element over a list of (scalar, element) pairs."""
    terms = list(terms)
    if not terms:
        return CliffordElement.zero()
    out = None
    for scalar, elem in terms:
        part = elem * scalar
        out = part if out is None else out + part
    return out


def grade_project(u: CliffordElement, k: int) -> CliffordElement:
    return u.grade(k)


def pseudo_conj(u: CliffordElement) -> CliffordElement:
    return u.pseudo_conj()


def herm_conj(u: CliffordElement) -> CliffordElement:
    return u.herm_conj()


def complex_conj(u: CliffordElement) -> CliffordElement:
    return u.conj()


def commutator(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    return u * v - v * u


def anticommutator(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    return u * v + v * u


def norm(u: CliffordElement) -> float:
    return u.norm()


def exp_element(
    u: CliffordElement, tol: float = 1e-15, max_terms: int = 200
) -> CliffordElement:
    """exp(u) by scaling-and-squaring over the power series.

    Always computed in float mode (the series is not rational).  Raises
    ValueError when a coefficient is not finite or the norm overflows.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = u.to_float()
    with np.errstate(over="ignore"):
        n = u.norm()
    if not math.isfinite(n):
        raise ValueError(f"exp_element needs finite coefficients with a finite norm, got norm {n}")
    squarings = max(0, int(math.ceil(math.log2(n)))) if n > 1.0 else 0
    v = u * (0.5**squarings)
    total = E
    term = E
    for k in range(1, max_terms + 1):
        term = term * v * (1.0 / k)
        total = total + term
        if term.norm() < tol:
            break
    else:
        raise ExpConvergenceError(
            f"exp series did not reach tol={tol} within {max_terms} terms"
        )
    for _ in range(squarings):
        total = total * total
    return total


def random_element(rng: np.random.Generator, scale: float = 1.0) -> CliffordElement:
    """Dense random element with coefficients uniform in a square of side 2*scale."""
    re = rng.uniform(-scale, scale, N_BLADES)
    im = rng.uniform(-scale, scale, N_BLADES)
    return CliffordElement(re + 1j * im)


# -- distinguished constants ------------------------------------------------

E = CliffordElement.from_blade("e")
E0 = CliffordElement.from_blade("e0")
E1 = CliffordElement.from_blade("e1")
E2 = CliffordElement.from_blade("e2")
E3 = CliffordElement.from_blade("e3")
GENERATORS = (E0, E1, E2, E3)
BETA = E0
# Fixed bivector J = -e1 e3 entering the idempotent condition bar(t) J = J t.
J = CliffordElement.from_blade("e13", -1)

E_EXACT = CliffordElement.from_blade("e", RC_ONE, exact=True)
E0_EXACT = CliffordElement.from_blade("e0", RC_ONE, exact=True)
GENERATORS_EXACT = tuple(
    CliffordElement.from_blade(f"e{a}", RC_ONE, exact=True) for a in range(4)
)
J_EXACT = CliffordElement.from_blade("e13", RationalComplex(-1), exact=True)


def unit(exact: bool = False) -> CliffordElement:
    return E_EXACT if exact else E


def generators(exact: bool = False) -> tuple[CliffordElement, ...]:
    return GENERATORS_EXACT if exact else GENERATORS
