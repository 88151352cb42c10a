"""Arithmetic in the complex Clifford algebra Cl(1,3).

Generators e0..e3 obey  e^a e^b + e^b e^a = 2 eta^{ab} e  with
eta = diag(1,-1,-1,-1).  A blade e^{a1...ak} (indices strictly ascending)
is stored as a 4-bit mask with bit a set when e^a is a factor, so the 16
basis blades are ordered lexicographically by mask:

    e, e0, e1, e01, e2, e02, e12, e012, e3, e03, e13, e013, e23, e023, e123, e0123

A float element is stored as its Dirac matrix (see ``BLADE_REPS``): shape
(4, 4), or (N, 4, 4) for a stack of N values such as a field over a point
set, so the product is a matrix product.  Blade coefficients are read off
by the trace formula only where they are needed.  An exact element
carries 16 RationalComplex coefficients and certifies algebraic
identities with zero rounding; it is the oracle of the float mode.

A result is exact iff an element operand is exact.  The other operand,
a float element or a real or complex scalar, is then lifted to rationals
exactly, since every double is a rational; a float stack or an array of
scalars cannot be lifted, because an exact element holds one value.  So
the float constants below (``E``, ``BETA``, ``J``) serve both modes.

Every float product of element matrices runs as one real GEMM
(``_matmul``), because with numpy 2.4 a stacked complex 4x4 ``@`` costs
about 0.35 us per slice and a real GEMM about 0.1 us.  Elements stay
stored as complex 4x4 matrices; only the real (..., 8, 8) expansion of a
right-hand factor is a temporary.

Involutions:
  * pseudo-Hermitian conjugation ``pseudo_conj`` fixes each generator,
    conjugates scalars and reverses products: on a grade-k blade it is the
    reversion sign (-1)^{k(k-1)/2} together with coefficient conjugation.
  * Hermitian conjugation ``herm_conj`` is U -> beta U* beta with beta = e0.
  * ``conj`` conjugates coefficients and fixes every blade.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exactnum import RC_ONE, RationalComplex, is_finite_real

N_BLADES = 16
METRIC_DIAG = (1, -1, -1, -1)

DEFAULT_TOL = 1e-12
# Series terms of exp after scaling to coefficient norm <= 1.  The Dirac
# matrix V then has |V|_2 <= |V|_F <= 2 (equality for a rank-one V), so the
# first omitted term, 2^25/25! ~ 2e-18, is below double rounding.
_EXP_TERMS = 24


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


# -- the float product kernel ---------------------------------------------------
#
# For complex (..., 4, 4) arrays A and B, A.view(float) is the (..., 4, 8)
# array [Re a_i0, Im a_i0, Re a_i1, ...].  The (..., 8, 8) real matrix R
# whose row 2k is row k of B and whose row 2k + 1 is row k of iB, both read
# as interleaved floats, gives A.view(float) @ R = (A @ B).view(float).
# Each slice of a stack is one GEMM of fixed size, so an element's product
# does not depend on the stack it sits in.


def _expand(b: np.ndarray) -> np.ndarray:
    """The (..., 8, 8) real right-hand factor R of b (see above)."""
    b = np.ascontiguousarray(b)
    return np.concatenate((b, 1j * b), -1).view(float).reshape(b.shape[:-2] + (8, 8))


def _times(a: np.ndarray, right: np.ndarray) -> np.ndarray:
    """a @ b for the expansion ``right`` of b, as one real matmul."""
    return (np.ascontiguousarray(a).view(float) @ right).view(complex)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex (..., 4, 4) arrays, broadcast over leading axes."""
    return _times(a, _expand(b))


# -- the Dirac representation ------------------------------------------------
#
# rep(e0) = diag(+1, +1, -1, -1) and rep(ek) = [[0, sigma_k], [-sigma_k, 0]].
# rep(e0) is self-adjoint and rep(ek) skew-adjoint, so the conjugate
# transpose of rep(U) is rep(herm_conj(U)).  Blade matrices are unitary and
# pairwise trace-orthogonal, so coeff_A(M) = tr(rep(blade_A)^dagger M) / 4
# and |coeffs| = |M|_F / 2.

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_GAMMA = [np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)]
for _k in range(3):
    _g = np.zeros((4, 4), dtype=complex)
    _g[:2, 2:] = _SIGMA[_k]
    _g[2:, :2] = -_SIGMA[_k]
    _GAMMA.append(_g)

BLADE_REPS = np.zeros((N_BLADES, 4, 4), dtype=complex)
for _mask in range(N_BLADES):
    _rep = np.eye(4, dtype=complex)
    for _a in _bits(_mask):
        _rep = _matmul(_rep, _GAMMA[_a])
    BLADE_REPS[_mask] = _rep

# coefficients (..., 16) @ _TO_MATRIX -> flattened matrices (..., 16), and back
_TO_MATRIX = BLADE_REPS.reshape(N_BLADES, 16)
_TO_COEFFS = _TO_MATRIX.conj().T / 4
# pseudo_conj is gamma0 M^dagger gamma0, an entrywise sign since gamma0 is diagonal
_GAMMA0_SIGNS = np.outer(np.diag(_GAMMA[0]), np.diag(_GAMMA[0]))
# conj is C conj(M) C^-1 with C = rep(e013): C commutes with the real
# matrices rep(e0), rep(e1), rep(e3) and anticommutes with the imaginary
# rep(e2).  C is a signed permutation, C_ik = s_i [k = p(i)], so the
# conjugation moves entries exactly: (C X C^-1)_ij = s_i conj(s_j) X_p(i)p(j).
_CONJ = BLADE_REPS[label_to_mask("e013")]
_CONJ_PERM = np.argmax(np.abs(_CONJ), axis=1)
_s = _CONJ[range(4), _CONJ_PERM]
_CONJ_SIGNS = np.outer(_s, _s.conj())
_IDENTITY = BLADE_REPS[0]


def _mask_of(blade) -> int:
    mask = label_to_mask(blade) if isinstance(blade, str) else int(blade)
    if not 0 <= mask < N_BLADES:
        raise ValueError(f"blade mask out of range: {mask}")
    return mask


def _frobenius_half(mat):
    """|M|_F / 2 over the last two axes: the coefficient norm of a float element."""
    return np.linalg.norm(mat, axis=(-2, -1)) / 2


class CliffordElement:
    """A value of Cl(1,3) over the 16-blade basis.

    Immutable. ``exact`` selects rational-coefficient arithmetic; a float
    element holds its Dirac matrix, or a stack of them (then norms and
    coefficients carry the same leading axis).
    """

    __slots__ = ("_coeffs", "_mat", "exact")
    __array_ufunc__ = None  # array * element defers to __rmul__

    def __init__(self, coeffs, exact: bool = False):
        if exact:
            data = tuple(RationalComplex.from_value(c) for c in coeffs)
            if len(data) != N_BLADES:
                raise ValueError("need exactly 16 coefficients")
            object.__setattr__(self, "_coeffs", data)
        else:
            arr = np.asarray(
                coeffs if isinstance(coeffs, np.ndarray) else [complex(c) for c in coeffs],
                dtype=complex,
            )
            if arr.shape[-1:] != (N_BLADES,):
                raise ValueError("need exactly 16 coefficients")
            if not np.isfinite(arr).all():
                raise ValueError("a float element needs finite coefficients")
            mat = (arr @ _TO_MATRIX).reshape(arr.shape[:-1] + (4, 4))
            mat.flags.writeable = False
            object.__setattr__(self, "_mat", mat)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def _from_matrix(cls, mat: np.ndarray) -> "CliffordElement":
        """The float element whose Dirac matrix (or stack of them) is mat."""
        out = object.__new__(cls)
        mat.flags.writeable = False
        object.__setattr__(out, "_mat", mat)
        object.__setattr__(out, "exact", False)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, exact: bool = False) -> "CliffordElement":
        return cls.from_coeff_map({}, exact)

    @classmethod
    def from_blade(cls, blade, coeff=1, exact: bool = False) -> "CliffordElement":
        return cls.from_coeff_map({blade: coeff}, exact)

    @classmethod
    def from_coeff_map(cls, mapping, exact: bool = False) -> "CliffordElement":
        """Build from {blade label or mask: coefficient}; coefficients given
        for one blade twice are added as given."""
        coeffs = [0] * N_BLADES
        for blade, coeff in mapping.items():
            mask = _mask_of(blade)
            coeffs[mask] = coeffs[mask] + coeff
        return cls(coeffs, exact)

    # -- mode handling -----------------------------------------------------

    def to_float(self) -> "CliffordElement":
        if not self.exact:
            return self
        return CliffordElement([complex(c) for c in self._coeffs])

    def coefficient(self, blade):
        if self.exact:
            return self._coeffs[_mask_of(blade)]
        return self.coefficients()[..., _mask_of(blade)]

    def coefficients(self):
        """The 16 coefficients in mask order (a numpy array in float mode, by
        the trace formula; shape (N, 16) for a stack)."""
        if self.exact:
            return self._coeffs
        m = self._mat
        return m.reshape(m.shape[:-2] + (16,)) @ _TO_COEFFS

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.exact or other.exact:
            pairs = zip(_exact_coeffs(self), _exact_coeffs(other))
            return CliffordElement([a + b for a, b in pairs], exact=True)
        return CliffordElement._from_matrix(self._mat + other._mat)

    def __sub__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.exact or other.exact:
            return self + (-other)
        return CliffordElement._from_matrix(self._mat - other._mat)

    def __neg__(self):
        if self.exact:
            return CliffordElement([-c for c in self._coeffs], exact=True)
        return CliffordElement._from_matrix(-self._mat)

    def _scalar_mul(self, scalar):
        """Product with a scalar, or in float mode with an array of one
        scalar per element of a stack."""
        if self.exact:
            s = _exact_scalar(scalar)
            return CliffordElement([c * s for c in self._coeffs], exact=True)
        scalar = scalar[..., None, None] if isinstance(scalar, np.ndarray) else complex(scalar)
        return CliffordElement._from_matrix(self._mat * scalar)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            if self.exact or other.exact:
                return _mul_exact(self, other)
            return CliffordElement._from_matrix(_matmul(self._mat, other._mat))
        if isinstance(other, _SCALARS):
            return self._scalar_mul(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scalar_mul(other)
        return NotImplemented

    def __truediv__(self, scalar):
        if self.exact:
            return self._scalar_mul(RC_ONE / _exact_scalar(scalar))
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
        return CliffordElement(np.where(np.array(GRADES) == k, self.coefficients(), 0.0))

    # -- involutions ---------------------------------------------------------

    def pseudo_conj(self) -> "CliffordElement":
        """The * operation: antilinear antiautomorphism fixing each e^a
        (gamma0 M^dagger gamma0 on the Dirac matrix)."""
        if self.exact:
            return CliffordElement(
                [c.conjugate() * REVERSION_SIGNS[m] for m, c in enumerate(self._coeffs)],
                exact=True,
            )
        return CliffordElement._from_matrix(_dagger(self._mat) * _GAMMA0_SIGNS)

    def herm_conj(self) -> "CliffordElement":
        """Hermitian conjugation U -> beta U* beta, beta = e0 (M^dagger)."""
        if self.exact:
            return E0 * self.pseudo_conj() * E0
        return CliffordElement._from_matrix(_dagger(self._mat))

    def conj(self) -> "CliffordElement":
        """Complex conjugation: coefficients conjugate, blades fixed."""
        if self.exact:
            return CliffordElement([c.conjugate() for c in self._coeffs], exact=True)
        mat = self._mat[..., _CONJ_PERM[:, None], _CONJ_PERM]
        return CliffordElement._from_matrix(mat.conj() * _CONJ_SIGNS)

    # -- metrics -------------------------------------------------------------

    def norm(self):
        """Euclidean norm of the 16 coefficients (one per element of a stack)."""
        if self.exact:
            s = sum((c.abs_sq() for c in self._coeffs), Fraction(0))
            return math.sqrt(float(s)) if s else 0.0
        return _frobenius_half(self._mat)

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.exact:
            return all(not c for c in self._coeffs)
        return bool(np.max(np.abs(self.coefficients())) <= tol)

    def equals(self, other: "CliffordElement", tol: float = DEFAULT_TOL) -> bool:
        """Exact equality in exact mode, absolute tolerance on the
        coefficients otherwise."""
        if self.exact and other.exact:
            return self._coeffs == other._coeffs
        a, b = self.to_float(), other.to_float()
        return bool(np.max(np.abs(a.coefficients() - b.coefficients())) <= tol)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.exact != other.exact:
            return False
        if self.exact:
            return self._coeffs == other._coeffs
        return bool(np.array_equal(self._mat, other._mat))

    __hash__ = None

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        """JSON object {blade label: [re, im]} over the nonzero coefficients."""
        out = {}
        for mask, c in enumerate(self.coefficients()):
            c = complex(c)
            if c != 0:
                out[BLADE_LABELS[mask]] = [c.real, c.imag]
        return out

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CliffordElement":
        def coeff(re, im):
            if not (is_finite_real(re) and is_finite_real(im)):
                raise ValueError(f"a coefficient needs two finite numbers, got {[re, im]}")
            return complex(re, im)

        return cls.from_coeff_map({label: coeff(*pair) for label, pair in obj.items()})

    def __repr__(self):
        if not self.exact and self._mat.ndim > 2:
            return f"<stack of {len(self._mat)} float elements>"
        terms = []
        for mask, c in enumerate(self.coefficients()):
            if (not c) if self.exact else c == 0:
                continue
            terms.append(f"({c})*{BLADE_LABELS[mask]}")
        body = " + ".join(terms) if terms else "0"
        mode = "exact" if self.exact else "float"
        return f"<{body} [{mode}]>"


# Scalars an element multiplies by; an array holds one scalar per element
# of a float stack.
_SCALARS = (int, float, complex, Fraction, RationalComplex, np.ndarray)


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat, -1, -2).conj()


_RC_ZERO = RationalComplex(0)


def _exact_coeffs(u: CliffordElement) -> tuple[RationalComplex, ...]:
    """The 16 coefficients of u as rationals.  Every double is a rational,
    so a float element lifts without rounding; a float stack raises
    TypeError, since an exact element holds one value."""
    if u.exact:
        return u._coeffs
    if u._mat.ndim > 2:
        raise TypeError("a float stack cannot meet an exact element")
    coeffs = u.coefficients().tolist()
    return tuple(RationalComplex.from_value(c) if c else _RC_ZERO for c in coeffs)


def _exact_scalar(scalar) -> RationalComplex:
    if isinstance(scalar, np.ndarray):
        raise TypeError("an array of scalars cannot meet an exact element")
    return RationalComplex.from_value(scalar)


def _mul_exact(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    coeffs = [_RC_ZERO] * N_BLADES
    v_coeffs = _exact_coeffs(v)
    for a, ca in enumerate(_exact_coeffs(u)):
        if not ca:
            continue
        for b, cb in enumerate(v_coeffs):
            if not cb:
                continue
            m = _PROD_MASK[a, b]
            coeffs[m] = coeffs[m] + ca * cb * int(_SIGNS[a, b])
    return CliffordElement(coeffs, exact=True)


# -- module-level operations ----------------------------------------------


def commutator(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    return u * v - v * u


def anticommutator(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    return u * v + v * u


def exp_element(u: CliffordElement) -> CliffordElement:
    """exp(u) by scaling-and-squaring over the power series of the matrix.

    Always computed in float mode (the series is not rational).  Each
    element of a stack is scaled to coefficient norm <= 1, summed over a
    fixed number of terms and squared back on its own, so its value does
    not depend on the rest of the stack.  Raises ValueError when the norm
    of u or the exponential overflows.
    """
    u = u.to_float()
    with np.errstate(over="ignore", invalid="ignore"):
        n = u.norm()
    if not np.all(np.isfinite(n)):
        raise ValueError(f"exp_element needs finite coefficients with a finite norm, got norm {n}")
    squarings = np.where(n > 1.0, np.ceil(np.log2(np.maximum(n, 1.0))), 0.0).astype(int)
    # The scaled exponent is expanded once and serves every term.
    v = _expand(u._mat * (0.5**squarings)[..., None, None])
    total = term = _IDENTITY
    for k in range(1, _EXP_TERMS + 1):
        term = _times(term, v) * (1.0 / k)
        total = total + term
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(np.max(squarings))):
            total = np.where((j < squarings)[..., None, None], _matmul(total, total), total)
    if not np.all(np.isfinite(total)):
        raise ValueError(f"exp_element overflows: exp of an element of norm {np.max(n):g} is not finite")
    return CliffordElement._from_matrix(total)


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

GENERATORS_EXACT = tuple(CliffordElement.from_blade(f"e{a}", exact=True) for a in range(4))
