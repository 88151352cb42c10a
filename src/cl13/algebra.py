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
holds its 16 coefficients as Gaussian-integer numerators over one positive
denominator, (re + i im) / den, reduced by one gcd per result, and
certifies algebraic identities with zero rounding; it is the oracle of the
float mode.  Its coefficients are read as ``RationalComplex`` values.

Every exact value is the lift of a float value: ``u.lift()`` is the one
way into exact mode.  It converts the 16 entries of u's Dirac matrix to
rationals without rounding, since every double is a rational, and reads
the coefficients off them in exact arithmetic; a float stack cannot be
lifted, because an exact element holds one value.  A
result is exact iff an element operand is exact; the other operand, a
float element or a real or complex scalar, is lifted too.  So the float
constants below (``E``, ``BETA``, ``J``) serve both modes, and
``[g.lift() for g in GENERATORS]`` are the exact generators.

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

from .exactnum import RationalComplex, is_finite_real

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
# Hermitian conjugation sign per blade: beta B* beta is the reversion sign times
# (-1)^s for s spatial indices, since e0 anticommutes with each of them.
_HERM_SIGNS = tuple(REVERSION_SIGNS[m] * (-1) ** grade_of(m >> 1) for m in range(N_BLADES))


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


# The blade table, read by the exact product and by the algebra suite's check of
# the float product: blades a and b multiply to BLADE_SIGNS[a][b] times blade a ^ b.
BLADE_SIGNS = [[blade_mul(a, b)[0] for b in range(N_BLADES)] for a in range(N_BLADES)]


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


# The exact trace formula: a blade matrix has one entry 1, -1, i or -i per row, so each
# part of a coefficient is a quarter of a signed sum of four floats of the flat float view.
_K = np.nonzero(BLADE_REPS.reshape(N_BLADES, 16))[1].reshape(N_BLADES, 4)
_UNIT = np.take_along_axis(BLADE_REPS.reshape(N_BLADES, 16), _K, 1).conj()
_READ_INDEX = 2 * _K[:, None] + np.stack([_UNIT.imag != 0, _UNIT.imag == 0], 1)
_READ_SIGN = np.stack([_UNIT.real - _UNIT.imag, _UNIT.real + _UNIT.imag], 1).astype(int)


def _mask_of(blade) -> int:
    mask = label_to_mask(blade) if isinstance(blade, str) else int(blade)
    if not 0 <= mask < N_BLADES:
        raise ValueError(f"blade mask out of range: {mask}")
    return mask


class CliffordElement:
    """A value of Cl(1,3) over the 16-blade basis.

    Immutable.  The constructors make float elements, which hold their
    Dirac matrix, or a stack of them (then norms and coefficients carry the
    same leading axis); ``lift()`` gives the equal exact element, whose
    arithmetic is rational.  ``exact`` tells the two apart.
    """

    __slots__ = ("_num", "_mat", "exact")
    __array_ufunc__ = None  # array * element defers to __rmul__

    def __init__(self, coeffs):
        arr = np.asarray(
            coeffs if isinstance(coeffs, np.ndarray) else [complex(c) for c in coeffs],
            dtype=complex,
        )
        if arr.shape[-1:] != (N_BLADES,):
            raise ValueError("need exactly 16 coefficients")
        # A non-finite coefficient, or a sum past the double range, leaves a non-finite entry.
        with np.errstate(over="ignore", invalid="ignore"):
            mat = (arr @ _TO_MATRIX).reshape(arr.shape[:-1] + (4, 4))
        if not np.isfinite(mat).all():
            raise ValueError("a float element needs finite coefficients and a finite Dirac matrix")
        mat.flags.writeable = False
        object.__setattr__(self, "_mat", mat)
        object.__setattr__(self, "exact", False)

    @classmethod
    def _from_matrix(cls, mat: np.ndarray) -> "CliffordElement":
        """The float element whose Dirac matrix (or stack of them) is mat."""
        out = object.__new__(cls)
        mat.flags.writeable = False
        object.__setattr__(out, "_mat", mat)
        object.__setattr__(out, "exact", False)
        return out

    @classmethod
    def _from_coeffs(cls, coeffs) -> "CliffordElement":
        """The exact element (re + i im) / den for coeffs = (re, im, den): 16
        integer numerators of each part over one positive integer.  Stored
        reduced by their gcd, so equal values hold equal tuples."""
        re, im, den = coeffs
        g = math.gcd(den, *re, *im)
        if g != 1:
            re, im, den = [x // g for x in re], [x // g for x in im], den // g
        out = object.__new__(cls)
        object.__setattr__(out, "_num", (tuple(re), tuple(im), den))
        object.__setattr__(out, "exact", True)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "CliffordElement":
        return cls.from_coeff_map({})

    @classmethod
    def from_blade(cls, blade, coeff=1) -> "CliffordElement":
        return cls.from_coeff_map({blade: coeff})

    @classmethod
    def from_coeff_map(cls, mapping) -> "CliffordElement":
        """Build from {blade label or mask: coefficient}; coefficients given
        for one blade twice are added as given."""
        coeffs = [0] * N_BLADES
        for blade, coeff in mapping.items():
            mask = _mask_of(blade)
            coeffs[mask] = coeffs[mask] + coeff
        return cls(coeffs)

    # -- mode handling -----------------------------------------------------

    def lift(self) -> "CliffordElement":
        """The exact element with this element's Dirac matrix, entry by entry
        (every double is a rational), read by the exact trace formula.  A
        float stack raises TypeError, since an exact element holds one value."""
        if self.exact:
            return self
        if self._mat.ndim > 2:
            raise TypeError("a float stack cannot be lifted to an exact element")
        # Over the largest power-of-two denominator every double is an integer.
        ratios = [x.as_integer_ratio() for x in self._mat.view(float).ravel().tolist()]
        den = max(d for _, d in ratios)
        ints = np.array([n * (den // d) for n, d in ratios], dtype=object)
        re, im = (ints[_READ_INDEX] * _READ_SIGN).sum(axis=2).T.tolist()
        return CliffordElement._from_coeffs((re, im, 4 * den))

    def to_float(self) -> "CliffordElement":
        if not self.exact:
            return self
        re, im, den = self._num
        # int / int is correctly rounded, as float(Fraction) is.
        return CliffordElement([complex(r / den, i / den) for r, i in zip(re, im)])

    def coefficient(self, blade):
        if self.exact:
            return self.coefficients()[_mask_of(blade)]
        return self.coefficients()[..., _mask_of(blade)]

    def coefficients(self):
        """The 16 coefficients in mask order (a numpy array in float mode, by
        the trace formula; shape (N, 16) for a stack)."""
        if self.exact:
            re, im, den = self._num
            pairs = zip(re, im)
            return tuple(RationalComplex(Fraction(r, den), Fraction(i, den)) for r, i in pairs)
        m = self._mat
        return m.reshape(m.shape[:-2] + (16,)) @ _TO_COEFFS

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.exact or other.exact:
            return _add_exact(self, other, 1)
        return CliffordElement._from_matrix(self._mat + other._mat)

    def __sub__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.exact or other.exact:
            return _add_exact(self, other, -1)
        return CliffordElement._from_matrix(self._mat - other._mat)

    def __neg__(self):
        if self.exact:
            return _signed(self, _ALL_NEG, _ALL_NEG)
        return CliffordElement._from_matrix(-self._mat)

    def _scalar_mul(self, scalar):
        """Product with a scalar, or in float mode with an array of one
        scalar per element of a stack."""
        if self.exact:
            return _scaled(self, _exact_scalar(scalar))
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

    def __getitem__(self, key) -> "CliffordElement":
        """``mat[key]`` of a float stack; the key leaves the matrix axes whole."""
        return CliffordElement._from_matrix(self._mat[key])

    def __truediv__(self, scalar):
        if self.exact:
            sr, si, sd = _exact_scalar(scalar)
            if not (sr or si):
                raise ZeroDivisionError("division by exact zero")
            return _scaled(self, (sd * sr, -sd * si, sr * sr + si * si))
        return self._scalar_mul(1.0 / complex(scalar))

    # -- grade structure ----------------------------------------------------

    def grade(self, k: int) -> "CliffordElement":
        """Projection onto the grade-k blades."""
        if not 0 <= k <= 4:
            raise ValueError(f"grade must be in 0..4, got {k}")
        if self.exact:
            keep = [int(g == k) for g in GRADES]
            return _signed(self, keep, keep)
        return CliffordElement(np.where(np.array(GRADES) == k, self.coefficients(), 0.0))

    # -- involutions ---------------------------------------------------------

    def pseudo_conj(self) -> "CliffordElement":
        """The * operation: antilinear antiautomorphism fixing each e^a
        (gamma0 M^dagger gamma0 on the Dirac matrix)."""
        if self.exact:
            return _signed(self, REVERSION_SIGNS, [-s for s in REVERSION_SIGNS])
        return CliffordElement._from_matrix(_dagger(self._mat) * _GAMMA0_SIGNS)

    def herm_conj(self) -> "CliffordElement":
        """Hermitian conjugation U -> beta U* beta, beta = e0 (M^dagger)."""
        if self.exact:
            return _signed(self, _HERM_SIGNS, [-s for s in _HERM_SIGNS])
        return CliffordElement._from_matrix(_dagger(self._mat))

    def conj(self) -> "CliffordElement":
        """Complex conjugation: coefficients conjugate, blades fixed."""
        if self.exact:
            return _signed(self, _ALL_POS, _ALL_NEG)
        mat = self._mat[..., _CONJ_PERM[:, None], _CONJ_PERM]
        return CliffordElement._from_matrix(mat.conj() * _CONJ_SIGNS)

    # -- metrics -------------------------------------------------------------

    def norm(self):
        """Euclidean norm of the 16 coefficients (one per element of a stack); an exact
        norm is correctly rounded, inf past the double range, and nonzero if the element is."""
        if self.exact:
            re, im, den = self._num
            sq, den_sq = sum(x * x for x in re + im), den * den
            # The quotient is taken near 1 over 4^s, exactly, and its root scaled back by 2^s.
            s = (sq.bit_length() - den_sq.bit_length()) // 2
            root = math.sqrt((sq << max(0, -2 * s)) / (den_sq << max(0, 2 * s)))
            norm = math.ldexp(root, s) if math.frexp(root)[1] + s <= 1024 else math.inf
            return norm or math.ulp(0.0) * bool(sq)  # an underflow reads the smallest subnormal
        return np.linalg.norm(self._mat, axis=(-2, -1)) / 2  # |M|_F / 2 of the Dirac matrix

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.exact:
            return not any(self._num[0] + self._num[1])
        return bool(np.max(np.abs(self.coefficients())) <= tol)

    def equals(self, other: "CliffordElement", tol: float = DEFAULT_TOL) -> bool:
        """Exact equality in exact mode, absolute tolerance on the
        coefficients otherwise."""
        if self.exact and other.exact:
            return self._num == other._num
        a, b = self.to_float(), other.to_float()
        return bool(np.max(np.abs(a.coefficients() - b.coefficients())) <= tol)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self.exact != other.exact:
            return False
        if self.exact:
            return self._num == other._num
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


# -- the exact kernel: an element is (re, im, den), a scalar (sr, si, sd), ints --

_ALL_POS, _ALL_NEG = (1,) * N_BLADES, (-1,) * N_BLADES


def _exact_scalar(scalar) -> tuple[int, int, int]:
    if isinstance(scalar, np.ndarray):
        raise TypeError("an array of scalars cannot meet an exact element")
    s = RationalComplex.from_value(scalar)
    den = math.lcm(s.re.denominator, s.im.denominator)
    return int(s.re * den), int(s.im * den), den


def _signed(u: CliffordElement, re_signs, im_signs) -> CliffordElement:
    """u with each numerator times its blade's integer factor."""
    re, im, den = u._num
    return CliffordElement._from_coeffs(
        ([x * s for x, s in zip(re, re_signs)], [x * s for x, s in zip(im, im_signs)], den)
    )


def _scaled(u: CliffordElement, scalar) -> CliffordElement:
    (re, im, den), (sr, si, sd) = u._num, scalar
    out_re = [a * sr - b * si for a, b in zip(re, im)]
    out_im = [a * si + b * sr for a, b in zip(re, im)]
    return CliffordElement._from_coeffs((out_re, out_im, den * sd))


def _add_exact(u: CliffordElement, v: CliffordElement, sign: int) -> CliffordElement:
    """u + sign * v over the lcm of the two denominators."""
    (ur, ui, du), (vr, vi, dv) = u.lift()._num, v.lift()._num
    den = math.lcm(du, dv)
    fu, fv = den // du, sign * (den // dv)
    out_re = [a * fu + b * fv for a, b in zip(ur, vr)]
    out_im = [a * fu + b * fv for a, b in zip(ui, vi)]
    return CliffordElement._from_coeffs((out_re, out_im, den))


def _mul_exact(u: CliffordElement, v: CliffordElement) -> CliffordElement:
    """One pass over the nonzero blade pairs of the blade table."""
    (ur, ui, du), (vr, vi, dv) = u.lift()._num, v.lift()._num
    re, im = [0] * N_BLADES, [0] * N_BLADES
    right = [(b, br, bi) for b, (br, bi) in enumerate(zip(vr, vi)) if br or bi]
    for a, (ar, ai) in enumerate(zip(ur, ui)):
        if ar or ai:
            signs = BLADE_SIGNS[a]
            for b, br, bi in right:
                m, s = a ^ b, signs[b]
                re[m] += s * (ar * br - ai * bi)
                im[m] += s * (ar * bi + ai * br)
    return CliffordElement._from_coeffs((re, im, du * dv))


# -- module-level operations ----------------------------------------------


def stack(elements) -> CliffordElement:
    """The float elements broadcast to one shape and stacked on a new leading axis."""
    return CliffordElement._from_matrix(np.stack(np.broadcast_arrays(*(u._mat for u in elements))))


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
