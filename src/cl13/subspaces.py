"""Distinguished subsets of Cl(1,3): symplectic algebra/group, Hermitian
idempotents and their ideals.

Definitions in force here:

    sp(cl(1,3))  = i * (real grade-1)  +  (real grade-2)
    Sp(cl(1,3))  = { V in real-even + i*real-odd : V* V = e }
    t Hermitian idempotent:  t^2 = t,  herm_conj(t) = t,  conj(t) J = J t
    I(t) = { U : U = U t }            (left ideal)
    K(t) = { U in I(t) : U = t U }     (two-sided)
    L(t) = { U in K(t) : U^dagger = -U }
    G(t) = { U : U^dagger U = e, U - e in K(t) }

Linear subspaces are handled over the 32 real coordinates (re, im per
blade); bases come out of a dense row reduction with partial pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import (
    GRADES,
    N_BLADES,
    CliffordElement,
    E_EXACT,
    J,
    J_EXACT,
    exp_element,
    unit,
)
from .exactnum import RC_I, RC_ONE, RationalComplex
from .rep import inverse

MEMBERSHIP_TOL = 1e-9
PIVOT_TOL = 1e-10

IDEMPOTENT_LABELS = ("t1", "t2", "t3", "t4")
IDEAL_TAGS = ("I", "K", "L", "G")


# -- row reduction -----------------------------------------------------------


def nullspace_basis(rows: np.ndarray, pivot_tol: float = PIVOT_TOL) -> np.ndarray:
    """Basis (as row vectors) of the nullspace of a real constraint matrix.

    Plain Gauss-Jordan with partial pivoting; pivots below pivot_tol are
    treated as zero.
    """
    a = np.array(rows, dtype=float)
    if a.ndim != 2:
        raise ValueError("constraint matrix must be 2-dimensional")
    n_rows, n_cols = a.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        p = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[p, col]) <= pivot_tol:
            continue
        if p != row:
            a[[row, p]] = a[[p, row]]
        a[row] = a[row] / a[row, col]
        col_vals = a[:, col].copy()
        col_vals[row] = 0.0
        a -= np.outer(col_vals, a[row])
        pivot_cols.append(col)
        row += 1
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), n_cols))
    for i, f in enumerate(free_cols):
        basis[i, f] = 1.0
        for r, c in enumerate(pivot_cols):
            basis[i, c] = -a[r, f]
    return basis


# -- real coordinates over the blade basis ----------------------------------


def element_to_realvec(u: CliffordElement) -> np.ndarray:
    c = np.asarray(u.to_float().coefficients())
    out = np.empty(2 * N_BLADES)
    out[0::2] = c.real
    out[1::2] = c.imag
    return out


def realvec_to_element(vec: np.ndarray) -> CliffordElement:
    vec = np.asarray(vec, dtype=float)
    return CliffordElement(vec[0::2] + 1j * vec[1::2])


def _real_basis_elements() -> list[CliffordElement]:
    elems = []
    for r in range(2 * N_BLADES):
        v = np.zeros(2 * N_BLADES)
        v[r] = 1.0
        elems.append(realvec_to_element(v))
    return elems


def _constraint_rows(maps) -> np.ndarray:
    """Stack real-linear maps Cl -> Cl into constraint rows over R^32."""
    basis = _real_basis_elements()
    cols = []
    for b in basis:
        parts = [element_to_realvec(f(b)) for f in maps]
        cols.append(np.concatenate(parts))
    return np.array(cols).T


# -- symplectic algebra and group -------------------------------------------


def sp_algebra_residual(u: CliffordElement) -> float:
    """Distance of u from i*(real grade-1) + (real grade-2)."""
    c = np.asarray(u.to_float().coefficients())
    bad = 0.0
    for mask in range(N_BLADES):
        k = GRADES[mask]
        if k == 1:
            bad += c[mask].real ** 2
        elif k == 2:
            bad += c[mask].imag ** 2
        else:
            bad += abs(c[mask]) ** 2
    return float(np.sqrt(bad))


def in_sp_algebra(u: CliffordElement, tol: float = MEMBERSHIP_TOL) -> bool:
    return sp_algebra_residual(u) <= tol


def sp_group_residual(v: CliffordElement) -> float:
    """Distance from the defining conditions of Sp(cl(1,3))."""
    c = np.asarray(v.to_float().coefficients())
    bad = 0.0
    for mask in range(N_BLADES):
        if GRADES[mask] % 2 == 0:
            bad += c[mask].imag ** 2
        else:
            bad += c[mask].real ** 2
    parity = float(np.sqrt(bad))
    unitary = (v.pseudo_conj() * v - unit(v.exact)).norm()
    return max(parity, unitary)


def in_sp_group(v: CliffordElement, tol: float = MEMBERSHIP_TOL) -> bool:
    return sp_group_residual(v) <= tol


# -- Hermitian idempotents ---------------------------------------------------


@dataclass(frozen=True)
class HermitianIdempotent:
    """A validated t with t^2 = t, t^dagger = t and conj(t) J = J t."""

    element: CliffordElement
    label: str | None = None

    @classmethod
    def checked(
        cls,
        element: CliffordElement,
        label: str | None = None,
        tol: float = MEMBERSHIP_TOL,
    ) -> "HermitianIdempotent":
        ok, residuals = is_hermitian_idempotent(element, tol)
        if not ok:
            raise ValueError(f"not a Hermitian idempotent: residuals {residuals}")
        return cls(element, label)

    @property
    def exact(self) -> bool:
        return self.element.exact

    def to_float(self) -> "HermitianIdempotent":
        return HermitianIdempotent(self.element.to_float(), self.label)


def hermitian_idempotent_residuals(t: CliffordElement) -> dict[str, float]:
    j = J_EXACT if t.exact else J
    return {
        "idempotent": (t * t - t).norm(),
        "hermitian": (t.herm_conj() - t).norm(),
        "j_intertwine": (t.conj() * j - j * t).norm(),
    }


def is_hermitian_idempotent(
    t: CliffordElement, tol: float = MEMBERSHIP_TOL
) -> tuple[bool, dict[str, float]]:
    """Check the three idempotent conditions; returns (ok, residuals)."""
    residuals = hermitian_idempotent_residuals(t)
    ok = all(r <= tol for r in residuals.values()) and not t.is_zero(tol)
    return ok, residuals


@cache
def _idempotent_table(exact: bool) -> dict[str, CliffordElement]:
    """The reference idempotents t1..t4, built once per mode from the exact table."""
    if not exact:
        return {label: t.to_float() for label, t in _idempotent_table(True).items()}
    e = E_EXACT
    e0 = CliffordElement.from_blade("e0", RC_ONE, exact=True)
    e12 = CliffordElement.from_blade("e12", RC_ONE, exact=True)
    e012 = CliffordElement.from_blade("e012", RC_ONE, exact=True)
    quarter = RationalComplex(1) / RationalComplex(4)
    half = RationalComplex(1) / RationalComplex(2)
    return {
        "t1": ((e + e0) * (e + RC_I * e12)) * quarter,
        "t2": (e + e0) * half,
        "t3": (e * 3 + e0 + RC_I * e12 - RC_I * e012) * quarter,
        "t4": e,
    }


def fixed_idempotent(label: str, exact: bool = False) -> HermitianIdempotent:
    """One of the four reference idempotents t1..t4."""
    table = _idempotent_table(exact)
    if label not in table:
        raise ValueError(f"unknown idempotent label {label!r}")
    return HermitianIdempotent(table[label], label)


# -- ideals -------------------------------------------------------------------


def ideal_residual(
    u: CliffordElement, t: HermitianIdempotent | CliffordElement, which: str
) -> float:
    tt = t.element if isinstance(t, HermitianIdempotent) else t
    if which == "I":
        return (u - u * tt).norm()
    if which == "K":
        return max((u - u * tt).norm(), (u - tt * u).norm())
    if which == "L":
        return max(ideal_residual(u, tt, "K"), (u.herm_conj() + u).norm())
    if which == "G":
        one = unit(u.exact and tt.exact)
        unitary = (u.herm_conj() * u - one).norm()
        return max(unitary, ideal_residual(u - one, tt, "K"))
    raise ValueError(f"unknown ideal tag {which!r}; expected one of {IDEAL_TAGS}")


def in_ideal(
    u: CliffordElement,
    t: HermitianIdempotent | CliffordElement,
    which: str,
    tol: float = MEMBERSHIP_TOL,
) -> bool:
    return ideal_residual(u, t, which) <= tol


# -- subspace bases -----------------------------------------------------------


@dataclass(frozen=True)
class SubspaceBasis:
    basis: tuple[CliffordElement, ...]
    dim: int

    @property
    def vectors(self) -> np.ndarray:
        return np.array([element_to_realvec(b) for b in self.basis])


def _sp_algebra_rows() -> np.ndarray:
    rows = []
    for mask in range(N_BLADES):
        k = GRADES[mask]
        re_row = np.zeros(2 * N_BLADES)
        im_row = np.zeros(2 * N_BLADES)
        re_row[2 * mask] = 1.0
        im_row[2 * mask + 1] = 1.0
        if k == 1:
            rows.append(re_row)
        elif k == 2:
            rows.append(im_row)
        else:
            rows.append(re_row)
            rows.append(im_row)
    return np.array(rows)


def subspace_basis(
    space: str,
    t: HermitianIdempotent | CliffordElement | None = None,
    pivot_tol: float = PIVOT_TOL,
) -> SubspaceBasis:
    """Real basis of one of the linear subspaces sp_cl, I(t), K(t), L(t)."""
    if space == "sp_cl":
        rows = _sp_algebra_rows()
    elif space in ("I", "K", "L"):
        if t is None:
            raise ValueError(f"space {space!r} needs an idempotent")
        tt = (t.element if isinstance(t, HermitianIdempotent) else t).to_float()
        maps = [lambda u, tt=tt: u - u * tt]
        if space in ("K", "L"):
            maps.append(lambda u, tt=tt: u - tt * u)
        if space == "L":
            maps.append(lambda u: u.herm_conj() + u)
        rows = _constraint_rows(maps)
    else:
        raise ValueError(f"unknown subspace tag {space!r}")
    vecs = nullspace_basis(rows, pivot_tol)
    basis = tuple(realvec_to_element(v) for v in vecs)
    return SubspaceBasis(basis, len(basis))


# -- sampling ------------------------------------------------------------------

_SAMPLE_SPACES = ("sp_cl", "Sp_cl", "L", "G")


def sample(
    space: str,
    t: HermitianIdempotent | CliffordElement | None = None,
    seed: int = 0,
    scale: float = 1.0,
) -> CliffordElement:
    """Deterministic random element of an algebra (sp_cl, L) or group (Sp_cl, G).

    Group elements are exponentials of algebra samples; the result always
    passes the matching membership predicate.
    """
    if space not in _SAMPLE_SPACES:
        raise ValueError(f"unknown sample space {space!r}; expected {_SAMPLE_SPACES}")
    algebra_space = {"sp_cl": "sp_cl", "Sp_cl": "sp_cl", "L": "L", "G": "L"}[space]
    sb = subspace_basis(algebra_space, t)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-scale, scale, sb.dim)
    vec = weights @ sb.vectors if sb.dim else np.zeros(2 * N_BLADES)
    v = realvec_to_element(vec)
    if space in ("sp_cl", "L"):
        return v
    g = exp_element(v)
    if space == "Sp_cl":
        resid = sp_group_residual(g)
    else:
        resid = ideal_residual(g, t, "G")
    if resid > MEMBERSHIP_TOL:
        raise ArithmeticError(
            f"sampled group element misses membership: residual {resid:.3e}"
        )
    return g


# -- matrix symplectic cross-check ---------------------------------------------


@dataclass(frozen=True)
class SymplecticMatrixSpace:
    """Brute-force model of sp(m, R) inside 2m x 2m real matrices."""

    m: int
    s: np.ndarray
    basis: np.ndarray  # (dim, 2m, 2m)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def build_matrix_symplectic_space(m: int) -> SymplecticMatrixSpace:
    """Nullspace of u^T S + S u = 0 by dense row reduction; capped at m = 8."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > 8:
        raise ValueError("matrix symplectic space capped at m = 8")
    n = 2 * m
    s = np.zeros((n, n))
    s[:m, m:] = -np.eye(m)
    s[m:, :m] = np.eye(m)
    rows = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            r = i * n + j
            for a in range(n):
                rows[r, a * n + i] += s[a, j]  # (u^T S)[i, j]
                rows[r, a * n + j] += s[i, a]  # (S u)[i, j]
    vecs = nullspace_basis(rows)
    basis = vecs.reshape(-1, n, n)
    return SymplecticMatrixSpace(m, s, basis)


def matrix_sp_dimension(m: int) -> int:
    return build_matrix_symplectic_space(m).dim


# -- convenience: commutator closure helper used by the verify suites ----------


def adjoint_conjugate(w: CliffordElement, v: CliffordElement) -> CliffordElement:
    """W^{-1} v W for group element W (float mode)."""
    return inverse(w) * v * w
