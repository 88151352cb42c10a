"""Matrix-backed helpers on the faithful 4x4 Dirac representation of Cl(1,3).

A float element is stored as its Dirac matrix (``algebra.BLADE_REPS``), so
``gamma_rep`` and ``rep_inverse`` only move between the two views; inverse,
rank and eigenvalues are numpy's on that matrix.
"""

from __future__ import annotations

import numpy as np

from .algebra import BLADE_REPS, CliffordElement  # noqa: F401  (BLADE_REPS kept importable here)


class SingularElementError(ArithmeticError):
    """The element has no inverse (representation matrix numerically singular)."""


class NotHermitianError(ValueError):
    """Operation requires herm_conj(U) = U and the input violates it."""


def gamma_rep(u: CliffordElement) -> np.ndarray:
    """4x4 complex matrix representing u (float entries in every mode); read-only."""
    return u.to_float()._mat


def rep_inverse(mat: np.ndarray) -> CliffordElement:
    """Element whose representation is mat (the representation is onto M4(C));
    a (N, 4, 4) stack gives a stack of N elements."""
    mat = np.array(mat, dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 matrix or a stack of them")
    return CliffordElement._from_matrix(mat)


def inverse(u: CliffordElement, cond_cap: float = 1e12) -> CliffordElement:
    """Multiplicative inverse via the matrix representation (float mode);
    a stack is inverted element by element and raises if any one is singular."""
    m = gamma_rep(u)
    if not np.all(np.isfinite(m)):
        raise SingularElementError("non-finite representation matrix")
    if np.any(np.linalg.cond(m) > cond_cap):
        raise SingularElementError(
            f"representation matrix condition number exceeds {cond_cap:g}"
        )
    return rep_inverse(np.linalg.inv(m))


def rep_rank(u: CliffordElement, tol: float = 1e-9) -> int:
    """Rank of the representation matrix by singular values."""
    s = np.linalg.svd(gamma_rep(u), compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def hermitian_eigenvalues(
    u: CliffordElement, herm_tol: float = 1e-10
) -> np.ndarray:
    """Eigenvalues of rep(u) for Hermitian u, ascending."""
    if (u - u.herm_conj()).norm() > herm_tol:
        raise NotHermitianError("element is not Hermitian within tolerance")
    return np.linalg.eigvalsh(gamma_rep(u))
