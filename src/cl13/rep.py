"""Faithful 4x4 matrix representation of Cl(1,3) and matrix-backed helpers.

The representation is the standard Dirac choice, fixed once so ranks and
eigenvalues are reproducible:

    rep(e0) = diag(+1, +1, -1, -1)
    rep(ek) = [[0, sigma_k], [-sigma_k, 0]],  k = 1, 2, 3

rep(e0) is self-adjoint and rep(ek) skew-adjoint, so the matrix
conjugate-transpose of rep(U) equals rep(herm_conj(U)).  Blade matrices
are unitary and pairwise trace-orthogonal, which gives the closed-form
inverse map  coeff_A(M) = tr(rep(blade_A)^dagger M) / 4.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    N_BLADES,
    CliffordElement,
    _bits,
)


class SingularElementError(ArithmeticError):
    """The element has no inverse (representation matrix numerically singular)."""


class NotHermitianError(ValueError):
    """Operation requires herm_conj(U) = U and the input violates it."""


_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_GAMMA = [np.zeros((4, 4), dtype=complex) for _ in range(4)]
_GAMMA[0] = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
for _k in range(3):
    _GAMMA[_k + 1][:2, 2:] = _SIGMA[_k]
    _GAMMA[_k + 1][2:, :2] = -_SIGMA[_k]

BLADE_REPS = np.zeros((N_BLADES, 4, 4), dtype=complex)
for _mask in range(N_BLADES):
    m = np.eye(4, dtype=complex)
    for _a in _bits(_mask):
        m = m @ _GAMMA[_a]
    BLADE_REPS[_mask] = m


def gamma_rep(u: CliffordElement) -> np.ndarray:
    """4x4 complex matrix representing u (float entries in every mode)."""
    coeffs = np.asarray(u.to_float().coefficients())
    return np.tensordot(coeffs, BLADE_REPS, axes=1)


def rep_inverse(mat: np.ndarray) -> CliffordElement:
    """Element whose representation is mat.

    The representation maps onto all of M4(C), so this is total; float
    input is projected through the exact trace formula.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    coeffs = np.array(
        [np.trace(BLADE_REPS[m].conj().T @ mat) / 4.0 for m in range(N_BLADES)]
    )
    return CliffordElement(coeffs)


def inverse(u: CliffordElement, cond_cap: float = 1e12) -> CliffordElement:
    """Multiplicative inverse via the matrix representation (float mode)."""
    m = gamma_rep(u)
    if not np.all(np.isfinite(m)):
        raise SingularElementError("non-finite representation matrix")
    if np.linalg.cond(m) > cond_cap:
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
