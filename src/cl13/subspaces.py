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
blade); bases come out of a dense row reduction with partial pivoting and
are computed once per process, then shared as read-only arrays.  The same
row reduction gives dim sp(m, R), the cross-check of dim sp(cl(1,3)) = 10.
"""

from __future__ import annotations

from functools import cache, reduce

import numpy as np

from .algebra import GRADES, N_BLADES, CliffordElement, E, E0, E1, E2, J, exp_element

MEMBERSHIP_TOL = 1e-9
PIVOT_TOL = 1e-10

IDEAL_TAGS = ("I", "K", "L", "G")


# -- row reduction -----------------------------------------------------------


def nullspace_basis(rows: np.ndarray) -> np.ndarray:
    """Basis (as row vectors) of the nullspace of a real constraint matrix.

    Plain Gauss-Jordan with partial pivoting; pivots below PIVOT_TOL are
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
        if abs(a[p, col]) <= PIVOT_TOL:
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
    """The 32 real coordinates (re, im per blade); shape (N, 32) for a stack."""
    return u.to_float().coefficients().view(float)


def realvec_to_element(vec: np.ndarray) -> CliffordElement:
    return CliffordElement(np.ascontiguousarray(vec, dtype=float).view(complex))


def _constraint_rows(maps) -> np.ndarray:
    """Stack real-linear maps Cl -> Cl into constraint rows over R^32."""
    basis = realvec_to_element(np.eye(2 * N_BLADES))  # the 32 real unit vectors
    return np.concatenate([element_to_realvec(f(basis)) for f in maps], axis=1).T


# -- symplectic algebra and group -------------------------------------------

# Real coordinates that vanish on sp(cl(1,3)) = i*(real grade-1) + (real grade-2)
_SP_ALGEBRA_ZERO = np.array([(k != 2, k != 1) for k in GRADES]).ravel()
# and on real-even + i*real-odd, the parity class of Sp(cl(1,3)).
_SP_GROUP_ZERO = np.array([(k % 2 == 1, k % 2 == 0) for k in GRADES]).ravel()


def _coordinate_norm(u: CliffordElement, which: np.ndarray):
    return np.sqrt(np.sum(element_to_realvec(u)[..., which] ** 2, axis=-1))


def sp_algebra_residual(u: CliffordElement):
    """Distance of u from i*(real grade-1) + (real grade-2)."""
    return _coordinate_norm(u, _SP_ALGEBRA_ZERO)


def in_sp_algebra(u: CliffordElement) -> bool:
    return sp_algebra_residual(u) <= MEMBERSHIP_TOL


def sp_group_residual(v: CliffordElement):
    """Distance from the defining conditions of Sp(cl(1,3))."""
    unitary = (v.pseudo_conj() * v - E).norm()
    return np.maximum(_coordinate_norm(v, _SP_GROUP_ZERO), unitary)


def in_sp_group(v: CliffordElement) -> bool:
    return sp_group_residual(v) <= MEMBERSHIP_TOL


# -- Hermitian idempotents ---------------------------------------------------


def hermitian_idempotent_residuals(t: CliffordElement) -> dict[str, float]:
    return {
        "idempotent": (t * t - t).norm(),
        "hermitian": (t.herm_conj() - t).norm(),
        "j_intertwine": (t.conj() * J - J * t).norm(),
    }


def is_hermitian_idempotent(t: CliffordElement) -> tuple[bool, dict[str, float]]:
    """Check the three idempotent conditions; returns (ok, residuals).

    A Hermitian idempotent is an orthogonal projector, so its coefficient
    norm |M|_F / 2 is at most 1.  A larger float t is rejected by that norm
    before t * t is formed, which could overflow.
    """
    if not t.exact:
        with np.errstate(over="ignore"):
            size = float(t.norm())
        if not size <= 1.0 + MEMBERSHIP_TOL:
            return False, {"norm": size}
    residuals = hermitian_idempotent_residuals(t)
    ok = all(r <= MEMBERSHIP_TOL for r in residuals.values()) and not t.is_zero(MEMBERSHIP_TOL)
    return ok, residuals


# The reference idempotents t1..t4.  Every coefficient is dyadic, so each
# float value is exact and its lift is the rational idempotent.
_E12 = E1 * E2
_IDEMPOTENTS = {
    "t1": ((E + E0) * (E + 1j * _E12)) / 4,
    "t2": (E + E0) / 2,
    "t3": (E * 3 + E0 + 1j * _E12 - 1j * E0 * _E12) / 4,
    "t4": E0 * E0,  # = e
}
IDEMPOTENT_LABELS = tuple(_IDEMPOTENTS)


def fixed_idempotent(label: str) -> CliffordElement:
    """One of the four reference idempotents t1..t4, as a float element;
    ``fixed_idempotent(label).lift()`` is its exact value."""
    if label not in _IDEMPOTENTS:
        raise ValueError(f"unknown idempotent label {label!r}")
    return _IDEMPOTENTS[label]


# -- ideals -------------------------------------------------------------------


def _ideal_conditions(space: str, t: CliffordElement) -> list:
    """The real-linear maps whose common kernel is I(t), K(t) or L(t)."""
    conditions = {"I": [lambda u: u - u * t]}
    conditions["K"] = conditions["I"] + [lambda u: u - t * u]
    conditions["L"] = conditions["K"] + [lambda u: u.herm_conj() + u]
    return conditions[space]


def ideal_residual(u: CliffordElement, t: CliffordElement, which: str) -> float:
    if which == "G":
        unitary = (u.herm_conj() * u - E).norm()
        return np.maximum(unitary, ideal_residual(u - E, t, "K"))
    if which not in IDEAL_TAGS:
        raise ValueError(f"unknown ideal tag {which!r}; expected one of {IDEAL_TAGS}")
    return reduce(np.maximum, [f(u).norm() for f in _ideal_conditions(which, t)])


def in_ideal(u: CliffordElement, t: CliffordElement, which: str) -> bool:
    return ideal_residual(u, t, which) <= MEMBERSHIP_TOL


# -- subspace bases -----------------------------------------------------------


def _basis_key(space: str, t: CliffordElement | None) -> bytes | None:
    """The idempotent's float matrix as bytes (None for sp_cl); validates space."""
    if space == "sp_cl":
        return None
    if space not in ("I", "K", "L"):
        raise ValueError(f"unknown subspace tag {space!r}")
    if t is None:
        raise ValueError(f"space {space!r} needs an idempotent")
    return t.to_float()._mat.tobytes()


@cache
def _basis_vectors(space: str, t_bytes: bytes | None) -> np.ndarray:
    """Nullspace vectors of one subspace, computed once per (space, t)."""
    if space == "sp_cl":
        rows = np.eye(2 * N_BLADES)[_SP_ALGEBRA_ZERO]
    else:
        tt = CliffordElement._from_matrix(np.frombuffer(t_bytes, complex).reshape(4, 4))
        rows = _constraint_rows(_ideal_conditions(space, tt))
    vecs = nullspace_basis(rows)
    vecs.flags.writeable = False
    return vecs


def subspace_basis(space: str, t: CliffordElement | None = None) -> tuple[CliffordElement, ...]:
    """The real basis of sp_cl, I(t), K(t) or L(t), as float elements."""
    return tuple(realvec_to_element(v) for v in _basis_vectors(space, _basis_key(space, t)))


# -- sampling ------------------------------------------------------------------

_SAMPLE_ALGEBRA = {"sp_cl": "sp_cl", "Sp_cl": "sp_cl", "L": "L", "G": "L"}  # space: its algebra


def sample(
    space: str,
    t: CliffordElement | None = None,
    seed: int | np.ndarray = 0,
    scale: float = 1.0,
) -> CliffordElement:
    """Deterministic random element of an algebra (sp_cl, L) or group (Sp_cl, G).

    Group elements are exponentials of algebra samples; the result always
    passes the matching membership predicate.  For a 1-D array of seeds the
    result is a stack whose i-th entry is the sample for seed i.
    """
    if space not in _SAMPLE_ALGEBRA:
        raise ValueError(f"unknown sample space {space!r}; expected {tuple(_SAMPLE_ALGEBRA)}")
    seeds = np.asarray(seed)
    if seeds.ndim > 1:
        raise ValueError("seed must be an int or a 1-D array of seeds")
    algebra_space = _SAMPLE_ALGEBRA[space]
    vectors = _basis_vectors(algebra_space, _basis_key(algebra_space, t))
    weights = np.array(
        [np.random.default_rng(s).uniform(-scale, scale, len(vectors)) for s in seeds.ravel()]
    ).reshape(seeds.shape + (len(vectors),))
    v = realvec_to_element(weights @ vectors)
    if space in ("sp_cl", "L"):
        return v
    g = exp_element(v)
    if space == "Sp_cl":
        resid = sp_group_residual(g)
    else:
        resid = ideal_residual(g, t, "G")
    if np.max(resid) > MEMBERSHIP_TOL:
        raise ArithmeticError(
            f"sampled group element misses membership: residual {np.max(resid):.3e}"
        )
    return g


# -- matrix symplectic cross-check ---------------------------------------------


@cache
def matrix_sp_dimension(m: int) -> int:
    """dim sp(m, R): the nullity of u^T S + S u = 0 over real 2m x 2m
    matrices u, by dense row reduction; capped at m = 8."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > 8:
        raise ValueError("matrix symplectic space capped at m = 8")
    n = 2 * m
    s = np.zeros((n, n))
    s[:m, m:] = -np.eye(m)
    s[m:, :m] = np.eye(m)
    one = np.eye(n)
    # Row (i, j), column (a, b): the coefficient of u[a, b] in
    # (u^T S)[i, j] = sum_a u[a, i] S[a, j] plus (S u)[i, j] = sum_a S[i, a] u[a, j].
    rows = np.einsum("ib,aj->ijab", one, s) + np.einsum("ia,jb->ijab", s, one)
    return len(nullspace_basis(rows.reshape(n * n, n * n)))
