"""Membership predicates, subspace dimensions and sampling."""

import numpy as np
import pytest

from cl13.algebra import (
    E,
    E0,
    E1,
    CliffordElement,
    commutator,
    exp_element,
)
from cl13 import subspaces
from cl13.rep import gamma_rep, inverse, rep_rank
from cl13.subspaces import (
    IDEMPOTENT_LABELS,
    MEMBERSHIP_TOL,
    HermitianIdempotent,
    build_matrix_symplectic_space,
    element_to_realvec,
    fixed_idempotent,
    ideal_residual,
    in_ideal,
    in_sp_algebra,
    in_sp_group,
    is_hermitian_idempotent,
    matrix_sp_dimension,
    nullspace_basis,
    realvec_to_element,
    sample,
    sp_group_residual,
    subspace_basis,
)


def test_sp_algebra_membership():
    assert in_sp_algebra(E0 * 1j)
    assert in_sp_algebra(CliffordElement.from_blade("e12"))
    assert not in_sp_algebra(E1)
    assert not in_sp_algebra(E)
    assert in_sp_algebra(E1 * 2j + CliffordElement.from_blade("e23", -0.4))


def test_sp_group_membership():
    assert in_sp_group(E)
    assert in_sp_group(exp_element(CliffordElement.from_blade("e12") * 0.3))
    assert not in_sp_group(E * 2)
    assert not in_sp_group(E1)


def test_hermitian_idempotent_examples():
    ok, _ = is_hermitian_idempotent(E)  # t4
    assert ok
    t1 = fixed_idempotent("t1", exact=True)
    ok, residuals = is_hermitian_idempotent(t1.element)
    assert ok and all(r == 0.0 for r in residuals.values())
    ok, residuals = is_hermitian_idempotent(E1)
    assert not ok
    assert residuals["idempotent"] > 1.0
    ok, _ = is_hermitian_idempotent(CliffordElement.zero())
    assert not ok
    with pytest.raises(ValueError):
        HermitianIdempotent.checked(E1)


def test_ideal_membership_examples(t2):
    t = t2.element
    assert in_ideal(t, t2, "I")
    assert in_ideal(t * 1j, t2, "L")
    # e1 t2 lies in I(t2) but t2 (e1 t2) = 0 != e1 t2, so K fails.
    u = E1 * t
    assert in_ideal(u, t2, "I")
    assert not in_ideal(u, t2, "K")
    assert (t * u).is_zero(1e-14)
    g = sample("G", t2, seed=3, scale=0.5)
    assert in_ideal(g, t2, "G", 1e-9)
    with pytest.raises(ValueError):
        in_ideal(t, t2, "Z")


def test_subspace_dimensions_against_svd_oracle():
    sb = subspace_basis("sp_cl")
    assert sb.dim == 10
    # Oracle: rank of the basis matrix via numpy SVD.
    assert np.linalg.matrix_rank(sb.vectors) == 10
    for label, rank in zip(IDEMPOTENT_LABELS, (1, 2, 3, 4)):
        t = fixed_idempotent(label)
        assert rep_rank(t.element) == rank
        for space, expected in (("L", rank * rank), ("K", 2 * rank * rank), ("I", 8 * rank)):
            got = subspace_basis(space, t)
            assert got.dim == expected
            assert np.linalg.matrix_rank(got.vectors) == expected


def test_basis_elements_satisfy_membership(t2):
    for b in subspace_basis("sp_cl").basis:
        assert in_sp_algebra(b, 1e-12)
    for b in subspace_basis("L", t2).basis:
        assert ideal_residual(b, t2, "L") <= 1e-9


def test_matrix_sp_dimensions():
    assert matrix_sp_dimension(1) == 3
    assert matrix_sp_dimension(2) == 10
    assert matrix_sp_dimension(3) == 21
    space = build_matrix_symplectic_space(2)
    assert np.allclose(space.s @ space.s, -np.eye(4))
    for u in space.basis:
        assert np.allclose(u.T @ space.s, -space.s @ u, atol=1e-12)
    with pytest.raises(ValueError):
        matrix_sp_dimension(9)
    with pytest.raises(ValueError):
        matrix_sp_dimension(0)


def test_nullspace_basis_simple():
    rows = np.array([[1.0, 1.0, 0.0]])
    basis = nullspace_basis(rows)
    assert basis.shape == (2, 3)
    for v in basis:
        assert abs(rows @ v).max() <= 1e-12


def test_sampling_memberships(t2):
    v = sample("Sp_cl", seed=1)
    assert sp_group_residual(v) <= 1e-10
    u = sample("G", t2, seed=7)
    assert (u.herm_conj() * u - E).norm() <= 1e-10
    assert commutator(u, t2.element).norm() <= 1e-10
    assert sample("sp_cl", seed=4, scale=0.0).is_zero()
    with pytest.raises(ValueError):
        sample("nope", seed=0)


def test_sampling_deterministic():
    a = sample("sp_cl", seed=123)
    b = sample("sp_cl", seed=123)
    assert a.equals(b, 0.0)


def test_group_closure_and_adjoint_stability():
    worst_group = 0.0
    worst_adjoint = 0.0
    for j in range(200):
        v1 = sample("Sp_cl", seed=2 * j, scale=0.6)
        v2 = sample("Sp_cl", seed=2 * j + 1, scale=0.6)
        worst_group = max(worst_group, sp_group_residual(v1 * v2))
    for j in range(40):
        w = sample("Sp_cl", seed=900 + j, scale=0.6)
        v = sample("sp_cl", seed=1300 + j)
        conj = inverse(w) * v * w
        assert in_sp_algebra(conj, 1e-9)
        worst_adjoint = max(worst_adjoint, sp_group_residual(w))
    assert worst_group <= 1e-9
    assert worst_adjoint <= 1e-9


def test_algebra_closure_under_commutator():
    for j in range(100):
        u1 = sample("sp_cl", seed=5000 + 2 * j)
        u2 = sample("sp_cl", seed=5000 + 2 * j + 1)
        assert in_sp_algebra(commutator(u1, u2), 1e-12)


def test_realvec_roundtrip(rng):
    from cl13.algebra import random_element

    u = random_element(rng)
    assert realvec_to_element(element_to_realvec(u)).equals(u, 0.0)


# -- stacked samples and cached bases --------------------------------------------


@pytest.mark.parametrize(
    "space, rel_tol, abs_tol",
    [("sp_cl", 0.0, 1e-15), ("Sp_cl", 1e-13, 0.0), ("L", 0.0, 1e-15), ("G", 1e-13, 0.0)],
)
def test_stacked_sample_equals_per_seed_samples(t2, space, rel_tol, abs_tol):
    t = t2 if space in ("L", "G") else None
    seeds = np.arange(40, 72)
    stack = gamma_rep(sample(space, t, seed=seeds, scale=0.6))
    assert stack.shape == (len(seeds), 4, 4)
    for entry, seed in zip(stack, seeds):
        one = gamma_rep(sample(space, t, seed=int(seed), scale=0.6))
        assert np.max(np.abs(entry - one)) <= abs_tol + rel_tol * np.max(np.abs(one))


def test_stacked_group_samples_pass_membership(t2):
    seeds = np.arange(100)
    assert np.all(in_sp_group(sample("Sp_cl", seed=seeds, scale=0.6)))
    assert np.all(in_ideal(sample("G", t2, seed=seeds, scale=0.7), t2, "G"))


def test_stacked_sample_checks_membership_on_the_worst_entry(monkeypatch):
    seeds = np.arange(20)
    residuals = sp_group_residual(sample("Sp_cl", seed=seeds, scale=0.6))
    assert np.max(residuals) <= MEMBERSHIP_TOL
    # Every entry but the worst passes this bound, so only a check on the
    # maximum over the stack raises.
    monkeypatch.setattr(subspaces, "MEMBERSHIP_TOL", float(np.sort(residuals)[-2]))
    with pytest.raises(ArithmeticError):
        sample("Sp_cl", seed=seeds, scale=0.6)
    sample("Sp_cl", seed=int(seeds[np.argmin(residuals)]), scale=0.6)


def test_sample_rejects_a_seed_array_of_more_than_one_axis():
    with pytest.raises(ValueError):
        sample("sp_cl", seed=np.zeros((2, 2), dtype=int))


def _constraint_rows_by_blade(space, t):
    """The constraint matrix of I(t), K(t) or L(t), one real unit vector at a time."""
    tt = t.element
    columns = []
    for k in range(32):
        u = realvec_to_element(np.eye(32)[k])
        parts = [u - u * tt]
        if space in ("K", "L"):
            parts.append(u - tt * u)
        if space == "L":
            parts.append(u.herm_conj() + u)
        columns.append(np.concatenate([element_to_realvec(p) for p in parts]))
    return np.array(columns).T


def test_cached_basis_is_read_only_and_equals_a_fresh_row_reduction():
    sb = subspace_basis("sp_cl")
    assert subspace_basis("sp_cl").vectors is sb.vectors
    with pytest.raises(ValueError):
        sb.vectors[0, 0] = 1.0
    assert np.array_equal(sb.vectors, nullspace_basis(np.eye(32)[subspaces._SP_ALGEBRA_ZERO]))
    for label in IDEMPOTENT_LABELS:
        t = fixed_idempotent(label)
        for space in ("I", "K", "L"):
            sb = subspace_basis(space, t)
            # The exact idempotent has the same float matrix, so the same entry.
            assert subspace_basis(space, fixed_idempotent(label, exact=True)).vectors is sb.vectors
            with pytest.raises(ValueError):
                sb.vectors[..., 0] = 1.0
            fresh = nullspace_basis(_constraint_rows_by_blade(space, t))
            assert np.array_equal(sb.vectors, fresh)


def test_matrix_symplectic_space_is_built_once_and_read_only():
    space = build_matrix_symplectic_space(3)
    assert build_matrix_symplectic_space(3) is space
    with pytest.raises(ValueError):
        space.basis[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        space.s[0, 0] = 1.0
