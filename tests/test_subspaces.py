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
    stack,
)
from cl13 import subspaces
from cl13.rep import gamma_rep, inverse, rep_rank
from cl13.subspaces import (
    IDEMPOTENT_LABELS,
    MEMBERSHIP_TOL,
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
    sp_algebra_residual,
    sp_group_residual,
    subspace_basis,
)
from cl13.verify import ConfigError, ScenarioConfig


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
    t1 = fixed_idempotent("t1").lift()
    ok, residuals = is_hermitian_idempotent(t1)
    assert ok and all(r == 0.0 for r in residuals.values())
    ok, residuals = is_hermitian_idempotent(E1)
    assert not ok
    assert residuals["idempotent"] > 1.0
    ok, _ = is_hermitian_idempotent(CliffordElement.zero())
    assert not ok
    # A custom t that fails them is a configuration error.
    with pytest.raises(ConfigError, match="bad idempotent: not a Hermitian idempotent"):
        ScenarioConfig(idempotent=E1.to_json_obj())


def test_an_idempotent_larger_than_a_projector_is_rejected_by_its_norm():
    # A Hermitian idempotent is an orthogonal projector: |M|_F / 2 <= 1,
    # with equality for t4 = e, which still passes.
    assert is_hermitian_idempotent(fixed_idempotent("t4"))[0]
    ok, residuals = is_hermitian_idempotent(E * 2.0)
    assert not ok and residuals == {"norm": 2.0}


def test_ideal_membership_examples(t2):
    assert in_ideal(t2, t2, "I")
    assert in_ideal(t2 * 1j, t2, "L")
    # e1 t2 lies in I(t2) but t2 (e1 t2) = 0 != e1 t2, so K fails.
    u = E1 * t2
    assert in_ideal(u, t2, "I")
    assert not in_ideal(u, t2, "K")
    assert (t2 * u).is_zero(1e-14)
    g = sample("G", t2, seed=3, scale=0.5)
    assert ideal_residual(g, t2, "G") <= 1e-9
    with pytest.raises(ValueError):
        in_ideal(t2, t2, "Z")


def test_subspace_dimensions_against_svd_oracle():
    sb = subspace_basis("sp_cl")
    assert len(sb) == 10
    # Oracle: rank of the basis matrix via numpy SVD.
    assert np.linalg.matrix_rank(element_to_realvec(stack(sb))) == 10
    for label, rank in zip(IDEMPOTENT_LABELS, (1, 2, 3, 4)):
        t = fixed_idempotent(label)
        assert rep_rank(t) == rank
        for space, expected in (("L", rank * rank), ("K", 2 * rank * rank), ("I", 8 * rank)):
            got = subspace_basis(space, t)
            assert len(got) == expected
            assert np.linalg.matrix_rank(element_to_realvec(stack(got))) == expected


def test_basis_elements_satisfy_membership(t2):
    for b in subspace_basis("sp_cl"):
        assert sp_algebra_residual(b) <= 1e-12
    for b in subspace_basis("L", t2):
        assert ideal_residual(b, t2, "L") <= 1e-9


def test_matrix_sp_dimensions():
    assert matrix_sp_dimension(1) == 3
    assert matrix_sp_dimension(2) == 10
    assert matrix_sp_dimension(3) == 21
    for m in range(4, 9):
        assert matrix_sp_dimension(m) == m * (2 * m + 1)
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
    assert commutator(u, t2).norm() <= 1e-10
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
        assert sp_algebra_residual(conj) <= 1e-9
        worst_adjoint = max(worst_adjoint, sp_group_residual(w))
    assert worst_group <= 1e-9
    assert worst_adjoint <= 1e-9


def test_algebra_closure_under_commutator():
    for j in range(100):
        u1 = sample("sp_cl", seed=5000 + 2 * j)
        u2 = sample("sp_cl", seed=5000 + 2 * j + 1)
        assert sp_algebra_residual(commutator(u1, u2)) <= 1e-12


def test_realvec_roundtrip(rng):
    from cl13.algebra import random_element

    u = random_element(rng)
    assert realvec_to_element(element_to_realvec(u)).equals(u, 0.0)


# -- stacked samples and cached bases --------------------------------------------


@pytest.mark.parametrize("space", ["sp_cl", "Sp_cl", "L", "G"])
def test_stacked_sample_equals_per_seed_samples(t2, space):
    # Bit for bit: no kernel's rounding may depend on the size of its stack.
    t = t2 if space in ("L", "G") else None
    seeds = np.arange(40, 72)
    stack = gamma_rep(sample(space, t, seed=seeds, scale=0.6))
    assert stack.shape == (len(seeds), 4, 4)
    for entry, seed in zip(stack, seeds):
        assert np.array_equal(entry, gamma_rep(sample(space, t, seed=int(seed), scale=0.6)))


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
    columns = []
    for k in range(32):
        u = realvec_to_element(np.eye(32)[k])
        parts = [u - u * t]
        if space in ("K", "L"):
            parts.append(u - t * u)
        if space == "L":
            parts.append(u.herm_conj() + u)
        columns.append(np.concatenate([element_to_realvec(p) for p in parts]))
    return np.array(columns).T


def test_cached_basis_is_read_only_and_equals_a_fresh_row_reduction():
    cached = subspaces._basis_vectors
    cached.cache_clear()
    cases = [("sp_cl", None, np.eye(32)[subspaces._SP_ALGEBRA_ZERO])]
    for label in IDEMPOTENT_LABELS:
        t = fixed_idempotent(label)
        cases += [(space, t, _constraint_rows_by_blade(space, t)) for space in "IKL"]
    for n, (space, t, rows) in enumerate(cases, start=1):
        basis = subspace_basis(space, t)
        # One row reduction per (space, t): a repeated call, and a lifted t
        # with the same float matrix, hit the entry of the first call.
        subspace_basis(space, t if t is None else t.lift())
        assert cached.cache_info().misses == n
        vectors = cached(space, subspaces._basis_key(space, t))
        with pytest.raises(ValueError):
            vectors[..., 0] = 1.0
        fresh = nullspace_basis(rows)
        assert np.array_equal(vectors, fresh)
        assert np.array_equal(element_to_realvec(stack(basis)), fresh)
