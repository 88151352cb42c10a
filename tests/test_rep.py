"""Matrix representation, inversion and Hermitian eigenvalues."""

import numpy as np
import pytest

from cl13.algebra import (
    E,
    E0,
    CliffordElement,
    exp_element,
    random_element,
)
from cl13.exactnum import RC_ONE
from cl13.rep import (
    NotHermitianError,
    SingularElementError,
    gamma_rep,
    hermitian_eigenvalues,
    inverse,
    rep_inverse,
    rep_rank,
)
from cl13.subspaces import fixed_idempotent, sample


def test_rep_of_unit_and_e0():
    assert np.allclose(gamma_rep(E), np.eye(4))
    m0 = gamma_rep(E0)
    assert np.allclose(m0, np.diag([1, 1, -1, -1]))
    assert np.allclose(m0 @ m0, np.eye(4))


def test_rep_adjointness_pattern():
    # rep(e0) self-adjoint, rep(ek) skew-adjoint.
    for a in range(4):
        m = gamma_rep(CliffordElement.from_blade(f"e{a}"))
        if a == 0:
            assert np.allclose(m.conj().T, m)
        else:
            assert np.allclose(m.conj().T, -m)


def test_rep_homomorphism_on_blade_table():
    # Oracle: the exact blade table.  The float product is the matrix
    # product, so rep(u * v) = rep(u) @ rep(v) would compare a computation
    # with itself; by linearity the 256 blade pairs cover every element.
    blades = [CliffordElement.from_blade(m, RC_ONE, exact=True) for m in range(16)]
    worst = 0.0
    for u in blades:
        worst = max(worst, float(np.max(np.abs(gamma_rep(u).conj().T - gamma_rep(u.herm_conj())))))
        for v in blades:
            exact = gamma_rep(u * v)
            worst = max(worst, float(np.max(np.abs(gamma_rep(u.to_float() * v.to_float()) - exact))))
    assert worst <= 1e-12


def test_rep_inverse_roundtrip(rng):
    for _ in range(20):
        u = random_element(rng)
        assert rep_inverse(gamma_rep(u)).equals(u, 1e-12)
    with pytest.raises(ValueError):
        rep_inverse(np.eye(3))


def test_rep_rank_of_idempotents():
    # Oracle: numpy matrix_rank on the representation.
    for label, expected in zip(("t1", "t2", "t3", "t4"), (1, 2, 3, 4)):
        t = fixed_idempotent(label).element
        assert rep_rank(t) == expected
        assert np.linalg.matrix_rank(gamma_rep(t), tol=1e-9) == expected


def test_inverse():
    assert inverse(E).equals(E, 1e-13)
    v = sample("sp_cl", seed=9, scale=0.7)
    w = exp_element(v)
    assert inverse(w).equals(exp_element(v * -1), 1e-11)
    assert (inverse(w) * w).equals(E, 1e-11)
    with pytest.raises(SingularElementError):
        inverse(fixed_idempotent("t2").element)


def test_hermitian_eigenvalues_fixed_cases():
    assert np.allclose(hermitian_eigenvalues(E), [1, 1, 1, 1])
    assert np.allclose(hermitian_eigenvalues(E0), [-1, -1, 1, 1])
    t1 = fixed_idempotent("t1").element
    assert np.allclose(hermitian_eigenvalues(t1), [0, 0, 0, 1], atol=1e-12)
    t2 = fixed_idempotent("t2").element
    assert np.allclose(hermitian_eigenvalues(t2), [0, 0, 1, 1], atol=1e-12)


def test_hermitian_eigenvalues_match_trace_identities(rng):
    # Oracle independent of any eigensolver: every blade but e is traceless
    # in the representation, so tr rep(u) = 4 <u>_0 for the scalar part
    # <u>_0, which gives sum(lambda) = 4 <h>_0 and sum(lambda^2) = 4 <h h>_0.
    for _ in range(50):
        u = random_element(rng)
        h = (u + u.herm_conj()) * 0.5
        eigs = hermitian_eigenvalues(h)
        assert np.all(np.diff(eigs) >= 0)
        assert abs(eigs.sum() - 4 * h.coefficient("e")) <= 1e-10
        assert abs((eigs**2).sum() - 4 * (h * h).coefficient("e")) <= 1e-10


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(CliffordElement.from_blade("e1"))


def test_stacked_inverse_equals_per_element_inverses():
    w = exp_element(sample("sp_cl", seed=np.arange(20), scale=0.7))
    stack = gamma_rep(inverse(w))
    assert stack.shape == (20, 4, 4)
    for entry, mat in zip(stack, gamma_rep(w)):
        one = gamma_rep(inverse(rep_inverse(mat)))
        assert np.max(np.abs(entry - one)) <= 1e-15 * np.max(np.abs(one))


def test_stacked_inverse_raises_when_one_entry_is_singular():
    w = exp_element(sample("sp_cl", seed=3, scale=0.7))
    t2 = fixed_idempotent("t2").element
    stack = rep_inverse(np.stack([gamma_rep(E), gamma_rep(t2), gamma_rep(w)]))
    with pytest.raises(SingularElementError):
        inverse(stack)
    with pytest.raises(ValueError):
        rep_inverse(np.zeros((2, 2, 4, 4)))
