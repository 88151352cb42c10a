"""Blade products, involutions and the exponential map."""

from fractions import Fraction

import numpy as np
import pytest

from cl13.algebra import (
    BLADE_LABELS,
    E,
    E0,
    E1,
    GENERATORS,
    GENERATORS_EXACT,
    METRIC_DIAG,
    CliffordElement,
    anticommutator,
    blade_mul,
    commutator,
    complex_conj,
    exp_element,
    grade_project,
    herm_conj,
    label_to_mask,
    linear_combine,
    mul,
    norm,
    pseudo_conj,
    random_element,
    unit,
)
from cl13.exactnum import RC_I, RationalComplex
from cl13.rep import gamma_rep
from cl13.subspaces import fixed_idempotent

TOL = 1e-12


def blade(label, coeff=1, exact=False):
    return CliffordElement.from_blade(label, coeff, exact)


def test_blade_mul_spec_cases():
    e1 = label_to_mask("e1")
    e0 = label_to_mask("e0")
    e01 = label_to_mask("e01")
    assert blade_mul(e1, e1) == (-1, 0)
    assert blade_mul(e0, e1) == (1, e01)
    assert blade_mul(e01, e1) == (-1, e0)


def test_generator_relations_exact_all_pairs():
    e = unit(True)
    for a in range(4):
        for b in range(4):
            lhs = anticommutator(GENERATORS_EXACT[a], GENERATORS_EXACT[b])
            rhs = e * (2 * METRIC_DIAG[a]) if a == b else e * 0
            assert (lhs - rhs).is_zero()


def test_mul_unit_and_squares():
    assert (E0 * E0).equals(E, 0.0)
    u = blade("e013", 0.5 - 2j)
    assert (E * u).equals(u, 0.0)
    assert (u * E).equals(u, 0.0)
    e12 = blade("e12")
    assert (e12 * e12).equals(E * -1, 0.0)


def test_mul_associative_on_random(rng):
    for _ in range(50):
        u, v, w = (random_element(rng) for _ in range(3))
        assert ((u * v) * w).equals(u * (v * w), 1e-11)


def test_linear_combine_builds_t2():
    t2 = fixed_idempotent("t2").element
    combo = linear_combine([(0.5, E), (0.5, E0)])
    assert combo.equals(t2, 0.0)
    assert linear_combine([(0, E)]).is_zero()
    assert linear_combine([(1j, E1), (-1j, E1)]).is_zero()


def test_grade_project():
    u = E + blade("e01", 2)
    assert grade_project(u, 2).equals(blade("e01", 2), 0.0)
    assert grade_project(blade("e1"), 2).is_zero()
    t3 = fixed_idempotent("t3").element
    assert grade_project(t3, 0).equals(E * 0.75, 0.0)
    with pytest.raises(ValueError):
        grade_project(u, 5)


def test_pseudo_conj_rules():
    assert pseudo_conj(E * 1j).equals(E * -1j, 0.0)
    assert pseudo_conj(blade("e12")).equals(blade("e12", -1), 0.0)
    for g in GENERATORS:
        assert pseudo_conj(g).equals(g, 0.0)


def test_herm_conj_by_blade_oracle():
    # Oracle: beta e^a beta from raw blade arithmetic.
    for a in range(4):
        mask = label_to_mask(f"e{a}")
        s1, m1 = blade_mul(label_to_mask("e0"), mask)
        s2, m2 = blade_mul(m1, label_to_mask("e0"))
        expected = CliffordElement.from_blade(m2, s1 * s2)
        assert herm_conj(GENERATORS[a]).equals(expected, 0.0)
    assert herm_conj(E1).equals(E1 * -1, 0.0)
    t1 = fixed_idempotent("t1").element
    assert herm_conj(t1).equals(t1, TOL)


def test_complex_conj():
    assert complex_conj(E1 * 1j).equals(E1 * -1j, 0.0)
    assert complex_conj(blade("e012")).equals(blade("e012"), 0.0)
    # conj(t1) flips the sign of the i e12 factor.
    t1 = fixed_idempotent("t1").element
    e12 = blade("e12")
    expected = ((E + E0) * (E - 1j * e12)) * 0.25
    assert complex_conj(t1).equals(expected, TOL)


def test_involution_laws_random(rng):
    worst = 0.0
    for _ in range(1000):
        u = random_element(rng)
        v = random_element(rng)
        uv = u * v
        worst = max(
            worst,
            (pseudo_conj(uv) - pseudo_conj(v) * pseudo_conj(u)).norm(),
            (pseudo_conj(u + v) - pseudo_conj(u) - pseudo_conj(v)).norm(),
            (pseudo_conj(pseudo_conj(u)) - u).norm(),
            (herm_conj(herm_conj(u)) - u).norm(),
            (herm_conj(uv) - herm_conj(v) * herm_conj(u)).norm(),
            (complex_conj(complex_conj(u)) - u).norm(),
        )
    assert worst <= TOL


def test_commutators():
    assert commutator(E0, E1).equals(blade("e01", 2), 0.0)
    assert commutator(E0, blade("e12")).is_zero()
    assert anticommutator(E0, E1).is_zero()
    u = random_element(np.random.default_rng(5))
    assert commutator(u, u).is_zero(1e-14)


def test_exp_basics():
    assert exp_element(CliffordElement.zero()).equals(E, 0.0)
    theta = 0.4
    closed = E * np.cos(theta) + blade("e12") * np.sin(theta)
    assert exp_element(blade("e12") * theta).equals(closed, 1e-14)
    with pytest.raises(ValueError):
        exp_element(E, tol=0.0)


@pytest.mark.parametrize("coeff", [np.inf, -np.inf, np.nan, 1e300])
def test_exp_rejects_non_finite_input(coeff):
    # 1e300 is finite, but its squared norm overflows.
    with pytest.raises(ValueError, match="finite"):
        exp_element(blade("e12", coeff))


def test_exp_raises_when_the_exponential_overflows():
    # |800 e01| is finite, but exp(800) is not a double.
    with pytest.raises(ValueError, match="overflow"):
        exp_element(blade("e01", 800))


def test_exp_matches_scipy_expm(rng):
    expm = pytest.importorskip("scipy.linalg").expm
    single = random_element(rng, 0.8)
    stack = CliffordElement(
        rng.uniform(-0.8, 0.8, (8, 16)) + 1j * rng.uniform(-0.8, 0.8, (8, 16))
    )
    for u in (single, stack):
        got = gamma_rep(exp_element(u))
        want = expm(gamma_rep(u))
        err = np.linalg.norm(got - want, axis=(-2, -1))
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(-2, -1)))
    # each element of a stack is the exponential of that element alone
    for k in range(8):
        alone = exp_element(CliffordElement(stack.coefficients()[k]))
        assert np.max(np.abs(gamma_rep(exp_element(stack))[k] - gamma_rep(alone))) <= 1e-12


def eighths(rng):
    """A random element with coefficients k/8, as an exact and a float copy."""
    re, im = rng.integers(-16, 17, size=(2, 16))
    exact = CliffordElement(
        [RationalComplex(Fraction(int(a), 8), Fraction(int(b), 8)) for a, b in zip(re, im)],
        exact=True,
    )
    return exact, exact.to_float()


def test_float_mode_matches_exact_mode(rng):
    # Oracle: rational arithmetic on the blade table.
    worst = 0.0
    for _ in range(50):
        (u, uf), (v, vf) = eighths(rng), eighths(rng)
        pairs = [
            (u * v, uf * vf),
            (u.pseudo_conj(), uf.pseudo_conj()),
            (u.herm_conj(), uf.herm_conj()),
            (u.conj(), uf.conj()),
            *((u.grade(k), uf.grade(k)) for k in range(5)),
        ]
        for exact, flt in pairs:
            want = np.array([complex(c) for c in exact.coefficients()])
            worst = max(worst, float(np.max(np.abs(flt.coefficients() - want))))
        worst = max(worst, abs(u.norm() - uf.norm()))
    assert worst <= 1e-12


def test_exp_additivity_on_commuting(rng):
    # e12 and e03 commute (disjoint even blades).
    u = blade("e12") * 0.7
    v = blade("e03") * 0.3
    assert commutator(u, v).is_zero(1e-15)
    lhs = exp_element(u + v)
    rhs = exp_element(u) * exp_element(v)
    assert (lhs - rhs).norm() <= 1e-10


def test_norm():
    assert norm(CliffordElement.zero()) == 0.0
    assert norm(E0) == 1.0
    assert abs(norm(E + E0) - np.sqrt(2)) <= 1e-15
    exact = blade("e01", RationalComplex(3, 4), exact=True)
    assert norm(exact) == 5.0


def test_exact_mode_products():
    e01 = blade("e01", RationalComplex(1), exact=True)
    e1 = blade("e1", RationalComplex(1), exact=True)
    prod = e01 * e1
    expected = blade("e0", RationalComplex(-1), exact=True)
    assert (prod - expected).is_zero()
    assert (RC_I * e1 + e1 * RC_I).exact


def test_mixed_mode_promotes_to_float():
    exact = blade("e0", RationalComplex(1), exact=True)
    mixed = exact + E1
    assert not mixed.exact
    assert mixed.equals(E0 + E1, 0.0)


def test_serialization_roundtrip(rng):
    u = random_element(rng)
    again = CliffordElement.from_json_obj(u.to_json_obj())
    assert again.equals(u, 0.0)
    assert CliffordElement.zero().to_json_obj() == {}
    assert set(E0.to_json_obj()) == {"e0"}


def test_blade_labels_cover_all_16():
    assert len(BLADE_LABELS) == 16
    assert BLADE_LABELS[0] == "e"
    assert BLADE_LABELS[-1] == "e0123"
    assert mul(blade("e0123"), blade("e0123")).equals(E * -1, 0.0)
