"""Blade products, involutions and the exponential map."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cl13
from cl13.algebra import (
    BLADE_LABELS,
    E,
    E0,
    E1,
    GENERATORS,
    GENERATORS_EXACT,
    METRIC_DIAG,
    CliffordElement,
    _matmul,
    anticommutator,
    blade_mul,
    commutator,
    exp_element,
    label_to_mask,
    random_element,
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
    for a in range(4):
        for b in range(4):
            lhs = anticommutator(GENERATORS_EXACT[a], GENERATORS_EXACT[b])
            rhs = E * (2 * METRIC_DIAG[a] * (a == b))
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
    combo = E * 0.5 + E0 * 0.5
    assert combo.equals(t2, 0.0)
    assert (E * 0).is_zero()
    assert (E1 * 1j + E1 * -1j).is_zero()


def test_grade_project():
    u = E + blade("e01", 2)
    assert u.grade(2).equals(blade("e01", 2), 0.0)
    assert blade("e1").grade(2).is_zero()
    t3 = fixed_idempotent("t3").element
    assert t3.grade(0).equals(E * 0.75, 0.0)
    with pytest.raises(ValueError):
        u.grade(5)


def test_pseudo_conj_rules():
    assert (E * 1j).pseudo_conj().equals(E * -1j, 0.0)
    assert blade("e12").pseudo_conj().equals(blade("e12", -1), 0.0)
    for g in GENERATORS:
        assert g.pseudo_conj().equals(g, 0.0)


def test_herm_conj_by_blade_oracle():
    # Oracle: beta e^a beta from raw blade arithmetic.
    for a in range(4):
        mask = label_to_mask(f"e{a}")
        s1, m1 = blade_mul(label_to_mask("e0"), mask)
        s2, m2 = blade_mul(m1, label_to_mask("e0"))
        expected = CliffordElement.from_blade(m2, s1 * s2)
        assert GENERATORS[a].herm_conj().equals(expected, 0.0)
    assert E1.herm_conj().equals(E1 * -1, 0.0)
    t1 = fixed_idempotent("t1").element
    assert t1.herm_conj().equals(t1, TOL)


def test_complex_conj():
    assert (E1 * 1j).conj().equals(E1 * -1j, 0.0)
    assert blade("e012").conj().equals(blade("e012"), 0.0)
    # conj(t1) flips the sign of the i e12 factor.
    t1 = fixed_idempotent("t1").element
    e12 = blade("e12")
    expected = ((E + E0) * (E - 1j * e12)) * 0.25
    assert t1.conj().equals(expected, TOL)


def test_involution_laws_random(rng):
    worst = 0.0
    for _ in range(1000):
        u = random_element(rng)
        v = random_element(rng)
        uv = u * v
        worst = max(
            worst,
            (uv.pseudo_conj() - v.pseudo_conj() * u.pseudo_conj()).norm(),
            ((u + v).pseudo_conj() - u.pseudo_conj() - v.pseudo_conj()).norm(),
            (u.pseudo_conj().pseudo_conj() - u).norm(),
            (u.herm_conj().herm_conj() - u).norm(),
            (uv.herm_conj() - v.herm_conj() * u.herm_conj()).norm(),
            (u.conj().conj() - u).norm(),
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
    assert CliffordElement.zero().norm() == 0.0
    assert E0.norm() == 1.0
    assert abs((E + E0).norm() - np.sqrt(2)) <= 1e-15
    exact = blade("e01", RationalComplex(3, 4), exact=True)
    assert exact.norm() == 5.0


def test_exact_mode_products():
    e01 = blade("e01", RationalComplex(1), exact=True)
    e1 = blade("e1", RationalComplex(1), exact=True)
    prod = e01 * e1
    expected = blade("e0", RationalComplex(-1), exact=True)
    assert (prod - expected).is_zero()
    assert (RC_I * e1 + e1 * RC_I).exact


def test_an_exact_operand_lifts_the_other_exactly(rng):
    u, _ = eighths(rng)
    f = random_element(rng)
    fx = CliffordElement(list(f.coefficients()), exact=True)  # the lift of f
    z = 0.1 - 2.3j
    zx = RationalComplex.from_value(z)
    pairs = [
        (u + f, u + fx),
        (f + u, fx + u),
        (u - f, u - fx),
        (f - u, fx - u),
        (u * f, u * fx),
        (f * u, fx * u),
        (u * 0.1, u * Fraction(0.1)),
        (0.1 * u, u * Fraction(0.1)),
        (u * z, u * zx),
        (u / 0.1, u * (1 / Fraction(0.1))),
        (u / z, u * (RationalComplex(1) / zx)),
    ]
    for got, want in pairs:
        assert got.exact and got == want
    # the double 0.1 enters as itself, not as 1/10
    assert (blade("e", exact=True) * 0.1).coefficient("e") == Fraction(0.1) != Fraction(1, 10)

    stack = CliffordElement(rng.standard_normal((3, 16)) + 0j)
    for mixed in (
        lambda: u + stack,
        lambda: stack - u,
        lambda: u * stack,
        lambda: stack * u,
        lambda: u * np.ones(3),
        lambda: np.ones(3) * u,
        lambda: u / np.ones(3),
    ):
        with pytest.raises(TypeError):
            mixed()


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
    assert (blade("e0123") * blade("e0123")).equals(E * -1, 0.0)


# -- the real-GEMM product kernel ------------------------------------------------

U = 2.0**-53  # unit round-off of a double


def _random_coeffs(rng, count):
    """Dense complex coefficients over six orders of magnitude."""
    scale = 10.0 ** rng.uniform(-3, 3, (count, 1))
    return scale * (rng.standard_normal((count, 16)) + 1j * rng.standard_normal((count, 16)))


def test_matmul_matches_the_exact_blade_table_within_8u_per_coefficient(rng):
    worst = 0.0
    for cu, cv in zip(_random_coeffs(rng, 60), _random_coeffs(rng, 60)):
        u, v = CliffordElement(list(cu), exact=True), CliffordElement(list(cv), exact=True)
        want = np.array([complex(c) for c in (u * v).coefficients()])
        got = CliffordElement._from_matrix(
            _matmul(gamma_rep(u.to_float()), gamma_rep(v.to_float()))
        ).coefficients()
        worst = max(worst, float(np.max(np.abs(got - want))) / (U * u.norm() * v.norm()))
    assert worst <= 8.0


def test_matmul_matches_complex_matmul_within_8u_per_entry(rng):
    a = gamma_rep(CliffordElement(_random_coeffs(rng, 500)))
    b = gamma_rep(CliffordElement(_random_coeffs(rng, 500)))
    bound = 8 * U * (np.linalg.norm(a, axis=(1, 2)) / 2) * (np.linalg.norm(b, axis=(1, 2)) / 2)
    err = np.max(np.abs(_matmul(a, b) - a @ b), axis=(1, 2))
    assert np.all(err <= bound)


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 20, 128, 2000])
def test_matmul_of_a_stack_entry_equals_its_product_alone(rng, n):
    a = gamma_rep(CliffordElement(_random_coeffs(rng, n)))
    b = gamma_rep(CliffordElement(_random_coeffs(rng, n)))
    # Each right-hand side is a single x single product.
    one_a, one_b = a[n // 2], b[0]
    pairs = [
        (_matmul(a, b), [_matmul(a[i], b[i]) for i in range(n)]),  # stack x stack
        (_matmul(a, one_b), [_matmul(a[i], one_b) for i in range(n)]),  # stack x single
        (_matmul(one_a, b), [_matmul(one_a, b[i]) for i in range(n)]),  # single x stack
    ]
    for stacked, alone in pairs:
        assert all(_same_bits(x, y) for x, y in zip(stacked, alone, strict=True))


def test_matmul_reads_non_contiguous_operands_as_their_values(rng):
    u = CliffordElement(_random_coeffs(rng, 64))
    a, b = u.herm_conj()._mat, gamma_rep(CliffordElement(_random_coeffs(rng, 64)))
    assert not a.flags.c_contiguous
    dense = np.ascontiguousarray(a)
    assert _same_bits(_matmul(a, b), _matmul(dense, b))
    assert _same_bits(_matmul(b, a), _matmul(b, dense))
    assert _same_bits(_matmul(a, a), _matmul(dense, dense))
    assert _same_bits(_matmul(a[3], b[3]), _matmul(dense[3], b[3]))


_MUTATED_REP = """
import json, numpy as np
from cl13 import algebra
from cl13.cli import main
# Negate one nonzero entry of rep(e02) and the coefficient table derived from it.
reps = algebra.BLADE_REPS
i, j = np.argwhere(reps[5])[0]
reps[5, i, j] *= -1
algebra._TO_COEFFS[...] = algebra._TO_MATRIX.conj().T / 4
raise SystemExit(main(["verify", "algebra", "--seed", "1"]))
"""


def test_rep_homomorphism_fails_when_one_blade_matrix_is_wrong():
    env = dict(os.environ, PYTHONPATH=str(Path(cl13.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _MUTATED_REP], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 1, proc.stderr
    status = {c["name"]: c["status"] for c in json.loads(proc.stdout)["checks"]}
    assert status["algebra/rep-homomorphism"] == "fail"
