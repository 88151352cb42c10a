"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import numpy as np
import pytest

from cl13.algebra import (
    E,
    GENERATORS,
    GENERATORS_EXACT,
    METRIC_DIAG,
    anticommutator,
    commutator,
    random_element,
)
from cl13.fields import (
    FieldFamily,
    ShapeField,
    bianchi_current_check,
    build_pure_gauge,
    check_h_identities,
    check_reduction_identities,
    convergence_slope,
    random_family,
    random_two_yang_mills_set,
    reduce_to_two_yang_mills,
    sample_points,
    source_norm,
    two_yang_mills_residuals,
    worst,
)
from cl13.rep import gamma_rep, hermitian_eigenvalues, rep_rank
from cl13.shapes import PolyShape
from cl13.subspaces import (
    IDEMPOTENT_LABELS,
    fixed_idempotent,
    hermitian_idempotent_residuals,
    ideal_residual,
    sample,
    sp_group_residual,
    subspace_basis,
)
from cl13.symmetries import (
    TRANSFORM_KINDS,
    bilinear_form,
    covariance_check,
    random_transformation,
)

SEED = 42
MASSES = (0.5, 1.0, 2.0)


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE-{number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


@pytest.fixture(scope="module")
def t2():
    return fixed_idempotent("t2")


@pytest.fixture(scope="module")
def families():
    return [random_family(SEED + 1000 * j) for j in range(3)]


@pytest.fixture(scope="module")
def reduced_sets(families, t2):
    return {
        (i, m): reduce_to_two_yang_mills(build_pure_gauge(fam, t2, m))
        for i, fam in enumerate(families)
        for m in MASSES
    }


@pytest.fixture(scope="module")
def points():
    return sample_points(SEED, 20)


def test_criterion_1_generator_relations():
    ok = True
    for a in range(4):
        for b in range(4):
            lhs = anticommutator(GENERATORS_EXACT[a], GENERATORS_EXACT[b])
            rhs = E * (2 * METRIC_DIAG[a] * (a == b))
            ok = ok and (lhs - rhs).is_zero()
    _verdict(1, "generator-relations-exact", ok)


def test_criterion_2_involution_laws():
    rng = np.random.default_rng(SEED)
    laws = []
    for _ in range(1000):
        u = random_element(rng)
        v = random_element(rng)
        uv = u * v
        laws += [
            (uv.pseudo_conj() - v.pseudo_conj() * u.pseudo_conj()).norm(),
            ((u + v).pseudo_conj() - u.pseudo_conj() - v.pseudo_conj()).norm(),
            (u.pseudo_conj().pseudo_conj() - u).norm(),
            (u.herm_conj().herm_conj() - u).norm(),
            (u.conj().conj() - u).norm(),
        ]
    _verdict(2, "involution-laws", worst(laws) <= 1e-12)


def test_criterion_3_dimension_cross_check():
    from cl13.subspaces import matrix_sp_dimension

    ok = subspace_basis("sp_cl").dim == 10 and matrix_sp_dimension(2) == 10
    _verdict(3, "symplectic-dimension-10", ok)


def test_criterion_4_idempotent_suite():
    ok = True
    expected_dims = (1, 4, 9, 16)
    for label, dim in zip(IDEMPOTENT_LABELS, expected_dims):
        exact = fixed_idempotent(label, exact=True)
        residuals = hermitian_idempotent_residuals(exact.element)
        ok = ok and all(r == 0.0 for r in residuals.values())
        t = fixed_idempotent(label)
        rank = rep_rank(t.element)
        ok = ok and subspace_basis("L", t).dim == dim == rank * rank
    _verdict(4, "hermitian-idempotents", ok)


def test_criterion_5_group_sanity(t2):
    worst_product = 0.0
    for j in range(200):
        v1 = sample("Sp_cl", seed=SEED + 2 * j, scale=0.6)
        v2 = sample("Sp_cl", seed=SEED + 2 * j + 1, scale=0.6)
        worst_product = max(worst_product, sp_group_residual(v1 * v2))
    worst_gauge = 0.0
    for label in ("t1", "t2", "t3"):
        t = fixed_idempotent(label)
        for j in range(5):
            u = sample("G", t, seed=SEED + 7000 + j, scale=0.7)
            worst_gauge = max(
                worst_gauge,
                (u.herm_conj() * u - E).norm(),
                commutator(u, t.element).norm(),
            )
    _verdict(5, "group-sanity", worst_product <= 1e-9 and worst_gauge <= 1e-10)


def test_criterion_6_h_identities(families, t2, points):
    fs = build_pure_gauge(families[0], t2, 1.0)
    residuals = [
        r for x in points for r in check_h_identities([f.value(x) for f in fs.h]).values()
    ]
    _verdict(6, "h-identity-suite", worst(residuals) <= 1e-10)


def test_criterion_7_reduction_theorem(reduced_sets, points, t2):
    residuals = []
    ok_rhs = True
    for (i, m), red in reduced_sets.items():
        residuals += two_yang_mills_residuals(red, points).values()
        x0 = points[0]
        h_scale = max((red.h[nu].value(x0) * 1j).norm() for nu in range(4))
        expected = 3.0 / 16.0 * abs(m) ** 3 * h_scale
        measured = source_norm(red, points)[0]
        ok_rhs = ok_rhs and measured > 0 and abs(measured - expected) <= 1e-9
    const = reduce_to_two_yang_mills(build_pure_gauge(FieldFamily(()), t2, 1.0))
    ok_const = (
        worst([two_yang_mills_residuals(const, points[:2])["source_b"]]) <= 1e-14
        and np.max(np.abs(source_norm(const, points[:2]) - 0.1875)) <= 1e-15
    )
    _verdict(7, "reduction-theorem", worst(residuals) <= 1e-9 and ok_rhs and ok_const)


def test_criterion_8_transport_identities(reduced_sets, points):
    residuals = [
        r
        for red in reduced_sets.values()
        for r in check_reduction_identities(red, points[:8]).values()
    ]
    _verdict(8, "reduction-identities", worst(residuals) <= 1e-9)


def test_criterion_9_fd_convergence(reduced_sets):
    red = reduced_sets[(0, 1.0)]
    slope, residuals = convergence_slope(
        red, sample_points(SEED + 3, 5), (1e-2, 5e-3, 2.5e-3)
    )
    _verdict(9, "fd-convergence-order-2", abs(slope - 2.0) <= 0.2 and residuals[-1] > 0)


def test_criterion_10_covariance(reduced_sets, t2):
    pts = sample_points(SEED + 5, 8)
    solution = reduced_sets[(0, 1.0)]
    nonsolution = random_two_yang_mills_set(SEED + 11, t2, 1.0)
    specs = [random_transformation(kind, SEED + 100 + k, t2) for k, kind in enumerate(TRANSFORM_KINDS)]
    on_solution = [r for spec in specs for r in covariance_check(solution, spec, pts).values()]
    on_law = [r for spec in specs for r in covariance_check(nonsolution, spec, pts).values()]
    scale = worst(two_yang_mills_residuals(nonsolution, pts).values())
    ok = worst(on_solution) <= 1e-9 and worst(on_law) <= 1e-9 and scale > 1e-3
    _verdict(10, "covariance-five-kinds", ok)


def test_criterion_11_bilinear_forms(t2, families):
    # Exact antisymmetry in rational mode.
    t2x = fixed_idempotent("t2", exact=True).element
    hx = list(GENERATORS_EXACT)
    ok = True
    for k, indices in ((2, (0, 1)), (3, (0, 1, 2)), (4, (0, 1, 2, 3))):
        base = bilinear_form(t2x, hx, indices)
        for i in range(k - 1):
            swapped = list(indices)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            ok = ok and (base + bilinear_form(t2x, hx, tuple(swapped))).is_zero()
    ok = ok and bilinear_form(t2x, hx, (1, 1)).is_zero()

    # Float suite: Hermiticity, membership, real eigenvalues.
    rng = np.random.default_rng(SEED + 999)
    x = np.array([0.3, 0.1, 0.7, 0.2])
    fam = families[0]
    w = fam.value(x)
    winv = fam.inverse_field().value(x)
    h_vals = [winv * g * w for g in GENERATORS]
    worst_herm = 0.0
    worst_member = 0.0
    worst_imag = 0.0
    for _ in range(6):
        phi = random_element(rng, 0.8) * t2.element
        for indices in [(0,), (1,), (0, 1), (0, 2, 3), (0, 1, 2, 3)]:
            j = bilinear_form(phi, h_vals, indices)
            worst_herm = max(worst_herm, (j.herm_conj() - j).norm())
            worst_member = max(worst_member, ideal_residual(j * 1j, t2, "L"))
            eigs = np.linalg.eigvals(gamma_rep(j))
            worst_imag = max(worst_imag, float(np.max(np.abs(eigs.imag))))
            hermitian_eigenvalues(j)  # must not raise
    ok = ok and worst_herm <= 1e-12 and worst_member <= 1e-9 and worst_imag <= 1e-10
    _verdict(11, "bilinear-forms", ok)


def test_criterion_12_current_bianchi(t2):
    pts = sample_points(SEED + 13, 6)
    basis = subspace_basis("L", t2).basis
    rng = np.random.default_rng(SEED + 14)
    residuals = []
    for trial in range(2):
        a_fields = []
        for mu in range(4):
            shape = PolyShape(
                {
                    (0, 0, 0, 0): rng.uniform(-0.5, 0.5),
                    (1, 0, 0, 0): rng.uniform(-0.5, 0.5),
                    (0, 2, 0, 0): rng.uniform(-0.5, 0.5),
                    (0, 0, 1, 1): rng.uniform(-0.5, 0.5),
                }
            )
            a_fields.append(
                ShapeField(shape, basis[int(rng.integers(0, len(basis)))])
            )
        residuals += bianchi_current_check(tuple(a_fields), pts).values()
    _verdict(12, "current-bianchi-identity", worst(residuals) <= 1e-8)
