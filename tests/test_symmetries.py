"""Transformations, covariance laws and bilinear covariants."""

import numpy as np
import pytest

from cl13.algebra import (
    E,
    E0,
    GENERATORS,
    J,
    CliffordElement,
    random_element,
)
from cl13.fields import (
    ZERO_FIELD,
    FieldFamily,
    ProductField,
    PointSet,
    bianchi_current_check,
    build_pure_gauge,
    current_vector,
    random_family,
    random_two_yang_mills_set,
    reduce_to_two_yang_mills,
    sample_points,
    two_yang_mills_residuals,
    worst,
)
from cl13.rep import gamma_rep, hermitian_eigenvalues, inverse
from cl13.shapes import constant_shape
from cl13.subspaces import (
    MEMBERSHIP_TOL,
    fixed_idempotent,
    hermitian_idempotent_residuals,
    ideal_residual,
    sample,
    sp_group_residual,
)
from cl13.symmetries import (
    TRANSFORM_KINDS,
    TransformationSpec,
    antisymmetrized_product,
    apply_transformation,
    bilinear_form,
    covariance_check,
    random_transformation,
)

PTS = sample_points(23, 4)


def test_spec_validation():
    with pytest.raises(ValueError):
        TransformationSpec("gauge_unitary")  # payload required
    with pytest.raises(ValueError):
        TransformationSpec("conjugation", random_family(1))
    with pytest.raises(ValueError):
        TransformationSpec("rotation")


def test_payload_membership(t2):
    def payload(kind):
        return random_transformation(kind, 51, t2).family.w.value(PTS)

    u = payload("global_unitary")
    assert np.max((u.herm_conj() * u - E).norm()) <= 1e-9
    assert np.max(ideal_residual(payload("gauge_unitary"), t2, "G")) <= 1e-9
    assert np.max(sp_group_residual(payload("gauge_symplectic"))) <= 1e-9


def test_identity_gauge_transformation_is_identity(reduced, points):
    spec = TransformationSpec(
        "gauge_unitary",
        FieldFamily(((CliffordElement.zero(), constant_shape(1.0)),)),
    )
    out = apply_transformation(reduced, spec)
    x = points[0]
    assert (out.phi.value(x) - reduced.phi.value(x)).is_zero(1e-12)
    for mu in range(4):
        assert (out.a[mu].value(x) - reduced.a[mu].value(x)).is_zero(1e-12)
        assert (out.b[mu].value(x) - reduced.b[mu].value(x)).is_zero(1e-12)


def test_discrete_j_applied_twice():
    # h -> -conj(h) twice restores h when h is real-coefficient.
    fs = random_two_yang_mills_set(41, fixed_idempotent("t2"), 1.0)
    spec = TransformationSpec("discrete_J")
    twice = apply_transformation(apply_transformation(fs, spec), spec)
    x = PTS[0]
    for mu in range(4):
        h0 = fs.h[mu].value(x)
        h2 = twice.h[mu].value(x)
        assert (h2 - h0.conj().conj()).is_zero(1e-12)
    # phi -> conj(conj(phi) J) J = phi J-bar J = -phi (J^2 = -e, J real):
    phi0 = fs.phi.value(x)
    phi2 = twice.phi.value(x)
    assert (phi2 - phi0 * (J * J)).is_zero(1e-12)


def test_constant_symplectic_conjugation_preserves_h_relations(reduced, points):
    # Conjugating the h frame by a constant W keeps its defining relations.
    from cl13.fields import check_h_identities
    from cl13.rep import inverse

    w = sample("Sp_cl", seed=19, scale=0.5)
    winv = inverse(w)
    x = points[0]
    h_vals = winv * reduced.h.value(x) * w
    assert max(check_h_identities(h_vals).values()) <= 1e-10


def test_covariance_on_solution(reduced, points, t2):
    specs = [random_transformation(kind, 100 + k, t2) for k, kind in enumerate(TRANSFORM_KINDS)]
    _, mismatches = covariance_check(reduced, specs, points[:4])
    for spec, mismatch in zip(specs, mismatches, strict=True):
        assert worst(mismatch.values()) <= 1e-9, spec.kind
        # Transformed solutions stay solutions.
        transformed = apply_transformation(reduced, spec)
        after = two_yang_mills_residuals(transformed, points[:4])
        assert worst(after.values()) <= 1e-9, spec.kind


def test_covariance_residual_law_on_nonsolutions(t2):
    fs = random_two_yang_mills_set(71, t2, 1.0)
    specs = [random_transformation(kind, 200 + k, t2) for k, kind in enumerate(TRANSFORM_KINDS)]
    residuals, mismatches = covariance_check(fs, specs, PTS[:3])
    assert worst(residuals.values()) > 1e-2
    for spec, mismatch in zip(specs, mismatches, strict=True):
        assert worst(mismatch.values()) <= 1e-9, spec.kind


def test_covariance_check_returns_the_residuals_of_its_field_set(reduced, t2):
    # The untransformed roots' peaks, bit for bit as two_yang_mills_residuals
    # gives them, on a non-solution and on a solution.
    specs = [random_transformation(kind, 100 + k, t2) for k, kind in enumerate(TRANSFORM_KINDS)]
    for fs in (random_two_yang_mills_set(71, t2, 1.0), reduced):
        residuals, _ = covariance_check(fs, specs, PTS)
        expected = two_yang_mills_residuals(fs, PTS)
        assert list(residuals) == list(expected)
        for eq, per_point in expected.items():
            assert np.array_equal(residuals[eq], per_point), eq


def _current_laws(fs, x) -> dict:
    """Both current laws at the points x: the current itself, which
    vanishes where phi = 0, and the conservation of the current induced by A."""
    pts = PointSet(x)
    current = current_vector(fs.phi, fs.h).value(pts)
    return {
        "current": np.broadcast_to(current.norm(), (4,) + pts.x.shape[:-1]).max(axis=0),
        **bianchi_current_check(fs.a, pts),
    }


def test_covariance_and_current_arrays_hold_each_point_alone(t2):
    # Bit for bit against one point at a time, over 24 points of a trig family.
    specs = [random_transformation(kind, 100 + k, t2) for k, kind in enumerate(TRANSFORM_KINDS)]
    solution = reduce_to_two_yang_mills(build_pure_gauge(random_family(3), t2, 1.0))
    nonsolution = random_two_yang_mills_set(31, t2, 1.0)
    pts = sample_points(3, 24)
    for fs in (solution, nonsolution):
        residuals, stacked = covariance_check(fs, specs, pts)
        stacked += [residuals, _current_laws(fs, pts)]
        for i, x in enumerate(pts):
            residuals, alone = covariance_check(fs, specs, x)
            alone += [residuals, _current_laws(fs, x)]
            for whole, one in zip(stacked, alone):
                for eq, per_point in whole.items():
                    assert per_point[i] == one[eq], (eq, i)


def test_gauge_composition(reduced, points, t2):
    u1 = random_transformation("gauge_unitary", 300, t2)
    u2 = random_transformation("gauge_unitary", 301, t2)
    once = apply_transformation(apply_transformation(reduced, u1), u2)
    combined = apply_transformation(
        reduced,
        TransformationSpec("gauge_unitary", FieldFamily(u1.family.factors + u2.family.factors)),
    )
    for x in points[:3]:
        assert (once.phi.value(x) - combined.phi.value(x)).norm() <= 1e-10
        for mu in range(4):
            assert (once.a[mu].value(x) - combined.a[mu].value(x)).norm() <= 1e-10


def test_the_j_twist_gauge_action_has_no_derivative_term(reduced, t2):
    # d_mu J is ZERO_FIELD, so U^{-1} d_mu U folds away: on the pure-gauge A = 0
    # the twisted potential is ZERO_FIELD, elsewhere the one product J^{-1} conj(A) J.
    spec = TransformationSpec("discrete_J")
    assert apply_transformation(reduced, spec).a is ZERO_FIELD
    twisted = apply_transformation(random_two_yang_mills_set(41, t2, 1.0), spec).a
    assert isinstance(twisted, ProductField) and isinstance(twisted.left, ProductField)


def test_discrete_j_is_conjugation_then_the_constant_unitary_j():
    # exp((pi/2) J) = J since J^2 = -e, so the global unitary of that family
    # is the constant J up to rounding.
    fs = random_two_yang_mills_set(41, fixed_idempotent("t1"), 1.0)
    j_family = FieldFamily(((J * (np.pi / 2), constant_shape(1.0)),))
    assert (j_family.w.value(PTS[0]) - J).norm() <= 1e-15
    twisted = apply_transformation(fs, TransformationSpec("discrete_J"))
    conj = apply_transformation(fs, TransformationSpec("conjugation"))
    composed = apply_transformation(conj, TransformationSpec("global_unitary", j_family))
    pairs = [(twisted.phi, composed.phi), (twisted.a, composed.a), (twisted.f, composed.f)]
    pairs += [(twisted.h, conj.h), (twisted.b, conj.b)]
    for f, g in pairs:
        assert np.max((f.value(PTS) - g.value(PTS)).norm()) <= 1e-12
    # J^{-1} conj(t) J = t: the twist restores the idempotent.
    assert np.array_equal(gamma_rep(twisted.t), gamma_rep(fs.t))


def test_the_t_laws_move_the_plain_idempotent(t2):
    fs = random_two_yang_mills_set(41, t2, 1.0)
    conj = apply_transformation(fs, TransformationSpec("conjugation"))
    assert np.array_equal(gamma_rep(conj.t), gamma_rep(t2.conj()))
    # A constant U moves t to U0^{-1} t U0, with U0 read at the origin.
    spec = random_transformation("global_unitary", 100, t2)
    u0 = spec.family.w.value((0, 0, 0, 0))
    moved = apply_transformation(fs, spec).t
    assert np.array_equal(gamma_rep(moved), gamma_rep(inverse(u0) * t2 * u0))
    residuals = hermitian_idempotent_residuals(moved)
    assert max(residuals["hermitian"], residuals["idempotent"]) <= MEMBERSHIP_TOL
    # U(x) in G(t) commutes with t, so a gauge unitary keeps it.
    gauged = apply_transformation(fs, random_transformation("gauge_unitary", 100, t2))
    assert gauged.t is t2


ADMISSIBLE = [fixed_idempotent(label) for label in ("t1", "t2", "t3", "t4")] + [(E - E0) * 0.5]


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
def test_every_transformation_maps_an_admissible_t_to_an_admissible_t(kind):
    # t' is a Hermitian idempotent with conj(t') J = J t', and phi' stays in
    # its ideal: phi' t' = phi'.  A global unitary keeps the J condition only
    # because its exponent g satisfies g = J^{-1} conj(g) J.
    for t in ADMISSIBLE:
        fs = random_two_yang_mills_set(41, t, 1.0)
        for seed in range(100, 104):
            moved = apply_transformation(fs, random_transformation(kind, seed, t))
            residuals = hermitian_idempotent_residuals(moved.t)
            assert max(residuals.values()) <= 1e-15, (kind, seed, residuals)
            assert not moved.t.is_zero(MEMBERSHIP_TOL)
            phi = moved.phi.value(PTS)
            assert np.max((phi * moved.t - phi).norm()) <= 1e-14 * np.max(phi.norm())


def test_a_global_unitary_exponent_commutes_with_the_j_twist():
    for seed in range(100, 140):
        spec = random_transformation("global_unitary", seed, fixed_idempotent("t2"))
        g = spec.family.factors[0][0]
        assert (g + g.herm_conj()).is_zero()
        assert np.array_equal(gamma_rep(J * -1 * g.conj() * J), gamma_rep(g))


# -- bilinear forms ---------------------------------------------------------------


def test_bilinear_form_zero_phi():
    zero = CliffordElement.zero()
    assert bilinear_form(zero, list(GENERATORS), (0, 1)).is_zero()


def test_bilinear_form_rank1_matches_idempotent(t2):
    # J^0 = phi^dag beta e^0 phi = t2 for phi = t2 (beta e^0 = e).
    j0 = bilinear_form(t2, list(GENERATORS), (0,))
    assert j0.equals(t2, 1e-14)
    assert np.allclose(hermitian_eigenvalues(j0), [0, 0, 1, 1], atol=1e-12)


def test_bilinear_form_exact_antisymmetry():
    t2x = fixed_idempotent("t2").lift()
    h = [g.lift() for g in GENERATORS]
    for k, indices in ((2, (0, 1)), (3, (0, 1, 2)), (4, (0, 1, 2, 3))):
        base = bilinear_form(t2x, h, indices)
        for i in range(k - 1):
            swapped = list(indices)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            other = bilinear_form(t2x, h, tuple(swapped))
            assert (base + other).is_zero()
    assert bilinear_form(t2x, h, (0, 0)).is_zero()
    assert bilinear_form(t2x, h, (3, 3, 1)).is_zero()
    with pytest.raises(ValueError):
        bilinear_form(t2x, h, ())


def test_antisymmetrized_product_normalization():
    h = [g.lift() for g in GENERATORS]
    # Distinct anticommuting generators: h^{[0} h^{1]} = e0 e1 exactly.
    prod = antisymmetrized_product(h, (0, 1))
    expected = h[0] * h[1]
    assert (prod - expected).is_zero()


def test_bilinear_form_hermitian_and_in_l(rng, t2, family):
    x = np.array([0.2, 0.8, 0.4, 0.6])
    w = family.w.value(x)
    winv = family.winv.value(x)
    h_vals = [winv * g * w for g in GENERATORS]
    for _ in range(5):
        phi = random_element(rng, 0.8) * t2
        for indices in [(0,), (2,), (0, 1), (1, 2, 3), (0, 1, 2, 3)]:
            j = bilinear_form(phi, h_vals, indices)
            assert isinstance(j, CliffordElement) and not j.exact
            assert (j.herm_conj() - j).norm() <= 1e-12
            assert ideal_residual(j * 1j, t2, "L") <= 1e-9
            eigs = hermitian_eigenvalues(j)
            assert np.all(np.isfinite(eigs))
            oracle = np.sort(np.linalg.eigvalsh(gamma_rep(j)))
            assert np.allclose(eigs, oracle, atol=1e-10)


# -- current conservation ----------------------------------------------------------


def test_current_conservation_trivial_for_zero_phi(reduced, points):
    # A pure-gauge solution has phi = 0, so its current vanishes outright.
    x = PointSet(points[:4])
    current = current_vector(reduced.phi, reduced.h).value(x)
    assert worst([current.norm()]) == 0.0


def test_current_conservation_nontrivial(t2):
    # On a non-solution the current induced by A is still conserved.
    fs = random_two_yang_mills_set(55, t2, 1.0)
    rec = bianchi_current_check(fs.a, PTS[:3])
    assert np.max(rec["current_conservation"]) <= 1e-8
