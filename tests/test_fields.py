"""Field families, pure-gauge construction, residuals and the reduction."""

from dataclasses import replace

import numpy as np
import pytest

from cl13.algebra import (
    E,
    E0,
    GENERATORS,
    CliffordElement,
)
from cl13.fields import (
    ConstantField,
    FieldFamily,
    ModelFieldSet,
    ShapeField,
    SumField,
    bianchi_current_check,
    build_pure_gauge,
    check_h_identities,
    check_reduction_identities,
    convergence_slope,
    eval_family,
    fd_derivative,
    fd_mode,
    model_residual_components,
    model_residuals,
    random_family,
    random_two_yang_mills_set,
    reduce_to_two_yang_mills,
    sample_points,
    two_yang_mills_residual_components,
    two_yang_mills_residuals,
)
from cl13.rep import gamma_rep
from cl13.shapes import PolyShape, TrigShape, constant_shape, coordinate_shape
from cl13.subspaces import (
    in_sp_algebra,
    sample,
    sp_group_residual,
    subspace_basis,
)

X0 = np.array([0.37, 0.11, 0.62, 0.85])


def test_eval_family_empty():
    fam = FieldFamily(())
    w, dw = eval_family(fam, X0, order=1)
    assert w.equals(E, 0.0)
    assert all(d.is_zero() for d in dw)


def test_eval_family_single_factor_linear_shape():
    v = sample("sp_cl", seed=2, scale=0.5)
    fam = FieldFamily(((v, coordinate_shape(0)),))
    w, dw = eval_family(fam, X0, order=1)
    # One-parameter subgroup: d0 W = v W and the other partials vanish.
    assert (dw[0] - v * w).norm() <= 1e-12
    for mu in (1, 2, 3):
        assert dw[mu].is_zero(1e-15)


def test_eval_family_derivatives_match_fd_oracle():
    fam = random_family(21, n_factors=2)
    w_field = fam.group_field()
    w, dw, d2w = eval_family(fam, X0, order=2)
    for mu in range(4):
        fd = fd_derivative(w_field.value, X0, mu, 1e-4)
        assert (dw[mu] - fd).norm() <= 1e-7
        for nu in range(4):
            fd2 = fd_derivative(w_field.partial(nu).value, X0, mu, 1e-4)
            assert (d2w[mu][nu] - d2w[nu][mu]).norm() <= 1e-12
            assert (d2w[nu][mu] - fd2).norm() <= 1e-7
    assert sp_group_residual(w) <= 1e-12


def test_family_inverse_field():
    fam = random_family(8)
    w = fam.value(X0)
    winv = fam.inverse_field().value(X0)
    assert (w * winv - E).norm() <= 1e-12


def test_family_json_roundtrip():
    fam = random_family(5)
    again = FieldFamily.from_json_obj(fam.to_json_obj())
    assert again.value(X0).equals(fam.value(X0), 1e-12)


def test_fd_derivative_cases():
    const = ConstantField(E0)
    assert fd_derivative(const.value, X0, 2, 1e-3).norm() <= 1e-14
    linear = ShapeField(coordinate_shape(1), E0)
    assert (fd_derivative(linear.value, X0, 1, 1e-3) - E0).norm() <= 1e-10
    with pytest.raises(ValueError):
        fd_derivative(const.value, X0, 0, 0.0)


def test_pure_gauge_empty_family(t2):
    fs = build_pure_gauge(FieldFamily(()), t2, 1.0)
    for mu in range(4):
        assert fs.h[mu].value(X0).equals(GENERATORS[mu], 0.0)
        assert fs.c[mu].value(X0).is_zero()


def test_pure_gauge_h_properties(pure_gauge, points):
    for x in points:
        h_vals = [f.value(x) for f in pure_gauge.h]
        res = check_h_identities(h_vals)
        assert max(res.values()) <= 1e-10
        for mu in range(4):
            assert in_sp_algebra(h_vals[mu] * 1j, 1e-10)
            assert in_sp_algebra(pure_gauge.c[mu].value(x), 1e-10)


def test_h_identities_exact_on_generators():
    res = check_h_identities(list(GENERATORS))
    assert max(res.values()) == 0.0


def test_h_identities_detector():
    # Doubling h^0 puts 8e - 2e on the (0,0) slot: residual exactly 6.
    h_vals = [GENERATORS[0] * 2] + [GENERATORS[k] for k in (1, 2, 3)]
    res = check_h_identities(h_vals)
    assert abs(res["h_clifford"] - 6.0) <= 1e-12


def test_model_residuals_zero_config(t2):
    fs = build_pure_gauge(FieldFamily(()), t2, 0.7)
    rec = model_residuals(fs, sample_points(1, 5))
    assert rec.max_residual == 0.0


def test_model_residuals_pure_gauge(pure_gauge, points):
    rec = model_residuals(pure_gauge, points)
    assert rec.max_residual <= 1e-10
    obj = rec.to_json_obj()
    assert set(obj["equations"]) == {"dirac", "curvature_a", "source_a", "h_transport"}


def test_model_residual_detector(pure_gauge, points):
    # Perturbing C_0 must wake up the transport equation.
    bump = ConstantField(CliffordElement.from_blade("e12", 0.1))
    perturbed = ModelFieldSet(
        mass=pure_gauge.mass,
        t=pure_gauge.t,
        phi=pure_gauge.phi,
        h=pure_gauge.h,
        a=pure_gauge.a,
        f=pure_gauge.f,
        c=(SumField((pure_gauge.c[0], bump)),) + pure_gauge.c[1:],
    )
    rec = model_residuals(perturbed, points[:4])
    assert rec.equations["h_transport"].max_residual >= 0.01


def test_reduce_zero_mass(pure_gauge, points):
    red = reduce_to_two_yang_mills(
        ModelFieldSet(
            mass=0.0,
            t=pure_gauge.t,
            phi=pure_gauge.phi,
            h=pure_gauge.h,
            a=pure_gauge.a,
            f=pure_gauge.f,
            c=pure_gauge.c,
        )
    )
    x = points[0]
    for mu in range(4):
        assert (red.b[mu].value(x) - pure_gauge.c[mu].value(x)).is_zero(1e-15)
        for nu in range(4):
            assert red.g[mu][nu].value(x).is_zero(1e-15)
    rec = two_yang_mills_residuals(red, points[:3])
    assert rec.max_residual <= 1e-10
    assert rec.metadata["source_b_rhs_norm"] == 0.0


def test_reduce_constant_field_oracle(t2):
    # Blade oracle for h = e^mu, C = 0: lowering flips spatial signs, so
    # B_0 = -(m/4) i e0 and B_1 = +(m/4) i e1, while
    # G_01 = -(m/4)^2 [i e0, -i e1] = -(m/4)^2 [e0, e1] = -(m^2/8) e01.
    m = 2.0
    fs = build_pure_gauge(FieldFamily(()), t2, m)
    red = reduce_to_two_yang_mills(fs)
    x = X0
    b0 = red.b[0].value(x)
    assert b0.equals(GENERATORS[0] * (-m / 4 * 1j), 1e-15)
    b1 = red.b[1].value(x)
    assert b1.equals(GENERATORS[1] * (m / 4 * 1j), 1e-15)
    g01 = red.g[0][1].value(x)
    expected = CliffordElement.from_blade("e01", -(m**2) / 8.0)
    assert g01.equals(expected, 1e-15)
    assert g01.equals(red.g[1][0].value(x) * -1, 0.0)


def test_constant_field_source_equation_balances(t2):
    # At m = 1 both sides of the sourced equation equal (3/16) i e^nu.
    fs = build_pure_gauge(FieldFamily(()), t2, 1.0)
    red = reduce_to_two_yang_mills(fs)
    pts = sample_points(2, 3)
    rec = two_yang_mills_residuals(red, pts)
    assert rec.equations["source_b"].max_residual <= 1e-14
    assert abs(rec.metadata["source_b_rhs_norm"] - 0.1875) <= 1e-15


def test_reduction_theorem_across_masses(family, t2, points):
    for m in (0.5, 1.0, 2.0):
        red = reduce_to_two_yang_mills(build_pure_gauge(family, t2, m))
        rec = two_yang_mills_residuals(red, points)
        assert rec.max_residual <= 1e-9
        expected_rhs = 3.0 / 16.0 * abs(m) ** 3
        x0 = points[0]
        h_norm = max((red.h[nu].value(x0) * 1j).norm() for nu in range(4))
        assert abs(rec.metadata["source_b_rhs_norm"] - expected_rhs * h_norm) <= 1e-9
        ids = check_reduction_identities(red, points)
        assert ids.max_residual <= 1e-9


def test_reduced_set_memberships(reduced, points):
    for x in points:
        for mu in range(4):
            assert in_sp_algebra(reduced.b[mu].value(x), 1e-9)
            for nu in range(4):
                g = reduced.g[mu][nu].value(x)
                assert in_sp_algebra(g, 1e-9)
                assert (g + reduced.g[nu][mu].value(x)).is_zero(1e-12)


def test_reduction_identities_constant_case(t2):
    red = reduce_to_two_yang_mills(build_pure_gauge(FieldFamily(()), t2, 1.3))
    rec = check_reduction_identities(red, sample_points(4, 3))
    assert rec.max_residual <= 1e-14


def test_fd_mode_residuals_scale_quadratically(reduced):
    pts = sample_points(9, 3)
    slope, residuals = convergence_slope(reduced, pts, (1e-2, 5e-3, 2.5e-3))
    assert residuals[0] > residuals[-1] > 0
    assert abs(slope - 2.0) <= 0.2


def test_fd_richardson_beats_plain_central(reduced):
    pts = sample_points(9, 2)
    plain = two_yang_mills_residuals(reduced, pts, fd_mode(1e-3, richardson=False))
    rich = two_yang_mills_residuals(reduced, pts, fd_mode(1e-3, richardson=True))
    assert rich.max_residual < plain.max_residual


def test_bianchi_current_check_cases(t2):
    pts = sample_points(14, 4)
    zero = (ConstantField(CliffordElement.zero()),) * 4
    rec = bianchi_current_check(zero, pts)
    assert rec.max_residual == 0.0

    basis = subspace_basis("L", t2).basis
    const = tuple(ConstantField(basis[j % len(basis)] * 0.6) for j in range(4))
    rec = bianchi_current_check(const, pts)
    assert rec.max_residual <= 1e-12

    rng = np.random.default_rng(6)
    poly_fields = []
    for mu in range(4):
        shape = PolyShape(
            {
                (0, 0, 0, 0): rng.uniform(-0.5, 0.5),
                (1, 0, 0, 0): rng.uniform(-0.5, 0.5),
                (0, 0, 2, 0): rng.uniform(-0.5, 0.5),
                (0, 1, 0, 1): rng.uniform(-0.5, 0.5),
            }
        )
        poly_fields.append(ShapeField(shape, basis[int(rng.integers(0, len(basis)))]))
    rec = bianchi_current_check(tuple(poly_fields), pts)
    assert rec.max_residual <= 1e-8


def test_random_nonsolution_has_order_one_residuals(t2):
    fs = random_two_yang_mills_set(31, t2, 1.0)
    pts = sample_points(3, 4)
    rec = two_yang_mills_residuals(fs, pts)
    assert rec.max_residual > 1e-2


def test_each_two_yang_mills_equation_detects_a_nonsolution(t2):
    # A shared operator that zeroed one equation would hide behind the
    # others in the maximum, so every equation is checked on its own.
    fs = random_two_yang_mills_set(31, t2, 1.0)
    rec = two_yang_mills_residuals(fs, sample_points(3, 4))
    assert set(rec.equations) == {
        "dirac", "curvature_a", "source_a", "curvature_b", "source_b"
    }
    for eq, res in rec.equations.items():
        assert res.max_residual > 1e-2, eq


def test_each_reduction_identity_detects_a_bumped_potential(reduced, points):
    bump = ConstantField(CliffordElement.from_blade("e12", 0.1))
    bumped = replace(reduced, b=(SumField((reduced.b[0], bump)),) + reduced.b[1:])
    rec = check_reduction_identities(bumped, points[:4])
    assert set(rec.equations) == {
        "h_b_transport", "b_curvature_consistency", "h_conservation"
    }
    for eq, res in rec.equations.items():
        assert res.max_residual > 1e-2, eq


def test_trig_family_reduction(t2):
    gen = sample("sp_cl", seed=77, scale=0.5)
    fam = FieldFamily(
        (
            (gen, TrigShape("cos", 0.6, (0.5, -0.3, 0.8, 0.2), 0.4)),
            (sample("sp_cl", seed=78, scale=0.4), constant_shape(0.9)),
        )
    )
    red = reduce_to_two_yang_mills(build_pure_gauge(fam, t2, 1.5))
    rec = two_yang_mills_residuals(red, sample_points(15, 6))
    assert rec.max_residual <= 1e-9


def test_pure_gauge_rejects_non_symplectic_generator(t2):
    bad = FieldFamily(((E0, constant_shape(1.0)),))  # e0 is not i*grade1
    with pytest.raises(ValueError):
        build_pure_gauge(bad, t2, 1.0)


def test_model_components_shape(pure_gauge, points):
    comps = model_residual_components(pure_gauge, points[0])
    assert set(comps) == {"dirac", "curvature_a", "source_a", "h_transport"}
    assert len(comps["h_transport"]) == 16
    assert len(comps["curvature_a"]) == 6


def test_point_set_values_equal_stacked_point_values(family, reduced, t2, points):
    # Oracle: the same trees evaluated one point at a time.
    for f in (family.group_field(), reduced.g[0][1].partial(2)):
        stacked = np.stack([gamma_rep(f.value(x)) for x in points])
        assert np.max(np.abs(gamma_rep(f.value(points)) - stacked)) <= 1e-12
    fs = random_two_yang_mills_set(31, t2, 1.0)
    batch = two_yang_mills_residual_components(fs, points)
    for i, x in enumerate(points):
        for eq, comps in two_yang_mills_residual_components(fs, x).items():
            for idx, r in comps.items():
                got = np.broadcast_to(gamma_rep(batch[eq][idx]), (len(points), 4, 4))[i]
                assert np.max(np.abs(got - gamma_rep(r))) <= 1e-12


def test_at_point_is_the_per_point_argmax(t2):
    fs = random_two_yang_mills_set(31, t2, 1.0)
    pts = sample_points(3, 6)
    rec = two_yang_mills_residuals(fs, pts)
    for eq, res in rec.equations.items():
        per_point = [
            max(r.norm() for r in two_yang_mills_residual_components(fs, x)[eq].values())
            for x in pts
        ]
        assert res.at_point == tuple(pts[int(np.argmax(per_point))])
        assert abs(res.max_residual - max(per_point)) <= 1e-12 * max(per_point)
