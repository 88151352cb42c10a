"""Field families, pure-gauge construction, residuals and the reduction."""

import gc
import operator
from collections import Counter
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from cl13.algebra import (
    E,
    E0,
    GENERATORS,
    METRIC_DIAG,
    CliffordElement,
    commutator,
    random_element,
    stack,
)
from cl13.fields import (
    ZERO_FIELD,
    BracketField,
    CliffordField,
    ConstantField,
    DifferenceField,
    ExpField,
    FieldFamily,
    MappedField,
    ModelFieldSet,
    PointSet,
    ProductField,
    ShapeField,
    StackField,
    SumField,
    TwoYangMillsFieldSet,
    batch,
    bianchi_current_check,
    build_pure_gauge,
    check_h_identities,
    check_reduction_identities,
    convergence_slope,
    fd_derivative,
    model_residual_components,
    model_residuals,
    random_family,
    random_two_yang_mills_set,
    reduce_to_two_yang_mills,
    reductions,
    sample_points,
    source_norm,
    two_yang_mills_equations,
    two_yang_mills_residual_components,
    two_yang_mills_residuals,
    worst,
)
from cl13.rep import gamma_rep
from cl13.shapes import PolyShape, TrigShape, constant_shape
from cl13.subspaces import (
    fixed_idempotent,
    sample,
    sp_algebra_residual,
    sp_group_residual,
    subspace_basis,
)

X0 = np.array([0.37, 0.11, 0.62, 0.85])


def test_eval_family_empty():
    w_field = FieldFamily(()).w
    assert w_field.value(X0).equals(E, 0.0)
    assert all(w_field.partial(mu).value(X0).is_zero() for mu in range(4))


def test_eval_family_single_factor_linear_shape():
    v = sample("sp_cl", seed=2, scale=0.5)
    w_field = FieldFamily(((v, PolyShape({(1, 0, 0, 0): 1.0})),)).w
    w = w_field.value(X0)
    dw = [w_field.partial(mu).value(X0) for mu in range(4)]
    # One-parameter subgroup: d0 W = v W and the other partials vanish.
    assert (dw[0] - v * w).norm() <= 1e-12
    for mu in (1, 2, 3):
        assert dw[mu].is_zero(1e-15)


def test_eval_family_derivatives_match_fd_oracle():
    fam = random_family(21, n_factors=2)
    w_field = fam.w
    w = w_field.value(X0)
    dw = [w_field.partial(mu).value(X0) for mu in range(4)]
    d2w = [[w_field.partial(mu).partial(nu).value(X0) for nu in range(4)] for mu in range(4)]
    pts = PointSet(X0, 1e-4)
    for mu in range(4):
        fd = fd_derivative(w_field.value, pts, mu)
        assert (dw[mu] - fd).norm() <= 1e-7
        for nu in range(4):
            fd2 = fd_derivative(w_field.partial(nu).value, pts, mu)
            assert (d2w[mu][nu] - d2w[nu][mu]).norm() <= 1e-12
            assert (d2w[nu][mu] - fd2).norm() <= 1e-7
    assert sp_group_residual(w) <= 1e-12


def test_family_inverse_field():
    fam = random_family(8)
    w = fam.w.value(X0)
    winv = fam.winv.value(X0)
    assert (w * winv - E).norm() <= 1e-12


def test_family_json_roundtrip():
    fam = random_family(5)
    again = FieldFamily.from_json_obj(fam.to_json_obj())
    assert again.w.value(X0).equals(fam.w.value(X0), 1e-12)


def test_fd_derivative_cases():
    pts = PointSet(X0, 1e-3)
    assert fd_derivative(ConstantField(E0).value, pts, 2).norm() <= 1e-14
    linear = ShapeField(PolyShape({(0, 1, 0, 0): 1.0}), E0)
    assert (fd_derivative(linear.value, pts, 1) - E0).norm() <= 1e-10


def _shifted(x, mu, h):
    """A pass over the points x moved by h along axis mu."""
    moved = np.array(x, dtype=float)
    moved[..., mu] += h
    return PointSet(moved)


@pytest.mark.parametrize("where", ["one point", "eight points"])
def test_fd_derivative_equals_the_two_shift_formula(where):
    # Oracle: the central difference written out with two separately
    # shifted passes, bit for bit; one stencil evaluation serves all axes.
    x = X0 if where == "one point" else sample_points(6, 8)
    fields = (
        random_family(21).w,
        ShapeField(PolyShape({(0, 1, 0, 0): 1.0}), E0),
        ConstantField(E0),  # its value is one 4x4 matrix on any points
    )
    for f in fields:
        for step in (1e-3, 0.25):
            for mu in range(4):
                want = (f.value(_shifted(x, mu, step)) - f.value(_shifted(x, mu, -step))) * (
                    0.5 / step
                )
                got = fd_derivative(f.value, PointSet(x, step), mu)
                assert np.array_equal(gamma_rep(got), gamma_rep(want)), (f, step, mu)


@pytest.mark.parametrize("step", [float("inf"), -float("inf"), float("nan")])
def test_a_step_that_is_not_finite_raises(step):
    with pytest.raises(ValueError):
        PointSet(X0, fd_step=step)


def test_pure_gauge_empty_family(t2):
    fs = build_pure_gauge(FieldFamily(()), t2, 1.0)
    for mu in range(4):
        assert fs.h[mu].value(X0).equals(GENERATORS[mu], 0.0)
        assert fs.c[mu].value(X0).is_zero()


def test_a_known_zero_folds_where_it_is_built(family, t2):
    w = family.w
    zero_rows = StackField((ZERO_FIELD,) * 4)
    folded = [
        ProductField(ZERO_FIELD, w),
        ProductField(w, ZERO_FIELD),
        BracketField(ZERO_FIELD, w),
        BracketField(w, ZERO_FIELD),
        MappedField(ZERO_FIELD, operator.methodcaller("conj")),
        ZERO_FIELD[1],
        DifferenceField(ZERO_FIELD, 2),
        SumField(((1, ZERO_FIELD), (-2.5j, ZERO_FIELD))),
        ZERO_FIELD - ZERO_FIELD,
        zero_rows,
        StackField((zero_rows,) * 4),
        ConstantField(E).partial(0),
        StackField(ConstantField(E) for _ in range(4)).partial(3),
        ShapeField(constant_shape(2.0).deriv(1), E),
        ShapeField(TrigShape("sin", 0.5, (1.0, 0.0, 2.0, 0.0)), E).partial(1),
        ExpField(E0, constant_shape(0.3)).partial(2),
    ]
    assert all(f is ZERO_FIELD for f in folded)
    # A sum keeps its other terms, and one term of weight 1 is that term.
    assert SumField(((1, ZERO_FIELD), (0.5, w))).terms == ((0.5, w),)
    assert SumField(((1, w), (-1, ZERO_FIELD))) is w
    # A term of weight 0 is dropped as a ZERO_FIELD term is.
    assert SumField(((0.0, w),)) is ZERO_FIELD
    assert SumField(((1, w), (0, family.winv))) is w
    fs = build_pure_gauge(family, t2, 1.0)
    assert fs.phi is ZERO_FIELD and fs.a is ZERO_FIELD and fs.f is ZERO_FIELD


def test_a_nan_in_h_still_reaches_a_residual_when_phi_is_zero(reduced, points):
    # phi = ZERO_FIELD folds the Dirac equation and the current away, so
    # neither reads h; the sourced equation of B still does.
    weights = np.ones(len(points))
    weights[2] = np.nan
    nan_h = MappedField(reduced.h, lambda u: u * weights)
    rec = two_yang_mills_residuals(replace(reduced, h=nan_h), points)
    assert np.isnan(worst(rec.values()))
    assert np.isnan(rec["source_b"][2]) and not np.isnan(rec["source_b"][[0, 1, 3]]).any()


def test_pure_gauge_h_properties(pure_gauge, points):
    for x in points:
        h_vals = pure_gauge.h.value(x)
        res = check_h_identities(h_vals)
        assert max(res.values()) <= 1e-10
        for mu in range(4):
            assert sp_algebra_residual(h_vals[mu] * 1j) <= 1e-10
            assert sp_algebra_residual(pure_gauge.c[mu].value(x)) <= 1e-10


def test_h_identities_exact_on_generators():
    res = check_h_identities(stack(GENERATORS))
    assert max(res.values()) == 0.0


def test_h_identities_detector():
    # Doubling h^0 puts 8e - 2e on the (0,0) slot: residual exactly 6.
    h_vals = stack([GENERATORS[0] * 2] + [GENERATORS[k] for k in (1, 2, 3)])
    res = check_h_identities(h_vals)
    assert abs(res["h_clifford"] - 6.0) <= 1e-12


def test_model_residuals_zero_config(t2):
    fs = build_pure_gauge(FieldFamily(()), t2, 0.7)
    rec = model_residuals(fs, sample_points(1, 5))
    assert worst(rec.values()) == 0.0


def test_model_residuals_pure_gauge(pure_gauge, points):
    rec = model_residuals(pure_gauge, points)
    assert worst(rec.values()) <= 1e-10
    assert set(rec) == {"dirac", "curvature_a", "source_a", "h_transport"}


def test_model_residual_detector(pure_gauge, points):
    # Perturbing C_0 must wake up the transport equation.
    bump = ConstantField(stack([CliffordElement.from_blade("e12", 0.1)] + [E * 0] * 3))
    perturbed = ModelFieldSet(
        mass=pure_gauge.mass,
        t=pure_gauge.t,
        phi=pure_gauge.phi,
        h=pure_gauge.h,
        a=pure_gauge.a,
        f=pure_gauge.f,
        c=pure_gauge.c + bump,
    )
    rec = model_residuals(perturbed, points[:4])
    assert np.max(rec["h_transport"]) >= 0.01


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
    # The zero weights fold: B stacks C's own rows, and G and the sourced
    # equation of B, both sides zero, are ZERO_FIELD.
    assert all(red.b[mu] is pure_gauge.c[mu] for mu in range(4))
    assert red.g is ZERO_FIELD
    assert dict(two_yang_mills_equations(red, PointSet(points[:3])))["source_b"] is ZERO_FIELD
    rec = two_yang_mills_residuals(red, points[:3])
    assert worst(rec.values()) <= 1e-10
    assert np.all(source_norm(red, points[:3]) == 0.0)


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
    assert np.max(rec["source_b"]) <= 1e-14
    norms = source_norm(red, pts)
    assert norms.shape == (3,)
    assert np.max(np.abs(norms - 0.1875)) <= 1e-15


def test_reduction_theorem_across_masses(family, t2, points):
    for m in (0.5, 1.0, 2.0):
        red = reduce_to_two_yang_mills(build_pure_gauge(family, t2, m))
        assert worst(two_yang_mills_residuals(red, points).values()) <= 1e-9
        expected_rhs = 3.0 / 16.0 * abs(m) ** 3
        for i, x in enumerate(points):
            h_norm = max((red.h[nu].value(x) * 1j).norm() for nu in range(4))
            assert abs(source_norm(red, points)[i] - expected_rhs * h_norm) <= 1e-9
        assert worst(check_reduction_identities(red, points).values()) <= 1e-9


@pytest.mark.parametrize("label", ["t1", "t2", "t3", "t4"])
def test_the_reduction_turns_the_b_term_into_the_mass_term_off_shell(label):
    # For any phi, A and F over a pure-gauge (h, C), B = C - (m/4) i h_mu
    # turns -B_mu phi into the mass term, since h^mu h_mu = 4e:
    # dirac_2YM(reduce(fs)) - dirac_model(fs) = (m/4)(4e - h^mu h_mu) phi = 0.
    t = fixed_idempotent(label)
    off_shell = random_two_yang_mills_set(5, t, 1.0)
    for seed in (3, 8, 48):
        pts = PointSet(sample_points(seed, 20))
        base = build_pure_gauge(random_family(seed), t, 0.0)
        for mass in (0.0, -1.5, 0.5, 2.0):
            fs = replace(base, mass=mass, phi=off_shell.phi, a=off_shell.a, f=off_shell.f)
            model = model_residual_components(fs, pts)["dirac"]
            reduced = two_yang_mills_residual_components(reduce_to_two_yang_mills(fs), pts)
            peak = np.max(model.norm())
            assert peak > 1.0
            assert np.max((reduced["dirac"] - model).norm()) <= 1e-13 * peak, (seed, mass)


def _plane_wave(psi: CliffordElement, k) -> CliffordField:
    """psi e^{-i k.x}, with k.x = sum_mu x^mu k_mu, so d_mu of it is -i k_mu times it."""
    return ShapeField(TrigShape("cos", 1.0, k), psi) + ShapeField(TrigShape("sin", 1.0, k), psi * -1j)


@pytest.mark.parametrize("label", ["t1", "t2", "t3", "t4"])
def test_the_reduced_dirac_equation_is_the_mass_shell_of_a_plane_wave(label):
    # For phi = W^-1 (kslash + m e) chi t e^{-i k.x} over a pure-gauge (h, C),
    # with kslash = k_mu e^mu: d_mu phi - C_mu phi = W^-1 d_mu(...), so both
    # Dirac residuals are W^-1 (kslash - m)(kslash + m) chi t e^{-i k.x}
    # = (k^2 - m^2) W^-1 chi t e^{-i k.x}, zero exactly on the mass shell.
    t = fixed_idempotent(label)
    rng = np.random.default_rng(26)
    pts = PointSet(sample_points(7, 20))
    for family in (FieldFamily(()), random_family(3), random_family(8), random_family(48)):
        for m in (0.5, 2.0, -1.5, 0.0):
            k_s = rng.uniform(-2.0, 2.0, 3)
            chi_t = random_element(rng) * t
            on_shell = np.sqrt(k_s @ k_s + m**2)
            for k0 in (on_shell, 1.1 * on_shell):
                k = (k0, *k_s)
                kslash = reduce(operator.add, (g * k_mu for g, k_mu in zip(GENERATORS, k)))
                phi = ProductField(family.winv, _plane_wave((kslash + E * m) * chi_t, k))
                fs = replace(build_pure_gauge(family, t, m), phi=phi)
                law = ProductField(family.winv, _plane_wave(chi_t, k)).value(pts)
                law = law * (k0**2 - k_s @ k_s - m**2)
                phi_val = phi.value(pts)
                scale = np.max(phi_val.norm()) * (abs(m) + np.sum(np.abs(k)))
                assert np.max((phi_val * t - phi_val).norm()) <= 1e-13 * scale
                reduced = next(reductions(fs, (m,)))
                for dirac in (
                    model_residual_components(fs, pts)["dirac"],
                    two_yang_mills_residual_components(reduced, pts)["dirac"],
                ):
                    assert np.max((dirac - law).norm()) <= 1e-13 * scale, (m, k0)
                    if k0 != on_shell:
                        assert np.max(dirac.norm()) >= 1e-2 * scale, (m, k0)


@pytest.mark.parametrize("label", ["t1", "t2", "t3", "t4"])
def test_the_reduced_b_pair_follows_the_transport_residual_off_shell(label):
    # For a pure-gauge h (so h obeys the Clifford relations), any potential C,
    # k = m/4 and R[mu, nu] = d_mu h^nu - [C_mu, h^nu] (``h_transport``), the
    # reduction B = C - k i h_mu, G = -k^2 [i h_mu, i h_nu] leaves
    #   curvature_b[mu nu] = curv(C)_{mu nu} - k i (eta^{nu nu} R[mu, nu] - eta^{mu mu} R[nu, mu]),
    #   source_b^nu = k^2 sum_mu ([R[mu, mu], h^nu] + [h^mu, R[mu, nu]]):
    # the cubic term of G's divergence cancels (3/16) m^3 i h^nu through
    # sum_mu [h^mu, [h_mu, h^nu]] = 12 h^nu.
    t = fixed_idempotent(label)
    bump = random_two_yang_mills_set(5, t, 1.0).b  # a random sp(cl(1,3)) potential
    pairs, eta = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)], METRIC_DIAG
    for seed in (3, 8, 48):
        pts = PointSet(sample_points(seed, 20))
        pure = build_pure_gauge(random_family(seed), t, 0.0)
        c = pure.c + bump
        h, cv = pure.h.value(pts), [c[mu].value(pts) for mu in range(4)]
        curv_c = [
            c[nu].partial(mu).value(pts) - c[mu].partial(nu).value(pts) - commutator(cv[mu], cv[nu])
            for mu, nu in pairs
        ]
        for mass in (0.0, -1.5, 0.5, 2.0):
            fs, k = replace(pure, mass=mass, c=c), mass / 4.0
            r = model_residual_components(fs, pts)["h_transport"]
            assert np.max(r.norm()) > 1.0
            law = {
                "curvature_b": stack([
                    curv_c[i] - (r[mu, nu] * eta[nu] - r[nu, mu] * eta[mu]) * (1j * k)
                    for i, (mu, nu) in enumerate(pairs)
                ]),
                "source_b": stack([
                    reduce(operator.add, (
                        commutator(r[mu, mu], h[nu]) + commutator(h[mu], r[mu, nu])
                        for mu in range(4)
                    )) * k**2
                    for nu in range(4)
                ]),
            }
            reduced = two_yang_mills_residual_components(reduce_to_two_yang_mills(fs), pts)
            for eq, want in law.items():
                peak = np.max(reduced[eq].norm())
                diff = np.max((reduced[eq] - want).norm())
                assert diff <= 1e-13 * max(1.0, peak), (eq, seed, mass)


def test_reduced_set_memberships(reduced, points):
    for x in points:
        for mu in range(4):
            assert sp_algebra_residual(reduced.b[mu].value(x)) <= 1e-9
            for nu in range(4):
                g = reduced.g[mu][nu].value(x)
                assert sp_algebra_residual(g) <= 1e-9
                assert (g + reduced.g[nu][mu].value(x)).is_zero(1e-12)


def test_reduction_identities_constant_case(t2):
    red = reduce_to_two_yang_mills(build_pure_gauge(FieldFamily(()), t2, 1.3))
    rec = check_reduction_identities(red, sample_points(4, 3))
    assert worst(rec.values()) <= 1e-14


def test_fd_mode_residuals_scale_quadratically(reduced):
    pts = sample_points(9, 3)
    slope, residuals = convergence_slope(reduced, pts, (1e-2, 5e-3, 2.5e-3))
    assert residuals[0] > residuals[-1] > 0
    assert abs(slope - 2.0) <= 0.2


@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan")])
def test_point_set_rejects_a_step_that_is_not_positive(step):
    with pytest.raises(ValueError):
        PointSet(X0, fd_step=step)


def test_convergence_slope_is_nan_where_central_differences_are_exact(t2):
    # Constant fields: every FD residual is exactly zero, so there is no slope.
    red = reduce_to_two_yang_mills(build_pure_gauge(FieldFamily(()), t2, 1.0))
    slope, residuals = convergence_slope(red, sample_points(2, 3), (1e-2, 5e-3, 2.5e-3))
    assert np.isnan(slope) and residuals == [0.0, 0.0, 0.0]


def test_fd_pass_differentiates_by_central_differences(reduced):
    # Oracle: the (0, 1) curvature of B written out with fd_derivative.
    pts, step = sample_points(9, 3), 1e-3
    comps = two_yang_mills_residual_components(reduced, PointSet(pts, fd_step=step))
    b, g, oracle = reduced.b, reduced.g, PointSet(pts, fd_step=step)
    want = (
        fd_derivative(b[1].value, oracle, 0)
        - fd_derivative(b[0].value, oracle, 1)
        - commutator(b[0].value(pts), b[1].value(pts))
        - g[0][1].value(pts)
    )
    # The curvature runs over the pairs mu < nu, (0, 1) first.
    assert np.array_equal(gamma_rep(comps["curvature_b"][0]), gamma_rep(want))
    exact = worst(two_yang_mills_residuals(reduced, pts).values())
    fd = worst(two_yang_mills_residuals(reduced, PointSet(pts, fd_step=step)).values())
    assert exact <= 1e-12 < fd <= 1e-5


def test_a_bracket_differentiates_by_the_leibniz_rule(t2):
    # d[u, v] = [du, v] + [u, dv], at the value level bit for bit, for first
    # and second partials; against the product-rule tree of u v - v u it
    # differs only by rounding, and against central differences by O(step^2).
    def product_rule(du, v, u, dv):  # d(u v - v u) as the products it holds
        return (du * v + u * dv) - (dv * u + v * du), [(du, v), (u, dv)]

    worst_rounding, fd_error = 0.0, {1e-2: 0.0, 1e-3: 0.0}
    for seed in range(3):
        h = build_pure_gauge(random_family(seed), t2, 1.0).h
        x = PointSet(sample_points(seed, 5))
        for u, v in [(h[0], h[1]), (h[3], h[2])]:
            bracket, uv, vv = BracketField(u, v), u.value(x), v.value(x)
            for mu in range(4):
                du, dv = u.partial(mu).value(x), v.partial(mu).value(x)
                first = bracket.partial(mu).value(x)
                want = commutator(du, vv) + commutator(uv, dv)
                old, products = product_rule(du, vv, uv, dv)
                for step in fd_error:
                    fd = fd_derivative(bracket.value, PointSet(x.x, step), mu)
                    fd_error[step] = max(fd_error[step], np.max((first - fd).norm()))
                cases = [(first, want, old, products)]
                for nu in range(4):
                    dun, dvn = u.partial(nu).value(x), v.partial(nu).value(x)
                    ddu = u.partial(mu).partial(nu).value(x)
                    ddv = v.partial(mu).partial(nu).value(x)
                    want = (commutator(ddu, vv) + commutator(du, dvn)) + (
                        commutator(dun, dv) + commutator(uv, ddv)
                    )
                    old_a, pa = product_rule(ddu, vv, du, dvn)
                    old_b, pb = product_rule(dun, dv, uv, ddv)
                    second = bracket.partial(mu).partial(nu).value(x)
                    cases.append((second, want, old_a + old_b, pa + pb))
                for got, want, old, products in cases:
                    assert np.array_equal(gamma_rep(got), gamma_rep(want))
                    scale = np.max([a.norm() * b.norm() for a, b in products], axis=0)
                    worst_rounding = max(worst_rounding, np.max((got - old).norm() / scale))
    assert worst_rounding <= 1e-15
    assert fd_error[1e-3] <= 100 * 1e-3**2 and fd_error[1e-2] >= 50 * fd_error[1e-3]
    # A term whose operand's partial folds is dropped: [e0, w] has the one bracket [e0, dw].
    e0, row = ConstantField(E0), h[0]
    d = BracketField(e0, row).partial(1)
    assert isinstance(d, BracketField) and d.left is e0 and d.right is row.partial(1)
    assert BracketField(e0, ConstantField(E)).partial(0) is ZERO_FIELD


def test_weighted_sum_equals_the_element_arithmetic():
    x1, x2 = PolyShape({(0, 1, 0, 0): 1.0}), PolyShape({(0, 0, 1, 0): 1.0})
    a = ShapeField(x1, CliffordElement.from_blade("e01", 0.7 - 0.2j))
    b = FieldFamily(((sample("sp_cl", seed=4, scale=0.5), x2),)).w
    pts = sample_points(5, 4)
    cases = [
        (a - 2.5j * b, lambda u, v: u - v * 2.5j),
        (a + b, lambda u, v: u + v),
        (-a, lambda u, v: u * -1),
        (SumField(((1, a), (0.5, b), (-1, a))), lambda u, v: u + v * 0.5 - u),
    ]
    for field, arithmetic in cases:
        want = arithmetic(a.value(pts), b.value(pts))
        assert np.array_equal(gamma_rep(field.value(pts)), gamma_rep(want))
        for mu in range(4):
            want = arithmetic(a.partial(mu).value(pts), b.partial(mu).value(pts))
            assert np.array_equal(gamma_rep(field.partial(mu).value(pts)), gamma_rep(want))


def test_bianchi_current_check_cases(t2):
    pts = sample_points(14, 4)
    zero = StackField((ConstantField(CliffordElement.zero()),) * 4)
    rec = bianchi_current_check(zero, pts)
    assert worst(rec.values()) == 0.0

    basis = subspace_basis("L", t2)
    const = StackField(ConstantField(basis[j % len(basis)] * 0.6) for j in range(4))
    rec = bianchi_current_check(const, pts)
    assert worst(rec.values()) <= 1e-12

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
    rec = bianchi_current_check(StackField(poly_fields), pts)
    assert worst(rec.values()) <= 1e-8


def test_random_nonsolution_has_order_one_residuals(t2):
    fs = random_two_yang_mills_set(31, t2, 1.0)
    pts = sample_points(3, 4)
    rec = two_yang_mills_residuals(fs, pts)
    assert worst(rec.values()) > 1e-2


def test_each_two_yang_mills_equation_detects_a_nonsolution(t2):
    # A shared operator that zeroed one equation would hide behind the
    # others in the maximum, so every equation is checked on its own.
    fs = random_two_yang_mills_set(31, t2, 1.0)
    rec = two_yang_mills_residuals(fs, sample_points(3, 4))
    assert set(rec) == {"dirac", "curvature_a", "source_a", "curvature_b", "source_b"}
    for eq, res in rec.items():
        assert np.max(res) > 1e-2, eq


def test_each_reduction_identity_detects_a_bumped_potential(reduced, points):
    bump = ConstantField(stack([CliffordElement.from_blade("e12", 0.1)] + [E * 0] * 3))
    bumped = replace(reduced, b=reduced.b + bump)
    rec = check_reduction_identities(bumped, points[:4])
    # The third identity, the curvature of B, is the two-Yang-Mills curvature equation.
    assert set(rec) == {"h_b_transport", "h_conservation"}
    rec["curvature_b"] = two_yang_mills_residuals(bumped, points[:4])["curvature_b"]
    for eq, res in rec.items():
        assert np.max(res) > 1e-2, eq


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
    assert worst(rec.values()) <= 1e-9


def test_pure_gauge_rejects_non_symplectic_generator(t2):
    bad = FieldFamily(((E0, constant_shape(1.0)),))  # e0 is not i*grade1
    with pytest.raises(ValueError):
        build_pure_gauge(bad, t2, 1.0)


def test_model_components_shape(pure_gauge, points, t2):
    comps = model_residual_components(pure_gauge, points[0])
    assert set(comps) == {"dirac", "curvature_a", "source_a", "h_transport"}
    assert gamma_rep(comps["h_transport"]).shape == (4, 4, 4, 4)
    # phi = A = F = 0 fold the other three equations to one zero element each.
    for eq in ("dirac", "curvature_a", "source_a"):
        assert gamma_rep(comps[eq]).shape == (4, 4) and comps[eq].is_zero(), eq
    other = random_two_yang_mills_set(31, t2, 1.0)
    unfolded = replace(pure_gauge, phi=other.phi, a=other.a, f=other.f)
    comps = model_residual_components(unfolded, points[0])
    assert gamma_rep(comps["dirac"]).shape == (4, 4)
    assert gamma_rep(comps["curvature_a"]).shape == (6, 4, 4)
    assert gamma_rep(comps["source_a"]).shape == (4, 4, 4)


def test_point_set_values_equal_stacked_point_values(family, reduced, t2, points):
    # Oracle: the same trees evaluated one point at a time.
    for f in (family.w, reduced.g[0][1].partial(2)):
        stacked = np.stack([gamma_rep(f.value(x)) for x in points])
        assert np.max(np.abs(gamma_rep(f.value(points)) - stacked)) <= 1e-12
    fs = random_two_yang_mills_set(31, t2, 1.0)
    batch = two_yang_mills_residual_components(fs, points)
    for i, x in enumerate(points):
        for eq, r in two_yang_mills_residual_components(fs, x).items():
            got = np.moveaxis(gamma_rep(batch[eq]), -3, 0)[i]  # the point axis is the last before the matrix
            assert np.max(np.abs(got - gamma_rep(r))) <= 1e-12


RESIDUAL_FUNCTIONS = {
    "model_residuals": lambda sets, x: model_residuals(sets[0], x),
    "two_yang_mills_residuals": lambda sets, x: two_yang_mills_residuals(sets[1], x),
    "two_yang_mills_residuals_nonsolution": lambda sets, x: two_yang_mills_residuals(sets[2], x),
    "check_h_identities": lambda sets, x: check_h_identities(sets[0].h.value(x)),
    "check_reduction_identities": lambda sets, x: check_reduction_identities(sets[1], x),
    "bianchi_current_check": lambda sets, x: bianchi_current_check(sets[2].a, x),
    "source_norm": lambda sets, x: {"source": source_norm(sets[1], x)},
}


def test_residual_arrays_hold_each_point_alone(t2):
    # Oracle: the same residuals evaluated at one point at a time, bit for
    # bit; the 24 points of a trig family's fields share every kernel call.
    model = build_pure_gauge(random_family(3), t2, 1.0)
    sets = (model, reduce_to_two_yang_mills(model), random_two_yang_mills_set(31, t2, 1.0))
    pts = sample_points(3, 24)
    for name, fn in RESIDUAL_FUNCTIONS.items():
        stacked = fn(sets, PointSet(pts))
        for i, x in enumerate(pts):
            alone = fn(sets, PointSet(x))
            for eq, per_point in stacked.items():
                assert per_point.shape == (len(pts),)
                assert per_point[i] == alone[eq], (name, eq, i)


@pytest.mark.parametrize("where", [0, 2, 4])
def test_worst_propagates_a_nan_wherever_it_stands(where):
    residuals = [0.5, np.array([1.0, 2.0]), 3.0, np.array([0.25]), 1e-3]
    residuals[where] = np.array([0.1, np.nan]) if where == 2 else np.nan
    assert np.isnan(worst(residuals))
    assert worst([0.5, np.array([1.0, 2.0]), 3.0]) == 3.0


def _count_evaluations(monkeypatch) -> Counter:
    """Per (node, pass), how often a node is evaluated; every pass seen is held."""
    counts, passes = Counter(), []
    classes = [cls for cls in CliffordField.__subclasses__() if "_evaluate" in vars(cls)]
    for cls in classes:

        def counted(self, points, evaluate=vars(cls)["_evaluate"]):
            passes.append(points)
            counts[self, id(points)] += 1
            return evaluate(self, points)

        monkeypatch.setattr(cls, "_evaluate", counted)
    return counts


@pytest.fixture()
def no_collector():
    """The collector is off, so no value may wait for it: a pass itself
    lets each value go at the last read of its node."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _holds_nothing(pts: PointSet) -> bool:
    """Whether the pass and its stencil hold no value and no pending read."""
    return all(not p.values and not p.reads for p in (pts, pts.stencil) if p is not None)


@pytest.mark.parametrize("fd_step", [None, 1e-3])
def test_a_lone_read_and_a_consumed_batch_leave_nothing_in_the_pass(
    monkeypatch, no_collector, pure_gauge, points, fd_step
):
    counts = _count_evaluations(monkeypatch)
    pts = PointSet(points, fd_step)
    reduced = reduce_to_two_yang_mills(pure_gauge)
    roots = dict(two_yang_mills_equations(reduced, pts))
    # A lone read counts its own tree's reads, so the tree's shared nodes
    # (W^-1, W and their partials) are evaluated once.
    lone = roots["source_b"].value(pts)
    assert counts and set(counts.values()) == {1}
    assert _holds_nothing(pts)
    counts.clear()
    comps = two_yang_mills_residual_components(reduced, pts)
    assert set(counts.values()) == {1}
    assert np.array_equal(gamma_rep(comps["source_b"]), gamma_rep(lone))
    assert _holds_nothing(pts)
    model_residuals(pure_gauge, pts)
    check_reduction_identities(reduced, pts)
    assert _holds_nothing(pts)


@pytest.mark.parametrize("fd_step", [None, 1e-3])
def test_a_node_read_by_two_roots_of_a_batch_is_evaluated_once(
    monkeypatch, no_collector, family, pure_gauge, points, fd_step
):
    counts = _count_evaluations(monkeypatch)
    pts = PointSet(points, fd_step)
    h = pure_gauge.h
    d = CliffordField.partial if fd_step is None else DifferenceField
    # h is read by three roots, twice by the first; C_0 reads W^-1 as h does.
    roots = [("square", ProductField(h, h)), ("d0", d(h, 0)), ("d1", d(h, 1)), ("h", h)]
    roots = batch(roots + [("c0", pure_gauge.c[0])], pts)
    assert pts.reads[h] == 3
    for name, root in roots.items():
        root.value(pts)
        if name == "square":
            assert pts.reads[h] == 1 and h in pts.values
        if name == "h":
            assert h not in pts.values and h not in pts.reads
            assert family.winv in pts.values and pts.reads[family.winv] == 1
    assert _holds_nothing(pts)
    assert set(counts.values()) == {1}
    assert counts[h, id(pts)] == 1
    if fd_step is not None:  # d0 and d1 read h on the stencil
        assert counts[h, id(pts.stencil)] == 1


@pytest.mark.parametrize("fd_step", [None, 1e-3])
def test_a_stack_read_twice_reads_its_rows_twice_and_stores_no_stack(
    monkeypatch, no_collector, pure_gauge, points, fd_step
):
    counts = _count_evaluations(monkeypatch)
    pts = PointSet(points, fd_step)
    d = CliffordField.partial if fd_step is None else DifferenceField
    dh = StackField(d(pure_gauge.h, mu) for mu in range(4))
    pts.expect([dh, dh])
    assert pts.reads[dh] == 2 and all(pts.reads[row] == 2 for row in dh.rows)
    first = dh.value(pts)
    assert dh not in pts.values and pts.reads[dh] == 1
    assert all(pts.reads[row] == 1 and row in pts.values for row in dh.rows)
    second = dh.value(pts)
    assert np.array_equal(gamma_rep(first), gamma_rep(second))
    assert _holds_nothing(pts)
    assert all(counts[row, id(pts)] == 1 for row in dh.rows)
    assert set(counts.values()) == {1}  # on an FD pass, h once on the stencil for all rows


@pytest.mark.parametrize("label", ["t1", "t2", "t3", "t4"])
def test_each_mass_checked_in_the_family_pass_equals_a_fresh_pass(family, points, label):
    # The reduction suite's layout: the model residuals, the h identities
    # and every mass share one pass.  Oracle: every function on a PointSet
    # of its own, bit for bit.
    fs = build_pure_gauge(family, fixed_idempotent(label), 1.0)
    pts = PointSet(points)
    model_residuals(fs, pts)
    check_h_identities(fs.h.value(pts))
    for m in (0.0, -2.0, 7.0):
        reduced = reduce_to_two_yang_mills(replace(fs, mass=m))
        for fn in (two_yang_mills_residuals, check_reduction_identities):
            shared, fresh = fn(reduced, pts), fn(reduced, PointSet(points))
            assert shared.keys() == fresh.keys()
            for eq in fresh:
                assert np.array_equal(shared[eq], fresh[eq]), (m, fn.__name__, eq)
        assert np.array_equal(source_norm(reduced, pts), source_norm(reduced, points))


def _reduce_with_fresh_brackets(fs: ModelFieldSet, m: float) -> TwoYangMillsFieldSet:
    """The reduced set of fs at mass m with i h_mu and [i h_mu, i h_nu]
    built for this mass alone."""
    return next(reductions(fs, (m,)))


def _reduction_results(fs: TwoYangMillsFieldSet, pts) -> dict:
    out = {eq: gamma_rep(r) for eq, r in two_yang_mills_residual_components(fs, pts).items()}
    out.update(check_reduction_identities(fs, pts))
    out["source"] = source_norm(fs, pts)
    return out


@pytest.mark.parametrize("label", ["t1", "t2", "t3", "t4"])
@pytest.mark.parametrize("seed", [3, 8])
def test_reductions_share_brackets_and_equal_a_fresh_reduction_per_mass(points, seed, label):
    # Oracle: per mass, fresh i h_mu and fresh brackets, bit for bit, with
    # all masses in one shared pass and with each mass in a pass of its own.
    # At m = 0, G folds to ZERO_FIELD and holds no bracket row.
    fs = build_pure_gauge(random_family(seed), fixed_idempotent(label), 1.0)
    masses = (0.0, -2.0, 0.5, 7.0)
    shared, shared_oracle = PointSet(points), PointSet(points)
    brackets = set()
    for m, reduced in zip(masses, reductions(fs, masses), strict=True):
        assert reduced.mass == m
        oracle = _reduce_with_fresh_brackets(fs, m)
        if m != 0:
            brackets.add(tuple(row.terms[0][1] for row in reduced.g))
        for got, want in (
            (_reduction_results(reduced, shared), _reduction_results(oracle, shared_oracle)),
            (
                _reduction_results(reduced, PointSet(points)),
                _reduction_results(oracle, PointSet(points)),
            ),
        ):
            assert got.keys() == want.keys()
            for key in want:
                assert np.array_equal(got[key], want[key]), (m, key)
    assert len(brackets) == 1
