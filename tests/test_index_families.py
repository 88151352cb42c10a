"""Index families against the per-component formulas they replace.

The oracle below builds every field of a set component by component, one
tree per component, and evaluates the residual operators and the h
identities with a loop over each index, as the equations write them.  The
stacked nodes and operators of ``cl13.fields`` must give the same values
bit for bit, on an exact pass and on a finite-difference pass.
"""

import operator
from functools import reduce

import numpy as np
import pytest

from cl13.algebra import (
    BETA,
    E,
    GENERATORS,
    METRIC_DIAG,
    CliffordElement,
    anticommutator,
    commutator,
)
from cl13.fields import (
    SOURCE_COUPLING,
    ZERO_FIELD,
    BracketField,
    ConstantField,
    PointSet,
    ProductField,
    ShapeField,
    SumField,
    _random_poly,
    _random_span_field,
    build_pure_gauge,
    check_h_identities,
    check_reduction_identities,
    fd_derivative,
    model_residual_components,
    random_family,
    random_two_yang_mills_set,
    reductions,
    sample_points,
    two_yang_mills_residual_components,
)
from cl13.rep import gamma_rep
from cl13.subspaces import subspace_basis

PAIRS = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]
MASSES = (0.5, -2.0)


def _total(terms):
    return reduce(operator.add, terms)


# -- the fields, one tree per component ------------------------------------------------


def _antisymmetric(components):
    grid = [[ZERO_FIELD] * 4 for _ in range(4)]
    for (mu, nu), fld in components.items():
        grid[mu][nu] = fld
        grid[nu][mu] = -fld
    return grid


def _pure_gauge(family):
    w, winv = family.w, family.winv
    h = [ProductField(ProductField(winv, ConstantField(g)), w) for g in GENERATORS]
    c = [-ProductField(winv, w.partial(mu)) for mu in range(4)]
    return {"phi": ZERO_FIELD, "h": h, "a": [ZERO_FIELD] * 4, "f": [[ZERO_FIELD] * 4] * 4, "c": c}


def _reduced(model, m):
    m4 = m / 4.0
    ih_lower = [(1j * METRIC_DIAG[mu]) * model["h"][mu] for mu in range(4)]
    b = [SumField(((1, model["c"][mu]), (-m4, ih_lower[mu]))) for mu in range(4)]
    g = [[-(m4**2) * BracketField(ih_lower[mu], ih_nu) for ih_nu in ih_lower] for mu in range(4)]
    return {**model, "b": b, "g": g, "mass": m}


def _random_set(seed, t, mass):
    # The draws of random_two_yang_mills_set, in their order.
    rng = np.random.default_rng(seed)
    base = _pure_gauge(random_family(seed + 17))
    spans = []
    for _ in range(3):
        u = CliffordElement(rng.uniform(-0.7, 0.7, 16) + 1j * rng.uniform(-0.7, 0.7, 16))
        spans.append(u * t.to_float())
    phi = SumField((1, ShapeField(_random_poly(rng, 0.7), u)) for u in spans)
    l_basis, sp_basis = subspace_basis("L", t), subspace_basis("sp_cl")
    a = [_random_span_field(rng, l_basis) for _ in range(4)]
    f = _antisymmetric({p: _random_span_field(rng, l_basis) for p in PAIRS})
    b = [_random_span_field(rng, sp_basis) for _ in range(4)]
    g = _antisymmetric({p: _random_span_field(rng, sp_basis) for p in PAIRS})
    return {"phi": phi, "h": base["h"], "a": a, "f": f, "b": b, "g": g, "mass": mass}


# -- the operators, one component at a time ---------------------------------------------


def _partial(f, x, mu):
    if x.fd_step is None:
        return f.partial(mu).value(x)
    return fd_derivative(f.value, x, mu)


def _curvature(x, pot, pv, mu, nu):
    return _partial(pot[nu], x, mu) - _partial(pot[mu], x, nu) - commutator(pv[mu], pv[nu])


def _covariant(x, pv, mu, f):
    return _partial(f, x, mu) - commutator(pv[mu], f.value(x))


def _divergence(x, pv, strength, nu):
    return _total(
        _covariant(x, pv, mu, strength[mu][nu]) * (METRIC_DIAG[mu] * METRIC_DIAG[nu])
        for mu in range(4)
    )


def _dirac(fs, x, hv, pv):
    phi = fs["phi"].value(x)
    return _total(
        (1j * hv[mu]) * (_partial(fs["phi"], x, mu) + phi * fs["a"][mu].value(x) - pv[mu] * phi)
        for mu in range(4)
    )


def _pair(x, pot, strength, rhs):
    pv = [f.value(x) for f in pot]
    curvature = [_curvature(x, pot, pv, mu, nu) - strength[mu][nu].value(x) for mu, nu in PAIRS]
    source = [_divergence(x, pv, strength, nu) - rhs[nu] for nu in range(4)]
    return curvature, source


def _current(phi, hv):
    return [phi.herm_conj() * BETA * (1j * hv[mu]) * phi for mu in range(4)]


def _model_components(fs, x):
    hv = [f.value(x) for f in fs["h"]]
    cv = [f.value(x) for f in fs["c"]]
    phi = fs["phi"].value(x)
    curvature_a, source_a = _pair(x, fs["a"], fs["f"], _current(phi, hv))
    return {
        "dirac": [_dirac(fs, x, hv, cv) - phi * fs["mass"]],
        "curvature_a": curvature_a,
        "source_a": source_a,
        "h_transport": [_covariant(x, cv, mu, fs["h"][nu]) for mu in range(4) for nu in range(4)],
    }


def _two_yang_mills_components(fs, x):
    hv = [f.value(x) for f in fs["h"]]
    phi = fs["phi"].value(x)
    m3 = SOURCE_COUPLING * fs["mass"] ** 3
    curvature_a, source_a = _pair(x, fs["a"], fs["f"], _current(phi, hv))
    curvature_b, source_b = _pair(x, fs["b"], fs["g"], [hv[nu] * (1j * m3) for nu in range(4)])
    return {
        "dirac": [_dirac(fs, x, hv, [f.value(x) for f in fs["b"]])],
        "curvature_a": curvature_a,
        "source_a": source_a,
        "curvature_b": curvature_b,
        "source_b": source_b,
    }


def _transport_components(fs, x):
    m4 = fs["mass"] / 4.0
    bv = [f.value(x) for f in fs["b"]]
    ih = [f.value(x) * 1j for f in fs["h"]]
    ih_lower = [ih[mu] * METRIC_DIAG[mu] for mu in range(4)]
    transport = [[_covariant(x, bv, mu, fs["h"][nu]) for nu in range(4)] for mu in range(4)]
    return {
        "h_b_transport": [
            (transport[mu][nu] * 1j - commutator(ih_lower[mu], ih[nu]) * m4).norm()
            for mu in range(4)
            for nu in range(4)
        ],
        "h_conservation": [_total(transport[mu][mu] for mu in range(4)).norm()],
    }


def _h_identities(h):
    clifford = [
        (anticommutator(h[mu], h[nu]) - E * (2 * METRIC_DIAG[mu] * (mu == nu))).norm()
        for mu in range(4)
        for nu in range(4)
    ]
    h_lower = [h[mu] * METRIC_DIAG[mu] for mu in range(4)]
    contraction = _total(h[mu] * h_lower[mu] for mu in range(4))
    sandwich = [
        (side - h[nu] * (-2)).norm()
        for nu in range(4)
        for side in (
            _total(h[mu] * h[nu] * h_lower[mu] for mu in range(4)),
            _total(h_lower[mu] * h[nu] * h[mu] for mu in range(4)),
        )
    ]
    return {
        "h_clifford": clifford,
        "h_contraction": [(contraction * 0.25 - E).norm()],
        "h_sandwich": sandwich,
    }


# -- the comparison --------------------------------------------------------------------


def _assert_equal_stacks(stacked: dict, oracle: dict, n_points: int):
    assert stacked.keys() == oracle.keys()
    for eq, components in oracle.items():
        mats = gamma_rep(stacked[eq])
        if mats.ndim == 2 and len(components) > 1:  # a ZERO_FIELD equation is one zero element
            mats = np.broadcast_to(mats, (len(components), n_points, 4, 4))
        flat = mats.reshape((-1,) + mats.shape[-3:]) if len(components) > 1 else mats[None]
        assert len(flat) == len(components), eq
        for k, want in enumerate(components):
            got = np.broadcast_to(flat[k], (n_points, 4, 4))
            assert np.array_equal(got, np.broadcast_to(gamma_rep(want), (n_points, 4, 4))), (eq, k)


def _assert_equal_norms(stacked: dict, oracle: dict, n_points: int):
    assert stacked.keys() == oracle.keys()
    for eq, norms in oracle.items():
        want = np.max([np.broadcast_to(n, (n_points,)) for n in norms], axis=0)
        assert np.array_equal(np.broadcast_to(stacked[eq], (n_points,)), want), eq


@pytest.mark.parametrize("fd_step", [None, 1e-3], ids=["exact", "fd"])
def test_a_pure_gauge_reduction_equals_the_per_component_formulas(t2, fd_step):
    family, points = random_family(3), sample_points(5, 6)
    model = build_pure_gauge(family, t2, MASSES[0])
    oracle_model = {**_pure_gauge(family), "mass": MASSES[0]}
    pts, oracle_pts = PointSet(points, fd_step), PointSet(points, fd_step)
    _assert_equal_stacks(
        model_residual_components(model, pts), _model_components(oracle_model, oracle_pts), 6
    )
    oracle_h = [f.value(oracle_pts) for f in oracle_model["h"]]
    _assert_equal_norms(check_h_identities(model.h.value(pts)), _h_identities(oracle_h), 6)
    for m, reduced in zip(MASSES, reductions(model, MASSES), strict=True):
        oracle = _reduced(oracle_model, m)
        _assert_equal_stacks(
            two_yang_mills_residual_components(reduced, pts),
            _two_yang_mills_components(oracle, oracle_pts),
            6,
        )
        _assert_equal_norms(
            check_reduction_identities(reduced, pts), _transport_components(oracle, oracle_pts), 6
        )


@pytest.mark.parametrize("fd_step", [None, 1e-3], ids=["exact", "fd"])
def test_a_random_two_yang_mills_set_equals_the_per_component_formulas(t2, fd_step):
    points = sample_points(7, 5)
    fs = random_two_yang_mills_set(31, t2, 1.5)
    oracle = _random_set(31, t2, 1.5)
    pts, oracle_pts = PointSet(points, fd_step), PointSet(points, fd_step)
    _assert_equal_stacks(
        two_yang_mills_residual_components(fs, pts), _two_yang_mills_components(oracle, oracle_pts), 5
    )
    oracle_h = [f.value(oracle_pts) for f in oracle["h"]]
    _assert_equal_norms(check_h_identities(fs.h.value(pts)), _h_identities(oracle_h), 5)
    # On a non-solution the transport terms are of order one, so the
    # order of their sum shows in the bits.
    _assert_equal_norms(
        check_reduction_identities(fs, pts), _transport_components(oracle, oracle_pts), 5
    )
