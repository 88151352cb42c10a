"""Scalar shapes: closure under differentiation and serialization."""

import numpy as np
import pytest

from cl13.shapes import (
    PolyShape,
    TrigShape,
    constant_shape,
    shape_from_json,
)

X = np.array([0.9, -0.4, 0.3, 1.7])


def _fd(shape, axis, h=1e-6):
    xp = X.copy()
    xm = X.copy()
    xp[axis] += h
    xm[axis] -= h
    return (shape.value(xp) - shape.value(xm)) / (2 * h)


def test_poly_value_and_derivative():
    p = PolyShape({(2, 0, 1, 0): 3.0, (0, 1, 0, 0): -1.0, (0, 0, 0, 0): 0.5})
    assert abs(p.value(X) - (3.0 * 0.81 * 0.3 + 0.4 + 0.5)) <= 1e-14
    for axis in range(4):
        assert abs(p.deriv(axis).value(X) - _fd(p, axis)) <= 1e-8
    # Third derivative of x0^2 x2 along axis 0 twice then 2 gives constant 6.
    d = p.deriv(0).deriv(0).deriv(2)
    assert d.value(X) == 6.0
    assert d.deriv(1).value(X) == 0.0


def test_trig_derivative_chain():
    s = TrigShape("sin", 0.7, (0.3, -0.2, 0.5, 0.1), 0.4)
    for axis in range(4):
        assert abs(s.deriv(axis).value(X) - _fd(s, axis)) <= 1e-9
    # d/dx0 twice returns -k0^2 * original.
    twice = s.deriv(0).deriv(0)
    assert abs(twice.value(X) + 0.3**2 * s.value(X)) <= 1e-14


def test_shape_validation():
    with pytest.raises(ValueError):
        PolyShape({(0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        PolyShape({(-1, 0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        TrigShape("tan", 1.0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        shape_from_json({"type": "spline"})


@pytest.mark.parametrize("power", [1.5, 1.0, True, np.float64(2.0)])
def test_a_power_that_is_not_an_integer_raises_and_is_not_floored(power):
    with pytest.raises(ValueError, match="bad power tuple"):
        PolyShape({(power, 0, 0, 0): 1.0})
    with pytest.raises(ValueError, match="bad power tuple"):
        shape_from_json({"type": "poly", "coeffs": [[[0, 0, power, 0], 1.0]]})


def test_integer_powers_of_numpy_type_are_accepted():
    p = PolyShape({(np.int64(2), 0, 0, np.int32(1)): 0.5})
    assert p.terms == {(2, 0, 0, 1): 0.5}
    assert all(type(k) is int for k in next(iter(p.terms)))


def test_trig_stack_equals_its_points_one_at_a_time():
    # k.x must round the same whether 1 or 320 points share the call.
    s = TrigShape("sin", 0.7, (0.83, -0.29, 0.61, -0.47), 0.3)
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, (320, 4))
    stacked = s.value(xs)
    assert all(stacked[i] == s.value(x) for i, x in enumerate(xs))


def test_json_roundtrip():
    p = PolyShape({(1, 0, 0, 2): -0.25, (0, 0, 0, 0): 1.5})
    q = shape_from_json(p.to_json_obj())
    assert abs(p.value(X) - q.value(X)) <= 1e-15
    s = TrigShape("cos", 1.2, (1.0, 0.0, -0.5, 0.25), -0.3)
    r = shape_from_json(s.to_json_obj())
    assert abs(s.value(X) - r.value(X)) <= 1e-15


def test_helpers():
    assert constant_shape(2.5).value(X) == 2.5
    x3 = PolyShape({(0, 0, 0, 1): 1.0})
    assert x3.value(X) == X[3]
    assert x3.deriv(3).value(X) == 1.0
