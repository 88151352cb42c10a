"""Real scalar shape functions on R^{1,3}, closed under differentiation.

Two closed forms, evaluated at one point or over an (N, 4) point set:
multivariate polynomials and plane-wave trig profiles
amp * sin/cos(k.x + phase).  ``deriv(axis)`` returns another shape, so any
derivative order of a field built from shapes stays exact.
"""

from __future__ import annotations

import numpy as np

from .exactnum import is_finite_real, is_int, known_keys


def _powers(powers) -> tuple[int, int, int, int]:
    if len(powers) != 4 or not all(is_int(p) and p >= 0 for p in powers):
        raise ValueError(f"bad power tuple {powers}")
    return tuple(map(int, powers))


class PolyShape:
    """Sum of c * x0^p0 x1^p1 x2^p2 x3^p3 terms; powers are 4-tuples of
    non-negative integers (a float or a bool power raises ValueError)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int], float]):
        # Distinct keys stay distinct as ints (an np.integer power equals its int), so none merge.
        pairs = ((_powers(p), float(c)) for p, c in terms.items())
        self.terms = {p: c for p, c in pairs if c != 0.0}

    def value(self, x):
        """Value at a point, or one value per row of an (N, 4) point set."""
        x = np.asarray(x, dtype=float)
        total = 0.0
        for powers, c in self.terms.items():
            term = c
            for axis in range(4):
                if powers[axis]:
                    term *= x[..., axis] ** powers[axis]
            total += term
        return total

    def deriv(self, axis: int) -> "PolyShape":
        return PolyShape({
            (*p[:axis], p[axis] - 1, *p[axis + 1 :]): c * p[axis]
            for p, c in self.terms.items() if p[axis]
        })

    def bound(self, step: float) -> float:
        """An upper bound of |value| on the box [-step, 1 + step]^4."""
        return sum(abs(c) * (1.0 + step) ** sum(p) for p, c in self.terms.items())

    def to_json_obj(self) -> dict:
        return {
            "type": "poly",
            "coeffs": [[list(p), c] for p, c in sorted(self.terms.items())],
        }

    def __repr__(self):
        return f"PolyShape({self.terms!r})"


class TrigShape:
    """amp * sin(k.x + phase) or amp * cos(k.x + phase)."""

    __slots__ = ("kind", "amplitude", "wave", "phase")

    def __init__(self, kind: str, amplitude: float, wave, phase: float = 0.0):
        if kind not in ("sin", "cos"):
            raise ValueError(f"kind must be sin or cos, got {kind!r}")
        self.kind = kind
        self.amplitude = float(amplitude)
        self.wave = tuple(float(k) for k in wave)
        if len(self.wave) != 4:
            raise ValueError("wave vector needs 4 components")
        self.phase = float(phase)

    def value(self, x):
        """Value at a point, or one value per row of an (N, 4) point set."""
        f = np.sin if self.kind == "sin" else np.cos
        x = np.asarray(x, dtype=float)
        # k.x as a left fold of elementwise products, not a BLAS dot, whose
        # rounding depends on how many points share the call.
        k0, k1, k2, k3 = self.wave
        kx = x[..., 0] * k0 + x[..., 1] * k1 + x[..., 2] * k2 + x[..., 3] * k3
        return self.amplitude * f(kx + self.phase)

    def deriv(self, axis: int) -> "TrigShape":
        k = self.wave[axis]
        if self.kind == "sin":
            return TrigShape("cos", self.amplitude * k, self.wave, self.phase)
        return TrigShape("sin", -self.amplitude * k, self.wave, self.phase)

    def bound(self, step: float) -> float:
        """An upper bound of |value| anywhere: the amplitude."""
        return abs(self.amplitude)

    def to_json_obj(self) -> dict:
        return {
            "type": "trig",
            "coeffs": {
                "kind": self.kind,
                "amplitude": self.amplitude,
                "wave_vector": list(self.wave),
                "phase": self.phase,
            },
        }

    def __repr__(self):
        return (
            f"TrigShape({self.kind!r}, {self.amplitude!r}, {self.wave!r}, {self.phase!r})"
        )


Shape = PolyShape | TrigShape


def constant_shape(c: float) -> PolyShape:
    return PolyShape({(0, 0, 0, 0): c})


def shape_from_json(obj: dict) -> Shape:
    """The shape of a JSON object: powers are non-negative integers, the
    other numbers finite (a string or a bool is neither)."""
    kind = known_keys(obj, ("type", "coeffs"), "shape").get("type")
    if kind == "poly":
        terms = {tuple(p): c for p, c in obj["coeffs"]}
        if all(map(is_finite_real, terms.values())):
            return PolyShape(terms)  # which checks the powers
        raise ValueError(f"poly coefficients must be numbers: {obj['coeffs']}")
    if kind == "trig":
        c = known_keys(obj["coeffs"], ("kind", "amplitude", "wave_vector", "phase"), "trig shape")
        if all(map(is_finite_real, (c["amplitude"], *c["wave_vector"], c.get("phase", 0.0)))):
            return TrigShape(c["kind"], c["amplitude"], c["wave_vector"], c.get("phase", 0.0))
        raise ValueError(f"trig amplitude, wave vector and phase must be numbers: {c}")
    raise ValueError(f"unknown shape type {kind!r}")
