"""Real scalar shape functions on R^{1,3}, closed under differentiation.

Two closed forms, evaluated at one point or over an (N, 4) point set:
multivariate polynomials and plane-wave trig profiles
amp * sin/cos(k.x + phase).  ``deriv(axis)`` returns another shape, so any
derivative order of a field built from shapes stays exact.
"""

from __future__ import annotations

import numpy as np


class PolyShape:
    """Sum of c * x0^p0 x1^p1 x2^p2 x3^p3 terms; powers are 4-tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int], float]):
        clean = {}
        for powers, c in terms.items():
            powers = tuple(int(p) for p in powers)
            if len(powers) != 4 or any(p < 0 for p in powers):
                raise ValueError(f"bad power tuple {powers}")
            c = float(c)
            if c != 0.0:
                clean[powers] = clean.get(powers, 0.0) + c
        self.terms = {p: c for p, c in clean.items() if c != 0.0}

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
        out: dict[tuple[int, int, int, int], float] = {}
        for powers, c in self.terms.items():
            p = powers[axis]
            if p == 0:
                continue
            new = list(powers)
            new[axis] = p - 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + c * p
        return PolyShape(out)

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
        return self.amplitude * f(np.dot(np.asarray(x, dtype=float), self.wave) + self.phase)

    def deriv(self, axis: int) -> "TrigShape":
        k = self.wave[axis]
        if self.kind == "sin":
            return TrigShape("cos", self.amplitude * k, self.wave, self.phase)
        return TrigShape("sin", -self.amplitude * k, self.wave, self.phase)

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


def coordinate_shape(axis: int, coeff: float = 1.0) -> PolyShape:
    powers = [0, 0, 0, 0]
    powers[axis] = 1
    return PolyShape({tuple(powers): coeff})


def shape_from_json(obj: dict) -> Shape:
    kind = obj.get("type")
    if kind == "poly":
        return PolyShape({tuple(p): c for p, c in obj["coeffs"]})
    if kind == "trig":
        c = obj["coeffs"]
        return TrigShape(c["kind"], c["amplitude"], c["wave_vector"], c.get("phase", 0.0))
    raise ValueError(f"unknown shape type {kind!r}")
