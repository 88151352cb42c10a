"""Exact complex numbers with rational real and imaginary parts.

Python's ``complex`` only holds doubles, so an exact element of the
algebra gives each coefficient as a :class:`RationalComplex`: a pair of
``fractions.Fraction`` values and a formal imaginary unit.  It also turns a
scalar that meets an exact element into a rational.

Config and JSON readers take numbers and keys by the rules below: a bool or
a string is no number, and an unknown key is an error.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np


def is_int(value, types=(int, np.integer)) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A finite number, not a bool; an integer too large for a float is not."""
    real = is_int(value, (int, float, np.integer, np.floating))
    return real and abs(value) <= float(np.finfo(float).max)


def known_keys(obj: dict, keys, what: str) -> dict:
    unknown = set(obj) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return obj


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


class RationalComplex:
    """re + im*i with exact Fraction parts. Immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("RationalComplex is immutable")

    @classmethod
    def from_value(cls, value) -> "RationalComplex":
        """Coerce int, Fraction, float or complex (floats convert exactly)."""
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(_as_fraction(value))

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @staticmethod
    def _coerce(other):
        try:
            return RationalComplex.from_value(other)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalComplex(self.re * other, self.im * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalComplex.from_value(other)
        d = other.abs_sq()
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return RationalComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = RationalComplex(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __eq__(self, other):
        try:
            other = RationalComplex.from_value(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # Python's hash of a complex, so a value hashes as an equal int,
        # float, Fraction or complex does.
        if not self.im:
            return hash(self.re)
        width = sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % (1 << width)
        return h - (1 << width) if h >> (width - 1) else h

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"RationalComplex({self.re!r}, {self.im!r})"
