"""Tour of the Cl(1,3) arithmetic kernel.

Covers blade products, the three conjugations, grade structure, the
exponential map and exact-rational coefficients.
"""

import numpy as np

from cl13 import (
    E,
    E0,
    E1,
    CliffordElement,
    anticommutator,
    commutator,
    exp_element,
    random_element,
)
from cl13.algebra import GENERATORS, METRIC_DIAG

print("== generator relations ==")
gens = [g.lift() for g in GENERATORS]  # the exact generators
for a in range(4):
    for b in range(4):
        ac = anticommutator(gens[a], gens[b])
        expected = E * (2 * METRIC_DIAG[a] * (a == b))
        assert (ac - expected).is_zero()
print("e^a e^b + e^b e^a = 2 eta^{ab} e holds exactly for all 16 pairs")

print("\n== products and commutators ==")
e12 = CliffordElement.from_blade("e12")
print("e0 * e0          =", (E0 * E0).to_json_obj())
print("e12 * e12        =", (e12 * e12).to_json_obj())
print("[e0, e1]         =", commutator(E0, E1).to_json_obj())
print("{e0, e1}         =", anticommutator(E0, E1).to_json_obj())

print("\n== involutions ==")
u = random_element(np.random.default_rng(1))
print("|(UV)* - V*U*|   =", ((u * u).pseudo_conj() - u.pseudo_conj() * u.pseudo_conj()).norm())
print("e1^dagger        =", E1.herm_conj().to_json_obj(), "(beta e1 beta = -e1)")

print("\n== grade projection ==")
mixed = E + e12 * 2 + CliffordElement.from_blade("e0123", 1j)
for k in range(5):
    part = mixed.grade(k)
    if not part.is_zero():
        print(f"grade {k}:", part.to_json_obj())

print("\n== exponential map ==")
theta = 0.6
rot = exp_element(e12 * theta)
closed = E * np.cos(theta) + e12 * np.sin(theta)
print("exp(theta e12) vs cos+sin closed form:", (rot - closed).norm())
print("exp(0) == e:", exp_element(CliffordElement.zero()).equals(E))
