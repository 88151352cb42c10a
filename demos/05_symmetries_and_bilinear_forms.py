"""Equivalence transformations and the bilinear covariants.

Covariance is certified at the residual level: the residual of the
transformed configuration matches the stated transform of the original
residual, also on configurations that do not solve the system.
"""

import numpy as np

from cl13 import (
    PointSet,
    bilinear_form,
    build_pure_gauge,
    covariance_check,
    fixed_idempotent,
    random_element,
    random_family,
    random_transformation,
    reduce_to_two_yang_mills,
    sample_points,
    worst,
)
from cl13.fields import FieldFamily, random_two_yang_mills_set
from cl13.rep import hermitian_eigenvalues
from cl13.subspaces import ideal_residual
from cl13.symmetries import TRANSFORM_KINDS

t = fixed_idempotent("t2")
points = sample_points(23, 6)
solution = reduce_to_two_yang_mills(build_pure_gauge(random_family(42), t, 1.0))
nonsolution = random_two_yang_mills_set(53, t, 1.0)

# One pass for both field sets: each transformation's payload is evaluated
# once there, and the residual roots of each set once for all five specs;
# the check returns the non-solution's own residuals too.
shared = PointSet(points)
specs = [random_transformation(kind, 100 + k, t) for k, kind in enumerate(TRANSFORM_KINDS)]
_, on_solution = covariance_check(solution, specs, shared)
residuals, on_nonsolution = covariance_check(nonsolution, specs, shared)
scale = worst(residuals.values())

print(f"== residual transformation laws (non-solution residual scale {scale:.2f}) ==")
for kind, sol, rnd in zip(TRANSFORM_KINDS, on_solution, on_nonsolution):
    print(
        f"{kind:18s} solution mismatch {worst(sol.values()):.2e}   "
        f"non-solution mismatch {worst(rnd.values()):.2e}"
    )

print("\n== bilinear covariants ==")
phi = t
# The stacked h^mu of the constant frame W = e, which is e^mu; the forms
# read its components h_vals[mu].
h_vals = build_pure_gauge(FieldFamily(()), t, 1.0).h.value(points[0])
j0 = bilinear_form(phi, h_vals, (0,))
print("rank-1 form with phi = t2: J^0 =", j0.to_json_obj())
print("its eigenvalues:", hermitian_eigenvalues(j0))
rng = np.random.default_rng(3)
phi = random_element(rng, 0.8) * t
for indices in [(0, 1), (0, 1, 2), (0, 1, 2, 3)]:
    j = bilinear_form(phi, h_vals, indices)
    swapped = (indices[1], indices[0]) + indices[2:]
    flipped = bilinear_form(phi, h_vals, swapped)
    print(
        f"k={len(indices)}: antisymmetry {(j + flipped).norm():.2e}, "
        f"hermiticity {(j.herm_conj() - j).norm():.2e}, "
        f"iJ in L(t) residual {ideal_residual(j * 1j, t, 'L'):.2e}"
    )
print("repeated index gives zero:", bilinear_form(phi, h_vals, (2, 2)).is_zero())
