"""Finite-difference cross-validation of the exact derivatives.

Residuals of the reduced system evaluated with central differences (a
pass over ``PointSet(points, fd_step=h)``) shrink as O(step^2).  Exact
derivatives, the default of a pass, sit at rounding error, orders of
magnitude below.
"""

import numpy as np

from cl13 import (
    build_pure_gauge,
    convergence_slope,
    fixed_idempotent,
    random_family,
    reduce_to_two_yang_mills,
    sample_points,
    two_yang_mills_residuals,
    worst,
)

t = fixed_idempotent("t2")
reduced = reduce_to_two_yang_mills(build_pure_gauge(random_family(42), t, 1.0))
points = sample_points(9, 5)

print("== central differences ==")
steps = (1e-2, 5e-3, 2.5e-3)
slope, residuals = convergence_slope(reduced, points, steps)
for h, r in zip(steps, residuals):
    print(f"step {h:.2e}: max residual {r:.3e}")
print(f"log-log slope: {slope:.3f} (order-2 scheme)")

print("\n== exact derivatives ==")
print(f"max residual {worst(two_yang_mills_residuals(reduced, points).values()):.3e}")
ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
print("\nstep-halving residual ratios (expect ~4):", np.round(ratios, 3))
