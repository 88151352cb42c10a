"""The central construction: pure-gauge solutions and the reduction to the
two-Yang-Mills system.

A symplectic family W(x) generates h^mu = W^-1 e^mu W and the flat
transport connection C_mu = -W^-1 d_mu W, which solve the model system
identically.  Substituting B_mu = C_mu - (m/4) i h_mu and
G_{mu nu} = -(m/4)^2 [i h_mu, i h_nu] then solves the two-field system,
whose second Yang-Mills pair is sourced by (3/16) m^3 i h^nu.
"""

from cl13 import (
    PointSet,
    build_pure_gauge,
    check_h_identities,
    check_reduction_identities,
    fixed_idempotent,
    model_residuals,
    random_family,
    reduce_to_two_yang_mills,
    reductions,
    sample_points,
    source_norm,
    two_yang_mills_residuals,
    worst,
)

t = fixed_idempotent("t2")
points = sample_points(11, 20)

print("== pure-gauge configurations from three random families ==")
for j in range(3):
    family = random_family(42 + 1000 * j)
    fs = build_pure_gauge(family, t, mass=1.0)
    model_res = worst(model_residuals(fs, points).values())
    # h^mu is one node; its value stacks the four components, index mu first.
    h_res = worst(check_h_identities(fs.h.value(points[:5])).values())
    print(f"family {j}: model-system residual {model_res:.2e}, h identities {h_res:.2e}")

print("\n== reduction for several masses ==")
# W, h and C do not depend on m, and neither do the i h_mu and their
# brackets that ``reductions`` builds once for every mass.  Each call below
# counts the reads of its own roots in the pass before it reads them, so
# it evaluates each node it reads once and leaves no value behind; the
# reduction suite counts every mass's roots in one batch instead, so each
# node of a family is evaluated once for all masses.
model = build_pure_gauge(random_family(42), t, 1.0)
shared = PointSet(points)
for reduced in reductions(model, (0.5, 1.0, 2.0)):
    m = reduced.mass
    residuals = two_yang_mills_residuals(reduced, shared)
    ids = worst(check_reduction_identities(reduced, shared).values())
    sources = source_norm(reduced, shared)  # one norm per point
    print(
        f"m={m}: max residual {worst(residuals.values()):.2e} over "
        f"{sorted(residuals)}; source norm {sources.min():.4f} to {sources.max():.4f} "
        f"over the points (= 3/16 m^3 max |i h^nu|); transport identities {ids:.2e}"
    )

print("\n== the constant-frame special case ==")
from cl13.fields import FieldFamily

reduced = reduce_to_two_yang_mills(build_pure_gauge(FieldFamily(()), t, 1.0))
print(
    "h = e^mu, C = 0, m = 1: both sides of the sourced equation have norm",
    source_norm(reduced, points[:2]),
    "(= 3/16), residual",
    worst([two_yang_mills_residuals(reduced, points[:2])["source_b"]]),
)
