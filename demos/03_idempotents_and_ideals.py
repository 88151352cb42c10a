"""Hermitian idempotents t1..t4 and the spaces I(t), K(t), L(t), G(t).

The four reference idempotents satisfy their defining conditions with
exact rational arithmetic; their ideals have dimensions set by the rank
of the matrix representation.
"""

from cl13 import fixed_idempotent, in_ideal, sample, subspace_basis
from cl13.algebra import commutator
from cl13.rep import hermitian_eigenvalues, rep_rank
from cl13.subspaces import IDEMPOTENT_LABELS, hermitian_idempotent_residuals

print("== defining conditions, exact mode ==")
for label in IDEMPOTENT_LABELS:
    t = fixed_idempotent(label).lift()
    residuals = hermitian_idempotent_residuals(t)
    print(f"{label}: residuals {residuals}")

print("\n== ranks, eigenvalues and ideal dimensions ==")
print(f"{'label':6s} {'rank':>4s} {'dim I':>6s} {'dim K':>6s} {'dim L':>6s}  eigenvalues")
for label in IDEMPOTENT_LABELS:
    t = fixed_idempotent(label)
    r = rep_rank(t)
    dims = {s: len(subspace_basis(s, t)) for s in ("I", "K", "L")}
    eigs = hermitian_eigenvalues(t)
    print(
        f"{label:6s} {r:4d} {dims['I']:6d} {dims['K']:6d} {dims['L']:6d}  {eigs}"
    )
print("(dim L(t) = rank^2: the gauge group G(t) is a unitary group of that rank)")

print("\n== gauge group samples ==")
t2 = fixed_idempotent("t2")
for seed in (7, 8):
    u = sample("G", t2, seed=seed, scale=0.6)
    print(
        f"seed {seed}: U^dag U = e residual "
        f"{(u.herm_conj() * u - fixed_idempotent('t4')).norm():.2e}, "
        f"[U, t] norm {commutator(u, t2).norm():.2e}, "
        f"in G(t): {in_ideal(u, t2, 'G')}"
    )
