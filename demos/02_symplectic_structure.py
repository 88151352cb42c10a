"""The symplectic group inside Cl(1,3) and its 10-dimensional Lie algebra.

Shows the membership predicates, the dimension extracted by row
reduction, the cross-check against sp(m,R) matrices, and group sampling.
"""

from cl13 import (
    E,
    in_sp_algebra,
    in_sp_group,
    matrix_sp_dimension,
    sample,
    subspace_basis,
)
from cl13.algebra import commutator, exp_element
from cl13.rep import inverse
from cl13.subspaces import sp_algebra_residual, sp_group_residual

print("== the Lie algebra sp(cl(1,3)) ==")
basis = subspace_basis("sp_cl")
print("dimension (row reduction over R^32):", len(basis))
print("matrix cross-check dim sp(m,R) = m(2m+1):")
for m in (1, 2, 3):
    print(f"  m={m}: {matrix_sp_dimension(m)}")

print("\n== membership ==")
v = sample("sp_cl", seed=4)
print("sampled v in sp(cl(1,3)):", in_sp_algebra(v))
print("exp(v) in Sp(cl(1,3)):", in_sp_group(exp_element(v)))
print("2e in Sp(cl(1,3)):", in_sp_group(E * 2), "(V*V = 4e fails)")

print("\n== group structure, numerically ==")
w1 = sample("Sp_cl", seed=10, scale=0.5)
w2 = sample("Sp_cl", seed=11, scale=0.5)
print("product stays in the group, residual:", sp_group_residual(w1 * w2))
print("inverse via the matrix representation:", (inverse(w1) * w1 - E).norm())

print("\n== adjoint action preserves the algebra ==")
v = sample("sp_cl", seed=12)
conj = inverse(w1) * v * w1
print("W^-1 v W in sp(cl(1,3)):", in_sp_algebra(conj))
print("commutator closure:", sp_algebra_residual(commutator(v, sample("sp_cl", seed=13))) <= 1e-12)
