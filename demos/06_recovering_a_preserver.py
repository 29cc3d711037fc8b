"""Reverse-engineering a black-box preserver down to its matrix.

A continuous commutativity- and spectrum-preserving map on unitaries
induces a map on subspaces through kernels of shifted involutions.  That
map is implemented by a linear or conjugate-linear invertible operator;
probing it on coordinate lines, sum lines, and the single witness line
span(e_1 + i e_2) recovers the operator's columns, their relative scales,
and the branch.  The classification is validated on held-out samples,
which is exactly what rejects impostors like the conjugation-swap
involution of the previous demo.
"""

import numpy as np

from specshrink import core, reconstruct, spaces, theta
from specshrink.errors import ResidualTooLarge

rng = np.random.default_rng(21)
u, v = spaces.sample("un", 3, rng), spaces.sample("un", 3, rng)
T0 = (u * np.array([1.0, 4.0, 20.0])) @ v.conj().T
print("hidden matrix T0 (condition number 20), both branches:")

for mode in (reconstruct.MODE_CONJUGATION, reconstruct.MODE_TRANSPOSE):
    phi = reconstruct.make_oracle(mode, T0)
    cls = reconstruct.classify_preserver(phi, "un", 3, seed=0)
    err = reconstruct.projective_distance(cls.matrix, T0)
    print(f"  oracle {mode:22} -> recovered mode {cls.mode:22} "
          f"projective error {err:.2e}, residual {cls.residual:.2e}")

print()
print("the same classification works from normal and diagonalizable inputs:")
phi = reconstruct.make_oracle("conjugation", T0)
for space in ("nn", "gln_ss", "sln_ss"):
    cls = reconstruct.classify_preserver(phi, space, 3, seed=0)
    err = reconstruct.projective_distance(cls.matrix, T0)
    print(f"  space {space:7}: mode {cls.mode}, projective error {err:.2e}")

print()
print("structure the subspace map is guaranteed to respect:")
print("  lattice compatibility on commuting pairs:",
      reconstruct.lattice_compat_check(phi, 3, trials=15, seed=0))
TG = reconstruct.torus_conjugator(phi, np.eye(3), seed=0)
uu = np.exp(2j * np.pi * np.array([0.15, 0.5, 0.85]))
X = np.diag(uu)
print("  torus conjugator residual on a fresh torus element:",
      f"{core.opnorm(phi(X) - TG @ X @ np.linalg.inv(TG)):.2e}")

print()
print("and the impostor: the conjugation-swap involution")
try:
    reconstruct.classify_preserver(theta.theta, "gln_ss", 3, seed=0)
    print("  unexpectedly classified (this would be a bug)")
except ResidualTooLarge as exc:
    print(f"  rejected with validation residual {exc.residual:.3f}: it passes")
    print("  every spot check on unitaries but is no conjugation globally")
