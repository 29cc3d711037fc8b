"""The exotic candidate preserver: swap the positive conjugation.

Every diagonalizable invertible matrix factors as S N S^{-1} with S
positive definite and N normal.  Sending that to S^{-1} N S is well
defined (two different factorizations of one matrix land on the same
output), involutory, spectrum preserving, commutativity preserving, and
the identity on normal matrices.  It looks exactly like a conjugation
preserver, and on each conjugated unitary orbit it literally is
conjugation by S^{-2}; yet globally it is not implemented by any single
conjugation, which is what the reconstruction demo exposes.
"""

import numpy as np

from specshrink import core, spaces, theta

rng = np.random.default_rng(11)

q = spaces.sample("un", 3, rng)
S = (q * np.array([0.5, 1.0, 2.0])) @ q.conj().T
N = spaces.sample("nn", 3, rng) + 0.6 * np.eye(3)
X = S @ N @ np.linalg.inv(S)

print("X = S N S^{-1} with a positive S and a normal N")
TX = theta.theta(X)
print(f"  involution defect      ||theta(theta(X)) - X|| = "
      f"{core.opnorm(theta.theta(TX) - X):.3e}")
print(f"  spectrum match distance sp(theta(X)) vs sp(X) = "
      f"{core.spectrum_match_distance(core.spectrum(TX), core.spectrum(X)):.3e}")
print(f"  normal matrices are fixed: ||theta(N) - N|| = "
      f"{core.opnorm(theta.theta(N) - N):.3e}")

print(f"  double-factorization defect (constructed S^-1 N S vs theta(X)) = "
      f"{core.opnorm(TX - np.linalg.solve(S, N @ S)):.3e}")

U = spaces.sample("un", 3, rng)
XU = S @ U @ np.linalg.inv(S)
S2 = S @ S
print(f"  inverse-square defect on the unitary orbit of S = "
      f"{core.opnorm(theta.theta(XU) - np.linalg.solve(S2, XU @ S2)):.3e}")

print(f"  functional-calculus route agrees: "
      f"{core.opnorm(TX - theta.theta_via_calculus(S, N)):.3e}")

print()
print("a matrix small enough to see: X = [[0, -2], [1/2, 0]]")
X2 = np.array([[0.0, -2.0], [0.5, 0.0]])
print("  theta(X) =")
print(np.round(theta.theta(X2), 10))

print()
print("oscillation near a repeated spectrum (no threshold; report only)")
X0 = np.diag([1.0, 1.0, 2.0]).astype(complex)
for scale in (1e-2, 1e-3, 1e-4):
    oscillation, _ = theta.theta_continuity_probe(X0, scale, samples=30, seed=0)
    print(f"  scale {scale:.0e}: max oscillation {oscillation:.3e}")
print("  random sampling rarely finds the discontinuity; the classification")
print("  residual in the next demo corners it instead")
