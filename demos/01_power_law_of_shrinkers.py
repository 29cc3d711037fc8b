"""A continuous map that can only shrink spectra cannot shrink them at all.

We build the canonical shrinking map X -> S . blockdiag(X (x) I_p,
X^t (x) I_q) . S^{-1} from n x n to (p+q)n x (p+q)n matrices and measure
two things over seeded samples from several matrix spaces:

* the directed Hausdorff defect of sp(image) inside sp(source), and
* the coefficient defect of  k_image = k_source^(m/n).

Both sit at rounding level: the map does not merely shrink, it preserves,
and the characteristic polynomial is forced to be a perfect power.  On
the Hermitian space and the special unitary group the story changes:
collapsing onto a continuously selected eigenvalue shrinks spectra into
any target dimension, divisible or not.
"""

import numpy as np

from specshrink import core, shrinkers

rng = np.random.default_rng(0)
g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
S0 = np.eye(6) + 0.25 * g / core.opnorm(g)


def phi(X):
    return shrinkers.canonical_shrinker(X, 1, 1, S0)


print("canonical shrinker, n=3 -> m=6, (p,q)=(1,1), fixed random conjugator")
print(f"{'space':>8} {'inclusion defect':>18} {'power-law defect':>18}")
for space in ("mn", "gln", "sln", "un", "nn", "gln_ss", "sln_ss"):
    rep = shrinkers.verify_shrinker(phi, space, 3, 6, samples=100, seed=0)
    print(f"{space:>8} {rep.inclusion_defect:18.3e} {rep.powerlaw_defect:18.3e}")

print()
print("degenerate shrinkers where divisibility fails:")
hn = shrinkers.verify_shrinker(lambda X: shrinkers.degenerate_shrinker_hn(X, 5),
                               "hn", 2, 5, samples=100, seed=0)
print(f"  Hermitian 2x2 -> 5x5 (2 does not divide 5): "
      f"inclusion defect {hn.inclusion_defect:.3e}")
su = shrinkers.verify_shrinker(lambda U: shrinkers.degenerate_shrinker_sun(U, 4),
                               "sun", 3, 4, samples=100, seed=0)
print(f"  special unitary 3x3 -> 4x4 (3 does not divide 4): "
      f"inclusion defect {su.inclusion_defect:.3e}")

print()
print("a single diagonal example, fully expanded:")
X = np.diag([1.0, 2.0])
out = shrinkers.canonical_shrinker(X, 1, 1)
print("  source spectrum:", np.round(core.spectrum(X), 6))
print("  image spectrum: ", np.round(core.spectrum(out), 6))
print("  k_image coefficients:", np.round(core.char_poly(out), 10))
print("  k_source^2 coefficients:",
      np.round(core.poly_power(core.char_poly(X), 2), 10))
