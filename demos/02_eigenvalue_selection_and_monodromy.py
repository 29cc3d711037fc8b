"""Where a continuous choice of eigenvalue exists, and where it cannot.

On the special unitary group a continuous eigenvalue selection exists:
sort the eigenvalue angles into the fundamental domain
{ sum x_j = 0, x_1 <= ... <= x_n <= x_1 + 1 } and exponentiate the first
coordinate.  We sweep it along a one-parameter subgroup path and watch
the jumps stay tiny.

On all of GL(n) or near a nilpotent Jordan block no such selection can
exist: driving the corner parameter z of the companion-style matrix
around a loop permutes the n eigenvalue branches in a single n-cycle, so
any would-be selector comes back to a different value than it left with.
"""

import numpy as np

from specshrink import selectors

rng = np.random.default_rng(7)

print("continuous selection on the special unitary group (n = 3)")
[path] = selectors.su_paths(rng, 3, 1, 1000, 1e-3)
print(f"  1000 steps of size 1e-3, max consecutive jump {path.max_jump:.3e}")
print(f"  selected value stays on the spectrum within {path.spectral_defect:.3e}")

print()
print("the fundamental-domain representative at work:")
V = np.diag([1j, 1j, -1.0])
rep = selectors.su_representative(V)
print(f"  diag(i, i, -1) has angle point {np.round(rep, 6)} "
      f"and selector value {np.round(selectors.su_select(V), 6)}")

print()
print("monodromy around the nilpotent block")
for n in (2, 3, 4):
    res = selectors.monodromy_xz(n, 1.0, steps=max(64 * n, 256))
    ratio = res.ratios()[0]
    print(f"  n={n}: permutation {res.permutation}, single cycle: "
          f"{res.is_single_cycle()}, root ratio after the loop "
          f"{np.round(ratio, 6)} (expect exp(2 pi i / {n}))")

print()
print("one tracked branch, start to finish (n = 3):")
res = selectors.monodromy_xz(3, 1.0, 256)
print("  start: ", np.round(res.values[0, 0], 6))
print("  middle:", np.round(res.values[128, 0], 6))
print("  end:   ", np.round(res.values[-1, 0], 6))
