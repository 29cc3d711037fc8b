"""Connected components of the circle's configuration space, their
symmetric-group structure, and the cyclic-shift combinatorial identity.

Permutations are 0-indexed tuples in one-line form: ``sigma[i]`` is the
image of ``i``.  The distinguished n-cycle ``eta`` maps ``i`` to
``i + 1 mod n``.  Components of the space of n distinct circle points are
classified by the left coset of the permutation reading the points off
counterclockwise, taken modulo the cyclic group generated by eta (the
traversal start is arbitrary, which is exactly that quotient).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spaces
from .errors import DegeneratePoints

Perm = tuple


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def eta_cycle(n: int) -> Perm:
    """The full cycle i -> i + 1 mod n."""
    return tuple((i + 1) % n for i in range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def all_permutations(n: int):
    return itertools.permutations(range(n))


@dataclass(frozen=True)
class CirclePoints:
    """n distinct modulus-1 complex numbers."""

    z: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.z, dtype=complex).ravel()
        object.__setattr__(self, "z", v)
        if v.size == 0:
            raise DegeneratePoints("need at least one point")
        if np.max(np.abs(np.abs(v) - 1.0)) > 1e-10:
            raise DegeneratePoints("points must lie on the unit circle")
        if v.size > 1:
            d = np.abs(v[:, None] - v[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() <= 1e-8:
                raise DegeneratePoints("points must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.z.size

    def __eq__(self, other):
        return isinstance(other, CirclePoints) and np.array_equal(self.z, other.z)


@dataclass(frozen=True)
class PermCoset:
    """A left coset tau<eta> in S_n, stored by its lex-minimal representative."""

    n: int
    rep: Perm

    @classmethod
    def of(cls, n: int, tau: Perm) -> "PermCoset":
        eta = eta_cycle(n)
        best = tau
        cur = tau
        for _ in range(n - 1):
            cur = compose(cur, eta)
            if cur < best:
                best = cur
        return cls(n, tuple(best))

    def contains(self, sigma: Perm) -> bool:
        return PermCoset.of(self.n, tuple(sigma)) == self

    def left_multiply(self, sigma: Perm) -> "PermCoset":
        return PermCoset.of(self.n, compose(tuple(sigma), self.rep))


def classify_component(pts: CirclePoints) -> PermCoset:
    """Coset of the permutation enumerating the points counterclockwise.

    The traversal starts at the point of smallest principal argument in
    [0, 2 pi); starting anywhere else changes the permutation by a power
    of eta, which the coset quotient absorbs.
    """
    angles = np.mod(np.angle(pts.z), 2.0 * np.pi)
    tau = tuple(int(i) for i in np.argsort(angles, kind="stable"))
    return PermCoset.of(pts.n, tau)


def act(sigma: Perm, pts: CirclePoints) -> CirclePoints:
    """Left action: output point j is input point sigma^{-1}(j)."""
    inv = inverse(tuple(sigma))
    return CirclePoints(pts.z[list(inv)])


def isotropy_of_component(pts: CirclePoints) -> set:
    """All permutations fixing the component of the given configuration.

    Exhaustive over S_n; the result is the conjugate of the cyclic group
    generated by eta by any coset representative.
    """
    base = classify_component(pts)
    return {
        sigma
        for sigma in all_permutations(pts.n)
        if classify_component(act(sigma, pts)) == base
    }


def expected_isotropy(coset: PermCoset) -> set:
    """``g <eta> g^{-1}`` for g the stored coset representative."""
    n = coset.n
    g = coset.rep
    ginv = inverse(g)
    eta = eta_cycle(n)
    out = set()
    cur = identity_perm(n)
    for _ in range(n):
        out.add(compose(g, compose(cur, ginv)))
        cur = compose(cur, eta)
    return out


#: Largest n whose checks run over all of S_n; above it equivariance is
#: tested on random permutations and isotropy is not tested.
EXHAUSTIVE_MAX_N = 6
RANDOM_PERMUTATIONS = 200

#: Failure counts are reported as defects against this threshold, so a
#: single failure fails the check.
FAILURE_TOL = 0.5


def classification_failures(rng, n: int, trials: int) -> tuple[int, Optional[int]]:
    """Equivariance and isotropy failures over random configurations.

    Each trial draws n circle points 0.15 apart and counts the
    permutations sigma with ``classify(sigma . pts) != sigma . classify(pts)``
    and whether the isotropy of the component differs from the conjugated
    cyclic group of order n.  For n above ``EXHAUSTIVE_MAX_N`` equivariance
    is tested on random permutations and the isotropy count is None.
    """
    exhaustive = n <= EXHAUSTIVE_MAX_N
    equivariance = isotropy = 0
    for _ in range(trials):
        pts = CirclePoints(spaces.circle_points(rng, n, 0.15))
        base = classify_component(pts)
        sigmas = (all_permutations(n) if exhaustive
                  else [tuple(rng.permutation(n)) for _ in range(RANDOM_PERMUTATIONS)])
        for sigma in sigmas:
            if classify_component(act(sigma, pts)) != base.left_multiply(sigma):
                equivariance += 1
        if exhaustive:
            iso = isotropy_of_component(pts)
            if iso != expected_isotropy(base) or len(iso) != n:
                isotropy += 1
    return equivariance, (isotropy if exhaustive else None)


def verify_cycle_decomposition(n: int) -> bool:
    """Exhaustively check the shift-transposition factorization.

    For every theta in S_n and every transposition sigma there must exist
    a power s with ``theta eta^s theta^{-1} = sigma' sigma`` where sigma'
    fixes one of the two symbols moved by sigma.  The conjugate
    ``c = theta eta theta^{-1}`` only depends on theta through the coset
    theta<eta>, so distinct conjugates enumerate all of S_n without
    redundancy.  ``sigma' = c^s sigma`` fixes a iff ``c^s(b) = a`` and
    fixes b iff ``c^s(a) = b``, for sigma = (a b).
    """
    if not 2 <= n <= 8:
        raise ValueError("exhaustive range is 2 <= n <= 8")
    eta = eta_cycle(n)
    seen = set()
    transpositions = list(itertools.combinations(range(n), 2))
    for theta in all_permutations(n):
        c = compose(compose(theta, eta), inverse(theta))
        if c in seen:
            continue
        seen.add(c)
        powers = []
        cur = c
        for _ in range(n - 1):
            powers.append(cur)
            cur = compose(c, cur)
        for a, b in transpositions:
            if not any(p[b] == a or p[a] == b for p in powers):
                return False
    return True
