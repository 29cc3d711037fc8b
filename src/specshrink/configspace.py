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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core, spaces
from .errors import DegeneratePoints, UnsupportedDimension


def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def eta_cycle(n: int) -> tuple:
    """The full cycle i -> i + 1 mod n."""
    return tuple((i + 1) % n for i in range(n))


def inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _permutation_rows(n: int) -> np.ndarray:
    """All of S_n in lexicographic order, one int8 row per permutation: each
    first symbol f in turn, followed by S_(n-1) shifted past f."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    tail = _permutation_rows(n - 1)
    first = np.arange(n, dtype=np.int8)[:, None, None]
    rows = np.empty((n, len(tail), n), dtype=np.int8)
    rows[..., :1] = first
    rows[..., 1:] = tail + (tail >= first)
    return rows.reshape(-1, n)


@dataclass(frozen=True, eq=False)
class CirclePoints:
    """n distinct modulus-1 complex numbers."""

    z: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.z, dtype=complex).ravel()
        object.__setattr__(self, "z", v)
        if v.size == 0:
            raise DegeneratePoints("need at least one point")
        # written so that a NaN point fails both tests
        if not np.max(np.abs(np.abs(v) - 1.0)) <= 1e-10:
            raise DegeneratePoints("points must lie on the unit circle")
        if not core.min_gaps(v[None])[0] > 1e-8:
            raise DegeneratePoints("points must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.z.size


@dataclass(frozen=True)
class PermCoset:
    """A left coset tau<eta> in S_n, stored by its lex-minimal representative
    (the row :func:`coset_representatives` gives any tau of the coset)."""

    n: int
    rep: tuple

    def left_multiply(self, sigma: tuple) -> "PermCoset":
        return PermCoset(self.n, tuple(left_multiply_stack([sigma], self.rep)[0].tolist()))


def coset_representatives(taus: np.ndarray) -> np.ndarray:
    """Lex-minimal representatives of the cosets tau<eta>, one per row tau:
    ``tau eta^s`` reads tau cyclically from position s, so the least one
    starts at symbol 0."""
    n = taus.shape[1]
    return np.take_along_axis(taus, (np.argmin(taus, axis=1)[:, None] + np.arange(n)) % n, axis=1)


def left_multiply_stack(sigmas, rep: tuple) -> np.ndarray:
    """Representatives of the cosets ``sigma rep<eta>``, one per row sigma."""
    return coset_representatives(np.asarray(sigmas)[:, list(rep)])


def _classify_acted(pts: CirclePoints, sigmas) -> np.ndarray:
    """Components of ``sigma . pts``, one per row sigma (not validated again:
    the points are those of ``pts`` reordered), each read counterclockwise
    from the smallest principal argument in [0, 2 pi); another start changes
    the permutation by a power of eta, which the coset quotient absorbs."""
    acted = np.empty(np.shape(sigmas))
    np.put_along_axis(acted, np.asarray(sigmas), np.mod(np.angle(pts.z), 2.0 * np.pi), axis=1)
    return coset_representatives(np.argsort(acted, axis=1, kind="stable"))


def classify_component(pts: CirclePoints) -> PermCoset:
    """Coset of the permutation enumerating the points counterclockwise."""
    return PermCoset(pts.n, tuple(_classify_acted(pts, [identity_perm(pts.n)])[0].tolist()))


def act(sigma: tuple, pts: CirclePoints) -> CirclePoints:
    """Left action: output point j is input point sigma^{-1}(j)."""
    inv = inverse(tuple(sigma))
    return CirclePoints(pts.z[list(inv)])


def isotropy_of_component(pts: CirclePoints) -> set:
    """All permutations fixing the component of the given configuration.

    Exhaustive over S_n; the result is the conjugate of the cyclic group
    generated by eta by any coset representative.
    """
    sigmas = _permutation_rows(pts.n)
    fixed = (_classify_acted(pts, sigmas) == classify_component(pts).rep).all(axis=1)
    return {tuple(s) for s in sigmas[fixed].tolist()}


def expected_isotropy(coset: PermCoset) -> set:
    """``g <eta> g^{-1}`` for g the stored coset representative: row s of
    ``g[(g^{-1} + s) mod n]`` is ``g eta^s g^{-1}``."""
    shifts = (np.array(inverse(coset.rep)) + np.arange(coset.n)[:, None]) % coset.n
    return {tuple(r) for r in np.array(coset.rep)[shifts].tolist()}


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
    if n < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    exhaustive = n <= EXHAUSTIVE_MAX_N
    table = _permutation_rows(n) if exhaustive else None
    equivariance = isotropy = 0
    for _ in range(trials):
        pts = CirclePoints(spaces.circle_points(rng, n, 0.15))
        base = classify_component(pts)
        sigmas = (table if exhaustive
                  else np.array([rng.permutation(n) for _ in range(RANDOM_PERMUTATIONS)]))
        reps = _classify_acted(pts, sigmas)
        equivariance += int((reps != left_multiply_stack(sigmas, base.rep)).any(axis=1).sum())
        if exhaustive:
            iso = {tuple(s) for s in sigmas[(reps == base.rep).all(axis=1)].tolist()}
            if iso != expected_isotropy(base) or len(iso) != n:
                isotropy += 1
    return equivariance, (isotropy if exhaustive else None)


def verify_cycle_decomposition(n: int) -> bool:
    """Exhaustively check the shift-transposition factorization.

    For every theta in S_n and every transposition sigma there must exist
    a power s with ``theta eta^s theta^{-1} = sigma' sigma`` where sigma'
    fixes one of the two symbols moved by sigma.  The conjugate
    ``c = theta eta theta^{-1}`` only depends on theta through the coset
    theta<eta>, and since eta is the full n-cycle each coset holds exactly
    one theta with ``theta(0) = 0``; those (n-1)! thetas give every
    conjugate once.  ``sigma' = c^s sigma`` fixes a iff ``c^s(b) = a`` and
    fixes b iff ``c^s(a) = b``, for sigma = (a b).

    Runs on the (n-1)! representatives at once, one int8 row per
    permutation: conjugates by indexing, then a table ``hit[c, x, y]`` of
    whether some power ``c^s`` (s = 1..n-1) sends y to x.
    """
    if not 2 <= n <= 8:
        raise ValueError("exhaustive range is 2 <= n <= 8")
    eta = eta_cycle(n)
    thetas = np.insert(_permutation_rows(n - 1) + 1, 0, 0, axis=1)  # theta(0) = 0
    c = np.empty_like(thetas)
    np.put_along_axis(c, thetas, thetas[:, list(eta)], axis=1)  # c(theta(j)) = theta(eta(j))
    hit = np.zeros((len(c), n, n), dtype=bool)
    power = c
    for _ in range(n - 1):
        np.put_along_axis(hit, power[:, None, :], True, axis=1)  # hit[c, c^s(y), y]
        power = np.take_along_axis(c, power, axis=1)
    a, b = np.triu_indices(n, 1)
    return bool((hit[:, a, b] | hit[:, b, a]).all())
