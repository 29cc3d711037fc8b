"""Spectrum-shrinking maps and the checks that probe them.

The canonical shrinker sends an n x n matrix X to a conjugated block
diagonal of p copies of X and q copies of X^t, giving an (p+q)n x (p+q)n
matrix whose characteristic polynomial is the (p+q)-th power of X's.  The
degenerate shrinkers on Hermitian and special unitary inputs collapse
everything onto a single continuously selected eigenvalue, which is what
makes the divisibility constraint fail on those spaces.

Checks evaluate a black-box map on seeded samples and report worst-case
defects.  The harness never introspects the map; continuity is the
caller's contract, probed only pathwise elsewhere.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import core, selectors, spaces
from .errors import DimensionMismatch, SingularConjugator

DEFAULT_SAMPLES = 100
DEFAULT_SEED = 0

#: Pinned thresholds of the batch check: the worst inclusion defect and the
#: worst power-law coefficient defect a shrinker may show.
INCLUSION_TOL = 1e-8
POWERLAW_TOL = 1e-7


@dataclass(frozen=True)
class ShrinkReport:
    """Worst-case defects of a shrinking-map check over a seeded batch.

    ``inclusion_defect`` is the directed Hausdorff distance from the image
    spectrum into the source spectrum; ``powerlaw_defect`` the max
    coefficient modulus of ``k_phi(X) - k_X^(m/n)``.  ``None`` means the
    quantity was not measured (e.g. power law with n not dividing m, in
    which case ``divisible`` is False).
    """

    space: str
    n: int
    m: int
    sample_count: int
    seed: int
    inclusion_defect: Optional[float]
    powerlaw_defect: Optional[float]
    divisible: bool

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def fixed_conjugator(rng, m: int) -> np.ndarray:
    """``I + 0.25 G / ||G||`` for a complex Gaussian G: an m x m conjugator
    with condition number at most 5/3, constant in X and so continuous."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.eye(m) + 0.25 * g / core.opnorm(g)


def canonical_shrinker(X, p: int, q: int, conjugator=None) -> np.ndarray:
    """``S . blockdiag(X (x) I_p, X^t (x) I_q) . S^{-1}``.

    ``conjugator`` is None (identity) or a fixed (p+q)n x (p+q)n matrix S.
    Each eigenvalue's multiplicity is scaled by p + q.
    """
    A = core.as_matrix(X)
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    k = p * A.shape[0]
    m = (p + q) * A.shape[0]
    B = np.zeros((m, m), dtype=complex)
    B[:k, :k] = np.kron(A, np.eye(p))
    B[k:, k:] = np.kron(A.T, np.eye(q))
    if conjugator is None:
        return B
    S = core.as_matrix(conjugator)
    if S.shape[0] != m:
        raise DimensionMismatch(f"conjugator must be {m}x{m}, got {S.shape}")
    sv = np.linalg.svd(S, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise SingularConjugator("conjugator is numerically singular")
    return S @ B @ np.linalg.inv(S)


def degenerate_shrinker_hn(X, m: int) -> np.ndarray:
    """``lambda_max(X) . I_m`` for Hermitian X.

    Shrinks spectra for every m, witnessing that the divisibility
    constraint fails on the Hermitian space.
    """
    return selectors.hn_select(X) * np.eye(m, dtype=complex)


def degenerate_shrinker_sun(U, m: int) -> np.ndarray:
    """``s(U) . I_m`` with s the continuous special-unitary selector."""
    val = selectors.su_select(U)
    return val * np.eye(m, dtype=complex)


# ---------------------------------------------------------------------------
# The batch check
# ---------------------------------------------------------------------------

def verify_shrinker(phi, space, n: int, m: int, samples: int = DEFAULT_SAMPLES,
                    seed: int = DEFAULT_SEED) -> ShrinkReport:
    """Inclusion and (when n | m) power-law defects in one seeded pass.

    When n does not divide m only degenerate shrinkers can exist; the
    report then has ``divisible=False`` and no power-law defect.
    """
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be positive, got n = {n}, m = {m}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sid = spaces.SpaceId.parse(space)
    rng = np.random.default_rng(seed)
    xs = [spaces.sample(sid, n, rng) for _ in range(samples)]
    ys = []
    for X in xs:
        Y = core.call_oracle(phi, X)
        if Y.shape != (m, m):
            raise DimensionMismatch(f"oracle output is {Y.shape}, expected ({m}, {m})")
        ys.append(Y)

    inclusion = 0.0
    for X, Y in zip(xs, ys):
        d = core.spectrum_inclusion_defect(core.spectrum(Y), core.spectrum(X))
        inclusion = max(inclusion, d)
    powerlaw = None
    if m % n == 0:
        k = m // n
        powerlaw = 0.0
        for X, Y in zip(xs, ys):
            d = float(np.max(np.abs(core.char_poly(Y) - core.poly_power(core.char_poly(X), k))))
            powerlaw = max(powerlaw, d)
    return ShrinkReport(
        space=sid.value,
        n=n,
        m=m,
        sample_count=samples,
        seed=seed,
        inclusion_defect=inclusion,
        powerlaw_defect=powerlaw,
        divisible=(m % n == 0),
    )
