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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core, selectors, spaces
from .errors import DimensionMismatch, Singular

#: Pinned thresholds of the batch check: the worst inclusion defect and the
#: worst power-law coefficient defect a shrinker may show, and the claims
#: they check, as every report states them.
INCLUSION_TOL = 1e-8
POWERLAW_TOL = 1e-7
INCLUSION_CLAIM = "image spectrum is contained in the source spectrum"
POWERLAW_CLAIM = "image characteristic polynomial is the m/n power of the source"


@dataclass(frozen=True)
class ShrinkReport:
    """Worst-case defects of a shrinking-map check over a seeded batch.

    ``inclusion_defect`` is the directed Hausdorff distance from the image
    spectrum into the source spectrum; ``powerlaw_defect`` the max
    coefficient modulus of ``k_phi(X) - k_X^(m/n)``, or None when n does
    not divide m and no power law is measured.
    """

    inclusion_defect: float
    powerlaw_defect: Optional[float]


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def fixed_conjugator(rng, m: int) -> np.ndarray:
    """``I + 0.25 G / ||G||`` for a complex Gaussian G: an m x m conjugator
    with condition number at most 5/3, constant in X and so continuous."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.eye(m) + 0.25 * g / core.opnorm(g)


def _kron_eye(A, p: int) -> np.ndarray:
    """``A (x) I_p`` for a matrix or each matrix of a stack: ``np.kron``'s
    own broadcast product, so its bits."""
    n = A.shape[-1]
    return (A[..., :, None, :, None] * np.eye(p)[:, None, :]).reshape(
        A.shape[:-2] + (n * p, n * p))


def _check_multiplicities(p: int, q: int) -> None:
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")


def canonical_shrinker(X, p: int, q: int, conjugator=None) -> np.ndarray:
    """``S . blockdiag(X (x) I_p, X^t (x) I_q) . S^{-1}``; every matrix of a
    ``(k, n, n)`` stack at once, bit for bit the one-matrix results.

    ``conjugator`` is None (identity) or a fixed (p+q)n x (p+q)n matrix S.
    Each eigenvalue's multiplicity is scaled by p + q.
    """
    A = core.as_matrix(X, stack=True)
    _check_multiplicities(p, q)
    k = p * A.shape[-1]
    m = (p + q) * A.shape[-1]
    B = np.zeros(A.shape[:-2] + (m, m), dtype=complex)
    B[..., :k, :k] = _kron_eye(A, p)
    B[..., k:, k:] = _kron_eye(np.swapaxes(A, -1, -2), q)
    if conjugator is None:
        return B
    S = core.as_matrix(conjugator)
    if S.shape[0] != m:
        raise DimensionMismatch(f"conjugator must be {m}x{m}, got {S.shape}")
    if core.numerically_singular(np.linalg.svd(S, compute_uv=False)):
        raise Singular("conjugator is numerically singular")
    return S @ B @ np.linalg.inv(S)


def _scalar_blocks(select_stack, X, m: int) -> np.ndarray:
    """``s(X) . I_m`` for the stacked selector ``select_stack``, on a matrix
    or on each matrix of a ``(k, n, n)`` stack."""
    A = core.as_matrix(X, stack=True)
    out = select_stack(A if A.ndim == 3 else A[None])[:, None, None] * np.eye(m, dtype=complex)
    return out if A.ndim == 3 else out[0]


def degenerate_shrinker_hn(X, m: int) -> np.ndarray:
    """``lambda_max(X) . I_m`` for Hermitian X, or each matrix of a stack.

    Shrinks spectra for every m, witnessing that the divisibility
    constraint fails on the Hermitian space.
    """
    return _scalar_blocks(selectors.hn_select_stack, X, m)


def degenerate_shrinker_sun(U, m: int) -> np.ndarray:
    """``s(U) . I_m`` with s the continuous special-unitary selector, for U
    or each matrix of a stack."""
    return _scalar_blocks(selectors.su_select_stack, U, m)


#: The stock shrinkers of :func:`make_shrinker`, by the command line's names.
SHRINKER_KINDS = ("canonical", "hn-max", "su-scalar")


def make_shrinker(kind: str, m: int | None = None, p: int | None = None,
                  q: int | None = None, conjugator=None):
    """One of the stock shrinkers as a map that opts in to stacked calls.

    ``canonical`` is :func:`canonical_shrinker` with ``p`` and ``q``
    (default 1 each) and ``conjugator``; its image size is ``(p + q) n``.
    ``hn-max`` and ``su-scalar`` are :func:`degenerate_shrinker_hn` and
    :func:`degenerate_shrinker_sun` onto ``I_m`` and need ``m``.  An
    argument the kind does not use, or multiplicities ``p``, ``q`` that
    :func:`canonical_shrinker` refuses, raise :class:`ValueError`.  The map
    takes a matrix or a ``(k, n, n)`` stack and carries ``stacked = True``,
    so :func:`verify_shrinker` calls it once per sample stack.
    """
    if kind not in SHRINKER_KINDS:
        raise ValueError(f"unknown shrinker {kind!r}; expected one of {SHRINKER_KINDS}")
    if kind == "canonical":
        if m is not None:
            raise ValueError("the canonical shrinker takes no m; its image size is (p + q) n")
        p = 1 if p is None else p
        q = 1 if q is None else q
        _check_multiplicities(p, q)

        def phi(X):
            return canonical_shrinker(X, p, q, conjugator)
    else:
        if m is None:
            raise ValueError(f"the {kind} shrinker needs the image size m")
        if p is not None or q is not None or conjugator is not None:
            raise ValueError(f"the {kind} shrinker takes no p, q or conjugator")
        degenerate = degenerate_shrinker_hn if kind == "hn-max" else degenerate_shrinker_sun

        def phi(X):
            return degenerate(X, m)
    phi.stacked = True
    return phi


# ---------------------------------------------------------------------------
# The batch check
# ---------------------------------------------------------------------------

def verify_shrinker(phi, space, n: int, m: int, samples: int = 100, seed: int = 0) -> ShrinkReport:
    """Inclusion and (when n | m) power-law defects in one seeded pass.

    When n does not divide m only degenerate shrinkers can exist; the
    report then has no power-law defect.

    The samples are drawn as one stack and handed to the black-box map
    through :func:`core.call_oracle`: once, for a map that opts in
    with ``stacked = True`` (:func:`make_shrinker`), else one sample at a
    time.  Spectra, inclusion defects and characteristic polynomials then
    run once on the ``(samples, ., .)`` stacks.
    """
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be positive, got n = {n}, m = {m}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    X = spaces.sample_stack(space, n, samples, np.random.default_rng(seed))
    Y = core.call_oracle(phi, X, m)

    inclusion = core.running_max(
        core.spectrum_inclusion_defect(core.spectrum(Y), core.spectrum(X)))
    powerlaw = None
    if m % n == 0:
        k = m // n
        powers = np.array([core.poly_power(c, k) for c in core.char_poly(X)])
        powerlaw = core.running_max(np.max(np.abs(core.char_poly(Y) - powers), axis=1))
    return ShrinkReport(inclusion, powerlaw)
