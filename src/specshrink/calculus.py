"""Functional calculus on semisimple matrices.

A semisimple T decomposes as ``T = sum lambda E_lambda`` with idempotents
``E_lambda`` (image = the lambda-eigenspace, commuting with T, summing to
the identity), and ``f(T) = sum f(lambda) E_lambda`` for any f defined on
the spectrum.  The idempotents here come from the eigenvector matrix;
:func:`lagrange_apply` provides the independent interpolation route used
to cross-check it.

The calculus is famously discontinuous at matrices with repeated
eigenvalues even for continuous f; :func:`continuity_probe` measures that
empirically and the tests construct the explicit 2x2 blow-up witness.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import core, spaces
from .errors import (
    AmbiguousClustering,
    EqualEigenvalues,
    NotSemisimple,
)

DEFAULT_GROUPING_TOL = 1e-6

#: Smallest eigenvalue gap, relative to ``1 + ||T||``, of :func:`lagrange_apply`.
LAGRANGE_GAP_TOL = 1e-8

#: Pinned thresholds of the cross-checks below.
CLOSED_FORM_TOL = 1e-10
INTERPOLATION_TOL = 1e-6
INVARIANCE_TOL = 1e-6


def spectral_idempotents(T, grouping_tol: float = DEFAULT_GROUPING_TOL
                         ) -> list[tuple[complex, np.ndarray]]:
    """Spectral idempotents of a semisimple matrix: the pairs
    ``(lambda, E_lambda)``, one per eigenvalue cluster.

    Eigenvalues within ``grouping_tol`` of each other (single linkage)
    become one cluster with the summed idempotent; clusters must stay
    separated by more than ``10 * grouping_tol`` or the grouping is
    ambiguous and refused.
    """
    ed = core.eig_decompose(T)
    if not ed.semisimple:
        raise NotSemisimple(
            f"eigenvector condition {ed.condition:.3e} exceeds the semisimplicity cap"
        )
    clusters = core.cluster_points(ed.eigenvalues, grouping_tol)
    reps = [complex(ed.eigenvalues[idx].mean()) for idx in clusters]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i] - reps[j]) <= 10.0 * grouping_tol:
                raise AmbiguousClustering(
                    "eigenvalue clusters are not separated by 10x the grouping tolerance"
                )
    P = ed.vectors
    Pinv = np.linalg.inv(P)
    pairs = []
    for rep, idx in zip(reps, clusters):
        mask = np.zeros(ed.eigenvalues.size)
        mask[idx] = 1.0
        E = (P * mask) @ Pinv
        pairs.append((rep, E))
    return pairs


def apply_function(T, f: Callable[[complex], complex],
                   grouping_tol: float = DEFAULT_GROUPING_TOL) -> np.ndarray:
    """``f(T) = sum f(lambda) E_lambda`` on a semisimple matrix.

    The construction is conjugation invariant:
    ``apply_function(S T S^-1, f) = S apply_function(T, f) S^-1`` up to
    conditioning-scaled rounding.
    """
    pairs = spectral_idempotents(T, grouping_tol)
    out = np.zeros_like(pairs[0][1])
    for lam, E in pairs:
        out += complex(f(lam)) * E
    return out


def calc_2x2_closed_form(lambda1: complex, lambda2: complex, alpha: complex,
                         f: Callable[[complex], complex]) -> np.ndarray:
    """Closed form of f on ``[[l1, a], [0, l2]]`` with distinct eigenvalues.

    The off-diagonal is the difference quotient
    ``a (f(l2) - f(l1)) / (l2 - l1)``; letting it blow up while the matrix
    converges is the standard discontinuity witness.
    """
    l1, l2, a = complex(lambda1), complex(lambda2), complex(alpha)
    if l1 == l2:
        raise EqualEigenvalues("closed form requires distinct eigenvalues")
    off = a * (complex(f(l2)) - complex(f(l1))) / (l2 - l1)
    return np.array([[complex(f(l1)), off], [0.0, complex(f(l2))]], dtype=complex)


def lagrange_apply(T, f: Callable[[complex], complex]) -> np.ndarray:
    """f(T) through the Lagrange product formula; eigenvector-free oracle.

    ``f(T) = sum_i f(l_i) prod_{j != i} (T - l_j I) / (l_i - l_j)`` for
    simple spectrum.  Uses eigenvalues only, so it is independent of the
    idempotent route.
    """
    A = core.as_matrix(T)
    n = A.shape[0]
    vals = np.linalg.eigvals(A)
    scale = 1.0 + core.opnorm(A)
    d = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(d, np.inf)
    if n > 1 and d.min() <= LAGRANGE_GAP_TOL * scale:
        raise AmbiguousClustering("interpolation oracle requires simple spectrum")
    eye = np.eye(n, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        term = complex(f(vals[i])) * eye
        for j in range(n):
            if j != i:
                term = term @ (A - vals[j] * eye) / (vals[i] - vals[j])
        out += term
    return out


def perturbation_probe(F, X0, scale: float, samples: int, rng,
                       rejections) -> tuple[float, int]:
    """Max ``||F(X0 + D) - F(X0)||`` over complex Gaussian D of operator norm
    ``scale``, and the number of draws skipped because F raised one of
    ``rejections``; gives up with :class:`NotSemisimple` at
    ``spaces.MAX_TRIES`` skipped draws."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"the perturbation scale must be finite and positive, got {scale}")
    A = core.as_matrix(X0)
    n = A.shape[0]
    g = np.random.default_rng(rng)
    base = F(A)
    worst = 0.0
    produced = 0
    rejected = 0
    while produced < samples:
        D = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        D *= scale / core.opnorm(D)
        try:
            val = F(A + D)
        except rejections:
            rejected += 1
            if rejected == spaces.MAX_TRIES:
                raise NotSemisimple("perturbation resampling budget exhausted")
            continue
        produced += 1
        worst = max(worst, core.opnorm(val - base))
    return worst, rejected


def continuity_probe(T, f: Callable[[complex], complex], scale: float,
                     samples: int = 50, rng=None) -> float:
    """Max ``||f(T + D) - f(T)||`` over random semisimple perturbations.

    Perturbations have operator norm exactly ``scale``; draws landing on a
    non-semisimple or ambiguously clustered matrix are resampled.  For T
    with simple spectrum and continuous f the deviation vanishes with
    scale; at repeated eigenvalues adversarial directions (constructed in
    the tests, not sampled here) make it blow up.
    """
    worst, _ = perturbation_probe(lambda A: apply_function(A, f), T, scale, samples,
                                  rng, (NotSemisimple, AmbiguousClustering))
    return worst


# ---------------------------------------------------------------------------
# Cross-checks over seeded samples
# ---------------------------------------------------------------------------

def closed_form_defect(rng, samples: int, fns) -> float:
    """Worst ``||calc_2x2_closed_form - apply_function||`` on random upper
    triangular 2x2 matrices with eigenvalues more than 0.2 apart."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    worst = 0.0
    for _ in range(samples):
        l1, l2 = spaces.separated_pair(rng)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        T = np.array([[l1, alpha], [0.0, l2]])
        for f in fns:
            worst = max(worst, core.opnorm(calc_2x2_closed_form(l1, l2, alpha, f)
                                           - apply_function(T, f)))
    return worst


def interpolation_defect(rng, n: int, samples: int, fns) -> float:
    """Worst ``||apply_function - lagrange_apply|| / (1 + ||T||)`` on random
    semisimple n x n matrices."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    worst = 0.0
    for _ in range(samples):
        T = spaces.semisimple_sample(rng, n)
        for f in fns:
            d = core.opnorm(apply_function(T, f) - lagrange_apply(T, f))
            worst = max(worst, d / (1.0 + core.opnorm(T)))
    return worst


def conjugation_invariance_defect(rng, n: int, samples: int, fns) -> float:
    """Worst ``||f(S X S^-1) - S f(X) S^-1|| / ((1 + ||X||) cond(S)^2)`` on
    random semisimple X and bounded-condition S."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    worst = 0.0
    for _ in range(samples):
        X = spaces.semisimple_sample(rng, n)
        S = spaces.bounded_conjugator(rng, n)
        Sinv = np.linalg.inv(S)
        scale = (1.0 + core.opnorm(X)) * float(np.linalg.cond(S, 2)) ** 2
        for f in fns:
            lhs = apply_function(S @ X @ Sinv, f)
            rhs = S @ apply_function(X, f) @ Sinv
            worst = max(worst, core.opnorm(lhs - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# Named scalar functions for the command line
# ---------------------------------------------------------------------------

def sqrt_shift(z: complex) -> float:
    """``sqrt(|z - 1|)``: continuous, not Lipschitz at 1.

    The non-Lipschitz point is what drives the repeated-eigenvalue
    blow-up witness.
    """
    return float(np.sqrt(abs(z - 1.0)))


def named_function(name: str) -> Callable[[complex], complex]:
    """Resolve a function tag: conj, identity, square, sqrt-shift, poly:<c0,c1,...>."""
    tag = name.strip().lower()
    if tag == "conj":
        return np.conj
    if tag == "identity":
        return lambda z: z
    if tag == "square":
        return lambda z: z * z
    if tag in ("sqrt-shift", "sqrt_shift"):
        return sqrt_shift
    if tag.startswith("poly:"):
        coeffs = [complex(c) for c in tag.split(":", 1)[1].split(",")]
        return lambda z: sum(c * z ** k for k, c in enumerate(coeffs))
    raise ValueError(f"unknown function tag {name!r}")
