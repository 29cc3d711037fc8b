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


def _semisimple_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector matrices of a ``(k, n, n)`` stack of
    semisimple matrices; a matrix that is not semisimple raises."""
    w, P, cond, _ = core.eig_decompose_stack(A)
    core.check_rows([core.semisimplicity_check(cond)], cond=cond)
    return w, P


def _clusters(w, grouping_tol: float) -> list[tuple[complex, np.ndarray]]:
    """The eigenvalue clusters of one matrix as ``(representative, indices)``
    pairs; clusters closer than ``10 * grouping_tol`` are refused."""
    clusters = core.cluster_points(w, grouping_tol)
    reps = [complex(w[idx].mean()) for idx in clusters]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i] - reps[j]) <= 10.0 * grouping_tol:
                raise AmbiguousClustering(
                    "eigenvalue clusters are not separated by 10x the grouping tolerance"
                )
    return list(zip(reps, clusters))


def _idempotent(P, Pinv, idx) -> np.ndarray:
    """``P 1_idx P^{-1}``: the idempotent onto the eigenvector columns
    ``idx``, for one matrix or for each matrix of a stack."""
    mask = np.zeros(P.shape[-1])
    mask[idx] = 1.0
    return (P * mask) @ Pinv


def spectral_idempotents(T) -> list[tuple[complex, np.ndarray]]:
    """Spectral idempotents of a semisimple matrix: the pairs
    ``(lambda, E_lambda)``, one per eigenvalue cluster.

    Eigenvalues within ``DEFAULT_GROUPING_TOL`` of each other (single
    linkage) become one cluster with the summed idempotent; clusters must
    stay separated by more than ``10 * DEFAULT_GROUPING_TOL`` or the
    grouping is ambiguous and refused.
    """
    w, P = _semisimple_eig(core.as_matrix(T)[None])
    Pinv = np.linalg.inv(P[0])
    return [(rep, _idempotent(P[0], Pinv, idx))
            for rep, idx in _clusters(w[0], DEFAULT_GROUPING_TOL)]


def apply_function(T, f: Callable[[complex], complex],
                   grouping_tol: float = DEFAULT_GROUPING_TOL) -> np.ndarray:
    """``f(T) = sum f(lambda) E_lambda`` on a semisimple matrix, or on every
    matrix of a ``(k, n, n)`` stack at once.

    The construction is conjugation invariant:
    ``apply_function(S T S^-1, f) = S apply_function(T, f) S^-1`` up to
    conditioning-scaled rounding.  ``f`` is called once per eigenvalue
    cluster, on a complex scalar, matrix by matrix.  A matrix whose
    eigenvalues are all farther apart than the clustering could join is
    computed on the stack, bit for bit the sum over
    :func:`spectral_idempotents`; any other takes that sum itself.
    """
    A = core.as_matrix(T, stack=True)
    As = A if A.ndim == 3 else A[None]
    k = As.shape[0]
    w, P = _semisimple_eig(As)
    Pinv = np.linalg.inv(P)
    # singletons that no clustering joins or calls ambiguous
    simple = ~core.may_cluster(w, 10.0 * grouping_tol)
    if simple.all():
        out = _singleton_sum(w, P, Pinv, f)
    else:
        out = np.zeros_like(As)
        rows = np.flatnonzero(simple)
        if rows.size:
            out[rows] = _singleton_sum(w[rows], P[rows], Pinv[rows], f)
        for i in np.flatnonzero(~simple):
            try:
                pairs = _clusters(w[i], grouping_tol)
            except AmbiguousClustering as exc:
                raise AmbiguousClustering(core.stack_message(k, i, str(exc))) from None
            for rep, idx in pairs:
                out[i] += complex(f(rep)) * _idempotent(P[i], Pinv[i], idx)
    return out if A.ndim == 3 else out[0]


def _singleton_sum(w, P, Pinv, f) -> np.ndarray:
    """``sum_j f(lambda_j) E_j`` over the one-eigenvalue idempotents of each
    matrix of a stack, in the order and rounding of the cluster sum."""
    fw = np.array([[complex(f(complex(lam))) for lam in row] for row in w])
    out = np.zeros_like(P)
    for j in range(P.shape[-1]):
        out += fw[:, j, None, None] * _idempotent(P, Pinv, j)
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
    idempotent route.  A ``(k, n, n)`` stack runs each product once on the
    stack, bit for bit the one-matrix results.
    """
    A = core.as_matrix(T, stack=True)
    As = A if A.ndim == 3 else A[None]
    n = As.shape[-1]
    vals = np.linalg.eigvals(As)
    scale = 1.0 + core.opnorm(As)
    if n > 1:
        d = np.abs(vals[:, :, None] - vals[:, None, :])
        d[:, np.arange(n), np.arange(n)] = np.inf
        core.check_rows([(d.min(axis=(1, 2)) <= LAGRANGE_GAP_TOL * scale, AmbiguousClustering,
                          "interpolation oracle requires simple spectrum")])
    fv = np.array([[complex(f(v)) for v in row] for row in vals])
    eye = np.eye(n, dtype=complex)
    out = np.zeros_like(As)
    for i in range(n):
        term = fv[:, i, None, None] * eye
        for j in range(n):
            if j != i:
                term = (term @ (As - vals[:, j, None, None] * eye)
                        / (vals[:, i] - vals[:, j])[:, None, None])
        out += term
    return out if A.ndim == 3 else out[0]


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

# Each check draws every sample first, in sample order, taking the
# generator's numbers as a one-sample-at-a-time loop takes them; then the
# samples run as one stack, bit for bit the loop's defects.  So when several
# samples would fail, the error raised can come from another sample than the
# loop's first failure (a failed draw surfaces before any failed
# computation), though a failing sample raises the class the loop raises.

def closed_form_defect(rng, samples: int, fns) -> float:
    """Worst ``||calc_2x2_closed_form - apply_function||`` on random upper
    triangular 2x2 matrices with eigenvalues more than 0.2 apart."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    draws = []
    for _ in range(samples):
        l1, l2 = spaces.separated_pair(rng)
        draws.append((l1, l2, complex(rng.standard_normal() + 1j * rng.standard_normal())))
    T = np.array([[[l1, alpha], [0.0, l2]] for l1, l2, alpha in draws])
    defects = np.empty((samples, len(fns)))
    for j, f in enumerate(fns):
        closed = np.array([calc_2x2_closed_form(l1, l2, alpha, f) for l1, l2, alpha in draws])
        defects[:, j] = core.opnorm(closed - apply_function(T, f))
    return core.running_max(defects)


def interpolation_defect(rng, n: int, samples: int, fns) -> float:
    """Worst ``||apply_function - lagrange_apply|| / (1 + ||T||)`` on random
    semisimple n x n matrices."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    T = spaces._conjugated_diagonal(*spaces._stack_draws(
        [spaces._semisimple_draw(rng, n) for _ in range(samples)]))
    scale = 1.0 + core.opnorm(T)
    defects = np.empty((samples, len(fns)))
    for j, f in enumerate(fns):
        defects[:, j] = core.opnorm(apply_function(T, f) - lagrange_apply(T, f)) / scale
    return core.running_max(defects)


def conjugation_invariance_defect(rng, n: int, samples: int, fns) -> float:
    """Worst ``||f(S X S^-1) - S f(X) S^-1|| / ((1 + ||X||) cond(S)^2)`` on
    random semisimple X and bounded-condition S."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    xs, ss = [], []
    for _ in range(samples):
        xs.append(spaces._semisimple_draw(rng, n))
        ss.append(spaces._conjugator_draw(rng, n))
    X = spaces._conjugated_diagonal(*spaces._stack_draws(xs))
    S = spaces._conjugator(*spaces._stack_draws(ss))
    Sinv = np.linalg.inv(S)
    # the loop's scalar powers
    cond2 = np.array([c ** 2 for c in core.condition_numbers(S).tolist()])
    scale = (1.0 + core.opnorm(X)) * cond2
    defects = np.empty((samples, len(fns)))
    for j, f in enumerate(fns):
        lhs = apply_function(S @ X @ Sinv, f)
        rhs = S @ apply_function(X, f) @ Sinv
        defects[:, j] = core.opnorm(lhs - rhs) / scale
    return core.running_max(defects)


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
        if not np.isfinite(coeffs).all():
            raise ValueError(f"polynomial coefficients must be finite, got {name!r}")
        return lambda z: sum(c * z ** k for k, c in enumerate(coeffs))
    raise ValueError(f"unknown function tag {name!r}")
