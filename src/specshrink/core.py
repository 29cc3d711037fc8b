"""Dense complex matrix primitives: eigendecomposition, characteristic
polynomials, polar decomposition, subspaces and spectrum comparison; and
:class:`CheckResult`, the record every check reports.

Conventions
-----------
* Matrices are square ``complex128`` numpy arrays, validated by
  :func:`as_matrix` (square, finite entries).
* Spectra are 1-d complex arrays in canonical order, lexicographic by
  (real part, imaginary part).  The order is a reproducibility device only.
* :func:`opnorm`, :func:`spectrum`, :func:`char_poly`,
  :func:`polar_decompose` and :func:`spectrum_inclusion_defect` also take a
  ``(k, n, n)`` stack (``(k, .)`` spectra) and answer row by row, bit for
  bit as one call per matrix would; :func:`eig_decompose_stack` is the one
  eigendecomposition, on stacks.  A bad matrix in a stack raises the class
  the one-matrix call raises, naming ``matrix i of the stack``.
* ``||.||`` is the operator 2-norm unless a docstring says otherwise.
* Tolerances are absolute-relative hybrids ``tol * (1 + ||X||)`` unless
  stated otherwise.

All functions are pure; nothing here owns mutable state.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySpectrum,
    NotSemisimple,
    NumericalFailure,
    OracleFailure,
    Singular,
    SizeMismatch,
)

#: Condition-number cap used as the numerical surrogate for semisimplicity.
#: A matrix counts as semisimple when some computed eigenvector matrix has
#: condition number at most ``1 / DEFAULT_EIG_TOL``.
DEFAULT_EIG_TOL = 1e-8

#: Relative singular-value cuts of :func:`numerically_singular` (the one
#: invertibility test) and :meth:`Subspace.from_span` (rank); the
#: orthonormality bound of a :class:`Subspace` basis; the relative and
#: absolute null-space cut of :func:`kernel`.
SINGULAR_TOL = 1e-12
RANK_TOL = 1e-10
ORTHONORMAL_TOL = 1e-8
KERNEL_TOL = 1e-6


def stack_message(k: int, i: int, text: str) -> str:
    """``text`` about matrix i of a stack of k; a stack of one keeps the
    bare text, so its messages are the one-matrix call's."""
    return text if k == 1 else f"matrix {i} of the stack: {text}"


def check_rows(checks, **values):
    """Raise for the first matrix of a stack that fails a check.

    ``checks`` are ``(failed, exception class, message)`` triples with one
    verdict per matrix, in the order a one-matrix call tests them.  The
    first failing matrix raises the class and message of the first check
    it fails; ``{name}`` fields in the message take ``values[name][i]``.
    """
    if not any(failed.any() for failed, _, _ in checks):
        return
    bad = np.logical_or.reduce([failed for failed, _, _ in checks])
    i = int(np.argmax(bad))
    _, exc, text = next(c for c in checks if c[0][i])
    text = text.format(**{name: v[i] for name, v in values.items()})
    raise exc(stack_message(len(bad), i, text))


def as_matrix(X, stack: bool = False) -> np.ndarray:
    """Validate and return ``X`` as a square finite complex matrix; with
    ``stack``, a ``(k, n, n)`` stack of them passes too."""
    A = np.asarray(X, dtype=complex)
    if A.ndim not in ((2, 3) if stack else (2,)) or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        finite = np.isfinite(A).all(axis=(-2, -1)).reshape(-1)
        check_rows([(~finite, DimensionMismatch, "matrix entries must be finite")])
    return A


def adjoint(A) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(np.conj(A), -1, -2)


def diagonals(lam) -> np.ndarray:
    """The ``(k, n, n)`` stack of diagonal matrices with ``(k, n)``
    diagonals ``lam``.

    Conjugating through an explicit diagonal keeps the bits of
    ``c @ np.diag(lam) @ inv(c)``; scaling the columns of ``c`` instead
    rounds differently.
    """
    k, n = lam.shape
    D = np.zeros((k, n, n), dtype=complex)
    D[:, np.arange(n), np.arange(n)] = lam
    return D


def running_max(values) -> float:
    """Every check's worst defect: ``max(0, v_1, v_2, ...)`` over an array of
    any shape, and NaN when any value is NaN, so that the check fails."""
    return float(np.max(np.asarray(values, dtype=float), initial=0.0))


@dataclass(frozen=True)
class CheckResult:
    """One check: its claim, worst defect, threshold and verdict.

    ``criterion`` is the acceptance criterion number, or None for a
    command line check.
    """

    criterion: Optional[int]
    name: str
    claim: str
    passed: bool
    defect: Optional[float]
    threshold: Optional[float]
    details: dict = field(default_factory=dict)

    @classmethod
    def of(cls, criterion, name, claim, defect, threshold, details=None, passed=None):
        """Build a result; ``passed`` defaults to ``defect <= threshold``."""
        if passed is None:
            passed = defect is not None and defect <= threshold
        return cls(criterion, name, claim, bool(passed),
                   None if defect is None else float(defect),
                   None if threshold is None else float(threshold),
                   details or {})

    def to_dict(self) -> dict:
        return asdict(self)


def call_oracle(phi, X, m: int) -> np.ndarray:
    """``phi(X)`` as a validated ``m x m`` matrix, or as the ``(k, m, m)``
    stack of ``phi`` on each matrix of a ``(k, n, n)`` stack ``X``: the one
    way a black-box map is evaluated.

    A map that opts in with a true ``stacked`` attribute gets a stack in one
    call, and fails as that one call; any other map gets one call per
    matrix, in order, and the first failing matrix raises its one-matrix
    error.  Any exception the map raises, or an output that is not finite
    and square, becomes :class:`OracleFailure`; an output of another shape
    raises :class:`DimensionMismatch`.  The harness never looks inside the
    map beyond that attribute.
    """
    want = np.shape(X)[:-2] + (m, m)
    if len(want) == 3 and not getattr(phi, "stacked", False):
        out = np.empty(want, dtype=complex)
        for i, x in enumerate(X):
            out[i] = call_oracle(phi, x, m)
        return out
    try:
        Y = as_matrix(phi(X), stack=len(want) == 3)
    except Exception as exc:
        raise OracleFailure(f"oracle raised on an input: {exc!r}") from exc
    if Y.shape != want:
        raise DimensionMismatch(f"oracle output is {Y.shape}, expected {want}")
    # contiguous, as a stack filled one matrix at a time is, so later
    # products round alike
    return np.ascontiguousarray(Y)


def right_divide(A, S) -> np.ndarray:
    """``A S^{-1}`` without forming the inverse; ``A`` and ``S`` may be
    ``(k, n, n)`` stacks."""
    return np.swapaxes(np.linalg.solve(np.swapaxes(S, -1, -2), np.swapaxes(A, -1, -2)),
                       -1, -2)


def opnorm(X):
    """Operator 2-norm (largest singular value); the ``(k,)`` norms of a
    ``(k, n, n)`` stack."""
    A = np.asarray(X, dtype=complex)
    if A.size == 0:
        return np.zeros(A.shape[:-2]) if A.ndim == 3 else 0.0
    # the singular values come sorted, so this is np.linalg.norm(A, 2)
    # bit for bit, without its axis handling (half the cost at n <= 8)
    try:
        norms = np.linalg.svd(A, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("SVD did not converge") from exc
    return norms if A.ndim == 3 else float(norms)


def canonical_spectrum(values) -> np.ndarray:
    """Sort eigenvalues lexicographically by (Re, Im); a 2-d array is
    sorted row by row."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2:
        arr = arr.ravel()
    order = np.lexsort((arr.imag, arr.real), axis=-1)
    return np.take_along_axis(arr, order, axis=-1)


def spectrum(X) -> np.ndarray:
    """Eigenvalues of ``X`` in canonical order (multiset with multiplicity);
    the ``(k, n)`` spectra of a ``(k, n, n)`` stack."""
    A = as_matrix(X, stack=True)
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigenvalue computation did not converge") from exc
    return canonical_spectrum(vals)


def min_gaps(w) -> np.ndarray:
    """The ``(k,)`` smallest pairwise distances within the rows of the
    ``(k, n)`` values ``w``, by numpy's array ``abs``; ``inf`` for a row of
    fewer than two values."""
    k, n = w.shape
    d = np.abs(w[:, :, None] - w[:, None, :]).reshape(k, n * n)
    d[:, ::n + 1] = np.inf  # the diagonal
    return d.min(axis=1, initial=np.inf)


def cluster_points(values, tol: float) -> list[np.ndarray]:
    """Single-linkage clusters of complex points at linking distance ``tol``.

    Returns index arrays, ordered by least index, members ascending; two
    points land in one cluster when a chain of steps each at most ``tol``
    long by numpy's array ``abs`` connects them.  Each point takes the least
    label it links to until no label moves: each cluster's least index.
    """
    vals = np.asarray(values, dtype=complex).ravel()
    n = vals.size
    link = np.abs(vals[:, None] - vals) <= tol
    labels = np.arange(n)
    while True:
        moved = np.minimum(labels, np.where(link, labels, n).min(axis=1, initial=n))
        if np.array_equal(moved, labels):
            break
        labels = moved
    return [np.flatnonzero(labels == label) for label in np.unique(labels)]


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------

def eig_decompose_stack(X) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompositions of a ``(k, n, n)`` stack: the canonically
    ordered ``(k, n)`` eigenvalues, the matching ``(k, n, n)`` eigenvector
    matrices, the ``(k,)`` condition numbers of those matrices and the
    ``(k,)`` operator norms of the inputs.

    For a repeated eigenvalue the raw solver may return nearly parallel
    columns even when the eigenspace is healthy; inside each eigenvalue
    cluster (single linkage at ``DEFAULT_EIG_TOL * (1 + ||X||)``) we
    therefore re-extract an orthonormal basis of the numerical eigenspace
    before judging conditioning; :func:`semisimplicity_check` turns the
    condition numbers into the semisimplicity verdict.  The solver, the
    norms, the conditioning and the sort run once on the stack, bit for bit
    the one-matrix results; only matrices with a cluster, two eigenvalues
    within the link by :func:`min_gaps`, take the re-extraction, one at a
    time.
    """
    A = as_matrix(X, stack=True)
    if A.ndim != 3:
        raise DimensionMismatch(f"expected a (k, n, n) stack, got shape {A.shape}")
    k, n = A.shape[0], A.shape[-1]
    try:
        w, P = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigendecomposition did not converge") from exc
    norm = opnorm(A)
    scale = 1.0 + norm
    for i in np.flatnonzero(min_gaps(w) <= DEFAULT_EIG_TOL * scale):
        _reextract_clusters(A[i], w[i], P[i], scale[i])
    cond = condition_numbers(P)
    order = np.lexsort((w.imag, w.real), axis=-1)
    rows = np.arange(k)[:, None]
    vectors = P[rows[:, :, None], np.arange(n)[:, None], order[:, None, :]]
    return w[rows, order], vectors, cond, norm


def semisimplicity_check(cond):
    """The semisimplicity verdict as a :func:`check_rows` row: a matrix whose
    :func:`eig_decompose_stack` condition number exceeds
    ``1 / DEFAULT_EIG_TOL`` is not semisimple."""
    return (cond > 1.0 / DEFAULT_EIG_TOL, NotSemisimple,
            "eigenvector condition {cond:.3e} exceeds the semisimplicity cap")


def condition_numbers(P) -> np.ndarray:
    """``np.linalg.cond(P, 2)`` of each matrix of a stack bit for bit,
    without its per-call overhead; a singular matrix, or one whose SVD does
    not converge, is infinitely ill-conditioned."""
    try:
        s = np.linalg.svd(P, compute_uv=False)
    except np.linalg.LinAlgError:  # pragma: no cover - SVD non-convergence
        if len(P) == 1:
            return np.full(1, np.inf)
        return np.concatenate([condition_numbers(p[None]) for p in P])
    return np.divide(s[:, 0], s[:, -1], out=np.full(len(P), np.inf), where=s[:, -1] > 0)


def _reextract_clusters(A, w, P, scale):
    """Overwrite the columns of ``P`` in each eigenvalue cluster of one
    matrix with an orthonormal basis of the cluster's numerical eigenspace,
    where that eigenspace has the cluster's dimension."""
    n = A.shape[0]
    for idx in cluster_points(w, DEFAULT_EIG_TOL * scale):
        if len(idx) < 2:
            continue
        mu = w[idx].mean()
        width = float(np.max(np.abs(w[idx] - mu)))
        M = A - mu * np.eye(n)
        try:
            _, s, vh = np.linalg.svd(M)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericalFailure("SVD did not converge") from exc
        thr = 10.0 * (width + DEFAULT_EIG_TOL * scale)
        dim = int(np.sum(s <= thr))
        if dim == len(idx):
            P[:, idx] = vh[n - dim:].conj().T
        # dim < len(idx): defective cluster; keep raw columns so the
        # conditioning estimate exposes it


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------

def char_poly(X) -> np.ndarray:
    """Characteristic polynomial ``det(x I - X)`` by the trace recurrence.

    Returns the ascending coefficients ``c_0 .. c_{n-1}`` of
    ``x^n + c_{n-1} x^{n-1} + ... + c_0``; the leading 1 is implicit.  A
    ``(k, n, n)`` stack gives the ``(k, n)`` coefficient rows, one batched
    product ``A @ M`` per step, whose trace gives the next coefficient.

    Uses only matrix products and traces, so it is independent of the
    eigensolver and can serve as a cross-check oracle for it.  This
    Faddeev-LeVerrier recurrence loses accuracy as n grows: coefficient k
    comes from k chained products, so rounding compounds.  Against
    ``np.poly`` of the exact eigenvalues (Haar-conjugated complex Gaussian
    diagonals, 20 draws each) the worst coefficient error, relative to the
    largest coefficient, was 3e-15 at n = 8, 4e-13 at n = 16 and 5e-8 at
    n = 24.
    """
    X = as_matrix(X, stack=True)
    A = X if X.ndim == 3 else X[None]
    n = A.shape[-1]
    eye = np.eye(n, dtype=complex)
    asc = np.empty(A.shape[:-1], dtype=complex)
    AM = np.zeros_like(A)  # A @ M, with M = 0 before the first step
    c = np.ones(len(A), dtype=complex)
    for k in range(1, n + 1):
        AM = A @ (AM + c[:, None, None] * eye)
        c = -np.trace(AM, axis1=1, axis2=2) / k
        asc[:, n - k] = c
    return asc if X.ndim == 3 else asc[0]


def poly_power(coeffs, k: int) -> np.ndarray:
    """Ascending coefficients of the k-th power of the monic polynomial
    with ascending non-leading coefficients ``coeffs``, by k - 1
    convolutions; the leading 1 stays implicit in the result too."""
    if k < 1:
        raise ValueError("power must be a positive integer")
    full = np.concatenate([coeffs, [1.0 + 0j]])
    out = full
    for _ in range(k - 1):
        out = np.convolve(out, full)
    return out[:-1]


# ---------------------------------------------------------------------------
# Spectrum comparison
# ---------------------------------------------------------------------------

def spectrum_inclusion_defect(A, B):
    """Directed Hausdorff distance: ``max_{a in A} min_{b in B} |a - b|``.

    Zero iff every point of A lies in B as a set.  For ``(k, .)`` stacks of
    spectra A and B, the k defects of the row pairs as an array.
    """
    a = np.asarray(A, dtype=complex)
    b = np.asarray(B, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        a, b = a.ravel(), b.ravel()
    if a.shape[-1] == 0 or b.shape[-1] == 0:
        raise EmptySpectrum("spectrum comparison requires nonempty spectra")
    dists = np.abs(a[..., :, None] - b[..., None, :])
    defects = np.max(np.min(dists, axis=-1), axis=-1)
    return defects if defects.ndim else float(defects)


def _bottleneck_assignment(D: np.ndarray) -> float:
    """Smallest t such that the bipartite graph {d_ij <= t} has a perfect matching.

    Bisection over the distinct distances.  At each threshold scipy's
    assignment solver picks one entry per row and column at least cost on
    the 0/1 costs "exceeds t" (a NaN distance counts as exceeding), and t
    is feasible when no chosen entry exceeds it.
    """
    from scipy.optimize import linear_sum_assignment

    levels = np.unique(D)
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        over = ~(D <= levels[mid])
        rows, cols = linear_sum_assignment(over.astype(float))
        if over[rows, cols].any():
            lo = mid + 1
        else:
            hi = mid
    return float(levels[lo])


def spectrum_match_distance(A, B) -> float:
    """Optimal bottleneck matching distance between equal-size multisets.

    ``min over bijections sigma of max |a_i - b_sigma(i)|``.  When the
    nearest ``b`` of each ``a`` (the row argmins of the distances) are all
    different, they are a matching of cost ``max_i min_j |a_i - b_j|``,
    and no matching costs less: that distance is the answer.  Otherwise it
    is found by bisection over the pairwise distances with scipy's
    assignment solver as the perfect-matching test at each threshold.
    Both routes return the same element of the distance matrix.
    """
    a = np.asarray(A, dtype=complex).ravel()
    b = np.asarray(B, dtype=complex).ravel()
    if a.size != b.size:
        raise SizeMismatch(f"multiset sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    D = np.abs(a[:, None] - b[None, :])
    if len(set(np.argmin(D, axis=1).tolist())) == a.size:
        return float(D.min(axis=1).max())
    return _bottleneck_assignment(D)


# ---------------------------------------------------------------------------
# Invertibility, determinant roots and polar decomposition
# ---------------------------------------------------------------------------

def numerically_singular(s):
    """Whether descending singular values mark a matrix numerically
    singular: the smallest is at most ``SINGULAR_TOL * max(1, the largest)``,
    or there are none.  A ``(k, n)`` array gives one verdict per row."""
    s = np.asarray(s)
    if not s.shape[-1]:
        return np.ones(s.shape[:-1], dtype=bool)
    return s[..., -1] <= SINGULAR_TOL * np.maximum(1.0, s[..., 0])


def determinant_roots(X) -> np.ndarray:
    """The principal n-th roots of the determinants of an ``n x n`` matrix
    or of each matrix of a ``(k, n, n)`` stack, shaped ``(..., 1, 1)`` to
    scale it.

    The roots are taken on scalars: the array power ``det ** 0.5`` at
    n = 2 takes numpy's square-root path and can differ in the last bit.
    """
    dets = np.linalg.det(X)
    n = np.shape(X)[-1]
    return np.reshape([d ** (1.0 / n) for d in np.ravel(dets)], np.shape(dets) + (1, 1))


def polar_decompose(S) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition ``S = P V``; the stacked factors of a
    ``(k, n, n)`` stack.

    ``P = (S S^H)^{1/2}`` is Hermitian positive definite and ``V`` unitary.
    Raises :class:`Singular` when the smallest singular value is at most
    ``SINGULAR_TOL * max(1, ||S||)``.
    """
    A = as_matrix(S, stack=True)
    As = A if A.ndim == 3 else A[None]
    try:
        u, s, vh = np.linalg.svd(As)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("SVD did not converge") from exc
    check_rows([(numerically_singular(s), Singular,
                 "matrix is numerically singular; no polar decomposition")])
    P = (u * s[:, None, :]) @ adjoint(u)
    P = 0.5 * (P + adjoint(P))
    V = u @ vh
    return (P, V) if A.ndim == 3 else (P[0], V[0])


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n represented by an orthonormal column basis.

    ``basis`` has shape (n, d); a zero-dimensional subspace (d = 0) is
    valid.  Orthonormality is validated on construction.
    """

    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=complex)
        if B.ndim != 2:
            raise DimensionMismatch(f"basis must be 2-d, got shape {B.shape}")
        object.__setattr__(self, "basis", B)
        d = B.shape[1]
        if d:
            gram = B.conj().T @ B
            if opnorm(gram - np.eye(d)) > ORTHONORMAL_TOL:
                raise DimensionMismatch("basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_span(cls, vectors) -> "Subspace":
        """Orthonormalize arbitrary spanning vectors (columns) into a Subspace."""
        V = np.asarray(vectors, dtype=complex)
        if V.ndim == 1:
            V = V[:, None]
        if V.shape[1] == 0:
            return cls(V)
        u, s, _ = np.linalg.svd(V, full_matrices=False)
        if s.size == 0 or s[0] == 0:
            return cls(np.zeros((V.shape[0], 0), dtype=complex))
        r = int(np.sum(s > RANK_TOL * s[0]))
        return cls(u[:, :r])


def span(*vectors) -> Subspace:
    """Subspace spanned by the given vectors."""
    return Subspace.from_span(np.column_stack([np.asarray(v, dtype=complex) for v in vectors]))


def projection(W: Subspace) -> np.ndarray:
    """Orthogonal projection onto ``W``: Hermitian idempotent of rank dim W."""
    B = W.basis
    return B @ B.conj().T


def _check_same_ambient(W: Subspace, Wp: Subspace):
    if W.ambient_dim != Wp.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {W.ambient_dim} vs {Wp.ambient_dim}"
        )


def kernel(X) -> Subspace:
    """Orthonormal basis of the numerical null space of ``X``.

    Singular directions are those with singular value at most
    ``KERNEL_TOL * max(sigma_max, 1)``; the zero matrix yields the full
    space.  The absolute floor matters when X is numerically zero at a
    known unit scale (a purely relative cut would then keep nothing).
    """
    A = as_matrix(X)
    try:
        _, s, vh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("SVD did not converge") from exc
    smax = s[0] if s.size else 0.0
    mask = s <= max(KERNEL_TOL * smax, KERNEL_TOL)
    dim = int(np.sum(mask))
    n = A.shape[0]
    if dim == 0:
        return Subspace(np.zeros((n, 0), dtype=complex))
    return Subspace(vh[n - dim:].conj().T)


def subspace_distance(W: Subspace, Wp: Subspace) -> float:
    """Gap metric ``||P_W - P_W'||`` (operator norm); 0 iff equal subspaces."""
    _check_same_ambient(W, Wp)
    return opnorm(projection(W) - projection(Wp))


def subspace_sum(W: Subspace, Wp: Subspace) -> Subspace:
    """The subspace ``W + W'``."""
    _check_same_ambient(W, Wp)
    return Subspace.from_span(np.hstack([W.basis, Wp.basis]))


def containment_defect(W: Subspace, Wp: Subspace) -> float:
    """``||(I - P_W') P_W||``; zero iff W is contained in W'."""
    _check_same_ambient(W, Wp)
    P, Q = projection(W), projection(Wp)
    return opnorm(P - Q @ P)


# ---------------------------------------------------------------------------
# Matrix JSON file format
# ---------------------------------------------------------------------------
# {"n": int, "entries": [[[re, im], ...], ...]} row-major.

def matrix_to_dict(X) -> dict:
    A = as_matrix(X)
    return {
        "n": A.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }


def _is_entry(z) -> bool:
    try:
        return (isinstance(z, list) and len(z) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v) for v in z))
    except OverflowError:  # an integer beyond the float range
        return False


def matrix_from_dict(data: dict) -> np.ndarray:
    """The matrix of a :func:`matrix_to_dict` record; a record that is not a
    positive integer ``n`` with an ``n x n`` list of finite ``[re, im]``
    pairs raises ``ValueError``."""
    n = data.get("n") if isinstance(data, dict) else None
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("a matrix record needs a positive integer 'n'")
    entries = data.get("entries")
    if not (isinstance(entries, list) and len(entries) == n
            and all(isinstance(row, list) and len(row) == n and all(map(_is_entry, row))
                    for row in entries)):
        raise ValueError(f"'entries' must be {n} rows of {n} finite [re, im] pairs")
    return np.array([[complex(re, im) for re, im in row] for row in entries], dtype=complex)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("the matrix file nests too deeply to parse") from None
    return matrix_from_dict(data)
