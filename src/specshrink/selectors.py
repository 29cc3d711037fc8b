"""Continuous eigenvalue selectors where they exist, and the monodromy
demonstrator where they do not.

The special-unitary selector works through the fundamental domain

    F = { x in R^n : sum x_j = 0,  x_1 <= x_2 <= ... <= x_n <= x_1 + 1 }

that parameterizes conjugacy classes: eigenvalue angles (in turns) are
sorted, the integer excess s = sum of angles is removed by shifting the s
largest angles down one turn and rotating them to the front, and the
first coordinate is exponentiated.  This closed form produces exactly the
representative an exhaustive integer-shift search would find (the tests
carry that enumeration as an oracle); it is used directly because path
sweeps call the selector hundreds of thousands of times, and it runs on
whole ``(k, n, n)`` stacks so that each step is one numpy call per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core, spaces
from .errors import (
    AmbiguousContinuation,
    DimensionMismatch,
    LambdaInSpectrum,
    NotHermitian,
    NotSpecialUnitary,
    NotUnitary,
    RepresentativeNotFound,
    UnsupportedDimension,
)

TWO_PI = 2.0 * np.pi

#: Pinned thresholds: how far a selected value may sit from the spectrum,
#: the largest step a selection may take along a path of step 1e-3, and how
#: far a monodromy root ratio may sit from exp(2 pi i / n).
SPECTRAL_TOL = 1e-8
JUMP_TOL = 0.05
MONODROMY_RATIO_TOL = 1e-6

#: How far an input may sit from a selector's domain (unitary, determinant 1,
#: Hermitian, branch point off the spectrum), and the slack of nearest-match
#: eigenvalue tracking at unit modulus.
DOMAIN_TOL = 1e-8
TRACKING_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EigenPath:
    """A tracked eigenvalue selection along a matrix path."""

    parameters: np.ndarray
    values: np.ndarray
    matrices: Optional[list] = None

    @property
    def jumps(self) -> np.ndarray:
        return np.abs(np.diff(self.values))

    @property
    def max_jump(self) -> float:
        j = self.jumps
        return float(j.max()) if j.size else 0.0

    def spectral_defect(self) -> float:
        """Worst distance from a selected value to the spectrum of its matrix."""
        if not self.matrices:
            raise ValueError("the path keeps no matrices to measure a spectral defect on")
        W = np.linalg.eigvals(np.stack(self.matrices))
        return float(np.max(core.spectrum_inclusion_defect(self.values[:, None], W)))

    def to_dict(self) -> dict:
        return {
            "parameters": np.asarray(self.parameters, dtype=float).tolist(),
            "values": np.ascontiguousarray(self.values, dtype=complex).view(float)
                        .reshape(-1, 2).tolist(),
            "max_jump": self.max_jump,
        }


# ---------------------------------------------------------------------------
# Special unitary selector
# ---------------------------------------------------------------------------

def _check_unitary(U):
    A = core.as_matrix(U)
    n = A.shape[0]
    if core.opnorm(A.conj().T @ A - np.eye(n)) > DOMAIN_TOL * (1.0 + n):
        raise NotUnitary(f"input is not unitary within tolerance {DOMAIN_TOL}")
    return A


def _su_points(Us) -> np.ndarray:
    """Fundamental-domain representatives of a ``(k, n, n)`` stack, one row each.

    Eigenvalue angles theta_j in [0, 1) sum to an integer s for det = 1;
    the representative shifts the s largest sorted angles down by one turn
    and rotates them to the front, which lands in F with sum zero.  Every
    step runs once on the whole stack; a matrix outside the domain raises
    the error its first failed check names, for the first such matrix.
    """
    A = np.asarray(Us, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2] or A.shape[1] == 0:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {A.shape}")
    k, n = A.shape[0], A.shape[1]
    finite = np.isfinite(A).all(axis=(1, 2))
    if not finite.all():
        A = np.where(finite[:, None, None], A, np.eye(n))  # keep LAPACK off non-finite
    gram = np.conj(np.swapaxes(A, 1, 2)) @ A - np.eye(n)
    # the Frobenius norm bounds the operator norm from above, so only rows
    # whose Frobenius norm reaches the bound (less a rounding margin) need the SVD
    bound = DOMAIN_TOL * (1.0 + n)
    suspect = np.linalg.norm(gram, axis=(1, 2)) > bound * (1.0 - 1e-6)
    not_unitary = np.zeros(k, dtype=bool)
    if suspect.any():
        not_unitary[suspect] = np.linalg.svd(gram[suspect], compute_uv=False)[:, 0] > bound
    det_off = np.abs(np.linalg.det(A) - 1.0) > DOMAIN_TOL * n
    theta = np.sort(np.mod(np.angle(np.linalg.eigvals(A)) / TWO_PI, 1.0), axis=1)
    total = theta.sum(axis=1)
    s = np.rint(total)
    off_integer = np.abs(total - s) > 1e-6
    s = s.astype(int)  # in [0, n]: each angle is in [0, 1]
    cols = np.arange(n)
    shifted = np.take_along_axis(theta, (cols + (n - s)[:, None]) % n, axis=1)
    x = shifted - (cols < s[:, None])
    x = x - x.sum(axis=1, keepdims=True) / n  # flush rounding so the sum is ~0
    checks = (
        (~finite, DimensionMismatch, "matrix entries must be finite"),
        (not_unitary, NotSpecialUnitary, f"input is not unitary within tolerance {DOMAIN_TOL}"),
        (det_off, NotSpecialUnitary, "determinant is not 1 within tolerance"),
        (off_integer, RepresentativeNotFound,
         "angle sum {total} is not near an integer; determinant drifted"),
        (np.abs(x.sum(axis=1)) > 1e-12 * n, RepresentativeNotFound,
         "coordinates must sum to zero"),
        ((np.diff(x, axis=1) < -1e-12).any(axis=1), RepresentativeNotFound,
         "coordinates must be nondecreasing"),
        (x[:, -1] > x[:, 0] + 1.0 + 1e-12, RepresentativeNotFound,
         "last coordinate exceeds first + 1"),
    )
    core.check_rows(checks, total=total)
    return x


def su_select_stack(Us) -> np.ndarray:
    """:func:`su_select` on every matrix of a ``(k, n, n)`` stack at once.

    Bit for bit the per-matrix values; one LAPACK call per step for the
    whole stack instead of one per matrix.
    """
    return np.exp(2j * np.pi * _su_points(Us)[:, 0])


def su_representative(U) -> np.ndarray:
    """Fundamental-domain representative of the conjugacy class of U: the
    point of F, in full turns, whose domain bounds the kernel checks."""
    return _su_points(core.as_matrix(U)[None])[0]


def su_select(U) -> complex:
    """Continuous eigenvalue selection on the special unitary group.

    Returns ``exp(2 pi i x_1)`` for the fundamental-domain representative;
    the value is always an eigenvalue of U and is conjugation invariant.
    """
    return complex(su_select_stack(core.as_matrix(U)[None])[0])


# ---------------------------------------------------------------------------
# Largest-argument selector on unitaries avoiding a ray
# ---------------------------------------------------------------------------

def un_lambda_select(U, lam: complex) -> complex:
    """Eigenvalue of U maximizing the argument branch cut along the ray of lam.

    Defined on unitaries whose spectrum avoids the modulus-1 point ``lam``;
    any continuous branch on the cut plane differs by a constant, so the
    maximizer does not depend on the branch convention.
    """
    A = _check_unitary(U)
    vals = np.linalg.eigvals(A)
    lam = complex(lam)
    if np.min(np.abs(vals - lam)) <= DOMAIN_TOL:
        raise LambdaInSpectrum("the branch point is in the spectrum")
    base = np.angle(lam)
    branch = np.mod(np.angle(vals) - base, TWO_PI)
    return complex(vals[int(np.argmax(branch))])


# ---------------------------------------------------------------------------
# Nearest-match continuation and monodromy
# ---------------------------------------------------------------------------

def _tie_screen(d, candidates):
    """``(ambiguous, d1, d2)`` for distances ``d[..., i, j]`` from value i to
    ``candidates[..., j]``: whether value i has no unambiguous nearest
    candidate, and its two smallest distances; leading axes are a stack.

    A tie is always ambiguous.  The slack beyond the nearest distance is
    ``10 * TRACKING_TOL`` at candidates of modulus 1 or more, and shrinks
    with their largest modulus below that, as their spacing does near the
    origin.
    """
    nearest = np.sort(d, axis=-1)
    d1, d2 = nearest[..., 0], nearest[..., 1]
    slack = 10.0 * TRACKING_TOL * np.fmin(1.0, np.max(np.abs(candidates), axis=-1))
    return d2 < np.maximum(2.0 * d1, d1 + slack[..., None]), d1, d2


def _nearest_unambiguous(values, candidates) -> np.ndarray:
    """Index of the candidate nearest to each value; ties are an error, not a guess.

    One distance matrix and one row-wise sort for all values; the first
    ambiguous value (in order) names the error.  A tie is always ambiguous,
    so the first minimum is the nearest candidate.
    """
    d = np.abs(candidates[None, :] - values[:, None])
    if candidates.size > 1:
        ambiguous, d1, d2 = _tie_screen(d, candidates)
        if ambiguous.any():
            i = int(np.argmax(ambiguous))
            raise AmbiguousContinuation(
                f"nearest match is ambiguous: distances {d1[i]:.3e} and {d2[i]:.3e}"
            )
    return np.argmin(d, axis=1)


def track_spectra(spectra) -> np.ndarray:
    """Nearest-match tracking of the values of ``spectra[0]``, in its order,
    through the rows of a ``(steps + 1, n)`` array of spectra.

    Row k + 1 of the result holds the entries of ``spectra[k + 1]`` matched
    to row k of the result: every tracked value to its nearest entry, with
    the tie rule of :func:`_tie_screen`, and the matches must be a
    bijection.  All steps are matched at once on one ``(steps, n, n)``
    distance array; the tracked order is then the composition of the
    per-step index maps.  Every tracked value is an entry of its row, so
    these are the distances a step-by-step matching computes, only in
    another row order.  The first failing step raises what that matching
    raises: the first ambiguous tracked value names the message, otherwise
    two values claimed the same target.
    """
    spectra = np.asarray(spectra, dtype=complex)
    steps, n = spectra.shape[0] - 1, spectra.shape[1]
    # d[k, a, j]: from entry a of row k to entry j of row k + 1
    d = np.abs(spectra[1:, None, :] - spectra[:-1, :, None])
    step_map = np.argmin(d, axis=2)
    ambiguous = np.zeros((steps, n), dtype=bool)
    if n > 1:
        ambiguous, d1, d2 = _tie_screen(d, spectra[1:])
    shared = (np.sort(step_map, axis=1) != np.arange(n)).any(axis=1)
    bad = ambiguous.any(axis=1) | shared
    last = int(np.argmax(bad)) if bad.any() else steps
    order = np.empty((last + 1, n), dtype=np.intp)
    order[0] = np.arange(n)
    for k in range(last):
        order[k + 1] = step_map[k][order[k]]
    if last < steps:
        hit = ambiguous[last][order[last]]
        if hit.any():
            a = order[last][np.argmax(hit)]
            raise AmbiguousContinuation(
                f"nearest match is ambiguous: distances {d1[last, a]:.3e} and {d2[last, a]:.3e}"
            )
        raise AmbiguousContinuation("two tracked eigenvalues claimed the same target")
    return np.take_along_axis(spectra, order, axis=1)


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    """Eigenvalue transport around a loop in the corner parameter."""

    n: int
    r: float
    steps: int
    permutation: tuple
    start: np.ndarray
    end: np.ndarray
    parameters: np.ndarray
    values: np.ndarray  # shape (steps + 1, n)

    def is_single_cycle(self) -> bool:
        seen = 0
        i = 0
        for _ in range(self.n):
            i = self.permutation[i]
            seen += 1
            if i == 0:
                break
        return seen == self.n and i == 0

    def ratios(self) -> np.ndarray:
        """end / start per tracked eigenvalue."""
        return self.end / self.start

    def ratio_defect(self) -> float:
        """Worst distance of a root ratio from the primitive root exp(2 pi i / n)."""
        return float(np.max(np.abs(self.ratios() - np.exp(2j * np.pi / self.n))))


def corner_matrices(n: int, zs) -> np.ndarray:
    """One n x n matrix per corner value z: a superdiagonal of ones with z
    in the bottom-left corner, as a ``(len(zs), n, n)`` stack.

    Each characteristic polynomial is x^n - z (the sign is pinned by the
    trace-recurrence oracle in the tests, not assumed).
    """
    zs = np.asarray(zs, dtype=complex)
    X = np.zeros((zs.size, n, n), dtype=complex)
    X[:, np.arange(n - 1), np.arange(1, n)] = 1.0
    X[:, n - 1, 0] = zs
    return X


def monodromy_xz(n: int, r: float, steps: int) -> MonodromyResult:
    """Track all eigenvalues of the corner matrix around the loop |z| = r.

    The loop is z = r exp(2 pi i t), t from 0 to 1.  The induced
    permutation of the starting spectrum is returned; a single n-cycle
    certifies that no neighborhood of the nilpotent block admits a
    continuous eigenvalue selection.
    """
    if n < 2:
        raise UnsupportedDimension("monodromy needs n >= 2")
    if steps < 64 * n:
        raise ValueError(f"steps must be >= 64 n = {64 * n} for unambiguous tracking")
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"loop radius must be finite and positive, got {r}")
    ts = np.linspace(0.0, 1.0, steps + 1)
    spectra = np.linalg.eigvals(corner_matrices(n, r * np.exp(2j * np.pi * ts)))
    spectra[0] = core.canonical_spectrum(spectra[0])
    values = track_spectra(spectra)
    start, end = values[0], values[-1]
    perm = tuple(_nearest_unambiguous(end, start).tolist())
    if len(set(perm)) != n:
        raise AmbiguousContinuation("loop endpoints do not biject onto the start spectrum")
    return MonodromyResult(
        n=n, r=float(r), steps=steps, permutation=perm,
        start=start, end=end, parameters=ts, values=values,
    )


# ---------------------------------------------------------------------------
# Hermitian selector
# ---------------------------------------------------------------------------

def hn_select_stack(X) -> np.ndarray:
    """Largest eigenvalue of every Hermitian matrix of a ``(k, n, n)``
    stack, in one stacked ``eigvalsh``; 1-Lipschitz in each matrix.  The
    first matrix that is not Hermitian raises."""
    A = core.as_matrix(X, stack=True)
    if A.ndim != 3:
        raise DimensionMismatch(f"expected a (k, n, n) stack, got shape {A.shape}")
    core.check_rows([(core.opnorm(A - core.adjoint(A)) > DOMAIN_TOL * (1.0 + core.opnorm(A)),
                      NotHermitian, "input is not Hermitian within tolerance")])
    return np.max(np.linalg.eigvalsh(A), axis=-1)


hn_select_stack.stacked = True


def selector_path(select, mats, parameters=None) -> EigenPath:
    """Apply a scalar selector along a matrix path and record the values.

    A selector that opts in with a true ``stacked`` attribute, as
    :func:`hn_select_stack` does, is called once on the ``(k, n, n)`` path
    stack; any other selector, or a stacked one whose call fails, is called
    one matrix at a time, so a failure raises as a one-matrix call does.
    """
    mats = list(mats)
    if len(mats) < 2:
        raise ValueError(f"a path needs at least one step, got {len(mats)} matrices")
    parameters = np.asarray(np.arange(len(mats)) if parameters is None else parameters,
                            dtype=float)
    if not np.isfinite(parameters).all():
        raise ValueError("path parameters must be finite")
    stacked = getattr(select, "stacked", False)
    try:
        vals = select(np.stack(mats)) if stacked else None
    except Exception:  # the one-matrix calls below raise for the failing matrix
        vals = None
    if vals is None:
        one = (lambda M: select(np.asarray(M)[None])[0]) if stacked else select
        vals = [one(M) for M in mats]
    return EigenPath(parameters=parameters, values=np.array(vals, dtype=complex),
                     matrices=mats)


def _skew_traceless(rng, n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = 0.5 * (g - g.conj().T)
    a -= (np.trace(a) / n) * np.eye(n)
    return a / core.opnorm(a)


#: Most matrices handed to one stacked selection along paths.  Selecting
#: all 25k matrices of criterion 4's 50-path sweeps at once took about 20 MB
#: more peak memory than selecting one path at a time; blocks of this size
#: take about 1 MB more.
SELECT_BLOCK = 1024


def su_paths(rng, n: int, count: int, steps: int, step: float,
             keep_matrices: bool = False) -> list[EigenPath]:
    """The special unitary selector along ``count`` random one-parameter orbits.

    Each orbit draws a Haar special unitary U and a unit-norm traceless
    skew-Hermitian A, in the order of ``count`` separate draws, and selects
    on ``E^k U`` for k = 0..steps with ``E = exp(step A)``.  The U of all
    orbits come from one stacked QR and determinant rescaling; the orbits
    advance together, one stacked product per step, and are selected on
    blocks of at most ``SELECT_BLOCK`` matrices.  scipy is imported here,
    for ``expm`` only, so that importing the package does not load it.
    """
    from scipy.linalg import expm

    if n < 2:
        raise UnsupportedDimension("a special unitary path needs n >= 2")
    if count < 1 or steps < 1:
        raise ValueError(f"need at least one path of one step, got {count} paths "
                         f"of {steps} steps")
    if not np.isfinite(step):
        raise ValueError(f"the step must be finite, got {step}")
    z = np.empty((count, 2, n, n))
    E = np.empty((count, n, n), dtype=complex)
    for i in range(count):
        z[i] = rng.standard_normal((2, n, n))  # sample("sun")'s Gaussians
        E[i] = expm(step * _skew_traceless(rng, n))
    U = spaces._unit_determinant(spaces._haar(z))
    values = np.empty((count, steps + 1), dtype=complex)
    matrices = [[] for _ in range(count)] if keep_matrices else None
    block = max(1, SELECT_BLOCK // max(count, 1))
    for k0 in range(0, steps + 1, block):
        width = min(block, steps + 1 - k0)
        stack = np.empty((count, width, n, n), dtype=complex)
        for j in range(width):
            stack[:, j] = U
            U = E @ U
        values[:, k0:k0 + width] = su_select_stack(
            stack.reshape(count * width, n, n)).reshape(count, width)
        if keep_matrices:
            for i in range(count):
                matrices[i].extend(stack[i])
    parameters = np.arange(steps + 1) * step
    return [EigenPath(parameters=parameters, values=values[i],
                      matrices=matrices[i] if keep_matrices else None)
            for i in range(count)]


def su_path(rng, n: int, steps: int, step: float) -> EigenPath:
    """:func:`su_paths` for one orbit, keeping its matrices."""
    return su_paths(rng, n, 1, steps, step, keep_matrices=True)[0]
