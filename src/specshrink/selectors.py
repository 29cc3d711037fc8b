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
#: how far it may move when its input is conjugated, the largest step a
#: selection may take along a path of step 1e-3, and how far a monodromy
#: root ratio may sit from exp(2 pi i / n).
SPECTRAL_TOL = 1e-8
INVARIANCE_TOL = 1e-8
JUMP_TOL = 0.05
MONODROMY_RATIO_TOL = 1e-6

#: How far an input may sit from a selector's domain (unitary, determinant 1,
#: Hermitian, branch point off the spectrum), and the slack of nearest-match
#: eigenvalue tracking at unit modulus.
DOMAIN_TOL = 1e-8
TRACKING_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EigenPath:
    """A tracked eigenvalue selection along a matrix path: ``values`` holds
    one value per parameter, or a ``(k, steps + 1)`` row of them for each of
    k tracked values."""

    parameters: np.ndarray
    values: np.ndarray
    #: Worst distance from a selected value to its matrix's spectrum (su_paths).
    spectral_defect: Optional[float] = None

    @property
    def max_jump(self) -> float:
        return core.running_max(np.abs(np.diff(self.values)))

    def to_dict(self) -> dict:
        values = np.ascontiguousarray(self.values, dtype=complex)
        return {
            "parameters": np.asarray(self.parameters, dtype=float).tolist(),
            "values": values.view(float).reshape(values.shape + (2,)).tolist(),
        }


# ---------------------------------------------------------------------------
# Special unitary selector
# ---------------------------------------------------------------------------

def _not_unitary(A) -> np.ndarray:
    """Whether ``||U^H U - I|| > DOMAIN_TOL (1 + n)`` for each U of a finite
    ``(k, n, n)`` stack.  The Frobenius norm bounds the operator norm, so
    only rows whose Frobenius norm reaches the bound (less a rounding
    margin) need the SVD; a NaN norm compares False, so finite input only."""
    n = A.shape[1]
    gram = np.conj(np.swapaxes(A, 1, 2)) @ A - np.eye(n)
    bound = DOMAIN_TOL * (1.0 + n)
    suspect = np.linalg.norm(gram, axis=(1, 2)) > bound * (1.0 - 1e-6)
    failed = np.zeros(len(A), dtype=bool)
    if suspect.any():
        failed[suspect] = np.linalg.svd(gram[suspect], compute_uv=False)[:, 0] > bound
    return failed


def _su_points(Us) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental-domain representatives of a ``(k, n, n)`` stack, one row
    each, and the ``(k, n)`` eigenvalues they were computed from.

    Eigenvalue angles theta_j in [0, 1) sum to an integer s for det = 1;
    the representative shifts the s largest sorted angles down by one turn
    and rotates them to the front, which lands in F with sum zero.  Every
    step runs once on the whole stack; a matrix outside the domain raises
    the error its first failed check names, for the first such matrix.
    """
    A = np.asarray(Us, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2] or A.shape[1] == 0:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {A.shape}")
    n = A.shape[1]
    finite = np.isfinite(A).all(axis=(1, 2))
    if not finite.all():
        A = np.where(finite[:, None, None], A, np.eye(n))  # keep LAPACK off non-finite
    not_unitary = _not_unitary(A)
    det_off = np.abs(np.linalg.det(A) - 1.0) > DOMAIN_TOL * n
    vals = np.linalg.eigvals(A)
    theta = np.sort(np.mod(np.angle(vals) / TWO_PI, 1.0), axis=1)
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
    return x, vals


def su_select_spectral(Us) -> tuple[np.ndarray, np.ndarray]:
    """:func:`su_select` on every matrix of a ``(k, n, n)`` stack at once,
    and each selected value's distance to its matrix's spectrum.

    Bit for bit the per-matrix values; one LAPACK call per step for the
    whole stack instead of one per matrix.  The distances are measured on
    the eigenvalues the selection was computed from.
    """
    x, vals = _su_points(Us)
    selected = np.exp(2j * np.pi * x[:, 0])
    return selected, core.spectrum_inclusion_defect(selected[:, None], vals)


def su_select_stack(Us) -> np.ndarray:
    """The selected values of :func:`su_select_spectral`."""
    return su_select_spectral(Us)[0]


def su_representative(U) -> np.ndarray:
    """Fundamental-domain representative of the conjugacy class of U: the
    point of F, in full turns, whose domain bounds the kernel checks."""
    return _su_points(core.as_matrix(U)[None])[0][0]


def su_select(U) -> complex:
    """Continuous eigenvalue selection on the special unitary group.

    Returns ``exp(2 pi i x_1)`` for the fundamental-domain representative;
    the value is always an eigenvalue of U and is conjugation invariant.
    """
    return complex(su_select_stack(core.as_matrix(U)[None])[0])


# ---------------------------------------------------------------------------
# Largest-argument selector on unitaries avoiding a ray
# ---------------------------------------------------------------------------

def un_lambda_select_stack(Us, lam: complex) -> np.ndarray:
    """Eigenvalue of each unitary of a ``(k, n, n)`` stack maximizing the
    argument with the branch cut along the ray of lam.

    Defined on unitaries whose spectrum avoids the modulus-1 point ``lam``;
    any continuous branch on the cut plane differs by a constant, so the
    maximizer does not depend on the branch convention.  A ``lam`` off the
    unit circle raises ValueError; the first matrix that is not unitary, or
    has ``lam`` in its spectrum, raises.
    """
    A = core.as_matrix(Us, stack=True)
    if A.ndim != 3:
        raise DimensionMismatch(f"expected a (k, n, n) stack, got shape {A.shape}")
    lam = complex(lam)
    if not (np.isfinite(lam) and abs(abs(lam) - 1.0) <= DOMAIN_TOL):
        raise ValueError(f"the branch point must have modulus 1, got {lam}")
    vals = np.linalg.eigvals(A)
    core.check_rows([
        (_not_unitary(A), NotUnitary, f"input is not unitary within tolerance {DOMAIN_TOL}"),
        (np.min(np.abs(vals - lam), axis=1) <= DOMAIN_TOL, LambdaInSpectrum,
         "the branch point is in the spectrum"),
    ])
    branch = np.mod(np.angle(vals) - np.angle(lam), TWO_PI)
    return vals[np.arange(len(vals)), np.argmax(branch, axis=1)]


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


def _track_order(spectra) -> np.ndarray:
    """Nearest-match tracking of the values of ``spectra[0]``, in its order,
    through the rows of a ``(steps + 1, n)`` array of spectra.

    Row k of the result holds, for each value of ``spectra[0]``, the index
    of the entry of ``spectra[k]`` it was tracked to: every tracked value
    goes to its nearest entry of the next row, with the tie rule of
    :func:`_tie_screen`, and the matches must be a bijection.  All steps
    are matched at once on one ``(steps, n, n)`` distance array; the
    tracked order is then the composition of the per-step index maps.
    Every tracked value is an entry of its row, so these are the distances
    a step-by-step matching computes, only in another row order.  The
    first failing step raises what that matching raises: the first
    ambiguous tracked value names the message, otherwise two values
    claimed the same target.
    """
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
    return order


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    """Eigenvalue transport around a loop in the corner parameter."""

    permutation: tuple
    parameters: np.ndarray
    values: np.ndarray  # shape (steps + 1, n)

    @property
    def n(self) -> int:
        return len(self.permutation)

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
        return self.values[-1] / self.values[0]

    def ratio_defect(self) -> float:
        """Worst distance of a root ratio from the primitive root exp(2 pi i / n)."""
        return core.running_max(np.abs(self.ratios() - np.exp(2j * np.pi / self.n)))


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
    # one more step closes the loop: its index map is the permutation
    order = _track_order(np.vstack([spectra, spectra[:1]]))
    values = np.take_along_axis(spectra, order[:-1], axis=1)
    return MonodromyResult(permutation=tuple(order[-1].tolist()), parameters=ts, values=values)


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


def path_parameters(steps: int, step: float) -> np.ndarray:
    """The path parameters ``k * step``, k = 0..steps, refused before any
    path matrix is built from them when there is no step or one is not
    finite."""
    if steps < 1:
        raise ValueError(f"a path needs at least one step, got {steps}")
    # the largest parameter is steps * step; forming k * step for an
    # infinite step would already warn at k = 0
    if not (np.isfinite(step) and np.isfinite(steps * step)):
        raise ValueError("path parameters must be finite")
    return np.arange(steps + 1) * step


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


def su_paths(rng, n: int, count: int, steps: int, step: float) -> list[EigenPath]:
    """The special unitary selector along ``count`` random one-parameter orbits.

    Each orbit draws a Haar special unitary U and a unit-norm traceless
    skew-Hermitian A, in the order of ``count`` separate draws, and selects
    on ``E^k U`` for k = 0..steps with ``E = exp(step A)``.  The U of all
    orbits come from one stacked QR and determinant rescaling; the orbits
    advance together, one stacked product per step, and are selected on
    blocks of at most ``SELECT_BLOCK`` matrices, whose spectra also give
    each path's spectral defect.  scipy is imported here, for ``expm``
    only, so that importing the package does not load it.
    """
    from scipy.linalg import expm

    if n < 2:
        raise UnsupportedDimension("a special unitary path needs n >= 2")
    if count < 1:
        raise ValueError(f"need at least one path, got {count}")
    parameters = path_parameters(steps, step)
    z = np.empty((count, 2, n, n))
    E = np.empty((count, n, n), dtype=complex)
    for i in range(count):
        z[i] = rng.standard_normal((2, n, n))  # sample("sun")'s Gaussians
        E[i] = expm(step * _skew_traceless(rng, n))
    if not np.isfinite(E).all():
        raise ValueError(f"exp(step A) is not finite at step {step}")
    U = spaces._unit_determinant(spaces._haar(z))
    values = np.empty((count, steps + 1), dtype=complex)
    gaps = np.empty((count, steps + 1))
    block = max(1, SELECT_BLOCK // count)
    for k0 in range(0, steps + 1, block):
        width = min(block, steps + 1 - k0)
        stack = np.empty((count, width, n, n), dtype=complex)
        for j in range(width):
            stack[:, j] = U
            U = E @ U
        selected, gap = su_select_spectral(stack.reshape(count * width, n, n))
        values[:, k0:k0 + width] = selected.reshape(count, width)
        gaps[:, k0:k0 + width] = gap.reshape(count, width)
    return [EigenPath(parameters=parameters, values=values[i],
                      spectral_defect=core.running_max(gaps[i]))
            for i in range(count)]
