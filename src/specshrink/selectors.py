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
sweeps call the selector hundreds of thousands of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from . import core, spaces
from .errors import (
    AmbiguousContinuation,
    AmbiguousSelection,
    BadStart,
    LambdaInSpectrum,
    NoSimpleEigenvalue,
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


@dataclass(frozen=True, eq=False)
class AnglePoint:
    """A point of the fundamental domain F, in units of full turns."""

    x: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.x, dtype=float).ravel()
        object.__setattr__(self, "x", v)
        n = v.size
        if abs(v.sum()) > 1e-12 * max(1, n):
            raise RepresentativeNotFound("coordinates must sum to zero")
        if n > 1:
            if np.any(np.diff(v) < -1e-12):
                raise RepresentativeNotFound("coordinates must be nondecreasing")
            if v[-1] > v[0] + 1.0 + 1e-12:
                raise RepresentativeNotFound("last coordinate exceeds first + 1")


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
        return max(float(np.min(np.abs(np.linalg.eigvals(M) - v)))
                   for M, v in zip(self.matrices, self.values))

    def to_dict(self) -> dict:
        return {
            "parameters": [float(t) for t in self.parameters],
            "values": [[float(v.real), float(v.imag)] for v in self.values],
            "max_jump": self.max_jump,
        }


# ---------------------------------------------------------------------------
# Special unitary selector
# ---------------------------------------------------------------------------

def _check_unitary(U, tol, exc=NotUnitary, what="unitary"):
    A = core.as_matrix(U)
    n = A.shape[0]
    if core.opnorm(A.conj().T @ A - np.eye(n)) > tol * (1.0 + n):
        raise exc(f"input is not {what} within tolerance {tol}")
    return A


def su_representative(U, tol: float = 1e-8) -> AnglePoint:
    """Fundamental-domain representative of the conjugacy class of U.

    Eigenvalue angles theta_j in [0, 1) sum to an integer s for det = 1;
    the representative shifts the s largest sorted angles down by one turn
    and rotates them to the front, which lands in F with sum zero.
    """
    A = _check_unitary(U, tol, NotSpecialUnitary, "unitary")
    n = A.shape[0]
    if abs(np.linalg.det(A) - 1.0) > tol * n:
        raise NotSpecialUnitary("determinant is not 1 within tolerance")
    lam = np.linalg.eigvals(A)
    theta = np.sort(np.mod(np.angle(lam) / TWO_PI, 1.0))
    total = theta.sum()
    s = int(round(total))
    if abs(total - s) > 1e-6:
        raise RepresentativeNotFound(
            f"angle sum {total} is not near an integer; determinant drifted"
        )
    s = min(max(s, 0), n)
    x = np.concatenate([theta[n - s:] - 1.0, theta[: n - s]])
    x = x - x.sum() / n  # flush accumulated rounding so the sum is exactly ~0
    if np.any(np.diff(x) < -1e-9) or (n > 1 and x[-1] > x[0] + 1.0 + 1e-9):
        raise RepresentativeNotFound("constructed point violates the domain bounds")
    return AnglePoint(x)


def su_select(U, tol: float = 1e-8) -> complex:
    """Continuous eigenvalue selection on the special unitary group.

    Returns ``exp(2 pi i x_1)`` for the fundamental-domain representative;
    the value is always an eigenvalue of U and is conjugation invariant.
    """
    point = su_representative(U, tol=tol)
    return complex(np.exp(2j * np.pi * point.x[0]))


# ---------------------------------------------------------------------------
# Largest-argument selector on unitaries avoiding a ray
# ---------------------------------------------------------------------------

def un_lambda_select(U, lam: complex, tol: float = 1e-8) -> complex:
    """Eigenvalue of U maximizing the argument branch cut along the ray of lam.

    Defined on unitaries whose spectrum avoids the modulus-1 point ``lam``;
    any continuous branch on the cut plane differs by a constant, so the
    maximizer does not depend on the branch convention.
    """
    A = _check_unitary(U, tol)
    vals = np.linalg.eigvals(A)
    lam = complex(lam)
    if np.min(np.abs(vals - lam)) <= tol:
        raise LambdaInSpectrum("the branch point is in the spectrum")
    base = np.angle(lam)
    branch = np.mod(np.angle(vals) - base, TWO_PI)
    return complex(vals[int(np.argmax(branch))])


# ---------------------------------------------------------------------------
# Local selection near a simple eigenvalue
# ---------------------------------------------------------------------------

def local_select(X, lambda0: complex, radius: float, Y) -> complex:
    """The unique eigenvalue of Y in the isolation disk of a simple
    eigenvalue ``lambda0`` of X.

    The disk radius is half the gap from lambda0 to the rest of the
    spectrum of X; the caller's perturbation must satisfy
    ``||Y - X|| < radius <= gap / 4`` (a heuristic safety margin, since
    non-normal eigenvalues are not Lipschitz).  The selection is validated
    by counting eigenvalues of Y in the disk.
    """
    A = core.as_matrix(X)
    B = core.as_matrix(Y)
    if A.shape != B.shape:
        raise UnsupportedDimension("X and Y must have equal shape")
    scale = 1.0 + core.opnorm(A)
    atol = 1e-8 * scale
    wX = np.linalg.eigvals(A)
    dists = np.sort(np.abs(wX - lambda0))
    if dists[0] > atol:
        raise NoSimpleEigenvalue(f"{lambda0} is not an eigenvalue of X")
    if dists.size < 2:
        gap = np.inf
    else:
        gap = float(dists[1])
    if gap <= 10 * atol:
        raise NoSimpleEigenvalue(f"{lambda0} is not a simple eigenvalue of X")
    eps_disk = gap / 2.0
    if radius > eps_disk / 2.0:
        raise AmbiguousSelection(
            f"radius {radius} too large for eigenvalue gap {gap}"
        )
    if core.opnorm(B - A) >= radius:
        raise AmbiguousSelection("||Y - X|| is not below the declared radius")
    wY = np.linalg.eigvals(B)
    inside = wY[np.abs(wY - lambda0) < eps_disk]
    if inside.size != 1:
        raise AmbiguousSelection(
            f"expected exactly 1 eigenvalue in the disk, found {inside.size}"
        )
    return complex(inside[0])


# ---------------------------------------------------------------------------
# Nearest-match continuation and monodromy
# ---------------------------------------------------------------------------

def _nearest_unambiguous(value, candidates, tol):
    """Index of the candidate nearest to value; ties are an error, not a guess."""
    d = np.abs(candidates - value)
    order = np.argsort(d)
    i = int(order[0])
    if d.size > 1:
        d1, d2 = float(d[order[0]]), float(d[order[1]])
        if d2 < max(2.0 * d1, d1 + 10.0 * tol):
            raise AmbiguousContinuation(
                f"nearest match is ambiguous: distances {d1:.3e} and {d2:.3e}"
            )
    return i


def track_eigenvalue(path: Sequence, start: complex, tol: float = 1e-8) -> EigenPath:
    """Continue one eigenvalue along a matrix path by nearest matching.

    ``start`` must lie on the spectrum of the first matrix; each step must
    be unambiguous (clear nearest candidate) or the continuation aborts.
    """
    mats = [core.as_matrix(M) for M in path]
    if not mats:
        raise BadStart("path is empty")
    scale = 1.0 + core.opnorm(mats[0])
    w0 = np.linalg.eigvals(mats[0])
    d0 = np.abs(w0 - start)
    if d0.min() > tol * scale:
        raise BadStart("start value is not an eigenvalue of path[0]")
    values = np.empty(len(mats), dtype=complex)
    values[0] = w0[int(np.argmin(d0))]
    for k in range(1, len(mats)):
        w = np.linalg.eigvals(mats[k])
        values[k] = w[_nearest_unambiguous(values[k - 1], w, tol)]
    return EigenPath(parameters=np.arange(len(mats), dtype=float), values=values)


def _continue_all(prev: np.ndarray, new_vals: np.ndarray, tol: float) -> np.ndarray:
    """Match every tracked value to the new spectrum; must be a bijection."""
    chosen = [ _nearest_unambiguous(p, new_vals, tol) for p in prev ]
    if len(set(chosen)) != len(chosen):
        raise AmbiguousContinuation("two tracked eigenvalues claimed the same target")
    return new_vals[chosen]


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


def corner_matrix(n: int, z: complex) -> np.ndarray:
    """Superdiagonal of ones with z in the bottom-left corner.

    Its characteristic polynomial is x^n - z (the sign is pinned by the
    trace-recurrence oracle in the tests, not assumed).
    """
    X = np.diag(np.ones(n - 1, dtype=complex), 1)
    X[n - 1, 0] = z
    return X


def monodromy_xz(n: int, r: float, steps: int, tol: float = 1e-8) -> MonodromyResult:
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
    if r <= 0:
        raise ValueError("loop radius must be positive")
    ts = np.linspace(0.0, 1.0, steps + 1)
    start = core.canonical_spectrum(np.linalg.eigvals(corner_matrix(n, r)))
    values = np.empty((steps + 1, n), dtype=complex)
    values[0] = start
    for k in range(1, steps + 1):
        z = r * np.exp(2j * np.pi * ts[k])
        w = np.linalg.eigvals(corner_matrix(n, z))
        values[k] = _continue_all(values[k - 1], w, tol)
    end = values[-1]
    perm = []
    for i in range(n):
        perm.append(_nearest_unambiguous(end[i], start, tol))
    if len(set(perm)) != n:
        raise AmbiguousContinuation("loop endpoints do not biject onto the start spectrum")
    return MonodromyResult(
        n=n, r=float(r), steps=steps, permutation=tuple(perm),
        start=start, end=end, parameters=ts, values=values,
    )


# ---------------------------------------------------------------------------
# Hermitian selector
# ---------------------------------------------------------------------------

def hn_select(X, tol: float = 1e-8) -> float:
    """Largest eigenvalue of a Hermitian matrix; 1-Lipschitz in X."""
    A = core.as_matrix(X)
    if core.opnorm(A - A.conj().T) > tol * (1.0 + core.opnorm(A)):
        raise NotHermitian("input is not Hermitian within tolerance")
    return float(np.max(np.linalg.eigvalsh(A)))


def selector_path(select, mats, parameters=None) -> EigenPath:
    """Apply a scalar selector along a matrix path and record the values."""
    mats = list(mats)
    vals = np.array([select(M) for M in mats], dtype=complex)
    if parameters is None:
        parameters = np.arange(len(mats), dtype=float)
    return EigenPath(parameters=np.asarray(parameters, dtype=float), values=vals,
                     matrices=mats)


def _skew_traceless(rng, n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = 0.5 * (g - g.conj().T)
    a -= (np.trace(a) / n) * np.eye(n)
    return a / core.opnorm(a)


def su_path(rng, n: int, steps: int, step: float) -> EigenPath:
    """The special unitary selector along a random one-parameter orbit.

    Draws a Haar special unitary U and a unit-norm traceless skew-Hermitian
    A, and selects on ``E^k U`` for k = 0..steps with ``E = exp(step A)``.
    """
    U = spaces.special_unitary(rng, n)
    E = scipy.linalg.expm(step * _skew_traceless(rng, n))
    mats = []
    for _ in range(steps + 1):
        mats.append(U)
        U = E @ U
    return selector_path(su_select, mats, np.arange(steps + 1) * step)
