"""Samplers and membership tests for the matrix spaces under study.

Every named space gets a seeded sampler and a membership predicate checking
its defining equations.  Distribution choices, all documented per sampler:

* ``mn``        Ginibre (iid complex Gaussian entries).
* ``gln``       Ginibre with a rejection on the smallest singular value.
* ``sln``       Ginibre invertible, rescaled to determinant 1.
* ``un``/``sun`` Haar, via QR of a Ginibre matrix with the phase fix on R.
* ``nn``        Haar-conjugated complex Gaussian diagonal.
* ``hn``        GUE-style, ``(G + G^H) / 2``.
* ``*_ss``      Conjugated diagonal with a simple-spectrum rejection; the
  conjugator ``U diag(s) V^H`` (Haar U, V; s log-uniform in [0.8, 1.25])
  has bounded condition number so that coefficient-level checks downstream
  are not drowned in rounding noise.
* ``gln_star``  ``gln`` conditioned on det staying away from -1.

The draws the claim checks share (separated circle points and eigenvalue
pairs, and the parts of bounded-conjugator, semisimple, positive definite
and commuting normal stacks) live here too.  Every rejection loop here
gives up after ``MAX_TRIES`` draws with :class:`UnsupportedDimension`.

Samplers take a ``numpy.random.Generator`` (or a seed) and are pure given
it; membership tests are pure.  :func:`sample_stack` draws k matrices of a
space as one ``(k, n, n)`` stack, bit for bit what k calls of
:func:`sample` draw, and :func:`sample` is its k = 1 case.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import core
from .errors import UnsupportedDimension

#: Minimum pairwise eigenvalue gap enforced when a simple-spectrum sample
#: is requested (the classification arguments work densely with distinct
#: eigenvalues; the tests need them explicitly).
SIMPLE_GAP = 1e-4

#: Draws a rejection sampler makes before it gives up.
MAX_TRIES = 1000

#: Log-spread of the bounded conjugators' singular values (about
#: [0.8, 1.25]) and the tolerance of :func:`membership`.
CONJUGATOR_SPREAD = 0.22
MEMBERSHIP_TOL = 1e-8


class SpaceId(str, Enum):
    """Closed enumeration of the supported matrix spaces."""

    MN = "mn"
    MN_SS = "mn_ss"
    GLN = "gln"
    GLN_SS = "gln_ss"
    SLN = "sln"
    SLN_SS = "sln_ss"
    UN = "un"
    SUN = "sun"
    NN = "nn"
    HN = "hn"
    GLN_STAR = "gln_star"

    @classmethod
    def parse(cls, tag) -> "SpaceId":
        """Parse a lowercase string tag; short aliases accepted."""
        if isinstance(tag, SpaceId):
            return tag
        key = str(tag).strip().lower()
        aliases = {
            "m": "mn", "m_ss": "mn_ss",
            "gl": "gln", "gl_ss": "gln_ss", "gl_star": "gln_star", "gl*": "gln_star",
            "sl": "sln", "sl_ss": "sln_ss",
            "u": "un", "su": "sun", "h": "hn",
        }
        key = aliases.get(key, key)
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown space tag {tag!r}") from None


# ---------------------------------------------------------------------------
# Building-block samplers
# ---------------------------------------------------------------------------
# Every sampler has a draw part, which takes the generator's numbers in the
# order a one-matrix-at-a-time loop takes them, rejection loops included,
# and a compute part, which runs once on the whole (k, n, n) stack.  The
# compute parts below are bit for bit the per-matrix computations: stacked
# QR, inverse, determinant and products run one LAPACK or BLAS call per
# matrix, and everything else is elementwise.

def _ginibre(z) -> np.ndarray:
    """Ginibre entries (iid standard complex Gaussian, variance 1) from
    ``(k, 2, ...)`` real Gaussians, real parts first, as ``(k, ...)``."""
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)


def _haar(z) -> np.ndarray:
    """Haar unitaries from ``(k, 2, n, n)`` Gaussians: QR of Ginibre matrices
    with R's diagonal phases divided out (without that, QR is not Haar)."""
    q, r = np.linalg.qr(_ginibre(z))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _unit_determinant(x) -> np.ndarray:
    """Compute part of the determinant-1 rescaling of a stack.

    The roots are taken on scalars: the array power ``det ** 0.5`` at
    n = 2 takes numpy's square-root path and can differ in the last bit.
    """
    n = x.shape[-1]
    roots = np.array([det ** (1.0 / n) for det in np.linalg.det(x)])
    return x / roots[:, None, None]


def _conjugator_draw(g, n: int):
    """Draw part of a bounded conjugator ``U diag(e^s) V^H``: the log
    singular values s, then the Gaussians of its Haar factors U and V."""
    return g.uniform(-CONJUGATOR_SPREAD, CONJUGATOR_SPREAD, size=n), g.standard_normal((2, 2, n, n))


def _conjugator(s, z) -> np.ndarray:
    """Compute part of the bounded conjugators on ``(k, n)`` log singular
    values and ``(k, 2, 2, n, n)`` Gaussians."""
    return (_haar(z[:, 0]) * np.exp(s)[:, None, :]) @ core.adjoint(_haar(z[:, 1]))


def _simple_complex_tuple(rng, n, modulus_band=None, unit_product=False,
                          min_gap=SIMPLE_GAP):
    """Complex Gaussian n-tuple with pairwise gaps above ``min_gap``.

    ``modulus_band=(lo, hi)`` rejects entries outside the band; with
    ``unit_product`` the last entry is solved from the others to force
    product 1 and participates in every rejection test.
    """
    g = np.random.default_rng(rng)
    for _ in range(MAX_TRIES):
        lam = (g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2)
        if unit_product:
            head = lam[: n - 1]
            prod = np.prod(head) if n > 1 else 1.0 + 0j
            if abs(prod) < 1e-6:
                continue
            lam = np.concatenate([head, [1.0 / prod]])
        if modulus_band is not None:
            lo, hi = modulus_band
            mods = np.abs(lam)
            if np.any(mods < lo) or np.any(mods > hi):
                continue
        if n == 1 or _min_gap(lam) > min_gap:
            return lam
    raise UnsupportedDimension("could not draw a simple-spectrum tuple")


def _min_gap(vals) -> float:
    v = np.asarray(vals).ravel()
    if v.size < 2:
        return np.inf
    d = np.abs(v[:, None] - v[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def _stack_draws(draws) -> tuple:
    """Per-matrix draw tuples as one tuple of stacked arrays, ready for a
    compute part."""
    return tuple(np.array(part) for part in zip(*draws))


def _conjugated_diagonal_draw(g, n: int, **tuple_options):
    """Draw part of a conjugated diagonal: a simple tuple (see
    :func:`_simple_complex_tuple`), then a bounded conjugator's draws."""
    return _simple_complex_tuple(g, n, **tuple_options), *_conjugator_draw(g, n)


def _conjugated_diagonal(lam, s, z) -> np.ndarray:
    """Compute part of a conjugated diagonal ``c diag(lambda) c^-1`` on
    ``(k, n)`` tuples and a ``(k, .)`` stack of conjugator draws."""
    c = _conjugator(s, z)
    return c @ core.diagonals(lam) @ np.linalg.inv(c)


def _conjugated_diagonals(g, n: int, k: int, **tuple_options) -> np.ndarray:
    """k conjugated diagonals, drawn one after another."""
    return _conjugated_diagonal(*_stack_draws(
        [_conjugated_diagonal_draw(g, n, **tuple_options) for _ in range(k)]))


def rejection_stack(draw, accept, k: int, failure: str) -> np.ndarray:
    """The first k candidates that pass ``accept``, as one stack.

    ``draw(m)`` returns a stack of m fresh candidates and ``accept(stack)``
    one verdict per candidate.  This is the stacked form of a loop that
    draws one candidate at a time until it passes, ``MAX_TRIES`` times at
    most per output matrix: each round draws only as many candidates as
    the loop is sure to draw next (the matrices still missing, at most the
    current slot's remaining budget), so the rng ends where the loop leaves
    it, and every slot keeps its own budget.  Raises
    :class:`UnsupportedDimension` with ``failure`` once one slot has seen
    ``MAX_TRIES`` rejections.
    """
    kept = []
    tries = 0
    while len(kept) < k:
        candidates = draw(min(k - len(kept), MAX_TRIES - tries))
        for x, ok in zip(candidates, accept(candidates)):
            if ok:
                kept.append(x)
                tries = 0
            else:
                tries += 1
        if tries == MAX_TRIES:
            raise UnsupportedDimension(failure)
    return np.array(kept)


# ---------------------------------------------------------------------------
# Draws shared by the claim checks
# ---------------------------------------------------------------------------

def circle_points(rng, n: int, min_gap: float) -> np.ndarray:
    """n uniform points on the unit circle, pairwise more than ``min_gap`` apart.

    Raises :class:`UnsupportedDimension` when ``MAX_TRIES`` draws all
    fail, as they must when n points at that gap do not fit on the circle.
    """
    if n < 1:
        raise ValueError(f"need at least one circle point, got n = {n}")
    g = np.random.default_rng(rng)
    for _ in range(MAX_TRIES):
        z = np.exp(2j * np.pi * g.uniform(size=n))
        if _min_gap(z) > min_gap:
            return z
    raise UnsupportedDimension(f"could not draw {n} circle points {min_gap} apart")


def separated_pair(rng) -> np.ndarray:
    """Two complex Gaussian eigenvalues more than 0.2 apart."""
    return _simple_complex_tuple(rng, 2, min_gap=0.2)


def _semisimple_draw(g, n: int):
    """Draw part of a conjugated diagonal whose eigenvalues are more than 0.05
    apart and of modulus at most 2.5; its compute part is
    :func:`_conjugated_diagonal`."""
    if n < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    return _conjugated_diagonal_draw(g, n, modulus_band=(0.0, 2.5), min_gap=0.05)


def _positive_definite_draw(g, n: int):
    """Draw part of a positive definite matrix: the Gaussians of its Haar
    eigenbasis, then its log eigenvalues, uniform in ``[log 0.5, log 2]``."""
    return g.standard_normal((2, n, n)), g.uniform(np.log(0.5), np.log(2.0), size=n)


def _positive_definite(z, u) -> tuple[np.ndarray, np.ndarray]:
    """Compute part of the positive definite matrices on ``(k, 2, n, n)``
    Gaussians and ``(k, n)`` log eigenvalues: the matrices and their
    condition numbers."""
    q = _haar(z)
    s = np.exp(u)
    return (q * s[:, None, :]) @ core.adjoint(q), s.max(axis=1) / s.min(axis=1)


def _normal_pair_draw(g, n: int):
    """Draw part of two commuting normal matrices: the Gaussians of their
    shared Haar eigenbasis, then two eigenvalue tuples, each with entries
    more than 0.1 apart and of modulus in [0.3, 3]."""
    z = g.standard_normal((2, n, n))
    return (z, *(_simple_complex_tuple(g, n, modulus_band=(0.3, 3.0), min_gap=0.1)
                 for _ in range(2)))


def _normal_pair(z, lam1, lam2) -> tuple[np.ndarray, np.ndarray]:
    """Compute part of the commuting normal pairs on ``(k, 2, n, n)``
    Gaussians and two ``(k, n)`` eigenvalue stacks."""
    q = _haar(z)
    return tuple(q @ core.diagonals(lam) @ core.adjoint(q) for lam in (lam1, lam2))


# ---------------------------------------------------------------------------
# The main samplers
# ---------------------------------------------------------------------------

def sample(space, n: int, rng=None) -> np.ndarray:
    """Draw one matrix from the named space: the k = 1 case of :func:`sample_stack`.

    Output passes ``membership(space, .)``.  See the module docstring
    for the distribution behind each tag.
    """
    return sample_stack(space, n, 1, rng)[0]


def sample_stack(space, n: int, k: int, rng=None) -> np.ndarray:
    """Draw k matrices from the named space as one ``(k, n, n)`` stack.

    Bit for bit the k matrices that k calls of :func:`sample` on the same
    generator would draw, one after another, and the generator ends in the
    same state: the draws are taken in that order, and the work on them
    runs once on the stack.
    """
    if n < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"need at least one sample, got k = {k}")
    sid = SpaceId.parse(space)
    g = np.random.default_rng(rng)

    if sid is SpaceId.MN:
        return _ginibre(g.standard_normal((k, 2, n, n)))
    if sid is SpaceId.MN_SS:
        return _conjugated_diagonals(g, n, k)
    if sid is SpaceId.GLN:
        def well_conditioned(x):
            s = np.linalg.svd(x, compute_uv=False)
            return s[:, -1] > 1e-3 * np.maximum(1.0, s[:, 0])

        return rejection_stack(lambda m: _ginibre(g.standard_normal((m, 2, n, n))),
                               well_conditioned, k, "invertible rejection sampling failed")
    if sid is SpaceId.GLN_SS:
        return _conjugated_diagonals(g, n, k, modulus_band=(0.1, np.inf))
    if sid is SpaceId.SLN:
        return _unit_determinant(sample_stack(SpaceId.GLN, n, k, g))
    if sid is SpaceId.SLN_SS:
        return _conjugated_diagonals(g, n, k, modulus_band=(1.0 / 3.0, 3.0), unit_product=True)
    if sid is SpaceId.UN:
        return _haar(g.standard_normal((k, 2, n, n)))
    if sid is SpaceId.SUN:
        return _unit_determinant(_haar(g.standard_normal((k, 2, n, n))))
    if sid is SpaceId.NN:
        # per matrix: the eigenvalues' Gaussians, then the eigenbasis'
        z = g.standard_normal((k, 2 * n + 2 * n * n))
        q = _haar(z[:, 2 * n:].reshape(k, 2, n, n))
        return q @ core.diagonals(_ginibre(z[:, :2 * n].reshape(k, 2, n))) @ core.adjoint(q)
    if sid is SpaceId.HN:
        a = _ginibre(g.standard_normal((k, 2, n, n)))
        return 0.5 * (a + core.adjoint(a))
    if sid is SpaceId.GLN_STAR:
        # the distance is taken on scalars, as numpy's array abs rounds
        # differently from its scalar abs
        return rejection_stack(
            lambda m: sample_stack(SpaceId.GLN, n, m, g),
            lambda x: [abs(det + 1.0) > 1e-6 for det in np.linalg.det(x)],
            k, "det != -1 rejection sampling failed")
    raise ValueError(f"unhandled space {sid}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def membership(space, X) -> bool:
    """Check the defining equations of the space within ``tol = MEMBERSHIP_TOL``.

    Scale conventions: linear conditions use ``tol * (1 + ||X||)``, the
    normality commutator uses ``tol * (1 + ||X||)^2``, semisimplicity is
    :func:`core.semisimplicity_check`'s verdict.
    """
    sid = SpaceId.parse(space)
    A = core.as_matrix(X)
    n = A.shape[0]
    scale = 1.0 + core.opnorm(A)

    def invertible():
        s = np.linalg.svd(A, compute_uv=False)
        return s[-1] > MEMBERSHIP_TOL * scale

    def unitary():
        return core.opnorm(A.conj().T @ A - np.eye(n)) <= MEMBERSHIP_TOL * scale

    def semisimple():
        _, _, cond, _ = core.eig_decompose_stack(A[None])
        failed, _, _ = core.semisimplicity_check(cond)
        return not failed[0]

    if sid is SpaceId.MN:
        return True
    if sid is SpaceId.MN_SS:
        return semisimple()
    if sid is SpaceId.GLN:
        return invertible()
    if sid is SpaceId.GLN_SS:
        return invertible() and semisimple()
    if sid is SpaceId.SLN:
        return invertible() and abs(np.linalg.det(A) - 1.0) <= MEMBERSHIP_TOL * scale ** n
    if sid is SpaceId.SLN_SS:
        return membership(SpaceId.SLN, A) and semisimple()
    if sid is SpaceId.UN:
        return unitary()
    if sid is SpaceId.SUN:
        return unitary() and abs(np.linalg.det(A) - 1.0) <= MEMBERSHIP_TOL * n
    if sid is SpaceId.NN:
        return core.opnorm(A @ A.conj().T - A.conj().T @ A) <= MEMBERSHIP_TOL * scale ** 2
    if sid is SpaceId.HN:
        return core.opnorm(A - A.conj().T) <= MEMBERSHIP_TOL * scale
    if sid is SpaceId.GLN_STAR:
        return invertible() and abs(np.linalg.det(A) + 1.0) > MEMBERSHIP_TOL * scale ** n
    raise ValueError(f"unhandled space {sid}")  # pragma: no cover
