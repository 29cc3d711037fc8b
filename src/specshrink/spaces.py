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
  conjugator has bounded condition number (singular values log-uniform in
  [0.8, 1.25]) so that coefficient-level checks downstream are not drowned
  in rounding noise.
* ``gln_star``  ``gln`` conditioned on det staying away from -1.

The draws the claim checks share (separated circle points and eigenvalue
pairs, bounded semisimple, positive definite and commuting normal
matrices) live here too.  Every rejection loop here gives up after
``MAX_TRIES`` draws with :class:`UnsupportedDimension`.

Samplers take a ``numpy.random.Generator`` (or a seed) and are pure given
it; membership tests are pure.
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

#: Log-spread of the singular values of :func:`bounded_conjugator` (about
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

def ginibre(rng, n: int) -> np.ndarray:
    """iid standard complex Gaussian entries, variance 1."""
    g = np.random.default_rng(rng)
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    The diagonal of R is divided out by its phases; without this fix QR
    output is not Haar.
    """
    g = np.random.default_rng(rng)
    q, r = np.linalg.qr(ginibre(g, n))
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def special_unitary(rng, n: int) -> np.ndarray:
    """Haar unitary rescaled by a determinant root onto det = 1."""
    u = haar_unitary(rng, n)
    det = np.linalg.det(u)
    return u / det ** (1.0 / n)


def bounded_conjugator(rng, n: int) -> np.ndarray:
    """Random invertible matrix with condition number at most e^(2 CONJUGATOR_SPREAD).

    Built as U diag(s) V^H with Haar U, V and log-uniform singular values.
    """
    g = np.random.default_rng(rng)
    s = np.exp(g.uniform(-CONJUGATOR_SPREAD, CONJUGATOR_SPREAD, size=n))
    return (haar_unitary(g, n) * s) @ haar_unitary(g, n).conj().T


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


def _conjugated_diagonal(rng, lam) -> np.ndarray:
    g = np.random.default_rng(rng)
    n = len(lam)
    c = bounded_conjugator(g, n)
    return c @ np.diag(lam) @ np.linalg.inv(c)


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


def semisimple_sample(rng, n: int) -> np.ndarray:
    """Conjugated diagonal whose eigenvalues are more than 0.05 apart and of
    modulus at most 2.5, with a bounded-condition conjugator."""
    if n < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    g = np.random.default_rng(rng)
    lam = _simple_complex_tuple(g, n, modulus_band=(0.0, 2.5), min_gap=0.05)
    return _conjugated_diagonal(g, lam)


def positive_definite(rng, n: int) -> tuple[np.ndarray, float]:
    """Haar-rotated positive definite matrix with eigenvalues log-uniform in
    [0.5, 2], and its condition number."""
    g = np.random.default_rng(rng)
    q = haar_unitary(g, n)
    s = np.exp(g.uniform(np.log(0.5), np.log(2.0), size=n))
    return (q * s) @ q.conj().T, float(s.max() / s.min())


def normal_pair(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two commuting normal matrices sharing a Haar eigenbasis, each with
    eigenvalues 0.1 apart and of modulus in [0.3, 3]."""
    g = np.random.default_rng(rng)
    q = haar_unitary(g, n)

    def normal():
        lam = _simple_complex_tuple(g, n, modulus_band=(0.3, 3.0), min_gap=0.1)
        return q @ np.diag(lam) @ q.conj().T

    return normal(), normal()


# ---------------------------------------------------------------------------
# The main sampler
# ---------------------------------------------------------------------------

def sample(space, n: int, rng=None) -> np.ndarray:
    """Draw one matrix from the named space.

    Output passes ``membership(space, .)``.  See the module docstring
    for the distribution behind each tag.
    """
    if n < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    sid = SpaceId.parse(space)
    g = np.random.default_rng(rng)

    if sid is SpaceId.MN:
        return core.as_matrix(ginibre(g, n))
    if sid is SpaceId.MN_SS:
        return core.as_matrix(_conjugated_diagonal(g, _simple_complex_tuple(g, n)))
    if sid is SpaceId.GLN:
        for _ in range(MAX_TRIES):
            x = ginibre(g, n)
            s = np.linalg.svd(x, compute_uv=False)
            if s[-1] > 1e-3 * max(1.0, s[0]):
                return core.as_matrix(x)
        raise UnsupportedDimension("invertible rejection sampling failed")
    if sid is SpaceId.GLN_SS:
        lam = _simple_complex_tuple(g, n, modulus_band=(0.1, np.inf))
        return core.as_matrix(_conjugated_diagonal(g, lam))
    if sid is SpaceId.SLN:
        x = sample(SpaceId.GLN, n, g)
        det = np.linalg.det(x)
        return core.as_matrix(x / det ** (1.0 / n))
    if sid is SpaceId.SLN_SS:
        lam = _simple_complex_tuple(g, n, modulus_band=(1.0 / 3.0, 3.0), unit_product=True)
        return core.as_matrix(_conjugated_diagonal(g, lam))
    if sid is SpaceId.UN:
        return core.as_matrix(haar_unitary(g, n))
    if sid is SpaceId.SUN:
        return core.as_matrix(special_unitary(g, n))
    if sid is SpaceId.NN:
        lam = (g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2)
        q = haar_unitary(g, n)
        return core.as_matrix(q @ np.diag(lam) @ q.conj().T)
    if sid is SpaceId.HN:
        a = ginibre(g, n)
        return core.as_matrix(0.5 * (a + a.conj().T))
    if sid is SpaceId.GLN_STAR:
        for _ in range(MAX_TRIES):
            x = sample(SpaceId.GLN, n, g)
            if abs(np.linalg.det(x) + 1.0) > 1e-6:
                return x
        raise UnsupportedDimension("det != -1 rejection sampling failed")
    raise ValueError(f"unhandled space {sid}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def membership(space, X) -> bool:
    """Check the defining equations of the space within ``tol = MEMBERSHIP_TOL``.

    Scale conventions: linear conditions use ``tol * (1 + ||X||)``, the
    normality commutator uses ``tol * (1 + ||X||)^2``, semisimplicity uses
    the condition-number surrogate of :func:`core.eig_decompose`.
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
        return core.eig_decompose(A).semisimple

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
