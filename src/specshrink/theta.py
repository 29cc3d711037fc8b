"""The exotic involution on semisimple invertible matrices.

Any semisimple invertible X factors as ``X = S N S^{-1}`` with S positive
definite and N normal (diagonalize, then polar-decompose the eigenvector
matrix).  The involution swaps the conjugation:

    theta: S N S^{-1}  ->  S^{-1} N S.

It is well defined despite the non-uniqueness of the factorization (an
intertwiner of normal matrices also intertwines their adjoints), fixes
normal matrices, preserves spectra and commutativity, and on a conjugated
unitary orbit acts as conjugation by S^{-2}.  It is computed here through
one canonical factorization; well-definedness is measured rather than
assumed, as the putnam-fuglede defect of :func:`identity_defects`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import core, spaces
from .calculus import apply_function, perturbation_probe
from .errors import NotSemisimple, Singular, WellDefinednessDegraded

#: Inputs whose eigenvector matrices are worse conditioned than this are
#: rejected rather than decomposed into garbage.
DEFAULT_COND_CAP = 1e6

#: Pinned threshold of every conditioning-scaled identity defect.
IDENTITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ThetaDecomposition:
    """``X = S N S^{-1}`` with S positive definite and N normal."""

    s: np.ndarray
    normal: np.ndarray
    matrix: np.ndarray

    @functools.cached_property
    def residual(self) -> float:
        """Relative operator-norm error of ``S N S^{-1}`` against the input."""
        recon = core.right_divide(self.s @ self.normal, self.s)
        return core.opnorm(recon - self.matrix) / max(core.opnorm(self.matrix), 1e-300)


def theta_decompose(X) -> ThetaDecomposition:
    """Factor a semisimple invertible X as ``S N S^{-1}``.

    Writes ``X = P D P^{-1}``, polar-decomposes ``P = S V``, and sets
    ``N = V D V^H`` which is normal by construction.
    """
    A = core.as_matrix(X)
    ed = core.eig_decompose(A)
    if not ed.semisimple:
        raise NotSemisimple(
            f"eigenvector condition {ed.condition:.3e} exceeds the semisimplicity cap"
        )
    scale = 1.0 + core.opnorm(A)
    if np.min(np.abs(ed.eigenvalues)) <= core.DEFAULT_EIG_TOL * scale:
        raise Singular("matrix is numerically singular")
    if ed.condition > DEFAULT_COND_CAP:
        raise WellDefinednessDegraded(
            f"eigenvector condition {ed.condition:.3e} exceeds cap {DEFAULT_COND_CAP:.1e}"
        )
    S, V = core.polar_decompose(ed.vectors)
    N = V @ np.diag(ed.eigenvalues) @ V.conj().T
    return ThetaDecomposition(s=S, normal=N, matrix=A)


def theta(X) -> np.ndarray:
    """``theta(S N S^{-1}) = S^{-1} N S`` for the canonical factorization.

    Involutory, spectrum preserving, the identity on normal matrices.
    """
    dec = theta_decompose(X)
    return np.linalg.solve(dec.s, dec.normal @ dec.s)


def theta_via_calculus(S, N) -> np.ndarray:
    """``theta`` through the functional-calculus identity.

    Conjugating the entrywise-conjugation calculus of ``S N S^{-1}`` and
    taking adjoints lands exactly on ``S^{-1} N S``; this is the
    cross-module consistency route.
    """
    S = core.as_matrix(S)
    N = core.as_matrix(N)
    X = core.right_divide(S @ N, S)
    return apply_function(X, np.conj).conj().T


def identity_defects(rng, trials: int, dims) -> dict:
    """Worst defects of the involution's identities on random inputs.

    Trial k draws ``X = S N S^-1`` and a commuting ``Y = S N2 S^-1`` of
    size ``dims[k % len(dims)]`` (S positive definite, N, N2 normal) and a
    Haar unitary U.  Returns the worst defect of each identity, scaled by
    conditioning: involution, spectrum, normal-fixing, putnam-fuglede,
    commutativity, inverse-square and calculus-route.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    defects = {k: 0.0 for k in
               ("involution", "spectrum", "normal-fixing", "putnam-fuglede",
                "commutativity", "inverse-square", "calculus-route")}
    for trial in range(trials):
        n = dims[trial % len(dims)]
        S, condS = spaces.positive_definite(rng, n)
        N, N2 = spaces.normal_pair(rng, n)
        X = S @ N @ np.linalg.inv(S)
        scale = (1.0 + core.opnorm(X)) * condS ** 2

        TX = theta(X)
        defects["involution"] = max(
            defects["involution"], core.opnorm(theta(TX) - X) / scale)
        defects["spectrum"] = max(
            defects["spectrum"],
            core.spectrum_match_distance(core.spectrum(TX), core.spectrum(X)))
        defects["normal-fixing"] = max(
            defects["normal-fixing"],
            core.opnorm(theta(N) - N) / (1.0 + core.opnorm(N)))

        swapped = np.linalg.solve(S, N @ S)
        defects["putnam-fuglede"] = max(
            defects["putnam-fuglede"], core.opnorm(TX - swapped) / scale)

        Y = S @ N2 @ np.linalg.inv(S)
        TY = theta(Y)
        defects["commutativity"] = max(
            defects["commutativity"],
            core.opnorm(TX @ TY - TY @ TX)
            / ((1.0 + core.opnorm(TX) * core.opnorm(TY)) * condS ** 2))

        U = spaces.haar_unitary(rng, n)
        XU = S @ U @ np.linalg.inv(S)
        S2 = S @ S
        defects["inverse-square"] = max(
            defects["inverse-square"],
            core.opnorm(theta(XU) - np.linalg.solve(S2, XU @ S2)) / scale)

        defects["calculus-route"] = max(
            defects["calculus-route"],
            core.opnorm(TX - theta_via_calculus(S, N)) / scale)
    return defects


def theta_continuity_probe(X0, scale: float, samples: int = 50,
                           seed: int = 0) -> tuple[float, int]:
    """Max ``||theta(X) - theta(X0)||`` over perturbations of norm ``scale``,
    and the number of draws skipped.

    Draws are resampled until semisimple and invertible.  Report only; the
    discontinuity at repeated spectra has no accepted quantitative
    threshold, so none is enforced here.
    """
    return perturbation_probe(theta, X0, scale, samples, seed,
                              (NotSemisimple, Singular, WellDefinednessDegraded))
