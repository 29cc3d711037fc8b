"""The exotic involution on semisimple invertible matrices.

Any semisimple invertible X factors as ``X = S N S^{-1}`` with S positive
definite and N normal (diagonalize, then polar-decompose the eigenvector
matrix).  The involution swaps the conjugation:

    theta: S N S^{-1}  ->  S^{-1} N S.

It is well defined despite the non-uniqueness of the factorization (an
intertwiner of normal matrices also intertwines their adjoints), fixes
normal matrices, preserves spectra and commutativity, and on a conjugated
unitary orbit acts as conjugation by S^{-2}.  It is computed here through
one canonical factorization; well-definedness is demonstrated by the
double-decomposition checks rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, spaces
from .calculus import apply_function
from .errors import (
    NotSemisimple,
    PreconditionViolated,
    Singular,
    WellDefinednessDegraded,
)

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
    residual: float


def theta_decompose(X, tol: float = 1e-8, cond_cap: float = DEFAULT_COND_CAP) -> ThetaDecomposition:
    """Factor a semisimple invertible X as ``S N S^{-1}``.

    Writes ``X = P D P^{-1}``, polar-decomposes ``P = S V``, and sets
    ``N = V D V^H`` which is normal by construction.
    """
    A = core.as_matrix(X)
    ed = core.eig_decompose(A, tol)
    if not ed.semisimple:
        raise NotSemisimple(
            f"eigenvector condition {ed.condition:.3e} exceeds the semisimplicity cap"
        )
    scale = 1.0 + core.opnorm(A)
    if np.min(np.abs(ed.eigenvalues)) <= tol * scale:
        raise Singular("matrix is numerically singular")
    if ed.condition > cond_cap:
        raise WellDefinednessDegraded(
            f"eigenvector condition {ed.condition:.3e} exceeds cap {cond_cap:.1e}"
        )
    S, V = core.polar_decompose(ed.vectors)
    N = V @ np.diag(ed.eigenvalues) @ V.conj().T
    recon = core.right_divide(S @ N, S)
    residual = core.opnorm(recon - A) / max(core.opnorm(A), 1e-300)
    return ThetaDecomposition(s=S, normal=N, residual=residual)


def theta(X, tol: float = 1e-8, cond_cap: float = DEFAULT_COND_CAP) -> np.ndarray:
    """``theta(S N S^{-1}) = S^{-1} N S`` for the canonical factorization.

    Involutory, spectrum preserving, the identity on normal matrices.
    """
    dec = theta_decompose(X, tol, cond_cap)
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


def check_putnam_fuglede(S, T, N, M, tol: float = 1e-8) -> bool:
    """Numerical witness that the involution is well defined.

    Given two factorizations ``S N S^{-1} = T M T^{-1}`` of one matrix
    (validated as a precondition), checks that the swapped conjugations
    agree: ``S^{-1} N S = T^{-1} M T`` within ``100 tol`` at the input
    scale.
    """
    S, T = core.as_matrix(S), core.as_matrix(T)
    N, M = core.as_matrix(N), core.as_matrix(M)
    left = core.right_divide(S @ N, S)
    right = core.right_divide(T @ M, T)
    scale = max(core.opnorm(left), 1.0)
    if core.opnorm(left - right) > tol * scale:
        raise PreconditionViolated(
            "the two factorizations do not represent the same matrix"
        )
    swapped_left = np.linalg.solve(S, N @ S)
    swapped_right = np.linalg.solve(T, M @ T)
    return core.opnorm(swapped_left - swapped_right) <= 100.0 * tol * scale


def theta_commutativity_check(X, Y, tol: float = 1e-8) -> bool:
    """Commuting inputs must have commuting images."""
    A, B = core.as_matrix(X), core.as_matrix(Y)
    scale_in = max(core.opnorm(A) * core.opnorm(B), 1e-300)
    if core.opnorm(A @ B - B @ A) > tol * scale_in:
        raise PreconditionViolated("inputs do not commute within tolerance")
    TA, TB = theta(A), theta(B)
    scale_out = 1.0 + core.opnorm(TA) * core.opnorm(TB)
    return core.opnorm(TA @ TB - TB @ TA) <= 100.0 * tol * scale_out


def theta_ads_identity(S, U, tol: float = 1e-7) -> bool:
    """On a conjugated unitary orbit the involution is conjugation by S^{-2}.

    ``theta(S U S^{-1}) = S^{-1} U S = S^{-2} (S U S^{-1}) S^2``; the
    identity is algebraically forced, so this is a numerical confirmation.
    """
    S = core.as_matrix(S)
    U = core.as_matrix(U)
    X = core.right_divide(S @ U, S)
    lhs = theta(X)
    S2 = S @ S
    rhs = np.linalg.solve(S2, X @ S2)
    return core.opnorm(lhs - rhs) <= tol * (1.0 + core.opnorm(rhs))


def identity_defects(rng, trials: int, dims) -> tuple[dict, dict]:
    """Worst defects of the involution's identities on random inputs.

    Trial k draws ``X = S N S^-1`` and a commuting ``Y = S N2 S^-1`` of
    size ``dims[k % len(dims)]`` (S positive definite, N, N2 normal) and a
    Haar unitary U.  Returns the worst defect of each identity, scaled by
    conditioning: involution, spectrum, normal-fixing, putnam-fuglede,
    commutativity, inverse-square and calculus-route; and, for the three
    identities with a boolean witness function, whether every trial
    confirmed it.
    """
    defects = {k: 0.0 for k in
               ("involution", "spectrum", "normal-fixing", "putnam-fuglede",
                "commutativity", "inverse-square", "calculus-route")}
    pf_all = True
    comm_all = True
    ads_all = True
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

        dec = theta_decompose(X)
        pf_all = pf_all and check_putnam_fuglede(S, dec.s, N, dec.normal)
        swapped = np.linalg.solve(S, N @ S)
        defects["putnam-fuglede"] = max(
            defects["putnam-fuglede"], core.opnorm(TX - swapped) / scale)

        Y = S @ N2 @ np.linalg.inv(S)
        comm_all = comm_all and theta_commutativity_check(X, Y)
        TY = theta(Y)
        defects["commutativity"] = max(
            defects["commutativity"],
            core.opnorm(TX @ TY - TY @ TX)
            / ((1.0 + core.opnorm(TX) * core.opnorm(TY)) * condS ** 2))

        U = spaces.haar_unitary(rng, n)
        ads_all = ads_all and theta_ads_identity(S, U, tol=IDENTITY_TOL * condS ** 2)
        XU = S @ U @ np.linalg.inv(S)
        S2 = S @ S
        defects["inverse-square"] = max(
            defects["inverse-square"],
            core.opnorm(theta(XU) - np.linalg.solve(S2, XU @ S2)) / scale)

        defects["calculus-route"] = max(
            defects["calculus-route"],
            core.opnorm(TX - theta_via_calculus(S, N)) / scale)
    confirmed = {"putnam-fuglede": pf_all, "commutativity": comm_all,
                 "inverse-square": ads_all}
    return defects, confirmed


@dataclass(frozen=True)
class ThetaProbeReport:
    """Empirical local oscillation of the involution near a base point."""

    scale: float
    samples: int
    seed: int
    max_oscillation: float
    rejected: int


def theta_continuity_probe(X0, scale: float, samples: int = 50, seed: int = 0,
                           cond_cap: float = DEFAULT_COND_CAP) -> ThetaProbeReport:
    """Max ``||theta(X) - theta(X0)||`` over perturbations of norm ``scale``.

    Draws are resampled until semisimple and invertible.  Report only; the
    discontinuity at repeated spectra has no accepted quantitative
    threshold, so none is enforced here.
    """
    A = core.as_matrix(X0)
    n = A.shape[0]
    g = np.random.default_rng(seed)
    base = theta(A, cond_cap=cond_cap)
    worst = 0.0
    produced = 0
    rejected = 0
    while produced < samples:
        if rejected > 50 * samples:
            raise NotSemisimple("perturbation resampling budget exhausted")
        D = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        D *= scale / core.opnorm(D)
        try:
            val = theta(A + D, cond_cap=cond_cap)
        except (NotSemisimple, Singular, WellDefinednessDegraded):
            rejected += 1
            continue
        produced += 1
        worst = max(worst, core.opnorm(val - base))
    return ThetaProbeReport(
        scale=float(scale), samples=samples, seed=seed,
        max_oscillation=worst, rejected=rejected,
    )
