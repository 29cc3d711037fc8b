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

from dataclasses import dataclass

import numpy as np

from . import core, spaces
from .calculus import apply_function, perturbation_probe
from .errors import NotSemisimple, Singular, UnsupportedDimension, WellDefinednessDegraded

#: Inputs whose eigenvector matrices are worse conditioned than this are
#: rejected rather than decomposed into garbage.
DEFAULT_COND_CAP = 1e6

#: Pinned threshold of every conditioning-scaled identity defect.
IDENTITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ThetaDecomposition:
    """``X = S N S^{-1}`` with S positive definite and N normal; each field
    a ``(k, n, n)`` stack when the input was one."""

    s: np.ndarray
    normal: np.ndarray


def theta_decompose(X) -> ThetaDecomposition:
    """Factor a semisimple invertible X as ``S N S^{-1}``; every matrix of a
    ``(k, n, n)`` stack at once.

    Writes ``X = P D P^{-1}``, polar-decomposes ``P = S V``, and sets
    ``N = V D V^H`` which is normal by construction.  Each step runs once on
    the stack, bit for bit the one-matrix result.
    """
    A = core.as_matrix(X, stack=True)
    As = A if A.ndim == 3 else A[None]
    w, P, cond, norm = core.eig_decompose_stack(As)
    scale = 1.0 + norm
    core.check_rows([
        core.semisimplicity_check(cond),
        (np.abs(w).min(axis=1) <= core.DEFAULT_EIG_TOL * scale, Singular,
         "matrix is numerically singular"),
        (cond > DEFAULT_COND_CAP, WellDefinednessDegraded,
         f"eigenvector condition {{cond:.3e}} exceeds cap {DEFAULT_COND_CAP:.1e}"),
    ], cond=cond)
    S, V = core.polar_decompose(P)
    N = V @ core.diagonals(w) @ core.adjoint(V)
    if A.ndim == 2:
        S, N = S[0], N[0]
    return ThetaDecomposition(s=S, normal=N)


def theta(X) -> np.ndarray:
    """``theta(S N S^{-1}) = S^{-1} N S`` for the canonical factorization;
    every matrix of a ``(k, n, n)`` stack at once.

    Involutory, spectrum preserving, the identity on normal matrices.
    """
    dec = theta_decompose(X)
    return np.linalg.solve(dec.s, dec.normal @ dec.s)


# an oracle that takes stacks: the checks call it once per stack
theta.stacked = True


def theta_via_calculus(S, N) -> np.ndarray:
    """``theta`` through the functional-calculus identity; ``S`` and ``N``
    may be ``(k, n, n)`` stacks.

    Conjugating the entrywise-conjugation calculus of ``S N S^{-1}`` and
    taking adjoints lands exactly on ``S^{-1} N S``; this is the
    cross-module consistency route.
    """
    S = core.as_matrix(S, stack=True)
    N = core.as_matrix(N, stack=True)
    X = core.right_divide(S @ N, S)
    return core.adjoint(apply_function(X, np.conj))


#: The identities of :func:`identity_defects`, in the order of its result.
IDENTITIES = ("involution", "spectrum", "normal-fixing", "putnam-fuglede",
              "commutativity", "inverse-square", "calculus-route")


def identity_defects(rng, trials: int, dims) -> dict:
    """Worst defects of the involution's identities on random inputs.

    Trial k draws ``X = S N S^-1`` and a commuting ``Y = S N2 S^-1`` of
    size ``dims[k % len(dims)]`` (S positive definite, N, N2 normal) and a
    Haar unitary U.  Returns the worst defect of each identity, scaled by
    conditioning: involution, spectrum, normal-fixing, putnam-fuglede,
    commutativity, inverse-square and calculus-route.

    Every trial is drawn first, in trial order, taking the generator's
    numbers as a one-trial-at-a-time loop takes them; then the trials of
    each dimension run as one stack, bit for bit the loop's defects.  So
    when several trials would fail, the error raised can come from another
    trial than the loop's first failure (a failed draw surfaces before any
    failed computation), though a failing trial raises the class the loop
    raises for it.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for n in dims:
        if n < 1:
            raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    draws = {}
    for trial in range(trials):
        n = dims[trial % len(dims)]
        draws.setdefault(n, []).append((trial, spaces._positive_definite_draw(rng, n),
                                        spaces._normal_pair_draw(rng, n),
                                        rng.standard_normal((2, n, n))))
    values = {name: np.empty(trials) for name in IDENTITIES}
    for batch in draws.values():
        index, pd, pair, haar = zip(*batch)
        S, condS = spaces._positive_definite(*spaces._stack_draws(pd))
        N, N2 = spaces._normal_pair(*spaces._stack_draws(pair))
        U = spaces._haar(np.array(haar))
        for name, defect in _stacked_defects(S, condS.tolist(), N, N2, U).items():
            values[name][list(index)] = defect
    return {name: core.running_max(v) for name, v in values.items()}


def _stacked_defects(S, condS, N, N2, U) -> dict:
    """The identity defects of one dimension's trials, one per trial."""
    Sinv = np.linalg.inv(S)
    X = S @ N @ Sinv
    cond2 = np.array([c ** 2 for c in condS])  # the loop's scalar powers
    scale = (1.0 + core.opnorm(X)) * cond2
    TX = theta(X)
    Y = S @ N2 @ Sinv
    TY = theta(Y)
    XU = S @ U @ Sinv
    S2 = S @ S
    return {
        "involution": core.opnorm(theta(TX) - X) / scale,
        "spectrum": [core.spectrum_match_distance(a, b)
                     for a, b in zip(core.spectrum(TX), core.spectrum(X))],
        "normal-fixing": core.opnorm(theta(N) - N) / (1.0 + core.opnorm(N)),
        "putnam-fuglede": core.opnorm(TX - np.linalg.solve(S, N @ S)) / scale,
        "commutativity": core.opnorm(TX @ TY - TY @ TX)
        / ((1.0 + core.opnorm(TX) * core.opnorm(TY)) * cond2),
        "inverse-square": core.opnorm(theta(XU) - np.linalg.solve(S2, XU @ S2)) / scale,
        "calculus-route": core.opnorm(TX - theta_via_calculus(S, N)) / scale,
    }


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
