"""Reconstruction of the conjugating matrix behind a black-box preserver.

A continuous commutativity- and spectrum-preserving map on the unitary
group induces a map on subspaces,

    Psi(W) = ker(I - phi(U_W)),     U_W = 2 P_W - I,

which preserves dimensions, inclusions, and lattice operations for pairs
with commuting projections.  Such a subspace map is implemented by an
invertible linear or conjugate-linear operator T, and probing Psi on the
coordinate lines, the sum lines span(e_1 + e_i) and the single witness
line span(e_1 + i e_2) recovers T's columns, their relative scales, and
the linear/conjugate-linear branch.  Linear T gives phi(U) = T U T^{-1};
conjugate-linear T gives phi(U) = T' U^t T'^{-1} for the matrix T' whose
columns are the recovered images.

Classification is validated on held-out samples before being returned;
maps that pass the spectrum and commutativity spot checks but are not of
the conjugation form (the exotic involution, for instance) fail that
residual and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, spaces, theta as theta_mod
from .errors import (
    BranchAmbiguous,
    DimensionDrift,
    DimensionMismatch,
    EigenvalueCollision,
    OracleFailure,
    ResidualTooLarge,
    Singular,
    UnsupportedDimension,
)

MODE_CONJUGATION = "conjugation"
MODE_TRANSPOSE = "transpose_conjugation"

CLASSIFIABLE_SPACES = (
    spaces.SpaceId.UN,
    spaces.SpaceId.NN,
    spaces.SpaceId.GLN_SS,
    spaces.SpaceId.SLN_SS,
)

#: Pinned tolerances: the largest validation residual
#: ``||phi(X) - T X° T^{-1}|| / ||X||``; the gap distance within which
#: the witness line singles out a branch; the largest gap between
#: ``Psi(W + W')`` and ``Psi(W) + Psi(W')``; the largest projective distance
#: of a recovered matrix from the implementing one; and the largest
#: containment defect of ``Psi(W)`` in ``Psi(W')`` for ``W <= W'``.  The
#: kernel cut of ``I - phi(U_W)`` is ``core.KERNEL_TOL``, relative and
#: absolute, as ``||U_W|| = 1``.
RESIDUAL_TOL = 1e-6
BRANCH_TOL = 1e-3
LATTICE_TOL = 1e-6
ROUNDTRIP_TOL = 1e-5
SUBSPACE_MAP_TOL = 1e-6

#: Held-out samples per validation stage; torus elements tried before the
#: eigenvalue matching counts as ambiguous.
VALIDATION_SAMPLES = 20
TORUS_ATTEMPTS = 20


def conjugate(T, X, mode: str = MODE_CONJUGATION) -> np.ndarray:
    """``T X° T^{-1}`` with ``X° = X`` (conjugation) or ``X^t``
    (transpose_conjugation); ``X`` may be a ``(k, n, n)`` stack."""
    A = core.as_matrix(X, stack=True)
    if mode == MODE_TRANSPOSE:
        A = np.swapaxes(A, -1, -2)
    return core.right_divide(T @ A, T)


@dataclass(frozen=True, eq=False)
class PreserverClassification:
    """The matrix and branch implementing a preserver oracle.

    ``matrix`` is normalized so its largest-modulus entry is exactly 1;
    the implementing matrix is only determined projectively.  ``residual``
    is the worst relative deviation ``||phi(X) - T X^o T^{-1}|| / ||X||``
    over the validation samples.
    """

    matrix: np.ndarray
    mode: str
    residual: float

    def apply(self, X) -> np.ndarray:
        """Evaluate the classified form on a matrix."""
        return conjugate(self.matrix, X, self.mode)


def _worst_residual(phi, form, draws, worst: float = 0.0) -> float:
    """Worst ``||phi(X) - form(X)|| / ||X||`` (NaN if a ratio is NaN) over the
    ``(k, n, n)`` stack ``draws``, starting from ``worst``.

    Every validation stage draws its whole stack before the oracle sees
    any of it, so a sampler that runs out of budget raises before any
    :class:`OracleFailure` of that stage.  The stack goes to the oracle
    through :func:`core.call_oracle_stack`, in one call for a map that opts
    in; ``form`` and both norms then run once on the stack.
    """
    X = np.asarray(draws, dtype=complex)  # as core.opnorm norms a real draw
    images = core.call_oracle_stack(phi, X, X.shape[-1])
    ratios = core.opnorm(images - form(X)) / np.maximum(core.opnorm(X), 1e-300)
    return core.running_max(np.append(ratios, worst))


def _validated(stage: str, reason: str, residual: float) -> float:
    """``residual`` when it is at most ``RESIDUAL_TOL``; otherwise, NaN
    included, :class:`ResidualTooLarge` whose message names the ``stage``
    and ends with the ``reason``."""
    if not residual <= RESIDUAL_TOL:
        raise ResidualTooLarge(
            f"{stage} residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}{reason}",
            residual=residual,
        )
    return residual


def projective_distance(A, B) -> float:
    """``min over scalars c of ||A - c B||_F / ||B||_F``."""
    A = core.as_matrix(A)
    B = core.as_matrix(B)
    c = np.vdot(B, A) / np.vdot(B, B)
    return float(np.linalg.norm(A - c * B) / np.linalg.norm(B))


# ---------------------------------------------------------------------------
# The subspace map
# ---------------------------------------------------------------------------

def involution_for_subspace(W: core.Subspace) -> np.ndarray:
    """``U_W = 2 P_W - I``: the unitary Hermitian involution with
    1-eigenspace W and (-1)-eigenspace its orthogonal complement."""
    return 2.0 * core.projection(W) - np.eye(W.ambient_dim)


def psi(phi, subspaces) -> list[core.Subspace]:
    """``Psi(W) = ker(I - phi(U_W))`` of each subspace W, in order.

    The involutions go to the oracle through one
    :func:`core.call_oracle_stack` before any kernel is taken, so an oracle
    failure on any of them raises before a dimension change does.  A
    dimension change means the oracle violates its hypotheses and raises
    :class:`DimensionDrift`.  No subspaces give an empty list, with no
    oracle call; subspaces of different ambient dimensions raise
    :class:`DimensionMismatch`.
    """
    if not subspaces:
        return []
    n = subspaces[0].ambient_dim
    if any(W.ambient_dim != n for W in subspaces):
        raise DimensionMismatch(
            f"subspaces of ambient dimensions {[W.ambient_dim for W in subspaces]} differ")
    Y = core.call_oracle_stack(phi, np.stack([involution_for_subspace(W) for W in subspaces]), n)
    kernels = []
    for W, y in zip(subspaces, Y):
        # the absolute floor keeps the whole space when W is everything
        K = core.kernel(np.eye(n) - y)
        if K.dim != W.dim:
            raise DimensionDrift(f"subspace map changed dimension {W.dim} -> {K.dim}")
        kernels.append(K)
    return kernels


def lattice_compat_check(phi, n: int, trials: int = 20, seed: int = 0) -> bool:
    """Psi respects sums of subspaces with commuting projections.

    Pairs are drawn with a shared orthonormal eigenbasis (columns of one
    Haar unitary), which is exactly the commuting-projection condition.
    """
    if n < 2:
        raise UnsupportedDimension(f"the lattice check needs n >= 2 for proper subspaces, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        Q = spaces.sample(spaces.SpaceId.UN, n, rng)
        d1 = int(rng.integers(1, n))
        d2 = int(rng.integers(1, n))
        idx1 = rng.choice(n, size=d1, replace=False)
        idx2 = rng.choice(n, size=d2, replace=False)
        W = core.Subspace(Q[:, np.sort(idx1)])
        Wp = core.Subspace(Q[:, np.sort(idx2)])
        try:
            lhs, image, image_p = psi(phi, [core.subspace_sum(W, Wp), W, Wp])
        except (DimensionDrift, OracleFailure):
            # an oracle that breaks the subspace map certainly does not
            # respect lattice operations
            return False
        if core.subspace_distance(lhs, core.subspace_sum(image, image_p)) > LATTICE_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# Reconstruction on the unitary group
# ---------------------------------------------------------------------------

def reconstruct(phi, n: int, validation_samples: int = VALIDATION_SAMPLES, seed: int = 0,
                validation_space: str = "un") -> PreserverClassification:
    """Recover the implementing matrix of a preserver oracle on unitaries.

    Probes the subspace map on coordinate lines (columns up to scale), sum
    lines (relative scales) and the line span(e_1 + i e_2) (the minimal
    witness separating the linear from the conjugate-linear branch), then
    validates the assembled classification on held-out samples of
    ``validation_space``: ``"un"`` (Haar unitaries, the default) or
    ``"sun"`` (special unitaries).
    """
    if n < 3:
        raise UnsupportedDimension("reconstruction requires n >= 3")
    if validation_samples < 1:
        raise ValueError(f"validation_samples must be >= 1, got {validation_samples}")
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=complex)

    # the 2n probe lines: coordinate lines, sum lines, the witness line
    kernels = psi(phi, [core.span(eye[:, i]) for i in range(n)]
                  + [core.span(eye[:, 0] + eye[:, i]) for i in range(1, n)]
                  + [core.span(eye[:, 0] + 1j * eye[:, 1])])
    images = [K.basis[:, 0] for K in kernels[:n]]

    cols = [images[0]]
    for i in range(1, n):
        w = kernels[n + i - 1].basis[:, 0]
        M = np.column_stack([images[0], images[i]])
        c, *_ = np.linalg.lstsq(M, w, rcond=None)
        if np.linalg.norm(M @ c - w) > 1e-6:
            raise ResidualTooLarge(
                "sum-line image leaves the span of the coordinate images"
            )
        a, b = c
        if abs(a) < 1e-8 or abs(b) < 1e-8:
            raise ResidualTooLarge("sum-line image is degenerate")
        cols.append((b / a) * images[i])
    T = np.column_stack(cols)

    probe = kernels[-1]
    d_lin = core.subspace_distance(probe, core.span(T[:, 0] + 1j * T[:, 1]))
    d_conj = core.subspace_distance(probe, core.span(T[:, 0] - 1j * T[:, 1]))
    lo, hi = sorted([d_lin, d_conj])
    if lo > BRANCH_TOL or hi <= BRANCH_TOL:
        raise BranchAmbiguous(
            f"probe line distances {d_lin:.3e} (linear) / {d_conj:.3e} "
            "(conjugate-linear) do not single out a branch"
        )
    mode = MODE_CONJUGATION if d_lin < d_conj else MODE_TRANSPOSE

    T = T / T.flat[int(np.argmax(np.abs(T)))]

    residual = _worst_residual(
        phi, lambda X: conjugate(T, X, mode),
        spaces.sample_stack(validation_space, n, validation_samples, rng))
    return PreserverClassification(matrix=T, mode=mode, residual=_validated(
        "validation", "; the oracle is not a conjugation or transpose-conjugation", residual))


# ---------------------------------------------------------------------------
# Torus conjugator recovery
# ---------------------------------------------------------------------------

def torus_conjugator(phi, S, seed: int = 0) -> np.ndarray:
    """Recover a matrix conjugating the torus ``{S diag(u) S^{-1}}`` onto
    its image under the oracle.

    Picks a torus element with well-separated eigenvalues, matches the
    eigenvalues of the input and its image (spectrum preservation makes
    the matching a bijection), aligns eigenvectors, and validates on fresh
    torus samples.  The answer is determined only up to the torus
    centralizer (a diagonal right factor in the S basis), which the
    residual check is insensitive to.

    For unitary S this is the maximal torus ``S diag(u) S^*``; a general
    invertible S is conjugated with its inverse so that spectra are
    preserved.  The search calls the oracle once per torus element it
    tries; the validation samples are drawn as one stack first, so running
    out of draw budget there raises before an oracle failure on them.
    """
    S = core.as_matrix(S)
    n = S.shape[0]
    sv = np.linalg.svd(S, compute_uv=False)
    if sv[-1] <= 1e-10 * max(1.0, sv[0]):
        raise Singular("torus-defining matrix is singular")
    rng = np.random.default_rng(seed)
    Sinv = np.linalg.inv(S)

    T_G = None
    for _ in range(TORUS_ATTEMPTS):
        u = spaces.circle_points(rng, n, 0.5 / n)
        X = S @ np.diag(u) @ Sinv
        Y = core.call_oracle(phi, X, n)
        w, V = np.linalg.eig(Y)
        try:
            match = [_nearest_strict(u_i, w) for u_i in u]
        except EigenvalueCollision:
            continue
        if len(set(match)) != n:
            continue
        T_G = V[:, match] @ Sinv
        break
    if T_G is None:
        raise EigenvalueCollision("eigenvalue matching stayed ambiguous")

    _validated("torus validation", "", _worst_residual(
        phi, lambda X: conjugate(T_G, X),
        np.stack([S @ np.diag(spaces.circle_points(rng, n, 0.1 / n)) @ Sinv
                  for _ in range(VALIDATION_SAMPLES)])))
    return T_G


def _nearest_strict(value, candidates):
    d = np.abs(candidates - value)
    order = np.argsort(d)
    if d.size > 1 and d[order[1]] < 2.0 * d[order[0]] + 1e-9:
        raise EigenvalueCollision("eigenvalue matching is ambiguous")
    return int(order[0])


# ---------------------------------------------------------------------------
# Full-space classification
# ---------------------------------------------------------------------------

def classify_spaces(phi, space_names, n: int, validation_samples: int = VALIDATION_SAMPLES,
                    seed: int = 0) -> list[PreserverClassification]:
    """Classify a preserver oracle on each named space, in order.

    Reconstruction runs on the unitary part (unitaries generate each
    supported space through commuting linear combinations); the resulting
    form is then validated on samples from the full space.  For the
    determinant-1 space the involutions used by the subspace map have
    determinant ``(-1)^(n-1)``, so odd n stays inside the space; the
    classification is additionally validated through the determinant-root
    extension on invertible samples whose determinant avoids the branch
    cut.

    The reconstruction depends only on the oracle, the seed and its stage
    space (``"sun"`` for ``sln_ss``, ``"un"`` otherwise), so it runs once
    per stage; each space is validated on its own ``rng(seed + 1)``.
    Every result, and the first error raised, is the one a separate
    :func:`classify_preserver` call per space would give.

    Each validation set is drawn as one stack before the oracle sees any
    of it.  So when a sampler runs out of budget,
    :class:`UnsupportedDimension` surfaces before any
    :class:`OracleFailure` the oracle would raise in that stage.
    """
    stages = {}
    out = []
    for space in space_names:
        sid = spaces.SpaceId.parse(space)
        if sid not in CLASSIFIABLE_SPACES:
            raise ValueError(f"classification supports {[s.value for s in CLASSIFIABLE_SPACES]}")
        if n < 3:
            raise UnsupportedDimension("classification requires n >= 3")
        if sid is spaces.SpaceId.SLN_SS and n % 2 == 0:
            raise UnsupportedDimension(
                "determinant-1 classification via unitary involutions needs odd n"
            )
        stage = "sun" if sid is spaces.SpaceId.SLN_SS else "un"
        if stage not in stages:
            stages[stage] = reconstruct(
                phi, n, validation_samples=validation_samples, seed=seed,
                validation_space=stage)
        cls = stages[stage]

        rng = np.random.default_rng(seed + 1)
        residual = _worst_residual(
            phi, cls.apply, spaces.sample_stack(sid, n, validation_samples, rng), cls.residual)

        if sid is spaces.SpaceId.SLN_SS:
            def root_extension(X):
                # the principal root of each determinant, taken on scalars
                c = np.reshape([d ** (1.0 / n) for d in np.ravel(np.linalg.det(X))],
                               X.shape[:-2] + (1, 1))
                return c * core.as_matrix(phi(X / c), stack=True)

            root_extension.stacked = getattr(phi, "stacked", False)
            residual = _worst_residual(
                root_extension, cls.apply, _gl_star_ss_sample(rng, n, validation_samples),
                residual)

        out.append(PreserverClassification(matrix=cls.matrix, mode=cls.mode, residual=_validated(
            "full-space validation", "; the oracle is not of the conjugation form on this space",
            residual)))
    return out


def classify_preserver(phi, space, n: int, validation_samples: int = VALIDATION_SAMPLES,
                       seed: int = 0) -> PreserverClassification:
    """Classify a preserver oracle on one named space (see :func:`classify_spaces`)."""
    return classify_spaces(phi, [space], n, validation_samples, seed)[0]


def _gl_star_ss_sample(rng, n, k):
    """k semisimple invertible samples with det away from -1 and the
    nonpositive real axis, where the principal root extension is defined."""
    def safe(x):
        det = np.linalg.det(x)
        return (np.abs(det + 1.0) > 1e-3) & (np.abs(np.angle(det)) < np.pi - 0.2)

    return spaces.rejection_stack(
        lambda m: spaces.sample_stack(spaces.SpaceId.GLN_SS, n, m, rng),
        safe, k, "could not draw a determinant-safe sample")


# ---------------------------------------------------------------------------
# Standard oracles
# ---------------------------------------------------------------------------

def make_oracle(kind: str, T0=None):
    """Build one of the stock preserver oracles.

    ``identity``, ``transpose``, ``conjugation`` (needs T0),
    ``transpose_conjugation`` (needs T0), ``theta``.  Each takes a matrix
    or a ``(k, n, n)`` stack and carries ``stacked = True``, so the
    validation stages and the probe lines call it once per stack.
    """
    tag = kind.strip().lower()
    if tag in ("identity", "id"):
        def phi(X):
            return core.as_matrix(X, stack=True)
    elif tag == "transpose":
        def phi(X):
            return np.swapaxes(core.as_matrix(X, stack=True), -1, -2)
    elif tag in (MODE_CONJUGATION, MODE_TRANSPOSE):
        T = core.as_matrix(T0)

        def phi(X):
            return conjugate(T, X, tag)
    elif tag == "theta":
        return theta_mod.theta
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")
    phi.stacked = True
    return phi
