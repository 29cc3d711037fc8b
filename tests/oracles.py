"""Independent oracles used to derive expected values in the tests.

Each function here deliberately computes its answer by a different route
than the library code it checks: root expansion instead of the trace
recurrence, matrix square roots instead of SVD, exhaustive integer-shift
enumeration instead of the sort-based construction, closed-form roots
instead of eigenvalue continuation, every bijection instead of bisection
over perfect matchings, scipy's matching instead of augmenting paths, one
matrix, value, step, path or permutation at a time instead of a stacked
kernel or a stacked draw, ``json.dumps`` instead of the CLI's own encoder.
"""

import itertools

import numpy as np
import scipy.linalg


def charpoly_coeffs_from_roots(roots):
    """Ascending non-leading coefficients of prod (x - r), via numpy.poly."""
    desc = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))
    return desc[::-1][:-1]


def poly_power_coeffs(coeffs_asc, k):
    """Coefficients of a monic polynomial raised to the k-th power.

    ``coeffs_asc`` excludes the leading 1; so does the result.
    """
    full = np.concatenate([np.asarray(coeffs_asc, dtype=complex), [1.0]])
    out = np.array([1.0 + 0j])
    for _ in range(k):
        out = np.convolve(out, full)
    return out[:-1]


def canonical_shrinker_by_block_diag(X, p, q, conjugator=None):
    """The canonical shrinker as first written, with ``scipy.linalg.block_diag``
    assembling ``X (x) I_p`` and ``X^t (x) I_q``."""
    X = np.asarray(X, dtype=complex)
    blocks = []
    if p:
        blocks.append(np.kron(X, np.eye(p)))
    if q:
        blocks.append(np.kron(X.T, np.eye(q)))
    B = scipy.linalg.block_diag(*blocks)
    if conjugator is None:
        return B
    S = np.asarray(conjugator, dtype=complex)
    return S @ B @ np.linalg.inv(S)


def polar_via_sqrtm(S):
    """Left polar factors through the matrix square root of S S^H."""
    P = scipy.linalg.sqrtm(S @ S.conj().T)
    V = np.linalg.solve(P, S)
    return P, V


def su_representative_by_enumeration(U):
    """Fundamental-domain representative by exhaustive integer shifts.

    Enumerates shift vectors k in {-n..n}^n with the angle sum restored to
    zero, keeps the sorted shifted vectors satisfying the domain bounds,
    and asserts the surviving representative is unique.
    """
    n = U.shape[0]
    theta = np.mod(np.angle(np.linalg.eigvals(U)) / (2 * np.pi), 1.0)
    total = int(round(theta.sum()))
    hits = set()
    for k in itertools.product(range(-n, n + 1), repeat=n):
        if sum(k) != -total:
            continue
        x = np.sort(theta + np.asarray(k, dtype=float))
        if abs(x.sum()) > 1e-9:
            continue
        if n > 1 and x[-1] > x[0] + 1.0 + 1e-9:
            continue
        hits.add(tuple(np.round(x, 9)))
    assert len(hits) == 1, f"representative not unique: {hits}"
    return np.array(next(iter(hits)))


def corner_roots(n, z):
    """Closed-form roots of x^n - z (the corner matrix's spectrum)."""
    base = complex(z) ** (1.0 / n)
    return base * np.exp(2j * np.pi * np.arange(n) / n)


def corner_matrices_by_loop(n, r, steps):
    """The corner matrices of the loop |z| = r one step at a time, as first
    written: z = r at t = 0, then one scalar exp per step."""
    ts = np.linspace(0.0, 1.0, steps + 1)
    mats = []
    for k in range(steps + 1):
        X = np.diag(np.ones(n - 1, dtype=complex), 1)
        X[n - 1, 0] = r if k == 0 else r * np.exp(2j * np.pi * ts[k])
        mats.append(X)
    return np.stack(mats)


def corner_root_path(n, r, ts, branch):
    """Analytic continuation of one root of x^n - r e^(2 pi i t)."""
    return r ** (1.0 / n) * np.exp(2j * np.pi * (ts + branch) / n)


def hermitian_eigenvalues(X):
    """Eigenvalues by the Hermitian-specific solver, ascending (real)."""
    return np.linalg.eigvalsh(X)


def lagrange_matrix_function(T, f):
    """f(T) by scalar interpolation: build the interpolating polynomial on
    the spectrum with numpy's polynomial tools and evaluate it at T by
    Horner's rule.  Distinct eigenvalues required."""
    T = np.asarray(T, dtype=complex)
    vals = np.linalg.eigvals(T)
    # Newton-free direct solve of the Vandermonde system
    V = np.vander(vals, increasing=True)
    coeffs = np.linalg.solve(V, np.array([complex(f(v)) for v in vals]))
    n = T.shape[0]
    out = np.zeros_like(T)
    for c in coeffs[::-1]:
        out = out @ T + c * np.eye(n)
    return out


def bottleneck_by_enumeration(a, b):
    """min over bijections sigma of max |a_i - b_sigma(i)|, by trying every
    bijection (with early exit once a partial maximum reaches the best)."""
    D = np.abs(np.subtract.outer(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    best = np.inf
    for perm in itertools.permutations(range(len(D))):
        worst = 0.0
        for i, j in enumerate(perm):
            worst = max(worst, D[i, j])
            if worst >= best:
                break
        else:
            best = worst
    return float(best)


def bottleneck_by_scipy_matching(a, b):
    """The bottleneck matching distance as first written: bisection over the
    distinct distances with scipy's ``maximum_bipartite_matching`` as the
    perfect-matching test."""
    import scipy.sparse
    from scipy.sparse.csgraph import maximum_bipartite_matching

    D = np.abs(np.subtract.outer(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    levels = np.unique(D)
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        graph = scipy.sparse.csr_matrix((D <= levels[mid]).astype(np.int8))
        if np.any(maximum_bipartite_matching(graph, perm_type="column") == -1):
            lo = mid + 1
        else:
            hi = mid
    return float(levels[lo])


def su_conjugation_pairs_by_loop(rng, n, k):
    """Criterion 4's (U, V U V^H) pairs as first written: one
    ``sample("sun")`` and one ``sample("un")`` call per pair."""
    from specshrink import spaces

    Us, conjs = [], []
    for _ in range(k):
        U = spaces.sample("sun", n, rng)
        V = spaces.sample("un", n, rng)
        Us.append(U)
        conjs.append(V @ U @ V.conj().T)
    return np.stack(Us), np.stack(conjs)


def hn_select_by_loop(X):
    """The Hermitian selector on one matrix, as first written: check that X
    is Hermitian, then take the largest ``eigvalsh`` value."""
    from specshrink import core, selectors
    from specshrink.errors import NotHermitian

    A = core.as_matrix(X)
    if core.opnorm(A - A.conj().T) > selectors.DOMAIN_TOL * (1.0 + core.opnorm(A)):
        raise NotHermitian("input is not Hermitian within tolerance")
    return float(np.max(np.linalg.eigvalsh(A)))


def su_select_by_loop(U):
    """The special unitary selector one matrix at a time, as first written:
    validate, sort the eigenvalue angles, rotate the integer excess to the
    front, flush the sum, exponentiate the first coordinate.  Bad inputs
    raise the library's exceptions; only the domain checks are skipped."""
    from specshrink import core, selectors
    from specshrink.errors import NotSpecialUnitary, RepresentativeNotFound

    A = core.as_matrix(U)
    n = A.shape[0]
    tol = selectors.DOMAIN_TOL
    if core.opnorm(A.conj().T @ A - np.eye(n)) > tol * (1.0 + n):
        raise NotSpecialUnitary("not unitary")
    if abs(np.linalg.det(A) - 1.0) > tol * n:
        raise NotSpecialUnitary("determinant is not 1")
    theta = np.sort(np.mod(np.angle(np.linalg.eigvals(A)) / (2.0 * np.pi), 1.0))
    total = theta.sum()
    s = int(round(total))
    if abs(total - s) > 1e-6:
        raise RepresentativeNotFound("angle sum is not near an integer")
    s = min(max(s, 0), n)
    x = np.concatenate([theta[n - s:] - 1.0, theta[: n - s]])
    x = x - x.sum() / n
    return complex(np.exp(2j * np.pi * x[0]))


def su_paths_by_loop(rng, n, count, steps, step):
    """``count`` special unitary paths one after another, as first written:
    draw U and E = expm(step A), then ``E @ U`` one matrix at a time.
    Returns each path's matrices and selected values."""
    from specshrink import selectors, spaces

    out = []
    for _ in range(count):
        U = spaces.sample("sun", n, rng)
        E = scipy.linalg.expm(step * selectors._skew_traceless(rng, n))
        mats = []
        for _ in range(steps + 1):
            mats.append(U)
            U = E @ U
        out.append((mats, selectors.su_select_stack(np.stack(mats))))
    return out


def nearest_unambiguous_by_value(value, candidates):
    """Nearest candidate to one value by a full argsort; a near tie raises."""
    from specshrink import selectors
    from specshrink.errors import AmbiguousContinuation

    d = np.abs(candidates - value)
    order = np.argsort(d)
    if d.size > 1:
        d1, d2 = float(d[order[0]]), float(d[order[1]])
        slack = 10.0 * selectors.TRACKING_TOL * min(1.0, float(np.max(np.abs(candidates))))
        if d2 < max(2.0 * d1, d1 + slack):
            raise AmbiguousContinuation(
                f"nearest match is ambiguous: distances {d1:.3e} and {d2:.3e}"
            )
    return int(order[0])


def continue_all_by_loop(prev, new_vals):
    """Match each tracked value on its own; the matches must be a bijection."""
    from specshrink.errors import AmbiguousContinuation

    chosen = [nearest_unambiguous_by_value(p, new_vals) for p in prev]
    if len(set(chosen)) != len(chosen):
        raise AmbiguousContinuation("two tracked eigenvalues claimed the same target")
    return new_vals[chosen]


def track_by_loop(spectra):
    """Track the values of ``spectra[0]`` through its rows one step at a time."""
    values = [spectra[0]]
    for new_vals in spectra[1:]:
        values.append(continue_all_by_loop(values[-1], new_vals))
    return np.array(values)


def monodromy_by_loop(n, r, steps):
    """The corner-loop monodromy as first written: one continuation per step
    from the canonical start spectrum, one nearest match per endpoint."""
    from specshrink import core, selectors
    from specshrink.errors import AmbiguousContinuation

    ts = np.linspace(0.0, 1.0, steps + 1)
    spectra = np.linalg.eigvals(selectors.corner_matrices(n, r * np.exp(2j * np.pi * ts)))
    start = core.canonical_spectrum(spectra[0])
    values = track_by_loop([start, *spectra[1:]])
    perm = tuple(nearest_unambiguous_by_value(v, start) for v in values[-1])
    if len(set(perm)) != n:
        raise AmbiguousContinuation("loop endpoints do not biject onto the start spectrum")
    return selectors.MonodromyResult(n=n, r=float(r), steps=steps, permutation=perm,
                                     start=start, end=values[-1], parameters=ts,
                                     values=values)


def psi_by_loop(phi, W):
    """``Psi(W) = ker(I - phi(U_W))`` of one subspace, with one one-matrix
    oracle call, as first written."""
    from specshrink import core, reconstruct
    from specshrink.errors import DimensionDrift

    Y = core.call_oracle(phi, reconstruct.involution_for_subspace(W))
    K = core.kernel(np.eye(W.ambient_dim) - Y)
    if K.dim != W.dim:
        raise DimensionDrift(f"subspace map changed dimension {W.dim} -> {K.dim}")
    return K


def worst_residual_by_loop(phi, form, draws, worst=0.0):
    """Worst ``||phi(X) - form(X)|| / ||X||`` one matrix at a time."""
    from specshrink import core

    for X in draws:
        lhs = core.as_matrix(phi(X))
        worst = max(worst, core.opnorm(lhs - form(X)) / max(core.opnorm(X), 1e-300))
    return worst


def cycle_decomposition_by_enumeration(n):
    """The shift-transposition factorization over every permutation tuple:
    for each distinct conjugate c of eta and each transposition (a b), some
    power c^s (s = 1..n-1) has c^s(b) = a or c^s(a) = b."""
    from specshrink import configspace

    eta = configspace.eta_cycle(n)
    seen = set()
    for theta in itertools.permutations(range(n)):
        c = configspace.compose(configspace.compose(theta, eta), configspace.inverse(theta))
        if c in seen:
            continue
        seen.add(c)
        powers = []
        cur = c
        for _ in range(n - 1):
            powers.append(cur)
            cur = configspace.compose(c, cur)
        for a, b in itertools.combinations(range(n), 2):
            if not any(p[b] == a or p[a] == b for p in powers):
                return False
    return True


def char_poly_by_loop(X):
    """The trace recurrence on one matrix, as first written."""
    A = np.asarray(X, dtype=complex)
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    asc = np.empty(n, dtype=complex)
    M = np.zeros_like(A)
    c = 1.0 + 0j
    for k in range(1, n + 1):
        M = A @ M + c * eye
        c = -np.trace(A @ M) / k
        asc[n - k] = c
    return asc


def spectrum_by_loop(X):
    """Eigenvalues of one matrix sorted by (Re, Im), as first written."""
    vals = np.linalg.eigvals(np.asarray(X, dtype=complex))
    return vals[np.lexsort((vals.imag, vals.real))]


def inclusion_defect_by_loop(a, b):
    """Directed Hausdorff distance between two 1-d spectra, as first written."""
    return float(np.max(np.min(np.abs(a[:, None] - b[None, :]), axis=1)))

def _ginibre_by_loop(g, n):
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)


def _haar_by_loop(g, n):
    q, r = np.linalg.qr(_ginibre_by_loop(g, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def conjugator_by_loop(g, n):
    """A bounded conjugator ``U diag(e^s) V^H`` drawn from generator ``g``
    as first written, one matrix at a time: the bits, and the generator's
    end state, of the conjugators the semisimple samplers draw."""
    from specshrink import spaces

    s = np.exp(g.uniform(-spaces.CONJUGATOR_SPREAD, spaces.CONJUGATOR_SPREAD, size=n))
    return (_haar_by_loop(g, n) * s) @ _haar_by_loop(g, n).conj().T


def _conjugated_diagonal_by_loop(g, lam):
    c = conjugator_by_loop(g, len(lam))
    return c @ np.diag(lam) @ np.linalg.inv(c)


def sample_by_loop(space, n, rng):
    """One matrix of the named space, as first written: every draw and every
    QR, product, determinant root and rejection test on one matrix at a time."""
    from specshrink import spaces
    from specshrink.errors import UnsupportedDimension

    sid = spaces.SpaceId.parse(space)
    g = np.random.default_rng(rng)
    tuple_ = spaces._simple_complex_tuple
    if sid is spaces.SpaceId.MN:
        return _ginibre_by_loop(g, n)
    if sid is spaces.SpaceId.MN_SS:
        return _conjugated_diagonal_by_loop(g, tuple_(g, n))
    if sid is spaces.SpaceId.GLN:
        for _ in range(spaces.MAX_TRIES):
            x = _ginibre_by_loop(g, n)
            s = np.linalg.svd(x, compute_uv=False)
            if s[-1] > 1e-3 * max(1.0, s[0]):
                return x
        raise UnsupportedDimension("invertible rejection sampling failed")
    if sid is spaces.SpaceId.GLN_SS:
        return _conjugated_diagonal_by_loop(g, tuple_(g, n, modulus_band=(0.1, np.inf)))
    if sid is spaces.SpaceId.SLN:
        x = sample_by_loop(spaces.SpaceId.GLN, n, g)
        return x / np.linalg.det(x) ** (1.0 / n)
    if sid is spaces.SpaceId.SLN_SS:
        lam = tuple_(g, n, modulus_band=(1.0 / 3.0, 3.0), unit_product=True)
        return _conjugated_diagonal_by_loop(g, lam)
    if sid is spaces.SpaceId.UN:
        return _haar_by_loop(g, n)
    if sid is spaces.SpaceId.SUN:
        u = _haar_by_loop(g, n)
        return u / np.linalg.det(u) ** (1.0 / n)
    if sid is spaces.SpaceId.NN:
        lam = (g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2)
        q = _haar_by_loop(g, n)
        return q @ np.diag(lam) @ q.conj().T
    if sid is spaces.SpaceId.HN:
        a = _ginibre_by_loop(g, n)
        return 0.5 * (a + a.conj().T)
    if sid is spaces.SpaceId.GLN_STAR:
        for _ in range(spaces.MAX_TRIES):
            x = sample_by_loop(spaces.SpaceId.GLN, n, g)
            if abs(np.linalg.det(x) + 1.0) > 1e-6:
                return x
        raise UnsupportedDimension("det != -1 rejection sampling failed")
    raise ValueError(f"unhandled space {sid}")


def verify_shrinker_defects_by_loop(phi, space, n, m, samples, seed):
    """(inclusion, power-law) defects of the batch shrinker check, as first
    written: draw every sample, then one spectrum, one characteristic
    polynomial and one defect per matrix."""
    from specshrink import core

    rng = np.random.default_rng(seed)
    xs = [sample_by_loop(space, n, rng) for _ in range(samples)]
    ys = [np.asarray(phi(X), dtype=complex) for X in xs]
    inclusion = 0.0
    for X, Y in zip(xs, ys):
        inclusion = max(inclusion, inclusion_defect_by_loop(spectrum_by_loop(Y),
                                                            spectrum_by_loop(X)))
    if m % n:
        return inclusion, None
    powerlaw = 0.0
    for X, Y in zip(xs, ys):
        target = core.poly_power(char_poly_by_loop(X), m // n)
        powerlaw = max(powerlaw, float(np.max(np.abs(char_poly_by_loop(Y) - target))))
    return inclusion, powerlaw


def eig_decompose_by_loop(X):
    """(eigenvalues, vectors, condition) of one matrix as first written: the
    cluster pass always runs, and ``np.linalg.cond`` judges the vectors."""
    from specshrink import core

    A = np.asarray(X, dtype=complex)
    n = A.shape[0]
    w, P = np.linalg.eig(A)
    P = P.astype(complex, copy=True)
    scale = 1.0 + _opnorm_by_loop(A)
    for idx in core.cluster_points(w, core.DEFAULT_EIG_TOL * scale):
        if len(idx) < 2:
            continue
        mu = w[idx].mean()
        width = float(np.max(np.abs(w[idx] - mu)))
        _, s, vh = np.linalg.svd(A - mu * np.eye(n))
        dim = int(np.sum(s <= 10.0 * (width + core.DEFAULT_EIG_TOL * scale)))
        if dim == len(idx):
            P[:, idx] = vh[n - dim:].conj().T
    cond = float(np.linalg.cond(P, 2))
    if not np.isfinite(cond):
        cond = np.inf
    order = np.lexsort((w.imag, w.real))
    return w[order], P[:, order], cond


def theta_by_loop(X):
    """theta on one matrix as first written: the loop eigendecomposition,
    the singularity and conditioning checks, one polar decomposition."""
    from specshrink import core, theta
    from specshrink.errors import NotSemisimple, Singular, WellDefinednessDegraded

    A = np.asarray(X, dtype=complex)
    w, P, cond = eig_decompose_by_loop(A)
    if not cond <= 1.0 / core.DEFAULT_EIG_TOL:
        raise NotSemisimple("not semisimple")
    if np.min(np.abs(w)) <= core.DEFAULT_EIG_TOL * (1.0 + _opnorm_by_loop(A)):
        raise Singular("singular")
    if cond > theta.DEFAULT_COND_CAP:
        raise WellDefinednessDegraded("ill-conditioned")
    u, s, vh = np.linalg.svd(P)
    S = (u * s) @ u.conj().T
    S = 0.5 * (S + S.conj().T)
    V = u @ vh
    N = V @ np.diag(w) @ V.conj().T
    return np.linalg.solve(S, N @ S)


def _opnorm_by_loop(X):
    return float(np.linalg.norm(X, 2))


def _positive_definite_by_loop(g, n):
    q = _haar_by_loop(g, n)
    s = np.exp(g.uniform(np.log(0.5), np.log(2.0), size=n))
    return (q * s) @ q.conj().T, float(s.max() / s.min())


def _normal_pair_by_loop(g, n):
    from specshrink import spaces

    q = _haar_by_loop(g, n)

    def normal():
        lam = spaces._simple_complex_tuple(g, n, modulus_band=(0.3, 3.0), min_gap=0.1)
        return q @ np.diag(lam) @ q.conj().T

    return normal(), normal()


def _semisimple_by_loop(g, n):
    from specshrink import spaces

    lam = spaces._simple_complex_tuple(g, n, modulus_band=(0.0, 2.5), min_gap=0.05)
    return _conjugated_diagonal_by_loop(g, lam)


def apply_function_by_loop(T, f, grouping_tol=None):
    """f(T) on one matrix as first written: the loop eigendecomposition,
    the clustering and its ambiguity test, then the sum of f(cluster mean)
    times the cluster's idempotent, one cluster after another."""
    from specshrink import calculus, core
    from specshrink.errors import AmbiguousClustering, NotSemisimple

    tol = calculus.DEFAULT_GROUPING_TOL if grouping_tol is None else grouping_tol
    w, P, cond = eig_decompose_by_loop(T)
    if not cond <= 1.0 / core.DEFAULT_EIG_TOL:
        raise NotSemisimple("not semisimple")
    clusters = core.cluster_points(w, tol)
    reps = [complex(w[idx].mean()) for idx in clusters]
    for i, j in itertools.combinations(range(len(reps)), 2):
        if abs(reps[i] - reps[j]) <= 10.0 * tol:
            raise AmbiguousClustering("ambiguous")
    Pinv = np.linalg.inv(P)
    out = np.zeros_like(P)
    for rep, idx in zip(reps, clusters):
        mask = np.zeros(w.size)
        mask[idx] = 1.0
        out += complex(f(rep)) * ((P * mask) @ Pinv)
    return out


def lagrange_apply_by_loop(T, f):
    """Lagrange interpolation on one matrix as first written."""
    from specshrink import calculus
    from specshrink.errors import AmbiguousClustering

    A = np.asarray(T, dtype=complex)
    n = A.shape[0]
    vals = np.linalg.eigvals(A)
    d = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(d, np.inf)
    if n > 1 and d.min() <= calculus.LAGRANGE_GAP_TOL * (1.0 + _opnorm_by_loop(A)):
        raise AmbiguousClustering("interpolation oracle requires simple spectrum")
    eye = np.eye(n, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        term = complex(f(vals[i])) * eye
        for j in range(n):
            if j != i:
                term = term @ (A - vals[j] * eye) / (vals[i] - vals[j])
        out += term
    return out


def identity_defects_by_loop(rng, trials, dims):
    """theta's identity defects one trial at a time, as first written: draw
    a trial, run it through the one-matrix loop theta and the loop
    calculus, keep a running max."""
    from specshrink import core, theta

    defects = {k: 0.0 for k in theta.IDENTITIES}
    for trial in range(trials):
        n = dims[trial % len(dims)]
        S, condS = _positive_definite_by_loop(rng, n)
        N, N2 = _normal_pair_by_loop(rng, n)
        X = S @ N @ np.linalg.inv(S)
        scale = (1.0 + _opnorm_by_loop(X)) * condS ** 2
        TX = theta_by_loop(X)
        defects["involution"] = max(
            defects["involution"], _opnorm_by_loop(theta_by_loop(TX) - X) / scale)
        defects["spectrum"] = max(
            defects["spectrum"],
            core.spectrum_match_distance(spectrum_by_loop(TX), spectrum_by_loop(X)))
        defects["normal-fixing"] = max(
            defects["normal-fixing"],
            _opnorm_by_loop(theta_by_loop(N) - N) / (1.0 + _opnorm_by_loop(N)))
        swapped = np.linalg.solve(S, N @ S)
        defects["putnam-fuglede"] = max(
            defects["putnam-fuglede"], _opnorm_by_loop(TX - swapped) / scale)
        Y = S @ N2 @ np.linalg.inv(S)
        TY = theta_by_loop(Y)
        defects["commutativity"] = max(
            defects["commutativity"],
            _opnorm_by_loop(TX @ TY - TY @ TX)
            / ((1.0 + _opnorm_by_loop(TX) * _opnorm_by_loop(TY)) * condS ** 2))
        U = _haar_by_loop(rng, n)
        XU = S @ U @ np.linalg.inv(S)
        S2 = S @ S
        defects["inverse-square"] = max(
            defects["inverse-square"],
            _opnorm_by_loop(theta_by_loop(XU) - np.linalg.solve(S2, XU @ S2)) / scale)
        # theta through the calculus: S N S^-1 by a solve, conjugation
        # calculus, adjoint
        X_solved = np.linalg.solve(S.T, (S @ N).T).T
        via_calculus = apply_function_by_loop(X_solved, np.conj).conj().T
        defects["calculus-route"] = max(
            defects["calculus-route"], _opnorm_by_loop(TX - via_calculus) / scale)
    return defects


def closed_form_defect_by_loop(rng, samples, fns):
    """The 2x2 closed-form check one sample at a time, as first written."""
    from specshrink import calculus, spaces

    worst = 0.0
    for _ in range(samples):
        l1, l2 = spaces.separated_pair(rng)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        T = np.array([[l1, alpha], [0.0, l2]])
        for f in fns:
            worst = max(worst, _opnorm_by_loop(calculus.calc_2x2_closed_form(l1, l2, alpha, f)
                                               - apply_function_by_loop(T, f)))
    return worst


def interpolation_defect_by_loop(rng, n, samples, fns):
    """The interpolation cross-check one sample at a time, as first written."""
    worst = 0.0
    for _ in range(samples):
        T = _semisimple_by_loop(rng, n)
        for f in fns:
            d = _opnorm_by_loop(apply_function_by_loop(T, f) - lagrange_apply_by_loop(T, f))
            worst = max(worst, d / (1.0 + _opnorm_by_loop(T)))
    return worst


def conjugation_invariance_defect_by_loop(rng, n, samples, fns):
    """The conjugation-invariance check one sample at a time, as first written."""
    worst = 0.0
    for _ in range(samples):
        X = _semisimple_by_loop(rng, n)
        S = conjugator_by_loop(rng, n)
        Sinv = np.linalg.inv(S)
        scale = (1.0 + _opnorm_by_loop(X)) * float(np.linalg.cond(S, 2)) ** 2
        for f in fns:
            lhs = apply_function_by_loop(S @ X @ Sinv, f)
            rhs = S @ apply_function_by_loop(X, f) @ Sinv
            worst = max(worst, _opnorm_by_loop(lhs - rhs) / scale)
    return worst


def jsonable_by_walk(obj):
    """Plain JSON values for a report by one isinstance walk: arrays as
    lists, numpy scalars as Python scalars, complex values as [re, im]."""
    if isinstance(obj, dict):
        return {str(k): jsonable_by_walk(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable_by_walk(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable_by_walk(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    return obj
