"""Independent oracles used to derive expected values in the tests.

Each function here deliberately computes its answer by a different route
than the library code it checks: root expansion instead of the trace
recurrence, matrix square roots instead of SVD, exhaustive integer-shift
enumeration instead of the sort-based construction, closed-form roots
instead of eigenvalue continuation, every bijection instead of bisection
over perfect matchings, scipy's matching instead of augmenting paths, one
matrix, value, path or permutation at a time instead of a stacked kernel or
a stacked draw.
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
    ``special_unitary`` and one ``haar_unitary`` call per pair."""
    from specshrink import spaces

    Us, conjs = [], []
    for _ in range(k):
        U = spaces.special_unitary(rng, n)
        V = spaces.haar_unitary(rng, n)
        Us.append(U)
        conjs.append(V @ U @ V.conj().T)
    return np.stack(Us), np.stack(conjs)


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
        U = spaces.special_unitary(rng, n)
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
        if d2 < max(2.0 * d1, d1 + 10.0 * selectors.TRACKING_TOL):
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


def _conjugated_diagonal_by_loop(g, lam):
    from specshrink import spaces

    n = len(lam)
    s = np.exp(g.uniform(-spaces.CONJUGATOR_SPREAD, spaces.CONJUGATOR_SPREAD, size=n))
    c = (_haar_by_loop(g, n) * s) @ _haar_by_loop(g, n).conj().T
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
