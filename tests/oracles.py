"""Independent oracles used to derive expected values in the tests.

Each function here deliberately computes its answer by a different route
than the library code it checks: root expansion instead of the trace
recurrence, matrix square roots instead of SVD, exhaustive integer-shift
enumeration instead of the sort-based construction, closed-form roots
instead of eigenvalue continuation, every bijection instead of bisection
over perfect matchings.
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
