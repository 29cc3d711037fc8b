import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from specshrink import core
from specshrink.errors import (
    DimensionMismatch,
    EmptySpectrum,
    Singular,
    SizeMismatch,
)

seeds = st.integers(0, 2**32 - 1)


def rand_complex(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_as_matrix_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        core.as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_nan():
    with pytest.raises(DimensionMismatch):
        core.as_matrix(np.array([[np.nan, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def eig_one(X):
    """Eigenvalues, vectors and condition number of one matrix, as a stack of one."""
    w, P, cond, _ = core.eig_decompose_stack(np.asarray(X, dtype=complex)[None])
    return w[0], P[0], cond[0]


def semisimple(cond):
    return cond <= 1.0 / core.DEFAULT_EIG_TOL


def test_eig_diagonal():
    w, _, cond = eig_one(np.diag([1.0, 2.0, 3.0]))
    assert semisimple(cond)
    assert np.allclose(w, [1, 2, 3])


def test_eig_jordan_block_not_semisimple():
    w, _, cond = eig_one(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not semisimple(cond)
    assert np.allclose(w, [0, 0])


def test_eig_hermitian_against_specialized_solver():
    rng = np.random.default_rng(11)
    X = rand_complex(rng, 4)
    X = 0.5 * (X + X.conj().T)
    w, _, cond = eig_one(X)
    assert cond < 1.0 + 1e-8
    assert np.max(np.abs(w.imag)) < 1e-12
    expected = oracles.hermitian_eigenvalues(X)
    assert np.allclose(np.sort(w.real), expected, atol=1e-10)


def test_eig_reconstruction_invariant():
    rng = np.random.default_rng(12)
    for _ in range(10):
        X = rand_complex(rng, 5)
        w, P, cond = eig_one(X)
        if semisimple(cond):
            err = core.opnorm(P @ np.diag(w) @ np.linalg.inv(P) - X)
            assert err <= 1e-8 * (1 + core.opnorm(X))


def test_eig_repeated_eigenvalue_conjugated():
    # conjugated diag(1,1,2): healthy eigenspace even though the eigenvalue repeats
    rng = np.random.default_rng(13)
    g = rand_complex(rng, 3)
    S = np.eye(3) + 0.3 * g / core.opnorm(g)
    X = S @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(S)
    _, _, cond = eig_one(X)
    assert cond < 10


def _eig_rows(rng, n, kinds):
    """One n x n matrix per kind: a simple spectrum, a conjugated
    diag(1, 1, 2, .., n - 1) (semisimple, repeated), or the same with a
    Jordan block on the eigenvalue 1 (defective)."""
    rows = []
    for kind in kinds:
        g = rand_complex(rng, n)
        S = np.eye(n) + 0.3 * g / core.opnorm(g)
        if kind == "simple":
            rows.append(rand_complex(rng, n))
            continue
        D = np.diag([1.0, 1.0] + list(range(2, n))).astype(complex)
        if kind == "defective":
            D[0, 1] = 1.0
        rows.append(S @ D @ np.linalg.inv(S))
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(2, 8),
       st.lists(st.sampled_from(["simple", "repeated", "defective"]), min_size=1, max_size=9))
def test_stacked_eig_decompose_equals_each_row(seed, n, kinds):
    X = _eig_rows(np.random.default_rng(seed), n, kinds)
    w, P, cond, norm = core.eig_decompose_stack(X)
    for i, kind in enumerate(kinds):
        one_w, one_P, one_cond = eig_one(X[i])
        want_w, want_P, want_cond = oracles.eig_decompose_by_loop(X[i])
        assert np.array_equal(w[i], one_w) and np.array_equal(w[i], want_w)
        assert np.array_equal(P[i], one_P) and np.array_equal(P[i], want_P)
        assert cond[i] == one_cond == want_cond
        assert norm[i] == core.opnorm(X[i])
        if kind == "repeated":
            assert semisimple(one_cond)  # the cluster pass found the healthy eigenspace
        if kind == "defective":
            assert one_cond > 1e6


def test_eig_cluster_pass_runs_on_clustered_rows_only(monkeypatch):
    # 1 and 1 + 1e-8 are one cluster at the link 1e-8 (1 + ||X||) = 4e-8
    X = np.diag([1.0, 1.0 + 1e-8, 3.0]).astype(complex)
    calls = []
    real = core._reextract_clusters
    monkeypatch.setattr(core, "_reextract_clusters", lambda *a: calls.append(1) or real(*a))
    core.eig_decompose_stack(np.stack([np.diag([1.0, 2.0, 3.0]).astype(complex), X]))
    assert calls == [1]


def test_stacked_errors_name_the_matrix():
    good = np.eye(2, dtype=complex)
    with pytest.raises(DimensionMismatch, match="^matrix 1 of the stack: matrix entries"):
        core.as_matrix(np.stack([good, np.full((2, 2), np.inf)]), stack=True)
    with pytest.raises(DimensionMismatch, match="^matrix entries must be finite$"):
        core.as_matrix(np.full((1, 2, 2), np.nan), stack=True)
    with pytest.raises(Singular, match="^matrix 2 of the stack: matrix is numerically singular"):
        core.polar_decompose(np.stack([good, good, np.diag([1.0, 0.0])]))
    with pytest.raises(Singular, match="^matrix is numerically singular"):
        core.polar_decompose(np.diag([1.0, 0.0])[None])


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def test_char_poly_identity_2x2():
    assert np.allclose(core.char_poly(np.eye(2)), [1.0, -2.0])


def test_char_poly_diag123():
    assert np.allclose(core.char_poly(np.diag([1.0, 2.0, 3.0])), [-6.0, 11.0, -6.0])


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_char_poly_matches_root_expansion(seed):
    rng = np.random.default_rng(seed)
    X = rand_complex(rng, 5)
    p = core.char_poly(X)
    q = oracles.charpoly_coeffs_from_roots(np.linalg.eigvals(X))
    tol = 1e-6 * (1 + core.opnorm(X)) ** 5
    assert np.max(np.abs(p - q)) <= tol



@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 8), st.integers(1, 12))
def test_stacked_char_poly_and_spectrum_equal_the_loop(seed, n, k):
    rng = np.random.default_rng(seed)
    # entries over several orders of magnitude, and a repeated matrix
    scale = 10.0 ** rng.integers(-3, 4, size=(k, 1, 1))
    X = np.stack([rand_complex(rng, n) for _ in range(k)]) * scale
    X[-1] = X[0]
    want_poly = np.array([oracles.char_poly_by_loop(x) for x in X])
    want_spec = np.array([oracles.spectrum_by_loop(x) for x in X])
    assert np.array_equal(core.char_poly(X), want_poly)
    assert np.array_equal(core.spectrum(X), want_spec)
    assert np.array_equal(core.char_poly(X[0]), want_poly[0])
    assert np.array_equal(core.spectrum(X[0]), want_spec[0])
    Y = np.roll(want_spec, 1, axis=0)
    assert np.array_equal(core.spectrum_inclusion_defect(Y, want_spec),
                          [oracles.inclusion_defect_by_loop(y, x) for y, x in zip(Y, want_spec)])

coefficients = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=8), st.integers(1, 4))
def test_poly_power_matches_convolution_oracle(coeffs, k):
    c = np.array(coeffs, dtype=complex)
    assert np.array_equal(core.poly_power(c, k), oracles.poly_power_coeffs(c, k))


def test_poly_power_rejects_nonpositive_powers():
    with pytest.raises(ValueError):
        core.poly_power(np.array([1.0 + 0j]), 0)


# ---------------------------------------------------------------------------
# spectrum comparison
# ---------------------------------------------------------------------------

def test_inclusion_defect_examples():
    assert core.spectrum_inclusion_defect([1, 2], [1, 2, 3]) == 0
    assert core.spectrum_inclusion_defect([1, 2, 3], [1, 2]) == pytest.approx(1.0)
    with pytest.raises(EmptySpectrum):
        core.spectrum_inclusion_defect([], [1])


def test_match_distance_examples():
    assert core.spectrum_match_distance([1, 1j, -1], [1, 1j, -1]) == 0
    assert core.spectrum_match_distance([0, 1], [1, 0]) == 0
    assert core.spectrum_match_distance([0, 1], [0.1, 1]) == pytest.approx(0.1)
    with pytest.raises(SizeMismatch):
        core.spectrum_match_distance([1], [1, 2])


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_match_distance_pseudometric(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3))
    dab = core.spectrum_match_distance(a, b)
    dba = core.spectrum_match_distance(b, a)
    dac = core.spectrum_match_distance(a, c)
    dcb = core.spectrum_match_distance(c, b)
    assert abs(dab - dba) <= 1e-12
    assert dab <= dac + dcb + 1e-12


@settings(max_examples=15, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=8))
def test_match_distance_dual_route(seed, n):
    # threshold-bisection assignment vs exhaustive search over bijections
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert core.spectrum_match_distance(a, b) == oracles.bottleneck_by_enumeration(a, b)


def _grid_spectrum(n):
    # a coarse grid, so the distance matrix has many ties and repeated levels
    return st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=n, max_size=n).map(
        lambda pts: np.array([0.5 * complex(re, im) for re, im in pts]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(_grid_spectrum(n), _grid_spectrum(n))))
def test_match_distance_on_a_grid_equals_both_oracles(spectra):
    # augmenting-path matching vs every bijection and vs scipy's matching
    a, b = spectra
    got = core.spectrum_match_distance(a, b)
    assert got == oracles.bottleneck_by_enumeration(a, b)
    assert got == oracles.bottleneck_by_scipy_matching(a, b)


def test_match_distance_at_a_large_size():
    # no recursion and no size cap: 200 points, each matched to its shift
    a = np.arange(200.0)
    b = np.random.default_rng(41).permutation(a) + 0.25
    assert core.spectrum_match_distance(a, b) == 0.25
    assert core.spectrum_match_distance(a, a[::-1]) == 0.0


# ---------------------------------------------------------------------------
# polar decomposition
# ---------------------------------------------------------------------------

def test_polar_of_unitary():
    rng = np.random.default_rng(20)
    q, _ = np.linalg.qr(rand_complex(rng, 3))
    P, V = core.polar_decompose(q)
    assert np.allclose(P, np.eye(3), atol=1e-10)
    assert np.allclose(V, q, atol=1e-10)


def test_polar_of_positive_definite():
    rng = np.random.default_rng(21)
    a = rand_complex(rng, 3)
    P0 = a @ a.conj().T + np.eye(3)
    P, V = core.polar_decompose(P0)
    assert np.allclose(P, P0, atol=1e-9)
    assert np.allclose(V, np.eye(3), atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_polar_round_trip_and_oracle(seed):
    rng = np.random.default_rng(seed)
    S = rand_complex(rng, 3) + 2 * np.eye(3)
    P, V = core.polar_decompose(S)
    assert core.opnorm(P @ V - S) <= 1e-10 * core.opnorm(S)
    assert core.opnorm(V.conj().T @ V - np.eye(3)) <= 1e-10
    assert np.min(np.linalg.eigvalsh(P)) > 0
    P0, V0 = oracles.polar_via_sqrtm(S)
    assert core.opnorm(P - P0) <= 1e-8 * core.opnorm(S)


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(1, 8), st.integers(1, 12))
def test_stacked_polar_and_opnorm_equal_each_matrix(seed, n, k):
    rng = np.random.default_rng(seed)
    S = np.stack([rand_complex(rng, n) + 2 * np.eye(n) for _ in range(k)])
    P, V = core.polar_decompose(S)
    norms = core.opnorm(S)
    for i in range(k):
        Pi, Vi = core.polar_decompose(S[i])
        assert np.array_equal(P[i], Pi) and np.array_equal(V[i], Vi)
        assert norms[i] == core.opnorm(S[i]) == np.linalg.norm(S[i], 2)


def test_polar_singular_rejected():
    with pytest.raises(Singular):
        core.polar_decompose(np.array([[1.0, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def test_projection_examples():
    W = core.span([1.0, 0.0])
    assert np.allclose(core.projection(W), [[1, 0], [0, 0]])
    full = core.Subspace(np.eye(3, dtype=complex))
    assert np.allclose(core.projection(full), np.eye(3))


def test_projection_identities():
    rng = np.random.default_rng(30)
    W = core.Subspace.from_span(rand_complex(rng, 4)[:, :2])
    P = core.projection(W)
    assert core.opnorm(P @ P - P) <= 1e-12
    assert core.opnorm(P - P.conj().T) <= 1e-12
    assert np.trace(P).real == pytest.approx(2.0, abs=1e-12)


def test_commuting_projections_share_eigenbasis():
    # pairs built from one unitary's columns commute; simultaneous
    # diagonalization by that unitary is the witness
    rng = np.random.default_rng(32)
    q, _ = np.linalg.qr(rand_complex(rng, 5))
    W = core.Subspace(q[:, [0, 2]])
    Wp = core.Subspace(q[:, [2, 3, 4]])
    P, Q = core.projection(W), core.projection(Wp)
    assert core.opnorm(P @ Q - Q @ P) <= 1e-12
    for sub in (W, Wp):
        D = q.conj().T @ core.projection(sub) @ q
        assert core.opnorm(D - np.diag(np.diagonal(D))) <= 1e-12


def test_kernel_examples():
    K = core.kernel(np.diag([0.0, 1.0, 2.0]))
    assert K.dim == 1
    assert abs(abs(K.basis[0, 0]) - 1.0) <= 1e-12
    assert core.kernel(np.zeros((3, 3))).dim == 3


def test_kernel_of_unitary_shift():
    # lambda I - U has kernel spanned by the chosen eigenvector
    rng = np.random.default_rng(33)
    q, _ = np.linalg.qr(rand_complex(rng, 4))
    phases = np.exp(2j * np.pi * np.array([0.1, 0.35, 0.6, 0.85]))
    U = q @ np.diag(phases) @ q.conj().T
    K = core.kernel(phases[2] * np.eye(4) - U)
    assert K.dim == 1
    expected = core.span(q[:, 2])
    assert core.subspace_distance(K, expected) <= 1e-8


def test_subspace_distance_examples():
    e1 = core.span([1.0, 0.0])
    e2 = core.span([0.0, 1.0])
    assert core.subspace_distance(e1, e1) == 0
    assert core.subspace_distance(e1, e2) == pytest.approx(1.0)
    for th in (0.1, 0.4, 1.2):
        line = core.span([np.cos(th), np.sin(th)])
        assert core.subspace_distance(e1, line) == pytest.approx(abs(np.sin(th)), abs=1e-12)
    with pytest.raises(DimensionMismatch):
        core.subspace_distance(e1, core.span([1.0, 0.0, 0.0]))


def test_kernel_dimension_at_simple_spectrum():
    # for simple spectrum every shifted kernel is exactly one-dimensional
    rng = np.random.default_rng(34)
    g = rand_complex(rng, 4)
    S = np.eye(4) + 0.3 * g / core.opnorm(g)
    lam = np.array([1.0, 2.0, 3.0 + 1j, -1.0])
    X = S @ np.diag(lam) @ np.linalg.inv(S)
    for v in lam:
        assert core.kernel(v * np.eye(4) - X).dim == 1


def test_subspace_sum_and_containment():
    e1 = core.span([1.0, 0.0, 0.0])
    e2 = core.span([0.0, 1.0, 0.0])
    plane = core.subspace_sum(e1, e2)
    assert plane.dim == 2
    assert core.containment_defect(e1, plane) <= 1e-12
    assert core.containment_defect(plane, e1) > 0.9


# ---------------------------------------------------------------------------
# matrix file format
# ---------------------------------------------------------------------------

def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    X = rand_complex(rng, 3)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(core.matrix_to_dict(X)))
    Y = core.load_matrix(path)
    assert np.allclose(X, Y)


@pytest.mark.parametrize("record", [
    {"foo": 1},
    [1, 2],
    {"n": 2, "entries": [[[1, 0]] * 3] * 3},
    {"n": 2, "entries": [[[1, 0]] * 3] * 2},
    {"n": 2, "entries": [[[1, 0]] * 2] * 3},
    {"n": 0, "entries": []},
    {"n": True, "entries": [[[1, 0]]]},
    {"n": 1},
    {"n": 1, "entries": [[[1, 0, 0]]]},
    {"n": 1, "entries": [[["1", 0]]]},
    {"n": 1, "entries": [[[float("nan"), 0]]]},
])
def test_matrix_from_dict_rejects_malformed_records(record):
    with pytest.raises(ValueError):
        core.matrix_from_dict(record)


def _near_permutation(n):
    # b is a shuffle of a, each point moved by less than a grid step: the
    # nearest-point screen settles most of these, ties and repeats aside
    return _grid_spectrum(n).flatmap(lambda a: st.tuples(
        st.just(a), st.permutations(list(range(n))),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n)
    )).map(lambda t: (t[0], t[0][list(t[1])]
                      + np.array([0.05 * complex(re, im) for re, im in t[2]])))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(_near_permutation))
def test_match_distance_screen_equals_enumeration(spectra):
    # repeated points and tied distances included: when the row argmins are a
    # permutation the screen answers, else the bisection; both equal every
    # bijection's answer bit for bit
    a, b = spectra
    assert core.spectrum_match_distance(a, b) == oracles.bottleneck_by_enumeration(a, b)
    assert core.spectrum_match_distance(b, a) == oracles.bottleneck_by_enumeration(b, a)


def test_match_distance_screen_skips_the_bisection(monkeypatch):
    calls = []
    bisection = core._bottleneck_assignment

    def counting(D):
        calls.append(D.shape)
        return bisection(D)

    monkeypatch.setattr(core, "_bottleneck_assignment", counting)
    # distinct nearest points: the screen's answer, no bisection
    assert core.spectrum_match_distance([0, 1, 3j], [1.25, 3j, 0.5]) == 0.5
    assert calls == []
    # both points nearest to 0: the bisection decides, and it is not 0.5
    assert core.spectrum_match_distance([0, 0.5], [0.1, 3]) == 2.5
    assert calls == [(2, 2)]
