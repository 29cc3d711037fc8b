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

def test_eig_diagonal():
    ed = core.eig_decompose(np.diag([1.0, 2.0, 3.0]))
    assert ed.semisimple
    assert np.allclose(ed.eigenvalues, [1, 2, 3])


def test_eig_jordan_block_not_semisimple():
    ed = core.eig_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not ed.semisimple
    assert np.allclose(ed.eigenvalues, [0, 0])


def test_eig_hermitian_against_specialized_solver():
    rng = np.random.default_rng(11)
    X = rand_complex(rng, 4)
    X = 0.5 * (X + X.conj().T)
    ed = core.eig_decompose(X)
    assert ed.semisimple
    assert ed.condition < 1.0 + 1e-8
    assert np.max(np.abs(ed.eigenvalues.imag)) < 1e-12
    expected = oracles.hermitian_eigenvalues(X)
    assert np.allclose(np.sort(ed.eigenvalues.real), expected, atol=1e-10)


def test_eig_reconstruction_invariant():
    rng = np.random.default_rng(12)
    for _ in range(10):
        X = rand_complex(rng, 5)
        ed = core.eig_decompose(X)
        if ed.semisimple:
            err = core.opnorm(ed.reconstruction() - X)
            assert err <= 1e-8 * (1 + core.opnorm(X))


def test_eig_repeated_eigenvalue_conjugated():
    # conjugated diag(1,1,2): healthy eigenspace even though the eigenvalue repeats
    rng = np.random.default_rng(13)
    g = rand_complex(rng, 3)
    S = np.eye(3) + 0.3 * g / core.opnorm(g)
    X = S @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(S)
    ed = core.eig_decompose(X)
    assert ed.semisimple
    assert ed.condition < 10


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
    core.save_matrix(path, X)
    Y = core.load_matrix(path)
    assert np.allclose(X, Y)
