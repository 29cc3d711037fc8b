import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from specshrink import core, shrinkers, spaces
from specshrink.errors import (
    DimensionMismatch,
    NotHermitian,
    NotSpecialUnitary,
    OracleFailure,
)


def test_identity_shrinker_is_identity():
    rng = np.random.default_rng(0)
    X = spaces.sample("gln", 3, rng)
    assert np.allclose(shrinkers.canonical_shrinker(X, 1, 0), X)


def test_block_doubling_on_diagonal():
    X = np.diag([1.0, 2.0])
    out = shrinkers.canonical_shrinker(X, 1, 1)
    assert np.allclose(np.sort(np.diagonal(out).real), [1, 1, 2, 2])
    sq = oracles.poly_power_coeffs(oracles.charpoly_coeffs_from_roots([1.0, 2.0]), 2)
    assert np.allclose(core.char_poly(out), sq)


def test_cubing_with_random_conjugator():
    rng = np.random.default_rng(1)
    X = spaces.sample("gln", 3, rng)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    S = np.eye(9) + 0.25 * g / core.opnorm(g)
    out = shrinkers.canonical_shrinker(X, 2, 1, S)
    cubed = oracles.poly_power_coeffs(core.char_poly(X), 3)
    assert np.max(np.abs(core.char_poly(out) - cubed)) <= 1e-7


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.sampled_from([(p, q) for p in range(4) for q in range(4) if 1 <= p + q <= 3]),
       st.booleans())
def test_slice_assembly_equals_block_diag(seed, n, pq, conjugated):
    # zeros and two slice assignments build the same bits as block_diag
    p, q = pq
    rng = np.random.default_rng(seed)
    X = spaces.sample("mn", n, rng)
    S = shrinkers.fixed_conjugator(rng, (p + q) * n) if conjugated else None
    got = shrinkers.canonical_shrinker(X, p, q, S)
    assert np.array_equal(got, oracles.canonical_shrinker_by_block_diag(X, p, q, S))


def test_conjugator_errors():
    X = np.diag([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        shrinkers.canonical_shrinker(X, 1, 1, np.eye(3))
    with pytest.raises(ValueError):
        shrinkers.canonical_shrinker(X, 0, 0)


def test_spectrum_support_is_preserved():
    rng = np.random.default_rng(2)
    X = spaces.sample("gln_ss", 3, rng)
    out = shrinkers.canonical_shrinker(X, 2, 1)
    a, b = core.spectrum(out), core.spectrum(X)
    assert core.spectrum_inclusion_defect(a, b) <= 1e-7
    assert core.spectrum_inclusion_defect(b, a) <= 1e-7


def test_powerlaw_exponent_additivity():
    # stacking two shrinkers block-diagonally adds the exponents
    X = np.diag([1.0, 3.0, -2.0])
    import scipy.linalg
    stacked = scipy.linalg.block_diag(
        shrinkers.canonical_shrinker(X, 1, 1),
        shrinkers.canonical_shrinker(X, 2, 0),
    )
    expected = oracles.poly_power_coeffs(
        oracles.charpoly_coeffs_from_roots([1.0, 3.0, -2.0]), 4)
    assert np.allclose(core.char_poly(stacked), expected)


def test_check_shrinking_identity_and_zero():
    rep = shrinkers.verify_shrinker(lambda X: X, "gln", 3, 3, samples=20, seed=0)
    assert rep.inclusion_defect <= 1e-10
    bad = shrinkers.verify_shrinker(lambda X: np.zeros((3, 3)), "gln", 3, 3,
                                    samples=20, seed=0)
    assert bad.inclusion_defect > 0.1


def test_check_powerlaw_identity():
    rep = shrinkers.verify_shrinker(lambda X: X, "gln", 3, 3, samples=20, seed=0)
    assert rep.powerlaw_defect <= 1e-12


def test_check_powerlaw_divisibility():
    # n not dividing m: no power law is measured
    rep = shrinkers.verify_shrinker(
        lambda X: shrinkers.degenerate_shrinker_hn(X, 4), "hn", 3, 4,
        samples=5, seed=0)
    # the report holds the two worst defects and nothing it was given
    assert [f.name for f in dataclasses.fields(rep)] == ["inclusion_defect", "powerlaw_defect"]
    assert rep.powerlaw_defect is None
    assert rep.inclusion_defect <= 1e-8



@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([s.value for s in spaces.SpaceId]),
       st.integers(1, 4), st.integers(1, 3), st.integers(1, 30))
def test_batched_check_equals_the_loop(seed, space, n, p, samples):
    rng = np.random.default_rng(seed)
    S = shrinkers.fixed_conjugator(rng, (p + 1) * n)

    def phi(X):
        return shrinkers.canonical_shrinker(X, p, 1, S)

    rep = shrinkers.verify_shrinker(phi, space, n, (p + 1) * n, samples=samples, seed=seed)
    want = oracles.verify_shrinker_defects_by_loop(phi, space, n, (p + 1) * n, samples, seed)
    assert (rep.inclusion_defect, rep.powerlaw_defect) == want

def test_a_powerlaw_defect_that_overflows_fails():
    # blockdiag(X, lambda_1 I_3) keeps the spectrum inside X's but breaks the
    # power law by about 1e2; two large nilpotent entries leave the spectrum
    # alone and overflow the image's characteristic polynomial to NaN
    import scipy.linalg

    from specshrink.core import CheckResult

    def lopsided(big):
        def phi(X):
            Y = scipy.linalg.block_diag(X, core.spectrum(X)[0] * np.eye(3))
            Y[3, 4] = Y[4, 5] = big
            return Y
        return phi

    with np.errstate(all="ignore"):
        plain = shrinkers.verify_shrinker(lopsided(0.0), "gln", 3, 6, samples=20, seed=0)
        huge = shrinkers.verify_shrinker(lopsided(1e160), "gln", 3, 6, samples=20, seed=0)
    assert plain.powerlaw_defect > 1.0
    assert np.isnan(huge.powerlaw_defect)
    assert huge.inclusion_defect <= shrinkers.INCLUSION_TOL
    check = CheckResult.of(1, "powerlaw", "", huge.powerlaw_defect, shrinkers.POWERLAW_TOL)
    assert not check.passed


def test_oracle_failure_and_dimension_mismatch():
    def broken(X):
        raise RuntimeError("boom")

    with pytest.raises(OracleFailure):
        shrinkers.verify_shrinker(broken, "gln", 3, 3, samples=1)
    with pytest.raises(DimensionMismatch):
        shrinkers.verify_shrinker(lambda X: np.eye(2), "gln", 3, 3, samples=1)


# ---------------------------------------------------------------------------
# degenerate shrinkers
# ---------------------------------------------------------------------------

def test_hn_shrinker_examples():
    out = shrinkers.degenerate_shrinker_hn(np.diag([3.0, -1.0]), 5)
    assert np.allclose(out, 3.0 * np.eye(5))
    assert np.allclose(shrinkers.degenerate_shrinker_hn(np.eye(2), 3), np.eye(3))
    with pytest.raises(NotHermitian):
        shrinkers.degenerate_shrinker_hn(1j * np.eye(2), 3)


def test_hn_shrinker_matches_hermitian_solver():
    rng = np.random.default_rng(3)
    X = spaces.sample("hn", 4, rng)
    out = shrinkers.degenerate_shrinker_hn(X, 7)
    lam = oracles.hermitian_eigenvalues(X)[-1]
    assert np.allclose(out, lam * np.eye(7), atol=1e-10)
    assert core.spectrum_inclusion_defect(core.spectrum(out), core.spectrum(X)) <= 1e-10


def test_sun_shrinker_examples():
    assert np.allclose(shrinkers.degenerate_shrinker_sun(np.eye(3), 2), np.eye(2))
    out = shrinkers.degenerate_shrinker_sun(np.diag([1j, 1j, -1.0]), 4)
    assert np.allclose(out, -np.eye(4), atol=1e-12)
    with pytest.raises(NotSpecialUnitary):
        shrinkers.degenerate_shrinker_sun(np.diag([1j, 1.0]), 2)  # det = i


def test_sun_shrinker_continuity_along_path():
    import scipy.linalg
    rng = np.random.default_rng(4)
    U = spaces.sample("sun", 3, rng)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = 0.5 * (g - g.conj().T)
    A -= (np.trace(A) / 3) * np.eye(3)
    A /= core.opnorm(A)
    E = scipy.linalg.expm(1e-3 * A)
    prev = shrinkers.degenerate_shrinker_sun(U, 2)[0, 0]
    for _ in range(300):
        U = E @ U
        cur = shrinkers.degenerate_shrinker_sun(U, 2)[0, 0]
        assert abs(cur - prev) <= 0.05
        prev = cur


def test_degenerate_shrinkers_beat_divisibility():
    # inclusion passes although n does not divide m
    hn_rep = shrinkers.verify_shrinker(
        lambda X: shrinkers.degenerate_shrinker_hn(X, 5), "hn", 2, 5,
        samples=30, seed=0)
    assert hn_rep.inclusion_defect <= 1e-8 and hn_rep.powerlaw_defect is None
    su_rep = shrinkers.verify_shrinker(
        lambda U: shrinkers.degenerate_shrinker_sun(U, 4), "sun", 3, 4,
        samples=30, seed=0)
    assert su_rep.inclusion_defect <= 1e-8 and su_rep.powerlaw_defect is None


# ---------------------------------------------------------------------------
# stacked maps
# ---------------------------------------------------------------------------

def _stack_equals_each_matrix(phi, X):
    got = phi(X)
    assert np.array_equal(got, np.stack([phi(x) for x in X]))
    return got


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 5),
       st.sampled_from([(p, q) for p in range(3) for q in range(3) if p + q >= 1]),
       st.booleans())
def test_stacked_canonical_shrinker_equals_each_matrix(seed, n, k, pq, conjugated):
    p, q = pq
    rng = np.random.default_rng(seed)
    X = spaces.sample_stack("mn", n, k, rng)
    S = shrinkers.fixed_conjugator(rng, (p + q) * n) if conjugated else None
    phi = shrinkers.make_shrinker("canonical", p=p, q=q, conjugator=S)
    assert phi.stacked
    got = _stack_equals_each_matrix(phi, X)
    assert np.array_equal(got, [oracles.canonical_shrinker_by_block_diag(x, p, q, S)
                                for x in X])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 5), st.integers(1, 7))
def test_stacked_degenerate_shrinkers_equal_each_matrix(seed, n, k, m):
    rng = np.random.default_rng(seed)
    H = spaces.sample_stack("hn", n, k, rng)
    got = _stack_equals_each_matrix(shrinkers.make_shrinker("hn-max", m), H)
    assert np.array_equal(got, [oracles.hn_select_by_loop(h) * np.eye(m, dtype=complex)
                                for h in H])
    U = spaces.sample_stack("sun", n, k, rng)
    got = _stack_equals_each_matrix(shrinkers.make_shrinker("su-scalar", m), U)
    assert np.array_equal(got, [oracles.su_select_by_loop(u) * np.eye(m, dtype=complex)
                                for u in U])


def test_make_shrinker_rejects_unknown_kinds_and_unused_arguments():
    with pytest.raises(ValueError, match="unknown shrinker"):
        shrinkers.make_shrinker("bogus", 3)
    with pytest.raises(ValueError, match="takes no m"):
        shrinkers.make_shrinker("canonical", 6)
    for kind in ("hn-max", "su-scalar"):
        with pytest.raises(ValueError, match="needs the image size"):
            shrinkers.make_shrinker(kind)
        for extra in (dict(p=1), dict(q=2), dict(conjugator=np.eye(4))):
            with pytest.raises(ValueError, match="takes no p, q or conjugator"):
                shrinkers.make_shrinker(kind, 4, **extra)


def test_a_map_without_the_attribute_is_called_once_per_sample():
    shapes = []

    def phi(X):
        shapes.append(np.shape(X))
        return shrinkers.canonical_shrinker(X, 1, 1)

    rep = shrinkers.verify_shrinker(phi, "gln", 3, 6, samples=17, seed=2)
    assert shapes == [(3, 3)] * 17
    stacked = shrinkers.verify_shrinker(shrinkers.make_shrinker("canonical"), "gln", 3, 6,
                                        samples=17, seed=2)
    assert stacked == rep


def _first_failure(phi, X, m):
    calls = []

    def counting(A):
        calls.append(np.shape(A))
        return phi(A)

    counting.stacked = getattr(phi, "stacked", False)
    with pytest.raises(Exception) as info:
        core.call_oracle(counting, X, m)
    return type(info.value), str(info.value), calls


@pytest.mark.parametrize("bad", [0, 3, 6])
def test_a_stacked_map_that_raises_fails_as_the_loop(bad):
    # both raise OracleFailure wrapping the map's own exception: the loop's
    # on the first failing matrix, the stacked map's on its one call
    rng = np.random.default_rng(5)
    X = spaces.sample_stack("gln", 3, 7, rng)
    X[bad:, 0, 0] = -5.0

    def plain(A):
        A = core.as_matrix(A, stack=True)
        if (A[..., 0, 0].real < -4.0).any():
            raise RuntimeError(f"corner {A[..., 0, 0]}")
        return A

    def stacked(A):
        return plain(A)

    stacked.stacked = True
    message = f"oracle raised on an input: RuntimeError('corner {X[bad, 0, 0]}')"
    assert _first_failure(plain, X, 3) == (OracleFailure, message, [(3, 3)] * (bad + 1))
    message = f"oracle raised on an input: {RuntimeError(f'corner {X[:, 0, 0]}')!r}"
    assert _first_failure(stacked, X, 3) == (OracleFailure, message, [(7, 3, 3)])


def test_a_stacked_map_of_the_wrong_size_fails_as_the_loop():
    # both raise DimensionMismatch: the loop on the first matrix, the
    # stacked map on its one call, naming the stack's shape
    X = spaces.sample_stack("gln", 3, 4, np.random.default_rng(6))

    def stacked(A):
        return np.zeros(np.shape(A)[:-2] + (2, 2))

    stacked.stacked = True
    assert _first_failure(lambda A: stacked(A), X, 3) == (
        DimensionMismatch, "oracle output is (2, 2), expected (3, 3)", [(3, 3)])
    assert _first_failure(stacked, X, 3) == (
        DimensionMismatch, "oracle output is (4, 2, 2), expected (4, 3, 3)", [(4, 3, 3)])


def test_stacked_degenerate_shrinker_errors_match_the_loop():
    # verify_shrinker on a space the shrinker refuses: both reports name the
    # refusal of the first sample, the stacked one as matrix 0 of its stack
    for kind, n, m in (("hn-max", 2, 5), ("su-scalar", 3, 4)):
        phi = shrinkers.make_shrinker(kind, m)
        with pytest.raises(OracleFailure) as got:
            shrinkers.verify_shrinker(phi, "gln", n, m, samples=5)
        with pytest.raises(OracleFailure) as want:
            shrinkers.verify_shrinker(lambda X: phi(X), "gln", n, m, samples=5)
        assert "matrix" not in str(want.value)
        assert str(got.value) == str(want.value).replace("('", "('matrix 0 of the stack: ")
