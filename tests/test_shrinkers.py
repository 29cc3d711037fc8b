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
    # n not dividing m: the report is flagged and no power law is measured
    rep = shrinkers.verify_shrinker(
        lambda X: shrinkers.degenerate_shrinker_hn(X, 4), "hn", 3, 4,
        samples=5, seed=0)
    assert not rep.divisible
    assert rep.powerlaw_defect is None
    assert rep.inclusion_defect <= 1e-8


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
    U = spaces.special_unitary(rng, 3)
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
    assert hn_rep.inclusion_defect <= 1e-8 and not hn_rep.divisible
    su_rep = shrinkers.verify_shrinker(
        lambda U: shrinkers.degenerate_shrinker_sun(U, 4), "sun", 3, 4,
        samples=30, seed=0)
    assert su_rep.inclusion_defect <= 1e-8 and not su_rep.divisible
