import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from specshrink import cli, core, spaces, theta
from specshrink.errors import NotSemisimple, Singular, WellDefinednessDegraded

seeds = st.integers(0, 2**32 - 1)
#: the acceptance suite's dimension cycle and each single dimension
trial_dims = st.sampled_from([(2, 3, 4)] + [(n,) for n in range(1, 9)])


def positive_definite(rng, n, lo=0.5, hi=2.0):
    q = spaces.sample("un", n, rng)
    s = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    return (q * s) @ q.conj().T


def invertible_normal(rng, n):
    q = spaces.sample("un", n, rng)
    lam = np.exp(rng.uniform(np.log(0.4), np.log(2.5), size=n)) \
        * np.exp(2j * np.pi * rng.uniform(size=n))
    return q @ np.diag(lam) @ q.conj().T


def residual(S, N, X):
    """Relative operator-norm error of ``S N S^{-1}`` against X."""
    return core.opnorm(S @ N @ np.linalg.inv(S) - X) / core.opnorm(X)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_normal_input():
    rng = np.random.default_rng(80)
    N = invertible_normal(rng, 3)
    S, normal = theta.theta_decompose(N)
    assert core.opnorm(S - np.eye(3)) <= 1e-7
    assert core.opnorm(normal - N) <= 1e-7
    assert residual(S, normal, N) <= 1e-10


def test_decompose_worked_example():
    # diag(2,1) . rotation . diag(2,1)^-1; the positive factor is recovered
    # up to a scalar, so compare the involution output instead
    X = np.array([[0.0, -2.0], [0.5, 0.0]])
    S, _ = theta.theta_decompose(X)
    ratio = S[0, 0] / S[1, 1]
    assert abs(S[0, 1]) <= 1e-12
    assert ratio.real == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(theta.theta(X), [[0.0, -0.5], [2.0, 0.0]], atol=1e-12)


def test_decompose_recovers_constructed_factorization():
    rng = np.random.default_rng(81)
    S = positive_definite(rng, 4)
    N = invertible_normal(rng, 4)
    X = S @ N @ np.linalg.inv(S)
    S_got, N_got = theta.theta_decompose(X)
    assert residual(S_got, N_got, X) <= 1e-7
    assert core.opnorm(N_got @ N_got.conj().T - N_got.conj().T @ N_got) \
        <= 1e-7 * core.opnorm(N_got) ** 2
    assert np.min(np.linalg.eigvalsh(S_got)) > 0


def test_decompose_error_paths():
    with pytest.raises(NotSemisimple):
        theta.theta_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(Singular):
        theta.theta_decompose(np.diag([1.0, 0.0]))
    P = np.array([[1.0, 1.0], [0.0, 1e-7]])
    bad = P @ np.diag([1.0, 2.0]) @ np.linalg.inv(P)
    with pytest.raises(WellDefinednessDegraded):
        theta.theta_decompose(bad)


# ---------------------------------------------------------------------------
# the involution
# ---------------------------------------------------------------------------

def test_theta_fixes_normals():
    rng = np.random.default_rng(82)
    N = invertible_normal(rng, 3)
    assert core.opnorm(theta.theta(N) - N) <= 1e-8 * (1 + core.opnorm(N))


def test_theta_worked_example():
    X = np.array([[0.0, -2.0], [0.5, 0.0]])
    assert np.allclose(theta.theta(X), [[0.0, -0.5], [2.0, 0.0]], atol=1e-12)


def test_theta_is_involutory_and_spectral():
    rng = np.random.default_rng(83)
    for n in (2, 3, 4):
        S = positive_definite(rng, n)
        N = invertible_normal(rng, n)
        X = S @ N @ np.linalg.inv(S)
        TX = theta.theta(X)
        cond = np.linalg.cond(S, 2)
        assert core.opnorm(theta.theta(TX) - X) <= 1e-6 * core.opnorm(X) * cond ** 2
        assert core.spectrum_match_distance(core.spectrum(TX), core.spectrum(X)) <= 1e-6


def test_theta_normal_perturbations_stay_small():
    # on normal matrices the map is the identity, so normal-to-normal
    # oscillation equals the perturbation size
    rng = np.random.default_rng(84)
    q = spaces.sample("un", 3, rng)
    lam = np.array([1.0, 2.0, 3.0])
    X0 = q @ np.diag(lam) @ q.conj().T
    for scale in (1e-2, 1e-3):
        bump = q @ np.diag(lam + scale * rng.standard_normal(3)) @ q.conj().T
        dev = core.opnorm(theta.theta(bump) - theta.theta(X0))
        assert dev <= 3 * scale + 1e-10


# ---------------------------------------------------------------------------
# well-definedness
# ---------------------------------------------------------------------------

def test_putnam_fuglede_trivial_and_double_decomposition():
    # theta swaps its own recovered factorization; the constructed one
    # swaps to the same matrix: theta(S N S^-1) = S^-1 N S
    rng = np.random.default_rng(85)
    S = positive_definite(rng, 3)
    N = invertible_normal(rng, 3)
    TX = theta.theta(S @ N @ np.linalg.inv(S))
    assert core.opnorm(TX - np.linalg.solve(S, N @ S)) <= 1e-6 * max(core.opnorm(TX), 1.0)


def test_theta_commutativity():
    rng = np.random.default_rng(87)
    q = spaces.sample("un", 3, rng)
    S = positive_definite(rng, 3)
    lam1 = np.exp(2j * np.pi * rng.uniform(size=3)) * np.array([0.5, 1.0, 2.0])
    lam2 = np.exp(2j * np.pi * rng.uniform(size=3)) * np.array([1.5, 0.7, 1.1])
    N1 = q @ np.diag(lam1) @ q.conj().T
    N2 = q @ np.diag(lam2) @ q.conj().T
    Sinv = np.linalg.inv(S)
    X, Y = S @ N1 @ Sinv, S @ N2 @ Sinv
    # commuting inputs, polynomial images included, keep commuting images
    for A, B in ((X, Y), (X, X @ X)):
        TA, TB = theta.theta(A), theta.theta(B)
        assert core.opnorm(TA @ TB - TB @ TA) \
            <= 1e-6 * (1.0 + core.opnorm(TA) * core.opnorm(TB))


def test_ads_identity():
    # on the orbit S U S^-1 the involution is conjugation by S^-2
    rng = np.random.default_rng(88)
    U = spaces.sample("un", 3, rng)
    for S, V in ((np.eye(3), U), (np.diag([2.0, 1.0, 1.0]), U),
                 (positive_definite(rng, 3), spaces.sample("un", 3, rng))):
        X = S @ V @ np.linalg.inv(S)
        S2 = S @ S
        rhs = np.linalg.solve(S2, X @ S2)
        assert core.opnorm(theta.theta(X) - rhs) <= 1e-7 * (1.0 + core.opnorm(rhs))


def test_theta_via_calculus_routes_agree():
    rng = np.random.default_rng(89)
    N = invertible_normal(rng, 3)
    assert core.opnorm(theta.theta_via_calculus(np.eye(3), N) - N) <= 1e-8
    d = np.diag([0.5, 1.0, 2.0])
    nd = np.diag([1.0, 1j, -1.0])
    assert core.opnorm(theta.theta_via_calculus(d, nd) - nd) <= 1e-10
    S = positive_definite(rng, 3)
    X = S @ N @ np.linalg.inv(S)
    cond = np.linalg.cond(S, 2)
    assert core.opnorm(theta.theta(X) - theta.theta_via_calculus(S, N)) \
        <= 1e-6 * cond ** 2 * (1 + core.opnorm(X))


def test_continuity_probe_scales():
    rng = np.random.default_rng(90)
    S = positive_definite(rng, 3)
    N = invertible_normal(rng, 3)
    X0 = S @ N @ np.linalg.inv(S)
    small, _ = theta.theta_continuity_probe(X0, 1e-4, samples=20, seed=0)
    large, _ = theta.theta_continuity_probe(X0, 1e-2, samples=20, seed=0)
    assert small < large
    assert small <= 1e-2  # simple spectrum: locally Lipschitz-ish


def test_continuity_probe_repeated_spectrum_reports():
    oscillation, rejected = theta.theta_continuity_probe(
        np.diag([1.0, 1.0, 2.0]).astype(complex), 1e-3, samples=20, seed=1)
    assert oscillation >= 0.0 and rejected >= 0


# ---------------------------------------------------------------------------
# stacks
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seeds, trial_dims, st.integers(1, 40))
def test_identity_defects_equal_the_loop(seed, dims, trials):
    # every trial drawn first, then one stack per dimension: the same
    # defects bit for bit, and the generator ends where the loop leaves it
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert theta.identity_defects(rng, trials, dims) \
        == oracles.identity_defects_by_loop(loop_rng, trials, dims)
    assert rng.bit_generator.state == loop_rng.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 8), st.integers(1, 12))
def test_stacked_theta_equals_each_matrix(seed, n, k):
    rng = np.random.default_rng(seed)
    S = np.stack([positive_definite(rng, n) for _ in range(k)])
    N = np.stack([invertible_normal(rng, n) for _ in range(k)])
    X = S @ N @ np.linalg.inv(S)
    got = theta.theta(X)
    for i in range(k):
        assert np.array_equal(got[i], theta.theta(X[i]))
        assert np.array_equal(got[i], oracles.theta_by_loop(X[i]))


def test_stacked_theta_errors_name_the_matrix():
    good = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(Singular, match="^matrix 1 of the stack: matrix is numerically singular"):
        theta.theta(np.stack([good, np.diag([1.0, 0.0]), good]))
    # one failing matrix in a stack of one keeps the one-matrix message
    with pytest.raises(NotSemisimple, match="^eigenvector condition"):
        theta.theta(np.array([[[1.0, 1.0], [0.0, 1.0]]]))


def _zero_eigenvalue_on_call(monkeypatch, calls):
    """Make the tuples drawn by the given calls of the simple-tuple sampler
    (counted from 0) contain an eigenvalue 0, drawing the same numbers."""
    real = spaces._simple_complex_tuple
    count = iter(range(10**6))

    def patched(*args, **kwargs):
        lam = real(*args, **kwargs)
        if next(count) in calls:
            lam = lam.copy()
            lam[0] = 0.0
        return lam

    monkeypatch.setattr(spaces, "_simple_complex_tuple", patched)


@pytest.mark.parametrize("calls", [{4}, {3, 9}, {3}])
def test_failing_trial_raises_the_loops_class(monkeypatch, calls):
    # the normal-pair draw takes two tuples per trial (N, then N2); a zero
    # eigenvalue in N makes X singular and one in N2 makes Y singular, which
    # theta refuses in the loop and in the stack alike
    only_y = all(call % 2 for call in calls)
    _zero_eigenvalue_on_call(monkeypatch, calls)
    with pytest.raises(Singular):
        oracles.identity_defects_by_loop(np.random.default_rng(3), 8, (2, 3))
    monkeypatch.undo()
    _zero_eigenvalue_on_call(monkeypatch, calls)
    with pytest.raises(Singular):
        theta.identity_defects(np.random.default_rng(3), 8, (2, 3))
    monkeypatch.undo()
    _zero_eigenvalue_on_call(monkeypatch, calls)
    with pytest.raises(Singular):
        theta.identity_defects(np.random.default_rng(3), 8, (2, 3), ["commutativity"])
    # only commutativity reads Y: a singular Y cannot fail putnam-fuglede
    monkeypatch.undo()
    _zero_eigenvalue_on_call(monkeypatch, calls)
    with contextlib.nullcontext() if only_y else pytest.raises(Singular):
        theta.identity_defects(np.random.default_rng(3), 8, (2, 3), ["putnam-fuglede"])


#: the identities that ``specshrink theta --check all`` reports
CLI_IDENTITIES = [identity for identity, _ in cli._THETA_CHECKS.values()]


@pytest.mark.parametrize("dims", [(2, 3, 4), (3,)])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_identity_subsets_equal_the_full_call(seed, dims):
    # the same draws and the same bits: a subset is the full call's values,
    # keyed in IDENTITIES order, and the generator ends where the full call's does
    full_rng = np.random.default_rng(seed)
    full = theta.identity_defects(full_rng, 12, dims)
    for names in [[name] for name in theta.IDENTITIES] + [CLI_IDENTITIES[::-1]]:
        rng = np.random.default_rng(seed)
        got = theta.identity_defects(rng, 12, dims, names)
        assert list(got) == [name for name in theta.IDENTITIES if name in names]
        assert got == {name: full[name] for name in got}
        assert rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize("names, match", [(["involution", "bogus"], "unknown identities"),
                                          ([], "at least one identity")])
def test_identity_defects_refuse_bad_names_before_any_draw(names, match):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        theta.identity_defects(rng, 3, (2,), names)
    assert rng.bit_generator.state == state


def test_identity_defects_refuse_an_empty_dimension_list():
    with pytest.raises(ValueError, match="at least one dimension"):
        theta.identity_defects(np.random.default_rng(0), 3, ())
