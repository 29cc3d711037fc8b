import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from specshrink import calculus, core, spaces
from specshrink.errors import AmbiguousClustering, EqualEigenvalues, NotSemisimple

seeds = st.integers(0, 2**32 - 1)
#: every kind of tag calculus.named_function resolves
function_tags = st.sampled_from(["conj", "identity", "square", "sqrt-shift", "poly:1,-2,0.5j"])


def triangular(l1, l2, a):
    return np.array([[l1, a], [0.0, l2]], dtype=complex)


# ---------------------------------------------------------------------------
# spectral idempotents
# ---------------------------------------------------------------------------

def test_idempotents_diagonal_with_multiplicity():
    pairs = calculus.spectral_idempotents(np.diag([1.0, 1.0, 2.0]))
    by_val = {round(l.real): E for l, E in pairs}
    assert np.allclose(by_val[1], np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(by_val[2], np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_idempotents_triangular_closed_form():
    l1, l2, a = 2.0, -1.0, 1.5
    pairs = calculus.spectral_idempotents(triangular(l1, l2, a))
    by_val = {round(l.real): E for l, E in pairs}
    expected = np.array([[1.0, a / (l1 - l2)], [0.0, 0.0]])
    assert np.allclose(by_val[2], expected, atol=1e-10)
    assert np.allclose(by_val[-1], np.eye(2) - expected, atol=1e-10)


def test_idempotents_conjugation_transport():
    rng = np.random.default_rng(70)
    P = oracles.conjugator_by_loop(rng, 3)
    X = P @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(P)
    pairs = calculus.spectral_idempotents(X)
    cond = np.linalg.cond(P, 2)
    for lam, E in pairs:
        i = int(round(lam.real)) - 1
        rank1 = np.zeros((3, 3))
        rank1[i, i] = 1.0
        expected = P @ rank1 @ np.linalg.inv(P)
        assert core.opnorm(E - expected) <= 1e-7 * cond


def test_idempotent_algebra():
    rng = np.random.default_rng(71)
    X = spaces.sample("mn_ss", 4, rng)
    pairs = calculus.spectral_idempotents(X)
    n = 4
    total = sum(E for _, E in pairs)
    assert core.opnorm(total - np.eye(n)) <= 1e-8
    assemble = sum(l * E for l, E in pairs)
    assert core.opnorm(assemble - X) <= 1e-8 * (1 + core.opnorm(X))
    for i, (_, Ei) in enumerate(pairs):
        assert core.opnorm(Ei @ X - X @ Ei) <= 1e-7 * (1 + core.opnorm(X))
        for j, (_, Ej) in enumerate(pairs):
            target = Ei if i == j else np.zeros((n, n))
            assert core.opnorm(Ei @ Ej - target) <= 1e-7


def test_not_semisimple_rejected():
    with pytest.raises(NotSemisimple):
        calculus.spectral_idempotents(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ambiguous_clustering_rejected():
    # clusters 5e-6 apart violate the 10x separation at the grouping tolerance 1e-6
    assert calculus.DEFAULT_GROUPING_TOL == 1e-6
    with pytest.raises(AmbiguousClustering):
        calculus.spectral_idempotents(np.diag([0.0, 5e-6, 1.0]))


# ---------------------------------------------------------------------------
# apply_function
# ---------------------------------------------------------------------------

def test_apply_identity_and_constant():
    rng = np.random.default_rng(72)
    X = spaces.sample("mn_ss", 3, rng)
    assert core.opnorm(calculus.apply_function(X, lambda z: z) - X) <= 1e-8
    assert core.opnorm(calculus.apply_function(X, lambda z: 1.0) - np.eye(3)) <= 1e-8


def test_apply_matches_paper_closed_form():
    l1, l2, a = 0.3 + 1.1j, -0.7, 2.0 - 0.5j
    T = triangular(l1, l2, a)
    for f in (np.conj, lambda z: z * z, calculus.sqrt_shift):
        got = calculus.apply_function(T, f)
        expected = calculus.calc_2x2_closed_form(l1, l2, a, f)
        assert core.opnorm(got - expected) <= 1e-10


def test_closed_form_conjugation_example():
    # f = conj, eigenvalues +-i, alpha = 1: off-diagonal quotient is -1
    out = calculus.calc_2x2_closed_form(1j, -1j, 1.0, np.conj)
    assert np.allclose(out, [[-1j, -1.0], [0.0, 1j]])


def test_closed_form_identity_and_square():
    l1, l2, a = 1.3, -0.2, 0.7
    assert np.allclose(calculus.calc_2x2_closed_form(l1, l2, a, lambda z: z),
                       triangular(l1, l2, a))
    out = calculus.calc_2x2_closed_form(l1, l2, a, lambda z: z * z)
    assert out[0, 1] == pytest.approx(a * (l1 + l2))


def test_closed_form_equal_eigenvalues():
    with pytest.raises(EqualEigenvalues):
        calculus.calc_2x2_closed_form(1.0, 1.0, 0.5, np.conj)


def test_homomorphism_property():
    rng = np.random.default_rng(73)
    X = spaces.sample("mn_ss", 4, rng)
    f = np.conj
    g = calculus.sqrt_shift
    lhs = calculus.apply_function(X, lambda z: f(z) * g(z))
    rhs = calculus.apply_function(X, f) @ calculus.apply_function(X, g)
    assert core.opnorm(lhs - rhs) <= 1e-8 * (1 + core.opnorm(X)) ** 2


def test_conj_on_normal_is_adjoint():
    rng = np.random.default_rng(74)
    N = spaces.sample("nn", 4, rng)
    assert core.opnorm(calculus.apply_function(N, np.conj) - N.conj().T) \
        <= 1e-8 * (1 + core.opnorm(N))


def test_conjugation_invariance():
    rng = np.random.default_rng(75)
    X = spaces.sample("mn_ss", 3, rng)
    S = oracles.conjugator_by_loop(rng, 3)
    cond = np.linalg.cond(S, 2)
    lhs = calculus.apply_function(S @ X @ np.linalg.inv(S), np.conj)
    rhs = S @ calculus.apply_function(X, np.conj) @ np.linalg.inv(S)
    assert core.opnorm(lhs - rhs) <= 1e-7 * cond ** 2 * (1 + core.opnorm(X))


def test_lagrange_oracle_agreement():
    rng = np.random.default_rng(76)
    for _ in range(20):
        X = spaces.sample("mn_ss", 3, rng)
        for f in (np.conj, lambda z: z * z):
            a = calculus.apply_function(X, f)
            b = calculus.lagrange_apply(X, f)
            c = oracles.lagrange_matrix_function(X, f)
            scale = 1 + core.opnorm(X)
            assert core.opnorm(a - b) <= 1e-6 * scale
            assert core.opnorm(a - c) <= 1e-4 * scale  # Vandermonde route is rougher


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------

def test_probe_decays_at_simple_spectrum():
    T = np.diag([1.0, 2.0, 3.0]).astype(complex)
    devs = [calculus.continuity_probe(T, np.conj, s, samples=30,
                                      rng=np.random.default_rng(i))
            for i, s in enumerate((1e-2, 1e-3, 1e-4))]
    assert devs[0] / devs[1] >= 5
    assert devs[1] / devs[2] >= 5


def test_perturbation_probe_skips_rejected_draws_within_budget():
    draws = []

    def every_other(A):
        draws.append(A)
        if len(draws) % 2 == 0:
            raise NotSemisimple("rejected")
        return A

    worst, rejected = calculus.perturbation_probe(every_other, np.eye(2), 1e-3, 5, 0,
                                                  (NotSemisimple,))
    assert rejected == 5 and len(draws) == 11  # the base point plus 10 draws
    assert worst == pytest.approx(1e-3)

    def never(A):
        if A[0, 1] != 0:
            raise AmbiguousClustering("rejected")
        return A

    with pytest.raises(NotSemisimple):
        calculus.perturbation_probe(never, np.eye(2), 1e-3, 1, 0, (AmbiguousClustering,))


def test_blowup_witness():
    delta = 1e-8
    T = triangular(1.0, 1.0 + delta, delta ** 0.25)
    fT = calculus.apply_function(T, calculus.sqrt_shift, grouping_tol=1e-12)
    assert core.opnorm(fT) >= 10.0
    assert core.opnorm(T - np.eye(2)) <= 1e-2 * (1 + 1e-9)
    # off-diagonal behaves like delta^(-1/4)
    assert abs(fT[0, 1]) == pytest.approx(delta ** -0.25, rel=0.05)


def test_blowup_witness_embedded_in_repeated_block():
    T0 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    Tp = T0.copy()
    Tp[0, 1] = 9e-5
    Tp[1, 1] = 1.0 + 4e-9
    assert core.opnorm(Tp - T0) <= 1e-4
    dev = core.opnorm(
        calculus.apply_function(Tp, calculus.sqrt_shift, grouping_tol=1e-12)
        - calculus.apply_function(T0, calculus.sqrt_shift, grouping_tol=1e-12))
    assert dev >= 1.0


def _near_repeated_witnesses():
    """Criterion 7's blow-up witness (gap 1e-8, off-diagonal 1e-2) and
    criterion 8's repeated-block witness (gap 4e-9, off-diagonal 9e-5)."""
    Tp = np.diag([1.0, 1.0, 2.0]).astype(complex)
    Tp[0, 1] = 9e-5
    Tp[1, 1] = 1.0 + 4e-9
    return [triangular(1.0, 1.0 + 1e-8, 1e-2), Tp]


@pytest.mark.parametrize("X", _near_repeated_witnesses(), ids=["criterion-7", "criterion-8"])
def test_near_repeated_witnesses_are_semisimple(X):
    # diagonalizable with nearly repeated eigenvalues: every semisimplicity
    # verdict must accept them, or criteria 7 and 8 raise NotSemisimple
    _, _, cond, _ = core.eig_decompose_stack(X[None])
    failed, _, _ = core.semisimplicity_check(cond)
    assert not failed.any()
    assert spaces.membership("mn_ss", X)
    fX = calculus.apply_function(X, calculus.sqrt_shift, grouping_tol=1e-12)
    assert np.isfinite(fX).all()


def test_named_function_parser():
    assert calculus.named_function("identity")(2.0) == 2.0
    assert calculus.named_function("conj")(1j) == -1j
    assert calculus.named_function("square")(3.0) == 9.0
    assert calculus.named_function("sqrt-shift")(1.0) == 0.0
    p = calculus.named_function("poly:1,0,2")
    assert p(2.0) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        calculus.named_function("nope")


# ---------------------------------------------------------------------------
# stacks
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 8), st.integers(1, 40), function_tags)
def test_cross_checks_equal_the_loop(seed, n, samples, tag):
    # every sample drawn first, then one stack: the same defects bit for
    # bit, and the generator ends where the loop leaves it
    fns = [calculus.named_function(tag)]
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    closed = calculus.closed_form_defect(rng, samples, fns)
    assert closed == oracles.closed_form_defect_by_loop(loop_rng, samples, fns)
    interpolation = calculus.interpolation_defect(rng, n, samples, fns)
    assert interpolation == oracles.interpolation_defect_by_loop(loop_rng, n, samples, fns)
    invariance = calculus.conjugation_invariance_defect(rng, n, samples, fns)
    assert invariance == oracles.conjugation_invariance_defect_by_loop(loop_rng, n, samples, fns)
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    # the two routes also agree in value, at every size
    assert closed <= calculus.CLOSED_FORM_TOL
    assert interpolation <= calculus.INTERPOLATION_TOL
    assert invariance <= calculus.INVARIANCE_TOL


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 8), st.integers(1, 12), function_tags)
def test_stacked_calculus_equals_each_matrix(seed, n, k, tag):
    # simple spectra, a conjugated diag(1, 1, 2, ..) and a pair closer than
    # the grouping tolerance: each row equals the one-matrix call and the
    # sum over its spectral idempotents
    rng = np.random.default_rng(seed)
    f = calculus.named_function(tag)
    T = spaces.sample_stack("mn_ss", n, k, rng)
    if n >= 2:
        P = oracles.conjugator_by_loop(rng, n)
        lam = np.arange(n, dtype=complex)
        T[0] = P @ np.diag(np.where(lam == 0, 1.0, lam)) @ np.linalg.inv(P)
        T[-1] = P @ np.diag(lam + np.where(lam == 1, 1e-7 - 1, 0.0)) @ np.linalg.inv(P)
    got = calculus.apply_function(T, f)
    for i in range(k):
        assert np.array_equal(got[i], calculus.apply_function(T[i], f))
        pairs = calculus.spectral_idempotents(T[i])
        want = np.zeros((n, n), dtype=complex)
        for lam, E in pairs:
            want += complex(f(lam)) * E
        assert np.array_equal(got[i], want)
    simple = T[1:-1] if n >= 2 else T
    if len(simple):
        got = calculus.lagrange_apply(simple, f)
        for i, X in enumerate(simple):
            assert np.array_equal(got[i], calculus.lagrange_apply(X, f))


def test_stacked_calculus_errors_name_the_matrix():
    good = np.diag([1.0, 2.0]).astype(complex)
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotSemisimple, match="^matrix 2 of the stack: eigenvector condition"):
        calculus.apply_function(np.stack([good, good, jordan]), np.conj)
    with pytest.raises(AmbiguousClustering, match="^matrix 1 of the stack: eigenvalue clusters"):
        calculus.apply_function(np.stack([good, np.diag([0.0, 5e-6])]), np.conj)
    with pytest.raises(AmbiguousClustering, match="^matrix 1 of the stack: interpolation"):
        calculus.lagrange_apply(np.stack([good, np.eye(2)]), np.conj)
    with pytest.raises(NotSemisimple, match="^eigenvector condition"):
        calculus.apply_function(jordan[None], np.conj)


def test_failing_sample_raises_the_loops_class(monkeypatch):
    # equal eigenvalues on the third draw: the closed form refuses them in
    # the loop and in the stack alike
    real = spaces.separated_pair
    count = iter(range(10**6))

    def patched(rng):
        pair = real(rng)
        return pair[[0, 0]] if next(count) == 2 else pair

    fns = [np.conj]
    monkeypatch.setattr(spaces, "separated_pair", patched)
    with pytest.raises(EqualEigenvalues):
        oracles.closed_form_defect_by_loop(np.random.default_rng(5), 6, fns)
    count = iter(range(10**6))
    with pytest.raises(EqualEigenvalues):
        calculus.closed_form_defect(np.random.default_rng(5), 6, fns)
