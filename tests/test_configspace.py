import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from specshrink import configspace as cs
from specshrink.errors import DegeneratePoints


def points(*angles):
    return cs.CirclePoints(np.exp(2j * np.pi * np.asarray(angles)))


def test_permutation_helpers():
    assert oracles.compose((1, 2, 0), (2, 0, 1)) == (0, 1, 2)
    assert cs.inverse((1, 2, 0)) == (2, 0, 1)
    assert cs.eta_cycle(3) == (1, 2, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_rows_are_itertools_order(n):
    rows = cs._permutation_rows(n)
    assert rows.dtype == np.int8
    assert [tuple(r) for r in rows.tolist()] == list(itertools.permutations(range(n)))


def test_validation():
    with pytest.raises(DegeneratePoints):
        cs.CirclePoints(np.array([1.0, 1.0 + 1e-12]))
    with pytest.raises(DegeneratePoints):
        cs.CirclePoints(np.array([0.5, 1.0]))


@pytest.mark.parametrize("z", [[np.nan, 1.0], [np.nan], [1.0, complex(np.nan, 1.0)],
                               [np.inf, 1.0], [complex(1.0, np.inf)]])
def test_non_finite_points_are_refused(z):
    # a NaN compares False with both thresholds, so it must fail the tests
    # rather than pass them
    with pytest.raises(DegeneratePoints):
        cs.CirclePoints(np.array(z, dtype=complex))


def coset(n, tau):
    return cs.PermCoset(n, oracles.coset_representative_by_rotation(n, tau))


def test_classify_counterclockwise_order():
    assert cs.classify_component(points(0, 1 / 3, 2 / 3)) == coset(3, (0, 1, 2))


def test_classify_swapped_pair():
    # (1, e^{4 pi i/3}, e^{2 pi i/3}): reading counterclockwise visits 0, 2, 1
    got = cs.classify_component(points(0, 2 / 3, 1 / 3))
    assert got == coset(3, (0, 2, 1))
    assert got != cs.classify_component(points(0, 1 / 3, 2 / 3))


def test_classify_rotation_invariance():
    base = points(0.05, 0.40, 0.70)
    got = cs.classify_component(base)
    for phase in (0.1, 0.37, 0.81):
        rotated = cs.CirclePoints(base.z * np.exp(2j * np.pi * phase))
        assert cs.classify_component(rotated) == got


def test_classify_start_independence():
    # rotating the whole configuration moves the minimal-argument starting
    # point around the circle; every start gives the same coset
    pts = points(0.05, 0.40, 0.70, 0.90)
    base = cs.classify_component(pts)
    for phase in (0.2, 0.45, 0.75, 0.93):
        rotated = cs.CirclePoints(pts.z * np.exp(2j * np.pi * phase))
        assert cs.classify_component(rotated) == base


def test_classify_stable_under_small_perturbation():
    rng = np.random.default_rng(60)
    pts = points(0.05, 0.40, 0.70)
    base = cs.classify_component(pts)
    gaps = np.abs(pts.z[:, None] - pts.z[None, :])
    np.fill_diagonal(gaps, np.inf)
    eps = gaps.min() / 2
    for _ in range(20):
        jitter = rng.uniform(-eps / 4, eps / 4, size=3)
        moved = cs.CirclePoints(pts.z * np.exp(1j * jitter))
        assert cs.classify_component(moved) == base


def test_act_examples():
    pts = points(0.0, 0.25, 0.5)
    assert np.array_equal(cs.act(cs.identity_perm(3), pts).z, pts.z)
    swapped = cs.act((1, 0, 2), pts)
    assert np.allclose(swapped.z, pts.z[[1, 0, 2]])


@pytest.mark.parametrize("n", [3, 4])
def test_equivariance_exhaustive(n):
    rng = np.random.default_rng(61)
    for _ in range(3):
        while True:
            z = np.exp(2j * np.pi * rng.uniform(size=n))
            d = np.abs(z[:, None] - z[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() > 0.2:
                break
        pts = cs.CirclePoints(z)
        base = cs.classify_component(pts)
        for sigma in itertools.permutations(range(n)):
            assert cs.classify_component(cs.act(sigma, pts)) == base.left_multiply(sigma)


def test_isotropy_cyclic_order_three():
    iso = cs.isotropy_of_component(points(0.0, 1 / 3, 2 / 3))
    assert iso == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_isotropy_n2_is_everything():
    iso = cs.isotropy_of_component(points(0.0, 0.5))
    assert iso == {(0, 1), (1, 0)}


def test_isotropy_is_conjugate_cyclic_n4():
    rng = np.random.default_rng(62)
    while True:
        z = np.exp(2j * np.pi * rng.uniform(size=4))
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.2:
            break
    pts = cs.CirclePoints(z)
    iso = cs.isotropy_of_component(pts)
    expected = cs.expected_isotropy(cs.classify_component(pts))
    assert iso == expected
    assert len(iso) == 4


def test_coset_equality_semantics():
    # permutations differing by a power of eta on the right share one
    # representative; eta on the left moves this tau to another coset
    n = 4
    eta = cs.eta_cycle(n)
    tau = (2, 0, 3, 1)
    taus = [tau, oracles.compose(tau, eta), oracles.compose(tau, oracles.compose(eta, eta)),
            oracles.compose(eta, tau)]
    reps = [tuple(r) for r in cs.coset_representatives(np.array(taus)).tolist()]
    assert reps[0] == reps[1] == reps[2] == (0, 3, 1, 2)
    assert reps[3] != reps[0]
    assert cs.PermCoset(n, reps[0]) == cs.PermCoset(n, reps[1]) != cs.PermCoset(n, reps[3])


_permutation_stacks = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(_permutation_stacks)
def test_coset_representatives_equal_the_rotation_loop(taus):
    n = len(taus[0])
    want = [oracles.coset_representative_by_rotation(n, tau) for tau in taus]
    assert [tuple(r) for r in cs.coset_representatives(np.array(taus)).tolist()] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(n))))
def test_expected_isotropy_equals_the_loop(tau):
    c = coset(len(tau), tau)
    assert cs.expected_isotropy(c) == oracles.expected_isotropy_by_loop(c.n, c.rep)


@pytest.mark.parametrize("n", range(1, 9))
def test_classification_failures_equal_the_loop(n):
    for seed in (0, 7, 19):
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert cs.classification_failures(rng, n, 2) == \
            oracles.classification_failures_by_loop(loop_rng, n, 2)
        assert rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("n", range(3, 9))
def test_classification_rejects_right_multiplication(monkeypatch, n):
    # composed on the wrong side, the check expects sigma . pts in the coset
    # rep sigma <eta> where it lies in sigma rep <eta>; at n = 3, <eta> is the
    # alternating group, normal in S_3, so the two always agree
    monkeypatch.setattr(cs, "left_multiply_stack", lambda sigmas, rep: cs.coset_representatives(
        np.asarray(rep)[np.asarray(sigmas)]))
    equivariance, isotropy = cs.classification_failures(np.random.default_rng(0), n, 3)
    assert (equivariance > 0) == (n > 3)
    assert isotropy in (0, None)


@pytest.mark.parametrize("n", range(2, 9))
def test_cycle_decomposition(n):
    assert cs.verify_cycle_decomposition(n) is True
    assert oracles.cycle_decomposition_by_enumeration(n) is True


@pytest.mark.parametrize("n", [3, 4, 6])
def test_cycle_decomposition_rejects_a_non_full_cycle(monkeypatch, n):
    # with eta = (0 1) the powers of each conjugate are one transposition and
    # the identity, which join only the pair that transposition swaps
    monkeypatch.setattr(cs, "eta_cycle", lambda n: (1, 0) + tuple(range(2, n)))
    assert cs.verify_cycle_decomposition(n) is False
    assert oracles.cycle_decomposition_by_enumeration(n) is False


def test_cycle_decomposition_range_guard():
    with pytest.raises(ValueError):
        cs.verify_cycle_decomposition(9)
