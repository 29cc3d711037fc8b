import numpy as np
import pytest

import oracles
from specshrink import configspace as cs
from specshrink.errors import DegeneratePoints


def points(*angles):
    return cs.CirclePoints(np.exp(2j * np.pi * np.asarray(angles)))


def test_permutation_helpers():
    assert cs.compose((1, 2, 0), (2, 0, 1)) == (0, 1, 2)
    assert cs.inverse((1, 2, 0)) == (2, 0, 1)
    assert cs.eta_cycle(3) == (1, 2, 0)


def test_validation():
    with pytest.raises(DegeneratePoints):
        cs.CirclePoints(np.array([1.0, 1.0 + 1e-12]))
    with pytest.raises(DegeneratePoints):
        cs.CirclePoints(np.array([0.5, 1.0]))


def test_classify_counterclockwise_order():
    assert cs.classify_component(points(0, 1 / 3, 2 / 3)) == cs.PermCoset.of(3, (0, 1, 2))


def test_classify_swapped_pair():
    # (1, e^{4 pi i/3}, e^{2 pi i/3}): reading counterclockwise visits 0, 2, 1
    got = cs.classify_component(points(0, 2 / 3, 1 / 3))
    assert got == cs.PermCoset.of(3, (0, 2, 1))
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
    assert cs.act(cs.identity_perm(3), pts) == pts
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
        for sigma in cs.all_permutations(n):
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
    # two representatives differing by a power of eta give equal cosets
    n = 4
    eta = cs.eta_cycle(n)
    tau = (2, 0, 3, 1)
    assert cs.PermCoset.of(n, tau) == cs.PermCoset.of(n, cs.compose(tau, eta))
    assert cs.PermCoset.of(n, tau).contains(cs.compose(tau, cs.compose(eta, eta)))
    assert cs.PermCoset.of(n, tau) != cs.PermCoset.of(n, cs.compose(eta, tau)) or \
        cs.PermCoset.of(n, tau).contains(cs.compose(eta, tau))


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
