import numpy as np
import pytest
import scipy.stats

from specshrink import core, spaces
from specshrink.errors import UnsupportedDimension

ALL_TAGS = [s.value for s in spaces.SpaceId]


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_samplers_pass_their_own_membership(tag):
    rng = np.random.default_rng(100)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            X = spaces.sample(tag, n, rng)
            assert spaces.membership(tag, X), (tag, n)


def test_membership_negative_examples():
    assert not spaces.membership("hn", 1j * np.eye(2))
    assert spaces.membership("sun", np.diag([1j, 1j, -1.0]))
    assert not spaces.membership("gln_ss", np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_sample_defining_properties():
    rng = np.random.default_rng(101)
    U = spaces.sample("un", 3, rng)
    assert core.opnorm(U.conj().T @ U - np.eye(3)) <= 1e-10
    X = spaces.sample("sln", 3, rng)
    assert abs(np.linalg.det(X) - 1.0) <= 1e-8
    N = spaces.sample("nn", 4, rng)
    assert core.opnorm(N @ N.conj().T - N.conj().T @ N) <= 1e-8
    G = spaces.sample("gln_star", 3, rng)
    assert abs(np.linalg.det(G) + 1.0) > 1e-6


def test_zero_dimension_rejected():
    with pytest.raises(UnsupportedDimension):
        spaces.sample("mn", 0)
    with pytest.raises(UnsupportedDimension):
        spaces.semisimple_sample(np.random.default_rng(0), 0)


def test_circle_point_budget_runs_out():
    # 50 gaps above 0.15 would need a circumference above 7.5 > 2 pi
    with pytest.raises(UnsupportedDimension):
        spaces.circle_points(np.random.default_rng(0), 50, 0.15)


def test_space_tag_aliases():
    assert spaces.SpaceId.parse("gl") is spaces.SpaceId.GLN
    assert spaces.SpaceId.parse("sl_ss") is spaces.SpaceId.SLN_SS
    assert spaces.SpaceId.parse("u") is spaces.SpaceId.UN
    with pytest.raises(ValueError):
        spaces.SpaceId.parse("nope")


def test_ss_samples_are_semisimple_with_gaps():
    rng = np.random.default_rng(102)
    for _ in range(20):
        X = spaces.sample("mn_ss", 4, rng)
        ed = core.eig_decompose(X)
        assert ed.semisimple
        vals = ed.eigenvalues
        d = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > spaces.SIMPLE_GAP / 2


def test_haar_first_entry_square_is_uniform():
    # |U_11|^2 for Haar 2x2 is uniform on [0,1]
    rng = np.random.default_rng(103)
    vals = np.array([abs(spaces.haar_unitary(rng, 2)[0, 0]) ** 2 for _ in range(5000)])
    stat = scipy.stats.kstest(vals, "uniform").statistic
    assert stat < 0.05
