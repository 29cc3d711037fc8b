import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import oracles
from specshrink import calculus, core, spaces
from specshrink.errors import UnsupportedDimension

ALL_TAGS = [s.value for s in spaces.SpaceId]


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_samplers_pass_their_own_membership(tag):
    rng = np.random.default_rng(100)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            X = spaces.sample(tag, n, rng)
            assert spaces.membership(tag, X), (tag, n)


@pytest.mark.parametrize("kind", ["simple", "repeated", "defective"])
def test_membership_semisimplicity_is_the_condition_rule(kind):
    # a simple spectrum, a conjugated diag(1, 1, 2, ..) with a healthy
    # repeated eigenspace, and the same with a Jordan block on 1, whose
    # eigenvector condition lands on either side of the cap
    rng = np.random.default_rng(105)
    verdicts = []
    for n in (2, 3, 4, 6):
        for _ in range(5):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            S = np.eye(n) + 0.3 * g / core.opnorm(g)
            D = np.diag([1.0, 1.0] + list(range(2, n))).astype(complex)
            if kind == "simple":
                D = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            if kind == "defective":
                D[0, 1] = 1.0
            X = S @ D @ np.linalg.inv(S)
            _, _, cond = oracles.eig_decompose_by_loop(X)
            want = cond <= 1.0 / core.DEFAULT_EIG_TOL
            assert spaces.membership("mn_ss", X) == want
            assert spaces.membership("gln_ss", X) == (want and spaces.membership("gln", X))
            verdicts.append(want)
    assert all(verdicts) if kind != "defective" else not all(verdicts)


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
        calculus.interpolation_defect(np.random.default_rng(0), 0, 1, [np.conj])


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
        assert spaces.membership("mn_ss", X)
        vals = core.spectrum(X)
        d = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > spaces.SIMPLE_GAP / 2


def test_haar_first_entry_square_is_uniform():
    # |U_11|^2 for Haar 2x2 is uniform on [0,1]
    rng = np.random.default_rng(103)
    vals = np.array([abs(spaces.sample("un", 2, rng)[0, 0]) ** 2 for _ in range(5000)])
    stat = scipy.stats.kstest(vals, "uniform").statistic
    assert stat < 0.05


# ---------------------------------------------------------------------------
# stacked draws
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_TAGS), st.integers(1, 8),
       st.integers(1, 40))
def test_sample_stack_equals_the_loop(seed, tag, n, k):
    stacked_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    got = spaces.sample_stack(tag, n, k, stacked_rng)
    want = np.stack([oracles.sample_by_loop(tag, n, loop_rng) for _ in range(k)])
    assert np.array_equal(got, want)
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state
    assert all(spaces.membership(tag, X) for X in got)


@pytest.mark.parametrize("tag", ["sun", "sln"])
def test_determinant_roots_at_n_2_equal_the_loop(tag):
    # at n = 2 the root is det ** 0.5: numpy's array power takes a square
    # root path there that differs in the last bit from the scalar power
    stacked_rng = np.random.default_rng(7)
    loop_rng = np.random.default_rng(7)
    got = spaces.sample_stack(tag, 2, 200, stacked_rng)
    want = np.stack([oracles.sample_by_loop(tag, 2, loop_rng) for _ in range(200)])
    assert np.array_equal(got, want)


def test_sample_stack_rejects_empty_stacks():
    with pytest.raises(ValueError):
        spaces.sample_stack("un", 3, 0)
    with pytest.raises(UnsupportedDimension):
        spaces.sample_stack("un", 0, 3)


class ScriptedGinibre(np.random.Generator):
    """A generator whose Ginibre candidates follow a script of booleans:
    each n x n candidate's Gaussians make the matrix ``good`` or ``bad``.
    ``drawn`` counts the candidates handed out."""

    def __init__(self, n, script, good, bad):
        super().__init__(np.random.PCG64(0))
        self.n = n
        self.script = iter(script)
        # real parts sqrt(2) M and zero imaginary parts give exactly M
        self.blocks = {ok: np.concatenate([np.sqrt(2) * M.ravel(), np.zeros(n * n)])
                       for ok, M in ((True, good), (False, bad))}
        self.drawn = 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        count = int(np.prod(size)) // (2 * self.n * self.n)
        self.drawn += count
        blocks = [self.blocks[next(self.script)] for _ in range(count)]
        return np.concatenate(blocks).reshape(size)


# gln rejects singular candidates; gln_star also rejects det = -1
REJECTION_CASES = {
    "gln": (np.eye(3), np.zeros((3, 3))),
    "gln_star": (np.eye(3), np.diag([-1.0, 1.0, 1.0])),
}


@pytest.mark.parametrize("tag", sorted(REJECTION_CASES))
@pytest.mark.parametrize("k", [1, 3, 7])
def test_rejection_budget_runs_out_after_max_tries_candidates(tag, k):
    good, bad = REJECTION_CASES[tag]
    g = ScriptedGinibre(3, [False] * (2 * spaces.MAX_TRIES), good, bad)
    with pytest.raises(UnsupportedDimension):
        spaces.sample_stack(tag, 3, k, g)
    assert g.drawn == spaces.MAX_TRIES


@pytest.mark.parametrize("tag", sorted(REJECTION_CASES))
@pytest.mark.parametrize("k", [1, 3])
def test_each_stacked_slot_keeps_its_own_budget(tag, k):
    good, bad = REJECTION_CASES[tag]
    script = ([False] * (spaces.MAX_TRIES - 1) + [True]) * k
    g = ScriptedGinibre(3, script, good, bad)
    got = spaces.sample_stack(tag, 3, k, g)
    assert np.array_equal(got, np.stack([good] * k))
    assert g.drawn == k * spaces.MAX_TRIES
