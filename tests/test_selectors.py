import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import oracles
from specshrink import core, selectors, spaces
from specshrink.errors import (
    AmbiguousContinuation,
    DimensionMismatch,
    LambdaInSpectrum,
    NotHermitian,
    NotSpecialUnitary,
    SpecshrinkError,
)

seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# special unitary selector
# ---------------------------------------------------------------------------

def test_su_select_identity():
    assert selectors.su_select(np.eye(4)) == pytest.approx(1.0)


def test_su_select_worked_example():
    # angles (1/4, 1/4, 1/2) shift to (-1/2, 1/4, 1/4); output is -1
    U = np.diag([1j, 1j, -1.0])
    rep = selectors.su_representative(U)
    assert np.allclose(rep, [-0.5, 0.25, 0.25])
    assert selectors.su_select(U) == pytest.approx(-1.0)
    assert np.allclose(rep, oracles.su_representative_by_enumeration(U))


def test_su_select_scalar_case_via_enumeration():
    w = np.exp(-2j * np.pi / 3)
    U = w * np.eye(3)
    rep = oracles.su_representative_by_enumeration(U)
    assert np.allclose(selectors.su_representative(U), rep)
    assert selectors.su_select(U) == pytest.approx(w)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(2, 4))
def test_su_select_matches_enumeration_and_spectrum(seed, n):
    rng = np.random.default_rng(seed)
    U = spaces.sample("sun", n, rng)
    rep = selectors.su_representative(U)
    assert np.allclose(rep, oracles.su_representative_by_enumeration(U), atol=1e-8)
    val = selectors.su_select(U)
    assert np.min(np.abs(np.linalg.eigvals(U) - val)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(2, 6))
def test_su_select_conjugation_invariance(seed, n):
    # beyond the enumeration oracle's reach (n <= 4): spectral membership
    # and conjugation invariance at the pinned threshold up to n = 6
    rng = np.random.default_rng(seed)
    U = spaces.sample("sun", n, rng)
    V = spaces.sample("un", n, rng)
    val = selectors.su_select(U)
    assert np.min(np.abs(np.linalg.eigvals(U) - val)) <= selectors.SPECTRAL_TOL
    assert abs(selectors.su_select(V @ U @ V.conj().T) - val) <= selectors.SPECTRAL_TOL


def test_su_select_path_continuity():
    rng = np.random.default_rng(51)
    for _ in range(5):
        U = spaces.sample("sun", 3, rng)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = 0.5 * (g - g.conj().T)
        A -= (np.trace(A) / 3) * np.eye(3)
        A /= core.opnorm(A)
        E = scipy.linalg.expm(1e-3 * A)
        mats = []
        for _ in range(300):
            mats.append(U)
            U = E @ U
        path = selectors.selector_path(selectors.su_select, mats)
        assert path.max_jump <= 0.05


def test_su_select_rejects_bad_inputs():
    with pytest.raises(NotSpecialUnitary):
        selectors.su_select(2 * np.eye(2))
    with pytest.raises(NotSpecialUnitary):
        selectors.su_select(np.diag([1.0, -1.0]))  # unitary, det -1


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(2, 8), st.integers(1, 64), st.booleans())
def test_su_select_stack_bitwise_equals_loop(seed, n, k, path):
    # the stack kernel and the per-matrix algorithm agree bit for bit, on a
    # path recurrence as su_path builds it or on independent Haar draws,
    # with an exactly degenerate scalar matrix at a random place
    rng = np.random.default_rng(seed)
    if path:
        Us = selectors.su_path(rng, n, k, 1e-3).matrices[:k]
    else:
        Us = [spaces.sample("sun", n, rng) for _ in range(k)]
    Us[int(rng.integers(k))] = np.exp(2j * np.pi * int(rng.integers(n)) / n) * np.eye(n)
    got = selectors.su_select_stack(np.stack(Us))
    want = np.array([oracles.su_select_by_loop(U) for U in Us])
    assert got.shape == (k,)
    assert np.array_equal(got, want)
    assert selectors.su_select(Us[-1]) == want[-1]


@pytest.mark.parametrize("bad", [
    np.diag([1.0, -1.0, 1.0]),          # unitary, det -1
    2 * np.eye(3),                      # not unitary
    np.diag([1.0, np.nan, 1.0]),        # not finite
    np.diag([1.0, np.inf, 1.0]),
])
@pytest.mark.parametrize("where", [0, 4, 9])
def test_su_select_stack_names_first_bad_matrix(bad, where):
    with pytest.raises(SpecshrinkError) as single:
        selectors.su_select(bad)
    rng = np.random.default_rng(54)
    Us = np.stack([spaces.sample("sun", 3, rng) for _ in range(10)])
    Us[where] = bad
    if where < 9:
        Us[9] = np.diag([1.0, -1.0, 1.0])  # a later bad matrix is not the one named
    with pytest.raises(type(single.value), match=f"matrix {where} of the stack"):
        selectors.su_select_stack(Us)


def test_su_select_stack_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        selectors.su_select_stack(np.eye(3))
    with pytest.raises(DimensionMismatch):
        selectors.su_select_stack(np.zeros((2, 3, 4)))


def test_unitarity_screen_keeps_the_svd_verdict(monkeypatch):
    # D = diag(1 + e, 1 / (1 + e), 1) keeps det 1 and puts ||D^2 - I|| at
    # 2e + e^2; the Frobenius norm is about 1.4 times that, so a row just
    # inside the bound reaches the SVD and rows well inside it skip it
    n = 3
    bound = selectors.DOMAIN_TOL * (1 + n)
    rng = np.random.default_rng(55)

    def scaled(target):
        e = np.sqrt(1.0 + target) - 1.0
        return spaces.sample("sun", n, rng) @ np.diag([1.0 + e, 1.0 / (1.0 + e), 1.0])

    inside = [scaled(t * bound) for t in (1e-6, 0.5, 1.0 - 1e-4)]
    outside = scaled((1.0 + 1e-4) * bound)
    svd_rows = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        svd_rows.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    got = selectors.su_select_stack(np.stack(inside))
    assert svd_rows == [1]
    assert np.array_equal(got, [oracles.su_select_by_loop(U) for U in inside])
    with pytest.raises(NotSpecialUnitary):
        oracles.su_select_by_loop(outside)
    with pytest.raises(NotSpecialUnitary, match="matrix 2 of the stack: input is not unitary"):
        selectors.su_select_stack(np.stack(inside[:2] + [outside] + inside[2:]))


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(2, 6), st.integers(1, 8), st.integers(1, 200))
def test_su_paths_equal_sequential_paths(seed, n, count, steps):
    # orbits advanced together and selected in blocks match orbits drawn
    # and advanced one at a time, bit for bit
    paths = selectors.su_paths(np.random.default_rng(seed), n, count, steps, 1e-3)
    want = oracles.su_paths_by_loop(np.random.default_rng(seed), n, count, steps, 1e-3)
    assert len(paths) == count
    for path, (_, values) in zip(paths, want):
        assert np.array_equal(path.values, values)
        assert path.matrices is None
    single = selectors.su_path(np.random.default_rng(seed), n, steps, 1e-3)
    assert np.array_equal(single.values, want[0][1])
    assert len(single.matrices) == steps + 1
    assert all(np.array_equal(a, b) for a, b in zip(single.matrices, want[0][0]))


def test_su_paths_blocks_cover_every_step(monkeypatch):
    monkeypatch.setattr(selectors, "SELECT_BLOCK", 7)  # blocks of 2 steps for 3 paths
    paths = selectors.su_paths(np.random.default_rng(56), 3, 3, 10, 1e-2)
    want = oracles.su_paths_by_loop(np.random.default_rng(56), 3, 3, 10, 1e-2)
    for path, (_, values) in zip(paths, want):
        assert np.array_equal(path.values, values)
    np.testing.assert_array_equal(paths[0].parameters, np.arange(11) * 1e-2)


def test_spectral_defect_needs_matrices():
    [path] = selectors.su_paths(np.random.default_rng(57), 3, 1, 2, 1e-3)
    with pytest.raises(ValueError, match="no matrices"):
        path.spectral_defect()


@pytest.mark.parametrize("count, steps, step", [
    (0, 10, 1e-3), (2, 0, 1e-3), (2, -2, 1e-3), (2, 10, np.nan), (2, 10, np.inf)])
def test_su_paths_reject_empty_paths_and_bad_steps(count, steps, step):
    with pytest.raises(ValueError):
        selectors.su_paths(np.random.default_rng(58), 3, count, steps, step)


def test_selector_path_needs_a_finite_step():
    for mats in ([], [np.eye(2)]):
        with pytest.raises(ValueError, match="at least one step"):
            selectors.selector_path(oracles.hn_select_by_loop, mats)
    with pytest.raises(ValueError, match="finite"):
        selectors.selector_path(oracles.hn_select_by_loop, [np.eye(2)] * 3, [0.0, np.nan, 1.0])


# ---------------------------------------------------------------------------
# cut-plane selector on unitaries
# ---------------------------------------------------------------------------

def test_un_lambda_examples():
    assert selectors.un_lambda_select(np.diag([1.0, 1j]), -1.0) == pytest.approx(1j)
    assert selectors.un_lambda_select(np.diag([1.0]), -1.0) == pytest.approx(1.0)
    with pytest.raises(LambdaInSpectrum):
        selectors.un_lambda_select(np.diag([-1.0, 1j]), -1.0)


def test_un_lambda_continuity_away_from_cut():
    rng = np.random.default_rng(52)
    Q = spaces.sample("un", 2, rng)
    th0 = rng.uniform(-2.8, 2.0, size=2)
    drift = rng.uniform(-0.5, 0.5, size=2)
    vals = []
    for k in range(400):
        phases = np.exp(1j * (th0 + 1e-3 * k * drift))
        U = Q @ np.diag(phases) @ Q.conj().T
        vals.append(selectors.un_lambda_select(U, -1.0))
    assert np.max(np.abs(np.diff(vals))) <= 0.05


def test_un_lambda_jumps_across_cut():
    # one eigenvalue sweeps through the branch ray: O(1) jump appears
    vals = []
    for th in np.linspace(0.9 * np.pi, 1.1 * np.pi, 200):
        U = np.diag([np.exp(1j * th), np.exp(0.2j)])
        vals.append(selectors.un_lambda_select(U, -1.0))
    assert np.max(np.abs(np.diff(vals))) > 0.5


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def assert_tracks_like_loop(spectra):
    # the stacked tracker against one nearest match per value and step:
    # the same values, or the same error with the same message
    try:
        want = oracles.track_by_loop(spectra)
    except AmbiguousContinuation as exc:
        with pytest.raises(AmbiguousContinuation) as got:
            selectors.track_spectra(spectra)
        assert str(got.value) == str(exc)
        return exc
    assert np.array_equal(selectors.track_spectra(spectra), want)
    return None


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 8), st.sampled_from([1e-9, 1e-3, 0.3]), st.booleans())
def test_continue_all_equals_per_value_matching(seed, n, noise, tie):
    rng = np.random.default_rng(seed)
    prev = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    new = rng.permutation(prev + noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    if tie and n > 1:
        new[1] = new[0]
    assert_tracks_like_loop(np.stack([prev, new]))


def test_continue_all_rejects_a_shared_target():
    prev = np.array([0.0, 1.0], dtype=complex)
    new = np.array([0.4, 10.0], dtype=complex)  # both values clearly nearest 0.4
    for track in (selectors.track_spectra, oracles.track_by_loop):
        with pytest.raises(AmbiguousContinuation, match="same target"):
            track(np.stack([prev, new]))


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(2, 6), st.integers(1, 12),
       st.lists(st.sampled_from(["exact tie", "near tie", "shared target", "nan"]),
                max_size=2))
def test_track_spectra_fails_where_the_loop_fails(seed, n, steps, faults):
    # a slowly moving spectrum, each row in its own order, with ties, a
    # stolen target or a NaN planted at random steps: the first bad step (in
    # the loop's order of tracked values) names the same error
    rng = np.random.default_rng(seed)
    walk = np.cumsum(0.01 * (rng.standard_normal((steps + 1, n))
                             + 1j * rng.standard_normal((steps + 1, n))), axis=0)
    spectra = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) + walk
    spectra = np.array([rng.permutation(row) for row in spectra])
    for fault in faults:
        k = int(rng.integers(1, steps + 1))
        i, j = rng.choice(n, size=2, replace=False)
        if fault == "exact tie":
            spectra[k, j] = spectra[k, i]
        elif fault == "near tie":
            spectra[k, j] = spectra[k, i] + float(rng.choice([1e-12, 1e-9, 1e-4]))
        elif fault == "shared target":
            spectra[k, j] = 1e3 * (1 + 1j)
        else:
            spectra[k, j] = np.nan
    exc = assert_tracks_like_loop(spectra)
    if "exact tie" in faults:  # the value tracked onto the tie meets it
        assert exc is not None


def test_track_spectra_names_the_first_ambiguous_tracked_value():
    # at step 2 the values tracked from 0 and from 15 are both ambiguous;
    # row 1 lists 15 first, the tracked order lists 0 first, as the loop does
    spectra = np.array([[0.0, 5.0, 10.0, 15.0],
                        [15.0, 10.0, 5.0, 0.0],
                        [15.1, 15.15, 1.0, 1.5]], dtype=complex)
    message = "nearest match is ambiguous: distances 1.000e+00 and 1.500e+00"
    for track in (selectors.track_spectra, oracles.track_by_loop):
        with pytest.raises(AmbiguousContinuation) as got:
            track(spectra)
        assert str(got.value) == message


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.sampled_from([1e-40, 1e-3, 0.5, 1.0, 2.0, 1e3]),
       st.integers(0, 192))
def test_monodromy_equals_step_by_step_tracking(n, r, extra):
    steps = 64 * n + extra
    got, want = selectors.monodromy_xz(n, r, steps), oracles.monodromy_by_loop(n, r, steps)
    assert got.permutation == want.permutation
    for field in ("values", "start", "end"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_corner_matrix_sign_pinned_by_trace_recurrence():
    # char poly of the corner matrix is x^n - z (not x^n + z)
    for n in (2, 3, 4, 5):
        z = 0.7 - 1.3j
        [X] = selectors.corner_matrices(n, [z])
        coeffs = core.char_poly(X)
        expected = np.zeros(n, dtype=complex)
        expected[0] = -z
        assert np.allclose(coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_monodromy_corners_equal_per_step_builds(monkeypatch, n, r):
    # the corner stack monodromy_xz builds from one vector exp equals the
    # per-step matrices built from one scalar exp each, bit for bit
    corner_matrices = selectors.corner_matrices
    built = []

    def spy(size, zs):
        built.append(corner_matrices(size, zs))
        return built[-1]

    monkeypatch.setattr(selectors, "corner_matrices", spy)
    steps = 64 * n
    selectors.monodromy_xz(n, r, steps)
    assert np.array_equal(built[0], oracles.corner_matrices_by_loop(n, r, steps))


def test_monodromy_two_cycle():
    res = selectors.monodromy_xz(2, 1.0, 128)
    assert res.permutation == (1, 0)
    assert res.is_single_cycle()


def test_monodromy_three_cycle_matches_closed_form():
    res = selectors.monodromy_xz(3, 1.0, 256)
    assert res.is_single_cycle()
    target = np.exp(2j * np.pi / 3)
    assert np.max(np.abs(res.ratios() - target)) <= 1e-6
    # full path agrees with the analytic continuation of the roots
    for j in range(3):
        branch = np.round(np.angle(res.values[0, j]) * 3 / (2 * np.pi))
        expected = oracles.corner_root_path(3, 1.0, res.parameters, branch)
        assert np.max(np.abs(res.values[:, j] - expected)) <= 1e-8


def test_monodromy_four_cycle_small_radius():
    res = selectors.monodromy_xz(4, 0.5, 256)
    assert res.is_single_cycle()


@pytest.mark.parametrize("n", range(2, 7))
def test_monodromy_tracks_loops_of_tiny_radius(n):
    # the roots of x^n - z sit r^(1/n) apart, far inside the slack at unit modulus
    res = selectors.monodromy_xz(n, 1e-40, max(64 * n, 256))
    assert res.is_single_cycle()
    assert res.ratio_defect() <= selectors.MONODROMY_RATIO_TOL


def test_monodromy_step_guard():
    with pytest.raises(ValueError):
        selectors.monodromy_xz(3, 1.0, 100)


# ---------------------------------------------------------------------------
# Hermitian selector
# ---------------------------------------------------------------------------

def test_hn_select_examples():
    assert selectors.hn_select_stack(np.diag([3.0, -1.0])[None])[0] == pytest.approx(3.0)
    assert selectors.hn_select_stack(np.eye(4)[None])[0] == pytest.approx(1.0)
    with pytest.raises(NotHermitian):
        selectors.hn_select_stack(np.array([[0.0, 1.0], [0.0, 0.0]])[None])


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 8), st.integers(1, 20))
def test_hn_select_stack_bitwise_equals_loop(seed, n, k):
    H = spaces.sample_stack("hn", n, k, np.random.default_rng(seed))
    got = selectors.hn_select_stack(H)
    want = np.array([oracles.hn_select_by_loop(h) for h in H])
    assert got.shape == (k,)
    assert np.array_equal(got, want)
    assert selectors.hn_select_stack(H[-1][None])[0] == want[-1]


@pytest.mark.parametrize("where", [0, 4, 9])
def test_hn_select_stack_names_first_bad_matrix(where):
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    H = spaces.sample_stack("hn", 2, 10, np.random.default_rng(56))
    H[where] = bad
    if where < 9:
        H[9] = bad  # a later bad matrix is not the one named
    with pytest.raises(NotHermitian, match=f"matrix {where} of the stack: input is not"):
        selectors.hn_select_stack(H)
    with pytest.raises(NotHermitian, match="^input is not Hermitian within tolerance$"):
        selectors.hn_select_stack(bad[None])
    with pytest.raises(DimensionMismatch):
        selectors.hn_select_stack(np.eye(2))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 8), st.integers(2, 40), st.floats(1e-3, 1e3))
def test_stacked_hn_path_equals_per_matrix_selection(seed, n, k, scale):
    # select --selector hn's path: one hn_select_stack call on the whole stack
    rng = np.random.default_rng(seed)
    X0 = spaces.sample("hn", n, rng)
    H1 = spaces.sample("hn", n, rng)
    ts = scale * np.arange(k)
    mats = [X0 + t * H1 for t in ts]
    got = selectors.selector_path(selectors.hn_select_stack, mats, ts)
    want = selectors.selector_path(oracles.hn_select_by_loop, mats, ts)
    assert got.values.dtype == want.values.dtype == complex
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.values.real, [selectors.hn_select_stack(M[None])[0] for M in mats])


@pytest.mark.parametrize("bad, error, message", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitian,
     "^input is not Hermitian within tolerance$"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), DimensionMismatch,
     "^matrix entries must be finite$"),
])
def test_stacked_hn_path_fails_as_the_one_matrix_call(bad, error, message):
    # a failed stacked call falls back to one matrix at a time: the bare message
    mats = [np.eye(2)] * 3 + [bad] + [np.eye(2)]
    for select in (selectors.hn_select_stack, oracles.hn_select_by_loop):
        with pytest.raises(error, match=message):
            selectors.selector_path(select, mats)


def test_hn_select_is_lipschitz_along_paths():
    rng = np.random.default_rng(54)
    X = spaces.sample("hn", 4, rng)
    H = spaces.sample("hn", 4, rng)
    H /= core.opnorm(H)
    prev = selectors.hn_select_stack(X[None])[0]
    for k in range(1, 100):
        Y = X + 1e-2 * k * H
        cur = selectors.hn_select_stack(Y[None])[0]
        assert abs(cur - prev) <= 1e-2 + 1e-9  # eigenvalue perturbation bound
        prev = cur
