import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from specshrink import core, reconstruct, spaces, theta
from specshrink.errors import (
    DimensionDrift,
    DimensionMismatch,
    OracleFailure,
    ResidualTooLarge,
    UnsupportedDimension,
)


def conjugator(rng, n, max_cond=20.0):
    u = spaces.sample("un", n, rng)
    v = spaces.sample("un", n, rng)
    s = max_cond ** rng.uniform(size=n)
    return (u * s) @ v.conj().T


# ---------------------------------------------------------------------------
# involutions and the subspace map
# ---------------------------------------------------------------------------

def test_involution_examples():
    W = core.span([1.0, 0.0])
    assert np.allclose(reconstruct.involution_for_subspace(W), np.diag([1.0, -1.0]))
    full = core.Subspace(np.eye(3, dtype=complex))
    assert np.allclose(reconstruct.involution_for_subspace(full), np.eye(3))


def test_involution_identities():
    rng = np.random.default_rng(200)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    W = core.Subspace(q[:, :2])
    U = reconstruct.involution_for_subspace(W)
    assert core.opnorm(U @ U - np.eye(4)) <= 1e-12
    assert core.opnorm(U - U.conj().T) <= 1e-12
    assert core.subspace_distance(core.kernel(np.eye(4) - U), W) <= 1e-10


def test_psi_identity_oracle():
    rng = np.random.default_rng(201)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    W = core.Subspace(q[:, :2])
    [out] = reconstruct.psi(lambda X: X, [W])
    assert core.subspace_distance(out, W) <= 1e-10


def test_psi_conjugation_oracle_maps_subspace():
    rng = np.random.default_rng(202)
    T0 = conjugator(rng, 4)
    phi = reconstruct.make_oracle("conjugation", T0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    W = core.Subspace(q[:, :2])
    [out] = reconstruct.psi(phi, [W])
    expected = core.Subspace.from_span(T0 @ W.basis)
    assert core.subspace_distance(out, expected) <= 1e-7


def test_psi_transpose_oracle_conjugates_lines():
    v = np.array([1.0, 1j, 0.0, 2.0])
    W = core.span(v)
    [out] = reconstruct.psi(lambda X: X.T, [W])
    assert core.subspace_distance(out, core.span(np.conj(v))) <= 1e-8


def test_psi_dimension_drift():
    rng = np.random.default_rng(203)
    U0 = spaces.sample("un", 4, rng)
    with pytest.raises(DimensionDrift):
        reconstruct.psi(lambda X: U0, [core.span([1.0, 0, 0, 0])])


def test_psi_refuses_subspaces_of_different_ambient_dimensions():
    calls = []

    def phi(X):
        calls.append(X)
        return X

    with pytest.raises(DimensionMismatch, match=r"ambient dimensions \[3, 4\] differ"):
        reconstruct.psi(phi, [core.span([1.0, 0, 0]), core.span([1.0, 0, 0, 0])])
    assert calls == []


@pytest.mark.parametrize("stacked", [False, True])
def test_psi_of_no_subspaces_yields_nothing(stacked):
    calls = []

    def phi(X):
        calls.append(X)
        return X

    phi.stacked = stacked
    assert reconstruct.psi(phi, []) == []
    assert calls == []


def test_psi_preserves_dimension_and_inclusion():
    rng = np.random.default_rng(204)
    T0 = conjugator(rng, 4)
    phi = reconstruct.make_oracle("conjugation", T0)
    for _ in range(25):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        d2 = int(rng.integers(2, 4))
        d1 = int(rng.integers(1, d2))
        inner = core.Subspace(q[:, :d1])
        outer = core.Subspace(q[:, :d2])
        im1, im2 = reconstruct.psi(phi, [inner, outer])
        assert im1.dim == d1 and im2.dim == d2
        assert core.containment_defect(im1, im2) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 5), st.integers(1, 6),
       st.sampled_from(["identity", "transpose", reconstruct.MODE_CONJUGATION,
                        reconstruct.MODE_TRANSPOSE]), st.booleans())
def test_psi_of_a_sequence_equals_one_subspace_at_a_time(seed, n, k, kind, stacked):
    rng = np.random.default_rng(seed)
    modes = (reconstruct.MODE_CONJUGATION, reconstruct.MODE_TRANSPOSE)
    oracle = reconstruct.make_oracle(kind, conjugator(rng, n) if kind in modes else None)
    phi = oracle if stacked else (lambda X: oracle(X))
    subspaces = [core.Subspace(spaces.sample("un", n, rng)[:, :int(rng.integers(0, n + 1))])
                 for _ in range(k)]
    got = reconstruct.psi(phi, subspaces)
    want = [oracles.psi_by_loop(phi, W) for W in subspaces]
    assert len(got) == k
    for g, w in zip(got, want):
        assert np.array_equal(g.basis, w.basis)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_identity():
    cls = reconstruct.reconstruct(reconstruct.make_oracle("identity"), 3, seed=0)
    assert cls.mode == reconstruct.MODE_CONJUGATION
    assert reconstruct.projective_distance(cls.matrix, np.eye(3)) <= 1e-8
    assert cls.residual <= 1e-8


def test_reconstruct_transpose():
    cls = reconstruct.reconstruct(reconstruct.make_oracle("transpose"), 3, seed=0)
    assert cls.mode == reconstruct.MODE_TRANSPOSE
    assert reconstruct.projective_distance(cls.matrix, np.eye(3)) <= 1e-7
    assert cls.residual <= 1e-7


@pytest.mark.parametrize("mode", [reconstruct.MODE_CONJUGATION,
                                  reconstruct.MODE_TRANSPOSE])
def test_reconstruct_round_trip(mode):
    rng = np.random.default_rng(205)
    for _ in range(5):
        T0 = conjugator(rng, 3)
        cls = reconstruct.reconstruct(reconstruct.make_oracle(mode, T0), 3, seed=1)
        assert cls.mode == mode
        assert reconstruct.projective_distance(cls.matrix, T0) <= 1e-6


def test_reconstruct_scalar_invariance():
    rng = np.random.default_rng(206)
    T0 = conjugator(rng, 3)
    a = reconstruct.reconstruct(reconstruct.make_oracle("conjugation", T0), 3, seed=2)
    b = reconstruct.reconstruct(
        reconstruct.make_oracle("conjugation", (2.0 - 1.0j) * T0), 3, seed=2)
    assert core.opnorm(a.matrix - b.matrix) <= 1e-8


def test_reconstruct_normalization():
    rng = np.random.default_rng(207)
    T0 = conjugator(rng, 3)
    cls = reconstruct.reconstruct(reconstruct.make_oracle("conjugation", T0), 3, seed=0)
    flat = np.abs(cls.matrix).ravel()
    top = cls.matrix.ravel()[int(np.argmax(flat))]
    assert top == pytest.approx(1.0)


def test_reconstruct_requires_n3():
    with pytest.raises(UnsupportedDimension):
        reconstruct.reconstruct(reconstruct.make_oracle("identity"), 2)


# ---------------------------------------------------------------------------
# torus conjugator
# ---------------------------------------------------------------------------

def test_torus_identity():
    T = reconstruct.torus_conjugator(reconstruct.make_oracle("identity"),
                                     np.eye(3), seed=0)
    # determined up to a diagonal factor; identity oracle gives a diagonal T
    off = T - np.diag(np.diagonal(T))
    assert core.opnorm(off) <= 1e-8


def test_torus_conjugation_oracle():
    rng = np.random.default_rng(208)
    T0 = conjugator(rng, 3)
    phi = reconstruct.make_oracle("conjugation", T0)
    TG = reconstruct.torus_conjugator(phi, np.eye(3), seed=0)
    # validation already enforces the residual; re-check on a fresh element
    u = np.exp(2j * np.pi * np.array([0.12, 0.45, 0.78]))
    X = np.diag(u)
    lhs = phi(X)
    rhs = TG @ X @ np.linalg.inv(TG)
    assert core.opnorm(lhs - rhs) <= 1e-8 * core.opnorm(lhs)


def test_torus_permutation_oracle():
    sigma = np.eye(3)[[1, 2, 0]]  # permutation matrix

    def phi(X):
        return sigma @ X @ sigma.T

    TG = reconstruct.torus_conjugator(phi, np.eye(3), seed=0)
    # the recovered matrix is the permutation up to a diagonal factor
    D = sigma.T @ TG
    assert core.opnorm(D - np.diag(np.diagonal(D))) <= 1e-8


def test_torus_rejects_wrong_form():
    bump = np.triu(np.ones((3, 3)), 1)

    def phi(X):
        return X + 0.1 * bump

    with pytest.raises(ResidualTooLarge):
        reconstruct.torus_conjugator(phi, np.eye(3), seed=0)


def test_torus_general_defining_matrix():
    rng = np.random.default_rng(209)
    S = spaces.sample("un", 3, rng)
    T0 = conjugator(rng, 3)
    phi = reconstruct.make_oracle("conjugation", T0)
    TG = reconstruct.torus_conjugator(phi, S, seed=0)
    u = np.exp(2j * np.pi * np.array([0.05, 0.5, 0.9]))
    X = S @ np.diag(u) @ S.conj().T
    assert core.opnorm(phi(X) - TG @ X @ np.linalg.inv(TG)) <= 1e-7


# ---------------------------------------------------------------------------
# lattice compatibility
# ---------------------------------------------------------------------------

def test_lattice_check_identity_and_conjugation():
    rng = np.random.default_rng(210)
    assert reconstruct.lattice_compat_check(reconstruct.make_oracle("identity"),
                                            4, trials=10, seed=0)
    T0 = conjugator(rng, 4)
    assert reconstruct.lattice_compat_check(
        reconstruct.make_oracle("conjugation", T0), 4, trials=10, seed=0)


def test_lattice_check_rejects_corrupted_oracle():
    rng = np.random.default_rng(211)
    U0 = spaces.sample("un", 4, rng)
    calls = {"k": 0}

    def corrupted(X):
        calls["k"] += 1
        if calls["k"] % 5 == 0:
            return U0
        return X

    assert not reconstruct.lattice_compat_check(corrupted, 4, trials=10, seed=0)


def test_lattice_check_calls_a_stacked_map_once_per_trial():
    identity = reconstruct.make_oracle("identity")
    shapes = []

    def counting(X):
        shapes.append(np.shape(X))
        return identity(X)

    counting.stacked = True
    assert reconstruct.lattice_compat_check(counting, 4, trials=7, seed=0)
    # W + W', W and W' in one call
    assert shapes == [(3, 4, 4)] * 7


def test_lattice_check_calls_a_plain_map_once_per_subspace():
    shapes = []

    def plain(X):
        shapes.append(np.shape(X))
        return X

    assert reconstruct.lattice_compat_check(plain, 4, trials=7, seed=0)
    assert shapes == [(4, 4)] * 21
    # a map whose Psi(W + W') drifts is called on W + W', W and W' before
    # the drift is found
    U0 = spaces.sample("un", 4, np.random.default_rng(218))
    calls = []

    def drifting(X):
        calls.append(X)
        return U0

    assert not reconstruct.lattice_compat_check(drifting, 4, trials=7, seed=0)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", ["un", "nn", "gln_ss", "sln_ss"])
def test_classify_round_trip(space):
    rng = np.random.default_rng(212)
    T0 = conjugator(rng, 3)
    for mode in (reconstruct.MODE_CONJUGATION, reconstruct.MODE_TRANSPOSE):
        cls = reconstruct.classify_preserver(
            reconstruct.make_oracle(mode, T0), space, 3, seed=3)
        assert cls.mode == mode
        assert reconstruct.projective_distance(cls.matrix, T0) <= 1e-6
        assert cls.residual <= 1e-6


def test_a_nan_residual_fails_validation(monkeypatch):
    # a residual that could not be computed is refused, as a large one is
    identity = reconstruct.make_oracle("identity")
    monkeypatch.setattr(reconstruct, "_worst_residual", lambda *args: np.nan)
    with pytest.raises(ResidualTooLarge, match="^validation residual nan"):
        reconstruct.reconstruct(identity, 3)
    with pytest.raises(ResidualTooLarge, match="^torus validation residual nan"):
        reconstruct.torus_conjugator(identity, np.eye(3), seed=0)
    # only the full-space stage, which starts from the basis stage's worst, reads NaN
    monkeypatch.setattr(reconstruct, "_worst_residual",
                        lambda phi, form, draws, worst=None: 0.0 if worst is None else np.nan)
    with pytest.raises(ResidualTooLarge, match="^full-space validation residual nan"):
        reconstruct.classify_preserver(identity, "un", 3)


def test_classify_rejects_involution():
    with pytest.raises(ResidualTooLarge) as info:
        reconstruct.classify_preserver(theta.theta, "gln_ss", 3, seed=0)
    assert info.value.residual is not None and info.value.residual > 1e-3


def test_classify_guards():
    with pytest.raises(ValueError):
        reconstruct.classify_preserver(lambda X: X, "hn", 3)
    with pytest.raises(UnsupportedDimension):
        reconstruct.classify_preserver(lambda X: X, "un", 2)
    with pytest.raises(UnsupportedDimension):
        reconstruct.classify_preserver(lambda X: X, "sln_ss", 4)
    # no validation sample would pass the exotic involution unchecked
    with pytest.raises(ValueError):
        reconstruct.classify_preserver(theta.theta, "gln_ss", 3, validation_samples=0)
    # no trial would pass a map that breaks the lattice operations unchecked
    with pytest.raises(ValueError):
        reconstruct.lattice_compat_check(lambda X: X * 0 + 1, 4, trials=0)


@pytest.mark.parametrize("n", [0, 1])
def test_lattice_check_needs_two_dimensions(n):
    # no proper nonzero subspace exists: refused before any draw or oracle call
    calls = []
    with pytest.raises(UnsupportedDimension, match="^the lattice check needs n >= 2"):
        reconstruct.lattice_compat_check(lambda X: calls.append(X) or X, n)
    assert calls == []


def test_classify_spaces_equals_one_call_per_space(monkeypatch):
    rng = np.random.default_rng(214)
    T0 = conjugator(rng, 3)
    names = ["un", "nn", "gln_ss", "sln_ss"]
    for mode in (reconstruct.MODE_CONJUGATION, reconstruct.MODE_TRANSPOSE):
        phi = reconstruct.make_oracle(mode, T0)
        want = [reconstruct.classify_preserver(phi, space, 3, seed=5) for space in names]
        stages = []
        reconstruct_once = reconstruct.reconstruct

        def counting_reconstruct(*args, **kwargs):
            stages.append(kwargs["validation_space"])
            return reconstruct_once(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(reconstruct, "reconstruct", counting_reconstruct)
            got = reconstruct.classify_spaces(phi, names, 3, seed=5)
        assert stages == ["un", "sun"]
        for g, w in zip(got, want):
            assert np.array_equal(g.matrix, w.matrix)
            assert g.mode == w.mode == mode
            assert g.residual == w.residual


def test_classify_spaces_raises_as_the_first_failing_space():
    with pytest.raises(ResidualTooLarge) as got:
        reconstruct.classify_spaces(theta.theta, ["gln_ss", "un"], 3, seed=0)
    with pytest.raises(ResidualTooLarge) as want:
        reconstruct.classify_preserver(theta.theta, "gln_ss", 3, seed=0)
    assert str(got.value) == str(want.value)
    assert got.value.residual == want.value.residual
    with pytest.raises(UnsupportedDimension):
        reconstruct.classify_spaces(lambda X: X, ["un", "sln_ss"], 4)


def test_worst_residual_and_conjugate_on_stacks_equal_the_loop():
    rng = np.random.default_rng(216)
    T0 = conjugator(rng, 4)
    # complex and real draws: a real input is normed as a complex matrix
    draws = [spaces.sample(spaces.SpaceId.GLN_SS, 4, rng) for _ in range(6)]
    draws.append(rng.standard_normal((4, 4)))
    for mode in (reconstruct.MODE_CONJUGATION, reconstruct.MODE_TRANSPOSE):
        stacked = reconstruct.conjugate(T0, np.stack(draws), mode)
        assert np.array_equal(stacked, [reconstruct.conjugate(T0, X, mode) for X in draws])
        phi = reconstruct.make_oracle(mode, T0)
        for form, worst in ((lambda X: reconstruct.conjugate(T0, X), 0.0),
                            (lambda X: reconstruct.conjugate(T0, X, mode), 0.0),
                            (lambda X: reconstruct.conjugate(T0, X, mode), 1.0)):
            # the stacked oracle takes the stack in one call, any other map
            # one matrix at a time; both give the loop's residual
            got = reconstruct._worst_residual(phi, form, np.stack(draws), worst)
            assert got == oracles.worst_residual_by_loop(phi, form, draws, worst)
            plain = reconstruct._worst_residual(lambda X: phi(X), form, np.stack(draws), worst)
            assert plain == got
    assert reconstruct._worst_residual(phi, form, np.empty((0, 4, 4)), 0.5) == 0.5


def test_determinant_safe_draws_share_the_budget(monkeypatch):
    # -I_3 has determinant -1, where the principal root extension is undefined
    script = iter(())
    drawn = []

    def scripted_sample_stack(space, n, k, rng):
        assert space is spaces.SpaceId.GLN_SS
        drawn.append(k)
        return np.stack([np.eye(n) if next(script) else -np.eye(n) for _ in range(k)])

    monkeypatch.setattr(spaces, "sample_stack", scripted_sample_stack)
    for k in (1, 3, 7):
        script, drawn = iter([False] * 2 * spaces.MAX_TRIES), []
        with pytest.raises(UnsupportedDimension):
            reconstruct._gl_star_ss_sample(np.random.default_rng(0), 3, k)
        assert sum(drawn) == spaces.MAX_TRIES
        # and each output slot has a budget of its own
        script, drawn = iter(([False] * (spaces.MAX_TRIES - 1) + [True]) * k), []
        got = reconstruct._gl_star_ss_sample(np.random.default_rng(0), 3, k)
        assert np.array_equal(got, np.stack([np.eye(3)] * k))
        assert sum(drawn) == k * spaces.MAX_TRIES


def test_classification_apply():
    rng = np.random.default_rng(213)
    T0 = conjugator(rng, 3)
    cls = reconstruct.classify_preserver(
        reconstruct.make_oracle("conjugation", T0), "un", 3, seed=0)
    U = spaces.sample("un", 3, rng)
    assert core.opnorm(cls.apply(U) - T0 @ U @ np.linalg.inv(T0)) <= 1e-8


# ---------------------------------------------------------------------------
# stacked oracles
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 5),
       st.sampled_from(["identity", "transpose", reconstruct.MODE_CONJUGATION,
                        reconstruct.MODE_TRANSPOSE, "theta"]))
def test_stacked_oracles_equal_each_matrix(seed, n, k, kind):
    rng = np.random.default_rng(seed)
    modes = (reconstruct.MODE_CONJUGATION, reconstruct.MODE_TRANSPOSE)
    T0 = conjugator(rng, n) if kind in modes else None
    phi = reconstruct.make_oracle(kind, T0)
    assert phi.stacked
    X = spaces.sample_stack("gln_ss", n, k, rng)
    assert np.array_equal(phi(X), np.stack([phi(x) for x in X]))


def test_a_map_without_the_attribute_sees_one_matrix_per_call():
    rng = np.random.default_rng(217)
    stacked = reconstruct.make_oracle(reconstruct.MODE_TRANSPOSE, conjugator(rng, 3))
    shapes = []

    def plain(X):
        shapes.append(np.shape(X))
        return stacked(X)

    names = ["un", "nn", "gln_ss", "sln_ss"]
    want = reconstruct.classify_spaces(plain, names, 3, validation_samples=7, seed=4)
    # 2n probe lines and 7 validation samples per stage (un, sun), then 7 per
    # space and 7 more through the determinant-root extension
    assert shapes == [(3, 3)] * (2 * (6 + 7) + 4 * 7 + 7)
    got = reconstruct.classify_spaces(stacked, names, 3, validation_samples=7, seed=4)
    for g, w in zip(got, want):
        assert np.array_equal(g.matrix, w.matrix)
        assert (g.mode, g.residual) == (w.mode, w.residual)


def test_stacked_rejection_equals_the_loop():
    with pytest.raises(ResidualTooLarge) as got:
        reconstruct.classify_preserver(theta.theta, "gln_ss", 3, seed=1)
    with pytest.raises(ResidualTooLarge) as want:
        reconstruct.classify_preserver(lambda X: theta.theta(X), "gln_ss", 3, seed=1)
    assert str(got.value) == str(want.value)
    assert got.value.residual == want.value.residual


def test_probe_lines_raise_in_order():
    # every probe line goes to the oracle before any kernel is tested: an
    # oracle that drifts on the first probe line and raises on a later one
    # is reported as failing, and one that only drifts, after all 2n calls
    calls = []

    def failing(X):
        calls.append(X)
        if len(calls) > 1:
            raise RuntimeError("later probe")
        return np.eye(3)

    with pytest.raises(OracleFailure, match="later probe"):
        reconstruct.reconstruct(failing, 3)
    assert len(calls) == 2
    calls.clear()

    def drifting(X):
        calls.append(X)
        return np.eye(3)

    with pytest.raises(DimensionDrift):
        reconstruct.reconstruct(drifting, 3)
    assert len(calls) == 6


@pytest.mark.parametrize("entry", [
    lambda phi: reconstruct.psi(phi, [core.span(np.eye(3)[:, 0])]),
    lambda phi: reconstruct.classify_preserver(phi, "un", 3),
    lambda phi: reconstruct.lattice_compat_check(phi, 3),
    lambda phi: reconstruct.torus_conjugator(phi, np.eye(3)),
], ids=["psi", "classify_preserver", "lattice_compat_check", "torus_conjugator"])
def test_an_oracle_output_of_the_wrong_size_fails_on_the_first_call(entry):
    calls = []

    def small(X):
        calls.append(X)
        return np.eye(2)

    with pytest.raises(DimensionMismatch, match=r"^oracle output is \(2, 2\), expected \(3, 3\)$"):
        entry(small)
    assert len(calls) == 1


def test_probe_lines_of_a_stacked_map_raise_in_order():
    # all 2n probe lines go to a stacked map in one call, which fails as one
    # call; the drift of an oracle that does not fail is found after it
    calls = []

    def failing(X):
        calls.append(np.shape(X))
        raise RuntimeError("later probe")

    def drifting(X):
        calls.append(np.shape(X))
        return np.broadcast_to(np.eye(3), np.shape(X))

    failing.stacked = drifting.stacked = True
    with pytest.raises(OracleFailure, match="later probe"):
        reconstruct.reconstruct(failing, 3)
    with pytest.raises(DimensionDrift):
        reconstruct.reconstruct(drifting, 3)
    assert calls == [(6, 3, 3)] * 2
