import numpy as np
import pytest

import oracles
from specshrink import core, reconstruct, spaces, theta
from specshrink.errors import (
    DimensionDrift,
    ResidualTooLarge,
    UnsupportedDimension,
)


def conjugator(rng, n, max_cond=20.0):
    u = spaces.haar_unitary(rng, n)
    v = spaces.haar_unitary(rng, n)
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
    out = reconstruct.psi(lambda X: X, W)
    assert core.subspace_distance(out, W) <= 1e-10


def test_psi_conjugation_oracle_maps_subspace():
    rng = np.random.default_rng(202)
    T0 = conjugator(rng, 4)
    phi = reconstruct.make_oracle("conjugation", T0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    W = core.Subspace(q[:, :2])
    out = reconstruct.psi(phi, W)
    expected = core.Subspace.from_span(T0 @ W.basis)
    assert core.subspace_distance(out, expected) <= 1e-7


def test_psi_transpose_oracle_conjugates_lines():
    v = np.array([1.0, 1j, 0.0, 2.0])
    W = core.span(v)
    out = reconstruct.psi(lambda X: X.T, W)
    assert core.subspace_distance(out, core.span(np.conj(v))) <= 1e-8


def test_psi_dimension_drift():
    rng = np.random.default_rng(203)
    U0 = spaces.haar_unitary(rng, 4)
    with pytest.raises(DimensionDrift):
        reconstruct.psi(lambda X: U0, core.span([1.0, 0, 0, 0]))


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
        im1 = reconstruct.psi(phi, inner)
        im2 = reconstruct.psi(phi, outer)
        assert im1.dim == d1 and im2.dim == d2
        assert core.containment_defect(im1, im2) <= 1e-6


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
    S = spaces.haar_unitary(rng, 3)
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
    U0 = spaces.haar_unitary(rng, 4)
    calls = {"k": 0}

    def corrupted(X):
        calls["k"] += 1
        if calls["k"] % 5 == 0:
            return U0
        return X

    assert not reconstruct.lattice_compat_check(corrupted, 4, trials=10, seed=0)


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
            stages.append(kwargs["validation_sampler"])
            return reconstruct_once(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(reconstruct, "reconstruct", counting_reconstruct)
            got = reconstruct.classify_spaces(phi, names, 3, seed=5)
        assert stages == [spaces.haar_unitary, spaces.special_unitary]
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
            got = reconstruct._worst_residual(phi, form, iter(draws), worst)
            assert got == oracles.worst_residual_by_loop(phi, form, draws, worst)
    assert reconstruct._worst_residual(phi, form, iter([]), 0.5) == 0.5


def test_determinant_safe_draws_share_the_budget(monkeypatch):
    # -I_3 has determinant -1, where the principal root extension is undefined
    calls = []

    def bad_sample(space, n, rng):
        calls.append(space)
        return -np.eye(n, dtype=complex)

    monkeypatch.setattr(spaces, "sample", bad_sample)
    with pytest.raises(UnsupportedDimension):
        reconstruct._gl_star_ss_sample(np.random.default_rng(0), 3)
    assert len(calls) == spaces.MAX_TRIES


def test_classification_apply():
    rng = np.random.default_rng(213)
    T0 = conjugator(rng, 3)
    cls = reconstruct.classify_preserver(
        reconstruct.make_oracle("conjugation", T0), "un", 3, seed=0)
    U = spaces.haar_unitary(rng, 3)
    assert core.opnorm(cls.apply(U) - T0 @ U @ np.linalg.inv(T0)) <= 1e-8
