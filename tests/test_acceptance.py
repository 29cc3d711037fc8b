"""Acceptance suite: every headline criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The suite itself is shared with the ``all`` command
line subcommand, so the reported defects are identical there.
"""

import numpy as np
import pytest

import oracles
from specshrink import acceptance

SEED = 0


@pytest.fixture(scope="module")
def results():
    return acceptance.run_acceptance(seed=SEED)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_conjugation_pairs_equal_the_loop(n):
    # criterion 4's stacked (U, V U V^H) draw against one pair at a time
    stacked_rng = np.random.default_rng(n)
    loop_rng = np.random.default_rng(n)
    U, conj = acceptance._su_conjugation_pairs(stacked_rng, n, 60)
    want_U, want_conj = oracles.su_conjugation_pairs_by_loop(loop_rng, n, 60)
    assert np.array_equal(U, want_U)
    assert np.array_equal(conj, want_conj)
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state


def _criterion(results, k):
    group = [r for r in results if r.criterion == k]
    assert group, f"criterion {k} produced no checks"
    passed = all(r.passed for r in group)
    defects = [r.defect for r in group if r.defect is not None]
    worst = f" worst defect {max(defects):.3e}" if defects else ""
    print(f"criterion {k:2d} [{'PASS' if passed else 'FAIL'}] "
          f"{acceptance.CRITERION_CLAIMS[k]}:{worst}")
    return group, passed


def test_criterion_01_powerlaw(results):
    group, passed = _criterion(results, 1)
    assert {r.name.split("-", 1)[1] for r in group} == set(acceptance.POWERLAW_SPACES)
    for r in group:
        assert r.threshold == 1e-7
        assert r.defect <= r.threshold, r.name
    assert passed


def test_criterion_02_inclusion(results):
    group, passed = _criterion(results, 2)
    for r in group:
        assert r.threshold == 1e-8
        assert r.defect <= r.threshold, r.name
    assert passed


def test_criterion_03_divisibility_counterexamples(results):
    group, passed = _criterion(results, 3)
    names = {r.name for r in group}
    assert names == {"degenerate-hn-2to5", "degenerate-sun-3to4"}
    for r in group:
        assert r.defect <= 1e-8
        assert r.details["divisibility_flagged"]
    assert passed


def test_criterion_04_su_selector(results):
    group, passed = _criterion(results, 4)
    by_name = {r.name: r for r in group}
    assert by_name["su-selector-spectral"].defect <= 1e-8
    assert by_name["su-selector-conjugation-invariant"].defect <= 1e-8
    cont = by_name["su-selector-path-continuity"]
    assert cont.defect <= 0.05
    assert cont.details["paths"] == 150 and cont.details["step"] == 1e-3
    assert passed


def test_criterion_05_monodromy(results):
    group, passed = _criterion(results, 5)
    by_name = {r.name: r for r in group}
    assert by_name["monodromy-cycles"].passed
    assert by_name["monodromy-ratio"].defect <= 1e-6
    assert passed


def test_criterion_06_configspace(results):
    group, passed = _criterion(results, 6)
    by_name = {r.name: r for r in group}
    assert by_name["configspace-equivariance"].defect == 0
    assert by_name["configspace-isotropy"].defect == 0
    assert by_name["configspace-cycle-decomposition"].passed
    assert passed


def test_criterion_07_calculus(results):
    group, passed = _criterion(results, 7)
    by_name = {r.name: r for r in group}
    assert by_name["calculus-2x2-closed-form"].defect <= 1e-10
    assert by_name["calculus-interpolation-oracle"].defect <= 1e-6
    witness = by_name["calculus-blowup-witness"].details
    assert witness["norm"] >= 10.0
    assert witness["distance_to_identity"] <= 1e-2 * (1 + 1e-9)
    assert passed


def test_criterion_08_dichotomy(results):
    group, passed = _criterion(results, 8)
    by_name = {r.name: r for r in group}
    ratios = by_name["dichotomy-simple-spectrum-decay"].details["ratios"]
    assert all(r >= 5.0 for r in ratios)
    witness = by_name["dichotomy-repeated-spectrum-witness"].details
    assert witness["deviation"] >= 1.0
    assert witness["perturbation_norm"] <= 1e-4
    assert passed


def test_criterion_09_theta(results):
    group, passed = _criterion(results, 9)
    names = {r.name for r in group}
    assert names == {"theta-involution", "theta-spectrum", "theta-normal-fixing",
                     "theta-putnam-fuglede", "theta-commutativity",
                     "theta-inverse-square", "theta-calculus-route"}
    for r in group:
        assert r.defect <= 1e-6, r.name
    assert passed


def test_criterion_10_reconstruction(results):
    group, passed = _criterion(results, 10)
    by_name = {r.name: r for r in group}
    rt = by_name["reconstruct-roundtrip"]
    assert rt.defect <= 1e-5 and rt.details["mode_failures"] == 0
    sm = by_name["reconstruct-subspace-map"]
    assert sm.defect <= 1e-6 and sm.details["dimension_failures"] == 0
    assert by_name["reconstruct-lattice-compat"].passed
    assert by_name["reconstruct-rejects-involution"].details["rejected"]
    assert passed


def test_criterion_11_determinism(results):
    rerun = acceptance.run_acceptance(seed=SEED)
    worst = acceptance.compare_runs(results, rerun)
    passed = worst <= 1e-12
    print(f"criterion 11 [{'PASS' if passed else 'FAIL'}] "
          f"{acceptance.CRITERION_CLAIMS[11]}: worst relative drift {worst:.3e}")
    assert passed
