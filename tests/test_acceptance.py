"""Acceptance suite: every headline criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The suite itself is shared with the ``all`` command
line subcommand, so the reported defects are identical there.
"""

import collections
import dataclasses
import multiprocessing
import os
import time
import types

import numpy as np
import pytest

import oracles
from specshrink import acceptance, core, reconstruct
from specshrink.errors import DimensionDrift, UnsupportedDimension

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


def test_criterion_4_solves_each_draw_stack_once(monkeypatch):
    # the spectral gaps come from the selection's own eigensolve: the 60 U
    # and the 60 conjugates of each n are solved once each, not U twice
    calls = collections.Counter()
    eigvals = np.linalg.eigvals

    def counting(A):
        if np.shape(A)[0] == 60:
            calls[np.shape(A)[1]] += 1
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    acceptance._crit_su_selector(SEED + 4)
    assert calls == {2: 2, 3: 2, 4: 2}


def _criterion(results, k):
    group = [r for r in results if r.criterion == k]
    assert group, f"criterion {k} produced no checks"
    # every row states its criterion's one claim
    assert {r.claim for r in group} == {acceptance.CRITERION_CLAIMS[k]}
    passed = all(r.passed for r in group)
    [line] = acceptance.criterion_summary(group)
    print(line)
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
    cycles = by_name["monodromy-cycles"]
    assert cycles.passed and cycles.defect is None and cycles.threshold is None
    assert by_name["monodromy-ratio"].defect <= 1e-6
    assert passed


def test_criterion_06_configspace(results):
    group, passed = _criterion(results, 6)
    by_name = {r.name: r for r in group}
    assert by_name["configspace-equivariance"].defect == 0
    assert by_name["configspace-isotropy"].defect == 0
    cycles = by_name["configspace-cycle-decomposition"]
    assert cycles.passed and cycles.defect is None and cycles.threshold is None
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
    lattice = by_name["reconstruct-lattice-compat"]
    assert lattice.passed and lattice.defect is None and lattice.threshold is None
    assert by_name["reconstruct-rejects-involution"].details["rejected"]
    assert passed


@pytest.mark.parametrize("error", [TypeError, DimensionDrift])
def test_subspace_map_counts_only_library_errors(monkeypatch, error):
    # a library error is a dimension failure of the map; any other
    # exception is a fault of the harness or the oracle and surfaces.  Only
    # the suite's own psi calls raise: reconstruct's inner ones run as before
    def psi(*args):
        raise error("injected")

    monkeypatch.setattr(acceptance, "reconstruct",
                        types.SimpleNamespace(**{**vars(reconstruct), "psi": psi}))
    if error is TypeError:
        with pytest.raises(TypeError, match="injected"):
            acceptance._crit_reconstruct(SEED)
        return
    by_name = {r.name: r for r in acceptance._crit_reconstruct(SEED)}
    sm = by_name["reconstruct-subspace-map"]
    assert sm.details["dimension_failures"] == 100 and not sm.passed


def test_criterion_11_determinism(results):
    rerun = acceptance.run_acceptance(seed=SEED)
    worst = acceptance.compare_runs(results, rerun)
    passed = worst <= 1e-12
    print(f"criterion 11 [{'PASS' if passed else 'FAIL'}] "
          f"{acceptance.CRITERION_CLAIMS[11]}: worst relative drift {worst:.3e}")
    assert passed


@pytest.mark.parametrize("a, b, want", [
    (0.5, 0.5, 0.0), (np.nan, np.nan, 0.0), (np.nan, 0.5, np.inf), (0.5, np.nan, np.inf),
    (np.inf, 0.5, np.inf), (0.5, 0.25, 0.5)])
def test_compare_runs_reads_a_one_sided_nan_as_disagreement(a, b, want):
    def run(defect, value):
        return [core.CheckResult.of(1, "check", "", defect, 1.0, {"x": 1.0}),
                core.CheckResult.of(2, "other", "", 0.0, 1.0, {"value": value})]

    assert acceptance.compare_runs(run(a, 0.0), run(b, 0.0)) == want
    assert acceptance.compare_runs(run(0.0, a), run(0.0, b)) == want


def _flip(key):
    return lambda r: {"details": {**r.details, key: not r.details[key]}}


def _doubled(key):
    return lambda r: {"details": {**r.details, key: [2 * v for v in r.details[key]]}}


@pytest.mark.parametrize("name, change, want", [
    ("dichotomy-simple-spectrum-decay", lambda r: {"passed": not r.passed}, np.inf),
    ("dichotomy-simple-spectrum-decay", _doubled("deviations"), 0.5),
    ("dichotomy-simple-spectrum-decay", _doubled("ratios"), 0.5),
    ("degenerate-hn-2to5", _flip("divisibility_flagged"), np.inf),
    ("reconstruct-rejects-involution", _flip("rejected"), np.inf),
    ("inclusion-gln", lambda r: {"details": {"trials": r.details["samples"]}}, "'samples'"),
    ("monodromy-ratio", lambda r: {"details": {"target": "exp(pi i / n)"}}, "'target'"),
], ids=["passed", "deviations", "ratios", "divisibility_flagged", "rejected",
        "renamed-key", "string"])
def test_compare_runs_sees_verdicts_lists_and_detail_names(results, name, change, want):
    # one field of one row differs: a verdict or a number in a list reads
    # as a disagreement, a renamed key or another string as another shape
    other = [dataclasses.replace(r, **change(r)) if r.name == name else r for r in results]
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"{name!r}.*{want}"):
            acceptance.compare_runs(results, other)
    else:
        assert acceptance.compare_runs(results, other) == want


# ---------------------------------------------------------------------------
# Criterion 4 in a forked child
# ---------------------------------------------------------------------------

PARENT_CRITERIA = ("_crit_powerlaw", "_crit_degenerate", "_crit_monodromy",
                   "_crit_configspace", "_crit_calculus", "_crit_dichotomy",
                   "_crit_theta", "_crit_reconstruct")
needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="no fork start method on this platform")


def test_one_cpu_runs_in_process_with_the_forked_results(results, monkeypatch):
    # the module's results took the forked route wherever it forks at all
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(acceptance, "_forked", None)  # any fork attempt fails
    serial = acceptance.run_acceptance(seed=SEED)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in results]
    assert multiprocessing.active_children() == []


@needs_fork
def test_forked_route_leaves_no_child(results):
    assert acceptance._usable_cpus() < 2 or acceptance._fork_context() is not None
    assert multiprocessing.active_children() == []


@pytest.fixture
def forking(monkeypatch):
    """The fork route on any host, with the parent's criteria made instant."""
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    for name in PARENT_CRITERIA:
        monkeypatch.setattr(acceptance, name, lambda seed, name=name: [(name, seed)])
    return monkeypatch


@needs_fork
def test_forked_results_merge_in_criterion_order(forking):
    forking.setattr(acceptance, "_crit_su_selector", lambda seed: [("child", os.getpid())])
    out = acceptance.run_acceptance(seed=2)
    assert [r[0] for r in out] == ["_crit_powerlaw", "_crit_degenerate", "child",
                                   *PARENT_CRITERIA[2:]]
    assert [r[1] for r in out if r[0] != "child"] == [2019, 2021, *range(2023, 2029)]
    assert out[2][1] != os.getpid()
    assert multiprocessing.active_children() == []


@needs_fork
def test_child_exception_reraises_in_the_parent(forking):
    def boom(seed):
        raise UnsupportedDimension("boom")

    forking.setattr(acceptance, "_crit_su_selector", boom)
    with pytest.raises(UnsupportedDimension, match="^boom$") as info:
        acceptance.run_acceptance(seed=SEED)
    assert type(info.value) is UnsupportedDimension
    cause = str(info.value.__cause__)
    assert "Traceback" in cause and "in boom" in cause and "UnsupportedDimension: boom" in cause
    assert multiprocessing.active_children() == []


@needs_fork
def test_child_that_dies_without_a_result_raises(forking):
    forking.setattr(acceptance, "_crit_su_selector", lambda seed: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        acceptance.run_acceptance(seed=SEED)
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_parent_failure_terminates_the_running_child(forking, error):
    def parent_fails(seed):
        raise error("parent")

    forking.setattr(acceptance, "_crit_su_selector", lambda seed: time.sleep(60))
    forking.setattr(acceptance, "_crit_theta", parent_fails)
    started = time.perf_counter()
    with pytest.raises(error, match="parent"):
        acceptance.run_acceptance(seed=SEED)
    assert time.perf_counter() - started < 30
    assert multiprocessing.active_children() == []
