import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from specshrink import cli, core, shrinkers


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def check_schema(report, command):
    assert report["schema"] == cli.SCHEMA_VERSION
    assert report["command"] == command
    assert "seed" in report
    # the seed and each threshold are stated once, at the top and in the rows
    assert isinstance(report["config"], dict)
    assert not any(key == "seed" or key.endswith("threshold") for key in report["config"])
    assert isinstance(report["results"], list) and report["results"]
    assert "wall_time" in report
    for r in report["results"]:
        assert {"name", "claim", "passed", "defect", "threshold", "details"} <= set(r)


def test_verify_canonical(capsys):
    code, report = run_cli(capsys, [
        "verify", "--space", "gl", "--n", "3", "--m", "6",
        "--pq", "1,1", "--samples", "50", "--seed", "0"])
    assert code == 0
    check_schema(report, "verify")
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["powerlaw"]["defect"] <= 1e-7
    assert by_name["shrinking-inclusion"]["defect"] <= 1e-8


def test_verify_reports_defaults(capsys):
    code, report = run_cli(capsys, [
        "verify", "--space", "un", "--n", "2", "--m", "4", "--pq", "1,1"])
    assert code == 0
    cfg = report["config"]
    # no hidden configuration: defaults are all in the report
    assert cfg["samples"] == 100 and report["seed"] == 0
    # the results carry the defects and thresholds; the configuration does
    # not copy them
    assert "report" not in cfg
    thresholds = {r["name"]: r["threshold"] for r in report["results"]}
    assert thresholds == {"shrinking-inclusion": 1e-8, "powerlaw": 1e-7}


def readme_commands():
    """Each ``specshrink`` line of README's command list, as its arguments
    and the exit code its comment documents."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = command.split()
        assert program == "specshrink", line
        yield pytest.param(argv, 1 if "exits 1" in comment else 0, id=" ".join(argv[:3]))


@pytest.mark.parametrize("argv, code", readme_commands())
def test_readme_commands_run_as_documented_and_state_each_fact_once(capsys, argv, code):
    got, report = run_cli(capsys, argv)
    assert got == code
    check_schema(report, argv[0])
    for r in report["results"]:
        if isinstance(r["defect"], float):
            assert isinstance(r["threshold"], float), r["name"]


def test_verify_degenerate_hermitian(capsys):
    code, report = run_cli(capsys, [
        "verify", "--space", "hn", "--n", "2", "--m", "5",
        "--shrinker", "hn-max", "--samples", "30", "--seed", "0"])
    assert code == 0
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["shrinking-inclusion"]["passed"]
    assert by_name["divisibility"]["passed"]


def test_verify_usage_error_on_inconsistent_m(capsys):
    code, report = run_cli(capsys, [
        "verify", "--space", "gl", "--n", "3", "--m", "7", "--pq", "1,1"])
    assert code == 2
    check_schema(report, "verify")
    assert report["results"][0]["details"]["error"] == "ValueError"


#: Matrix files the conjugation oracle refuses: valid JSON but not a matrix
#: record, or a record that cannot conjugate 3x3 matrices.
MALFORMED_MATRIX_FILES = {
    "no-n.json": {"foo": 1},
    "list.json": [1, 2],
    "3x3-entries-for-n-2.json": {"n": 2, "entries": [[[1.0, 0.0]] * 3] * 3},
    "2x2.json": {"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    "zero-3x3.json": {"n": 3, "entries": [[[0.0, 0.0]] * 3] * 3},
    "int-beyond-float.json": {"n": 1, "entries": [[[10 ** 400, 0]]]},
    "deep.json": "[" * 200_000,  # written as is: too deep for json.dumps
}


@pytest.mark.parametrize("argv", [
    ["verify", "--space", "foo", "--n", "3", "--m", "6"],
    ["verify", "--space", "gl", "--n", "3", "--m", "6", "--pq", "1"],
    ["verify", "--space", "gl", "--n", "0", "--m", "0"],
    ["calculus", "--f", "bogus"],
    ["monodromy", "--n", "3", "--steps", "10"],
    ["reconstruct", "--oracle", "conj:no-such-dir/T0.json", "--n", "3"],
    ["reconstruct", "--oracle", "bogus", "--n", "3"],
    ["select", "--n", "0"],
    ["select", "--selector", "unlambda", "--cut", "1"],
    ["theta", "--n", "0"],
    ["configspace", "--n", "0"],
    ["monodromy", "--n", "1"],
    ["select", "--selector", "hn", "--n", "0"],
    ["select", "--n", "1"],
    ["reconstruct", "--oracle", "id", "--n", "2"],
    ["reconstruct", "--oracle", "id", "--space", "sln_ss", "--n", "4"],
    ["configspace", "--n", "50"],
    ["theta", "--check", "probe", "--n", "1"],
    ["reconstruct", "--oracle", "theta", "--space", "gln_ss", "--n", "3", "--samples", "0"],
    ["verify", "--space", "gl", "--n", "3", "--m", "6", "--shrinker", "su-scalar",
     "--samples", "0"],
    ["select", "--selector", "hn", "--steps", "-2"],
    ["configspace", "--n", "3", "--trials", "-1"],
    ["calculus", "--samples", "-1"],
    ["theta", "--samples", "0"],
    ["theta", "--check", "probe", "--scale", "-1"],
    ["calculus", "--n", "0"],
    ["select", "--step", "nan"],
    ["select", "--selector", "hn", "--step", "inf"],
    ["select", "--selector", "unlambda", "--step", "nan"],
    ["select", "--selector", "hn", "--step", "1e308"],
    ["select", "--selector", "su", "--step", "1e306"],
    ["select", "--selector", "su", "--step", "1e200"],
    ["reconstruct", "--oracle", "conj:no-n.json", "--n", "3"],
    ["reconstruct", "--oracle", "conj:list.json", "--n", "3"],
    ["reconstruct", "--oracle", "conj:3x3-entries-for-n-2.json", "--n", "3"],
    ["select", "--selector", "unlambda", "--cut", "nan,0"],
    ["select", "--selector", "unlambda", "--cut=0,-inf"],
    ["reconstruct", "--oracle", "conj:2x2.json", "--n", "3"],
    ["reconstruct", "--oracle", "conj:zero-3x3.json", "--n", "3"],
    ["calculus", "--f", "poly:nan"],
    ["select", "--selector", "unlambda", "--cut", "0,0"],
    ["reconstruct", "--oracle", "conj:int-beyond-float.json", "--n", "3"],
    ["reconstruct", "--oracle", "conj:deep.json", "--n", "3"],
    ["configspace", "--n", "-1"],
    ["verify", "--space", "gl", "--n", "3", "--m", "3", "--pq", "2,-1"],
    ["verify", "--space", "gl", "--n", "3", "--m", "6", "--pq=-1,3"],
    ["select", "--selector", "su", "--steps", "0"],
    ["monodromy", "--n", "3", "--seed", "-1"],
    ["all", "--seed", "-1"],
])
def test_usage_errors_exit_2_with_a_report(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    for name, record in MALFORMED_MATRIX_FILES.items():
        (tmp_path / name).write_text(record if isinstance(record, str) else json.dumps(record))
    code, report = run_cli(capsys, argv)
    assert code == 2
    check_schema(report, argv[0])
    assert not report["passed"]
    [result] = report["results"]
    assert result["name"] == "run" and result["details"]["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_svd_exits_1_as_a_library_failure(capsys):
    # f(T) overflows to entries that are not finite, and the SVD behind the
    # norm of its defect does not converge: a library failure, not a usage error
    code, report = run_cli(capsys, ["calculus", "--f", "poly:1e308,1e308", "--n", "3"])
    assert code == 1
    [result] = report["results"]
    assert result["details"]["error"] == "NumericalFailure"


def test_an_empty_path_is_refused_in_one_wording(capsys):
    messages = []
    for selector in ("su", "hn"):
        code, report = run_cli(capsys, ["select", "--selector", selector, "--steps", "0"])
        assert code == 2
        messages.append(report["results"][0]["details"]["message"])
    assert messages == ["a path needs at least one step, got 0"] * 2


def test_an_allocation_too_large_for_memory_exits_2_with_a_report(capsys, monkeypatch):
    # raised, not allocated: whether a huge allocation fails at once
    # depends on the host's overcommit setting
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr(shrinkers, "verify_shrinker", exhausted)
    code, report = run_cli(capsys, ["verify", "--space", "gl", "--n", "3", "--m", "6"])
    assert code == 2
    check_schema(report, "verify")
    [result] = report["results"]
    assert result["name"] == "run" and not result["passed"]
    assert result["details"] == {"error": "MemoryError", "message": "Unable to allocate 14.6 TiB"}


def test_import_leaves_scipy_unloaded():
    # scipy is imported by selectors.su_paths, by the bisection fallback of
    # core.spectrum_match_distance and by acceptance.run_acceptance before it
    # forks, each when it first runs; multiprocessing by run_acceptance alone.
    # A screened match and a theta run load neither.
    src = Path(cli.__file__).resolve().parent.parent
    probe = "\n".join([
        "import contextlib, io, sys, specshrink, specshrink.cli",
        "from specshrink import core",
        "assert core.spectrum_match_distance([0, 1j], [1.5j, 0.25]) == 0.5",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert specshrink.cli.main(['theta', '--n', '3', '--samples', '20']) == 0",
        "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')])"])
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_builds_no_parser():
    src = Path(cli.__file__).resolve().parent.parent
    probe = "import specshrink.cli as c; print(c.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"


def test_main_calls_share_the_parser_but_no_state(capsys):
    # different subcommands and defaults one after another, through one
    # parser, give the reports of calls that each build their own
    argvs = [["select", "--selector", "unlambda", "--steps", "50"],
             ["select", "--steps", "50"],
             ["configspace", "--n", "3", "--trials", "-1"],
             ["select", "--selector", "hn", "--steps", "50", "--seed", "2"],
             ["select", "--steps", "50"]]

    def runs(fresh):
        out = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            report = json.loads(capsys.readouterr().out)
            report.pop("wall_time")
            out.append((code, report))
        return out

    shared = runs(fresh=False)
    assert cli.build_parser.cache_info().currsize == 1
    assert shared == runs(fresh=True)
    assert [code for code, _ in shared] == [0, 0, 2, 0, 0]
    assert shared[1][1]["config"]["selector"] == "su"


def test_monodromy(capsys):
    code, report = run_cli(capsys, [
        "monodromy", "--n", "3", "--r", "1", "--steps", "512", "--seed", "0"])
    assert code == 0
    check_schema(report, "monodromy")
    assert all(r["passed"] for r in report["results"])
    # the parameters once, then one row of [re, im] pairs per tracked root
    path = report["config"]["path"]
    assert len(path["parameters"]) == 513
    assert np.shape(path["values"]) == (3, 513, 2)


@pytest.mark.parametrize("n, steps", [(6, 512), (9, 576)])
def test_monodromy_default_steps_meet_the_step_floor(capsys, n, steps):
    # without --steps the loop takes max(512, 64 n) steps, which the report resolves
    code, report = run_cli(capsys, ["monodromy", "--n", str(n)])
    assert code == 0
    assert report["config"]["steps"] == steps
    assert len(report["config"]["path"]["parameters"]) == steps + 1


def test_select_su(capsys):
    code, report = run_cli(capsys, [
        "select", "--selector", "su", "--n", "3", "--steps", "200", "--seed", "1"])
    assert code == 0
    check_schema(report, "select")
    assert all(r["passed"] for r in report["results"])


def test_select_su_solves_each_path_once(capsys, monkeypatch):
    # the spectral check reads the spectra the selection computed
    calls = []
    eigvals = np.linalg.eigvals

    def counting_eigvals(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    code, report = run_cli(capsys, ["select", "--selector", "su"])
    assert code == 0 and report["passed"]
    assert calls == [(501, 3, 3)]


def test_select_hn_and_unlambda(capsys):
    code, _ = run_cli(capsys, [
        "select", "--selector", "hn", "--n", "3", "--steps", "200", "--seed", "1"])
    assert code == 0
    code, report = run_cli(capsys, [
        "select", "--selector", "unlambda", "--n", "3", "--steps", "200",
        "--seed", "1", "--cut=-1,0"])
    assert code == 0
    assert all(r["passed"] for r in report["results"])


def test_configspace(capsys):
    code, report = run_cli(capsys, ["configspace", "--n", "4", "--seed", "0"])
    assert code == 0
    names = {r["name"] for r in report["results"]}
    assert {"equivariance", "isotropy", "cycle-decomposition"} <= names
    assert all(r["passed"] for r in report["results"])


def test_calculus(capsys):
    code, report = run_cli(capsys, [
        "calculus", "--f", "conj", "--n", "3", "--samples", "30", "--seed", "0"])
    assert code == 0
    assert all(r["passed"] for r in report["results"])


def test_theta_checks(capsys):
    code, report = run_cli(capsys, [
        "theta", "--check", "all", "--n", "3", "--samples", "20", "--seed", "0"])
    assert code == 0
    names = {r["name"] for r in report["results"]}
    assert names == {"involution", "pf", "commute", "ads"}
    code, report = run_cli(capsys, [
        "theta", "--check", "probe", "--n", "3", "--samples", "10",
        "--seed", "0", "--scale", "1e-3"])
    assert code == 0


def test_reconstruct_identity(capsys):
    code, report = run_cli(capsys, [
        "reconstruct", "--oracle", "id", "--space", "un", "--n", "3", "--seed", "0"])
    assert code == 0
    result = report["results"][0]
    assert result["details"]["mode"] == "conjugation"


def test_reconstruct_transpose(capsys):
    code, report = run_cli(capsys, [
        "reconstruct", "--oracle", "transpose", "--space", "un", "--n", "4",
        "--seed", "0"])
    assert code == 0
    assert report["results"][0]["details"]["mode"] == "transpose_conjugation"


def test_reconstruct_matrix_file(capsys, tmp_path):
    rng = np.random.default_rng(0)
    T0 = np.eye(3) + 0.4 * (rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
    path = tmp_path / "t0.json"
    path.write_text(json.dumps(core.matrix_to_dict(T0)))
    code, report = run_cli(capsys, [
        "reconstruct", "--oracle", f"conj:{path}", "--space", "un", "--n", "3",
        "--seed", "0"])
    assert code == 0
    got = core.matrix_from_dict(report["results"][0]["details"]["matrix"])
    from specshrink.reconstruct import projective_distance
    assert projective_distance(got, T0) <= 1e-6


def test_reconstruct_theta_negative_path(capsys):
    code, report = run_cli(capsys, [
        "reconstruct", "--oracle", "theta", "--space", "gln_ss", "--n", "3",
        "--seed", "0"])
    assert code == 1
    result = report["results"][0]
    assert not result["passed"]
    assert result["details"]["error"] == "ResidualTooLarge"
    # the measured residual is the row's defect, against the pinned threshold
    assert result["defect"] > 1e-3 and result["threshold"] == 1e-6


def test_verify_determinism_to_twelve_digits(capsys):
    argv = ["verify", "--space", "sl", "--n", "3", "--m", "6",
            "--pq", "1,1", "--samples", "30", "--seed", "5"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    for a, b in zip(first["results"], second["results"]):
        if a["defect"] is not None:
            assert abs(a["defect"] - b["defect"]) <= 1e-12 * max(abs(a["defect"]), 1e-300)


@pytest.mark.parametrize("argv, error", [
    (["monodromy", "--n", "3", "--r", "nan"], "ValueError"),
    (["monodromy", "--n", "3", "--r", "inf"], "ValueError"),
    (["monodromy", "--n", "3", "--r", "-1"], "ValueError"),
    (["theta", "--check", "all", "--n", "0"], "UnsupportedDimension"),
    (["theta", "--check", "pf", "--n", "-2"], "UnsupportedDimension"),
])
def test_bad_parameters_are_refused_before_any_numerics(capsys, argv, error):
    # the library's own check names the problem, not LAPACK or a numpy reduction
    code, report = run_cli(capsys, argv)
    assert code == 2
    [result] = report["results"]
    assert result["details"]["error"] == error


# ---------------------------------------------------------------------------
# report encoding
# ---------------------------------------------------------------------------

_floats = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308])
_strings = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u00e9\u2028", "\U0001f600"])
_numpy_scalars = (
    _floats.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.tuples(_floats, _floats).map(lambda z: np.complex128(complex(*z)))
)
_arrays = hnp.arrays(st.sampled_from([np.float64, np.complex128]),
                     hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
_leaves = (_floats | st.integers(-2**200, 2**200) | st.booleans() | st.none() | _strings
           | _numpy_scalars | _arrays)
_reports = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_strings | st.integers() | _floats, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_reports)
def test_report_encoding_equals_json_dumps(obj):
    assert cli._encode(obj) == json.dumps(oracles.jsonable_by_walk(obj), indent=2)


#: values that keep a float run on the one-join path (-0.0, 5e-324) or send
#: it back to the item walk (non-finite values, a numpy float)
_run_specials = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]) \
    | st.floats().map(np.float64)
#: items that no float run or pair run holds
_odd_items = (st.integers() | st.booleans() | st.floats(width=32).map(np.float32)
              | st.text(max_size=3)
              | st.lists(st.floats(), min_size=1, max_size=1)
              | st.lists(st.floats(), min_size=3, max_size=3))


@st.composite
def _float_runs(draw):
    """A list of finite floats or of [re, im] pairs of them, with a few
    special values planted, and sometimes one odd item."""
    pairs = draw(st.booleans())
    item = st.floats(allow_nan=False, allow_infinity=False)
    items = draw(st.lists(st.lists(item, min_size=2, max_size=2) if pairs else item,
                          min_size=1, max_size=60))
    for special in draw(st.lists(_run_specials, max_size=3)):
        i = draw(st.integers(0, len(items) - 1))
        if pairs:
            items[i][draw(st.integers(0, 1))] = special
        else:
            items[i] = special
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(_odd_items))
    return items


@settings(max_examples=150, deadline=None)
@given(_float_runs())
def test_float_run_encoding_equals_json_dumps(items):
    # at the top level and nested, where each line carries more indentation
    for obj in (items, {"paths": [{"values": items}]}):
        assert cli._encode(obj) == json.dumps(oracles.jsonable_by_walk(obj), indent=2)
