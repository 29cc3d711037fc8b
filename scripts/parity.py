"""Bit-identity gate between this checkout and an earlier commit.

    python3 scripts/parity.py <parent-ref>

Exports ``<parent-ref>`` with ``git archive`` into ``.bench_build/parity/``
and runs the same record in a fresh interpreter for both trees, each
importing its own ``src/`` and ``perfbench/``:

* ``acceptance.run_acceptance(s)`` as ``to_dict()`` records, seeds 0-2;
* the raw standard output and exit code of every
  ``perfbench.workloads.cli_invocations`` command on the inputs of the
  ``cli`` workload's passes 0-7 at seed 0, plus verify runs whose shrinker
  refuses the space (error reports), the ``hn`` and ``unlambda`` selectors
  (one ``unlambda`` path long enough to cross its cut, a failing check),
  ``hn`` and ``unlambda`` paths of 2000 steps at n = 8, each selected as
  one stack, one ``su`` path of 3000 steps, which spans several selection
  blocks,
  monodromy loops at n = 2, 4, 5, 7, 8 and radii 0.5, 2 and 1e-40, at
  n = 12 and at n = 9 with radius 1e-40, configuration-space checks at
  n = 1, 2, 3, 4, 6, 7 and 8, ``gl_star`` verify
  runs, transpose reconstruction on ``sln_ss``, the theta probe, each
  single theta identity check at n = 2 and 4 and the shifted square root
  of the calculus, which that workload does not run, and ``specshrink
  all`` once at seed 0;
* the standard output of every ``demos/*.py`` script, which alone run
  ``reconstruct.torus_conjugator`` and ``lattice_compat_check`` at n = 3;
* ``core.spectrum_match_distance`` on 300 seeded pairs of spectra on the
  integer grid, n = 2-8, whose ties send most of them to the bisection
  fallback that no other input here reaches;
* ``core.char_poly`` on seeded stacks of 4 complex Gaussian matrices,
  n = 1-16, beyond the sizes that the suite and the ``verify`` reports
  reach.

Reports are compared as text, byte for byte, with only the value on the
``"wall_time"`` line masked, and each run's temporary directory in paths.
The gate prints every field that differs (for a report, its first
differing line and how many lines only each side holds), then their
count, and exits 1 on any difference; else
it prints the counts and ``compare_runs`` per seed and exits 0.  It is a
pre-merge check for changes that claim identical results, not part of
the test suite: it takes about half a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "parity"
ACCEPTANCE_SEEDS = (0, 1, 2)
CLI_PASSES = range(8)
#: Verify runs whose shrinker raises on the space (the error report names
#: the first failing sample), and the selectors, monodromy loops and
#: configuration-space sizes the workload leaves out.
EXTRA_INVOCATIONS = (
    ("verify-su-scalar-on-gl", ["verify", "--space", "gl", "--n", "3", "--m", "6",
                                "--shrinker", "su-scalar"]),
    ("verify-hn-max-on-gl", ["verify", "--space", "gl", "--n", "2", "--m", "5",
                             "--shrinker", "hn-max"]),
    ("select-hn", ["select", "--selector", "hn"]),
    ("select-unlambda", ["select", "--selector", "unlambda"]),
    # a path long enough to cross the cut: a failing continuity check
    ("select-unlambda-across-cut", ["select", "--selector", "unlambda", "--steps", "1000",
                                    "--step", "0.02"]),
    # more steps than one selection block holds: the spectral defect is
    # gathered over blocks
    ("select-su-blocks", ["select", "--selector", "su", "--n", "4", "--steps", "3000"]),
    # long paths beyond n = 3, each built and selected as one stack
    ("select-hn-8", ["select", "--selector", "hn", "--n", "8", "--steps", "2000"]),
    ("select-unlambda-8", ["select", "--selector", "unlambda", "--n", "8", "--steps", "2000"]),
    *((f"monodromy-{n}-r{r}", ["monodromy", "--n", str(n), "--r", r])
      for n in (2, 4, 5, 7, 8) for r in ("0.5", "2", "1e-40")),
    # loops above the n <= 8 the workload runs
    ("monodromy-12", ["monodromy", "--n", "12"]),
    ("monodromy-9-r1e-40", ["monodromy", "--n", "9", "--r", "1e-40"]),
    # the n <= 2 edge, small tables, the largest exhaustive n and the
    # random-permutation branch
    *((f"configspace-{n}", ["configspace", "--n", str(n)]) for n in (1, 2, 3, 4, 6, 7, 8)),
    # the det != -1 rejections of gln_star and of the sln_ss root extension,
    # repeated eigenvalues through the cluster pass, and a shifted square root
    ("verify-gl-star", ["verify", "--space", "gl_star", "--n", "3", "--m", "6"]),
    ("reconstruct-transpose-sln-ss", ["reconstruct", "--oracle", "transpose",
                                      "--space", "sln_ss", "--n", "3"]),
    ("theta-probe", ["theta", "--check", "probe"]),
    # each single identity check, which computes only its own identity
    *((f"theta-{check}-{n}", ["theta", "--check", check, "--n", str(n)])
      for check in ("involution", "pf", "commute", "ads") for n in (2, 4)),
    ("calculus-sqrt-shift", ["calculus", "--f", "sqrt-shift", "--n", "4"]),
)
#: Invocations run once, at seed 0: ``all`` runs the whole acceptance suite,
#: whose records the seeds above already compare.
ONCE_INVOCATIONS = (("all", ["all"]),)
MATCH_PAIRS = 300
CHAR_POLY_DIMS = range(1, 17)
WALL_TIME = re.compile(r'^(\s*"wall_time": ).*?(,?)$', re.MULTILINE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def emit(tree: Path) -> dict:
    """The record of one tree, computed in this process from its sources."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np
    from specshrink import acceptance, core
    import workloads

    record = {"acceptance": {str(s): [r.to_dict() for r in acceptance.run_acceptance(s)]
                             for s in ACCEPTANCE_SEEDS},
              "cli": {}}

    def run(key, argv):
        code, stdout, error = workloads.invoke(argv)
        record["cli"][key] = {"code": code, "error": error,
                              "stdout": WALL_TIME.sub(r"\1<masked>\2", stdout)}

    with tempfile.TemporaryDirectory() as tmp:
        cli = workloads.CliWorkload(0, Path(tmp))
        for k in CLI_PASSES:
            pass_seed = workloads.sub_seed(0, k)
            matrix_file = cli._matrix_file(pass_seed)
            for label, argv, *_ in workloads.cli_invocations(
                    pass_seed % 100_000, matrix_file, str(cli.missing_file)):
                run(f"{label}@{k}", argv)
            for label, argv in EXTRA_INVOCATIONS:
                run(f"{label}@{k}", argv + ["--seed", str(k)])
        for label, argv in ONCE_INVOCATIONS:
            run(f"{label}@0", argv + ["--seed", "0"])
        text = json.dumps(record).replace(tmp, "<tmp>")
    record = json.loads(text)
    record["demos"] = {}
    for demo in sorted((tree / "demos").glob("*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        record["demos"][demo.name] = out.getvalue()
    rng = np.random.default_rng(0)
    # each pair is (2 spectra, real and imaginary parts, n) grid integers
    pairs = [rng.integers(-2, 3, size=(2, 2, n)) for n in rng.integers(2, 9, MATCH_PAIRS)]
    record["match"] = [core.spectrum_match_distance(*(p[:, 0] + 1j * p[:, 1])) for p in pairs]
    # each stack is (4 matrices, real and imaginary parts, n, n) Gaussians;
    # the coefficients are kept as (real, imaginary) pairs of floats
    stacks = [rng.standard_normal((4, 2, n, n)) for n in CHAR_POLY_DIMS]
    record["char_poly"] = [core.char_poly(z[:, 0] + 1j * z[:, 1]).view(float).tolist()
                           for z in stacks]
    return record


def run_tree(tree: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, __file__, "--emit", str(tree)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def differences(a, b, path="$"):
    """Each ``(path, a's value, b's value)`` where ``a`` and ``b`` differ,
    in order; a differing string gives its first differing line and how
    many lines, counted with multiplicity, are only in each side."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                yield f"{path}.{key} (present on one side)", a.get(key), b.get(key)
            else:
                yield from differences(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif isinstance(a, str) and isinstance(b, str):
        if a != b:
            lines = list(zip(a.splitlines(), b.splitlines())) + [(a, b)]
            line, (x, y) = next((i, pair) for i, pair in enumerate(lines)
                                if pair[0] != pair[1])
            # multiset counts, linear in the report's length: a line that
            # only moved counts on neither side
            la, lb = Counter(a.splitlines()), Counter(b.splitlines())
            only_a, only_b = sum((la - lb).values()), sum((lb - la).values())
            yield (f"{path} line {line + 1} ({only_a} lines only in the first, "
                   f"{only_b} only in the second)"), x, y
    # json.dumps so that NaN equals NaN and 0.0 differs from -0.0
    elif json.dumps(a) != json.dumps(b):
        yield path, a, b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="git ref of the tree to compare against")
    parser.add_argument("--emit", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        json.dump(emit(Path(args.emit)), sys.stdout)
        return 0
    if not args.parent:
        parser.error("a parent ref is required")

    shutil.rmtree(BUILD, ignore_errors=True)
    BUILD.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(BUILD)], input=archive, check=True)

    parent, change = run_tree(BUILD), run_tree(ROOT)
    diffs = list(differences(parent, change))
    for path, old, new in diffs:
        print(f"DIFFERENT at {path}")
        print(f"  {args.parent}: {json.dumps(old)[:500]}")
        print(f"  this tree: {json.dumps(new)[:500]}")
    if diffs:
        print(f"{len(diffs)} differences")
        return 1

    sys.path.insert(0, str(ROOT / "src"))
    from specshrink.acceptance import compare_runs
    from specshrink.core import CheckResult

    for s in ACCEPTANCE_SEEDS:
        runs = [[CheckResult(**r) for r in rec["acceptance"][str(s)]] for rec in (parent, change)]
        print(f"seed {s}: {len(runs[0])} acceptance results identical, "
              f"compare_runs = {compare_runs(*runs)}")
    codes = sorted({v["code"] for v in change["cli"].values()})
    print(f"{len(change['cli'])} CLI reports byte-identical apart from the wall_time value "
          f"(exit codes {codes})")
    print(f"{len(change['demos'])} demo outputs identical")
    print(f"{len(change['match'])} bottleneck matching distances identical")
    print(f"{len(change['char_poly'])} characteristic polynomial stacks identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
