"""Bit-identity gate between this checkout and an earlier commit.

    python3 scripts/parity.py <parent-ref>

Exports ``<parent-ref>`` with ``git archive`` into ``.bench_build/parity/``
and runs the same record in a fresh interpreter for both trees, each
importing its own ``src/`` and ``perfbench/``:

* ``acceptance.run_acceptance(s)`` as ``to_dict()`` records, seeds 0-2;
* the report and exit code of every ``perfbench.workloads.cli_invocations``
  command on the inputs of the ``cli`` workload's passes 0-7 at seed 0,
  plus verify runs whose shrinker refuses the space (error reports).

``wall_time`` is masked, and so is each run's temporary directory in
paths.  The gate prints the first field that differs and exits 1 on any
difference, else prints the counts and ``compare_runs`` per seed and exits
0.  It is a pre-merge check for changes that claim identical results, not
part of the test suite: it takes about half a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "parity"
ACCEPTANCE_SEEDS = (0, 1, 2)
CLI_PASSES = range(8)
#: Verify runs whose shrinker raises on the space: the error report names
#: the first failing sample.
EXTRA_INVOCATIONS = (
    ("verify-su-scalar-on-gl", ["verify", "--space", "gl", "--n", "3", "--m", "6",
                                "--shrinker", "su-scalar"]),
    ("verify-hn-max-on-gl", ["verify", "--space", "gl", "--n", "2", "--m", "5",
                             "--shrinker", "hn-max"]),
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def emit(tree: Path) -> dict:
    """The record of one tree, computed in this process from its sources."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from specshrink import acceptance
    import workloads

    record = {"acceptance": {str(s): [r.to_dict() for r in acceptance.run_acceptance(s)]
                             for s in ACCEPTANCE_SEEDS},
              "cli": {}}
    with tempfile.TemporaryDirectory() as tmp:
        cli = workloads.CliWorkload(0, Path(tmp))
        for k in CLI_PASSES:
            pass_seed = workloads.sub_seed(0, k)
            matrix_file = cli._matrix_file(pass_seed)
            invocations = [(label, argv) for label, argv, *_ in workloads.cli_invocations(
                pass_seed % 100_000, matrix_file, str(cli.missing_file))]
            for label, argv in invocations + [(label, argv + ["--seed", str(k)])
                                              for label, argv in EXTRA_INVOCATIONS]:
                code, stdout, error = workloads.invoke(argv)
                try:
                    report = json.loads(stdout)
                    report.pop("wall_time", None)
                except ValueError:
                    report = stdout
                record["cli"][f"{label}@{k}"] = {"code": code, "error": error,
                                                 "report": report}
        text = json.dumps(record).replace(tmp, "<tmp>")
    return json.loads(text)


def run_tree(tree: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, __file__, "--emit", str(tree)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def first_difference(a, b, path="$"):
    """``(path, a's value, b's value)`` at the first field where ``a`` and
    ``b`` differ, else None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{path}.{key} (present on one side)", a.get(key), b.get(key)
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    # json.dumps so that NaN equals NaN and 0.0 differs from -0.0
    return None if json.dumps(a) == json.dumps(b) else (path, a, b)


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
    diff = first_difference(parent, change)
    if diff:
        path, old, new = diff
        print(f"DIFFERENT at {path}")
        print(f"  {args.parent}: {json.dumps(old)[:500]}")
        print(f"  this tree: {json.dumps(new)[:500]}")
        return 1

    sys.path.insert(0, str(ROOT / "src"))
    from specshrink.acceptance import CheckResult, compare_runs

    for s in ACCEPTANCE_SEEDS:
        runs = [[CheckResult(**r) for r in rec["acceptance"][str(s)]] for rec in (parent, change)]
        print(f"seed {s}: {len(runs[0])} acceptance results identical, "
              f"compare_runs = {compare_runs(*runs)}")
    codes = sorted({v["code"] for v in change["cli"].values()})
    print(f"{len(change['cli'])} CLI reports identical apart from wall_time "
          f"(exit codes {codes})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
