"""specshrink benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see ``BENCHMARK.json`` for why each exists):

* ``suite``: ``acceptance.run_acceptance`` on one seed, repeated;
* ``scale``: a dimension sweep n = 2..8 through shrinkers, the involution,
  preserver classification and monodromy;
* ``cli``: every subcommand but ``all`` in process through ``cli.main``,
  including five bad inputs the contract says must exit 2.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
and traced passes of the same inputs and reports per-module metrics from
spans recorded around every library call, plus the tracing overhead.
``--workload all`` runs each workload in its own process and prints every
metric of each.  The last line of standard output is one JSON object; the
full record, with the host description, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("suite", "scale", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

# per-module metrics named in BENCHMARK.json
TRACED_FUNCTIONS = {
    "core": ("opnorm", "as_matrix", "spectrum", "eig_decompose", "char_poly",
             "spectrum_match_distance", "kernel", "polar_decompose"),
    "spaces": ("sample", "haar_unitary", "special_unitary", "bounded_conjugator"),
    "shrinkers": ("canonical_shrinker", "verify_shrinker"),
    "selectors": ("su_select", "su_representative", "monodromy_xz", "selector_path"),
    "configspace": ("verify_cycle_decomposition", "classify_component", "compose"),
    "calculus": ("apply_function", "lagrange_apply"),
    "theta": ("theta", "theta_decompose"),
    "reconstruct": ("psi", "classify_preserver"),
}
CRITERIA = ("powerlaw", "degenerate", "su_selector", "monodromy", "configspace",
            "calculus", "dichotomy", "theta", "reconstruct")
SUBCOMMANDS = ("verify", "select", "monodromy", "configspace", "calculus", "theta",
               "reconstruct")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def percentile(values, p):
    """``p``-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def supported_percentile(count: int) -> str:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    best = "none"
    for p in (50, 90, 99):
        if count * (100 - p) / 100 >= 10:
            best = f"p{p}"
    return best


# ---------------------------------------------------------------------------
# host
# ---------------------------------------------------------------------------

def host_info(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {"blas": deps["blas"].get("name"), "blas_version": deps["blas"].get("version"),
                "lapack": deps["lapack"].get("name"),
                "lapack_version": deps["lapack"].get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up time: a fresh interpreter importing the package and its CLI
# ---------------------------------------------------------------------------

def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import specshrink, specshrink.cli"]
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to 50 ms
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        if i:  # the first import compiles the bytecode cache; users pay that once
            times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def make_workload(name: str, seed: int):
    import workloads
    if name == "suite":
        return workloads.SuiteWorkload(seed)
    if name == "scale":
        return workloads.ScaleWorkload(seed)
    OUT.mkdir(exist_ok=True)
    return workloads.CliWorkload(seed, OUT)


def run_one(wl, k: int, tracer=None):
    import workloads
    t0 = time.perf_counter()
    try:
        res = wl.run_pass(k, tracer)
    except Exception:  # noqa: BLE001 - a broken pass is reported, not fatal
        seconds = time.perf_counter() - t0
        res = workloads.PassResult(seconds=seconds, commands=[seconds])
        res.ops.append(workloads.Op("pass", False, note=traceback.format_exc(limit=3)))
    res.k = k
    return res


def keep_going(done: int, minimum: int, started: float, seconds: float, times) -> bool:
    """Start another pass while under the minimum, or while one more pass of
    median length still ends before the deadline."""
    if done < minimum:
        return True
    return time.perf_counter() - started + statistics.median(times) <= seconds


def run_untraced(wl, seconds: float):
    passes = []
    started = time.perf_counter()
    while keep_going(len(passes), wl.min_passes, started, seconds,
                     [p.seconds for p in passes]):
        passes.append(run_one(wl, len(passes) % wl.cycle))
    return passes


def run_traced(wl, seconds: float):
    """Untraced and traced passes of the same inputs: U, T, T, U, then T, U, ...
    Returns (untraced passes, traced passes, tracer)."""
    from tracing import Tracer
    tracer = Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    kinds = itertools.chain("UTTU", itertools.cycle("TU"))
    while keep_going(len(plain) + len(traced), 4, started, seconds,
                     [p.seconds for p in plain + traced]):
        if next(kinds) == "U":
            plain.append(run_one(wl, 0))
            continue
        tracer.pass_k = len(traced)
        tracer.install()
        try:
            traced.append(run_one(wl, 0, tracer))
        finally:
            tracer.uninstall()
    return plain, traced, tracer


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tally(passes):
    """(attempted, failed, unexpected failures) over distinct operations.

    An operation is one check or invocation on one input set: the same
    position in every pass on sub-seed ``k``.  Passes that repeat an input
    set are there for timing, so the counts depend on the seed and not on
    how many passes fit in the time.  An operation fails if one of its runs
    failed; runs that disagree are an unexpected failure, known gap or not.
    """
    from workloads import Op
    runs = {}
    for p in passes:
        for i, op in enumerate(p.ops):
            runs.setdefault((p.k, i, op.name), []).append(op)
    failed, unexpected = [], []
    for ops in runs.values():
        bad = [op for op in ops if not op.ok]
        if not bad:
            continue
        failed.append(bad[0])
        if len(bad) < len(ops):
            unexpected.append(Op(bad[0].name, False,
                                 note="passed in one pass, failed in another: " + bad[0].note))
        elif not all(op.known_gap for op in bad):
            unexpected.append(next(op for op in bad if not op.known_gap))
    return len(runs), len(failed), unexpected


def worst_margin(passes):
    per_pass = [p.worst_margin for p in passes if p.worst_margin is not None]
    return statistics.median(per_pass) if per_pass else None


def end_to_end(passes, setup):
    times = [p.seconds for p in passes]
    q1, q2, q3 = quartiles(times)
    cmds = [c for p in passes for c in p.commands]
    attempted, failed, _ = tally(passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (q2, "s"),
        "cmd_p50_ms": (1e3 * percentile(cmds, 50), "ms"),
        "cmd_p90_ms": (1e3 * percentile(cmds, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    sq1, _, sq3 = quartiles(setup)
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports, quartiles {sq1:.4f}..{sq3:.4f}",
        "pass_s": f"quartiles {q1:.4f}..{q3:.4f} over {len(times)} passes",
        "cmd_p50_ms": f"{len(cmds)} commands",
        "cmd_p90_ms": f"{len(cmds)} commands; highest percentile with >= 10 samples "
                      f"beyond it: {supported_percentile(len(cmds))}",
    }
    wm = worst_margin(passes)
    extra = {
        "fail_ratio": (failed / attempted, "ratio",
                       f"{failed} of {attempted} checks or invocations failed"),
        "worst_margin": (wm, "ratio", "largest defect/threshold of a pass, median over passes"),
    }
    return metrics, notes, extra


def per_module(plain, traced, tracer):
    from tracing import MODULES
    summaries = tracer.summary()
    per_pass = [summaries.get(k, {}) for k in range(len(traced))]

    def med(fn):
        return statistics.median(fn(s) for s in per_pass)

    metrics = {}
    for module in MODULES:
        metrics[f"{module}.self_s"] = (med(lambda s: sum(
            v["self_s"] for k, v in s.items() if k.startswith(module + "."))), "s")
    for module, fns in TRACED_FUNCTIONS.items():
        for fn in fns:
            key = f"{module}.{fn}"
            metrics[f"{key}.calls"] = (int(med(lambda s: s.get(key, {}).get("calls", 0))),
                                       "count")
            metrics[f"{key}.incl_s"] = (med(lambda s: s.get(key, {}).get("incl_s", 0.0)), "s")
    for crit in CRITERIA:
        key = f"acceptance.crit_{crit}"
        metrics[f"{key}.incl_s"] = (med(lambda s: s.get(key, {}).get("incl_s", 0.0)), "s")
    for sub in SUBCOMMANDS:
        key = f"cli.{sub}"
        metrics[f"{key}.incl_s"] = (med(lambda s: s.get(key, {}).get("incl_s", 0.0)), "s")
    metrics["cli.report_bytes"] = (statistics.median(p.report_bytes for p in traced), "B")
    wm = worst_margin(plain + traced)
    metrics["worst_margin"] = (wm if wm is not None else 0.0, "ratio")
    metrics["trace_overhead"] = (statistics.median(p.seconds for p in traced)
                                 / statistics.median(p.seconds for p in plain), "ratio")
    # the count of every traced function must repeat exactly across passes
    calls = [{k: v["calls"] for k, v in s.items()} for s in per_pass]
    repeat_ok = all(c == calls[0] for c in calls[1:])
    return metrics, repeat_ok


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    for var in THREAD_VARS:  # one thread of native code as well as of Python
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import specshrink
    if Path(specshrink.__file__).resolve().parent != (SRC / "specshrink").resolve():
        fail(f"imported specshrink from {specshrink.__file__}, not from {SRC}")

    host = host_info(args.seed)
    wl = make_workload(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host}
    print(f"host: {json.dumps(host, sort_keys=True)}")

    if args.trace:
        plain, traced, tracer = run_traced(wl, args.seconds)
        passes = plain + traced
        metrics, repeat_ok = per_module(plain, traced, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}.npz")
        notes, extra = {}, {}
        record["calls_repeat"] = repeat_ok
    else:
        setup = measure_setup()
        passes = run_untraced(wl, args.seconds)
        metrics, notes, extra = end_to_end(passes, setup)
        repeat_ok = True

    attempted, failed, unexpected = tally(passes)
    correct = not unexpected and repeat_ok

    print(f"workload {args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    for name, (value, unit, note) in extra.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit:<6} {note}")
    known = sorted({op.name for p in passes for op in p.ops if not op.ok and op.known_gap})
    if known:
        print(f"  known gaps that failed: {', '.join(known)}")
    for op in unexpected[:10]:
        print(f"  FAILED {op.name}: {op.note}", file=sys.stderr)
    if not repeat_ok:
        print("  FAILED traced call counts differ between passes of one seed", file=sys.stderr)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result)
    record["extra"] = {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in extra.items()}
    record["pass_seconds"] = [p.seconds for p in passes]
    record["failures"] = [{"op": op.name, "known_gap": op.known_gap, "note": op.note}
                          for p in passes for op in p.ops if not op.ok]
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; every metric of each, then one JSON line."""
    combined = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specshrink" / "__init__.py").is_file():
        fail(f"no specshrink sources under {SRC}; run from a source checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
