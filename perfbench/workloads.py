"""The three benchmark workloads: one pass of each, with its correctness gate.

A pass returns a :class:`PassResult`: the checks it made, each with
whether it passed and its defect/threshold ratio, and the latency of each
command it issued.  Inputs come only from the integer seed handed to the
pass; the library receives the generated inputs and nothing else.  Every
library call goes through the module attribute
(``shrinkers.verify_shrinker``, not a bound name) so that the traced run
sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from specshrink import acceptance, cli, core, reconstruct, selectors, shrinkers, theta

# Thresholds pinned by the acceptance suite (criteria 1, 2, 5, 9 and 10).
POWERLAW_TOL = 1e-7
INCLUSION_TOL = 1e-8
MONODROMY_TOL = 1e-6
INVOLUTION_TOL = 1e-6
PROJECTIVE_TOL = 1e-5


@dataclass
class Op:
    """One check or CLI invocation."""
    name: str
    ok: bool
    margin: float | None = None      # worst defect / threshold of its checks
    known_gap: bool = False          # a documented gap of the program, fails today
    note: str = ""


@dataclass
class PassResult:
    k: int = 0                       # input set: the sub-seed index of the pass
    seconds: float = 0.0
    ops: list[Op] = field(default_factory=list)
    commands: list[float] = field(default_factory=list)   # latency of each call, s
    report_bytes: int = 0

    @property
    def worst_margin(self) -> float | None:
        margins = [op.margin for op in self.ops if op.margin is not None]
        return max(margins) if margins else None


def sub_seed(seed: int, k: int) -> int:
    """Deterministic 32-bit seed for pass ``k`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([abs(int(seed)), int(k)]).generate_state(1)[0])


def _margin(defect, threshold) -> float | None:
    if defect is None or threshold is None or threshold <= 0:
        return None
    return float(defect) / float(threshold)


def _check(res: PassResult, name: str, fn) -> None:
    """Run ``fn() -> (ok, margin, known gap)`` as one check; an exception fails it."""
    try:
        ok, margin, gap = fn()
        note = "" if ok else "defect above threshold"
    except Exception as exc:  # noqa: BLE001 - a failing check is counted, not fatal
        ok, margin, gap, note = False, None, False, f"{type(exc).__name__}: {exc}"
    res.ops.append(Op(name, bool(ok), margin, known_gap=gap and not ok, note=note))


# ---------------------------------------------------------------------------
# suite: the acceptance suite, as `specshrink all` runs it
# ---------------------------------------------------------------------------

class SuiteWorkload:
    """Every pass runs ``acceptance.run_acceptance`` on the same seed, and every
    pass after the first must reproduce the first (criterion 11)."""

    name = "suite"
    min_passes = 2
    cycle = 1

    def __init__(self, seed: int):
        self.seed = sub_seed(seed, 0)
        self._first = None

    def run_pass(self, k: int, tracer=None) -> PassResult:
        res = PassResult()
        t0 = time.perf_counter()
        results = acceptance.run_acceptance(self.seed)
        res.seconds = time.perf_counter() - t0
        res.commands.append(res.seconds)
        res.ops += [Op(r.name, r.passed, _margin(r.defect, r.threshold),
                       note="" if r.passed else f"defect {r.defect}, threshold {r.threshold}")
                    for r in results]
        if self._first is None:
            self._first = results
        else:
            try:
                drift = acceptance.compare_runs(self._first, results)
            except ValueError as exc:
                drift, note = float("inf"), str(exc)
            else:
                note = "" if drift == 0.0 else f"compare_runs = {drift:.3e}"
            res.ops.append(Op("compare_runs", drift == 0.0, note=note))
        return res


# ---------------------------------------------------------------------------
# scale: a dimension sweep n = 2..8 through core-heavy algorithms
# ---------------------------------------------------------------------------

# The scale inputs are drawn here with numpy, not through `spaces`, so that the
# traced call counts hold only the calls under test.

def _haar(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _shrinker_conjugator(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.eye(m) + 0.25 * g / np.linalg.norm(g, 2)


def _involution_input(rng, n):
    """X = S N S^-1 with S positive definite (condition <= 4) and N normal
    with separated, invertible eigenvalues, so X lies in gln_ss."""
    q = _haar(rng, n)
    s = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=n))
    S = (q * s) @ q.conj().T
    while True:
        lam = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        d = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(d, np.inf)
        if np.abs(lam).min() > 0.3 and np.abs(lam).max() < 3.0 and d.min() > 0.1:
            break
    q2 = _haar(rng, n)
    N = (q2 * lam) @ q2.conj().T
    return S @ N @ np.linalg.inv(S), float(s.max() / s.min())


def _seeded_conjugator(rng, n, max_cond=10.0):
    u, v = _haar(rng, n), _haar(rng, n)
    s = max_cond ** rng.uniform(size=n)
    return (u * s) @ v.conj().T


class ScaleWorkload:
    """Pass ``k`` sweeps n = 2..8 on inputs drawn from sub-seed ``k``; one
    sweep is one command."""

    name = "scale"
    min_passes = 16
    cycle = 16        # distinct input sets per run, whatever the speed
    dims = range(2, 9)
    shrinker_spaces = ("gln", "un", "gln_ss")
    shrinker_samples = 16
    involution_draws = 20   # the exhaustive matching's cost varies with the draw
    classify_spaces = ("un", "gln_ss")

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self, k: int, tracer=None) -> PassResult:
        res = PassResult()
        pass_seed = sub_seed(self.seed, k)
        rng = np.random.default_rng(pass_seed)
        t0 = time.perf_counter()
        for n in self.dims:
            if tracer is not None:
                tracer.n = n
            self._dimension(res, rng, n)
        if tracer is not None:
            tracer.n = -1
        res.seconds = time.perf_counter() - t0
        res.commands.append(res.seconds)
        return res

    def _dimension(self, res, rng, n):
        m = 2 * n
        for space in self.shrinker_spaces:
            S0 = _shrinker_conjugator(rng, m)
            sample_seed = int(rng.integers(2**31))

            def verify(S0=S0, space=space, sample_seed=sample_seed):
                def phi(X):
                    return shrinkers.canonical_shrinker(X, 1, 1, S0)
                report = shrinkers.verify_shrinker(phi, space, n, m,
                                                   samples=self.shrinker_samples,
                                                   seed=sample_seed)
                inclusion_ok = report.inclusion_defect <= INCLUSION_TOL
                ok = inclusion_ok and report.powerlaw_defect <= POWERLAW_TOL
                # an absolute power-law defect above 1e-7 on a valid shrinker is
                # the documented scale gap of the check (it ignores ||X||)
                return ok, max(_margin(report.powerlaw_defect, POWERLAW_TOL),
                               _margin(report.inclusion_defect, INCLUSION_TOL)), inclusion_ok
            _check(res, f"verify_shrinker[{space},n={n}]", verify)

        draws = [_involution_input(rng, n) for _ in range(self.involution_draws)]

        def involution():
            inv = spec = 0.0
            for X, cond in draws:
                TX = theta.theta(X)
                scale = (1.0 + core.opnorm(X)) * cond ** 2
                inv = max(inv, core.opnorm(theta.theta(TX) - X) / scale)
                spec = max(spec, core.spectrum_match_distance(core.spectrum(TX),
                                                              core.spectrum(X)))
            ok = inv <= INVOLUTION_TOL and spec <= INVOLUTION_TOL
            return ok, max(inv, spec) / INVOLUTION_TOL, False
        _check(res, f"involution[gln_ss,n={n}]", involution)

        if n >= 3:
            for space in self.classify_spaces:
                T0 = _seeded_conjugator(rng, n)
                classify_seed = int(rng.integers(2**31))

                def classify(T0=T0, space=space, classify_seed=classify_seed):
                    phi = reconstruct.make_oracle(reconstruct.MODE_CONJUGATION, T0)
                    cls = reconstruct.classify_preserver(phi, space, n, seed=classify_seed)
                    dist = reconstruct.projective_distance(cls.matrix, T0)
                    ok = cls.mode == reconstruct.MODE_CONJUGATION and dist <= PROJECTIVE_TOL
                    return ok, _margin(dist, PROJECTIVE_TOL), False
                _check(res, f"classify_preserver[{space},n={n}]", classify)

        def monodromy():
            mono = selectors.monodromy_xz(n, 1.0, steps=max(64 * n, 256))
            ratio = float(np.max(np.abs(mono.ratios() - np.exp(2j * np.pi / n))))
            return (mono.is_single_cycle() and ratio <= MONODROMY_TOL,
                    ratio / MONODROMY_TOL, False)
        _check(res, f"monodromy_xz[n={n}]", monodromy)


# ---------------------------------------------------------------------------
# cli: every subcommand but `all`, in process through cli.main(argv)
# ---------------------------------------------------------------------------

def cli_invocations(seed: int, matrix_file: str, missing_file: str):
    """(label, argv, documented exit code, known contract gap) for one pass.

    The README command list at its defaults, plus `monodromy --n 6` (the
    largest report) and a conjugation oracle read from ``matrix_file``; then
    the five bad inputs that the contract says exit 2 with a JSON report.
    """
    s = str(seed)
    return [
        ("verify-gl", ["verify", "--space", "gl", "--n", "3", "--m", "6", "--pq", "1,1",
                       "--samples", "100", "--seed", s], 0, False),
        ("verify-hn", ["verify", "--space", "hn", "--n", "2", "--m", "5",
                       "--shrinker", "hn-max", "--seed", s], 0, False),
        ("select-su", ["select", "--selector", "su", "--n", "3", "--steps", "500",
                       "--step", "1e-3", "--seed", s], 0, False),
        ("monodromy-3", ["monodromy", "--n", "3", "--r", "1", "--steps", "512",
                         "--seed", s], 0, False),
        ("monodromy-6", ["monodromy", "--n", "6", "--seed", s], 0, False),
        ("configspace-5", ["configspace", "--n", "5", "--seed", s], 0, False),
        ("calculus-conj", ["calculus", "--f", "conj", "--n", "3", "--samples", "100",
                           "--seed", s], 0, False),
        ("theta-all", ["theta", "--check", "all", "--n", "3", "--samples", "100",
                       "--seed", s], 0, False),
        ("reconstruct-transpose", ["reconstruct", "--oracle", "transpose", "--space", "un",
                                   "--n", "4", "--seed", s], 0, False),
        ("reconstruct-theta", ["reconstruct", "--oracle", "theta", "--space", "gln_ss",
                               "--n", "3", "--seed", s], 1, False),
        ("reconstruct-conj", ["reconstruct", "--oracle", f"conj:{matrix_file}", "--n", "3",
                              "--seed", s], 0, False),
        ("bad-space", ["verify", "--space", "foo", "--n", "3", "--m", "6",
                       "--seed", s], 2, True),
        ("bad-pq", ["verify", "--space", "gl", "--n", "3", "--m", "6", "--pq", "1",
                    "--seed", s], 2, True),
        ("bad-f", ["calculus", "--f", "bogus", "--seed", s], 2, True),
        ("bad-steps", ["monodromy", "--n", "3", "--steps", "10", "--seed", s], 2, True),
        ("bad-matrix-file", ["reconstruct", "--oracle", f"conj:{missing_file}", "--n", "3",
                             "--seed", s], 2, True),
    ]


def invoke(argv) -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` in process; return (exit code, stdout, error).

    An uncaught exception is what a user sees as a traceback and exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a traceback is the observed outcome
            code, error = 1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


def judge_report(stdout: str, code: int):
    """(report ok, worst margin) for an emitted report, as the contract defines it."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return False, None
    if not isinstance(report, dict) or report.get("schema") != cli.SCHEMA_VERSION:
        return False, None
    if bool(report.get("passed")) != (code == 0):
        return False, None
    margins = [_margin(r.get("defect"), r.get("threshold")) for r in report.get("results", [])
               if r.get("passed")]
    margins = [m for m in margins if m is not None]
    return True, (max(margins) if margins else None)


class CliWorkload:
    """Pass ``k`` runs every invocation once with sub-seed ``k``."""

    name = "cli"
    min_passes = 16
    cycle = 16

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.missing_file = work_dir / "absent" / "T0.json"

    def _matrix_file(self, pass_seed: int) -> str:
        rng = np.random.default_rng(pass_seed)
        T0 = _seeded_conjugator(rng, 3)
        path = self.work_dir / "T0.json"
        entries = [[[float(z.real), float(z.imag)] for z in row] for row in T0]
        path.write_text(json.dumps({"n": 3, "entries": entries}))
        return str(path)

    def run_pass(self, k: int, tracer=None) -> PassResult:
        res = PassResult()
        pass_seed = sub_seed(self.seed, k)
        matrix_file = self._matrix_file(pass_seed)
        if self.missing_file.exists():
            raise RuntimeError(f"{self.missing_file} must not exist")
        cli_seed = pass_seed % 100_000
        t0 = time.perf_counter()
        for label, argv, expected, gap in cli_invocations(cli_seed, matrix_file,
                                                          str(self.missing_file)):
            t1 = time.perf_counter()
            code, stdout, error = invoke(argv)
            res.commands.append(time.perf_counter() - t1)
            res.report_bytes += len(stdout.encode())
            report_ok, margin = judge_report(stdout, code)
            ok = code == expected and report_ok
            note = "" if ok else f"exit {code} (expected {expected}){'; ' + error if error else ''}"
            res.ops.append(Op(label, ok, margin, known_gap=gap and not ok, note=note))
        res.seconds = time.perf_counter() - t0
        return res
