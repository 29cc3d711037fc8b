"""Batch experiment runner.

Machine-readable first: every subcommand prints one JSON report to
standard output (schema version, seed, the fully resolved configuration
including defaulted values, per-check results with their thresholds),
stating each fact once, and keeps diagnostics on standard error.  Exit
codes: 0 when every requested check passed, 1 on a check failure, 2 on a
usage error; the report is emitted in every case but argparse's own
argument errors.

Each subcommand calls the same claim functions as the acceptance suite
and only picks their parameters; results are
:class:`core.CheckResult` records without a criterion number.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import acceptance, calculus, configspace, core, reconstruct, selectors, shrinkers, spaces, theta
from .core import CheckResult
from .errors import SpecshrinkError, UnsupportedDimension

SCHEMA_VERSION = 2
_INF = float("inf")


def _encode(obj, newline="\n") -> str:
    """``json.dumps(obj, indent=2)`` of ``obj`` with numpy values made plain.

    Exact builtin types are dispatched first, as the bulk of a report is
    lists of floats: a list of finite floats, or of ``[re, im]`` pairs of
    finite floats, is written by one ``join`` over ``float.__repr__`` (see
    :func:`_float_run`), and any other list item by item.  Anything else is
    converted the way numpy values are reported (arrays as lists, numpy
    scalars as Python scalars, complex values as ``[re, im]``) and encoded
    again.  ``newline`` is the line break plus the indentation of the
    enclosing level.
    """
    kind = type(obj)
    if kind is float:
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        items = _float_run(obj, inner)
        if items is None:
            items = ("," + inner).join([_encode(v, inner) for v in obj])
        return "[" + inner + items + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_encode_str(str(k)) + ": " + _encode(v, inner) for k, v in obj.items()]
        ) + newline + "}"
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, dict):
        return _encode(dict(obj), newline)
    if isinstance(obj, (list, tuple)):
        return _encode(list(obj), newline)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), newline)
    if isinstance(obj, np.bool_):
        return _encode(bool(obj))
    if isinstance(obj, (np.integer, int)):
        return _encode(int(obj))
    if isinstance(obj, (np.floating, float)):
        return _encode(float(obj))
    if isinstance(obj, (np.complexfloating, complex)):
        return _encode([float(obj.real), float(obj.imag)], newline)
    if isinstance(obj, str):
        return _encode_str(obj)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _float_run(items, newline):
    """The items of a list of exact ``float`` values, or of two-item lists
    of them, written as ``json.dumps(indent=2)`` writes them between the
    list's brackets at line break ``newline``; None for any other list and
    for one that holds a non-finite value, which the item walk spells as
    JSON does.
    """
    kinds = set(map(type, items))
    if kinds == {float}:
        text = ("," + newline).join(map(float.__repr__, items))
    elif kinds == {list} and set(map(len, items)) == {2}:
        flat = list(itertools.chain.from_iterable(items))
        if set(map(type, flat)) != {float}:
            return None
        inner = newline + "  "
        reprs = map(float.__repr__, flat)
        text = "[" + inner + (newline + "]," + newline + "[" + inner).join(
            map(("," + inner).join, zip(reprs, reprs))) + newline + "]"
    else:
        return None
    # float.__repr__ writes NaN and the infinities as nan, inf and -inf, and
    # writes no "n" for a finite value
    return None if "n" in text else text


def _emit(command, seed, config, results, started) -> int:
    passed = all(r.passed for r in results)
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "config": config,
        "results": [r.to_dict() for r in results],
        "passed": passed,
        "wall_time": time.perf_counter() - started,
    }
    sys.stdout.write(_encode(report) + "\n")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args):
    space = spaces.SpaceId.parse(args.space)
    p, q = (int(v) for v in args.pq.split(","))
    config = dict(space=space.value, n=args.n, m=args.m, pq=[p, q],
                  samples=args.samples, shrinker=args.shrinker, conjugator=args.conjugator)

    if args.shrinker == "canonical":
        if args.m != (p + q) * args.n:
            raise ValueError(f"the canonical shrinker needs m = (p + q) n, "
                             f"here {(p + q) * args.n}")
        S0 = (shrinkers.fixed_conjugator(np.random.default_rng(args.seed), args.m)
              if args.conjugator == "random" else None)
        phi = shrinkers.make_shrinker("canonical", p=p, q=q, conjugator=S0)
    else:
        phi = shrinkers.make_shrinker(args.shrinker, m=args.m)

    report = shrinkers.verify_shrinker(phi, space, args.n, args.m,
                                       samples=args.samples, seed=args.seed)
    results = [CheckResult.of(
        None, "shrinking-inclusion", shrinkers.INCLUSION_CLAIM,
        report.inclusion_defect, shrinkers.INCLUSION_TOL,
    )]
    if report.powerlaw_defect is None:
        results.append(CheckResult.of(
            None, "divisibility",
            "n does not divide m; only degenerate shrinkers can exist here",
            None, None, dict(divisible=False, n=args.n, m=args.m),
            # the canonical map has m = (p + q) n, so only a degenerate one gets here
            passed=True,
        ))
    else:
        results.append(CheckResult.of(
            None, "powerlaw", shrinkers.POWERLAW_CLAIM,
            report.powerlaw_defect, shrinkers.POWERLAW_TOL,
        ))
    return config, results


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def _cmd_select(args):
    rng = np.random.default_rng(args.seed)
    n, steps, step = args.n, args.steps, args.step
    config = dict(selector=args.selector, n=n, steps=steps, step=step)
    results = []

    if args.selector == "su":
        [path] = selectors.su_paths(rng, n, 1, steps, step)
        results.append(CheckResult.of(None, "selector-spectral",
                                      "the selected value is always an eigenvalue",
                                      path.spectral_defect, selectors.SPECTRAL_TOL))
    elif args.selector == "hn":
        X0 = spaces.sample(spaces.SpaceId.HN, n, rng)
        H1 = spaces.sample(spaces.SpaceId.HN, n, rng)
        H1 /= core.opnorm(H1)
        ts = selectors.path_parameters(steps, step)
        path = selectors.EigenPath(
            ts, selectors.hn_select_stack(X0 + ts[:, None, None] * H1).astype(complex))
    else:  # unlambda
        lam_re, lam_im = (float(v) for v in args.cut.split(","))
        lam = complex(lam_re, lam_im)
        if not (np.isfinite(lam) and lam != 0):
            raise ValueError(f"the cut must be finite and nonzero, got {args.cut!r}")
        lam /= abs(lam)
        config["cut"] = [lam.real, lam.imag]
        Q = spaces.sample(spaces.SpaceId.UN, n, rng)
        base = np.angle(lam)
        # phase paths stay in a band strictly inside the cut's complement
        th0 = base + rng.uniform(0.4, 2 * np.pi - 0.4, size=n)
        drift = rng.uniform(-0.3, 0.3, size=n)
        ts = selectors.path_parameters(steps, step)
        mats = Q @ core.diagonals(np.exp(1j * (th0 + ts[:, None] * drift))) @ Q.conj().T
        path = selectors.EigenPath(ts, selectors.un_lambda_select_stack(mats, lam))

    results.append(CheckResult.of(None, "selector-continuity",
                                  "the selection varies continuously along the path",
                                  path.max_jump, selectors.JUMP_TOL))
    config["path"] = path.to_dict()
    return config, results


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def _cmd_monodromy(args):
    # the default meets the floor of 64 n steps that monodromy_xz sets
    steps = max(512, 64 * args.n) if args.steps is None else args.steps
    config = dict(n=args.n, r=args.r, steps=steps)
    res = selectors.monodromy_xz(args.n, args.r, steps)
    results = [
        CheckResult.of(None, "monodromy-cycle",
                       "the loop induces a single n-cycle on the eigenvalues",
                       None, None, dict(permutation=list(res.permutation)),
                       passed=res.is_single_cycle()),
        CheckResult.of(None, "monodromy-ratio",
                       "each tracked root is multiplied by a primitive n-th root of unity",
                       res.ratio_defect(), selectors.MONODROMY_RATIO_TOL),
    ]
    # the parameters once, then one row per tracked root
    config["path"] = selectors.EigenPath(res.parameters, res.values.T).to_dict()
    return config, results


# ---------------------------------------------------------------------------
# configspace
# ---------------------------------------------------------------------------

def _cmd_configspace(args):
    n = args.n
    config = dict(n=n, trials=args.trials)
    eq_fail, iso_fail = configspace.classification_failures(
        np.random.default_rng(args.seed), n, args.trials)
    tol = configspace.FAILURE_TOL
    results = [CheckResult.of(
        None, "equivariance", "classification intertwines the permutation actions",
        float(eq_fail), tol, dict(exhaustive=n <= configspace.EXHAUSTIVE_MAX_N))]
    if iso_fail is not None:
        results.append(CheckResult.of(
            None, "isotropy", "component stabilizers are conjugate cyclic groups of order n",
            float(iso_fail), tol))
    if 2 <= n <= 8:
        results.append(CheckResult.of(
            None, "cycle-decomposition",
            "every transposition factors through a conjugated cyclic shift",
            None, None, passed=configspace.verify_cycle_decomposition(n)))
    return config, results


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def _cmd_calculus(args):
    fns = [calculus.named_function(args.f)]
    rng = np.random.default_rng(args.seed)
    n, samples = args.n, args.samples
    config = dict(f=args.f, n=n, samples=samples)
    results = [
        CheckResult.of(None, "closed-form-2x2",
                       "the triangular closed form matches the idempotent sum",
                       calculus.closed_form_defect(rng, samples, fns),
                       calculus.CLOSED_FORM_TOL),
        CheckResult.of(None, "interpolation-oracle",
                       "interpolating the function on the spectrum reproduces the calculus",
                       calculus.interpolation_defect(rng, n, samples, fns),
                       calculus.INTERPOLATION_TOL),
        CheckResult.of(None, "conjugation-invariance",
                       "the calculus commutes with similarity transformations",
                       calculus.conjugation_invariance_defect(rng, n, samples, fns),
                       calculus.INVARIANCE_TOL),
    ]
    return config, results


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

# --check name -> (identity in theta.identity_defects, claim)
_THETA_CHECKS = {
    "involution": ("involution", "applying the involution twice returns the input"),
    "pf": ("putnam-fuglede", "independent factorizations give the same swapped conjugation"),
    "commute": ("commutativity", "commuting inputs keep commuting images"),
    "ads": ("inverse-square",
            "on a conjugated unitary orbit the map is inverse-square conjugation"),
}


def _cmd_theta(args):
    n = args.n
    config = dict(check=args.check, n=n, samples=args.samples, scale=args.scale)
    if args.check == "probe":
        if n < 2:
            raise UnsupportedDimension("the probe needs n >= 2 for a repeated eigenvalue")
        X0 = np.diag(np.concatenate([[1.0, 1.0], 2.0 + np.arange(n - 2)])).astype(complex)
        oscillation, rejected = theta.theta_continuity_probe(
            X0, args.scale, samples=args.samples, seed=args.seed)
        results = [CheckResult.of(
            None, "probe", "empirical oscillation near a repeated spectrum (report only)",
            None, None, dict(oscillation=oscillation, scale=args.scale, rejected=rejected),
            passed=True)]
        return config, results

    checks = list(_THETA_CHECKS) if args.check == "all" else [args.check]
    defects = theta.identity_defects(np.random.default_rng(args.seed), args.samples, (n,),
                                     [_THETA_CHECKS[kind][0] for kind in checks])
    results = []
    for kind in checks:
        identity, claim = _THETA_CHECKS[kind]
        results.append(CheckResult.of(None, kind, claim, defects[identity],
                                      theta.IDENTITY_TOL))
    return config, results


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def _cmd_reconstruct(args):
    config = dict(oracle=args.oracle, space=args.space, n=args.n, samples=args.samples)
    if args.oracle.startswith("conj:"):
        T0 = core.load_matrix(args.oracle.split(":", 1)[1])
        if T0.shape[0] != args.n:
            raise ValueError(f"the conjugating matrix is {T0.shape[0]}x{T0.shape[0]}, "
                             f"not {args.n}x{args.n} as --n asks")
        if core.numerically_singular(np.linalg.svd(T0, compute_uv=False)):
            raise ValueError("the conjugating matrix is numerically singular")
        phi = reconstruct.make_oracle("conjugation", T0)
    elif args.oracle in ("id", "transpose", "theta"):
        phi = reconstruct.make_oracle(args.oracle)
    else:
        raise ValueError(f"unknown oracle {args.oracle!r}")

    claim = "the oracle is conjugation or transpose-conjugation by the reported matrix"
    try:
        cls = reconstruct.classify_preserver(
            phi, args.space, args.n,
            validation_samples=args.samples, seed=args.seed)
        results = [CheckResult.of(None, "classification", claim, cls.residual,
                                  reconstruct.RESIDUAL_TOL,
                                  dict(mode=cls.mode, matrix=core.matrix_to_dict(cls.matrix)))]
    except UnsupportedDimension:
        raise
    except SpecshrinkError as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        results = [CheckResult.of(None, "classification", claim,
                                  getattr(exc, "residual", None), reconstruct.RESIDUAL_TOL,
                                  dict(error=type(exc).__name__, message=str(exc)),
                                  passed=False)]
    return config, results


# ---------------------------------------------------------------------------
# all
# ---------------------------------------------------------------------------

def _cmd_all(args):
    outcome = acceptance.run_acceptance(seed=args.seed)
    for line in acceptance.criterion_summary(outcome):
        print(line, file=sys.stderr)
    return {}, outcome


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specshrink",
        description="Seeded verification runs for spectrum-shrinking map theory; "
                    "JSON reports on stdout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", parents=[seeded], help="shrinking inclusion and power-law checks")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pq", default="1,1", help="p,q block multiplicities")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--conjugator", choices=["identity", "random"], default="random")
    p.add_argument("--shrinker", choices=shrinkers.SHRINKER_KINDS, default="canonical")

    p = sub.add_parser("select", parents=[seeded],
                       help="continuity sweep of an eigenvalue selector")
    p.add_argument("--selector", choices=["su", "hn", "unlambda"], default="su")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--cut", default="-1,0", help="branch point re,im for unlambda")

    p = sub.add_parser("monodromy", parents=[seeded],
                       help="eigenvalue transport around the corner loop")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=None, help="default max(512, 64 n)")

    p = sub.add_parser("configspace", parents=[seeded],
                       help="circle configuration classification checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=3)

    p = sub.add_parser("calculus", parents=[seeded], help="semisimple functional calculus checks")
    p.add_argument("--f", default="conj",
                   help="conj | identity | square | sqrt-shift | poly:c0,c1,...")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("theta", parents=[seeded], help="conjugation-swap involution checks")
    p.add_argument("--check", choices=[*_THETA_CHECKS, "probe", "all"], default="all")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--scale", type=float, default=1e-3)

    p = sub.add_parser("reconstruct", parents=[seeded], help="classify a preserver oracle")
    p.add_argument("--oracle", required=True,
                   help="id | transpose | conj:<matrixfile> | theta")
    p.add_argument("--space", default="un")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=20)

    sub.add_parser("all", parents=[seeded], help="run the full acceptance suite")

    return parser


_DISPATCH = {
    "verify": _cmd_verify,
    "select": _cmd_select,
    "monodromy": _cmd_monodromy,
    "configspace": _cmd_configspace,
    "calculus": _cmd_calculus,
    "theta": _cmd_theta,
    "reconstruct": _cmd_reconstruct,
    "all": _cmd_all,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        config, results = _DISPATCH[args.command](args)
    except (SpecshrinkError, ValueError, OSError, ZeroDivisionError, MemoryError) as exc:
        # a library failure exits 1; a bad argument surfaces as one of the
        # builtin errors or as an unsupported dimension, and exits 2
        print(f"error: {exc}", file=sys.stderr)
        error = CheckResult.of(None, "run", "", None, None,
                               dict(error=type(exc).__name__, message=str(exc)), passed=False)
        _emit(args.command, args.seed, {}, [error], started)
        failed = isinstance(exc, SpecshrinkError) and not isinstance(exc, UnsupportedDimension)
        return 1 if failed else 2
    return _emit(args.command, args.seed, config, results, started)


if __name__ == "__main__":
    sys.exit(main())
