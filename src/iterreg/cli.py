"""Command-line entry point for the experiment harness.

Exit codes: 0 on success, 1 on any other library error (for example a
certification failure), 2 when a mathematical assumption required by a bound
or rule fails, 3 when a measured quantity violates its theoretical bound.
Usage errors exit with 2, as argparse does.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AssumptionViolated, BoundViolation, IterRegError
from .experiments import (
    ExperimentSpec,
    run_bounds,
    run_certify,
    run_matcomp,
    run_pathcmp,
    run_semiconv,
    run_solve,
    run_stoptime,
    run_tvdemo,
)

_RUN_FLAGS = {
    "--eps": dict(type=float, default=0.99, help="step-size product sigma*tau*||X||^2"),
    "--max-iter": dict(type=int, default=5000),
    "--record-every": dict(type=int, default=1),
    "--delta": dict(type=float, action="append", default=None, help="noise level (repeatable)"),
    "--replicates": dict(type=int, default=10),
}


class _Once(argparse.Action):
    """Store the value as a one-element list; a second occurrence is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, [values])


def _common(parser, default_out, *run_flags):
    """--seed and --out, plus the named _RUN_FLAGS, which the subcommand reads."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=default_out, help="output directory")
    for flag in run_flags:
        parser.add_argument(flag, **_RUN_FLAGS[flag])


def _problem_flags(parser, *kinds, n=200, p=500, s=75):
    """Generator flags of the named problem kinds, plus their shared --y-norm."""
    if "sparse" in kinds:
        parser.add_argument("--n", type=int, default=n)
        parser.add_argument("--p", type=int, default=p)
        parser.add_argument("--s", type=int, default=s)
        parser.add_argument("--corr", type=float, default=0.2)
    if "matcomp" in kinds:
        parser.add_argument("--d", type=int, default=20)
        parser.add_argument("--rank", type=int, default=5)
        parser.add_argument("--obs-denom", type=int, default=5)
    parser.add_argument("--y-norm", type=float, default=20.0)


def _problem_params(args, kind):
    """Generator parameters of a ``kind`` problem, read from the parsed flags."""
    if kind == "sparse":
        return dict(n=args.n, p=args.p, s=args.s, corr=args.corr, y_norm=args.y_norm)
    return dict(d=args.d, r=args.rank, obs_frac_denom=args.obs_denom, y_norm=args.y_norm)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iterreg",
        description="Early-stopped primal-dual solving of convex-bias interpolation problems")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the iteration on a problem and log diagnostics")
    _common(solve, "out/solve", "--eps", "--max-iter", "--record-every")
    solve.add_argument("--delta", type=float, action=_Once, default=None, help="noise level")
    certify = sub.add_parser("certify", help="certify the clean saddle pair of a problem")
    _common(certify, "out/certify", "--max-iter")
    certify.set_defaults(max_iter=500_000)
    for p in (solve, certify):
        p.add_argument("--problem", choices=("sparse", "matcomp"), default="sparse")
        p.add_argument("--load", default=None, help="load a problem directory instead of generating")
        _problem_flags(p, "sparse", "matcomp")

    p = sub.add_parser("semiconv", help="distance curves of noisy sparse-recovery runs")
    _common(p, "out/semiconv", *_RUN_FLAGS)
    _problem_flags(p, "sparse")

    p = sub.add_parser("stoptime", help="oracle stopping time versus noise level")
    _common(p, "out/stoptime", *_RUN_FLAGS)
    _problem_flags(p, "sparse")

    p = sub.add_parser("bounds", help="check measured gap/residual against their bounds")
    _common(p, "out/bounds", "--max-iter", "--record-every", "--delta", "--replicates")
    _problem_flags(p, "sparse")
    p.add_argument("--bound-eps", type=float, action="append", default=None,
                   help="epsilon values to sweep (repeatable)")

    p = sub.add_parser("pathcmp", help="held-out error: penalty path vs iteration path")
    _common(p, "out/pathcmp", "--eps")
    _problem_flags(p, "sparse", n=400, p=800, s=120)
    p.add_argument("--noise", type=float, default=4.0)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--grid-count", type=int, default=100)
    p.add_argument("--grid-span", type=float, default=3.0)
    p.add_argument("--lasso-tol", type=float, default=1e-4)
    p.add_argument("--lasso-max-iter", type=int, default=3000)
    p.add_argument("--cp-iters", type=int, default=1000)

    p = sub.add_parser("matcomp", help="semiconvergence for nuclear-norm completion")
    _common(p, "out/matcomp", *_RUN_FLAGS)
    _problem_flags(p, "matcomp")

    p = sub.add_parser("tv-demo", help="total-variation inpainting demo")
    _common(p, "out/tvdemo", "--max-iter")
    p.set_defaults(max_iter=100_000)
    p.add_argument("--p1", type=int, default=8)
    p.add_argument("--p2", type=int, default=8)
    p.add_argument("--obs-frac", type=float, default=0.6)

    return parser


def _spec_from_args(args, name, problem):
    """The spec of the parsed flags; a run flag the subcommand lacks keeps its spec default."""
    flags = vars(args)
    given = {f: flags[f] for f in ("eps", "max_iter", "record_every", "replicates") if f in flags}
    if flags.get("delta"):
        given["deltas"] = tuple(flags["delta"])
    return ExperimentSpec(name=name, out_dir=args.out, seed=args.seed, problem=problem, **given)


def _dispatch(args):
    cmd = args.command
    if cmd in ("solve", "certify"):
        problem = {"kind": args.problem}
        problem.update({"load": args.load} if args.load else _problem_params(args, args.problem))
        spec = _spec_from_args(args, cmd, problem)
        return run_solve(spec) if cmd == "solve" else run_certify(spec)
    if cmd == "semiconv":
        return run_semiconv(_spec_from_args(args, cmd, _problem_params(args, "sparse")))
    if cmd == "stoptime":
        return run_stoptime(_spec_from_args(args, cmd, _problem_params(args, "sparse")))
    if cmd == "bounds":
        spec = _spec_from_args(args, cmd, _problem_params(args, "sparse"))
        eps_list = tuple(args.bound_eps) if args.bound_eps else (0.25, 0.5, 0.9)
        return run_bounds(spec, eps_list=eps_list)
    if cmd == "pathcmp":
        spec = _spec_from_args(args, cmd,
                               dict(_problem_params(args, "sparse"), delta=args.noise,
                                    folds=args.folds, grid_count=args.grid_count,
                                    grid_span=args.grid_span, lasso_tol=args.lasso_tol,
                                    lasso_max_iter=args.lasso_max_iter,
                                    cp_iters=args.cp_iters))
        return run_pathcmp(spec)
    if cmd == "matcomp":
        return run_matcomp(_spec_from_args(args, cmd, _problem_params(args, "matcomp")))
    if cmd == "tv-demo":
        return run_tvdemo(_spec_from_args(args, "tvdemo",
                                          dict(p1=args.p1, p2=args.p2, obs_frac=args.obs_frac)))
    raise ValueError(f"unhandled command {cmd!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        summary = _dispatch(args)
    except AssumptionViolated as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 2
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 3
    except IterRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
