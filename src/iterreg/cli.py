"""Command-line entry point for the experiment harness.

Exit codes: 0 on success, 2 when a mathematical assumption required by a
bound or rule fails, 3 when a measured quantity violates its theoretical
bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AssumptionViolated, BoundViolation
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


def _common(parser, default_out):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=default_out, help="output directory")
    parser.add_argument("--eps", type=float, default=0.99,
                        help="step-size product sigma*tau*||X||^2")
    parser.add_argument("--max-iter", type=int, default=5000)
    parser.add_argument("--record-every", type=int, default=1)
    parser.add_argument("--delta", type=float, action="append", default=None,
                        help="noise level (repeatable)")
    parser.add_argument("--replicates", type=int, default=10)


def _problem_flags(parser, *kinds):
    """Generator flags of the named problem kinds, plus their shared --y-norm."""
    if "sparse" in kinds:
        parser.add_argument("--n", type=int, default=200)
        parser.add_argument("--p", type=int, default=500)
        parser.add_argument("--s", type=int, default=75)
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

    for name, help_ in (("solve", "run the iteration on a problem and log diagnostics"),
                        ("certify", "certify the clean saddle pair of a problem")):
        p = sub.add_parser(name, help=help_)
        _common(p, f"out/{name}")
        p.add_argument("--problem", choices=("sparse", "matcomp"), default="sparse")
        p.add_argument("--load", default=None, help="load a problem directory instead of generating")
        _problem_flags(p, "sparse", "matcomp")

    p = sub.add_parser("semiconv", help="distance curves of noisy sparse-recovery runs")
    _common(p, "out/semiconv")
    _problem_flags(p, "sparse")

    p = sub.add_parser("stoptime", help="oracle stopping time versus noise level")
    _common(p, "out/stoptime")
    _problem_flags(p, "sparse")

    p = sub.add_parser("bounds", help="check measured gap/residual against their bounds")
    _common(p, "out/bounds")
    _problem_flags(p, "sparse")
    p.add_argument("--bound-eps", type=float, action="append", default=None,
                   help="epsilon values to sweep (repeatable)")

    p = sub.add_parser("pathcmp", help="held-out error: penalty path vs iteration path")
    _common(p, "out/pathcmp")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--p", type=int, default=800)
    p.add_argument("--s", type=int, default=120)
    p.add_argument("--corr", type=float, default=0.2)
    p.add_argument("--y-norm", type=float, default=20.0)
    p.add_argument("--noise", type=float, default=4.0)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--grid-count", type=int, default=100)
    p.add_argument("--grid-span", type=float, default=3.0)
    p.add_argument("--lasso-tol", type=float, default=1e-4)
    p.add_argument("--lasso-max-iter", type=int, default=3000)
    p.add_argument("--cp-iters", type=int, default=1000)

    p = sub.add_parser("matcomp", help="semiconvergence for nuclear-norm completion")
    _common(p, "out/matcomp")
    _problem_flags(p, "matcomp")

    p = sub.add_parser("tv-demo", help="total-variation inpainting demo")
    _common(p, "out/tvdemo")
    p.add_argument("--p1", type=int, default=8)
    p.add_argument("--p2", type=int, default=8)
    p.add_argument("--obs-frac", type=float, default=0.6)

    return parser


def _spec_from_args(args, name, problem):
    return ExperimentSpec(
        name=name, out_dir=args.out, seed=args.seed, eps=args.eps,
        max_iter=args.max_iter, record_every=args.record_every,
        deltas=tuple(args.delta) if args.delta else (),
        replicates=args.replicates, problem=problem)


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
        spec = _spec_from_args(args, "tvdemo",
                               dict(p1=args.p1, p2=args.p2, obs_frac=args.obs_frac))
        spec.max_iter = max(spec.max_iter, 100_000)
        return run_tvdemo(spec)
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
    print(json.dumps(summary, indent=2, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
