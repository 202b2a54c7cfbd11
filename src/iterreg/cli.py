"""Command-line entry point for the experiment harness.

Every flag is unset unless given: a command hands its runner only the values
on its command line, and the library function that reads a value holds its
default.

Exit codes: 0 on success, 1 on any other library error (for example a
certification failure), 2 when a mathematical assumption required by a bound
or rule fails, 3 when a measured quantity violates its theoretical bound.
Usage errors exit with 2, as argparse does.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    "--eps": dict(type=float, help="step-size product sigma*tau*||X||^2"),
    "--max-iter": dict(type=int),
    "--record-every": dict(type=int),
    "--delta": dict(type=float, action="append", dest="deltas", metavar="DELTA",
                    help="noise level"),
    "--replicates": dict(type=int),
}


def _command(sub, name, help_text, *run_flags):
    """Subcommand ``name`` with --seed, --out and the named _RUN_FLAGS, all unset unless given."""
    parser = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory (default out/<experiment name>)")
    for flag in run_flags:
        parser.add_argument(flag, **_RUN_FLAGS[flag])
    return parser


def _problem_flags(parser, *kinds):
    """Generator flags of the named problem kinds, plus their shared --y-norm."""
    if "sparse" in kinds:
        for flag in ("--n", "--p", "--s"):
            parser.add_argument(flag, type=int)
        parser.add_argument("--corr", type=float)
    if "matcomp" in kinds:
        parser.add_argument("--d", type=int)
        parser.add_argument("--rank", type=int, dest="r", metavar="RANK")
        parser.add_argument("--obs-denom", type=int, dest="obs_frac_denom", metavar="OBS_DENOM")
    parser.add_argument("--y-norm", type=float)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iterreg",
        description="Early-stopped primal-dual solving of convex-bias interpolation problems")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = _command(sub, "solve", "run the iteration on a problem and log diagnostics",
                     "--eps", "--max-iter", "--record-every", "--delta")
    certify = _command(sub, "certify", "certify the clean saddle pair of a problem", "--max-iter")
    for p in (solve, certify):
        p.add_argument("--problem", choices=("sparse", "matcomp"), dest="kind")
        p.add_argument("--load", help="load a problem directory instead of generating")
        _problem_flags(p, "sparse", "matcomp")

    p = _command(sub, "semiconv", "distance curves of noisy sparse-recovery runs", *_RUN_FLAGS)
    _problem_flags(p, "sparse")

    p = _command(sub, "stoptime", "oracle stopping time versus noise level", *_RUN_FLAGS)
    _problem_flags(p, "sparse")

    p = _command(sub, "bounds", "check measured gap/residual against their bounds",
                 "--max-iter", "--record-every", "--delta", "--replicates")
    _problem_flags(p, "sparse")
    p.add_argument("--bound-eps", type=float, action="append", dest="eps_list",
                   metavar="BOUND_EPS", help="epsilon values to sweep (repeatable)")

    p = _command(sub, "pathcmp", "held-out error: penalty path vs iteration path", "--eps")
    _problem_flags(p, "sparse")
    p.add_argument("--noise", type=float, dest="delta", metavar="NOISE")
    p.add_argument("--folds", type=int)
    p.add_argument("--grid-count", type=int)
    p.add_argument("--grid-span", type=float)
    p.add_argument("--lasso-tol", type=float)
    p.add_argument("--lasso-max-iter", type=int)
    p.add_argument("--cp-iters", type=int)

    p = _command(sub, "matcomp", "semiconvergence for nuclear-norm completion", *_RUN_FLAGS)
    _problem_flags(p, "matcomp")

    p = _command(sub, "tv-demo", "total-variation inpainting demo", "--max-iter")
    p.add_argument("--p1", type=int)
    p.add_argument("--p2", type=int)
    p.add_argument("--obs-frac", type=float)

    return parser


def _spec_from_args(flags, name):
    """The spec of the given flags: those named after a spec field fill it, the rest ``problem``."""
    fields = {f.name: flags.pop(f.name) for f in dataclasses.fields(ExperimentSpec)
              if f.name in flags}
    fields.setdefault("out_dir", f"out/{name}")
    return ExperimentSpec(name=name, problem=flags, **fields)


def _dispatch(args):
    flags = dict(vars(args))
    cmd = flags.pop("command")
    eps_list = flags.pop("eps_list", None)
    spec = _spec_from_args(flags, cmd.replace("-", ""))
    if cmd == "bounds":
        return run_bounds(spec, eps_list=eps_list)
    runners = {"solve": run_solve, "certify": run_certify, "semiconv": run_semiconv,
               "stoptime": run_stoptime, "pathcmp": run_pathcmp, "matcomp": run_matcomp,
               "tv-demo": run_tvdemo}
    return runners[cmd](spec)


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
