#!/usr/bin/env python3
"""Run all eight iterreg CLI commands at their default flags, then with every flag set.

    python3 scripts/cli_outputs.py SRC OUT

SRC is the ``src`` directory of the iterreg tree to run. Each command runs in
its own process with that directory on PYTHONPATH and one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), so that its outputs are byte-for-byte
reproducible; two commands run at a time. The first pass runs each command
``cmd`` with only ``--seed 0`` and ``--out``, into ``OUT/cmd/``. The second
pass runs it with every flag it reads set to a small value other than its
default (``FLAGS`` below), into ``OUT/cmd-flags/``. Both passes take about
20 s on two cores. Beside each command's files the script writes
``stdout.json`` (the summary the command prints; empty when it fails),
``stderr.txt`` and ``exit_code.json``. Two trees made from two versions
compare with ``scripts/compare_outputs.py``, or with ``diff -r`` for byte
identity.

A run is clean when it exits 0, writes nothing to stderr and prints a summary
that parses as strict JSON; Python's json prints NaN and Infinity, which are not
JSON. The script prints each fault of an unclean run, naming its directory, and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = ("solve", "certify", "semiconv", "stoptime", "bounds", "pathcmp", "matcomp",
            "tv-demo")

_SPARSE = ("--n", "30", "--p", "60", "--s", "5", "--corr", "0.3", "--y-norm", "6")
_MATCOMP = ("--d", "8", "--rank", "2", "--obs-denom", "3", "--y-norm", "6")
_NOISY = ("--delta", "0.5", "--delta", "1.5", "--replicates", "2", "--max-iter", "300",
          "--record-every", "3", "--eps", "0.9")

# every flag each command reads, at a small value other than its default
FLAGS = {
    "solve": ("--problem", "matcomp", *_MATCOMP, "--delta", "0.5", "--max-iter", "300",
              "--record-every", "3", "--eps", "0.9"),
    "certify": ("--problem", "sparse", *_SPARSE, "--max-iter", "20000"),
    "semiconv": (*_SPARSE, *_NOISY),
    "stoptime": (*_SPARSE, *_NOISY),
    "bounds": (*_SPARSE, "--delta", "0", "--delta", "0.5", "--replicates", "2",
               "--max-iter", "300", "--record-every", "3", "--bound-eps", "0.5",
               "--bound-eps", "0.8"),
    "pathcmp": ("--n", "40", "--p", "80", "--s", "6", "--corr", "0.3", "--y-norm", "6",
                "--noise", "1", "--folds", "2", "--grid-count", "6", "--grid-span", "2",
                "--lasso-tol", "1e-3", "--lasso-max-iter", "200", "--cp-iters", "30",
                "--eps", "0.9"),
    "matcomp": (*_MATCOMP, *_NOISY),
    "tv-demo": ("--p1", "4", "--p2", "5", "--obs-frac", "0.7", "--max-iter", "50000"),
}


# (directory, command, flags) of each run of the two passes
DEFAULT_RUNS = tuple((cmd, cmd, ("--seed", "0")) for cmd in COMMANDS)
FLAG_RUNS = tuple((f"{cmd}-flags", cmd, ("--seed", "1", *FLAGS[cmd])) for cmd in COMMANDS)


def run_command(src, out, name, cmd, flags):
    """Run ``iterreg cmd FLAGS`` from ``src`` into ``out/name``; return its exit code."""
    target = out / name
    target.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    # a relative --out keeps the paths in messages the same across output trees
    done = subprocess.run(
        [sys.executable, "-m", "iterreg.cli", cmd, *flags, "--out", name],
        cwd=out, env=env, capture_output=True, text=True, check=False)
    (target / "stdout.json").write_text(done.stdout)
    (target / "stderr.txt").write_text(done.stderr)
    (target / "exit_code.json").write_text(json.dumps({"exit_code": done.returncode}) + "\n")
    return done.returncode


def _not_json(constant):
    raise ValueError(f"it holds {constant}")


def faults(run_dir):
    """The faults of the run written to ``run_dir``, each a line naming it; none if it is clean."""
    found = []
    code = json.loads((run_dir / "exit_code.json").read_text())["exit_code"]
    if code != 0:
        found.append(f"exit code {code}")
    stderr = (run_dir / "stderr.txt").read_text()
    if stderr:
        found.append(f"wrote to stderr:\n{stderr.rstrip()}")
    try:
        json.loads((run_dir / "stdout.json").read_text(), parse_constant=_not_json)
    except ValueError as err:
        found.append(f"stdout.json is not strict JSON: {err}")
    return [f"{run_dir}: {fault}" for fault in found]


def run_and_judge(src, out, runs):
    """Run ``runs`` from ``src`` into ``out``, two at a time; return the faults of all of them."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = pool.map(lambda run: run_command(src, out, *run), runs)
        for (name, _, _), code in zip(runs, done):
            print(f"{name}: exit {code}", flush=True)
    return [fault for name, _, _ in runs for fault in faults(out / name)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="the src directory of the iterreg tree to run")
    ap.add_argument("out", type=Path, help="directory to write the outputs to")
    args = ap.parse_args(argv)
    if not (args.src / "iterreg" / "cli.py").is_file():
        ap.error(f"{args.src} holds no iterreg package")
    runs = DEFAULT_RUNS + FLAG_RUNS
    found = run_and_judge(args.src.resolve(), args.out, runs)
    for fault in found:
        print(fault)
    print(f"{len(runs)} runs; faults: {len(found)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
