#!/usr/bin/env python3
"""Run all eight iterreg CLI commands at their default flags and seed 0.

    python3 scripts/cli_outputs.py SRC OUT

SRC is the ``src`` directory of the iterreg tree to run. Each command runs in
its own process with that directory on PYTHONPATH and one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), so that its outputs are byte-for-byte
reproducible. Command ``cmd`` writes its files to ``OUT/cmd/`` and the script
adds ``stdout.json`` (the summary the command prints; empty when it fails),
``stderr.txt`` and ``exit_code.json`` beside them. Two trees made from two
versions compare with ``scripts/compare_outputs.py``, or with ``diff -r`` for
byte identity.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("solve", "certify", "semiconv", "stoptime", "bounds", "pathcmp", "matcomp",
            "tv-demo")


def run_command(src, out, cmd):
    """Run ``iterreg cmd`` from ``src`` into ``out/cmd``; return its exit code."""
    target = out / cmd
    target.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "iterreg.cli", cmd, "--seed", "0", "--out", str(target)],
        env=env, capture_output=True, text=True, check=False)
    (target / "stdout.json").write_text(done.stdout)
    (target / "stderr.txt").write_text(done.stderr)
    (target / "exit_code.json").write_text(json.dumps({"exit_code": done.returncode}) + "\n")
    return done.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="the src directory of the iterreg tree to run")
    ap.add_argument("out", type=Path, help="directory to write the outputs to")
    args = ap.parse_args(argv)
    if not (args.src / "iterreg" / "cli.py").is_file():
        ap.error(f"{args.src} holds no iterreg package")
    src = args.src.resolve()
    for cmd in COMMANDS:
        print(f"{cmd}: exit {run_command(src, args.out, cmd)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
