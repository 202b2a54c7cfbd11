"""Benchmark for iterreg: run one workload for a fixed time and print its metrics.

    python3 benchmark/run.py --workload sparse-stoptime --seed 1 --seconds 20 --trace 0

Runs rounds of the workload back to back (a closed loop), each in a fresh
Python process with the BLAS thread count pinned to one, until --seconds
have passed; a round that starts always runs to its end. With --trace 0 the
last line of standard output is one JSON object with the end-to-end metrics
(medians over the rounds); with --trace 1 it holds the per-layer metrics of
traced rounds instead. The metric names and units come from BENCHMARK.json.
The full record of the run, with every round and the environment, goes to
.bench_out/results/. Exits non-zero without a result if iterreg's sources
are missing or a round crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sparse-stoptime", "tiny-certify", "matcomp-nuclear", "pathcmp")
ROUND_TIMEOUT_S = 60.0
# Thread pools of the BLAS builds numpy may load; one thread each.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_revision(root):
    """Commit of the checkout, read from .git without running git; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(workload, seed, trace, out_dir, env):
    """One round in a fresh process; returns its record with setup_s filled in."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out_dir)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round of {workload} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("t_first") - t_spawn
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "iterreg" / "__init__.py").is_file():
        raise SystemExit(f"iterreg sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_root = ROOT / ".bench_out"
    work = out_root / "work" / f"{args.workload}-{os.getpid()}"

    rounds = []
    t_start = time.monotonic()
    while not rounds or time.monotonic() - t_start < args.seconds:
        rounds.append(run_round(args.workload, args.seed, args.trace, work, env))

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    measured = [r["layers"] if args.trace else r for r in rounds]
    missing = sorted(set(units) - set(measured[0]))
    if missing:
        raise SystemExit(f"BENCHMARK.json names metrics no round reports: {missing}")
    metrics = {m: {"value": statistics.median(x[m] for x in measured), "unit": unit}
               for m, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_revision": git_revision(ROOT),
              "env": rounds[0]["env"], "pinned": PIN, "result": result,
              "rounds": [{k: v for k, v in r.items() if k != "env"} for r in rounds]}
    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    for r in rounds:
        for note in r["notes"]:
            print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
