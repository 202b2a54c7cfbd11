#!/usr/bin/env python3
"""Write the benchmark's end-to-end metrics to a BENCH_<label>.json file.

    python3 scripts/bench_record.py --out BENCH_label.json [--base DIR]
        [--workloads W ...] [--seeds 1 2 ...] [--seconds 20]

For every workload and seed it runs ``benchmark/run.py`` untraced in this
checkout and, given ``--base``, in the checkout DIR of another revision (a
``git clone`` of the parent commit, say), each with its own benchmark code.
The two sides take turns going first from one seed to the next, so that a
drift in machine speed falls on both alike. The file holds, for each
workload, side and end-to-end metric of ``BENCHMARK.json``, the value of
every run in seed order with their median and quartiles
(``statistics.quantiles(values, n=4)``), and the failed and attempted
operations; with ``--base``, also the number of seed pairs in which this
checkout is better on each metric (ties count for neither), whether a gain
is shown on it, and the ratio of the medians. A gain is shown when this
checkout wins at least nine in ten of the pairs and its median is better
than the other side's by more than the other side's quartile distance. Each
side records its git revision, a SHA-256 of its ``src/iterreg`` sources
(which also tells apart uncommitted code) and the environment record of the
benchmark's worker. Each side writes and reads its bytecode under its own
``PYTHONPYCACHEPREFIX``, a fresh temporary directory, with
``PYTHONDONTWRITEBYTECODE`` unset: Python then reads no ``__pycache__`` left in
either checkout (it reads one even under ``PYTHONDONTWRITEBYTECODE``), and both
sides start from an empty cache that their first round fills. Workloads and seeds
default to all of ``BENCHMARK.json``'s workloads and seeds 1 to 10, the run length
to its ``run_seconds``. Having written the file, the script exits 1 if a round of
this checkout was incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values):
    """(q1, median, q3) of ``values``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(results, better):
    """The per-workload summary of ``results[side][workload]``, run.py results in seed order.

    ``better`` maps each end-to-end metric to "lower" or "higher". The side
    "head" is this checkout and "base", when present, the other one.
    """
    summary = {}
    for side, per_workload in results.items():
        for workload, runs in per_workload.items():
            metrics = {}
            for name in better:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                                 "q1": q1, "q3": q3, "values": values}
            summary.setdefault(workload, {})[side] = {
                "correct": all(r["correct"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "metrics": metrics}
    for entry in summary.values():
        if "base" not in entry:
            continue
        head, base = entry["head"]["metrics"], entry["base"]["metrics"]
        entry["head_wins"], entry["shown"], entry["median_ratio"] = {}, {}, {}
        for name, sense in better.items():
            sign = 1.0 if sense == "lower" else -1.0
            pairs = list(zip(head[name]["values"], base[name]["values"]))
            wins = sum(sign * (b - h) > 0 for h, b in pairs)
            gain = sign * (base[name]["median"] - head[name]["median"])
            entry["head_wins"][name] = wins
            entry["shown"][name] = (10 * wins >= 9 * len(pairs)
                                    and gain > base[name]["q3"] - base[name]["q1"])
            entry["median_ratio"][name] = (head[name]["median"] / base[name]["median"]
                                           if base[name]["median"] else None)
    return summary


def source_digest(checkout):
    """SHA-256 over the paths and bytes of the checkout's ``src/iterreg/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "iterreg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_once(checkout, workload, seed, seconds, pycache):
    """run.py's result line and its full record for one workload and seed.

    Python writes and reads the bytecode of the run under the directory ``pycache``.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(
        [sys.executable, str(checkout / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_file = checkout / ".bench_out" / "results" / f"{workload}-seed{seed}-trace0.json"
    return result, json.loads(record_file.read_text())


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--base", type=Path)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"head": ROOT}
    if args.base is not None:
        sides["base"] = args.base.resolve()
        if not (sides["base"] / "benchmark" / "run.py").is_file():
            ap.error(f"--base {args.base} holds no benchmark/run.py")

    results = {side: {w: [] for w in args.workloads} for side in sides}
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workloads:
            for i, seed in enumerate(args.seeds):
                order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                for side in order:
                    result, records[side] = run_once(sides[side], workload, seed,
                                                     args.seconds, Path(tmp) / side)
                    results[side][workload].append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                          f"wall_s {wall:.4g}", flush=True)

    doc = {"seconds": args.seconds, "seeds": args.seeds,
           "order": "the side run first alternates from seed to seed, head first",
           "sides": {side: {"git_revision": records[side]["git_revision"],
                            "src_sha256": source_digest(path), "env": records[side]["env"],
                            "pinned": records[side]["pinned"]}
                     for side, path in sides.items()},
           "workloads": summarize(results, better)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    wrong = [w for w, entry in doc["workloads"].items() if not entry["head"]["correct"]]
    for workload in wrong:
        print(f"{workload}: a round of this checkout was incorrect")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
