"""One round of one workload in a fresh process; prints one JSON line.

Started by run.py with the BLAS thread count pinned in the environment.
Reports the monotonic time of the first timed call into iterreg (run.py
turns it into set-up time), the wall and CPU time of the body, the peak
resident memory, the operations attempted and failed, and with --trace 1
the per-layer metrics of the round.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import time
import traceback

import numpy as np

import iterreg
import spans
from workloads import WORKLOADS


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        paths = {ln.split()[-1] for ln in fh if "openblas" in ln.split()[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "iterreg": iterreg.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    np.linalg.svd(np.eye(8))
    np.ones((64, 64)) @ np.ones(64)
    ctx = wl.prepare(args.seed, args.out)
    tracer = spans.install() if args.trace else None

    t_first = time.monotonic()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        out = wl.body(ctx)
        error = None
    except iterreg.IterRegError as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer, wall)
        del tracer
    if error is None:
        try:
            failed, notes = wl.check(ctx, out)
        except Exception:  # a check that cannot read the output fails the round
            failed, notes = set(range(wl.ops)), [traceback.format_exc()]
    else:
        failed, notes = set(range(wl.ops)), [error]
    result = {
        "t_first": t_first,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": wl.ops,
        "failed": sorted(failed),
        "notes": notes,
        "layers": layers,
        "env": environment(),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
