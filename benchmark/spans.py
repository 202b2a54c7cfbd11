"""Spans around iterreg's layers, installed from the benchmark's own files.

``install`` replaces the public functions and methods of each layer in the
namespaces where callers look them up (the defining module and the modules
that imported the name), so the program itself is unchanged. Every call
becomes a span with a name, a start, an end and the index of its parent
span. Spans stay in compact arrays until ``layer_metrics`` reads them at the
end of the round; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

from iterreg import baseline, bias, experiments, linop, pdsolver, problems, stopping


class Tracer:
    """Span store plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {"linop.bytes": 0, "pdsolver.rows": 0,
                       "baseline.prox_grad_iters": 0, "experiments.bytes_written": 0}
        self._stack = [-1]
        self._undo = []

    def wrap(self, fn, name, after=None):
        """Return ``fn`` recording one span per call; ``after(args, result)`` counts."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owners, attr, name, after=None):
        """Replace ``attr`` on every owner (module or class) that defines it.

        Owners holding the same function share one wrapper; an owner without
        ``attr`` is skipped, so a layer a later version removes reads 0.
        """
        traced = {}
        for owner in owners:
            fn = vars(owner).get(attr)
            if fn is None:
                continue
            if id(fn) not in traced:
                traced[id(fn)] = self.wrap(fn, name, after)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, traced[id(fn)])

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _operator_bytes(op):
    """Bytes of the arrays an operator reads per call (computed from sizes)."""
    arrays = [getattr(op, a) for a in ("matrix", "gain") if hasattr(op, a)]
    total = sum(a.nbytes for a in arrays)
    for row in getattr(op, "blocks", ()):
        total += sum(_operator_bytes(blk) for blk in row if blk is not None)
    return total


def _subclasses(module, base):
    """The classes of ``module`` derived from ``base``."""
    return [c for c in vars(module).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base]


def install():
    """Trace every layer the workloads reach; returns the tracer."""
    tr = Tracer()
    counts = tr.counts
    op_bytes = {}

    def count_linop(args, result):
        op = args[0]
        # The entry holds the operator, so its id cannot pass to another one.
        key = id(op)
        if key not in op_bytes:
            op_bytes[key] = (op, _operator_bytes(op))
        counts["linop.bytes"] += op_bytes[key][1] + 8 * len(args[1])

    def count_rows(args, log):
        counts["pdsolver.rows"] += len(log)

    def count_iters(args, sol):
        counts["baseline.prox_grad_iters"] += sol.iters

    def count_file(pos):
        def after(args, result):
            counts["experiments.bytes_written"] += os.path.getsize(args[pos])
        return after

    operators = [linop.LinearOperator] + _subclasses(linop, linop.LinearOperator)
    tr.patch(operators, "apply", "linop.apply", count_linop)
    tr.patch(operators, "adjoint", "linop.adjoint", count_linop)
    biases = _subclasses(bias, bias.Bias)
    tr.patch(biases, "prox", "bias.prox")
    tr.patch(biases, "__call__", "bias.eval")
    tr.patch([pdsolver, experiments], "step", "pdsolver.step")
    tr.patch([pdsolver, experiments], "run", "pdsolver.run", count_rows)
    tr.patch([pdsolver, experiments], "certify", "pdsolver.certify")
    tr.patch([stopping, experiments], "oracle_stop", "stopping.oracle")
    tr.patch([problems, experiments], "gen_sparse", "problems.generate")
    tr.patch([problems, experiments], "gen_matcomp", "problems.generate")
    tr.patch([problems, experiments], "add_noise", "problems.noise")
    tr.patch([baseline, experiments], "lambda_grid", "baseline.grid")
    tr.patch([baseline, experiments], "lasso_path", "baseline.path")
    tr.patch([baseline], "solve_tikhonov", "baseline.tikhonov", count_iters)
    tr.patch([experiments], "write_csv", "experiments.write", count_file(0))
    tr.patch([experiments], "line_chart", "experiments.write", count_file(0))
    tr.patch([baseline.PathResult], "write_csv", "experiments.write", count_file(1))
    tr.patch([pdsolver.IterateLog], "write_csv", "experiments.write", count_file(1))
    for entry in ("run_stoptime", "run_matcomp", "run_pathcmp"):
        tr.patch([experiments], entry, "experiments.entry")
    return tr


def layer_metrics(tr, wall_s):
    """Per-layer metrics of one round of traced wall time ``wall_s``.

    A layer that did not run reads 0.
    """
    n = len(tr.name_id)
    nid = np.frombuffer(tr.name_id, dtype=np.int32, count=n)
    parent = np.frombuffer(tr.parent, dtype=np.int32, count=n)
    dur = np.frombuffer(tr.end, count=n) - np.frombuffer(tr.start, count=n)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - covered

    def pick(name):
        if name not in tr.names:
            return np.zeros(n, dtype=bool)
        return nid == tr.names.index(name)

    def median(values, scale):
        return float(np.median(values)) * scale if values.size else 0.0

    apply_, adjoint, prox, ev = (pick("linop.apply"), pick("linop.adjoint"),
                                 pick("bias.prox"), pick("bias.eval"))
    step, run, cert = pick("pdsolver.step"), pick("pdsolver.run"), pick("pdsolver.certify")
    steps = dur[step]
    rows = tr.counts["pdsolver.rows"]
    cert_idx = np.flatnonzero(cert)
    return {
        "linop.apply_us": median(own[apply_], 1e6),
        "linop.adjoint_us": median(own[adjoint], 1e6),
        "linop.calls": int(apply_.sum() + adjoint.sum()),
        "linop.bytes_mb": tr.counts["linop.bytes"] / 1e6,
        "bias.prox_us": median(own[prox], 1e6),
        "bias.prox_calls": int(prox.sum()),
        "bias.eval_us": median(own[ev], 1e6),
        "bias.eval_calls": int(ev.sum()),
        "pdsolver.steps": int(step.sum()),
        "pdsolver.step_us_p50": float(np.percentile(steps, 50)) * 1e6 if steps.size else 0.0,
        "pdsolver.step_us_p99": float(np.percentile(steps, 99)) * 1e6 if steps.size else 0.0,
        "pdsolver.step_self_us": median(own[step], 1e6),
        "pdsolver.record_us": float(own[run].sum()) / rows * 1e6 if rows else 0.0,
        "pdsolver.rows": rows,
        "pdsolver.certify_s": float(dur[cert].sum()),
        "pdsolver.certify_steps": int(np.isin(parent[step], cert_idx).sum()),
        "stopping.oracle_ms": median(dur[pick("stopping.oracle")], 1e3),
        "problems.generate_ms": median(dur[pick("problems.generate")], 1e3),
        "problems.noise_us": median(dur[pick("problems.noise")], 1e6),
        "baseline.path_s": float(dur[pick("baseline.path")].sum()),
        "baseline.tikhonov_ms": median(dur[pick("baseline.tikhonov")], 1e3),
        "baseline.prox_grad_iters": tr.counts["baseline.prox_grad_iters"],
        "experiments.write_ms": float(dur[pick("experiments.write")].sum()) * 1e3,
        "experiments.bytes_written": tr.counts["experiments.bytes_written"],
        "experiments.self_ms": float(own[pick("experiments.entry")].sum()) * 1e3,
        "trace.wall_s": wall_s,
    }

