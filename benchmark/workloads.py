"""The four workloads: inputs made from a seed, the timed body, and its checks.

A workload is three functions. ``prepare(seed, out_dir)`` builds the inputs
(untimed, part of set-up). ``body(ctx)`` is the timed part and enters
iterreg through an experiment's public entry point where one exists.
``check(ctx, out)`` returns the indices of the operations that failed and
a note on each failure. ``ops`` is the number of operations in one round.

Calls go through module attributes (``experiments.run_stoptime``,
``pdsolver.certify``) so that the traced run sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from iterreg import bias, errors, experiments, linop, pdsolver, problems

import checks

# Criterion 4 instance (gen_sparse defaults, seed 0). Certifying other sparse
# seeds takes tens of thousands of iterations or fails, so the seed draws the
# noise levels instead of the instance.
SPARSE = {"n": 200, "p": 500, "s": 75, "corr": 0.2, "y_norm": 20.0}
STOPTIME_LEVELS = (0.5, 2.0, 6.0)
STOPTIME_REPLICATES = 2
STOPTIME_ITERS = 5000
STOPTIME_OPS = len(STOPTIME_LEVELS) * STOPTIME_REPLICATES

# Criterion 5 completion instance. At these noise levels every oracle minimum
# lies below k = 300, so 1500 recorded iterations keep it interior; from about
# delta = 8 on the noise matches the observed signal and the minimum is k = 0.
MATCOMP = {"d": 20, "r": 5, "obs_frac_denom": 5, "y_norm": 20.0}
MATCOMP_LEVELS = (2.5, 4.0, 6.0)
MATCOMP_REPLICATES = 2
MATCOMP_ITERS = 1500
MATCOMP_OPS = len(MATCOMP_LEVELS) * MATCOMP_REPLICATES

TINY_TRIALS = 50

# Criterion 8 instance. On some other seeds (15 and 18 of 11-20) the best
# penalty lies at the end of the default grid, so criterion 8 cannot hold;
# the seed draws the noise level instead.
PATHCMP_FOLDS = 4
PATHCMP_CP_ITERS = 1000
PATHCMP_NOISE = 4.0
PATHCMP_SPARSE = {"n": 400, "p": 800, "s": 120, "corr": 0.2, "y_norm": 20.0}

CERT_BUDGET = 500_000


@dataclass(frozen=True)
class Workload:
    ops: int
    prepare: Callable
    body: Callable
    check: Callable


def _jittered(levels, seed, tag, spread):
    rng = np.random.default_rng((seed, tag))
    return tuple(float(lvl * rng.uniform(1.0 - spread, 1.0 + spread)) for lvl in levels)


def _feas_tol(y):
    return 1e-9 * max(1.0, float(np.linalg.norm(y)))


def _experiment_certificate(prob, J):
    """The certificate the experiments compute, recomputed for the checks."""
    return pdsolver.certify(prob.X, J, prob.y,
                            cfg=pdsolver.make_config(prob.X, max_iter=CERT_BUDGET),
                            check_every=100)


# --- sparse-stoptime ---------------------------------------------------------

def stoptime_prepare(seed, out_dir):
    deltas = _jittered(STOPTIME_LEVELS, seed, 1, 0.1)
    spec = experiments.ExperimentSpec(
        name="stoptime", out_dir=out_dir, seed=0, max_iter=STOPTIME_ITERS,
        record_every=1, deltas=deltas, replicates=STOPTIME_REPLICATES,
        problem=dict(SPARSE))
    return {"seed": seed, "spec": spec, "deltas": deltas}


def stoptime_body(ctx):
    return experiments.run_stoptime(ctx["spec"])


def stoptime_check(ctx, summary):
    deltas, reps = ctx["deltas"], STOPTIME_REPLICATES
    ops = STOPTIME_OPS
    rows = checks.read_csv(Path(ctx["spec"].out_dir) / "stoptime_raw.csv",
                           ("delta", "replicate", "k_star", "dist_star"))
    expected = [(d, r) for d in deltas for r in range(reps)]
    if [(row["delta"], int(row["replicate"])) for row in rows] != expected:
        return set(range(ops)), ["stoptime_raw.csv does not list every replicate"]
    k_star = [int(row["k_star"]) for row in rows]
    failed, notes = set(), []
    for i, k in enumerate(k_star):
        if not 0 < k < STOPTIME_ITERS:
            failed.add(i)
            notes.append(f"replicate {i}: k* = {k} is not interior")

    prob = problems.gen_sparse(seed=0, **SPARSE)
    Xm = prob.X.matrix
    cert = _experiment_certificate(prob, bias.L1())
    bad = checks.l1_conditions(Xm, prob.y, cert.w_star, cert.theta_star, _feas_tol(prob.y))
    if bad:
        return set(range(ops)), [f"certificate fails {bad}"]
    slope = checks.inverse_time_slope([row["delta"] for row in rows], k_star)
    if not slope > 0 or abs(slope - summary["fit"]["slope"]) > 1e-9 * abs(slope):
        return set(range(ops)), [
            f"mean 1/k* slope {slope} (reported {summary['fit']['slope']}) does not rise"]

    i = ctx["seed"] % ops
    di, rep = divmod(i, reps)
    cfg = pdsolver.make_config(prob.X, epsilon=0.99, max_iter=STOPTIME_ITERS)
    if not checks.step_condition(Xm, cfg.tau, cfg.sigma, 0.99):
        return set(range(ops)), ["step sizes break sigma*tau*||X||^2 <= epsilon"]
    y_obs = checks.noisy_data(prob.y, deltas[di], checks.child_seed(0, di, rep))
    dist = checks.oracle_curve(Xm, y_obs, cfg.tau, cfg.sigma, STOPTIME_ITERS, cert.w_star)
    k_ref = int(np.argmin(dist))
    d_star = rows[i]["dist_star"]
    if k_ref != k_star[i] or abs(dist[k_ref] - d_star) > 1e-9 * d_star:
        failed.add(i)
        notes.append(f"replicate {i}: plain loop gives k*={k_ref}, d*={dist[k_ref]!r}; "
                     f"experiment gives k*={k_star[i]}, d*={d_star!r}")
    return failed, notes


# --- tiny-certify ------------------------------------------------------------

def tiny_prepare(seed, out_dir):
    """The criterion-1 instances under a seeded signed column and row permutation.

    A signed permutation maps minimum-l1 interpolants onto each other, so each
    seed presents different arrays of the same difficulty.
    """
    instances = []
    for trial in range(TINY_TRIALS):
        base = np.random.default_rng(1000 + trial)
        Xm, y = base.standard_normal((4, 8)), base.standard_normal(4)
        rng = np.random.default_rng((seed, 2, trial))
        cols, signs, rows = rng.permutation(8), rng.choice((-1.0, 1.0), size=8), rng.permutation(4)
        instances.append((Xm[rows][:, cols] * signs, y[rows]))
    return {"instances": instances}


def tiny_body(ctx):
    out = []
    for Xm, y in ctx["instances"]:
        X = linop.DenseOperator(Xm)
        try:
            cert = pdsolver.certify(X, bias.L1(), y,
                                    cfg=pdsolver.make_config(X, max_iter=400_000),
                                    feas_tol=1e-11, subgrad_tol=1e-9, check_every=25)
            out.append(cert.w_star)
        except errors.IterRegError as exc:
            out.append(exc)
    return out


def tiny_check(ctx, out):
    failed, notes = set(), []
    for i, ((Xm, y), w) in enumerate(zip(ctx["instances"], out)):
        if isinstance(w, Exception):
            failed.add(i)
            notes.append(f"instance {i}: {w}")
            continue
        dev = float(np.linalg.norm(w - checks.min_l1_interpolant(Xm, y)))
        if dev > 1e-5:
            failed.add(i)
            notes.append(f"instance {i}: w* is {dev:.2e} from the minimum-l1 interpolant")
    return failed, notes


# --- matcomp-nuclear ---------------------------------------------------------

def matcomp_prepare(seed, out_dir):
    deltas = _jittered(MATCOMP_LEVELS, seed, 3, 0.15)
    spec = experiments.ExperimentSpec(
        name="matcomp", out_dir=out_dir, seed=0, max_iter=MATCOMP_ITERS, record_every=1,
        deltas=deltas, replicates=MATCOMP_REPLICATES, problem=dict(MATCOMP))
    return {"spec": spec, "deltas": deltas}


def matcomp_body(ctx):
    return experiments.run_matcomp(ctx["spec"])


def matcomp_check(ctx, summary):
    ops = MATCOMP_OPS
    curves = {}
    for row in checks.read_csv(Path(ctx["spec"].out_dir) / "matcomp_curves.csv",
                               ("delta", "replicate", "k", "dist")):
        curves.setdefault((row["delta"], int(row["replicate"])), []).append(
            (int(row["k"]), row["dist"]))
    expected = [(d, r) for d in ctx["deltas"] for r in range(MATCOMP_REPLICATES)]
    if list(curves) != expected or any(
            [k for k, _ in c] != list(range(MATCOMP_ITERS + 1)) for c in curves.values()):
        return set(range(ops)), ["matcomp_curves.csv does not hold every iterate"]

    d = MATCOMP["d"]
    prob = problems.gen_matcomp(seed=0, **MATCOMP)
    cert = _experiment_certificate(prob, bias.Nuclear(d, d))
    bad = checks.nuclear_conditions((d, d), prob.X.observed, prob.y, cert.w_star,
                                    cert.theta_star, _feas_tol(prob.y))
    if bad:
        return set(range(ops)), [f"certificate fails {bad}"]
    w_norm = float(np.linalg.norm(cert.w_star))
    failed, notes = set(), []
    for i, curve in enumerate(curves.values()):
        dist = np.array([v for _, v in curve])
        if abs(dist[0] - w_norm) > 1e-12 * w_norm:
            failed.add(i)
            notes.append(f"replicate {i}: distances are not taken to the certificate")
        a = int(np.argmin(dist))
        if not 0 < a < MATCOMP_ITERS:
            failed.add(i)
            notes.append(f"replicate {i}: minimum at k = {a} is not interior")
    return failed, notes


# --- pathcmp -----------------------------------------------------------------

def pathcmp_prepare(seed, out_dir):
    (delta,) = _jittered((PATHCMP_NOISE,), seed, 4, 0.1)
    spec = experiments.ExperimentSpec(name="pathcmp", out_dir=out_dir, seed=0,
                                      problem={"delta": delta})
    return {"seed": seed, "spec": spec, "delta": delta}


def pathcmp_body(ctx):
    return experiments.run_pathcmp(ctx["spec"])


def pathcmp_check(ctx, summary):
    out = Path(ctx["spec"].out_dir)
    folds = PATHCMP_FOLDS
    every = set(range(folds))
    fold_cols = [f"mse_fold{f}" for f in range(folds)]
    cp = checks.read_csv(out / "pathcmp_cp.csv", fold_cols)
    lasso = checks.read_csv(out / "pathcmp_lasso.csv", fold_cols + ["inner_iters_mean"])
    cp_mse = np.array([[row[c] for row in cp] for c in fold_cols])
    lasso_mse = np.array([[row[c] for row in lasso] for c in fold_cols])
    iters = np.array([row["inner_iters_mean"] for row in lasso])
    if cp_mse.shape[1] != PATHCMP_CP_ITERS + 1:
        return every, ["pathcmp_cp.csv does not hold every iterate"]
    bad = checks.pathcmp_violations(lasso_mse, cp_mse, iters)
    if bad:
        return every, bad

    f = ctx["seed"] % folds
    prob = problems.gen_sparse(seed=0, **PATHCMP_SPARSE)
    Xm = prob.X.matrix
    y_obs = checks.noisy_data(prob.y, ctx["delta"], checks.child_seed(0, 17))
    perm = np.random.default_rng(checks.child_seed(0, 23)).permutation(Xm.shape[0])
    test = np.array_split(perm, folds)[f]
    train = np.setdiff1d(perm, test)
    X_tr = Xm[train]
    cfg = pdsolver.make_config(linop.DenseOperator(X_tr), epsilon=0.99,
                               max_iter=PATHCMP_CP_ITERS)
    if not checks.step_condition(X_tr, cfg.tau, cfg.sigma, 0.99):
        return every, ["step sizes break sigma*tau*||X||^2 <= epsilon"]
    mse = checks.heldout_curve(X_tr, y_obs[train], Xm[test], y_obs[test],
                               cfg.tau, cfg.sigma, PATHCMP_CP_ITERS)
    err = float(np.max(np.abs(mse - cp_mse[f])))
    if err > 1e-9 * float(np.max(mse)):
        return {f}, [f"fold {f}: plain loop held-out MSE differs by {err:.3e}"]
    return set(), []


WORKLOADS = {
    "sparse-stoptime": Workload(STOPTIME_OPS, stoptime_prepare, stoptime_body, stoptime_check),
    "tiny-certify": Workload(TINY_TRIALS, tiny_prepare, tiny_body, tiny_check),
    "matcomp-nuclear": Workload(MATCOMP_OPS, matcomp_prepare, matcomp_body, matcomp_check),
    "pathcmp": Workload(PATHCMP_FOLDS, pathcmp_prepare, pathcmp_body, pathcmp_check),
}
