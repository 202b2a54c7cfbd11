"""Experiment harness: noisy-run diagnostics at desk scale, CSV + SVG outputs.

Every experiment is deterministic given its spec: replicate noise seeds are
derived from the base seed through numpy SeedSequence spawn keys. The noisy
replicates of an experiment run as the columns of one batched iteration, by
noise level as the spec lists them and then by replicate, each column
labelled with its (delta, replicate).

A runner builds every object that checks a value it is given before its
first output, where :func:`_output_dir` makes the output directory, so a run
that fails before then leaves no directory. Outputs are written at the end;
only :func:`run_bounds` writes each step-size product's CSVs as it goes.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baseline import lambda_grid, lasso_path
from .bias import L1, Nuclear
from .errors import AssumptionViolated, BoundViolation, ContractViolation
from .linop import DenseOperator, Grad2D, MaskOperator
from .metrics import BoundInputs, stability_feas_bound, stability_gap_bound, weighted_v
from .pdsolver import certify, iterate, make_config, run, write_csv
from .problems import add_noise, gen_matcomp, gen_sparse, load_problem, save_problem, tv_reformulate
from .stopping import oracle_stop
from .svgplot import line_chart

__all__ = [
    "ExperimentSpec",
    "child_seed",
    "run_semiconv",
    "run_matcomp",
    "run_stoptime",
    "run_bounds",
    "run_pathcmp",
    "run_tvdemo",
    "run_solve",
    "run_certify",
]


@dataclass
class ExperimentSpec:
    """Common experiment parameters; problem-specific ones live in ``problem``.

    A run parameter left at None, and a key left out of ``problem``, takes the
    default of the function that reads it. ``eps`` and ``record_every`` fall
    back to :func:`~iterreg.pdsolver.make_config`'s. ``max_iter=None`` means
    the experiment's own budget: ``make_config``'s for the noisy runs and
    :func:`run_solve`, :func:`~iterreg.pdsolver.certify`'s for
    :func:`run_certify` and the clean certificates, and :func:`run_tvdemo`'s
    own; a number, 0 included, is the budget itself.
    """

    name: str
    out_dir: Path
    seed: int = 0
    eps: float | None = None
    max_iter: int | None = None
    record_every: int | None = None
    deltas: tuple = ()
    replicates: int = 10
    problem: dict = field(default_factory=dict)

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.deltas = tuple(self.deltas)
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ContractViolation(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (isinstance(self.replicates, (int, np.integer)) and self.replicates >= 1):
            raise ContractViolation(f"replicates must be an integer >= 1, got {self.replicates!r}")
        bad = [d for d in self.deltas if not 0 <= d < np.inf]  # NaN included
        if bad:
            raise ContractViolation(f"noise levels must be finite and nonnegative, got {bad}")
        _check_distinct(self.deltas, "noise levels")


def _check_distinct(values, what):
    """Raise a ContractViolation naming every value that ``values`` holds more than once."""
    repeated = sorted({float(v) for v in values if values.count(v) > 1})
    if repeated:
        raise ContractViolation(f"{what} must be distinct; {repeated} repeat")


def child_seed(base, *key):
    """Stable derived seed for replicate streams (SeedSequence spawn keys)."""
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


# The keys of ``spec.problem`` each problem kind takes: its generator's parameters but the seed.
_KEYS = {kind: frozenset(inspect.signature(gen).parameters) - {"seed"}
         for kind, gen in (("sparse", gen_sparse), ("matcomp", gen_matcomp))}


def _check_keys(given, known, what):
    """Raise a ContractViolation naming every key of ``given`` that ``what`` does not take."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ContractViolation(f"{what} takes no parameters {unknown}")


def _problem(kind, seed, params, load=None):
    """A problem of ``kind`` and its bias: l1 for sparse, the nuclear norm for matcomp.

    The problem is read from the directory ``load``, whose own kind then
    counts, or made by ``gen_sparse`` or ``gen_matcomp`` from ``seed`` and
    ``params``, that generator's parameters but the seed. Keys of ``params``
    the source does not take are one ContractViolation naming them all.
    """
    if load is not None:
        _check_keys(params, (), "a loaded problem")
        prob = load_problem(load)
    elif kind in _KEYS:
        _check_keys(params, _KEYS[kind], f"a {kind} problem")
        # the generator's name is looked up at each call, so a replacement of it takes effect
        prob = (gen_sparse if kind == "sparse" else gen_matcomp)(seed=seed, **params)
    else:
        raise ContractViolation(f"unknown problem kind {kind!r}")
    if prob.kind == "matcomp":
        return prob, Nuclear(*prob.X.grid_shape)
    return prob, L1()


def _config(X, spec, **fixed):
    """``make_config`` of the run parameters the spec sets, with ``fixed`` overriding them."""
    given = dict(epsilon=spec.eps, max_iter=spec.max_iter, record_every=spec.record_every)
    given.update(fixed)
    return make_config(X, **{k: v for k, v in given.items() if v is not None})


def _output_dir(spec):
    """The spec's output directory, made if it is not there yet."""
    try:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ContractViolation(
            f"cannot make the output directory {spec.out_dir}: {exc.strerror}") from exc
    return spec.out_dir


def _clean_certificate(prob, J, cfg=None):
    """The clean problem's certificate, checked every 100 iterations; None: certify's config."""
    return certify(prob.X, J, prob.y, cfg=cfg, check_every=100)


def _noisy_sweep(spec, kind, deltas, epsilons=None):
    """The spec with its noise levels (``deltas`` if it sets none), the operator and bias of
    a ``kind`` problem, the configs of the spec's run parameters at each of ``epsilons``
    (None: the spec's own), the clean certificate, the noisy data as columns and their labels.
    """
    spec = replace(spec, deltas=spec.deltas or deltas)
    prob, J = _problem(kind, spec.seed, spec.problem)
    epsilons = (spec.eps,) if epsilons is None else epsilons
    cfgs = [_config(prob.X, spec, epsilon=eps) for eps in epsilons]
    labels = [(delta, rep) for delta in spec.deltas for rep in range(spec.replicates)]
    # a noise level's seeds are keyed by its position in the spec; the levels are distinct
    Y = np.stack([add_noise(prob, delta, child_seed(spec.seed, spec.deltas.index(delta), rep))
                  .y_delta for delta, rep in labels], axis=1)
    cert = _clean_certificate(prob, J)
    return spec, prob.X, J, cfgs, cert, Y, labels


def _distance_curves(spec, kind, deltas):
    """Shared semiconvergence machinery: noisy runs against a clean certificate."""
    spec, X, J, (cfg,), cert, Y, labels = _noisy_sweep(spec, kind, deltas)
    logs = run(X, J, Y, cfg, reference=cert, columns=("dist_ref", "dist_avg_ref"))
    summary_rows, svg_series, svg_marks = [], [], []
    for (delta, rep), log in zip(labels, logs):
        ks = log.ks()
        dist = log.column("dist_ref")
        k_star, d_star = oracle_stop(log)
        first, last = float(dist[0]), float(dist[-1])
        interior = bool(ks[0] < k_star < ks[-1]
                        and d_star <= 0.99 * first and d_star <= 0.99 * last)
        margin = min(first, last) / d_star - 1.0 if d_star > 0 else None
        summary_rows.append((delta, rep, k_star, d_star, first, last, int(interior), margin))
        if rep == 0:
            svg_series.append((f"delta={delta:g}", ks.astype(float), dist))
            svg_marks.append((f"k*={k_star}", float(k_star), float(d_star)))
    per_delta = {}
    for delta in spec.deltas:
        rows = [r for r in summary_rows if r[0] == delta]
        per_delta[delta] = {"mean_min_dist": float(np.mean([r[3] for r in rows])),
                            "interior": [bool(r[6]) for r in rows],
                            "k_star": [int(r[2]) for r in rows],
                            "margins": [r[7] for r in rows]}
    name, out = spec.name, _output_dir(spec)
    write_csv(out / f"{name}_curves.csv",
              ("delta", "replicate", "k", "dist", "dist_avg"),
              ((delta, rep, k, d, da) for (delta, rep), log in zip(labels, logs)
               for k, d, da in zip(log.ks().tolist(), log.column("dist_ref").tolist(),
                                   log.column("dist_avg_ref").tolist())))
    write_csv(out / f"{name}_summary.csv",
              ("delta", "replicate", "k_star", "dist_star", "dist_first",
               "dist_last", "interior", "margin"), summary_rows)
    line_chart(out / f"{name}.svg", svg_series, markers=svg_marks,
               title="distance to the clean solution along noisy runs",
               xlabel="iteration", ylabel="distance", logy=True)
    return {
        "certificate": {"feas_res": cert.feas_res, "subgrad_res": cert.subgrad_res},
        "per_delta": per_delta,
        "all_interior": all(bool(r[6]) for r in summary_rows),
        "mean_min_by_delta": [per_delta[d]["mean_min_dist"] for d in spec.deltas],
    }


def run_semiconv(spec):
    """Distance-to-reference curves for noisy sparse-recovery runs."""
    return _distance_curves(spec, "sparse", (0.6, 1.2, 2.4))


def run_matcomp(spec):
    """Semiconvergence for nuclear-norm completion.

    The noise lives on the observed entries, as :func:`~iterreg.problems.add_noise`
    draws it for every mask problem.
    """
    return _distance_curves(spec, "matcomp", (2.0, 4.0, 8.0))


def run_stoptime(spec):
    """Oracle stopping time versus noise level, with a straight-line fit."""
    spec, X, J, (cfg,), cert, Y, labels = _noisy_sweep(spec, "sparse",
                                                       tuple(np.linspace(0.1, 6.0, 20)))
    logs = run(X, J, Y, cfg, reference=cert, columns=("dist_ref",))
    raw_rows = [(delta, rep, *oracle_stop(log)) for (delta, rep), log in zip(labels, logs)]
    for delta, rep, k, _ in raw_rows:
        if k == 0:
            raise AssumptionViolated(
                f"the oracle stop of delta={delta:g}, replicate {rep} is k* = 0 "
                f"(no iterate comes closer to the clean solution than the initial one), "
                f"so 1/k* is undefined")
    sum_rows = []
    for delta in spec.deltas:
        ks = [row[2] for row in raw_rows if row[0] == delta]
        inv = [1.0 / k for k in ks]
        sum_rows.append((delta, float(np.mean(ks)), float(np.mean(inv)), float(np.std(inv))))
    mean_k, mean_inv = [row[1] for row in sum_rows], [row[2] for row in sum_rows]
    deltas = np.asarray(spec.deltas, dtype=float)
    inv = np.asarray(mean_inv)
    if len(set(mean_inv)) > 1:  # else no line is fitted: one level, or no change in 1/k*
        design = np.vstack([deltas, np.ones_like(deltas)]).T
        (slope, intercept), *_ = np.linalg.lstsq(design, inv, rcond=None)
        pearson = float(np.corrcoef(deltas, inv)[0, 1])
        rel_intercept = float(abs(intercept) / (abs(slope) * np.ptp(deltas)))
        fit = {"slope": float(slope), "intercept": float(intercept),
               "pearson_r": pearson, "rel_intercept": rel_intercept}
        fit_rows = [(fit["slope"], fit["intercept"], fit["pearson_r"], fit["rel_intercept"])]
        fit_line = slope * deltas + intercept
    else:
        fit = {"slope": None, "intercept": None, "pearson_r": None, "rel_intercept": None}
        fit_rows = [(None, None, None, None)]
        fit_line = None
    out = _output_dir(spec)
    write_csv(out / "stoptime_raw.csv",
              ("delta", "replicate", "k_star", "dist_star"), raw_rows)
    write_csv(out / "stoptime_summary.csv",
              ("delta", "mean_kstar", "mean_inv_kstar", "std_inv_kstar"), sum_rows)
    write_csv(out / "stoptime_fit.csv",
              ("slope", "intercept", "pearson_r", "rel_intercept"), fit_rows)
    series = [("mean 1/k*", deltas, inv)]
    if fit_line is not None:
        series.append(("least-squares fit", deltas, fit_line))
    line_chart(out / "stoptime.svg", series,
               title="inverse oracle stopping time vs noise level",
               xlabel="delta", ylabel="mean 1/k*")
    return {"fit": fit, "mean_inv_kstar": mean_inv, "mean_kstar": mean_k,
            "deltas": list(map(float, deltas))}


def run_bounds(spec, eps_list=None):
    """Measured averaged-iterate gap and residual against their upper bounds.

    Sweeps the distinct step-size products ``eps_list`` (None: 0.25, 0.5, 0.9).
    Writes one CSV per (epsilon, delta, replicate) and raises BoundViolation
    if any measurement exceeds its bound by more than 1e-8 relative.
    """
    eps_list = (0.25, 0.5, 0.9) if eps_list is None else tuple(eps_list)
    _check_distinct(eps_list, "bound epsilons")
    if spec.max_iter is not None and spec.max_iter < 1:
        raise ContractViolation(f"the bounds hold for k >= 1, so the budget must be >= 1, "
                                f"got {spec.max_iter}")
    spec, X, J, cfgs, cert, Y, labels = _noisy_sweep(spec, "sparse", (0.0,), eps_list)
    violations = 0
    worst_gap_ratio = worst_feas_ratio = -np.inf
    for eps, cfg in zip(eps_list, cfgs):
        v0 = weighted_v(-cert.w_star, -cert.theta_star, cfg.tau, cfg.sigma)
        logs = run(X, J, Y, cfg, reference=cert, columns=("gap_avg", "res_avg_clean"))
        for (delta, rep), log in zip(labels, logs):
            b = BoundInputs(v0=v0, sigma=cfg.sigma, epsilon=eps, delta=delta)
            past = log.ks() >= 1
            k = log.ks()[past]
            gap_meas = log.column("gap_avg")[past]
            feas_sq = log.column("res_avg_clean")[past] ** 2
            gb, fb = stability_gap_bound(k, b), stability_feas_bound(k, b)
            gap_ok = gap_meas <= gb * (1.0 + 1e-8)
            feas_ok = feas_sq <= fb * (1.0 + 1e-8)
            pos = gb > 0
            if pos.any():
                worst_gap_ratio = max(worst_gap_ratio, np.max(gap_meas[pos] / gb[pos]))
            pos = fb > 0
            if pos.any():
                worst_feas_ratio = max(worst_feas_ratio, np.max(feas_sq[pos] / fb[pos]))
            violations += int(np.sum(~gap_ok) + np.sum(~feas_ok))
            write_csv(_output_dir(spec) / f"bounds_eps{eps:g}_delta{delta:g}_rep{rep}.csv",
                      ("k", "gap_meas", "gap_bound", "feas_sq_meas",
                       "feas_bound", "gap_ok", "feas_ok"),
                      zip(k.tolist(), gap_meas.tolist(), gb.tolist(), feas_sq.tolist(),
                          fb.tolist(), gap_ok.astype(int).tolist(),
                          feas_ok.astype(int).tolist()))
    # a worst ratio is null when no bound was positive
    summary = {"violations": violations,
               "worst_gap_ratio": None if worst_gap_ratio == -np.inf else float(worst_gap_ratio),
               "worst_feas_ratio": None if worst_feas_ratio == -np.inf else float(worst_feas_ratio)}
    (_output_dir(spec) / "bounds_summary.json").write_text(json.dumps(summary, indent=2))
    if violations:
        raise BoundViolation(
            f"{violations} bound violations beyond 1e-8 relative; see {spec.out_dir}")
    return summary


def run_pathcmp(spec):
    """Held-out error along the penalty path versus along the iteration path.

    A single noisy instance is split into folds by rows; for each fold the
    explicit-penalty path (warm-started) and the iteration path are scored on
    the held-out rows, then averaged across folds.
    """
    params = {"delta": 4.0, "folds": 4, "grid_count": 100, "grid_span": 3.0,
              "lasso_tol": 1e-4, "lasso_max_iter": 3000, "cp_iters": 1000}
    sizes = {"n": 400, "p": 800, "s": 120}
    _check_keys(spec.problem, params.keys() | _KEYS["sparse"], "pathcmp")
    for key, value in spec.problem.items():
        (params if key in params else sizes)[key] = value
    prob, J = _problem("sparse", spec.seed, sizes)
    if not 2 <= params["folds"] <= sizes["n"]:
        raise ContractViolation(
            f"folds must lie in [2, n] = [2, {sizes['n']}], got {params['folds']}")
    y_obs = add_noise(prob, params["delta"], child_seed(spec.seed, 17)).y_delta
    Xm = prob.X.matrix
    rng = np.random.default_rng(child_seed(spec.seed, 23))
    perm = rng.permutation(Xm.shape[0])

    lasso_mse, cp_mse, paths = [], [], []
    for test_idx in np.array_split(perm, params["folds"]):
        grid, path, lasso_row, cp_row = _pathcmp_fold(Xm, y_obs, J, perm, test_idx, spec, params)
        paths.append(path)
        lasso_mse.append(lasso_row)
        cp_mse.append(cp_row)
    lasso_mse, cp_mse = np.array(lasso_mse), np.array(cp_mse)
    lasso_iters = np.mean([path.inner_iters for path in paths], axis=0)
    lasso_mean = lasso_mse.mean(axis=0)
    cp_mean = cp_mse.mean(axis=0)

    t_best = int(np.argmin(lasso_mean))
    k_best = int(np.argmin(cp_mean))
    cum_iters = float(np.cumsum(lasso_iters)[t_best])
    summary = {
        "best_lasso_mse": float(lasso_mean[t_best]),
        "best_lasso_index": t_best,
        "best_lasso_lambda": float(grid[t_best]),
        "lasso_cum_iters_to_best": cum_iters,
        "best_cp_mse": float(cp_mean[k_best]),
        "best_cp_k": k_best,
        "mse_ratio": float(cp_mean[k_best] / lasso_mean[t_best]),
        "iter_ratio": float(k_best / cum_iters),
        "lasso_end_mse": float(lasso_mean[-1]),
        "cp_end_mse": float(cp_mean[-1]),
        "zero_mse": float(np.mean(y_obs ** 2)),
    }
    out = _output_dir(spec)
    for f, path in enumerate(paths):
        path.write_csv(out / f"pathcmp_lasso_fold{f}.csv")
    fold_cols = [f"mse_fold{f}" for f in range(params["folds"])]
    write_csv(out / "pathcmp_lasso.csv",
              ("index", "lambda", "mse_mean", *fold_cols, "inner_iters_mean"),
              [(t, grid[t], float(lasso_mean[t]), *[float(v) for v in lasso_mse[:, t]],
                float(lasso_iters[t])) for t in range(params["grid_count"])])
    write_csv(out / "pathcmp_cp.csv",
              ("k", "mse_mean", *fold_cols),
              [(k, float(cp_mean[k]), *[float(v) for v in cp_mse[:, k]])
               for k in range(params["cp_iters"] + 1)])
    write_csv(out / "pathcmp_summary.csv",
              tuple(summary.keys()), [tuple(summary.values())])
    line_chart(out / "pathcmp_lasso.svg",
               [("held-out MSE", np.asarray(grid), lasso_mean)],
               markers=[(f"best={lasso_mean[t_best]:.3f}", grid[t_best], lasso_mean[t_best])],
               title="penalty path: held-out MSE", xlabel="lambda", ylabel="MSE", logx=True)
    line_chart(out / "pathcmp_cp.svg",
               [("held-out MSE", np.arange(params["cp_iters"] + 1, dtype=float), cp_mean)],
               markers=[(f"best={cp_mean[k_best]:.3f}", float(k_best), cp_mean[k_best])],
               title="iteration path: held-out MSE", xlabel="iteration", ylabel="MSE")
    return summary


def _pathcmp_fold(Xm, y_obs, J, perm, test_idx, spec, params):
    """One fold of ``run_pathcmp``: its penalty grid, its penalty path, and the
    held-out MSE along that path and along the iterations.

    A function of its own so that the fold's training copy of ``Xm`` is freed
    before the next fold makes its own; the path comes back without its solutions.
    """
    # a mask, not np.setdiff1d: numpy's set routines import numpy.ma through np.unique
    train = np.ones(len(perm), dtype=bool)
    train[test_idx] = False
    train_idx = np.flatnonzero(train)
    X_tr = DenseOperator._adopt(Xm[train_idx])
    y_tr = y_obs[train_idx]
    X_te, y_te = Xm[test_idx], y_obs[test_idx]
    cfg = _config(X_tr, spec, max_iter=params["cp_iters"])
    grid = lambda_grid(X_tr, y_tr, count=params["grid_count"],
                       span_decades=params["grid_span"])
    path = lasso_path(X_tr, y_tr, grid, tol=params["lasso_tol"],
                      max_iter=params["lasso_max_iter"])
    lasso_row = [float(np.mean((X_te @ w - y_te) ** 2)) for w in path.solutions]
    path.solutions.clear()  # scored; the fold CSV reads only the nonzero counts
    cp_row = [float(np.mean((X_te @ state.w - y_te) ** 2))
              for state in iterate(X_tr, J, y_tr, cfg)]
    return grid, path, lasso_row, cp_row


def run_tvdemo(spec):
    """Total-variation inpainting of a piecewise-constant image via the lifted form."""
    params = {"p1": 8, "p2": 8, "obs_frac": 0.6}
    _check_keys(spec.problem, params, "tv-demo")
    params.update(spec.problem)
    p1, p2 = params["p1"], params["p2"]
    if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in (p1, p2)):
        raise ContractViolation(f"p1 and p2 must be positive integers, got {p1} and {p2}")
    if not 0.0 < params["obs_frac"] <= 1.0:
        raise ContractViolation(f"obs_frac must lie in (0, 1], got {params['obs_frac']}")
    image = np.zeros((p1, p2))
    image[: p1 // 2, : p2 // 2] = 1.0
    image[p1 // 2:, p2 // 2:] = 2.0
    rng = np.random.default_rng(child_seed(spec.seed, 29))
    n_obs = max(1, int(round(params["obs_frac"] * p1 * p2)))
    flat = rng.choice(p1 * p2, size=n_obs, replace=False)
    mask = MaskOperator((p1, p2), [(int(f) // p2, int(f) % p2) for f in flat])
    y = mask.apply(image.ravel())
    lifted, bias, y_lifted = tv_reformulate(mask, y, p1, p2)
    cfg = make_config(lifted, max_iter=100_000 if spec.max_iter is None else spec.max_iter)
    cert = certify(lifted, bias, y_lifted, cfg=cfg,
                   feas_tol=1e-8 * max(1.0, float(np.linalg.norm(y_lifted))),
                   check_every=200)
    w_img = cert.w_star[: p1 * p2]
    u_grad = cert.w_star[p1 * p2:]
    grad_res = float(np.linalg.norm(Grad2D(p1, p2).apply(w_img) - u_grad))
    obs_res = float(np.linalg.norm(mask.apply(w_img) - y))
    rec_err = float(np.linalg.norm(w_img - image.ravel()))
    out = _output_dir(spec)
    np.savetxt(out / "tv_solution.csv", w_img.reshape(p1, p2), delimiter=",")
    write_csv(out / "tv_summary.csv",
              ("grad_residual", "obs_residual", "recovery_error", "tv_value"),
              [(grad_res, obs_res, rec_err, float(bias(cert.w_star)))])
    summary = {"grad_residual": grad_res, "obs_residual": obs_res,
               "recovery_error": rec_err}
    return summary


def run_solve(spec):
    """Plain solve of a generated or loaded problem, noisy at one level at most; writes the log."""
    if len(spec.deltas) > 1:
        raise ContractViolation(f"solve takes at most one noise level, got {list(spec.deltas)}")
    prob, J = _problem_for_cli(spec)
    if spec.deltas:
        prob = add_noise(prob, spec.deltas[0], child_seed(spec.seed, 41))
    cfg = _config(prob.X, spec)
    log = run(prob.X, J, prob.y_delta, cfg)
    out = _output_dir(spec)
    log.write_csv(out / "log.csv")
    save_problem(prob, out / "problem")
    return {"final_res_noisy": float(log.column("res_noisy")[-1]),
            "final_j": float(log.column("j_val")[-1]), "iterations": int(log.ks()[-1])}


def run_certify(spec):
    """Certify the clean problem; write the pair, its residuals, k and whether it was polished."""
    prob, J = _problem_for_cli(spec)
    cfg = None if spec.max_iter is None else make_config(prob.X, max_iter=spec.max_iter)
    cert = _clean_certificate(prob, J, cfg)
    out = _output_dir(spec)
    np.savetxt(out / "cert_w.csv", cert.w_star, delimiter=",")
    np.savetxt(out / "cert_theta.csv", cert.theta_star, delimiter=",")
    meta = {"feas_res": cert.feas_res, "subgrad_res": cert.subgrad_res,
            "polished": cert.polished, "k": cert.k}
    (out / "cert_meta.json").write_text(json.dumps(meta, indent=2))
    return meta


def _problem_for_cli(spec):
    """The loaded or generated problem named by ``spec.problem``, and its bias.

    ``spec.problem`` holds ``kind`` (sparse, the default, or matcomp) and
    either ``load``, a problem directory, or generator parameters of that
    kind. A parameter the named source does not take is a ContractViolation.
    """
    params = dict(spec.problem)
    kind, load = params.pop("kind", "sparse"), params.pop("load", None)
    return _problem(kind, spec.seed, params, load)
