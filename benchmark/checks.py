"""Correctness checks that the benchmark computes apart from iterreg.

Each checker uses plain numpy only: its own support enumeration, its own SVD,
its own primal-dual loop and its own noise and fold draws. None of them
compares against a stored copy of an earlier output. iterreg is used only
to build inputs (instances, step sizes) that the checked output depends on.
"""

from __future__ import annotations

import csv
from itertools import combinations

import numpy as np


def child_seed(base, *key):
    """The replicate seed derivation iterreg documents (SeedSequence spawn keys)."""
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


def noisy_data(y, delta, seed):
    """Data at exact distance delta from y along a seeded Gaussian direction."""
    e = np.random.default_rng(seed).standard_normal(y.shape[0])
    return y + delta * e / np.linalg.norm(e)


def min_l1_interpolant(Xm, y, feas_tol=1e-9):
    """Minimum-l1 solution of Xm w = y by enumerating supports of size <= n.

    Solves least squares on each support, keeps the exact interpolants and
    returns the one with the smallest l1 norm (ties keep the smaller support).
    """
    n, p = Xm.shape
    scale = max(1.0, float(np.linalg.norm(y)))
    best, best_obj = None, np.inf
    for size in range(n + 1):
        for support in combinations(range(p), size):
            cand = np.zeros(p)
            if size:
                cols = Xm[:, list(support)]
                sol = np.linalg.lstsq(cols, y, rcond=None)[0]
                if np.linalg.norm(cols @ sol - y) > feas_tol * scale:
                    continue
                cand[list(support)] = sol
            elif np.linalg.norm(y) > feas_tol * scale:
                continue
            obj = float(np.abs(cand).sum())
            if obj < best_obj - 1e-12:
                best, best_obj = cand, obj
    return best


def l1_conditions(Xm, y, w, theta, feas_tol, tol=1e-5):
    """Saddle conditions of min ||w||_1 s.t. Xm w = y; returns failed conditions.

    Feasibility ||Xm w - y|| <= feas_tol, dual feasibility ||Xm^T theta||_inf
    <= 1 + tol, and -Xm^T theta = sign(w) within tol wherever |w_i| > tol.
    """
    failed = []
    if np.linalg.norm(Xm @ w - y) > feas_tol:
        failed.append("feasibility")
    g = -(Xm.T @ theta)
    if np.max(np.abs(g)) > 1.0 + tol:
        failed.append("dual bound")
    on = np.abs(w) > tol
    if not on.any() or np.max(np.abs(g[on] - np.sign(w[on]))) > tol:
        failed.append("sign on support")
    return failed


def nuclear_conditions(shape, observed, y, w, theta, feas_tol, tol=1e-5):
    """Saddle conditions of min ||W||_* s.t. W agrees with y on the observed entries.

    ``observed`` lists (i, j) pairs; ``y`` and ``theta`` are full-grid vectors
    that the mask reads on the observed entries only. Returns the failed
    conditions: feasibility, ||G||_2 <= 1 + tol for G = -mask(theta), and
    <G, W> = ||W||_* within tol * max(1, ||W||_*).
    """
    mask = np.zeros(shape)
    for i, j in observed:
        mask[i, j] = 1.0
    W = w.reshape(shape)
    failed = []
    if np.linalg.norm(mask * (W - y.reshape(shape))) > feas_tol:
        failed.append("feasibility")
    G = -mask * theta.reshape(shape)
    if np.linalg.svd(G, compute_uv=False)[0] > 1.0 + tol:
        failed.append("spectral bound")
    nuc = float(np.linalg.svd(W, compute_uv=False).sum())
    if abs(float(np.sum(G * W)) - nuc) > tol * max(1.0, nuc):
        failed.append("alignment")
    return failed


def pd_path(Xm, y_obs, tau, sigma, iters, observe):
    """Plain primal-dual loop for the l1 bias from zero; ``observe(k, w)`` per iterate.

    Same update as the paper: w <- soft(w - tau X^T(2 theta - theta_prev), tau),
    theta <- theta + sigma (X w - y_obs).
    """
    w = np.zeros(Xm.shape[1])
    theta = np.zeros(Xm.shape[0])
    theta_prev = theta
    observe(0, w)
    for k in range(1, iters + 1):
        v = w - tau * (Xm.T @ (2.0 * theta - theta_prev))
        w = v - np.clip(v, -tau, tau)
        theta_prev, theta = theta, theta + sigma * (Xm @ w - y_obs)
        observe(k, w)


def oracle_curve(Xm, y_obs, tau, sigma, iters, w_ref):
    """Distances ||w_k - w_ref|| for k = 0..iters along the plain loop."""
    dist = np.empty(iters + 1)

    def observe(k, w):
        dist[k] = np.linalg.norm(w - w_ref)

    pd_path(Xm, y_obs, tau, sigma, iters, observe)
    return dist


def heldout_curve(X_tr, y_tr, X_te, y_te, tau, sigma, iters):
    """Held-out mean squared error of every iterate along the plain loop."""
    mse = np.empty(iters + 1)

    def observe(k, w):
        mse[k] = np.mean((X_te @ w - y_te) ** 2)

    pd_path(X_tr, y_tr, tau, sigma, iters, observe)
    return mse


def step_condition(Xm, tau, sigma, epsilon):
    """sigma * tau * ||Xm||_2^2 <= epsilon, with the norm from a full SVD."""
    return sigma * tau * float(np.linalg.norm(Xm, 2)) ** 2 <= epsilon


def inverse_time_slope(deltas, k_stars):
    """Least-squares slope of mean 1/k* against delta, the fit criterion 4 uses."""
    levels = sorted(set(deltas))
    inv = [np.mean([1.0 / k for d, k in zip(deltas, k_stars) if d == lvl]) for lvl in levels]
    return float(np.polyfit(levels, inv, 1)[0])


def pathcmp_violations(lasso_mse, cp_mse, lasso_iters):
    """Criterion-8 inequalities from per-fold held-out MSE; returns the failed ones.

    ``lasso_mse`` is folds x grid, ``cp_mse`` is folds x (iters + 1) and
    ``lasso_iters`` the mean inner iterations per grid point.
    """
    lasso_mean = np.mean(lasso_mse, axis=0)
    cp_mean = np.mean(cp_mse, axis=0)
    t_best, k_best = int(np.argmin(lasso_mean)), int(np.argmin(cp_mean))
    failed = []
    if cp_mean[k_best] > 1.15 * lasso_mean[t_best]:
        failed.append("held-out MSE ratio above 1.15")
    if k_best > 0.2 * float(np.sum(lasso_iters[: t_best + 1])):
        failed.append("iteration ratio above 0.2")
    if not (lasso_mean[-1] > lasso_mean[t_best] and cp_mean[-1] > cp_mean[k_best]):
        failed.append("a path does not end worse than its optimum")
    return failed


def read_csv(path, columns):
    """The named columns of an iterreg CSV, one dict of floats per row."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{c: float(rec[c]) for c in columns} for rec in csv.DictReader(lines)]
