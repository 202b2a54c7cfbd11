"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the verdicts.
The heavyweight reference instances and certificates are session-scoped and
shared across criteria.
"""

import time

import numpy as np
import pytest

from iterreg import (
    DenseOperator,
    Grad2D,
    L1,
    MaskOperator,
    Nuclear,
    SqL2,
    certify,
    gap,
    gap_equals_bregman_check,
    gen_sparse,
    norm_bound,
    norm_bound_data,
    initial_state,
    make_config,
    run,
    step,
    tv_reformulate,
)
from iterreg.experiments import ExperimentSpec, child_seed, run_matcomp, run_pathcmp, run_semiconv, run_stoptime
from iterreg.metrics import BoundInputs, stability_feas_bound, stability_gap_bound, weighted_v

from conftest import bp_oracle, identity


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def sparse_instance():
    prob = gen_sparse(n=200, p=500, s=75, corr=0.2, y_norm=20.0, seed=0)
    cert = certify(prob.X, L1(), prob.y, cfg=make_config(prob.X, max_iter=500_000),
                   check_every=100)
    return prob, cert


@pytest.fixture(scope="session")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_criterion_1_basis_pursuit_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        Xm = rng.standard_normal((4, 8))
        y = rng.standard_normal(4)
        X = DenseOperator(Xm)
        cert = certify(X, L1(), y, cfg=make_config(X, max_iter=400_000),
                       feas_tol=1e-11, subgrad_tol=1e-9, check_every=25)
        w_oracle, _ = bp_oracle(Xm, y)
        worst = max(worst, float(np.linalg.norm(cert.w_star - w_oracle)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report("criterion 1 (basis-pursuit oracle equivalence)", ok,
           f"max deviation {worst:.2e} (tol 1e-5) over 50 instances in {elapsed:.1f}s (cap 10s)")


def test_criterion_2_noiseless_rate_bounds(sparse_instance):
    prob, cert = sparse_instance
    J = L1()
    worst_gap, worst_feas = -np.inf, -np.inf
    ok = True
    details = []
    for eps in (0.25, 0.5, 0.9):
        t0 = time.monotonic()
        cfg = make_config(prob.X, epsilon=eps, max_iter=5000, record_every=1)
        log = run(prob.X, J, prob.y, cfg, reference=cert, columns=("gap_avg", "res_avg_clean"))
        v0 = weighted_v(-cert.w_star, -cert.theta_star, cfg.tau, cfg.sigma)
        b = BoundInputs(v0=v0, sigma=cfg.sigma, epsilon=eps, delta=0.0)
        past = log.ks() >= 1
        k = log.ks()[past]
        gap_bound = v0 / k
        feas_bound = 2 * (1 + eps) * v0 / (cfg.sigma * eps * (1 - eps) * k)
        assert gap_bound == pytest.approx(stability_gap_bound(k, b))
        assert feas_bound == pytest.approx(stability_feas_bound(k, b))
        worst_gap = max(worst_gap, np.max(log.column("gap_avg")[past] / gap_bound))
        worst_feas = max(worst_feas, np.max(log.column("res_avg_clean")[past] ** 2 / feas_bound))
        elapsed = time.monotonic() - t0
        ok = ok and elapsed < 60.0
        details.append(f"eps={eps}: {elapsed:.1f}s")
    ok = ok and worst_gap <= 1 + 1e-8 and worst_feas <= 1 + 1e-8
    report("criterion 2 (noiseless rate bounds)", ok,
           f"worst gap ratio {worst_gap:.3f}, worst residual ratio {worst_feas:.3f} "
           f"(cap 1+1e-8) for all k in [1,5000]; {'; '.join(details)} (cap 60s each)")


def test_criterion_3_noisy_stability_bounds(sparse_instance):
    from iterreg.problems import add_noise

    prob, cert = sparse_instance
    J = L1()
    eps = 0.5
    t0 = time.monotonic()
    cfg = make_config(prob.X, epsilon=eps, max_iter=5000, record_every=1)
    v0 = weighted_v(-cert.w_star, -cert.theta_star, cfg.tau, cfg.sigma)
    worst_gap, worst_feas = -np.inf, -np.inf
    for di, delta in enumerate((0.1, 1.0, 3.0)):
        b = BoundInputs(v0=v0, sigma=cfg.sigma, epsilon=eps, delta=delta)
        for seed_idx in range(5):
            noisy = add_noise(prob, delta, child_seed(0, 300 + di, seed_idx))
            log = run(prob.X, J, noisy.y_delta, cfg, reference=cert,
                      columns=("gap_avg", "res_avg_clean"))
            past = log.ks() >= 1
            k = log.ks()[past]
            worst_gap = max(worst_gap,
                            np.max(log.column("gap_avg")[past] / stability_gap_bound(k, b)))
            worst_feas = max(worst_feas, np.max(log.column("res_avg_clean")[past] ** 2
                                                / stability_feas_bound(k, b)))
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1 + 1e-8 and worst_feas <= 1 + 1e-8 and elapsed < 300.0
    report("criterion 3 (noisy stability bounds)", ok,
           f"worst gap ratio {worst_gap:.3f}, worst residual ratio {worst_feas:.3f} "
           f"(cap 1+1e-8) over deltas (0.1, 1, 3) x 5 seeds, k in [1,5000]; "
           f"{elapsed:.0f}s (cap 300s)")


def test_criterion_4_stopping_time_scaling(out_root):
    t0 = time.monotonic()
    spec = ExperimentSpec(name="stoptime", out_dir=out_root / "stoptime", seed=0,
                          max_iter=5000, record_every=1,
                          deltas=tuple(np.linspace(0.1, 6.0, 20)), replicates=15)
    summary = run_stoptime(spec)
    elapsed = time.monotonic() - t0
    fit = summary["fit"]
    ok = (fit["pearson_r"] >= 0.9 and fit["rel_intercept"] <= 0.2
          and elapsed < 900.0)
    report("criterion 4 (stopping-time scaling)", ok,
           f"pearson r {fit['pearson_r']:.3f} (need >= 0.9), relative intercept "
           f"{fit['rel_intercept']:.3f} (need <= 0.2), 20 deltas in [0.1,6] x 15 "
           f"replicates; {elapsed:.0f}s (cap 900s)")


def test_criterion_5_semiconvergence_existence(out_root):
    t0 = time.monotonic()
    sparse_spec = ExperimentSpec(name="semiconv", out_dir=out_root / "semiconv",
                                 seed=0, max_iter=5000, record_every=1,
                                 deltas=(0.6, 1.2, 2.4), replicates=10)
    sparse_sum = run_semiconv(sparse_spec)
    mc_spec = ExperimentSpec(name="matcomp", out_dir=out_root / "matcomp",
                             seed=0, max_iter=5000, record_every=1,
                             deltas=(2.5, 4.0, 8.0), replicates=3)
    mc_sum = run_matcomp(mc_spec)
    elapsed = time.monotonic() - t0
    means = sparse_sum["mean_min_by_delta"]
    ordered = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    ok = (sparse_sum["all_interior"] and mc_sum["all_interior"] and ordered
          and elapsed < 300.0)
    worst_margin = min(min(info["margins"]) for summary in (sparse_sum, mc_sum)
                       for info in summary["per_delta"].values())
    report("criterion 5 (semi-convergence existence)", ok,
           f"interior minima >=1% below endpoints in every replicate "
           f"(sparse deltas (0.6,1.2,2.4) x10, completion deltas (2.5,4,8) x3); "
           f"worst relative dip {worst_margin * 100:.1f}% (need >= 1.01%); mean minimal "
           f"distance nondecreasing in delta {ordered}; {elapsed:.0f}s (cap 300s)")


def test_criterion_6_norm_bound_dominance(sparse_instance):
    t0 = time.monotonic()
    cases = []
    for seed, kwargs, tols in (
            (11, dict(n=4, p=8, s=2, corr=0.0, y_norm=3.0), (1e-12, 1e-10)),
            (12, dict(n=4, p=8, s=2, corr=0.3, y_norm=3.0), (1e-12, 1e-10)),
            (13, dict(n=20, p=50, s=5, corr=0.2, y_norm=10.0), (1e-11, 1e-9))):
        prob = gen_sparse(seed=seed, **kwargs)
        cert = certify(prob.X, L1(), prob.y, cfg=make_config(prob.X, max_iter=500_000),
                       feas_tol=tols[0], subgrad_tol=tols[1], check_every=50)
        cases.append((prob, cert))
    cases.append(sparse_instance)

    worst_ratio = np.inf
    checked = 0
    for prob, cert in cases:
        gd = norm_bound_data(prob.X, cert)
        rng = np.random.default_rng(6000 + prob.seed)
        for scale in (1e-3, 1e-1, 1.0):
            for _ in range(1000 // 3 + 1):
                w = cert.w_star + scale * rng.standard_normal(prob.X.in_dim)
                dist = float(np.linalg.norm(w - cert.w_star))
                bound = norm_bound(w, cert, gd, prob.X)
                worst_ratio = min(worst_ratio, bound * (1 + 1e-8) / dist)
                checked += 1
    elapsed = time.monotonic() - t0
    ok = worst_ratio >= 1.0 and elapsed < 30.0
    report("criterion 6 (norm-bound dominance)", ok,
           f"bound/distance >= 1 on {checked} perturbations over 4 instances "
           f"(worst ratio {worst_ratio:.3f}); {elapsed:.1f}s (cap 30s)")


def test_criterion_7_gap_bregman_identity_and_nonnegativity(
        tiny_l1_problem, tiny_l1_cert, small_sql2, small_sql2_cert,
        small_nuclear, small_nuclear_cert):
    t0 = time.monotonic()
    instances = [
        ("l1", tiny_l1_problem.X, L1(), tiny_l1_cert),
        ("sq_l2", small_sql2[0], small_sql2[1], small_sql2_cert),
        ("nuclear", small_nuclear[0], small_nuclear[1], small_nuclear_cert),
    ]
    id_failures = neg_failures = 0
    min_gap = np.inf
    for tag, X, J, cert in instances:
        rng = np.random.default_rng(7000)
        for _ in range(1000):
            w = rng.standard_normal(X.in_dim)
            theta = rng.standard_normal(X.out_dim)
            if not gap_equals_bregman_check(w, cert, X, J):
                id_failures += 1
            g = gap(w, theta, cert, X, J)
            min_gap = min(min_gap, g)
            if g < -1e-10:
                neg_failures += 1
    elapsed = time.monotonic() - t0
    ok = id_failures == 0 and neg_failures == 0 and elapsed < 10.0
    report("criterion 7 (gap-Bregman identity and nonnegativity)", ok,
           f"identity holds to 1e-10 and gap >= -1e-10 on 1000 random points per "
           f"instance class (l1, sq_l2, nuclear); {id_failures} identity and "
           f"{neg_failures} negativity failures, min gap {min_gap:.2e}; "
           f"{elapsed:.1f}s (cap 10s)")


def test_criterion_8_path_comparison(out_root):
    t0 = time.monotonic()
    spec = ExperimentSpec(name="pathcmp", out_dir=out_root / "pathcmp", seed=0)
    summary = run_pathcmp(spec)
    elapsed = time.monotonic() - t0
    mse_ok = summary["best_cp_mse"] <= 1.15 * summary["best_lasso_mse"]
    iter_ok = summary["best_cp_k"] <= 0.2 * summary["lasso_cum_iters_to_best"]
    ends_ok = (summary["lasso_end_mse"] > summary["best_lasso_mse"]
               and summary["cp_end_mse"] > summary["best_cp_mse"])
    ok = mse_ok and iter_ok and ends_ok and elapsed < 300.0
    report("criterion 8 (path comparison)", ok,
           f"held-out MSE ratio {summary['mse_ratio']:.3f} (need <= 1.15), iteration "
           f"ratio {summary['iter_ratio']:.4f} (need <= 0.2), unregularized path ends "
           f"worse than early-stopped optima {ends_ok}; {elapsed:.0f}s (cap 300s)")


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    rng = np.random.default_rng(9000)
    failures = []

    biases = [(L1(), 8), (SqL2(0.5), 8), (Nuclear(2, 4), 8)]
    for J, dim in biases:
        for _ in range(200):
            tau = float(rng.choice([0.1, 1.0, 10.0]))
            u = rng.standard_normal(dim) * 5
            v = rng.standard_normal(dim) * 5
            pu, pv = J.prox(tau, u), J.prox(tau, v)
            lhs = np.dot(pu - pv, pu - pv)
            rhs = np.dot(pu - pv, u - v)
            if lhs > rhs + 1e-10 * (1 + abs(rhs)):
                failures.append(f"firm nonexpansiveness {J!r}")

    for _ in range(200):
        tau = float(rng.choice([0.1, 1.0, 10.0]))
        v = rng.standard_normal(10) * 4
        lhs = L1().prox(tau, v) + tau * np.clip(v / tau, -1.0, 1.0)
        if not np.allclose(lhs, v, atol=1e-10):
            failures.append("moreau identity")

    J_nuc = Nuclear(4, 4)
    for _ in range(200):
        V = rng.standard_normal((4, 4)) * 2
        tau = 1.0
        U, s, Vt = np.linalg.svd(V)
        Uo, so, Vto = np.linalg.svd(J_nuc.prox(tau, V.ravel()).reshape(4, 4))
        for i, sv in enumerate(s):
            if sv > tau + 1e-6:
                if (abs(abs(U[:, i] @ Uo[:, i]) - 1) > 1e-8
                        or abs(abs(Vt[i] @ Vto[i]) - 1) > 1e-8):
                    failures.append("svt subspaces")

    ops = [DenseOperator(rng.standard_normal((5, 9))),
           MaskOperator((3, 4), [(0, 1), (2, 3), (1, 0)]),
           Grad2D(3, 4),
           tv_reformulate(identity(12), np.zeros(12), 3, 4)[0]]
    for _ in range(200):
        op = ops[int(rng.integers(len(ops)))]
        w = rng.standard_normal(op.in_dim)
        th = rng.standard_normal(op.out_dim)
        if abs(op.apply(w) @ th - w @ op.adjoint(th)) > 1e-10 * (
                1 + np.linalg.norm(w) * np.linalg.norm(th)):
            failures.append("adjoint consistency")

    for case in range(200):
        case_rng = np.random.default_rng(9100 + case)
        X = DenseOperator(case_rng.standard_normal((3, 6)))
        y = case_rng.standard_normal(3)
        J = L1()
        cfg = make_config(X, epsilon=0.9, max_iter=20)
        state = initial_state(X)
        acc = np.zeros(3)
        for _ in range(20):
            state = step(state, X, J, y, cfg)
            acc += X.apply(state.w) - y
            if np.linalg.norm(state.theta - cfg.sigma * acc) > 1e-10 * (
                    1 + np.linalg.norm(state.theta)):
                failures.append("theta equals summed residuals")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    report("criterion 9 (prox/operator property suites)", ok,
           f"200 random cases per property (firm nonexpansiveness, Moreau, SVT "
           f"subspaces, adjoint consistency, dual-as-residual-sum); failures: "
           f"{sorted(set(failures)) or 'none'}; {elapsed:.1f}s (cap 30s)")
