"""Each checker of the benchmark accepts a correct answer and rejects a perturbed one.

    PYTHONPATH=src python3 -m pytest benchmark/test_checks.py -q
"""

import numpy as np
import pytest

from iterreg import L1, DenseOperator, SaddleCertificate, gen_sparse, initial_state, make_config, run, step

import checks
import spans
import workloads

X23 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
Y23 = np.array([1.0, 1.0])
W23 = np.array([0.0, 0.0, 1.0])
THETA23 = np.array([-0.5, -0.5])  # -X^T theta = (0.5, 0.5, 1), a subgradient at W23


def test_enumerator_finds_the_2x3_minimum():
    assert np.allclose(checks.min_l1_interpolant(X23, Y23), W23)


def test_tiny_check_accepts_the_minimum_and_rejects_a_shift():
    ctx = {"instances": [(X23, Y23)] * 3}
    failed, _ = workloads.tiny_check(ctx, [W23, W23 + 1e-3, RuntimeError("no certificate")])
    assert failed == {1, 2}


def test_l1_conditions():
    assert checks.l1_conditions(X23, Y23, W23, THETA23, feas_tol=1e-12) == []
    shifted = checks.l1_conditions(X23, Y23, W23 + 1e-3, THETA23, feas_tol=1e-12)
    assert {"feasibility", "sign on support"} <= set(shifted)
    assert checks.l1_conditions(X23, Y23, W23, 1.2 * THETA23, feas_tol=1e-12) == [
        "dual bound", "sign on support"]


def test_nuclear_conditions():
    shape, full = (2, 2), [(i, j) for i in range(2) for j in range(2)]
    W = np.array([[3.0, 0.0], [0.0, 1.0]])
    theta = -np.eye(2)  # G = I = U V^T of W, so <G, W> = ||W||_*
    y = W.ravel()
    assert checks.nuclear_conditions(shape, full, y, W.ravel(), theta.ravel(), 1e-12) == []
    shifted = checks.nuclear_conditions(shape, full, y, W.ravel() + 1e-3, theta.ravel(), 1e-12)
    assert "feasibility" in shifted
    assert checks.nuclear_conditions(shape, full, y, W.ravel(), 1.1 * theta.ravel(),
                                     1e-12) == ["spectral bound", "alignment"]
    assert checks.nuclear_conditions(shape, full, y, W.ravel(), 0.5 * theta.ravel(),
                                     1e-12) == ["alignment"]
    # Off-mask entries of W are free: only the observed entry (0, 0) is checked.
    assert checks.nuclear_conditions(shape, [(0, 0)], y, (W + [[0, 1], [1, 0]]).ravel(),
                                     theta.ravel(), 1e-12) == ["alignment"]


@pytest.fixture(scope="module")
def small_sparse():
    prob = gen_sparse(n=20, p=50, s=5, corr=0.2, y_norm=10.0, seed=13)
    cfg = make_config(prob.X, epsilon=0.99, max_iter=300)
    return prob, cfg


def test_plain_loop_reproduces_the_distance_curve(small_sparse):
    prob, cfg = small_sparse
    y_obs = checks.noisy_data(prob.y, 0.5, checks.child_seed(0, 1, 2))
    ref = SaddleCertificate(w_star=prob.ground_truth, theta_star=np.zeros(20),
                            feas_res=0.0, subgrad_res=0.0, y=prob.y)
    dist = run(prob.X, L1(), y_obs, cfg, reference=ref).column("dist_ref")
    mine = checks.oracle_curve(prob.X.matrix, y_obs, cfg.tau, cfg.sigma, 300, prob.ground_truth)
    assert np.array_equal(mine, dist)
    off = checks.oracle_curve(prob.X.matrix, y_obs, cfg.tau, cfg.sigma, 300,
                              prob.ground_truth + 1e-3)
    assert np.max(np.abs(off - dist)) > 1e-9 * np.max(dist)


def test_plain_loop_reproduces_the_heldout_curve(small_sparse):
    prob, cfg = small_sparse
    Xm, y = prob.X.matrix, prob.y
    train, test = np.arange(15), np.arange(15, 20)
    X_tr = DenseOperator(Xm[train])
    cfg = make_config(X_tr, epsilon=0.99, max_iter=100)
    state, want = initial_state(X_tr), [float(np.mean((Xm[test] @ np.zeros(50) - y[test]) ** 2))]
    for _ in range(100):
        state = step(state, X_tr, L1(), y[train], cfg)
        want.append(float(np.mean((Xm[test] @ state.w - y[test]) ** 2)))
    mine = checks.heldout_curve(Xm[train], y[train], Xm[test], y[test], cfg.tau, cfg.sigma, 100)
    assert np.array_equal(mine, want)
    slower = checks.heldout_curve(Xm[train], y[train], Xm[test], y[test],
                                  0.9 * cfg.tau, cfg.sigma, 100)
    assert not np.allclose(slower, want, rtol=1e-9, atol=0)


def test_step_condition():
    Xm = np.diag([2.0, 1.0])
    assert checks.step_condition(Xm, 0.49, 0.5, 0.99)
    assert not checks.step_condition(Xm, 0.5, 0.5, 0.99)


def test_inverse_time_slope():
    deltas, ks = [1.0, 1.0, 2.0, 2.0, 4.0], [100, 80, 50, 40, 20]
    assert checks.inverse_time_slope(deltas, ks) > 0
    assert checks.inverse_time_slope(deltas, ks[::-1]) < 0


def test_pathcmp_violations():
    grid = np.linspace(-1.0, 1.0, 50)
    lasso = np.tile(1.0 + grid ** 2 + 0.1 * (grid > 0), (4, 1))
    cp = np.tile(1.0 + np.linspace(-0.2, 1.0, 101) ** 2, (4, 1))
    iters = np.full(50, 20.0)
    assert checks.pathcmp_violations(lasso, cp, iters) == []
    assert checks.pathcmp_violations(lasso, cp + 0.2, iters) == ["held-out MSE ratio above 1.15"]
    assert checks.pathcmp_violations(lasso, cp, iters / 100) == ["iteration ratio above 0.2"]
    assert checks.pathcmp_violations(lasso, cp[:, :18], iters) == [
        "a path does not end worse than its optimum"]


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    tr.names = ["pdsolver.step", "linop.apply", "linop.adjoint", "bias.prox"]
    for nid, parent, start, end in ((0, -1, 0.0, 10e-6), (2, 0, 1e-6, 3e-6),
                                    (3, 0, 4e-6, 7e-6), (1, 0, 8e-6, 9e-6)):
        tr.name_id.append(nid)
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    m = spans.layer_metrics(tr, wall_s=2.5)
    assert m["trace.wall_s"] == 2.5
    assert m["pdsolver.step_self_us"] == pytest.approx(4.0)
    assert m["pdsolver.step_us_p50"] == pytest.approx(10.0)
    assert m["linop.calls"] == 2 and m["bias.prox_calls"] == 1
    assert m["bias.prox_us"] == pytest.approx(3.0)


def test_operator_bytes_follow_each_operator():
    # Operators of two shapes made and dropped in turn, so a freed
    # operator's id is free to come back on the next one.
    tr = spans.install()
    try:
        expected = 0
        for i in range(20):
            shape = (2, 3) if i % 2 else (40, 50)
            op = DenseOperator(np.ones(shape))
            op.apply(np.ones(shape[1]))
            expected += op.matrix.nbytes + 8 * shape[1]
            del op
    finally:
        tr.uninstall()
    assert tr.counts["linop.bytes"] == expected
