import csv

import numpy as np
import pytest

from iterreg import (
    CertificationFailure,
    ContractViolation,
    DenseOperator,
    IterateLog,
    L1,
    MaskOperator,
    Nuclear,
    NumericalFailure,
    PdState,
    SaddleCertificate,
    SolverConfig,
    add_noise,
    certify,
    gen_matcomp,
    gen_sparse,
    initial_state,
    iterate,
    make_config,
    oracle_stop,
    run,
    step,
    subgradient_residual,
    tv_reformulate,
)
from iterreg.metrics import BoundInputs, stability_feas_bound, stability_gap_bound, weighted_v
from iterreg import pdsolver
from iterreg.pdsolver import LOG_COLUMNS, recorded, recorded_iterations, write_csv

from conftest import bp_oracle, identity, power_norm


class TestConfig:
    def test_epsilon_range(self):
        with pytest.raises(ContractViolation):
            SolverConfig(epsilon=1.0, tau=0.1, sigma=0.1, max_iter=10)
        with pytest.raises(ContractViolation):
            SolverConfig(epsilon=0.0, tau=0.1, sigma=0.1, max_iter=10)

    @pytest.mark.parametrize("tau, sigma", [(0.0, 0.1), (np.nan, np.nan), (np.nan, 0.1),
                                            (0.1, np.nan)])
    def test_positive_steps(self, tau, sigma):
        with pytest.raises(ContractViolation, match="step sizes must be positive"):
            SolverConfig(epsilon=0.5, tau=tau, sigma=sigma, max_iter=10)

    def test_make_config_names_a_non_finite_norm_estimate(self):
        with pytest.raises(ContractViolation, match="non-finite norm estimate nan"):
            make_config(DenseOperator([[1.0, np.nan], [0.0, 1.0]]))

    def test_record_every(self):
        with pytest.raises(ContractViolation):
            SolverConfig(epsilon=0.5, tau=0.1, sigma=0.1, max_iter=10, record_every=0)

    @pytest.mark.parametrize("name, value", [("max_iter", 2.7), ("record_every", 2.5),
                                             ("max_iter", 3.0), ("max_iter", -1),
                                             ("record_every", 0)])
    def test_make_config_rejects_a_budget_or_stride_that_is_no_integer_in_range(
            self, name, value):
        with pytest.raises(ContractViolation, match=f"^{name} must be an integer >= .*{value}$"):
            make_config(DenseOperator(np.eye(2)), **{name: value})

    def test_make_config_keeps_integer_budget_and_stride(self):
        cfg = make_config(DenseOperator(np.eye(2)), max_iter=np.int64(7), record_every=3)
        assert (cfg.max_iter, cfg.record_every) == (7, 3)

    def test_default_steps_meet_product(self):
        X = DenseOperator(np.diag([2.0, 1.0]))
        cfg = make_config(X, epsilon=0.5)
        nu = X.norm_est()
        assert cfg.sigma * cfg.tau * nu * nu == pytest.approx(0.5, rel=1e-9)
        assert cfg.tau == cfg.sigma


class _SpoiledL1(L1):
    """L1 whose prox writes ``value`` into entry ``entry`` of its result on call number ``call``."""

    def __init__(self, value, entry, call):
        self.value, self.entry, self.call, self.calls = value, entry, call, 0

    def prox(self, tau, v):
        out = super().prox(tau, v)
        self.calls += 1
        if self.calls == self.call:
            out[self.entry] = self.value
        return out


class TestStep:
    def cfg(self):
        return SolverConfig(epsilon=0.5, tau=0.5, sigma=0.5, max_iter=10)

    def test_zero_is_fixed_point_for_zero_data(self):
        X, J, y = identity(1), L1(), np.zeros(1)
        st = initial_state(X)
        st = step(st, X, J, y, self.cfg())
        assert np.array_equal(st.w, [0.0])
        assert np.array_equal(st.theta, [0.0])

    def test_two_hand_steps(self):
        X, J, y = identity(1), L1(), np.array([1.0])
        st = initial_state(X)
        st = step(st, X, J, y, self.cfg())
        assert st.w[0] == 0.0
        assert st.theta[0] == pytest.approx(-0.5)
        st = step(st, X, J, y, self.cfg())
        assert st.w[0] == 0.0
        assert st.theta[0] == pytest.approx(-1.0)
        assert st.k == 2

    def test_initial_state_invariants(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        st = initial_state(X)
        assert st.k == 0
        assert np.array_equal(st.w, np.zeros(3))
        assert np.array_equal(st.theta, np.zeros(2))
        assert np.array_equal(st.theta_prev, np.zeros(2))
        assert np.array_equal(st.xw, X.apply(st.w))
        # at k = 0 the averaged columns read the initial point itself
        cfg = make_config(X, max_iter=0)
        log = run(X, J, y, cfg, reference=tiny_bp_cert)
        assert list(log.ks()) == [0]
        assert log.column("dist_ref")[0] == np.linalg.norm(tiny_bp_cert.w_star)
        assert log.column("dist_avg_ref")[0] == log.column("dist_ref")[0]
        assert log.column("res_avg_clean")[0] == log.column("res_clean")[0]
        assert log.column("gap_avg")[0] == log.column("gap")[0]

    def test_non_finite_raises_with_iteration(self):
        X, J = identity(2), L1()
        st = initial_state(X)
        st.w = np.array([np.nan, 0.0])
        st.k = 6
        with pytest.raises(NumericalFailure, match="iteration 7") as err:
            step(st, X, J, np.zeros(2), self.cfg())
        assert err.value.k == 7 and err.value.columns is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("kind", ["mask-unobserved-cell", "dense-zero-column"])
    def test_a_non_finite_entry_only_in_w_is_caught_through_theta(self, kind, batch, value):
        """Only theta_{k+1} is tested: X w_{k+1} carries a bad entry of w_{k+1} into it.

        The entry sits where X has a zero column, so it reaches X w only
        because 0 * inf and 0 * nan are NaN; numpy's warning on 0 * inf is
        silenced here.
        """
        if kind == "mask-unobserved-cell":
            X, j = MaskOperator((2, 3), [(0, 0), (0, 2), (1, 1)]), 1
        else:
            A = np.random.default_rng(3).standard_normal((3, 5))
            A[:, 2] = 0.0
            X, j = DenseOperator(A), 2
        assert not X.as_matrix()[:, j].any()
        J = _SpoiledL1(value, (j, 1) if batch else (j,), call=4)
        y = np.random.default_rng(4).standard_normal((X.out_dim, *batch))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure,
                                                          match="iteration 4") as err:
            for st in iterate(X, J, y, make_config(X, max_iter=10)):
                assert np.isfinite(st.w).all() and np.isfinite(st.theta).all(), st.k
        assert err.value.k == 4 and J.calls == 4
        assert err.value.columns == ([1] if batch else None)

    @pytest.mark.parametrize("kind", ["dense-l1", "mask-nuclear", "tv-lift"])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_leaves_the_given_state_unchanged(self, kind, batch):
        """The update writes in place only into arrays that it made itself."""
        rng = np.random.default_rng(6)
        if kind == "dense-l1":
            X, J = DenseOperator(rng.standard_normal((4, 7))), L1()
        elif kind == "mask-nuclear":
            X, J = MaskOperator((3, 3), [(0, 0), (1, 2), (2, 1), (2, 2)]), Nuclear(3, 3)
        else:
            X, J, _ = tv_reformulate(MaskOperator((2, 3), [(0, 0), (1, 2)]), np.zeros(6), 2, 3)
        y = rng.standard_normal((X.out_dim, *batch))
        cfg = make_config(X, max_iter=5)
        st = list(iterate(X, J, y, cfg))[-1]
        arrays = (st.w, st.theta, st.theta_prev, st.xw, y)
        copies = [a.copy() for a in arrays]
        new = step(st, X, J, y, cfg)
        assert new.k == st.k + 1 == 6 and new.theta_prev is st.theta
        for a, before in zip(arrays, copies):
            assert np.array_equal(a, before)
        for a in (new.w, new.theta, new.xw):
            assert not any(np.shares_memory(a, b) for b in arrays)

    def test_running_average_matches_history(self):
        rng = np.random.default_rng(8)
        X = DenseOperator(rng.standard_normal((3, 5)))
        J = L1()
        y_clean = rng.standard_normal(3)
        y = y_clean + 0.1 * rng.standard_normal(3)
        ref = SaddleCertificate(w_star=rng.standard_normal(5), theta_star=rng.standard_normal(3),
                                feas_res=0.0, subgrad_res=0.0, y=y_clean)
        cfg = make_config(X, epsilon=0.9, max_iter=60, record_every=7)
        states = list(iterate(X, J, y, cfg))
        log = run(X, J, y, cfg, reference=ref)
        assert list(log.ks()) == [0, 7, 14, 21, 28, 35, 42, 49, 56, 60]
        for k, dist_avg, res_avg in zip(log.ks()[1:], log.column("dist_avg_ref")[1:],
                                        log.column("res_avg_clean")[1:]):
            w_mean = np.mean([s.w for s in states[1:k + 1]], axis=0)
            xw_mean = np.mean([s.xw for s in states[1:k + 1]], axis=0)
            dist = np.linalg.norm(w_mean - ref.w_star)
            res = np.linalg.norm(xw_mean - y_clean)
            assert dist_avg == pytest.approx(dist, rel=1e-12, abs=1e-14)
            assert res_avg == pytest.approx(res, rel=1e-12, abs=1e-14)

    def test_theta_is_scaled_residual_sum(self):
        rng = np.random.default_rng(9)
        X = DenseOperator(rng.standard_normal((4, 7)))
        J = L1()
        y = rng.standard_normal(4)
        cfg = make_config(X, epsilon=0.9, max_iter=50)
        st = initial_state(X)
        acc = np.zeros(4)
        for _ in range(50):
            st = step(st, X, J, y, cfg)
            acc += X.apply(st.w) - y
            assert np.linalg.norm(st.theta - cfg.sigma * acc) <= 1e-10 * (1 + np.linalg.norm(st.theta))


class TestIterate:
    def test_yields_every_k_up_to_the_budget(self, tiny_bp):
        X, J, y = tiny_bp
        for max_iter in (0, 1, 17):
            cfg = make_config(X, max_iter=max_iter)
            assert [s.k for s in iterate(X, J, y, cfg)] == list(range(max_iter + 1))

    def test_matches_hand_steps(self, tiny_bp):
        X, J, y = tiny_bp
        cfg = make_config(X, max_iter=5)
        st = initial_state(X)
        for s in iterate(X, J, y, cfg):
            assert s.k == st.k
            assert np.array_equal(s.w, st.w) and np.array_equal(s.theta, st.theta)
            st = step(st, X, J, y, cfg)

    def test_checks_step_sizes(self):
        X = identity(2)
        cfg = SolverConfig(epsilon=0.5, tau=1.0, sigma=1.0, max_iter=3)
        with pytest.raises(ContractViolation):
            next(iterate(X, L1(), np.zeros(2), cfg))

    def test_nan_step_size_product_is_rejected(self):
        cfg = make_config(identity(2), epsilon=0.5, max_iter=3)
        with pytest.raises(ContractViolation, match="step sizes violate .*nan"):
            next(iterate(DenseOperator([[1.0, np.nan], [0.0, 1.0]]), L1(), np.zeros(2), cfg))

    def test_step_size_product_1e_6_above_epsilon_is_rejected(self):
        X = identity(2)
        nu = X.norm_est()
        step_size = np.sqrt(0.5 * (1.0 + 1e-6)) / nu
        cfg = SolverConfig(epsilon=0.5, tau=step_size, sigma=step_size, max_iter=3)
        with pytest.raises(ContractViolation, match="step sizes violate"):
            next(iterate(X, L1(), np.zeros(2), cfg))

    @pytest.mark.parametrize("kind", ["dense-l1", "mask-nuclear", "tv-lift"])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_matches_the_plain_numpy_update(self, kind, batch):
        """Fifty states equal, bit for bit, the update written out in plain numpy.

        The transcription keeps the sign * max shrink and np.linalg.norm, so
        the faster shrink and norms of the library, and the in-place update of
        ``step``, must not move an iterate. The TV lift is written blockwise:
        the mask, then forward differences by np.diff and their adjoint by
        shifted copies, summed in the order of the lift.
        """
        if kind == "dense-l1":
            prob = gen_sparse(n=20, p=40, s=4, seed=1)
            A = prob.X.matrix
            X, J, y = prob.X, L1(), prob.y
            fwd, adj = (lambda w: A @ w), (lambda th: A.T @ th)

            def prox(t, v):
                return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        elif kind == "mask-nuclear":
            prob = gen_matcomp(d=6, r=2, obs_frac_denom=2, y_norm=6.0, seed=2)
            X, J, y = prob.X, Nuclear(6, 6), prob.y
            gain = X.gain if batch is None else X.gain[:, None]
            fwd = adj = lambda v: gain * v

            def prox(t, v):  # shrinkage through the eigendecomposition of M^T M
                M = v.T.reshape(v.shape[1:] + (6, 6))
                lam, Q = np.linalg.eigh(np.swapaxes(M, -1, -2) @ M)
                s = np.sqrt(np.maximum(lam, 0.0))
                f = np.maximum(s - t, 0.0) / np.maximum(s, t)
                return ((M @ (Q * f[..., None, :])) @ np.swapaxes(Q, -1, -2)).reshape(
                    M.shape[:-2] + (-1,)).T
        else:  # the TV lift: the gradient split of a 3 x 4 completion
            m, grid = 12, (3, 4)
            observe = MaskOperator(grid, [(0, 0), (0, 3), (1, 1), (2, 0), (2, 2)])
            X, J, y = tv_reformulate(observe, observe.apply(np.arange(12.0) % 5), *grid)
            gain = observe.gain if batch is None else observe.gain[:, None]

            def grad(v):  # the last row and column of each direction are zero
                V = v.reshape(grid + v.shape[1:])
                return np.concatenate([np.diff(V, axis=0, append=V[-1:]),
                                       np.diff(V, axis=1, append=V[:, -1:])]).reshape(
                    (2 * m, *v.shape[1:]))

            def grad_t(t):  # a[i-1] - a[i] + b[j-1] - b[j], absent terms as zeros
                a, b = (t[:m].reshape(grid + t.shape[1:]), t[m:].reshape(grid + t.shape[1:]))
                up, down, left, right = (np.zeros_like(a) for _ in range(4))
                up[1:], down[:-1] = a[:-1], a[:-1]
                left[:, 1:], right[:, :-1] = b[:, :-1], b[:, :-1]
                return (up - down + left - right).reshape(t[:m].shape)

            def fwd(w):
                return np.concatenate([gain * w[:m], grad(w[:m]) - w[m:]])

            def adj(th):
                return np.concatenate([gain * th[:m] + grad_t(th[m:]), -th[m:]])

            def prox(t, v):
                u = v[m:]
                return np.concatenate([v[:m], np.sign(u) * np.maximum(np.abs(u) - t, 0.0)])
        if batch is not None:
            y = y[:, None] + 0.5 * np.random.default_rng(9).standard_normal((y.size, batch))
        cfg = make_config(X, max_iter=50)
        tau = sigma = float(np.sqrt(0.99) / (1.01 * power_norm(X)))
        assert (cfg.tau, cfg.sigma) == (tau, sigma)
        w, theta = np.zeros((X.in_dim, *y.shape[1:])), np.zeros(y.shape)
        theta_prev = theta
        for st in iterate(X, J, y, cfg):
            if st.k:
                w = prox(tau, w - tau * adj(2.0 * theta - theta_prev))
                theta, theta_prev = theta + sigma * (fwd(w) - y), theta
                assert np.array_equal(st.xw, fwd(w))
            for got, want in ((st.w, w), (st.theta, theta), (st.theta_prev, theta_prev)):
                assert got.shape == want.shape and np.array_equal(got, want), st.k
        assert st.k == 50


class TestRecordedWalk:
    def test_recorded_iterations_is_an_int_array_ending_at_the_budget(self):
        assert recorded_iterations(3, 10).tolist() == [0, 3, 6, 9, 10]
        assert recorded_iterations(5, 10).tolist() == [0, 5, 10]
        assert recorded_iterations(4, 0).tolist() == [0]
        assert recorded_iterations(1, 3).dtype.kind == "i"

    def test_recorded_yields_the_states_at_the_given_k(self, tiny_bp):
        X, J, y = tiny_bp
        cfg = make_config(X, max_iter=12)
        states = list(iterate(X, J, y, cfg))
        picked = list(recorded(iter(states), recorded_iterations(5, 12)))
        assert [st.k for st in picked] == [0, 5, 10, 12]
        assert all(st is states[st.k] for st in picked)
        assert [st.k for st in recorded(states, np.array([3, 4]))] == [3, 4]
        assert list(recorded(states, np.array([], dtype=int))) == []

    @pytest.mark.parametrize("every", [0, -5, 2.5])
    def test_certify_rejects_a_stride_that_is_not_a_positive_integer_before_iterating(
            self, tiny_bp, monkeypatch, every):
        X, J, y = tiny_bp

        def no_step(*args):
            raise AssertionError("certify iterated")

        monkeypatch.setattr(pdsolver, "step", no_step)
        with pytest.raises(ContractViolation, match=f"stride .* integer >= 1, got {every}$"):
            certify(X, J, y, check_every=every)


class TestRun:
    def test_zero_iterations_logs_initial_row_only(self):
        X, J, y = identity(2), L1(), np.array([1.0, -1.0])
        cfg = make_config(X, max_iter=0)
        log = run(X, J, y, cfg)
        assert len(log) == 1
        assert log.ks()[0] == 0

    def test_record_every_includes_final(self):
        X, J, y = identity(2), L1(), np.array([1.0, -1.0])
        cfg = make_config(X, max_iter=10, record_every=4)
        log = run(X, J, y, cfg)
        assert list(log.ks()) == [0, 4, 8, 10]

    def test_tiny_bp_reaches_oracle(self, tiny_bp):
        X, J, y = tiny_bp
        cfg = make_config(X, max_iter=100_000, record_every=1000)
        log = run(X, J, y, cfg)
        assert log.column("res_noisy")[-1] <= 1e-8
        w_oracle, obj = bp_oracle(X.matrix, y)
        assert np.allclose(w_oracle, [0.0, 0.0, 1.0])
        assert log.column("j_val")[-1] == pytest.approx(obj, abs=1e-6)

    def test_determinism(self, tiny_bp, tmp_path):
        X, J, y = tiny_bp
        cfg = make_config(X, max_iter=500)
        log1 = run(X, J, y, cfg)
        log2 = run(X, J, y, cfg)
        log1.write_csv(tmp_path / "a.csv")
        log2.write_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_noiseless_rate_bounds_every_k(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        eps = 0.5
        cfg = make_config(X, epsilon=eps, max_iter=2000)
        log = run(X, J, y, cfg, reference=tiny_bp_cert)
        v0 = weighted_v(-tiny_bp_cert.w_star, -tiny_bp_cert.theta_star, cfg.tau, cfg.sigma)
        b = BoundInputs(v0=v0, sigma=cfg.sigma, epsilon=eps, delta=0.0)
        past = log.ks() >= 1
        k = log.ks()[past]
        assert np.all(log.column("gap_avg")[past] <= stability_gap_bound(k, b) * (1 + 1e-8))
        assert np.all(log.column("res_avg_clean")[past] ** 2
                      <= stability_feas_bound(k, b) * (1 + 1e-8))
        assert log.column("res_clean")[-1] <= 1e-3  # residual decays on clean data


class TestCertify:
    def test_identity_constraint_forces_data(self):
        rng = np.random.default_rng(12)
        X = identity(5)
        y = rng.standard_normal(5)
        J = L1()
        cert = certify(X, J, y, cfg=make_config(X, max_iter=200_000), check_every=20)
        assert np.allclose(cert.w_star, y, atol=1e-7)
        assert subgradient_residual(J, cert.w_star, -X.adjoint(cert.theta_star)) <= 1e-5

    def test_tiny_bp_certificate_residuals(self, tiny_bp_cert):
        assert tiny_bp_cert.feas_res <= 1e-12
        assert tiny_bp_cert.subgrad_res <= 1e-11

    def test_certificate_is_step_fixed_point(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        cfg = make_config(X, epsilon=0.9)
        w, theta = tiny_bp_cert.w_star, tiny_bp_cert.theta_star
        st = step(PdState(w=w, theta=theta, theta_prev=theta, k=0, xw=X.apply(w)), X, J, y, cfg)
        assert np.linalg.norm(st.w - tiny_bp_cert.w_star) <= 1e-10
        assert np.linalg.norm(st.theta - tiny_bp_cert.theta_star) <= 1e-10

    def test_infeasible_contradictory_observations(self):
        X = DenseOperator([[1.0, 0.0], [1.0, 0.0]])  # same row observed twice
        y = np.array([1.0, 2.0])  # contradictory values
        with pytest.raises(CertificationFailure) as err:
            certify(X, L1(), y, cfg=make_config(X, max_iter=2000), check_every=10)
        assert err.value.feas_res > 0

    def test_budget_exhaustion_names_max_iter(self):
        X = DenseOperator([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([1.0, 2.0])  # contradictory, so neither iterate nor polish certifies
        with pytest.raises(CertificationFailure, match="within 37 iterations"):
            certify(X, L1(), y, cfg=make_config(X, max_iter=37), check_every=10)

    @pytest.mark.parametrize("name, tol", [("feas_tol", np.nan), ("feas_tol", -1e-9),
                                           ("subgrad_tol", np.nan), ("subgrad_tol", -1.0)])
    def test_a_tolerance_no_residual_can_pass_is_rejected_before_iterating(
            self, tiny_bp, monkeypatch, name, tol):
        X, J, y = tiny_bp

        def no_step(*args):
            raise AssertionError("certify iterated")

        monkeypatch.setattr(pdsolver, "step", no_step)
        with pytest.raises(ContractViolation, match=f"^{name} must be >= 0, got {tol}$"):
            certify(X, J, y, **{name: tol})

    def test_zero_tolerance_can_pass(self, tiny_bp):
        X, J, y = tiny_bp
        cert = certify(X, J, y, feas_tol=0.0)
        assert cert.feas_res == 0.0

    def test_failure_names_the_iterations_of_its_best_residuals(self):
        X = DenseOperator([[1.0, 0.0], [1.0, 0.0]])
        y = np.array([1.0, 2.0])  # contradictory, so feasibility stalls while w settles
        J = L1()
        cfg = make_config(X, max_iter=95)
        with pytest.raises(CertificationFailure) as err:
            certify(X, J, y, cfg=cfg, check_every=10)
        fail = err.value
        checks = [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]
        assert [h[0] for h in fail.history] == checks
        # the history holds the residuals of the iterates, not of their polish
        assert fail.history == [(st.k, float(np.linalg.norm(st.xw - y)),
                                 subgradient_residual(J, st.w, -X.adjoint(st.theta)))
                                for st in iterate(X, J, y, cfg) if st.k in checks]
        feas = [h[1] for h in fail.history]
        sub = [h[2] for h in fail.history]
        assert fail.feas_k == fail.history[feas.index(min(feas))][0]
        assert fail.subgrad_k == fail.history[sub.index(min(sub))][0]
        assert (fail.feas_res, fail.subgrad_res) == (min(feas), min(sub))
        assert f"at k={fail.feas_k} " in str(fail) and f"at k={fail.subgrad_k} " in str(fail)


class TestPolish:
    def test_criterion_1_instances_certify_polished_at_the_oracle(self):
        for trial in range(5):
            rng = np.random.default_rng(1000 + trial)
            Xm, y = rng.standard_normal((4, 8)), rng.standard_normal(4)
            X = DenseOperator(Xm)
            cert = certify(X, L1(), y, cfg=make_config(X, max_iter=400_000),
                           feas_tol=1e-11, subgrad_tol=1e-9, check_every=25)
            assert cert.polished and cert.k % 25 == 0
            assert np.linalg.norm(cert.w_star - bp_oracle(Xm, y)[0]) <= 1e-9

    @pytest.mark.parametrize("seed", [1, 7])
    def test_degenerate_sparse_seeds_certify(self, seed):
        prob = gen_sparse(seed=seed)
        cert = certify(prob.X, L1(), prob.y, cfg=make_config(prob.X, max_iter=20_000),
                       check_every=100)
        Xm, y, w, theta = prob.X.matrix, prob.y, cert.w_star, cert.theta_star
        assert cert.polished and cert.k <= 20_000
        assert np.linalg.norm(Xm @ w - y) <= 1e-9 * np.linalg.norm(y)
        corr = -Xm.T @ theta
        assert np.max(np.abs(corr)) <= 1.0 + 1e-9
        on = np.flatnonzero(w)
        assert np.array_equal(np.sign(corr[on]), np.sign(w[on]))
        assert np.allclose(corr[on], np.sign(w[on]), rtol=0, atol=1e-9)

    def test_biases_without_a_polish_certify_plain(self, small_nuclear_cert, small_sql2_cert):
        for cert in (small_nuclear_cert, small_sql2_cert):
            assert cert.polished is False and cert.k % 100 == 0

    def test_support_larger_than_the_rows_is_not_polished(self):
        rng = np.random.default_rng(4)
        X, y = DenseOperator(rng.standard_normal((4, 8))), rng.standard_normal(4)
        w, theta = np.zeros(8), np.zeros(4)
        w[:5] = rng.standard_normal(5)
        assert L1().polish(X, y, w, theta) is None
        w[4] = 0.0  # a support of exactly n = 4 entries is still polished
        w_pol, _ = L1().polish(X, y, w, theta)
        assert np.allclose(X.apply(w_pol), y) and np.array_equal(w_pol[4:], np.zeros(4))


def _relative_gap(got, want):
    """Largest deviation of ``got`` from ``want`` over the largest magnitude of ``want``."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.fixture(scope="module")
def batched_cases(small_sql2, small_sql2_cert):
    """(X, J, Y, cfg, reference) for an l1, a nuclear, a squared-l2 and a lifted TV problem."""
    cases = []
    for prob, J, deltas in ((gen_sparse(seed=0), L1(), (0.5, 1.0, 2.0, 4.0)),
                            (gen_matcomp(seed=0), Nuclear(20, 20), (2.0, 4.0, 6.0))):
        cert = certify(prob.X, J, prob.y, cfg=make_config(prob.X, max_iter=500_000),
                       check_every=100)
        Y = np.stack([add_noise(prob, d, 7 + i).y_delta
                      for i, d in enumerate(deltas)], axis=1)
        cases.append((prob.X, J, Y, make_config(prob.X, max_iter=600), cert))
    X, J, y = small_sql2
    Y = y[:, None] + 0.3 * np.random.default_rng(3).standard_normal((3, 3))
    cases.append((X, J, Y, make_config(X, max_iter=400, record_every=7), small_sql2_cert))
    # lifted total variation: (w, u) -> (X w, grad w - u) and the l1 norm of u
    mask = MaskOperator((3, 4), [(0, 0), (0, 3), (1, 1), (1, 3), (2, 0), (2, 2), (2, 3)])
    image = np.array([[1.0, 1, 0, 0], [1, 1, 0, 0], [2, 2, 2, 0]]).ravel()
    X, J, y = tv_reformulate(mask, mask.apply(image), 3, 4)
    cert = certify(X, J, y, cfg=make_config(X, max_iter=200_000), check_every=100)
    noise = np.zeros((X.out_dim, 3))
    noise[:12] = mask.gain[:, None] * np.random.default_rng(3).standard_normal((12, 3))
    cases.append((X, J, y[:, None] + 0.3 * noise, make_config(X, max_iter=500, record_every=3),
                  cert))
    return cases


class TestBatched:
    def test_batched_run_matches_one_run_per_column(self, batched_cases):
        for X, J, Y, cfg, cert in batched_cases:
            logs = run(X, J, Y, cfg, reference=cert)
            assert len(logs) == Y.shape[1]
            for b, log in enumerate(logs):
                alone = run(X, J, Y[:, b], cfg, reference=cert)
                assert np.array_equal(log.ks(), alone.ks())
                assert oracle_stop(log)[0] == oracle_stop(alone)[0]
                for c in LOG_COLUMNS[1:]:
                    assert _relative_gap(log.column(c), alone.column(c)) <= 1e-9, (J, b, c)

    def test_initial_state_has_one_column_per_batch_entry(self, tiny_bp):
        X, _, _ = tiny_bp
        st = initial_state(X, (4,))
        assert st.w.shape == (3, 4) and st.theta.shape == st.xw.shape == (2, 4)

    def test_non_finite_column_is_named(self):
        X, J = identity(2), L1()
        Y = np.zeros((2, 3))
        Y[0, 1] = np.inf
        with pytest.raises(NumericalFailure, match=r"iteration 1 in columns \[1\]") as err:
            list(iterate(X, J, Y, make_config(X, max_iter=5)))
        assert err.value.k == 1 and err.value.columns == [1]


class _CountingBias:
    """A bias that counts its evaluations J(w) in ``calls``."""

    def __init__(self, J):
        self.J, self.calls = J, 0

    def __call__(self, w):
        self.calls += 1
        return self.J(w)

    def prox(self, tau, v):
        return self.J.prox(tau, v)


class TestColumns:
    # the columns that the distance curves and the bound checks of the experiments ask for
    SUBSETS = (("dist_ref", "dist_avg_ref"), ("gap_avg", "res_avg_clean"))

    def test_subset_matches_the_default_run_and_leaves_the_rest_empty(self, batched_cases):
        for X, J, Y, cfg, cert in batched_cases:
            full = run(X, J, Y, cfg, reference=cert)
            for columns in self.SUBSETS:
                counted = _CountingBias(J)
                logs = run(X, counted, Y, cfg, reference=cert, columns=columns)
                # J(w_avg) once per recorded row for gap_avg, plus J(w*) once
                assert counted.calls == (len(full[0]) + 1 if "gap_avg" in columns else 0)
                for log, want in zip(logs, full, strict=True):
                    assert np.array_equal(log.ks(), want.ks())
                    for c in LOG_COLUMNS[1:]:
                        if c in columns:
                            assert np.array_equal(log.column(c), want.column(c)), (J, c)
                        else:
                            assert np.all(np.isnan(log.column(c))), (J, c)

    def test_unknown_or_unreferenced_columns_raise(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        cfg = make_config(X, max_iter=3)
        with pytest.raises(ContractViolation, match="unknown log column 'dist'"):
            run(X, J, y, cfg, reference=tiny_bp_cert, columns=("dist_ref", "dist"))
        for c in ("res_clean", "dist_ref", "gap", "bregman", "res_avg_clean", "dist_avg_ref",
                  "gap_avg"):
            with pytest.raises(ContractViolation, match="needs a reference"):
                run(X, J, y, cfg, columns=("res_noisy", c))
        log = run(X, J, y, cfg, columns=("res_noisy",))
        assert np.array_equal(log.column("res_noisy"), run(X, J, y, cfg).column("res_noisy"))
        assert np.all(np.isnan(log.column("j_val")))


class TestIterateLog:
    def test_rows_must_increase(self):
        IterateLog(k=[0], res_clean=[1.0], res_noisy=[1.0], j_val=[0.0])
        with pytest.raises(ContractViolation):
            IterateLog(k=[0, 0], res_clean=[1.0, 0.5], res_noisy=[1.0, 0.5], j_val=[0.0, 0.0])

    def test_csv_writes_missing_values_as_empty_cells(self, tmp_path):
        nan = np.nan
        log = IterateLog(k=[0, 3], res_clean=[1.5, 1 / 3], res_noisy=[1.25, 0.25],
                         j_val=[0.5, 1.0], dist_ref=[nan, 0.125], gap=[nan, 1e-3],
                         bregman=[nan, 2e-3], res_avg_clean=[nan, 0.75],
                         dist_avg_ref=[nan, 0.375], gap_avg=[nan, 5e-4])
        path = tmp_path / "log.csv"
        log.write_csv(path)
        with open(path, newline="") as fh:
            assert fh.readline() == "# iterreg-csv v1\n"
            header, *rows = csv.reader(fh)
        assert header == list(LOG_COLUMNS)
        assert rows == [["0", "1.5", "1.25", "0.5", "", "", "", "", "", ""],
                        ["3", repr(1 / 3), "0.25", "1.0", "0.125", "0.001", "0.002", "0.75",
                         "0.375", "0.0005"]]

    def test_numpy_scalars_written_as_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c"), [(np.float64(0.1), np.int64(3), None)])
        with open(path, newline="") as fh:
            assert fh.readline() == "# iterreg-csv v1\n"
            (rec,) = list(csv.DictReader(fh))
        assert rec == {"a": "0.1", "b": "3", "c": ""}
        assert float(rec["a"]) == 0.1

    def test_column_with_nan_for_missing(self):
        log = IterateLog(k=[0], res_clean=[1.0], res_noisy=[1.0], j_val=[0.0])
        col = log.column("gap")
        assert np.isnan(col[0])
        with pytest.raises(ContractViolation):
            log.column("nope")
