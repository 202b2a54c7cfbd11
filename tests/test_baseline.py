import numpy as np
import pytest

from iterreg import (
    ContractViolation,
    DenseOperator,
    L1,
    gen_sparse,
    identity,
    lambda_grid,
    lasso_path,
    soft_threshold,
    solve_tikhonov,
)

from conftest import bp_oracle


class TestLambdaGrid:
    def test_unit_anchor_spans_three_decades(self):
        X = identity(3)
        y = np.array([1.0, 0.0, 0.0])
        grid = lambda_grid(X, y, count=100, span_decades=3.0)
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1e-3)
        assert len(grid) == 100

    def test_two_points_one_decade(self):
        X = identity(2)
        y = np.array([2.0, 0.0])
        grid = lambda_grid(X, y, count=2, span_decades=1.0)
        assert grid == pytest.approx([2.0, 0.2])

    def test_log_uniform_ratios(self):
        X = identity(4)
        y = np.array([3.0, 1.0, 0.0, 0.0])
        grid = lambda_grid(X, y, count=25, span_decades=3.0)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert np.ptp(ratios) <= 1e-12

    def test_zero_data_rejected(self):
        with pytest.raises(ContractViolation):
            lambda_grid(identity(2), np.zeros(2))

    def test_count_validated(self):
        with pytest.raises(ContractViolation):
            lambda_grid(identity(2), np.ones(2), count=1)

    @pytest.mark.parametrize("span", [np.nan, np.inf, -1.0, 0.0])
    def test_span_must_be_finite_and_positive(self, span):
        with pytest.raises(ContractViolation,
                           match=f"^span_decades must be finite and > 0, got {span}$"):
            lambda_grid(identity(2), np.ones(2), count=4, span_decades=span)


class TestSolveTikhonov:
    def test_identity_closed_form(self):
        y = np.array([3.0, -1.0, 0.2, 0.0])
        for lam in (0.5, 1.0, 4.0):
            sol = solve_tikhonov(identity(4), L1(), y, lam, tol=1e-12)
            assert sol.converged
            assert np.allclose(sol.w, soft_threshold(y, lam / 2.0), atol=1e-10)

    def test_huge_penalty_gives_zero(self):
        rng = np.random.default_rng(0)
        X = DenseOperator(rng.standard_normal((5, 8)))
        y = rng.standard_normal(5)
        lam = 10.0 * float(np.max(np.abs(X.adjoint(y))))
        sol = solve_tikhonov(X, L1(), y, lam, tol=1e-12)
        assert np.array_equal(sol.w, np.zeros(8))

    def test_small_penalty_approaches_min_l1_interpolator(self, tiny_bp):
        # cold starts crawl at tiny penalties; walk the path with warm starts
        X, J, y = tiny_bp
        lam_max = float(np.max(np.abs(X.adjoint(y))))
        grid = [lam_max * 10 ** (-6 * t / 24) for t in range(25)]
        path = lasso_path(X, y, grid, tol=1e-12, max_iter=100_000)
        w_oracle, _ = bp_oracle(X.matrix, y)
        assert np.linalg.norm(path.solutions[-1] - w_oracle) <= 1e-3

    def test_budget_exhaustion_flagged(self):
        rng = np.random.default_rng(1)
        X = DenseOperator(rng.standard_normal((5, 8)))
        y = rng.standard_normal(5)
        sol = solve_tikhonov(X, L1(), y, 1e-8, tol=1e-14, max_iter=5)
        assert not sol.converged
        assert sol.iters == 5

    def test_prox_fixed_point_residual(self):
        rng = np.random.default_rng(2)
        X = DenseOperator(rng.standard_normal((6, 10)))
        y = rng.standard_normal(6)
        lam, tol = 0.8, 1e-9
        sol = solve_tikhonov(X, L1(), y, lam, tol=tol)
        nu = X.norm_est()
        step = 1.0 / nu**2
        again = L1().prox(lam * step / 2.0, sol.w - step * X.adjoint(X.apply(sol.w) - y))
        assert np.linalg.norm(again - sol.w) <= tol * (1 + np.linalg.norm(sol.w))


class TestLassoPath:
    def test_identity_path_is_soft_thresholds(self):
        y = np.array([3.0, -2.0, 0.5])
        X = identity(3)
        grid = lambda_grid(X, y, count=10, span_decades=2.0)
        path = lasso_path(X, y, grid, tol=1e-12)
        for lam, w in zip(path.lambdas, path.solutions):
            assert np.allclose(w, soft_threshold(y, lam / 2.0), atol=1e-9)

    def test_grid_must_decrease(self):
        with pytest.raises(ContractViolation):
            lasso_path(identity(2), np.ones(2), [1.0, 1.0])

    def test_anchor_solution_smaller_than_half_anchor(self):
        rng = np.random.default_rng(3)
        X = DenseOperator(rng.standard_normal((10, 20)))
        y = rng.standard_normal(10)
        lam_max = float(np.max(np.abs(X.adjoint(y))))
        w_at = solve_tikhonov(X, L1(), y, lam_max, tol=1e-10).w
        w_half = solve_tikhonov(X, L1(), y, lam_max / 2.0, tol=1e-10).w
        assert np.linalg.norm(w_at) <= np.linalg.norm(w_half) + 1e-12

    def test_warm_start_cheaper_than_cold(self):
        total_warm, total_cold = 0, 0
        for seed in range(5):
            prob = gen_sparse(n=25, p=50, s=5, y_norm=5.0, seed=seed)
            X, y = prob.X, prob.y
            grid = lambda_grid(X, y, count=12, span_decades=2.0)
            path = lasso_path(X, y, grid, tol=1e-8)
            total_warm += sum(path.inner_iters)
            total_cold += sum(
                solve_tikhonov(X, L1(), y, lam, tol=1e-8).iters for lam in grid)
        assert total_warm <= total_cold

    def test_path_monotone_tradeoff(self):
        prob = gen_sparse(n=20, p=40, s=4, y_norm=5.0, seed=9)
        grid = lambda_grid(prob.X, prob.y, count=15, span_decades=2.5)
        path = lasso_path(prob.X, prob.y, grid, tol=1e-10)
        J = L1()
        jvals = [J(w) for w in path.solutions]
        resid = [np.linalg.norm(prob.y - prob.X.apply(w)) for w in path.solutions]
        assert all(a <= b + 1e-6 for a, b in zip(jvals, jvals[1:]))
        assert all(a >= b - 1e-6 for a, b in zip(resid, resid[1:]))

    def test_csv_output(self, tmp_path):
        prob = gen_sparse(n=10, p=20, s=2, y_norm=4.0, seed=0)
        grid = lambda_grid(prob.X, prob.y, count=5, span_decades=1.0)
        path = lasso_path(prob.X, prob.y, grid, tol=1e-8)
        path.write_csv(tmp_path / "path.csv")
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "# iterreg-csv v1"
        assert lines[1] == "lambda,inner_iters,objective,nnz"
        assert len(lines) == 2 + 5
