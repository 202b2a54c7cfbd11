import re
import tracemalloc

import numpy as np
import pytest

from iterreg import (
    BlockBias,
    ContractViolation,
    DenseOperator,
    Grad2D,
    MaskOperator,
    add_noise,
    certify,
    gen_matcomp,
    gen_sparse,
    load_problem,
    make_config,
    save_problem,
    tv_reformulate,
)


class TestGenSparse:
    def test_shapes_and_invariants(self):
        prob = gen_sparse(n=30, p=60, s=5, corr=0.2, y_norm=7.0, seed=3)
        assert prob.X.out_dim == 30 and prob.X.in_dim == 60
        assert np.linalg.norm(prob.y) == pytest.approx(7.0, rel=1e-12)
        assert np.count_nonzero(prob.ground_truth) == 5
        nz = prob.ground_truth[prob.ground_truth != 0]
        assert np.allclose(nz, nz[0])  # equal-valued entries
        assert np.linalg.norm(prob.X.apply(prob.ground_truth) - prob.y) <= 1e-10 * 7.0

    def test_deterministic_in_seed(self):
        a = gen_sparse(n=10, p=20, s=3, seed=5)
        b = gen_sparse(n=10, p=20, s=3, seed=5)
        assert np.array_equal(a.X.matrix, b.X.matrix)
        assert np.array_equal(a.y, b.y)
        c = gen_sparse(n=10, p=20, s=3, seed=6)
        assert not np.array_equal(a.y, c.y)

    def test_zero_sparsity(self):
        prob = gen_sparse(n=5, p=10, s=0, seed=0)
        assert np.array_equal(prob.y, np.zeros(5))
        assert np.array_equal(prob.ground_truth, np.zeros(10))

    def test_uncorrelated_columns_have_identity_covariance(self):
        # 5000 rows stacked from independent instances; max-entry tolerance 0.1
        blocks = [gen_sparse(n=100, p=100, s=0, corr=0.0, seed=s).X.matrix
                  for s in range(50)]
        X = np.vstack(blocks)
        cov = X.T @ X / X.shape[0]
        assert np.max(np.abs(cov - np.eye(100))) < 0.1

    @pytest.mark.parametrize("corr", [0.2, 0.9])
    @pytest.mark.parametrize("n, p", [(30, 60), (200, 500)])
    def test_design_is_the_draw_times_the_cholesky_factor(self, n, p, corr):
        X = gen_sparse(n=n, p=p, s=3, corr=corr, seed=4).X.matrix
        idx = np.arange(p)
        sigma = corr ** np.abs(np.subtract.outer(idx, idx))
        want = np.random.default_rng(4).standard_normal((n, p)) @ np.linalg.cholesky(sigma).T
        assert np.max(np.abs(X - want)) <= 1e-13 * np.max(np.abs(want))

    def test_uncorrelated_design_is_the_draw_bit_for_bit(self):
        X = gen_sparse(n=30, p=60, s=3, corr=0.0, seed=4).X.matrix
        assert X.tobytes() == np.random.default_rng(4).standard_normal((30, 60)).tobytes()

    def test_design_is_held_once(self):
        n, p = 400, 800
        tracemalloc.start()
        try:
            prob = gen_sparse(n=n, p=p, s=120, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * p * 8
        assert not prob.X.matrix.flags.writeable

    def test_dense_operator_copies_the_callers_array(self):
        a = np.arange(6.0).reshape(2, 3)
        X = DenseOperator(a)
        a[0, 0] = 99.0
        assert X.matrix[0, 0] == 0.0
        assert a.flags.writeable and not X.matrix.flags.writeable

    def test_param_validation(self):
        with pytest.raises(ContractViolation):
            gen_sparse(n=10, p=5, s=2)
        with pytest.raises(ContractViolation):
            gen_sparse(n=5, p=10, s=2, corr=1.0)

    @pytest.mark.parametrize("gen", [gen_sparse, gen_matcomp])
    @pytest.mark.parametrize("y_norm", [-1.0, np.nan, np.inf])
    def test_data_norm_must_be_finite_and_nonnegative(self, gen, y_norm):
        with pytest.raises(ContractViolation,
                           match=f"^y_norm must be finite and >= 0, got {y_norm}$"):
            gen(y_norm=y_norm)

    @pytest.mark.parametrize("gen", [gen_sparse, gen_matcomp])
    def test_data_norm_zero_gives_zero_data(self, gen):
        prob = gen(y_norm=0.0)
        assert not np.any(prob.y) and not np.any(prob.ground_truth)


class TestGenMatcomp:
    def test_rank_and_norm(self):
        prob = gen_matcomp(d=12, r=3, obs_frac_denom=4, y_norm=9.0, seed=2)
        Y = prob.ground_truth.reshape(12, 12)
        assert np.linalg.norm(Y) == pytest.approx(9.0, rel=1e-12)
        svals = np.linalg.svd(Y, compute_uv=False)
        assert np.sum(svals > 1e-9 * svals[0]) == 3
        assert isinstance(prob.X, MaskOperator)
        assert len(prob.X.observed) == (12 * 12) // 4
        assert np.linalg.norm(prob.X.apply(prob.ground_truth) - prob.y) <= 1e-12

    def test_fully_observed_full_rank_recovers_target(self):
        prob = gen_matcomp(d=4, r=4, obs_frac_denom=1, y_norm=3.0, seed=1)
        assert len(prob.X.observed) == 16
        from iterreg import Nuclear

        cert = certify(prob.X, Nuclear(4, 4), prob.y,
                       cfg=make_config(prob.X, max_iter=200_000), check_every=50)
        assert np.allclose(cert.w_star, prob.ground_truth, atol=1e-6)

    def test_deterministic(self):
        a = gen_matcomp(d=6, r=2, seed=4)
        b = gen_matcomp(d=6, r=2, seed=4)
        assert np.array_equal(a.y, b.y)
        assert a.X.observed == b.X.observed


class TestAddNoise:
    def test_exact_norm(self):
        prob = gen_sparse(n=20, p=40, s=4, seed=0)
        for delta in (0.3, 2.0, 11.0):
            noisy = add_noise(prob, delta, seed=9)
            assert np.linalg.norm(noisy.y - noisy.y_delta) == pytest.approx(delta, rel=1e-10)
            assert noisy.delta == delta

    def test_zero_delta(self):
        prob = gen_sparse(n=20, p=40, s=4, seed=0)
        noisy = add_noise(prob, 0.0, seed=9)
        assert np.array_equal(noisy.y_delta, prob.y)

    def test_different_seeds_equidistant(self):
        prob = gen_sparse(n=20, p=40, s=4, seed=0)
        a = add_noise(prob, 1.5, seed=1)
        b = add_noise(prob, 1.5, seed=2)
        assert not np.array_equal(a.y_delta, b.y_delta)
        assert np.linalg.norm(a.y_delta - prob.y) == pytest.approx(
            np.linalg.norm(b.y_delta - prob.y), rel=1e-12)

    def test_support_restriction(self):
        """On a mask problem the noise lives on the observed entries, unasked."""
        prob = gen_matcomp(d=6, r=2, obs_frac_denom=3, seed=0)
        noisy = add_noise(prob, 2.0, seed=3)
        diff = noisy.y_delta - prob.y
        assert np.linalg.norm(diff) == pytest.approx(2.0, rel=1e-10)
        assert np.all(diff[prob.X.gain == 0.0] == 0.0)
        assert np.all(diff[prob.X.gain == 1.0] != 0.0)

    @pytest.mark.parametrize("delta", [0.3, 2.0, 11.0])
    def test_mask_noise_equals_the_draw_restricted_to_the_mask(self, delta):
        """Bit for bit the plain draw times the 0/1 gain of the mask."""
        prob = gen_matcomp(d=6, r=2, obs_frac_denom=3, seed=0)
        e = np.random.default_rng(3).standard_normal(36) * np.asarray(prob.X.gain, dtype=float)
        want = prob.y + delta * e / np.linalg.norm(e)
        got = add_noise(prob, delta, seed=3).y_delta
        assert got.tobytes() == want.tobytes()
        assert np.linalg.norm(got - prob.y) == pytest.approx(delta, rel=1e-14)

    def test_dense_noise_equals_the_plain_draw(self):
        prob = gen_sparse(n=20, p=40, s=4, seed=0)
        e = np.random.default_rng(9).standard_normal(20)
        want = prob.y + 1.5 * e / np.linalg.norm(e)
        assert add_noise(prob, 1.5, seed=9).y_delta.tobytes() == want.tobytes()

    def test_mask_without_observed_entries_rejected(self):
        prob = gen_matcomp(d=2, r=1, obs_frac_denom=5, seed=0)
        assert not prob.X.observed
        with pytest.raises(ContractViolation, match="no observed entry"):
            add_noise(prob, 1.0, seed=0)

    @pytest.mark.parametrize("delta", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_delta_rejected(self, delta):
        prob = gen_sparse(n=5, p=10, s=1, seed=0)
        with pytest.raises(ContractViolation,
                           match=f"^delta must be finite and nonnegative, got {delta}$"):
            add_noise(prob, delta, seed=0)


class TestTvReformulate:
    def test_shapes_and_data_layout(self):
        mask = MaskOperator((3, 3), [(0, 0), (1, 1)])
        y = mask.apply(np.arange(9.0))
        lifted, bias, y_lifted = tv_reformulate(mask, y, 3, 3)
        assert lifted.in_dim == 9 + 18
        assert lifted.out_dim == 9 + 18
        assert isinstance(bias, BlockBias)
        assert np.array_equal(y_lifted[:9], y)
        assert np.array_equal(y_lifted[9:], np.zeros(18))

    def test_adjoint_consistency_inherited(self):
        mask = MaskOperator((3, 3), [(0, 0), (2, 2)])
        lifted, _, _ = tv_reformulate(mask, mask.apply(np.ones(9)), 3, 3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.standard_normal(lifted.in_dim)
            th = rng.standard_normal(lifted.out_dim)
            assert abs(lifted.apply(w) @ th - w @ lifted.adjoint(th)) <= 1e-10 * (
                1 + np.linalg.norm(w) * np.linalg.norm(th))

    def test_constant_image_fully_observed(self):
        from iterreg import identity

        image = np.full(9, 2.5)
        X = identity(9)
        lifted, bias, y_lifted = tv_reformulate(X, image.copy(), 3, 3)
        cert = certify(lifted, bias, y_lifted,
                       cfg=make_config(lifted, max_iter=200_000), check_every=50)
        assert np.allclose(cert.w_star[:9], image, atol=1e-7)
        assert np.allclose(cert.w_star[9:], 0.0, atol=1e-7)

    def test_piecewise_constant_inpainting(self):
        p1 = p2 = 4
        image = np.zeros((p1, p2))
        image[:2, :] = 1.0
        rng = np.random.default_rng(13)
        flat = rng.choice(16, size=11, replace=False)
        mask = MaskOperator((p1, p2), [(int(f) // p2, int(f) % p2) for f in flat])
        y = mask.apply(image.ravel())
        lifted, bias, y_lifted = tv_reformulate(mask, y, p1, p2)
        cert = certify(lifted, bias, y_lifted,
                       cfg=make_config(lifted, max_iter=400_000),
                       feas_tol=1e-9, subgrad_tol=1e-7, check_every=100)
        w_img = cert.w_star[:16]
        u = cert.w_star[16:]
        assert np.linalg.norm(Grad2D(p1, p2).apply(w_img) - u) <= 1e-8

    def test_dimension_validation(self):
        mask = MaskOperator((2, 2), [(0, 0)])
        with pytest.raises(ContractViolation):
            tv_reformulate(mask, np.zeros(4), 3, 3)


class TestSerialization:
    def test_dense_round_trip(self, tmp_path):
        prob = add_noise(gen_sparse(n=8, p=12, s=2, seed=7), 0.5, seed=1)
        save_problem(prob, tmp_path / "prob")
        back = load_problem(tmp_path / "prob")
        assert back.kind == "sparse"
        assert np.allclose(back.X.matrix, prob.X.matrix)
        assert np.allclose(back.y, prob.y)
        assert np.allclose(back.y_delta, prob.y_delta)
        assert back.delta == prob.delta
        assert np.allclose(back.ground_truth, prob.ground_truth)

    def test_mask_round_trip(self, tmp_path):
        prob = gen_matcomp(d=5, r=2, obs_frac_denom=2, seed=3)
        save_problem(prob, tmp_path / "mc")
        back = load_problem(tmp_path / "mc")
        assert isinstance(back.X, MaskOperator)
        assert back.X.observed == prob.X.observed
        assert np.allclose(back.y, prob.y)
        # mask.csv holds one observed (i, j) pair per line
        (tmp_path / "mc" / "mask.csv").write_text("0,1\n2,3\n")
        assert load_problem(tmp_path / "mc").X.observed == ((0, 1), (2, 3))

    @pytest.mark.parametrize("name", ["y.csv", "y_delta.csv", "ground_truth.csv"])
    def test_vector_lengths_checked(self, tmp_path, name):
        save_problem(gen_sparse(n=8, p=12, s=2, seed=7), tmp_path / "prob")
        path = tmp_path / "prob" / name
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ContractViolation, match=name):
            load_problem(tmp_path / "prob")

    @pytest.mark.parametrize("kind, name", [("sparse", "meta.json"), ("sparse", "X.csv"),
                                            ("sparse", "y.csv"), ("sparse", "y_delta.csv"),
                                            ("matcomp", "mask.csv")])
    def test_missing_file_is_named_with_its_directory(self, tmp_path, kind, name):
        prob = (gen_sparse(n=8, p=12, s=2, seed=7) if kind == "sparse"
                else gen_matcomp(d=5, r=2, obs_frac_denom=2, seed=3))
        save_problem(prob, tmp_path / "prob")
        (tmp_path / "prob" / name).unlink()
        named = re.escape(f"{tmp_path / 'prob'} has no {name}")
        with pytest.raises(ContractViolation, match=named):
            load_problem(tmp_path / "prob")

    def test_missing_ground_truth_loads_as_none(self, tmp_path):
        save_problem(gen_sparse(n=8, p=12, s=2, seed=7), tmp_path / "prob")
        (tmp_path / "prob" / "ground_truth.csv").unlink()
        assert load_problem(tmp_path / "prob").ground_truth is None
