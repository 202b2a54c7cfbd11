import dataclasses

import numpy as np
import pytest

from iterreg import (
    AssumptionViolated,
    BoundInputs,
    CertificateInvalid,
    ContractViolation,
    DenseOperator,
    L1,
    SqL2,
    certify,
    gap,
    gap_equals_bregman_check,
    gen_sparse,
    norm_bound,
    norm_bound_data,
    iterate,
    make_config,
    run,
    stability_feas_bound,
    stability_gap_bound,
    weighted_v,
)
from iterreg.metrics import _bregman

from conftest import identity


class TestGap:
    def test_zero_at_certificate(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        assert gap(tiny_bp_cert.w_star, tiny_bp_cert.theta_star,
                   tiny_bp_cert, X, J) == pytest.approx(0.0, abs=1e-10)

    def test_zero_primal_vanishes_for_l1(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = rng.standard_normal(2)
            assert gap(np.zeros(3), theta, tiny_bp_cert, X, J) <= 1e-9

    def test_positive_for_suboptimal_feasible_point(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        w = np.array([1.0, 1.0, 0.0])  # feasible, l1 norm 2 > 1
        assert gap(w, np.zeros(2), tiny_bp_cert, X, J) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_certificate_raises(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        broken = dataclasses.replace(tiny_bp_cert, w_star=np.array([5.0, 5.0, 5.0]))
        with pytest.raises(CertificateInvalid):
            gap(tiny_bp_cert.w_star, np.zeros(2), broken, X, J)

    def test_gap_of_minus_1e_8_is_beyond_the_clamp(self):
        from iterreg import SaddleCertificate

        # |L*| = 1, so the clamp is 2e-10; theta* = 0 is no dual solution, and the gap of
        # w = w* - 1e-8 is J(w) - J(w*) = -1e-8
        y = np.array([1.0])
        cert = SaddleCertificate(w_star=y.copy(), theta_star=np.zeros(1), feas_res=0.0,
                                 subgrad_res=0.0, y=y)
        with pytest.raises(CertificateInvalid, match="beyond the clamp 2.000e-10"):
            gap(y - 1e-8, np.zeros(1), cert, identity(1), L1())


@pytest.mark.parametrize("w, want", [
    ([1.0, 0.0], 0.0),   # the reference point itself
    ([2.0, 0.0], 0.0),   # same sign pattern
    ([-1.0, 0.0], 2.0),  # flipped sign: |-1| - 1 - 1 * (-1 - 1)
])
def test_l1_bregman_hand_values(w, want):
    w_ref = np.array([1.0, 0.0])
    w = np.array(w)
    assert _bregman(L1()(w), L1()(w_ref), w, w_ref, np.array([1.0, 0.0])) == want


class TestGapBregmanIdentity:
    def test_at_reference(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        assert gap_equals_bregman_check(tiny_bp_cert.w_star, tiny_bp_cert, X, J)

    def test_random_points(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        rng = np.random.default_rng(1)
        for _ in range(100):
            w = rng.standard_normal(3) * 3.0
            assert gap_equals_bregman_check(w, tiny_bp_cert, X, J)

    def test_flipped_signs(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        assert gap_equals_bregman_check(-tiny_bp_cert.w_star, tiny_bp_cert, X, J)

    @pytest.mark.parametrize("w", [0.0, 3.0, -2.0])
    @pytest.mark.parametrize("r, holds", [(2e-10, False), (5e-11, True)])
    def test_threshold_is_1e_10(self, w, r, holds):
        """The two sides differ by <theta*, X w* - y> = -r for every w, so r sets the verdict."""
        from iterreg import SaddleCertificate

        y = np.array([1.0])
        cert = SaddleCertificate(w_star=y + r, theta_star=np.array([-1.0]), feas_res=r,
                                 subgrad_res=0.0, y=y)
        assert gap_equals_bregman_check(np.array([w]), cert, identity(1), L1()) is holds


class TestWeightedV:
    def test_zero(self):
        assert weighted_v(np.zeros(2), np.zeros(3), 1.0, 1.0) == 0.0

    def test_hand_value(self):
        assert weighted_v(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 1.0, 1.0) == pytest.approx(4.0)

    def test_empty_dual(self):
        assert weighted_v(np.array([1.0]), np.array([]), 0.5, 1.0) == pytest.approx(1.0)

    def test_positive_weights_required(self):
        with pytest.raises(ContractViolation):
            weighted_v(np.zeros(1), np.zeros(1), 0.0, 1.0)


class TestStabilityBounds:
    def test_gap_bound_noiseless_is_v_over_k(self):
        b = BoundInputs(v0=3.0, sigma=0.7, epsilon=0.5, delta=0.0)
        for k in (1, 10, 1000):
            assert stability_gap_bound(k, b) == pytest.approx(3.0 / k)

    def test_gap_bound_zero_start(self):
        b = BoundInputs(v0=0.0, sigma=0.7, epsilon=0.5, delta=0.0)
        assert stability_gap_bound(5, b) == 0.0

    def test_gap_bound_hand_value(self):
        b = BoundInputs(v0=1.0, sigma=0.5, epsilon=0.5, delta=1.0)
        assert stability_gap_bound(1, b) == pytest.approx(4.0)

    def test_feas_bound_noiseless_form(self):
        b = BoundInputs(v0=2.0, sigma=0.4, epsilon=0.25, delta=0.0)
        for k in (1, 7, 500):
            expected = 2 * (1 + 0.25) * 2.0 / (0.4 * 0.25 * 0.75 * k)
            assert stability_feas_bound(k, b) == pytest.approx(expected)

    def test_feas_bound_zero(self):
        b = BoundInputs(v0=0.0, sigma=0.4, epsilon=0.25, delta=0.0)
        assert stability_feas_bound(3, b) == 0.0

    def test_feas_bound_grows_linearly_in_k(self):
        b = BoundInputs(v0=1.0, sigma=0.4, epsilon=0.25, delta=0.5)
        big = stability_feas_bound(10_000, b)
        bigger = stability_feas_bound(20_000, b)
        lead = 2 * (1 + b.epsilon) / (b.sigma * b.epsilon * (1 - b.epsilon))
        assert bigger - big == pytest.approx(lead * 2 * b.sigma * b.delta ** 2 * 10_000, rel=1e-3)

    def test_gap_bound_monotone_then_increasing(self):
        clean = BoundInputs(v0=5.0, sigma=0.5, epsilon=0.5, delta=0.0)
        noisy = BoundInputs(v0=5.0, sigma=0.5, epsilon=0.5, delta=0.2)
        ks = np.arange(1, 2000)
        clean_vals = [stability_gap_bound(k, clean) for k in ks]
        assert all(a >= b for a, b in zip(clean_vals, clean_vals[1:]))
        noisy_vals = [stability_gap_bound(k, noisy) for k in ks]
        tail = noisy_vals[-200:]
        assert all(a < b for a, b in zip(tail, tail[1:]))

    def test_k_must_be_positive(self):
        b = BoundInputs(v0=1.0, sigma=0.5, epsilon=0.5, delta=0.0)
        with pytest.raises(ContractViolation):
            stability_gap_bound(0, b)
        for bound in (stability_gap_bound, stability_feas_bound):
            with pytest.raises(ContractViolation):
                bound(np.array([3, 0, 5]), b)

    def test_array_of_k_matches_each_k(self):
        b = BoundInputs(v0=2.5, sigma=0.3, epsilon=0.6, delta=0.7)
        ks = np.arange(1, 300)
        for bound in (stability_gap_bound, stability_feas_bound):
            assert np.array_equal(bound(ks, b), [bound(int(k), b) for k in ks])

    def test_inputs_validated(self):
        with pytest.raises(ContractViolation):
            BoundInputs(v0=-1.0, sigma=0.5, epsilon=0.5, delta=0.0)
        with pytest.raises(ContractViolation):
            BoundInputs(v0=1.0, sigma=0.5, epsilon=1.5, delta=0.0)


class TestNormBound:
    def test_identity_fully_active(self):
        rng = np.random.default_rng(3)
        X = identity(4)
        y = rng.standard_normal(4) + np.sign(rng.standard_normal(4))  # keep entries away from 0
        y[np.abs(y) < 0.3] = 0.5
        cert = certify(X, L1(), y, cfg=make_config(X, max_iter=300_000),
                       feas_tol=1e-11, subgrad_tol=1e-9, check_every=20)
        gd = norm_bound_data(X, cert)
        assert set(gd.gamma_set) == set(range(4))
        assert gd.m == 0.0
        assert gd.xg_pinv_norm == pytest.approx(1.0, abs=1e-9)
        assert gd.x_norm == pytest.approx(1.0, abs=1e-12)

    def test_matches_exhaustive_column_scan(self, tiny_l1_problem, tiny_l1_cert):
        prob, cert = tiny_l1_problem, tiny_l1_cert
        gd = norm_bound_data(prob.X, cert)
        corr = np.abs(prob.X.matrix.T @ cert.theta_star)
        scan = {j for j in range(prob.X.in_dim) if corr[j] >= 1 - 1e-6}
        assert set(gd.gamma_set) == scan
        comp = [corr[j] for j in range(prob.X.in_dim) if j not in scan]
        assert gd.m == pytest.approx(max(comp))
        sub = prob.X.matrix[:, sorted(scan)]
        assert gd.xg_pinv_norm == pytest.approx(
            np.linalg.norm(np.linalg.pinv(sub), 2), rel=1e-10)

    def test_dual_infeasible_certificate_rejected(self, tiny_l1_problem, tiny_l1_cert):
        prob = tiny_l1_problem
        broken = dataclasses.replace(tiny_l1_cert, theta_star=2.0 * tiny_l1_cert.theta_star)
        with pytest.raises(CertificateInvalid):
            norm_bound_data(prob.X, broken)

    def test_correlation_just_below_one_stays_off_the_active_set(self):
        from iterreg import SaddleCertificate

        y = np.array([1.0, 0.0])
        cert = SaddleCertificate(w_star=y.copy(), theta_star=np.array([1.0, 1.0 - 1e-4]),
                                 feas_res=0.0, subgrad_res=0.0, y=y)
        gd = norm_bound_data(identity(2), cert)
        assert gd.gamma_set.tolist() == [0]
        assert gd.m == pytest.approx(1.0 - 1e-4, rel=1e-15)

    def test_rank_deficient_active_set(self):
        from iterreg import SaddleCertificate

        X = DenseOperator(np.array([[1.0, 1.0], [0.0, 0.0]]))  # duplicate active columns
        y = np.array([1.0, 0.0])
        cert = SaddleCertificate(w_star=np.array([0.5, 0.5]),
                                 theta_star=np.array([-1.0, 0.0]),
                                 feas_res=0.0, subgrad_res=0.0, y=y)
        with pytest.raises(AssumptionViolated):
            norm_bound_data(X, cert)

    def test_bound_zero_at_reference(self, tiny_l1_problem, tiny_l1_cert):
        prob, cert = tiny_l1_problem, tiny_l1_cert
        gd = norm_bound_data(prob.X, cert)
        val = norm_bound(cert.w_star, cert, gd, prob.X)
        assert val <= 1e-9

    def test_bound_dominates_distance(self, tiny_l1_problem, tiny_l1_cert):
        prob, cert = tiny_l1_problem, tiny_l1_cert
        gd = norm_bound_data(prob.X, cert)
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1e-1, 1.0):
            for _ in range(50):
                w = cert.w_star + scale * rng.standard_normal(prob.X.in_dim)
                bound = norm_bound(w, cert, gd, prob.X)
                assert np.linalg.norm(w - cert.w_star) <= bound * (1 + 1e-8)

    def test_feasible_point_leaves_bregman_term(self, tiny_bp, tiny_bp_cert):
        X, J, y = tiny_bp
        gd = norm_bound_data(X, tiny_bp_cert)
        w = np.array([1.0, 1.0, 0.0])  # interpolates y
        g_ref = -X.adjoint(tiny_bp_cert.theta_star)
        breg = J(w) - J(tiny_bp_cert.w_star) - g_ref @ (w - tiny_bp_cert.w_star)
        expected = (1 + gd.xg_pinv_norm * gd.x_norm) / (1 - gd.m) * breg
        assert norm_bound(w, tiny_bp_cert, gd, X) == pytest.approx(
            expected, rel=1e-6)

    @pytest.mark.parametrize("seed, kwargs, tols", [
        (11, dict(n=4, p=8, s=2, corr=0.0, y_norm=3.0), (1e-12, 1e-10)),
        (12, dict(n=4, p=8, s=2, corr=0.3, y_norm=3.0), (1e-12, 1e-10)),
        (13, dict(n=20, p=50, s=5, corr=0.2, y_norm=10.0), (1e-11, 1e-9)),
    ])
    def test_equals_the_inline_formula(self, seed, kwargs, tols):
        """On the criterion-6 instances, bit for bit the formula with the Bregman term inline."""
        prob = gen_sparse(seed=seed, **kwargs)
        X, J, y = prob.X, L1(), prob.y
        cert = certify(X, J, y, cfg=make_config(X, max_iter=500_000),
                       feas_tol=tols[0], subgrad_tol=tols[1], check_every=50)
        gd = norm_bound_data(X, cert)
        rng = np.random.default_rng(6000 + seed)
        for scale in (1e-3, 1e-1, 1.0):
            for _ in range(20):
                w = cert.w_star + scale * rng.standard_normal(X.in_dim)
                res = float(np.linalg.norm(X.apply(w) - y))
                g_ref = -X.adjoint(cert.theta_star)
                d = max(float(J(w) - J(cert.w_star) - g_ref @ (w - cert.w_star)), 0.0)
                want = (gd.xg_pinv_norm * res
                        + (1.0 + gd.xg_pinv_norm * gd.x_norm) / (1.0 - gd.m) * d)
                assert norm_bound(w, cert, gd, X) == want


def test_strongly_convex_gap_controls_residual():
    rng = np.random.default_rng(6)
    X = DenseOperator(rng.standard_normal((4, 9)))
    J = SqL2(0.5)  # 1-strongly convex
    y = rng.standard_normal(4)
    cert = certify(X, J, y, cfg=make_config(X, max_iter=500_000),
                   feas_tol=1e-12, subgrad_tol=1e-10, check_every=50)
    x_norm = np.linalg.svd(X.matrix, compute_uv=False)[0]
    cfg = make_config(X, epsilon=0.9, max_iter=400)
    log = run(X, J, y, cfg, reference=cert)
    past = log.ks() >= 1
    g = np.maximum(log.column("gap_avg")[past], 0.0)
    assert np.all(log.column("res_avg_clean")[past] ** 2
                  <= 2.0 * x_norm ** 2 * g * (1 + 1e-8) + 1e-12)


def test_log_gap_columns_match_gap_and_bregman(small_sql2, small_sql2_cert):
    X, J, y = small_sql2
    cert = small_sql2_cert
    cfg = make_config(X, epsilon=0.9, max_iter=40)
    states = list(iterate(X, J, y, cfg))
    log = run(X, J, y, cfg, reference=cert)
    g_ref = -X.adjoint(cert.theta_star)
    for st, raw_g, raw_b in zip(states, log.column("gap"), log.column("bregman")):
        assert max(raw_g, 0.0) == pytest.approx(gap(st.w, st.theta, cert, X, J),
                                                rel=1e-9, abs=1e-12)
        assert raw_b == pytest.approx(J(st.w) - J(cert.w_star) - g_ref @ (st.w - cert.w_star),
                                      rel=1e-9, abs=1e-12)
