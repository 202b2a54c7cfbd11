import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from iterreg import (
    ContractViolation,
    L1,
    Nuclear,
    SqL2,
    subgradient_residual,
    tv_reformulate,
)

from conftest import identity

# the bias of the total-variation lift of a 1 x 2 grid: zero on 2 image entries, l1 on 4 differences
TV_BIAS = tv_reformulate(identity(2), np.zeros(2), 1, 2)[1]

ALL_KINDS = [
    (L1(), 6),
    (SqL2(0.5), 6),
    (SqL2(2.0), 6),
    (Nuclear(2, 3), 6),
    (TV_BIAS, 6),
]


class TestEval:
    def test_l1(self):
        assert L1()(np.array([1.0, -2.0, 0.0])) == 3.0

    def test_nuclear_diagonal(self):
        w = np.diag([3.0, 1.0]).ravel()
        assert Nuclear(2, 2)(w) == pytest.approx(4.0, abs=1e-12)

    def test_sq_l2(self):
        assert SqL2(0.5)(np.array([2.0, 0.0])) == pytest.approx(2.0)

    def test_zero_at_origin_all_kinds(self):
        for J, dim in ALL_KINDS:
            assert J(np.zeros(dim)) == pytest.approx(0.0, abs=1e-14)


class TestProx:
    def test_l1_soft_threshold(self):
        out = L1().prox(1.0, np.array([2.0, -0.5]))
        assert np.allclose(out, [1.0, 0.0])

    def test_l1_tie_maps_to_zero(self):
        assert L1().prox(0.7, np.array([0.7, -0.7]))[0] == 0.0
        assert L1().prox(0.7, np.array([0.7, -0.7]))[1] == 0.0

    def test_sq_l2_contraction(self):
        out = SqL2(0.5).prox(1.0, np.array([2.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0])

    def test_nuclear_svt_diagonal(self):
        out = Nuclear(2, 2).prox(1.0, np.diag([3.0, 1.0]).ravel())
        assert np.allclose(out.reshape(2, 2), np.diag([2.0, 0.0]), atol=1e-12)

    def test_tau_zero_is_identity(self):
        rng = np.random.default_rng(0)
        for J, dim in ALL_KINDS:
            v = rng.standard_normal(dim)
            assert np.allclose(J.prox(0.0, v), v, atol=1e-12)

    @pytest.mark.parametrize("tau", [-0.1, np.nan])
    def test_negative_or_nan_tau_rejected(self, tau):
        for J, dim in ALL_KINDS:
            with pytest.raises(ContractViolation, match="prox scale must be nonnegative"):
                J.prox(tau, np.zeros(dim))

    def test_nuclear_bad_length(self):
        with pytest.raises(ContractViolation):
            Nuclear(2, 2).prox(1.0, np.zeros(5))


def is_subgradient(J, w, g, tol=1e-8):
    return subgradient_residual(J, w, g) <= tol


class TestSubgradientCheck:
    def test_l1_valid(self):
        assert is_subgradient(L1(), [1.0, 0.0], [1.0, 0.3])

    def test_l1_invalid_active_component(self):
        assert not is_subgradient(L1(), [1.0, 0.0], [0.5, 0.0])

    def test_l1_invalid_above_one(self):
        assert not is_subgradient(L1(), [0.0, 0.0], [1.5, 0.0])

    def test_sq_l2_gradient(self):
        assert is_subgradient(SqL2(0.5), [2.0, 0.0], [2.0, 0.0])
        assert not is_subgradient(SqL2(0.5), [2.0, 0.0], [1.0, 0.0])

    def test_nuclear_and_tv_lift(self):
        # diag(1, 0) has subdifferential diag(1, t) with |t| <= 1
        w = np.diag([1.0, 0.0]).ravel()
        assert is_subgradient(Nuclear(2, 2), w, np.diag([1.0, 0.5]).ravel())
        assert not is_subgradient(Nuclear(2, 2), w, np.diag([1.0, 1.5]).ravel())
        # the image block's subdifferential is {0}; the gradient block's is that of l1
        w = [5.0, -3.0, 1.0, 0.0, -2.0, 0.0]
        assert is_subgradient(TV_BIAS, w, [0.0, 0.0, 1.0, -0.4, -1.0, 1.0])
        assert not is_subgradient(TV_BIAS, w, [0.2, 0.0, 1.0, -0.4, -1.0, 1.0])
        assert not is_subgradient(TV_BIAS, w, [0.0, 0.0, 1.0, -1.4, -1.0, 1.0])


def _firmly_nonexpansive(J, tau, u, v):
    pu, pv = J.prox(tau, u), J.prox(tau, v)
    lhs = np.dot(pu - pv, pu - pv)
    rhs = np.dot(pu - pv, u - v)
    return lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


@given(hnp.arrays(np.float64, 6, elements=st.floats(-50, 50)),
       hnp.arrays(np.float64, 6, elements=st.floats(-50, 50)),
       st.sampled_from([0.1, 1.0, 10.0]))
def test_firm_nonexpansiveness(u, v, tau):
    for J, _ in ALL_KINDS:
        assert _firmly_nonexpansive(J, tau, u, v)


@given(hnp.arrays(np.float64, 8, elements=st.floats(-20, 20)),
       st.sampled_from([0.1, 1.0, 10.0]))
def test_moreau_identity_l1(v, tau):
    # prox of the conjugate of the l1 norm is projection onto the inf-ball
    lhs = L1().prox(tau, v) + tau * np.clip(v / tau, -1.0, 1.0)
    assert np.allclose(lhs, v, atol=1e-10)


def test_prox_fixed_point_subgradient():
    rng = np.random.default_rng(1)
    for J, dim in ALL_KINDS:
        for tau in (0.1, 1.0, 10.0):
            for _ in range(10):
                v = rng.standard_normal(dim) * 3.0
                p = J.prox(tau, v)
                assert is_subgradient(J, p, (v - p) / tau, tol=1e-8)


def test_svt_preserves_singular_subspaces():
    rng = np.random.default_rng(4)
    J = Nuclear(4, 4)
    tau = 1.0
    for _ in range(20):
        V = rng.standard_normal((4, 4)) * 2.0
        U, s, Vt = np.linalg.svd(V)
        out = J.prox(tau, V.ravel()).reshape(4, 4)
        Uo, so, Vto = np.linalg.svd(out)
        for i, sv in enumerate(s):
            if sv > tau + 1e-6:
                assert so[i] == pytest.approx(sv - tau, abs=1e-8)
                assert abs(U[:, i] @ Uo[:, i]) == pytest.approx(1.0, abs=1e-8)
                assert abs(Vt[i] @ Vto[i]) == pytest.approx(1.0, abs=1e-8)


def _svt_reference(p1, p2, tau, v):
    """Singular-value shrinkage of one p1 x p2 matrix through its SVD."""
    U, s, Vt = np.linalg.svd(np.reshape(v, (p1, p2)), full_matrices=False)
    return ((U * np.maximum(s - tau, 0.0)) @ Vt).ravel()


def _nuclear_cases(p1, p2):
    """(tau, vector) pairs: full rank, rank one, repeated singular values, zero."""
    rng = np.random.default_rng(p1 * 10 + p2)
    k = min(p1, p2)
    full = 3.0 * rng.standard_normal((p1, p2))
    rank_one = np.outer(rng.standard_normal(p1), rng.standard_normal(p2))
    Q1 = np.linalg.qr(rng.standard_normal((p1, k)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((p2, k)))[0]
    repeated = Q1 @ np.diag([2.0] * (k - 1) + [0.5]) @ Q2.T
    s_full = np.linalg.svd(full, compute_uv=False)
    for M in (full, rank_one, repeated, np.zeros((p1, p2))):
        for tau in (0.0, 0.3, 1.0, np.inf):
            yield tau, M.ravel()
    # tau equal to a singular value
    yield s_full[k // 2], full.ravel()
    yield 2.0, repeated.ravel()
    yield 0.5, repeated.ravel()


@pytest.mark.parametrize("p1, p2", [(4, 4), (4, 3), (2, 4), (3, 4)])
def test_nuclear_prox_matches_the_svd_reference(p1, p2):
    """The Gram-matrix prox agrees with SVD shrinkage to 1e-12 of the input's largest entry."""
    J = Nuclear(p1, p2)
    for tau, v in _nuclear_cases(p1, p2):
        out = J.prox(tau, v)
        assert np.all(np.isfinite(out)), tau
        err = np.abs(out - _svt_reference(p1, p2, tau, v)).max()
        assert err <= 1e-12 * np.abs(v).max(), (tau, err)


def test_nuclear_value_is_the_sum_of_svd_singular_values():
    """J stays on the SVD: squared singular values from the Gram matrix would lose digits."""
    rng = np.random.default_rng(2)
    J = Nuclear(20, 20)
    V = np.stack([(rng.standard_normal((20, 5)) @ rng.standard_normal((5, 20))).ravel()
                  for _ in range(4)], axis=1)
    for b in range(4):
        assert J(V[:, b]) == np.linalg.svd(V[:, b].reshape(20, 20), compute_uv=False).sum()
    assert np.array_equal(J(V), [J(V[:, b]) for b in range(4)])


def test_soft_threshold_values():
    """Exactly sign(v) * max(|v| - t, 0), NaN where it is NaN; for t > 0 zeros are +0.0."""
    assert np.array_equal(L1().prox(1.0, np.array([3.0, -0.2, 1.0])), [2.0, 0.0, 0.0])
    for t in (0.0, 0.75, 1.0, np.inf):
        v = np.array([3.0, -0.2, t, -t, 0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -2.5,
                      np.nextafter(t, np.inf), np.nextafter(-t, -np.inf)])
        for arr in (v, np.stack([v, -v[::-1], 2.0 * v], axis=1)):
            with np.errstate(invalid="ignore"):  # inf - inf at t = inf, in both formulas
                out = L1().prox(t, arr)
                want = np.sign(arr) * np.maximum(np.abs(arr) - t, 0.0)
            assert np.array_equal(out, want, equal_nan=True), t
            if t > 0:
                assert not np.signbit(out[out == 0.0]).any(), t


class TestTvBias:
    def test_eval_and_prox_blockwise(self):
        w = np.array([5.0, -3.0, 1.0, -2.0, 0.0, 0.5])
        assert TV_BIAS(w) == 3.5
        out = TV_BIAS.prox(1.0, w)
        assert np.array_equal(out[:2], w[:2])
        assert np.array_equal(out[2:], [0.0, -1.0, 0.0, 0.0])

    def test_length_checked(self):
        with pytest.raises(ContractViolation):
            TV_BIAS(np.zeros(5))
        with pytest.raises(ContractViolation):
            TV_BIAS.prox(1.0, np.zeros(7))


@pytest.mark.parametrize("J, dim", ALL_KINDS + [(Nuclear(3, 4), 12), (Nuclear(4, 3), 12),
                                    (tv_reformulate(identity(6), np.zeros(6), 2, 3)[1], 18)])
def test_stack_matches_columns(J, dim):
    rng = np.random.default_rng(4)
    V = 3.0 * rng.standard_normal((dim, 5))
    for tau in (0.0, 0.7, np.inf):
        want = np.stack([J.prox(tau, V[:, b]) for b in range(5)], axis=1)
        assert np.array_equal(J.prox(tau, V), want)
    one = J(V[:, 0])
    assert isinstance(one, float)
    vals, want = J(V), np.array([J(V[:, b]) for b in range(5)])
    assert vals.shape == (5,)
    if isinstance(J, SqL2):  # one einsum against five dot products
        assert np.allclose(vals, want, rtol=1e-14, atol=0)
    else:
        assert np.array_equal(vals, want)
