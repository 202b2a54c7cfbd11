import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from iterreg import (
    ContractViolation,
    DenseOperator,
    Grad2D,
    MaskOperator,
    gen_matcomp,
    gen_sparse,
    op_norm,
    tv_reformulate,
)
from iterreg.experiments import child_seed
from iterreg.linop import norms

from conftest import identity, power_norm


def random_operators(rng):
    dense = DenseOperator(rng.standard_normal((5, 9)))
    mask = MaskOperator((3, 4), [(0, 0), (1, 2), (2, 3)])
    grad = Grad2D(3, 4)
    lifted = tv_reformulate(identity(12), np.zeros(12), 3, 4)[0]
    return [dense, mask, grad, lifted]


class TestApply:
    def test_identity(self):
        assert np.allclose(identity(2).apply([3.0, -1.0]), [3.0, -1.0])

    def test_mask_keeps_observed_entry_only(self):
        op = MaskOperator((2, 2), [(0, 0)])
        out = op.apply(np.array([[5.0, 2.0], [7.0, 1.0]]).ravel())
        assert np.array_equal(out.reshape(2, 2), [[5.0, 0.0], [0.0, 0.0]])

    def test_dense_hand_value(self):
        op = DenseOperator([[1.0, 2.0], [0.0, 3.0]])
        assert np.allclose(op.apply([1.0, 1.0]), [3.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            identity(3).apply([1.0, 2.0])
        with pytest.raises(ContractViolation):
            identity(3).apply(np.ones((3, 2, 2)))


class TestAdjoint:
    def test_identity(self):
        assert np.allclose(identity(2).adjoint([1.0, 2.0]), [1.0, 2.0])

    def test_dense_hand_value(self):
        op = DenseOperator([[1.0, 2.0], [0.0, 3.0]])
        assert np.allclose(op.adjoint([1.0, 1.0]), [1.0, 5.0])

    def test_mask_self_adjoint(self):
        op = MaskOperator((2, 3), [(0, 1), (1, 2)])
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(6)
            assert np.array_equal(op.adjoint(v), op.apply(v))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            DenseOperator(np.ones((2, 3))).adjoint([1.0, 2.0, 3.0])


def test_mask_idempotent():
    op = MaskOperator((3, 3), [(0, 0), (2, 1)])
    v = np.arange(9.0)
    assert np.array_equal(op.apply(op.apply(v)), op.apply(v))


def test_mask_rejects_out_of_grid():
    with pytest.raises(ContractViolation):
        MaskOperator((2, 2), [(2, 0)])


def test_adjoint_consistency_all_kinds():
    rng = np.random.default_rng(7)
    for op in random_operators(rng):
        for _ in range(25):
            w = rng.standard_normal(op.in_dim)
            th = rng.standard_normal(op.out_dim)
            lhs = op.apply(w) @ th
            rhs = w @ op.adjoint(th)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(w) * np.linalg.norm(th))


@given(hnp.arrays(np.float64, (3, 5), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, 5, elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, 3, elements=st.floats(-10, 10)))
def test_adjoint_consistency_dense_hypothesis(mat, w, th):
    op = DenseOperator(mat)
    lhs = op.apply(w) @ th
    rhs = w @ op.adjoint(th)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(w) * np.linalg.norm(th))


def _pathcmp_training_folds(seed, n, p, s, folds, **params):
    """The training designs of ``run_pathcmp``'s folds, split as it splits them."""
    Xm = gen_sparse(n=n, p=p, s=s, seed=seed, **params).X.matrix
    perm = np.random.default_rng(child_seed(seed, 23)).permutation(n)
    designs = []
    for test_idx in np.array_split(perm, folds):
        train = np.ones(n, dtype=bool)
        train[test_idx] = False
        designs.append(DenseOperator(Xm[train]))
    return designs


def _tv_demo_lift(seed, p1, p2, obs_frac):
    """The lifted operator of ``run_tvdemo``, on its mask of observed cells."""
    rng = np.random.default_rng(child_seed(seed, 29))
    flat = rng.choice(p1 * p2, size=max(1, int(round(obs_frac * p1 * p2))), replace=False)
    mask = MaskOperator((p1, p2), [(int(f) // p2, int(f) % p2) for f in flat])
    return tv_reformulate(mask, np.zeros(p1 * p2), p1, p2)[0]


# the designs the commands run at their defaults (seed 0) and at the flags of
# scripts/cli_outputs.py's second pass (seed 1), and the 4x8 designs of criterion 1
SHIPPED = {
    "sparse-default": lambda: [gen_sparse().X],
    "sparse-golden": lambda: [gen_sparse(n=30, p=60, s=5, corr=0.3, y_norm=6.0, seed=1).X],
    "pathcmp-default": lambda: _pathcmp_training_folds(0, 400, 800, 120, 4),
    "pathcmp-golden": lambda: _pathcmp_training_folds(1, 40, 80, 6, 2, corr=0.3, y_norm=6.0),
    "criterion-1": lambda: [DenseOperator(np.random.default_rng(1000 + t).standard_normal((4, 8)))
                            for t in range(50)],
    "matcomp-default": lambda: [gen_matcomp().X],
    "tv-demo-default": lambda: [_tv_demo_lift(0, 8, 8, 0.6)],
    "tv-demo-golden": lambda: [_tv_demo_lift(1, 4, 5, 0.7)],
}


class TestOpNorm:
    def test_identity(self):
        assert op_norm(identity(7)) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        assert op_norm(DenseOperator(np.diag([3.0, 1.0]))) == pytest.approx(3.0, rel=1e-6)

    def test_mask_projection(self):
        op = MaskOperator((4, 4), [(0, 0), (1, 1), (3, 2)])
        assert op_norm(op) == pytest.approx(1.0, rel=1e-6)

    def test_zero_operator(self):
        assert op_norm(DenseOperator(np.zeros((3, 4)))) == 0.0

    def test_never_smaller_than_observed_gain(self):
        rng = np.random.default_rng(3)
        op = DenseOperator(rng.standard_normal((6, 10)))
        est = op_norm(op)
        true = np.linalg.svd(op.matrix, compute_uv=False)[0]
        for _ in range(100):
            w = rng.standard_normal(10)
            w /= np.linalg.norm(w)
            assert est >= np.linalg.norm(op.apply(w)) - 1e-8 * true

    def test_norm_est_is_the_safe_bound(self):
        """The one home of the 1.01 safety factor, exact for every operator kind."""
        for op in random_operators(np.random.default_rng(4)):
            assert op.norm_est() == 1.01 * op_norm(op), op
            assert op.norm_est() is op.norm_est(), op

    @pytest.mark.parametrize("name", list(SHIPPED))
    def test_norm_est_bounds_the_norm_of_every_shipped_instance(self, name):
        """The step-size condition sigma*tau*||X||^2 <= epsilon needs norm_est() >= ||X||.

        Power iteration only bounds the norm from below, so the 1.01 factor makes this
        true by measurement, not by proof; these are the designs the commands run.
        """
        for op in SHIPPED[name]():
            assert op.norm_est() >= np.linalg.norm(op.as_matrix(), 2), op

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_np_linalg_norm_iteration(self, seed):
        """Every step size hangs on this value, so it must not move by a bit."""
        rng = np.random.default_rng(seed)
        for op in random_operators(rng) + [DenseOperator(rng.standard_normal((40, 90)))]:
            assert op_norm(op) == power_norm(op), op


def test_grad2d_constant_image_is_zero():
    op = Grad2D(4, 5)
    assert np.allclose(op.apply(np.full(20, 3.7)), 0.0)


def test_grad2d_hand_values():
    op = Grad2D(2, 2)
    out = op.apply(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(out[:4], [2.0, 2.0, 0.0, 0.0])
    assert np.array_equal(out[4:], [1.0, 0.0, 1.0, 0.0])


def forward_differences(p1, p2):
    """The forward-difference gradient of a p1 x p2 grid as an explicit (2 p1 p2, p1 p2) matrix."""
    def diff(p):  # rows i < p - 1 take x[i + 1] - x[i]; the last row is zero
        return np.eye(p, k=1) - np.diag(np.r_[np.ones(p - 1), 0.0])
    return np.vstack([np.kron(diff(p1), np.eye(p2)), np.kron(np.eye(p1), diff(p2))])


class TestTvLift:
    def test_tv_block_hand_values(self):
        grad = Grad2D(2, 2)
        op = tv_reformulate(identity(4), np.zeros(4), 2, 2)[0]
        w_img = np.array([1.0, 2.0, 3.0, 4.0])
        u = np.arange(1.0, 9.0)
        out = op.apply(np.concatenate([w_img, u]))
        assert np.array_equal(out[:4], w_img)
        assert np.allclose(out[4:], grad.apply(w_img) - u)

    @pytest.mark.parametrize("observe", [DenseOperator(np.arange(-30.0, 30.0).reshape(5, 12) % 7),
                                         MaskOperator((3, 4), [(0, 0), (1, 2), (2, 3)])])
    def test_equals_the_explicit_block_matrix(self, observe):
        """[[X, 0], [G, -I]] with G built here; integer entries make every sum exact."""
        G = forward_differences(3, 4)
        X = observe.as_matrix()
        block = np.block([[X, np.zeros((X.shape[0], 24))], [G, -np.eye(24)]])
        op = tv_reformulate(observe, np.zeros(X.shape[0]), 3, 4)[0]
        assert (op.out_dim, op.in_dim) == block.shape
        rng = np.random.default_rng(8)
        for shape in ((), (4,)):
            w = rng.integers(-9, 10, (op.in_dim, *shape)).astype(float)
            th = rng.integers(-9, 10, (op.out_dim, *shape)).astype(float)
            assert np.array_equal(op.apply(w), block @ w)
            assert np.array_equal(op.adjoint(th), block.T @ th)

    @pytest.mark.parametrize("p1, p2", [(1, 1), (1, 5), (4, 1), (2, 2)])
    def test_degenerate_grids_match_the_block_matrix(self, p1, p2):
        """A single pixel, row or column: the gradient rows at the boundary are zero."""
        m = p1 * p2
        observe = DenseOperator(np.arange(2.0 * m).reshape(2, m) % 5 - 2)
        block = np.block([[observe.matrix, np.zeros((2, 2 * m))],
                          [forward_differences(p1, p2), -np.eye(2 * m)]])
        op = tv_reformulate(observe, np.zeros(2), p1, p2)[0]
        assert (op.out_dim, op.in_dim) == (2 + 2 * m, 3 * m)
        assert np.array_equal(op.as_matrix(), block)
        rng = np.random.default_rng(p1 + 10 * p2)
        th = rng.integers(-9, 10, (op.out_dim, 3)).astype(float)
        assert np.array_equal(op.adjoint(th), block.T @ th)


def test_as_matrix_matches_apply():
    rng = np.random.default_rng(11)
    for op in random_operators(rng):
        m = op.as_matrix()
        w = rng.standard_normal(op.in_dim)
        assert np.allclose(m @ w, op.apply(w), atol=1e-12)
        idx = [op.in_dim - 1, 0, 2]
        assert np.array_equal(op.columns(idx), m[:, idx])


def test_stack_matches_columns():
    rng = np.random.default_rng(5)
    dense = DenseOperator(rng.standard_normal((5, 9)))
    mask = MaskOperator((3, 3), [(0, 0), (1, 2), (2, 1)])
    grad = Grad2D(3, 4)
    observe = MaskOperator((3, 4), [(0, 0), (1, 2), (2, 3)])
    lifted, _, _ = tv_reformulate(observe, observe.apply(np.arange(12.0)), 3, 4)
    for op in (dense, mask, grad, lifted):
        W = rng.standard_normal((op.in_dim, 4))
        T = rng.standard_normal((op.out_dim, 4))
        for got, got_f, want in (
                (op.apply(W), op.apply(np.asfortranarray(W)),
                 [op.apply(W[:, b]) for b in range(4)]),
                (op.adjoint(T), op.adjoint(np.asfortranarray(T)),
                 [op.adjoint(T[:, b]) for b in range(4)])):
            # a C- and an F-ordered stack map to the same values, as an F-ordered stack
            assert np.array_equal(got, got_f)
            assert got.flags.f_contiguous and got_f.flags.f_contiguous
            want = np.stack(want, axis=1)
            assert got.shape == want.shape
            if op in (mask, grad, lifted):  # elementwise: the same products and differences
                assert np.array_equal(got, want)
            else:  # matrix products against matrix-vector products
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_dense_vector_products_are_the_matrix_vector_products():
    """A vector takes the transposed products of a stack and keeps the bits of M @ w, M.T @ t."""
    rng = np.random.default_rng(12)
    M = rng.standard_normal((200, 500))
    op = DenseOperator(M)
    for _ in range(5):
        w, t = rng.standard_normal(500), rng.standard_normal(200)
        assert np.array_equal(op.apply(w), M @ w) and np.array_equal(op.adjoint(t), M.T @ t)


@pytest.mark.parametrize("batch", [2, 6, 300])
@pytest.mark.parametrize("order", ["C", "F"])
def test_column_norms_have_the_bits_of_np_linalg_norm(batch, order):
    """Row by row for a C-ordered stack, along each column otherwise, and no fused multiply-add.

    A numpy whose einsum or reduction sums in another order fails here
    instead of moving the logged distances and residuals.
    """
    rng = np.random.default_rng(batch)
    for rows in (1, 7, 200, 500):
        for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
            a = np.asarray(scale * rng.standard_normal((rows, batch)), order=order)
            assert np.array_equal(norms(a), np.linalg.norm(a, axis=0)), (rows, scale)


def test_single_column_and_vector_norms_have_the_bits_of_np_linalg_norm():
    rng = np.random.default_rng(1)
    for rows in (1, 7, 200, 500):
        for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
            v = scale * rng.standard_normal(rows)
            assert norms(v) == np.linalg.norm(v) and isinstance(norms(v), float)
            col = v[:, None]  # both C- and F-ordered: summed pairwise, as np.linalg.norm does
            assert np.array_equal(norms(col), np.linalg.norm(col, axis=0)), (rows, scale)
