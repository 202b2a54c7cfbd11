import hypothesis
import numpy as np
import pytest
from itertools import combinations

from iterreg import (
    L1,
    Nuclear,
    SqL2,
    DenseOperator,
    certify,
    gen_matcomp,
    gen_sparse,
    make_config,
)

hypothesis.settings.register_profile(
    "default", max_examples=50, derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


def bp_oracle(Xm, y, feas_tol=1e-9):
    """Minimal-l1 interpolator by support enumeration (supports of size <= n).

    Solves the least-squares system on each candidate support, keeps the
    feasible ones, and returns the candidate with the smallest l1 norm.
    Independent of the iterative solver path.
    """
    n, p = Xm.shape
    scale = max(1.0, float(np.linalg.norm(y)))
    best, best_obj = None, np.inf
    for size in range(0, n + 1):
        for support in combinations(range(p), size):
            cand = np.zeros(p)
            if size:
                cols = Xm[:, list(support)]
                sol, *_ = np.linalg.lstsq(cols, y, rcond=None)
                if np.linalg.norm(cols @ sol - y) > feas_tol * scale:
                    continue
                cand[list(support)] = sol
            elif np.linalg.norm(y) > feas_tol * scale:
                continue
            obj = float(np.abs(cand).sum())
            if obj < best_obj - 1e-12:
                best_obj, best = obj, cand
    return best, best_obj


def power_norm(op, tol=1e-6, max_iter=1000, seed=0):
    """Spectral-norm estimate by power iteration on X^T X, written with np.linalg.norm.

    The reference for ``op_norm``: the same iteration with the same defaults,
    so the two must agree to the last bit.
    """
    v = np.random.default_rng(seed).standard_normal(op.in_dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iter):
        xv = op.apply(v)
        new_est = float(np.linalg.norm(xv))
        if new_est == 0.0:
            return 0.0
        v = op.adjoint(xv)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return new_est
        v /= nv
        if abs(new_est - est) <= tol * new_est:
            return new_est
        est = new_est
    return est


@pytest.fixture(scope="session")
def tiny_bp():
    """The 2x3 interpolation problem whose minimal-l1 solution is (0, 0, 1)."""
    X = DenseOperator([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    y = np.array([1.0, 1.0])
    return X, L1(), y


@pytest.fixture(scope="session")
def tiny_bp_cert(tiny_bp):
    X, J, y = tiny_bp
    return certify(X, J, y, cfg=make_config(X, max_iter=500_000),
                   feas_tol=1e-12, subgrad_tol=1e-11, check_every=25)


@pytest.fixture(scope="session")
def tiny_l1_problem():
    return gen_sparse(n=4, p=8, s=2, corr=0.0, y_norm=3.0, seed=21)


@pytest.fixture(scope="session")
def tiny_l1_cert(tiny_l1_problem):
    prob = tiny_l1_problem
    return certify(prob.X, L1(), prob.y, cfg=make_config(prob.X, max_iter=2_000_000),
                   feas_tol=1e-13, subgrad_tol=1e-11, check_every=100)


@pytest.fixture(scope="session")
def small_sql2():
    rng = np.random.default_rng(5)
    X = DenseOperator(rng.standard_normal((3, 6)))
    y = rng.standard_normal(3)
    return X, SqL2(0.5), y


@pytest.fixture(scope="session")
def small_sql2_cert(small_sql2):
    X, J, y = small_sql2
    return certify(X, J, y, cfg=make_config(X, max_iter=2_000_000),
                   feas_tol=1e-13, subgrad_tol=1e-11, check_every=100)


@pytest.fixture(scope="session")
def small_nuclear():
    prob = gen_matcomp(d=4, r=1, obs_frac_denom=2, y_norm=3.0, seed=31)
    return prob.X, Nuclear(4, 4), prob.y


@pytest.fixture(scope="session")
def small_nuclear_cert(small_nuclear):
    X, J, y = small_nuclear
    return certify(X, J, y, cfg=make_config(X, max_iter=2_000_000),
                   feas_tol=1e-13, subgrad_tol=1e-11, check_every=100)
