import json

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
    save_problem,
)

hypothesis.settings.register_profile(
    "default", max_examples=50, derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


# the pathcmp run of scripts/cli_outputs.py, as keywords of ExperimentSpec
PATHCMP_GOLDEN = {"eps": 0.9, "problem": {
    "n": 40, "p": 80, "s": 6, "corr": 0.3, "y_norm": 6.0, "delta": 1.0, "folds": 2,
    "grid_count": 6, "grid_span": 2.0, "lasso_tol": 1e-3, "lasso_max_iter": 200,
    "cp_iters": 30}}


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


def identity(dim):
    """Identity operator on R^dim."""
    return DenseOperator(np.eye(int(dim)))


def power_norm(op):
    """Spectral-norm estimate by power iteration on X^T X, written with np.linalg.norm.

    The reference for ``op_norm``: the same iteration with the same seed (0),
    tolerance (1e-6) and step budget (1000), so the two must agree to the last bit.
    """
    v = np.random.default_rng(0).standard_normal(op.in_dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(1000):
        xv = op.apply(v)
        new_est = float(np.linalg.norm(xv))
        if new_est == 0.0:
            return 0.0
        v = op.adjoint(xv)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return new_est
        v /= nv
        if abs(new_est - est) <= 1e-6 * new_est:
            return new_est
        est = new_est
    return est


def _with_first_cell(row, value):
    """Text edit: the first cell of line ``row`` (from 1) of a CSV text set to ``value``."""
    def edit(text):
        lines = text.splitlines()
        lines[row - 1] = ",".join([value, *lines[row - 1].split(",")[1:]])
        return "\n".join(lines) + "\n"
    return edit


def _meta_with(**keys):
    """Text edit: a meta.json with ``keys`` set."""
    return lambda text: json.dumps({**json.loads(text), **keys})


# Saved problems each broken in one file: (problem kind, file, edit of the file's text,
# what load_problem says after the file's path).
MALFORMED = {
    "meta-not-json": ("sparse", "meta.json", lambda text: "{",
                      " is not JSON: Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"),
    "meta-without-operator": (
        "sparse", "meta.json",
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "operator"}),
        " has no key 'operator'"),
    "meta-delta-not-a-number": ("sparse", "meta.json", _meta_with(delta="abc"),
                                ": key 'delta' holds 'abc'"),
    "meta-unknown-operator": ("sparse", "meta.json", _meta_with(operator="sparse"),
                              ": key 'operator' holds 'sparse'"),
    "meta-matcomp-over-dense": ("sparse", "meta.json", _meta_with(kind="matcomp"),
                                ": key 'kind' holds 'matcomp' over a 'dense' operator, not a mask"),
    "meta-matcomp-over-dense-list-params": (
        "sparse", "meta.json", _meta_with(kind="matcomp", params=[1]),
        ": key 'kind' holds 'matcomp' over a 'dense' operator, not a mask"),
    "meta-grid-text": ("matcomp", "meta.json", _meta_with(grid="ab"), ": key 'grid' holds 'ab'"),
    "meta-grid-one-entry": ("matcomp", "meta.json", _meta_with(grid=[4]),
                            ": key 'grid' holds [4]"),
    "meta-grid-fraction": ("matcomp", "meta.json", _meta_with(grid=[4.7, 4]),
                           ": key 'grid' holds [4.7, 4]"),
    "meta-grid-zero": ("matcomp", "meta.json", _meta_with(grid=[0, 4]),
                       ": key 'grid' holds [0, 4]"),
    "mask-three-columns": ("matcomp", "mask.csv", lambda text: "0,1,2\n1,2,3\n",
                           ": expected 2 entries (i, j) a line, got 3"),
    "mask-not-integer": ("matcomp", "mask.csv", lambda text: "0,1\n1,2.5\n",
                         ": could not convert string '2.5' to int64 at row 1, column 2."),
    "X-nan": ("sparse", "X.csv", _with_first_cell(2, "nan"),
              ": line 2 holds the non-finite entry nan"),
    "y-inf": ("sparse", "y.csv", _with_first_cell(1, "inf"),
              ": line 1 holds the non-finite entry inf"),
    "y_delta-nan": ("sparse", "y_delta.csv", _with_first_cell(3, "nan"),
                    ": line 3 holds the non-finite entry nan"),
    "ground_truth-minus-inf": ("sparse", "ground_truth.csv", _with_first_cell(5, "-inf"),
                               ": line 5 holds the non-finite entry -inf"),
    "X-empty": ("sparse", "X.csv", lambda text: "", " holds no data"),
    "y-empty": ("sparse", "y.csv", lambda text: "", " holds no data"),
}


def malformed_problem(path, case):
    """Save a small problem of MALFORMED[case]'s kind to ``path``, break its file, return the error."""
    kind, name, edit, said = MALFORMED[case]
    save_problem(gen_sparse(n=4, p=6, s=1, seed=0) if kind == "sparse"
                 else gen_matcomp(d=4, r=1, obs_frac_denom=2, seed=0), path)
    broken = path / name
    broken.write_text(edit(broken.read_text()))
    return f"{broken}{said}"


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
