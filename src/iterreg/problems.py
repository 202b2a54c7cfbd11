"""Seeded generators for experiment instances, exact-norm noise, serialization.

Randomness comes from numpy's default PCG64 generator seeded per call, so
every instance is reproducible from its parameters and seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import BlockBias, L1, Zero
from .errors import ContractViolation
from .linop import DenseOperator, Grad2D, LinearOperator, MaskOperator, stack

__all__ = [
    "NoisyProblem",
    "gen_sparse",
    "gen_matcomp",
    "add_noise",
    "tv_reformulate",
    "save_problem",
    "load_problem",
]


@dataclass
class NoisyProblem:
    """An operator with clean data, observed data, and the exact noise level."""

    X: LinearOperator
    y: np.ndarray
    y_delta: np.ndarray
    delta: float
    ground_truth: np.ndarray | None
    seed: int
    kind: str = "custom"
    params: dict = dataclasses.field(default_factory=dict)


def gen_sparse(n=200, p=500, s=75, corr=0.2, y_norm=20.0, seed=0):
    """Correlated Gaussian design with an s-sparse equal-entries ground truth.

    Rows of X are drawn from N(0, Sigma) with Sigma_ij = corr^|i-j|; the
    ground truth has s entries equal to 1 at uniform positions before the
    joint rescaling of (w0, y) that sets ||y|| = y_norm.

    The columns z_j of a standard normal n x p draw Z become the columns of X
    in place by the AR(1) recurrence x_0 = z_0, x_j = corr x_{j-1} +
    sqrt(1 - corr^2) z_j. This is X = Z L^T for the Cholesky factor L of
    Sigma, whose closed form is L_j0 = corr^j and L_ji = corr^(j-i)
    sqrt(1 - corr^2) for 1 <= i <= j, so neither Sigma nor L is formed; the
    two agree up to rounding, and at corr = 0 bit for bit.
    """
    if not (0 <= s <= p and 0 < n <= p):
        raise ContractViolation(f"need 0 <= s <= p and 0 < n <= p, got n={n}, p={p}, s={s}")
    if not (0.0 <= corr < 1.0):
        raise ContractViolation(f"corr must lie in [0,1), got {corr}")
    if not 0.0 <= y_norm < np.inf:  # NaN included
        raise ContractViolation(f"y_norm must be finite and >= 0, got {y_norm}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    innovation = np.sqrt(1.0 - corr * corr)
    for j in range(1, p):
        X[:, j] *= innovation
        X[:, j] += corr * X[:, j - 1]
    w0 = np.zeros(p)
    if s > 0:
        support = rng.choice(p, size=s, replace=False)
        w0[support] = 1.0
    y = X @ w0
    norm_y = np.linalg.norm(y)
    if norm_y > 0:
        scale = y_norm / norm_y
        y *= scale
        w0 *= scale
    return NoisyProblem(X=DenseOperator._adopt(X), y=y, y_delta=y.copy(), delta=0.0,
                        ground_truth=w0, seed=int(seed), kind="sparse",
                        params={"n": n, "p": p, "s": s, "corr": corr, "y_norm": y_norm})


def gen_matcomp(d=20, r=5, obs_frac_denom=5, y_norm=20.0, seed=0):
    """Rank-r d x d target from a Gaussian factorization, observed on a mask.

    The target U V^T is rescaled to Frobenius norm y_norm and floor(d^2 /
    obs_frac_denom) distinct entries are observed uniformly at random.
    """
    if not (0 < r <= d):
        raise ContractViolation(f"need 0 < r <= d, got d={d}, r={r}")
    if obs_frac_denom < 1:
        raise ContractViolation(f"obs_frac_denom must be >= 1, got {obs_frac_denom}")
    if not 0.0 <= y_norm < np.inf:  # NaN included
        raise ContractViolation(f"y_norm must be finite and >= 0, got {y_norm}")
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((d, r))
    V = rng.standard_normal((d, r))
    Y = U @ V.T
    Y *= y_norm / np.linalg.norm(Y)
    n_obs = (d * d) // obs_frac_denom
    flat = rng.choice(d * d, size=n_obs, replace=False)
    pairs = [(int(f) // d, int(f) % d) for f in flat]
    X = MaskOperator((d, d), pairs)
    gt = Y.ravel()
    y = X.apply(gt)
    return NoisyProblem(X=X, y=y, y_delta=y.copy(), delta=0.0,
                        ground_truth=gt, seed=int(seed), kind="matcomp",
                        params={"d": d, "r": r, "obs_frac_denom": obs_frac_denom,
                                "y_norm": y_norm})


def add_noise(prob, delta, seed):
    """Observed data at exact distance delta from the clean data.

    Draws an i.i.d. Gaussian direction and rescales it so that
    ||y - y_delta|| equals delta exactly. For a mask problem the direction
    lives on the observed entries: the masking adjoint annihilates the others,
    so noise placed there would be invisible to the iteration.
    """
    if not 0 <= delta < np.inf:  # NaN included
        raise ContractViolation(f"delta must be finite and nonnegative, got {delta}")
    if delta == 0:
        return dataclasses.replace(prob, y_delta=prob.y.copy(), delta=0.0)
    gain = prob.X.gain if isinstance(prob.X, MaskOperator) else 1.0
    if not np.any(gain):
        raise ContractViolation("a mask with no observed entry cannot carry noise")
    rng = np.random.default_rng(seed)
    n = prob.y.shape[0]
    e = rng.standard_normal(n) * gain
    while np.linalg.norm(e) == 0.0:
        e = rng.standard_normal(n) * gain
    y_delta = prob.y + delta * e / np.linalg.norm(e)
    return dataclasses.replace(prob, y_delta=y_delta, delta=float(delta))


def tv_reformulate(X, y, p1, p2):
    """Lift an observation operator on a p1 x p2 grid to the gradient-split form.

    Returns the stacked operator [[X, 0], [grad, -Id]], the block bias that is
    zero on the image block and l1 on the gradient block, and the extended
    data vector (y, 0). Solving the lifted interpolation problem minimizes the
    total variation of the image among observation-consistent images.
    """
    p1, p2 = int(p1), int(p2)
    if X.in_dim != p1 * p2:
        raise ContractViolation(f"operator domain {X.in_dim} != grid size {p1 * p2}")
    y = np.asarray(y, dtype=float)
    if y.shape != (X.out_dim,):
        raise ContractViolation(f"data length {y.shape} != operator range {X.out_dim}")
    grad = Grad2D(p1, p2)
    m = grad.out_dim
    lifted = stack([[X, None], [grad, DenseOperator(-np.eye(m))]])
    bias = BlockBias([(Zero(), 0, p1 * p2), (L1(), p1 * p2, p1 * p2 + m)])
    y_lifted = np.concatenate([y, np.zeros(m)])
    return lifted, bias, y_lifted


def save_problem(prob, out_dir):
    """Write a problem to a directory: operator, data vectors, metadata."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(prob.X, DenseOperator):
        np.savetxt(out / "X.csv", prob.X.matrix, delimiter=",")
        op_meta = {"operator": "dense"}
    elif isinstance(prob.X, MaskOperator):
        np.savetxt(out / "mask.csv", np.array(prob.X.observed, dtype=int),
                   delimiter=",", fmt="%d")
        op_meta = {"operator": "mask", "grid": list(prob.X.grid_shape)}
    else:
        raise ContractViolation(f"cannot serialize operator kind {prob.X.kind!r}")
    np.savetxt(out / "y.csv", prob.y, delimiter=",")
    np.savetxt(out / "y_delta.csv", prob.y_delta, delimiter=",")
    if prob.ground_truth is not None:
        np.savetxt(out / "ground_truth.csv", prob.ground_truth, delimiter=",")
    meta = {"kind": prob.kind, "params": prob.params, "seed": prob.seed,
            "delta": prob.delta, **op_meta}
    (out / "meta.json").write_text(json.dumps(meta, indent=2))


def load_problem(in_dir):
    """Inverse of :func:`save_problem`; a missing file but the ground truth is a ContractViolation."""
    src = Path(in_dir)

    def saved(name):
        if not (src / name).is_file():
            raise ContractViolation(f"problem directory {src} has no {name}")
        return src / name

    meta = json.loads(saved("meta.json").read_text())
    if meta["operator"] == "dense":
        X = DenseOperator._adopt(np.loadtxt(saved("X.csv"), delimiter=",", ndmin=2))
    elif meta["operator"] == "mask":
        pairs = np.loadtxt(saved("mask.csv"), delimiter=",", ndmin=2, dtype=int)
        X = MaskOperator(tuple(meta["grid"]), [tuple(p) for p in pairs])
    else:
        raise ContractViolation(f"unknown operator kind {meta['operator']!r}")
    gt_path = src / "ground_truth.csv"
    return NoisyProblem(X=X, y=_load_vector(saved("y.csv"), X.out_dim),
                        y_delta=_load_vector(saved("y_delta.csv"), X.out_dim),
                        delta=float(meta["delta"]),
                        ground_truth=_load_vector(gt_path, X.in_dim) if gt_path.exists() else None,
                        seed=int(meta["seed"]), kind=meta["kind"], params=meta["params"])


def _load_vector(path, dim):
    """The vector stored in ``path``; raises unless it has ``dim`` entries."""
    v = np.atleast_1d(np.loadtxt(path, delimiter=","))
    if v.shape != (dim,):
        raise ContractViolation(f"{path}: expected {dim} entries, got shape {v.shape}")
    return v
