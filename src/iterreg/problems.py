"""Seeded generators for experiment instances, exact-norm noise, serialization.

Randomness comes from numpy's default PCG64 generator seeded per call, so
every instance is reproducible from its parameters and seed.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import Bias, L1
from .errors import ContractViolation
from .linop import DenseOperator, Grad2D, LinearOperator, MaskOperator, as_vector

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

    Returns the operator (w, u) -> (X w, grad w - u), that is [[X, 0], [grad, -Id]],
    the bias ||u||_1, zero on the image block w, and the extended data vector
    (y, 0). Solving the lifted interpolation problem minimizes the total
    variation of the image among observation-consistent images.
    """
    p1, p2 = int(p1), int(p2)
    if X.in_dim != p1 * p2:
        raise ContractViolation(f"operator domain {X.in_dim} != grid size {p1 * p2}")
    y = np.asarray(y, dtype=float)
    if y.shape != (X.out_dim,):
        raise ContractViolation(f"data length {y.shape} != operator range {X.out_dim}")
    lifted = _TvLift(X, Grad2D(p1, p2))
    return lifted, _TvBias(p1 * p2, lifted.in_dim), np.concatenate([y, np.zeros(2 * p1 * p2)])


class _TvLift(LinearOperator):
    """(w, u) -> (X w, grad w - u); the adjoint is (a, b) -> (X^T a + grad^T b, -b).

    Each block is added into zeros, X first, then grad, then -Id, so that every
    entry rounds as in the blockwise product, signed zeros included.
    """

    kind = "tv-lift"

    def __init__(self, X, grad):
        self.X, self.grad = X, grad
        super().__init__(X.in_dim + grad.out_dim, X.out_dim + grad.out_dim)

    def _apply(self, w):
        img, n = self.X.in_dim, self.X.out_dim
        out = np.zeros((self.out_dim, *w.shape[1:]), order="F")
        out[:n] += self.X._apply(w[:img])
        out[n:] += self.grad._apply(w[:img])
        out[n:] -= w[img:]
        return out

    def _adjoint(self, theta):
        img, n = self.X.in_dim, self.X.out_dim
        out = np.zeros((self.in_dim, *theta.shape[1:]), order="F")
        out[:img] += self.X._adjoint(theta[:n])
        out[:img] += self.grad._adjoint(theta[n:])
        out[img:] -= theta[n:]
        return out


class _TvBias(Bias):
    """||u||_1 of the gradient block u of (w, u), zero on the image block w of length ``img``."""

    def __init__(self, img, dim):
        self.img, self.dim = img, dim

    def __call__(self, w):
        return L1()(as_vector(w, self.dim, "tv bias", columns=True)[self.img:])

    def prox(self, tau, v):
        v = as_vector(v, self.dim, "tv bias", columns=True)
        return np.concatenate([v[:self.img], L1().prox(tau, v[self.img:])])


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
    """Inverse of :func:`save_problem`, checking what it reads.

    A missing file but the ground truth, a ``meta.json`` that is not a JSON
    object or lacks a key or holds one of the wrong type (a ``grid`` that is
    not two positive integers, a ``matcomp`` kind over an operator other
    than the mask), and a CSV file that does not parse, has the wrong
    shape or holds a non-finite entry are each one ContractViolation naming
    the file, and the key or line where one applies.
    """
    src = Path(in_dir)

    def saved(name):
        if not (src / name).is_file():
            raise ContractViolation(f"problem directory {src} has no {name}")
        return src / name

    meta_path = saved("meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise ContractViolation(f"{meta_path} is not JSON: {exc}") from None

    def key(name, convert=lambda v: v):
        if not isinstance(meta, dict) or name not in meta:
            raise ContractViolation(f"{meta_path} has no key {name!r}")
        try:
            return convert(meta[name])
        except (TypeError, ValueError):
            raise ContractViolation(f"{meta_path}: key {name!r} holds {meta[name]!r}") from None

    if key("operator") == "dense":
        X = DenseOperator._adopt(_load_csv(saved("X.csv")))
    elif meta["operator"] == "mask":
        mask_path = saved("mask.csv")
        pairs = _load_csv(mask_path, dtype=int)
        if pairs.shape[1] != 2:
            raise ContractViolation(f"{mask_path}: expected 2 entries (i, j) a line, got {pairs.shape[1]}")
        X = MaskOperator(key("grid", _grid), [tuple(p) for p in pairs])
    else:
        raise ContractViolation(f"{meta_path}: key 'operator' holds {meta['operator']!r}")
    kind = key("kind")
    if kind == "matcomp" and not isinstance(X, MaskOperator):
        raise ContractViolation(f"{meta_path}: key 'kind' holds 'matcomp' over a "
                                f"{meta['operator']!r} operator, not a mask")
    gt_path = src / "ground_truth.csv"
    return NoisyProblem(X=X, y=_load_vector(saved("y.csv"), X.out_dim),
                        y_delta=_load_vector(saved("y_delta.csv"), X.out_dim),
                        delta=key("delta", float),
                        ground_truth=_load_vector(gt_path, X.in_dim) if gt_path.exists() else None,
                        seed=key("seed", int), kind=kind, params=key("params"))


def _grid(value):
    """The grid shape ``value`` as a tuple; raises ValueError unless it is two positive integers."""
    if not (isinstance(value, list) and len(value) == 2
            and all(type(v) is int and v > 0 for v in value)):
        raise ValueError(value)
    return tuple(value)


def _load_csv(path, dtype=float):
    """The rows of the CSV file ``path``; one that is empty, does not parse or holds a non-finite entry raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's "no data" warning; the error follows
            a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=dtype)
    except ValueError as exc:
        raise ContractViolation(f"{path}: {exc}") from None
    if not a.size:
        raise ContractViolation(f"{path} holds no data")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        row, col = bad[0]
        raise ContractViolation(f"{path}: line {row + 1} holds the non-finite entry {a[row, col]}")
    return a


def _load_vector(path, dim):
    """The vector stored in ``path``; raises unless it has ``dim`` entries."""
    v = np.atleast_1d(_load_csv(path).squeeze())
    if v.shape != (dim,):
        raise ContractViolation(f"{path}: expected {dim} entries, got shape {v.shape}")
    return v
