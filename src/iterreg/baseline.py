"""Explicit-penalty baseline: proximal gradient for lam*J(w) + ||y - X w||^2.

The objective carries no 1/2 on the data term, so for the l1 bias the zero
solution is only reached at lam >= 2*||X^T y||_inf; the classical grid anchor
||X^T y||_inf sits a factor 2 below that threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bias import L1
from .errors import ContractViolation
from .linop import norms
from .pdsolver import write_csv

__all__ = ["lambda_grid", "solve_tikhonov", "TikhonovSolution", "lasso_path", "PathResult"]


def lambda_grid(X, y, count=100, span_decades=3.0):
    """Geometric grid lam_t = 10^(-span*t/(count-1)) * ||X^T y||_inf, descending."""
    if count < 2:
        raise ContractViolation(f"grid needs at least 2 points, got {count}")
    if not 0.0 < span_decades < np.inf:  # NaN included
        raise ContractViolation(f"span_decades must be finite and > 0, got {span_decades}")
    lam_max = float(np.max(np.abs(X.adjoint(np.asarray(y, dtype=float)))))
    if lam_max == 0.0:
        raise ContractViolation("X^T y = 0; the penalty grid is empty")
    t = np.arange(count)
    return list(lam_max * 10.0 ** (-span_decades * t / (count - 1)))


@dataclass
class TikhonovSolution:
    w: np.ndarray
    iters: int
    converged: bool


def solve_tikhonov(X, J, y, lam, w_init=None, tol=1e-8, max_iter=20000):
    """Proximal-gradient solve of lam*J(w) + ||y - X w||^2.

    Step size 1/nu^2 for the safe norm bound nu = ``X.norm_est()``, prox scale
    lam*step/2 to match the unhalved data term. Stops when the update is
    below tol*(1 + ||w||); if the budget runs out the last iterate is
    returned flagged as non-converged.
    """
    if lam <= 0:
        raise ContractViolation(f"penalty must be positive, got {lam}")
    if not tol > 0:  # NaN included
        raise ContractViolation(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ContractViolation(f"max_iter must be >= 1, got {max_iter}")
    y = np.asarray(y, dtype=float)
    nu = X.norm_est()
    step = 1.0 / (nu * nu)
    w = np.zeros(X.in_dim) if w_init is None else np.asarray(w_init, dtype=float).copy()
    for it in range(1, max_iter + 1):
        grad = X.adjoint(X.apply(w) - y)
        w_new = J.prox(lam * step / 2.0, w - step * grad)
        if norms(w_new - w) <= tol * (1.0 + norms(w)):
            return TikhonovSolution(w=w_new, iters=it, converged=True)
        w = w_new
    return TikhonovSolution(w=w, iters=max_iter, converged=False)


@dataclass
class PathResult:
    """Solutions along a descending penalty grid, with per-step work counts and nonzero counts."""

    lambdas: list
    solutions: list
    inner_iters: list
    objectives: list
    converged: list
    nnz: list

    def write_csv(self, path):
        write_csv(path, ("lambda", "inner_iters", "objective", "nnz"),
                  zip(self.lambdas, self.inner_iters, self.objectives, self.nnz))


def lasso_path(X, y, grid, tol=1e-8, max_iter=20000):
    """Solve the l1-penalized problem over a descending grid with warm starts."""
    grid = [float(g) for g in grid]
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ContractViolation("the penalty grid must be strictly decreasing")
    J = L1()
    y = np.asarray(y, dtype=float)
    w = np.zeros(X.in_dim)
    out = PathResult(lambdas=[], solutions=[], inner_iters=[], objectives=[], converged=[],
                     nnz=[])
    for lam in grid:
        sol = solve_tikhonov(X, J, y, lam, w_init=w, tol=tol, max_iter=max_iter)
        w = sol.w
        r = y - X.apply(w)
        out.lambdas.append(lam)
        out.solutions.append(w.copy())
        out.inner_iters.append(sol.iters)
        out.objectives.append(float(lam * J(w) + r @ r))
        out.converged.append(sol.converged)
        out.nnz.append(int(np.count_nonzero(w)))
    return out
