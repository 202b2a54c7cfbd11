"""Convex bias functionals with closed-form proximal maps.

Each bias J is proper, convex, lower semicontinuous with J(0) = 0, and knows
how to evaluate itself and compute prox_{tau J}. Subgradient membership is
measured for every bias by one prox fixed-point residual. ``L1`` can also
polish an approximate saddle pair into the exact pair on its support.
Biases are immutable; all methods are pure.

Every bias also acts on a (dim, B) stack of vectors column by column: the
prox maps each column, and J returns one value per column (a ``float`` for a
single vector).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .linop import as_vector, norms

__all__ = ["Bias", "L1", "SqL2", "Nuclear", "subgradient_residual"]


def subgradient_residual(J, w, g):
    """||prox_{1 J}(w + g) - w||, which is zero exactly when g is in dJ(w)."""
    w = np.asarray(w, dtype=float)
    return norms(J.prox(1.0, w + np.asarray(g, dtype=float)) - w)


def _per_column(total):
    """A float for the value of one vector (a 0-d result), else the array of values."""
    return float(total) if np.ndim(total) == 0 else total


def _check_tau(tau):
    if not tau >= 0:
        raise ContractViolation(f"prox scale must be nonnegative, got {tau}")


class Bias:
    """Base class for convex bias functionals."""

    def __call__(self, w):
        raise NotImplementedError

    def prox(self, tau, v):
        """argmin_w 0.5*||w - v||^2 + tau*J(w)."""
        raise NotImplementedError

    def polish(self, X, y, w, theta):
        """A candidate saddle pair of min J s.t. X w = y built from (w, theta), or None.

        The candidate still has to pass the saddle checks; a bias without a
        polish returns None.
        """
        return None


class L1(Bias):
    """J(w) = sum_i |w_i|; prox is componentwise soft-thresholding."""

    def __call__(self, w):
        a = np.abs(np.asarray(w, dtype=float))
        # Each column summed as a contiguous row adds up exactly as that column alone.
        return _per_column(np.ascontiguousarray(a.T).sum(axis=-1))

    def prox(self, tau, v):
        """Componentwise sign(v) * max(|v| - tau, 0); for tau > 0, |v_i| <= tau maps to +0.0."""
        _check_tau(tau)
        v = np.asarray(v, dtype=float)
        return v - np.minimum(np.maximum(v, -tau), tau)

    def polish(self, X, y, w, theta):
        """The exact pair on the support S and signs s of ``w``, or None.

        w becomes the least-squares solution of X_S w_S = y, zero off S, and
        theta its nearest point with -X_S^T theta = s. Both solves share one
        pseudo-inverse of X_S. None when w = 0, or when S has more entries
        than X has rows: then -X_S^T theta = s is overdetermined, and on
        generic data no candidate passes the checks.
        """
        support = np.flatnonzero(w)
        if not 0 < support.size <= X.out_dim:
            return None
        cols = X.columns(support)
        pinv = np.linalg.pinv(cols)
        w_pol = np.zeros_like(w)
        w_pol[support] = pinv @ y
        theta_pol = theta - pinv.T @ (cols.T @ theta + np.sign(w[support]))
        return w_pol, theta_pol

    def __repr__(self):
        return "L1()"


class SqL2(Bias):
    """J(w) = scale * ||w||^2; prox_{tau J}(v) = v / (1 + 2*scale*tau).

    The default scale 1/2 makes the prox the plain 1/(1+tau) contraction.
    """

    def __init__(self, scale=0.5):
        if scale <= 0:
            raise ContractViolation(f"sq_l2 scale must be positive, got {scale}")
        self.scale = float(scale)

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        sq = np.dot(w, w) if w.ndim == 1 else np.einsum("ij,ij->j", w, w)
        return _per_column(self.scale * sq)

    def prox(self, tau, v):
        _check_tau(tau)
        v = np.asarray(v, dtype=float)
        return v / (1.0 + 2.0 * self.scale * tau)

    def __repr__(self):
        return f"SqL2(scale={self.scale})"


class Nuclear(Bias):
    """Nuclear norm of the p1 x p2 reshaping; prox is singular-value shrinkage.

    A stack of B vectors is reshaped to B matrices. J sums singular values from one
    stacked SVD. The prox shrinks through one stacked eigh of the smaller Gram matrix:
    a kept (or crossing) singular value moves by about eps * s_1^2 / (2 * tau).
    """

    def __init__(self, p1, p2):
        self.p1, self.p2 = int(p1), int(p2)
        if self.p1 <= 0 or self.p2 <= 0:
            raise ContractViolation(f"nuclear shape must be positive, got {(p1, p2)}")

    def _as_matrices(self, w):
        """The p1 x p2 matrix of a vector, or the (B, p1, p2) matrices of a stack."""
        w = as_vector(w, self.p1 * self.p2, "nuclear bias", columns=True)
        return w.T.reshape(w.shape[1:] + (self.p1, self.p2))

    def __call__(self, w):
        return _per_column(np.linalg.svd(self._as_matrices(w), compute_uv=False).sum(axis=-1))

    def prox(self, tau, v):
        _check_tau(tau)
        V = self._as_matrices(v)
        if tau == 0:
            return np.array(v, dtype=float)
        M = np.swapaxes(V, -1, -2) if self.p1 < self.p2 else V
        lam, Q = np.linalg.eigh(np.swapaxes(M, -1, -2) @ M)
        s = np.sqrt(np.maximum(lam, 0.0))
        f = np.maximum(s - tau, 0.0) / np.maximum(s, tau)  # (s - tau)_+ / s; 0 at tau = inf
        out = (M @ (Q * f[..., None, :])) @ np.swapaxes(Q, -1, -2)
        return (out if M is V else np.swapaxes(out, -1, -2)).reshape(V.shape[:-2] + (-1,)).T

    def __repr__(self):
        return f"Nuclear({self.p1}, {self.p2})"
