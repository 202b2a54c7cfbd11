"""Linear operators: dense matrices, entry masks, 2-D forward differences.

Operators map flat float vectors to flat float vectors. A matrix variable over a
p1 x p2 grid is identified with a vector of length p1*p2 in row-major order, so
matrix-valued problems reuse the vector machinery unchanged. Every operator
also maps a stack of B such vectors, held as the columns of a (dim, B) array,
column by column. The library holds every stack in Fortran order, each column one
contiguous vector; :func:`as_vector` makes that copy of a C-ordered stack on the way in.
Operators are immutable after construction;
``apply`` and ``adjoint`` are pure and safe to share across concurrent runs.
``_adjoint`` returns a new array that the caller owns and may write into (``step`` does).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "MaskOperator",
    "Grad2D",
    "op_norm",
]


def as_vector(x, dim, what="vector", columns=False):
    """Coerce to a float vector of length ``dim``, else raise ContractViolation.

    With ``columns``, a (dim, B) stack of B such vectors as columns is taken too,
    and returned in Fortran order.
    """
    v = np.asarray(x, dtype=float, order="F")
    if v.ndim != 1 and not (columns and v.ndim == 2) or v.shape[0] != dim:
        form = f" or a ({dim}, B) stack" if columns else ""
        raise ContractViolation(
            f"{what}: expected one vector of length {dim}{form}, got shape {v.shape}")
    return v


def norms(a):
    """Euclidean norm of a vector (a float) or of each column of a stack, as np.linalg.norm.

    Bit for bit, by its formula: a column of a Fortran-ordered stack sums its squares
    pairwise along its contiguous run.
    """
    if a.ndim == 1:
        return math.sqrt(a @ a)
    return np.sqrt(np.add.reduce(a * a, axis=0))


class LinearOperator:
    """Base class; subclasses provide ``_apply`` and ``_adjoint``.

    Attributes
    ----------
    kind : str
        One of ``dense``, ``mask``, ``grad2d``, or ``tv-lift`` for the lifted
        operator of :func:`iterreg.problems.tv_reformulate`.
    in_dim, out_dim : int
        Domain and codomain dimensions (p and n); ``apply`` and ``adjoint``
        take a vector of the one and return a vector of the other, or map a
        (dim, B) stack of them column by column.
    """

    kind = "abstract"

    def __init__(self, in_dim, out_dim):
        in_dim, out_dim = int(in_dim), int(out_dim)
        if in_dim <= 0 or out_dim <= 0:
            raise ContractViolation(f"operator dims must be positive, got {in_dim}x{out_dim}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._norm_cache = None

    def apply(self, w):
        """Forward map X w, of a vector or of each column of a stack."""
        return self._apply(as_vector(w, self.in_dim, self.kind, columns=True))

    def adjoint(self, theta):
        """Adjoint map X^T theta, of a vector or of each column of a stack."""
        return self._adjoint(as_vector(theta, self.out_dim, self.kind, columns=True))

    def norm_est(self):
        """Cached spectral-norm bound for step sizes: 1.01 times :func:`op_norm`.

        That it lies above ||X|| is tested on the shipped designs, not proven.
        """
        if self._norm_cache is None:
            self._norm_cache = 1.01 * op_norm(self)
        return self._norm_cache

    def columns(self, idx):
        """The columns X e_j for j in ``idx``, as an out_dim x len(idx) array."""
        idx = np.asarray(idx, dtype=int)
        units = np.zeros((self.in_dim, len(idx)), order="F")
        units[idx, np.arange(len(idx))] = 1.0
        return self._apply(units)

    def as_matrix(self):
        """Dense out_dim x in_dim materialization."""
        return self.columns(np.arange(self.in_dim))

    def _apply(self, w):
        raise NotImplementedError

    def _adjoint(self, theta):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.out_dim}x{self.in_dim}>"


class DenseOperator(LinearOperator):
    """Explicit matrix, stored row-major with rows indexing the output.

    The operator holds a read-only copy of ``matrix``, so a later change to the
    caller's array does not reach it.
    """

    kind = "dense"

    def __init__(self, matrix):
        self._hold(np.array(matrix, dtype=float))

    @classmethod
    def _adopt(cls, matrix):
        """The operator of an array made for it alone, held without a copy and made read-only.

        For the library's own freshly made designs; the caller keeps no other use of the array.
        """
        op = cls.__new__(cls)
        op._hold(np.asarray(matrix, dtype=float))
        return op

    def _hold(self, a):
        if a.ndim != 2:
            raise ContractViolation(f"dense operator needs a 2-D array, got ndim={a.ndim}")
        a.setflags(write=False)
        self.matrix = a
        super().__init__(a.shape[1], a.shape[0])

    # a stack goes through its C-ordered (B, dim) transpose, so that BLAS packs the matrix as
    # stored, and comes back Fortran-ordered; a vector keeps the bits of M @ w and M.T @ t
    def _apply(self, w):
        return (w.T @ self.matrix.T).T

    def _adjoint(self, theta):
        return (theta.T @ self.matrix).T

    def columns(self, idx):
        return self.matrix[:, np.asarray(idx, dtype=int)]


class MaskOperator(LinearOperator):
    """Keep the observed entries of a p1 x p2 grid, zero out the rest.

    Self-adjoint and idempotent: it is the orthogonal projection onto the
    coordinates listed in ``observed``.
    """

    kind = "mask"

    def __init__(self, grid_shape, observed):
        p1, p2 = (int(grid_shape[0]), int(grid_shape[1]))
        if p1 <= 0 or p2 <= 0:
            raise ContractViolation(f"mask grid must be positive, got {grid_shape}")
        pairs = []
        for i, j in observed:
            i, j = int(i), int(j)
            if not (0 <= i < p1 and 0 <= j < p2):
                raise ContractViolation(f"mask index ({i},{j}) outside {p1}x{p2} grid")
            pairs.append((i, j))
        self.grid_shape = (p1, p2)
        self.observed = tuple(sorted(set(pairs)))
        gain = np.zeros(p1 * p2)
        for i, j in self.observed:
            gain[i * p2 + j] = 1.0
        gain.setflags(write=False)
        self.gain = gain
        super().__init__(p1 * p2, p1 * p2)

    def _apply(self, w):
        return (self.gain * w.T).T

    _adjoint = _apply


class Grad2D(LinearOperator):
    """Forward-difference gradient on a p1 x p2 grid, replicate boundary.

    Output stacks the row-direction differences then the column-direction
    ones, each of size p1*p2; the difference at the last row/column is zero.
    """

    kind = "grad2d"

    def __init__(self, p1, p2):
        self.p1, self.p2 = int(p1), int(p2)
        super().__init__(self.p1 * self.p2, 2 * self.p1 * self.p2)

    def _apply(self, w):
        W = w.reshape(self.p1, self.p2, *w.shape[1:])
        dr = np.zeros_like(W)
        dr[:-1, :] = W[1:, :] - W[:-1, :]
        dc = np.zeros_like(W)
        dc[:, :-1] = W[:, 1:] - W[:, :-1]
        return np.concatenate([dr, dc]).reshape(self.out_dim, *w.shape[1:])

    def _adjoint(self, theta):
        m, batch = self.p1 * self.p2, theta.shape[1:]
        a = theta[:m].reshape(self.p1, self.p2, *batch)
        b = theta[m:].reshape(self.p1, self.p2, *batch)
        out = np.zeros((m, *batch), order="F")
        grid = out.reshape(self.p1, self.p2, *batch)  # a view of out
        grid[1:, :] += a[:-1, :]
        grid[:-1, :] -= a[:-1, :]
        grid[:, 1:] += b[:, :-1]
        grid[:, :-1] -= b[:, :-1]
        return out


_NORM_SEED, _NORM_TOL, _NORM_MAX_ITER = 0, 1e-6, 1000  # op_norm's start draw, relative stop, steps


def op_norm(op):
    """Estimate the spectral norm of ``op`` by power iteration on X^T X.

    The estimate approaches the true norm from below; the upper bound taken from
    it, tested on the shipped designs but not proven, is
    :meth:`LinearOperator.norm_est`. A zero operator yields 0.
    """
    v = np.random.default_rng(_NORM_SEED).standard_normal(op.in_dim)
    v /= norms(v)
    est = 0.0
    for _ in range(_NORM_MAX_ITER):
        xv = op._apply(v)
        new_est = norms(xv)
        if new_est == 0.0:
            return 0.0
        v = op._adjoint(xv)
        nv = norms(v)
        if nv == 0.0:
            return new_est
        v /= nv
        if abs(new_est - est) <= _NORM_TOL * new_est:
            return new_est
        est = new_est
    return est
