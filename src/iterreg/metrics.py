"""Duality gap, Bregman divergence, and checkable error bounds.

All quantities here are taken with respect to the clean data y; a
:class:`~iterreg.pdsolver.SaddleCertificate` stands in for the exact saddle
point wherever one is needed, and then its ``y`` is the clean data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bias import L1, _per_column
from .errors import AssumptionViolated, CertificateInvalid, ContractViolation

__all__ = [
    "raw_gap",
    "gap",
    "gap_equals_bregman_check",
    "weighted_v",
    "BoundInputs",
    "stability_gap_bound",
    "stability_feas_bound",
    "NormBoundData",
    "norm_bound_data",
    "norm_bound",
]


class _Reference:
    """J(w*), X w* - y and the subgradient -X^T theta* of ``cert``, each computed on first read."""

    def __init__(self, cert, X, J):
        self.cert, self.X, self.J = cert, X, J

    j_star = cached_property(lambda self: self.J(self.cert.w_star))
    r_star = cached_property(lambda self: self.X.apply(self.cert.w_star) - self.cert.y)
    g_star = cached_property(lambda self: -self.X.adjoint(self.cert.theta_star))


def raw_gap(jw, xw, theta, j_star, theta_star, y, r_star):
    """L(w, theta*) - L(w*, theta) from J(w) and X w, column-wise and unclamped.

    (w*, theta*) is the reference pair, with J(w*) = ``j_star`` and
    X w* - y = ``r_star``. ``xw`` and ``theta`` are vectors, or (dim, B) stacks
    whose columns pair up; then ``jw`` holds J of each column of w, ``y`` is a
    (dim, 1) column, and the result has one value per column. At theta =
    theta* the value is the Bregman divergence D_J(w, w*) at the subgradient
    -X^T theta*. The gap columns of an iterate log are these raw values.
    """
    return jw - j_star + theta_star @ (xw - y) - r_star @ theta


def gap(w, theta, cert, X, J):
    """Duality gap L(w, theta*) - L(w*, theta) against a certificate and its clean data.

    Tiny negative values (within 1e-10 * (1 + |L(w*, theta*)|), the inevitable
    footprint of a numerical certificate) are clamped to 0; anything more
    negative means the certificate is not a saddle point and raises.
    """
    w, ref = np.asarray(w, dtype=float), _Reference(cert, X, J)
    val = float(raw_gap(J(w), X.apply(w), np.asarray(theta, dtype=float), ref.j_star,
                        cert.theta_star, cert.y, ref.r_star))
    if val >= 0.0:
        return val
    clamp = 1e-10 * (1.0 + abs(ref.j_star + float(cert.theta_star @ ref.r_star)))  # L(w*, theta*)
    if val > -clamp:
        return 0.0
    raise CertificateInvalid(
        f"gap {val:.6e} is negative beyond the clamp {clamp:.3e}; "
        "the certificate does not behave like a saddle point")


def _bregman(jw, j_ref, w, w_ref, g_ref):
    """D_J(w, w_ref) = ``jw`` - ``j_ref`` - <g_ref, w - w_ref>, column-wise for a stack ``w``."""
    return jw - j_ref - g_ref @ (w - w_ref)


def gap_equals_bregman_check(w, cert, X, J):
    """Check that the theta-free gap equals the Bregman divergence at w, within 1e-10.

    The theta-free gap L(w, theta*) - L(w*, 0) must coincide with D_J(w, w*) at
    the subgradient -X^T theta*. The two differ by <theta*, X w* - y> whatever
    w is, so the verdict is the certificate's, the same at every w.
    """
    w, ref = np.asarray(w, dtype=float), _Reference(cert, X, J)
    jw = J(w)
    lhs = raw_gap(jw, X.apply(w), np.zeros(X.out_dim), ref.j_star, cert.theta_star, cert.y,
                  ref.r_star)
    rhs = _bregman(jw, ref.j_star, w, cert.w_star, ref.g_star)
    return bool(abs(lhs - rhs) <= 1e-10)


def weighted_v(w, theta, tau, sigma):
    """V(z) = ||w||^2 / (2 tau) + ||theta||^2 / (2 sigma)."""
    if tau <= 0 or sigma <= 0:
        raise ContractViolation(f"tau and sigma must be positive, got {tau}, {sigma}")
    w = np.asarray(w, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return float(np.dot(w, w) / (2.0 * tau) + np.dot(theta, theta) / (2.0 * sigma))


@dataclass(frozen=True)
class BoundInputs:
    """Ingredients of the stability bounds: V(z0 - z*), sigma, epsilon, delta."""

    v0: float
    sigma: float
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.v0 < 0 or self.delta < 0:
            raise ContractViolation("v0 and delta must be nonnegative")
        if self.sigma <= 0:
            raise ContractViolation("sigma must be positive")
        if not (0.0 < self.epsilon < 1.0):
            raise ContractViolation(f"epsilon must lie in (0,1), got {self.epsilon}")


def _iterations(k):
    """``k`` as an array of iterations, each of which must be >= 1."""
    k = np.asarray(k)
    if np.any(k < 1):
        raise ContractViolation(f"bound needs k >= 1, got {np.min(k)}")
    return k


def stability_gap_bound(k, b):
    """(sqrt(V0) + sqrt(2 sigma) * delta * k)^2 / k; equals V0/k when delta=0.

    ``k`` is one iteration (giving a float) or an array of them.
    """
    k = _iterations(k)
    return _per_column((np.sqrt(b.v0) + np.sqrt(2.0 * b.sigma) * b.delta * k) ** 2 / k)


def stability_feas_bound(k, b):
    """Upper bound on ||X w_avg^k - y||^2 under noise level delta.

    ``k`` is one iteration (giving a float) or an array of them.
    """
    k = _iterations(k)
    eps, sig, d = b.epsilon, b.sigma, b.delta
    lead = 2.0 * (1.0 + eps) / (sig * eps * (1.0 - eps))
    inner = (np.sqrt(2.0 * sig * b.v0) * d
             + sig * eps / (1.0 - eps) * d * d
             + 2.0 * sig * d * d * k
             + b.v0 / k)
    return _per_column(lead * inner)


@dataclass(frozen=True)
class NormBoundData:
    """Active set and conditioning data for the sparse-recovery norm bound."""

    gamma_set: np.ndarray
    m: float
    xg_pinv_norm: float
    x_norm: float


def norm_bound_data(X, cert):
    """Extract the active column set and conditioning constants from a certificate.

    Columns j with |<X_j, theta*>| >= 1 - 1e-6 form the active set; the
    maximum correlation off the active set must stay below 1, and the active
    submatrix must be injective. Requires an l1 certificate (dual feasibility
    |X^T theta*|_inf <= 1).
    """
    active_tol = 1e-6
    corr = np.abs(_Reference(cert, X, L1()).g_star)
    if float(corr.max()) > 1.0 + active_tol:
        raise CertificateInvalid(
            f"|X^T theta*| reaches {corr.max():.6f} > 1; not dual feasible for l1")
    gamma = np.flatnonzero(corr >= 1.0 - active_tol)
    comp = np.flatnonzero(corr < 1.0 - active_tol)
    m = float(corr[comp].max()) if comp.size else 0.0
    if m >= 1.0 - active_tol:
        raise AssumptionViolated(f"off-support correlation {m:.6f} is not bounded away from 1")

    full = X.as_matrix()
    x_norm = float(np.linalg.svd(full, compute_uv=False)[0])
    if gamma.size == 0:
        return NormBoundData(gamma_set=gamma, m=m, xg_pinv_norm=0.0, x_norm=x_norm)
    sub = full[:, gamma]
    svals = np.linalg.svd(sub, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise AssumptionViolated(
            f"active submatrix is rank-deficient (sigma_min={svals[-1]:.3e})")
    return NormBoundData(gamma_set=gamma, m=m,
                         xg_pinv_norm=float(1.0 / svals[-1]), x_norm=x_norm)


def norm_bound(w, cert, bound_data, X):
    """Norm-distance bound for l1: clean residual term plus weighted l1 Bregman term."""
    w, ref = np.asarray(w, dtype=float), _Reference(cert, X, L1())
    res = float(np.linalg.norm(X.apply(w) - cert.y))
    d = max(float(_bregman(ref.J(w), ref.j_star, w, cert.w_star, ref.g_star)), 0.0)
    return (bound_data.xg_pinv_norm * res
            + (1.0 + bound_data.xg_pinv_norm * bound_data.x_norm) / (1.0 - bound_data.m) * d)
