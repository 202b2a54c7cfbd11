"""Primal-dual iteration for min J(w) subject to X w = y, with diagnostics.

The update, from (w_k, theta_k, theta_{k-1}):

    w_{k+1}     = prox_{tau J}( w_k - tau * X^T (2 theta_k - theta_{k-1}) )
    theta_{k+1} = theta_k + sigma * (X w_{k+1} - y_obs)

with w_0 = 0 and theta_0 = theta_{-1} = 0, and step sizes
constrained by sigma * tau * ||X||^2 <= epsilon < 1.

``iterate`` yields the states k = 0..max_iter and is the one loop over
``step``. ``run`` records per-iteration diagnostics into an
:class:`IterateLog`, including the averages over w_1..w_k and
theta_1..theta_k that the rate and stability guarantees attach to;
``certify`` drives the iteration on clean data until the pair satisfies the
saddle-point conditions (feasibility plus subgradient inclusion) at tight
tolerances, producing the reference used by all gap and distance metrics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .bias import subgradient_residual
from .errors import CertificationFailure, ContractViolation, NumericalFailure
from .linop import as_vector

__all__ = [
    "SolverConfig",
    "make_config",
    "PdState",
    "initial_state",
    "step",
    "iterate",
    "run",
    "certify",
    "SaddleCertificate",
    "LogRow",
    "IterateLog",
    "CSV_VERSION",
    "write_csv",
]

CSV_VERSION = "# iterreg-csv v1"


def write_csv(path, columns, rows):
    """Write rows under the schema tag and a header; floats as repr, None empty."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_VERSION + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else (repr(v) if isinstance(v, float) else v)
                             for v in row])


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes and iteration budget for one solver run.

    Use :func:`make_config` to derive valid step sizes from an operator.
    """

    epsilon: float
    tau: float
    sigma: float
    max_iter: int
    record_every: int = 1

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ContractViolation(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.tau <= 0 or self.sigma <= 0:
            raise ContractViolation(f"step sizes must be positive, got tau={self.tau}, sigma={self.sigma}")
        if self.max_iter < 0:
            raise ContractViolation(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.record_every < 1:
            raise ContractViolation(f"record_every must be >= 1, got {self.record_every}")


def make_config(X, epsilon=0.99, max_iter=5000, record_every=1):
    """Build a SolverConfig with tau = sigma = sqrt(epsilon)/nu.

    Here nu is 1.01 times the norm estimate of X, so that power-iteration
    underestimation cannot break sigma*tau*||X||^2 <= epsilon.
    """
    nu = 1.01 * X.norm_est()
    if nu == 0.0:
        raise ContractViolation("cannot pick step sizes for the zero operator")
    step_size = float(np.sqrt(epsilon) / nu)
    return SolverConfig(epsilon=float(epsilon), tau=step_size, sigma=step_size,
                        max_iter=int(max_iter), record_every=int(record_every))


@dataclass
class PdState:
    """One primal-dual iterate and the image X w of its primal part."""

    w: np.ndarray
    theta: np.ndarray
    theta_prev: np.ndarray
    k: int
    xw: np.ndarray


def initial_state(X):
    """The all-zero state at k = 0."""
    return PdState(w=np.zeros(X.in_dim), theta=np.zeros(X.out_dim),
                   theta_prev=np.zeros(X.out_dim), k=0, xw=np.zeros(X.out_dim))


def step(state, X, J, y_obs, cfg):
    """One full primal-dual update; returns a new state with k incremented."""
    w_new = J.prox(cfg.tau, state.w - cfg.tau * X.adjoint(2.0 * state.theta - state.theta_prev))
    xw_new = X.apply(w_new)
    theta_new = state.theta + cfg.sigma * (xw_new - y_obs)
    if not (np.all(np.isfinite(w_new)) and np.all(np.isfinite(theta_new))):
        raise NumericalFailure(f"non-finite iterate at iteration {state.k + 1}")
    return PdState(w=w_new, theta=theta_new, theta_prev=state.theta, k=state.k + 1, xw=xw_new)


def iterate(X, J, y_obs, cfg):
    """Yield the states k = 0..cfg.max_iter of the iteration on ``y_obs``.

    Before the first state, the step sizes must satisfy
    sigma*tau*(1.01*||X||)^2 <= epsilon, with float slack.
    """
    y_obs = as_vector(y_obs, X.out_dim, "y_obs")
    nu = 1.01 * X.norm_est()
    if cfg.sigma * cfg.tau * nu * nu > cfg.epsilon * (1.0 + 1e-9):
        raise ContractViolation(
            f"step sizes violate sigma*tau*||X||^2 <= epsilon: "
            f"{cfg.sigma * cfg.tau * nu * nu:.6g} > {cfg.epsilon}")
    state = initial_state(X)
    yield state
    for _ in range(cfg.max_iter):
        state = step(state, X, J, y_obs, cfg)
        yield state


@dataclass(frozen=True)
class SaddleCertificate:
    """A numerically certified saddle pair for the clean problem (X, J, y).

    ``w_star`` interpolates the clean data up to ``feas_res`` and
    ``-X^T theta_star`` is a subgradient of J at ``w_star`` up to
    ``subgrad_res`` (measured as a prox fixed-point residual). The clean data
    vector is kept so noisy runs can report distances and gaps against the
    noiseless problem.
    """

    w_star: np.ndarray
    theta_star: np.ndarray
    feas_res: float
    subgrad_res: float
    y: np.ndarray


LOG_COLUMNS = ("k", "res_clean", "res_noisy", "j_val", "dist_ref", "gap",
               "bregman", "res_avg_clean", "dist_avg_ref", "gap_avg")


@dataclass(frozen=True)
class LogRow:
    k: int
    res_clean: float
    res_noisy: float
    j_val: float
    dist_ref: float | None = None
    gap: float | None = None
    bregman: float | None = None
    res_avg_clean: float | None = None
    dist_avg_ref: float | None = None
    gap_avg: float | None = None


@dataclass
class IterateLog:
    """Recorded diagnostics, strictly increasing in k."""

    rows: list = field(default_factory=list)

    def append(self, row):
        if self.rows and row.k <= self.rows[-1].k:
            raise ContractViolation(f"log rows must increase in k, got {row.k} after {self.rows[-1].k}")
        self.rows.append(row)

    def column(self, name):
        """Column as a float array; missing values become NaN."""
        if name not in LOG_COLUMNS:
            raise ContractViolation(f"unknown log column {name!r}")
        return np.array([np.nan if getattr(r, name) is None else getattr(r, name)
                         for r in self.rows], dtype=float)

    def ks(self):
        return np.array([r.k for r in self.rows], dtype=int)

    def write_csv(self, path):
        write_csv(path, LOG_COLUMNS, ([getattr(r, c) for c in LOG_COLUMNS] for r in self.rows))

    @classmethod
    def read_csv(cls, path):
        """Read a log written by :meth:`write_csv`; the first line must be the schema tag."""
        log = cls()
        with open(path, newline="") as fh:
            tag = fh.readline().rstrip("\r\n")
            if tag != CSV_VERSION:
                raise ContractViolation(f"{path}: first line {tag!r} is not {CSV_VERSION!r}")
            records = list(csv.DictReader(fh))
        for rec in records:
            vals = {c: (None if rec[c] == "" else float(rec[c])) for c in LOG_COLUMNS if c != "k"}
            log.append(LogRow(k=int(rec["k"]), **vals))
        return log

    def __len__(self):
        return len(self.rows)


class _Recorder:
    """Builds log rows; gap/bregman columns are raw Lagrangian differences.

    With a reference it also keeps the running sums of w, theta and X w over
    k >= 1 that the averaged columns read; ``add`` must see every state.
    """

    def __init__(self, X, J, y_obs, reference):
        self.X, self.J, self.y_obs = X, J, y_obs
        self.ref = reference
        if reference is not None:
            self.y_clean = reference.y
            self.j_star = J(reference.w_star)
            self.r_star = X.apply(reference.w_star) - self.y_clean
            self.g_ref = -X.adjoint(reference.theta_star)
            self.w_sum = np.zeros(X.in_dim)
            self.theta_sum = np.zeros(X.out_dim)
            self.xw_sum = np.zeros(X.out_dim)
        else:
            self.y_clean = y_obs

    def add(self, state):
        if self.ref is not None and state.k > 0:
            self.w_sum += state.w
            self.theta_sum += state.theta
            self.xw_sum += state.xw

    def _averages(self, state):
        if state.k == 0:
            return state.w, state.theta, state.xw
        return self.w_sum / state.k, self.theta_sum / state.k, self.xw_sum / state.k

    def row(self, state):
        xw = state.xw
        j_val = self.J(state.w)
        res_noisy = float(np.linalg.norm(xw - self.y_obs))
        res_clean = float(np.linalg.norm(xw - self.y_clean))
        if self.ref is None:
            return LogRow(k=state.k, res_clean=res_clean, res_noisy=res_noisy, j_val=j_val)
        ref = self.ref
        w_avg, theta_avg, xw_avg = self._averages(state)
        gap = (j_val + ref.theta_star @ (xw - self.y_clean)
               - self.j_star - state.theta @ self.r_star)
        gap_avg = (self.J(w_avg) + ref.theta_star @ (xw_avg - self.y_clean)
                   - self.j_star - theta_avg @ self.r_star)
        breg = j_val - self.j_star - self.g_ref @ (state.w - ref.w_star)
        return LogRow(
            k=state.k, res_clean=res_clean, res_noisy=res_noisy, j_val=j_val,
            dist_ref=float(np.linalg.norm(state.w - ref.w_star)),
            gap=float(gap), bregman=float(breg),
            res_avg_clean=float(np.linalg.norm(xw_avg - self.y_clean)),
            dist_avg_ref=float(np.linalg.norm(w_avg - ref.w_star)),
            gap_avg=float(gap_avg))


def run(X, J, y_obs, cfg, reference=None):
    """Execute the iteration on ``y_obs`` and return the diagnostic log.

    Diagnostics are recorded at k = 0, every ``cfg.record_every`` iterations,
    and at the final iteration. When ``reference`` is given, distance, gap and
    Bregman columns are computed against the certificate and the clean data it
    carries; the gap columns store the plain Lagrangian difference without
    clamping.
    """
    y_obs = as_vector(y_obs, X.out_dim, "y_obs")
    rec = _Recorder(X, J, y_obs, reference)
    log = IterateLog()
    for state in iterate(X, J, y_obs, cfg):
        rec.add(state)
        if state.k % cfg.record_every == 0 or state.k == cfg.max_iter:
            log.append(rec.row(state))
    return log


def certify(X, J, y, cfg=None, feas_tol=None, subgrad_tol=1e-6, check_every=50):
    """Run on clean data until the saddle conditions hold; return the pair.

    The conditions are checked every ``check_every`` iterations and at
    ``cfg.max_iter``. Defaults: feas_tol = 1e-9 * max(1, ||y||), subgrad_tol =
    1e-6. Raises :class:`CertificationFailure` with the best residuals
    achieved if the tolerances are not reached within ``cfg.max_iter``.
    """
    y = as_vector(y, X.out_dim, "y")
    if cfg is None:
        cfg = make_config(X, max_iter=200_000)
    if feas_tol is None:
        feas_tol = 1e-9 * max(1.0, float(np.linalg.norm(y)))
    best_feas, best_sub = np.inf, np.inf
    for state in iterate(X, J, y, cfg):
        if state.k == 0 or (state.k % check_every and state.k != cfg.max_iter):
            continue
        feas = float(np.linalg.norm(state.xw - y))
        sub = subgradient_residual(J, state.w, -X.adjoint(state.theta))
        best_feas, best_sub = min(best_feas, feas), min(best_sub, sub)
        if feas <= feas_tol and sub <= subgrad_tol:
            return SaddleCertificate(
                w_star=state.w.copy(), theta_star=state.theta.copy(),
                feas_res=feas, subgrad_res=sub, y=y.copy())
    raise CertificationFailure(
        f"no certificate within {cfg.max_iter} iterations: best feasibility "
        f"{best_feas:.3e} (tol {feas_tol:.3e}), best subgradient residual "
        f"{best_sub:.3e} (tol {subgrad_tol:.3e})",
        feas_res=best_feas, subgrad_res=best_sub)
