"""Primal-dual iteration for min J(w) subject to X w = y, with diagnostics.

The update, from (w_k, theta_k, theta_{k-1}):

    w_{k+1}     = prox_{tau J}( w_k - tau * X^T (2 theta_k - theta_{k-1}) )
    theta_{k+1} = theta_k + sigma * (X w_{k+1} - y_obs)

with w_0 = 0 and theta_0 = theta_{-1} = 0, and step sizes
constrained by sigma * tau * ||X||^2 <= epsilon < 1.

``iterate`` yields the states k = 0..max_iter and is the one loop over
``step``; ``recorded`` is the one walk over them, yielding the states at the
k of ``recorded_iterations`` that ``run`` records, ``certify`` checks and the
stoptime oracle reads. ``y_obs`` is one data vector or an (n, B) stack of B
right-hand sides; a stack runs as the B columns of one iteration, w and theta
becoming (p, B) and (n, B) arrays, and every update acts column by column.
``run`` records per-iteration diagnostics into an :class:`IterateLog` (one
per column of a stack), including the averages over w_1..w_k and
theta_1..theta_k that the rate and stability guarantees attach to, and
computes only the log columns its caller asks for; ``certify`` drives the
iteration on clean data until the pair, or the bias's polish of it, satisfies
the saddle-point conditions (feasibility plus subgradient inclusion) at tight
tolerances, producing the reference, and the clean data, that every clean
residual, gap and distance metric reads.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

from .bias import subgradient_residual
from .errors import CertificationFailure, ContractViolation, NumericalFailure
from .linop import as_vector, norms
from .metrics import _bregman, _Reference, raw_gap

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
    "IterateLog",
    "CSV_VERSION",
    "write_csv",
]

CSV_VERSION = "# iterreg-csv v1"


def write_csv(path, columns, rows):
    """Write rows under the schema tag and a header; floats as repr, None empty.

    Numpy scalars are written as the Python numbers they hold.
    """
    with open(path, "w", newline="") as fh:
        fh.write(CSV_VERSION + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            row = [v.item() if isinstance(v, np.generic) else v for v in row]
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
        for name, least in (("max_iter", 0), ("record_every", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise ContractViolation(f"{name} must be an integer >= {least}, got {value!r}")


def make_config(X, epsilon=0.99, max_iter=5000, record_every=1):
    """Build a SolverConfig with tau = sigma = sqrt(epsilon)/nu.

    Here nu is ``X.norm_est()``, a safe upper bound on ||X||, so that
    sigma*tau*||X||^2 <= epsilon holds.
    """
    nu = X.norm_est()
    if nu == 0.0:
        raise ContractViolation("cannot pick step sizes for the zero operator")
    with np.errstate(invalid="ignore"):  # a negative epsilon is for SolverConfig to reject
        step_size = float(np.sqrt(epsilon) / nu)
    return SolverConfig(epsilon=float(epsilon), tau=step_size, sigma=step_size,
                        max_iter=max_iter, record_every=record_every)


@dataclass
class PdState:
    """One primal-dual iterate and the image X w of its primal part.

    For a batched run every array holds one column per right-hand side.
    """

    w: np.ndarray
    theta: np.ndarray
    theta_prev: np.ndarray
    k: int
    xw: np.ndarray


def initial_state(X, batch=()):
    """The all-zero state at k = 0: vectors, or B columns for ``batch`` = (B,)."""
    batch = tuple(batch)
    return PdState(w=np.zeros((X.in_dim, *batch)), theta=np.zeros((X.out_dim, *batch)),
                   theta_prev=np.zeros((X.out_dim, *batch)), k=0,
                   xw=np.zeros((X.out_dim, *batch)))


def step(state, X, J, y_obs, cfg):
    """One full primal-dual update; returns a new state with k incremented."""
    w_new = J.prox(cfg.tau, state.w - cfg.tau * X.adjoint(2.0 * state.theta - state.theta_prev))
    xw_new = X.apply(w_new)
    theta_new = state.theta + cfg.sigma * (xw_new - y_obs)
    if not (np.isfinite(w_new).all() and np.isfinite(theta_new).all()):
        raise _non_finite(w_new, theta_new, state.k + 1)
    return PdState(w=w_new, theta=theta_new, theta_prev=state.theta, k=state.k + 1, xw=xw_new)


def _non_finite(w, theta, k):
    """The NumericalFailure for iteration k, naming the bad columns of a batched run."""
    if w.ndim == 1:
        return NumericalFailure(f"non-finite iterate at iteration {k}", k=k)
    bad = np.flatnonzero(~(np.isfinite(w).all(axis=0) & np.isfinite(theta).all(axis=0)))
    return NumericalFailure(f"non-finite iterate at iteration {k} in columns {bad.tolist()}",
                            k=k, columns=bad.tolist())


def recorded_iterations(every, budget):
    """The int array of the iterations a run records: 0, every ``every``-th and ``budget``."""
    if not (isinstance(every, (int, np.integer)) and every >= 1):
        raise ContractViolation(f"the recording stride must be an integer >= 1, got {every}")
    return np.append(np.arange(0, budget, every), budget)


def recorded(states, ks):
    """Yield the states of ``states`` whose k is next in ``ks``, an increasing int array."""
    states = iter(states)
    for k in map(int, ks):  # lazily: a certification's budget can hold 10^4 checks
        for state in states:
            if state.k == k:
                yield state
                break


def iterate(X, J, y_obs, cfg):
    """Yield the states k = 0..cfg.max_iter of the iteration on ``y_obs``.

    ``y_obs`` is a vector or an (n, B) stack, whose columns run together.
    Before the first state, the step sizes must satisfy
    sigma*tau*nu^2 <= epsilon for nu = ``X.norm_est()``, with float slack.
    """
    y_obs = as_vector(y_obs, X.out_dim, "y_obs", columns=True)
    nu = X.norm_est()
    if cfg.sigma * cfg.tau * nu * nu > cfg.epsilon * (1.0 + 1e-9):
        raise ContractViolation(
            f"step sizes violate sigma*tau*||X||^2 <= epsilon: "
            f"{cfg.sigma * cfg.tau * nu * nu:.6g} > {cfg.epsilon}")
    state = initial_state(X, y_obs.shape[1:])
    yield state
    for _ in range(cfg.max_iter):
        state = step(state, X, J, y_obs, cfg)
        yield state


@dataclass(frozen=True)
class SaddleCertificate:
    """A numerically certified saddle pair for the clean problem (X, J, y).

    ``w_star`` interpolates the clean data up to ``feas_res`` and
    ``-X^T theta_star`` is a subgradient of J at ``w_star`` up to
    ``subgrad_res`` (measured as a prox fixed-point residual). ``y`` is the
    clean data, the one source from which runs and metrics take it for clean
    residuals, distances and gaps. ``k`` is the iteration whose check
    certified, and ``polished`` says whether the pair is the bias's polish of
    that iterate rather than the iterate itself.
    """

    w_star: np.ndarray
    theta_star: np.ndarray
    feas_res: float
    subgrad_res: float
    y: np.ndarray
    polished: bool = False
    k: int | None = None


LOG_COLUMNS = ("k", "res_clean", "res_noisy", "j_val", "dist_ref", "gap",
               "bregman", "res_avg_clean", "dist_avg_ref", "gap_avg")


class IterateLog:
    """Recorded diagnostics, strictly increasing in k.

    The log keeps ``k`` as integers and a float array, NaN where a value was not
    recorded, for each column it was given; any other column reads as all NaN.
    """

    def __init__(self, k=(), **values):
        unknown = set(values) - set(LOG_COLUMNS[1:])
        if unknown:
            raise ContractViolation(f"unknown log columns {sorted(unknown)}")
        self._k = np.asarray(k, dtype=int)
        if np.any(np.diff(self._k) <= 0):
            raise ContractViolation("log rows must increase in k")
        self._values = {c: np.asarray(v, dtype=float) for c, v in values.items()}
        if any(v.shape != self._k.shape for v in self._values.values()):
            raise ContractViolation("every log column needs one value per k")

    def _records(self):
        """Each row as a tuple in ``LOG_COLUMNS`` order, None where not recorded."""
        cols = [self.column(c).tolist() for c in LOG_COLUMNS[1:]]
        for k, *vals in zip(self._k.tolist(), *cols):
            yield (k, *(None if v != v else v for v in vals))

    def column(self, name):
        """Column as a float array; missing values are NaN."""
        if name not in LOG_COLUMNS:
            raise ContractViolation(f"unknown log column {name!r}")
        if name == "k":
            return self._k.astype(float)
        return self._values[name] if name in self._values else np.full(len(self._k), np.nan)

    def ks(self):
        return self._k

    def write_csv(self, path):
        write_csv(path, LOG_COLUMNS, self._records())

    @classmethod
    def read_csv(cls, path):
        """Read a log written by :meth:`write_csv`.

        The first line must be the schema tag and the header must name every
        log column. A ``k`` that is not an integer, or another cell that is
        neither a float nor empty, is a ContractViolation naming the file, the
        line and the column.
        """
        with open(path, newline="") as fh:
            tag = fh.readline().rstrip("\r\n")
            if tag != CSV_VERSION:
                raise ContractViolation(f"{path}: first line {tag!r} is not {CSV_VERSION!r}")
            reader = csv.DictReader(fh)
            missing = [c for c in LOG_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ContractViolation(f"{path}: the header has no columns {missing}")
            records = list(reader)

        def cells(c, parse):
            out = []
            for line, rec in enumerate(records, 3):  # after the tag and the header
                try:
                    out.append(parse(rec[c]))
                except (TypeError, ValueError):
                    raise ContractViolation(f"{path}, line {line}: column {c!r} holds {rec[c]!r}") from None
            return out

        return cls(k=cells("k", int),
                   **{c: cells(c, lambda v: np.nan if v == "" else float(v)) for c in LOG_COLUMNS[1:]})

    def __len__(self):
        return len(self._k)


class _Recorder:
    """Fills the asked-for log columns at the recorded iterations, all columns of a stack at once.

    Values go into arrays preallocated for the k of :func:`recorded_iterations`;
    the gap columns are raw values of :func:`~iterreg.metrics.raw_gap`, and the
    bregman column is the Bregman divergence at -X^T theta*. It computes only
    what its columns read: J(w), J of the averaged w, the reference terms, and
    the running sums of w, theta and X w over k >= 1, which :meth:`summed`
    keeps from every state.
    """

    def __init__(self, X, J, y_obs, cfg, reference, columns):
        self.J, self.y_obs = J, y_obs
        self.ks = recorded_iterations(cfg.record_every, cfg.max_iter)
        batch = y_obs.shape[1:]
        self.values = {c: np.full((len(self.ks), *batch), np.nan) for c in columns}
        asked = set(columns)
        self.needs_jw = not asked.isdisjoint(("j_val", "gap", "bregman"))
        readers = {"w": (X.in_dim, "dist_avg_ref", "gap_avg"), "theta": (X.out_dim, "gap_avg"),
                   "xw": (X.out_dim, "res_avg_clean", "gap_avg")}
        self.sums = {name: np.zeros((dim, *batch)) for name, (dim, *cols) in readers.items()
                     if not asked.isdisjoint(cols)}
        if reference is not None:
            # reference vectors as one column, to line up with each column of a stack
            col = (-1, 1) if batch else (-1,)
            self.y_clean = reference.y.reshape(col)
            self.w_star = reference.w_star.reshape(col)
            self.ref = _Reference(reference, X, J)

    def summed(self, states):
        """Yield ``states``, each added to the running sums once k >= 1."""
        for state in states:
            if state.k > 0:
                for name, total in self.sums.items():
                    total += getattr(state, name)
            yield state

    def _gap(self, jw, xw, theta):
        ref = self.ref
        return raw_gap(jw, xw, theta, ref.j_star, ref.cert.theta_star, self.y_clean, ref.r_star)

    def record(self, row, state):
        w, theta, xw, k = state.w, state.theta, state.xw, state.k
        # at k = 0 the averages are the initial point itself
        avg = {name: getattr(state, name) if k == 0 else total / k
               for name, total in self.sums.items()}
        jw = self.J(w) if self.needs_jw else None
        formulas = {
            "res_clean": lambda: norms(xw - self.y_clean),
            "res_noisy": lambda: norms(xw - self.y_obs),
            "j_val": lambda: jw,
            "dist_ref": lambda: norms(w - self.w_star),
            "gap": lambda: self._gap(jw, xw, theta),
            "bregman": lambda: _bregman(jw, self.ref.j_star, w, self.w_star, self.ref.g_star),
            "res_avg_clean": lambda: norms(avg["xw"] - self.y_clean),
            "dist_avg_ref": lambda: norms(avg["w"] - self.w_star),
            "gap_avg": lambda: self._gap(self.J(avg["w"]), avg["xw"], avg["theta"]),
        }
        for name, out in self.values.items():
            out[row] = formulas[name]()

    def logs(self):
        """One log for a vector; for a stack, the list of the logs of its columns."""
        for a in (self.ks, *self.values.values()):
            a.setflags(write=False)
        if self.y_obs.ndim == 1:
            return IterateLog(self.ks, **self.values)
        return [IterateLog(self.ks, **{c: a[:, b] for c, a in self.values.items()})
                for b in range(self.y_obs.shape[1])]


def _log_columns(columns, reference):
    """The asked-for columns in ``LOG_COLUMNS`` order, None asking for all the reference allows."""
    computable = LOG_COLUMNS[1:] if reference is not None else ("res_noisy", "j_val")
    if columns is None:
        return computable
    for name in columns:
        if name not in LOG_COLUMNS[1:]:
            raise ContractViolation(f"unknown log column {name!r}")
        if name not in computable:
            raise ContractViolation(f"log column {name!r} needs a reference certificate")
    return tuple(c for c in computable if c in columns)


def run(X, J, y_obs, cfg, reference=None, columns=None):
    """Execute the iteration on ``y_obs`` and return the diagnostic log.

    Diagnostics are recorded at the iterations of :func:`recorded_iterations`:
    k = 0, every ``cfg.record_every`` iterations, and the final iteration.
    ``columns`` names the columns computed besides ``k``, the others staying
    NaN; None asks for all that the arguments allow.
    Every column but ``res_noisy`` and ``j_val`` needs ``reference``: it is
    measured against the certificate and the clean data it carries. The gap
    columns store the plain Lagrangian difference without clamping. For an (n, B)
    stack ``y_obs`` the B columns run as one batched iteration and the result
    is the list of their B logs, in column order.
    """
    columns = _log_columns(columns, reference)
    y_obs = as_vector(y_obs, X.out_dim, "y_obs", columns=True)
    rec = _Recorder(X, J, y_obs, cfg, reference, columns)
    for row, state in enumerate(recorded(rec.summed(iterate(X, J, y_obs, cfg)), rec.ks)):
        rec.record(row, state)
    return rec.logs()


def certify(X, J, y, cfg=None, feas_tol=None, subgrad_tol=1e-6, check_every=50):
    """Run on clean data until the saddle conditions hold; return the pair.

    The conditions are checked at the :func:`recorded_iterations` of stride
    ``check_every``, an integer >= 1, but k = 0, the last being ``cfg.max_iter``. When the
    iterate fails them, the check also tries the bias's polish of the pair
    (:meth:`~iterreg.bias.Bias.polish`), accepted under the same tolerances. Defaults: feas_tol = 1e-9 * max(1, ||y||),
    subgrad_tol = 1e-6. Raises :class:`CertificationFailure` with the best
    residuals of the iterates, the iterations that reached them and the
    residuals of every check if the tolerances are not reached within
    ``cfg.max_iter``. The default ``cfg`` is ``make_config(X)`` with a budget
    of 500 000 iterations.
    """
    y = as_vector(y, X.out_dim, "y")
    if cfg is None:
        cfg = make_config(X, max_iter=500_000)
    checks = recorded_iterations(check_every, cfg.max_iter)[1:]  # k = 0 is not checked
    if feas_tol is None:
        feas_tol = 1e-9 * max(1.0, float(np.linalg.norm(y)))
    # every check's residuals, in compact arrays: a certification can make thousands
    feas_hist, sub_hist = array("d"), array("d")

    def residuals(w, xw, theta):
        return norms(xw - y), subgradient_residual(J, w, -X.adjoint(theta))

    def passes(feas, sub):
        return feas <= feas_tol and sub <= subgrad_tol

    for state in recorded(iterate(X, J, y, cfg), checks):
        feas, sub = residuals(state.w, state.xw, state.theta)
        feas_hist.append(feas)
        sub_hist.append(sub)
        pair, polished = (state.w, state.theta), False
        if not passes(feas, sub):
            pair, polished = J.polish(X, y, state.w, state.theta), True
            if pair is None:
                continue
            feas, sub = residuals(pair[0], X.apply(pair[0]), pair[1])
        if passes(feas, sub):
            return SaddleCertificate(
                w_star=pair[0].copy(), theta_star=pair[1].copy(), feas_res=feas,
                subgrad_res=sub, y=y.copy(), polished=polished, k=state.k)
    history = list(zip(checks.tolist(), feas_hist, sub_hist))  # every check failed
    none = (None, np.inf, np.inf)
    feas_k, best_feas, _ = min(history, key=lambda h: h[1], default=none)
    sub_k, _, best_sub = min(history, key=lambda h: h[2], default=none)
    raise CertificationFailure(
        f"no certificate within {cfg.max_iter} iterations: best feasibility "
        f"{best_feas:.3e} at k={feas_k} (tol {feas_tol:.3e}), best subgradient residual "
        f"{best_sub:.3e} at k={sub_k} (tol {subgrad_tol:.3e})",
        feas_res=best_feas, subgrad_res=best_sub, feas_k=feas_k, subgrad_k=sub_k,
        history=history)
