"""Exception types shared across the package."""


class IterRegError(Exception):
    """Base class for all library errors."""


class ContractViolation(IterRegError, ValueError):
    """An argument violates an operation's contract (dimensions, ranges, ...)."""


class NumericalFailure(IterRegError, ArithmeticError):
    """Non-finite values appeared during an iteration.

    ``k`` is the iteration that produced them; for a batched run, ``columns``
    lists the indices of the non-finite columns (None for a single vector).
    """

    def __init__(self, message, k=None, columns=None):
        super().__init__(message)
        self.k = k
        self.columns = columns


class CertificationFailure(IterRegError):
    """Saddle-point certification did not reach the requested tolerances.

    ``feas_res`` and ``subgrad_res`` are the best residuals over all checks,
    reached at iterations ``feas_k`` and ``subgrad_k``; ``history`` lists every
    check as a ``(k, feasibility, subgradient residual)`` triple.
    """

    def __init__(self, message, feas_res=None, subgrad_res=None, feas_k=None,
                 subgrad_k=None, history=()):
        super().__init__(message)
        self.feas_res = feas_res
        self.subgrad_res = subgrad_res
        self.feas_k = feas_k
        self.subgrad_k = subgrad_k
        self.history = list(history)


class CertificateInvalid(IterRegError):
    """A reference certificate failed a consistency check it must satisfy."""


class AssumptionViolated(IterRegError):
    """A mathematical assumption required by a bound or rule does not hold."""


class BoundViolation(IterRegError):
    """A measured quantity exceeded its theoretical bound beyond tolerance."""

