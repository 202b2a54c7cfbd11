"""Early-stopping rules: a-priori budget, discrepancy principle, empirical oracle."""

from __future__ import annotations

import math

from .errors import ContractViolation, RuleInapplicable

__all__ = ["budget_stop", "discrepancy_stop", "oracle_stop"]


def budget_stop(c, delta):
    """A-priori budget ceil(c / delta) for noise level delta > 0."""
    if c <= 0:
        raise ContractViolation(f"budget constant must be positive, got {c}")
    if delta < 0:
        raise ContractViolation(f"noise level must be nonnegative, got {delta}")
    if delta == 0:
        raise RuleInapplicable("the budget rule needs delta > 0")
    return int(math.ceil(c / delta))


def discrepancy_stop(log, tau_d, delta):
    """First recorded k whose noisy residual falls below tau_d * delta, or None."""
    if tau_d < 1.0:
        raise ContractViolation(f"discrepancy factor must be >= 1, got {tau_d}")
    if delta < 0:
        raise ContractViolation(f"noise level must be nonnegative, got {delta}")
    for row in log.rows:
        if row.res_noisy is not None and row.res_noisy <= tau_d * delta:
            return row.k
    return None


def oracle_stop(log):
    """Recorded k minimizing the distance to the reference, with that distance.

    Ties break toward the smaller k. Requires the log to carry the
    distance-to-reference column.
    """
    best_k, best_d = None, None
    for row in log.rows:
        if row.dist_ref is None:
            continue
        if best_d is None or row.dist_ref < best_d:
            best_k, best_d = row.k, row.dist_ref
    if best_k is None:
        raise ContractViolation("oracle stopping needs the dist_ref column")
    return best_k, best_d
