"""Early-stopping rules: a-priori budget, discrepancy principle, empirical oracle."""

from __future__ import annotations

import math

import numpy as np

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
    hits = np.flatnonzero(log.column("res_noisy") <= tau_d * delta)
    return int(log.ks()[hits[0]]) if hits.size else None


def oracle_stop(log):
    """Recorded k minimizing the distance to the reference, with that distance.

    Ties break toward the smaller k. Requires the log to carry the
    distance-to-reference column.
    """
    dist = log.column("dist_ref")
    if np.all(np.isnan(dist)):
        raise ContractViolation("oracle stopping needs the dist_ref column")
    i = int(np.nanargmin(dist))
    return int(log.ks()[i]), float(dist[i])
