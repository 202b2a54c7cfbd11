"""Early stopping by the empirical oracle: the recorded k closest to the reference."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

__all__ = ["oracle_stop"]


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
