import numpy as np
import pytest

from iterreg import ContractViolation, IterateLog, oracle_stop


def make_log(dist):
    n = len(dist)
    return IterateLog(k=np.arange(n), res_clean=np.ones(n), j_val=np.zeros(n), dist_ref=dist)


class TestOracle:
    def test_monotone_decreasing_returns_last(self):
        log = make_log([5.0, 4.0, 3.0, 2.0])
        assert oracle_stop(log) == (3, 2.0)

    def test_u_shape_interior(self):
        log = make_log([5.0, 1.0, 0.5, 2.0, 4.0])
        assert oracle_stop(log) == (2, 0.5)

    def test_tie_breaks_to_smaller_k(self):
        log = make_log([3.0, 1.0, 2.0, 1.0])
        assert oracle_stop(log) == (1, 1.0)

    def test_missing_column_rejected(self):
        log = IterateLog(k=[0, 1], res_noisy=[1.0, 0.5])
        with pytest.raises(ContractViolation):
            oracle_stop(log)

    def test_minimum_dominates_all_rows(self):
        rng = np.random.default_rng(0)
        dist = np.abs(rng.standard_normal(50)).tolist()
        log = make_log(dist)
        _, d_star = oracle_stop(log)
        assert all(d_star <= d for d in dist)

    def test_returns_the_recorded_k_not_the_row(self):
        log = IterateLog(k=[0, 5, 10, 15], dist_ref=[4.0, 1.0, 2.0, 3.0])
        assert oracle_stop(log) == (5, 1.0)

    def test_rows_without_a_distance_are_skipped(self):
        log = IterateLog(k=[0, 5, 10], dist_ref=[np.nan, 3.0, 2.0])
        assert oracle_stop(log) == (10, 2.0)
