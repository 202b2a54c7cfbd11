import numpy as np
import pytest
from hypothesis import given, strategies as st

from iterreg import (
    ContractViolation,
    IterateLog,
    RuleInapplicable,
    budget_stop,
    discrepancy_stop,
    oracle_stop,
)


def make_log(res_noisy=None, dist=None):
    n = len(res_noisy) if res_noisy is not None else len(dist)
    cols = {name: values for name, values in (("res_noisy", res_noisy), ("dist_ref", dist))
            if values is not None}
    return IterateLog(k=np.arange(n), res_clean=np.ones(n), j_val=np.zeros(n), **cols)


class TestBudget:
    def test_exact_division(self):
        assert budget_stop(1.0, 0.5) == 2

    def test_ceiling(self):
        assert budget_stop(1.0, 0.3) == 4

    def test_larger_budget(self):
        assert budget_stop(5.0, 0.1) == 50

    def test_zero_delta_inapplicable(self):
        with pytest.raises(RuleInapplicable):
            budget_stop(1.0, 0.0)

    def test_bad_constant(self):
        with pytest.raises(ContractViolation):
            budget_stop(0.0, 0.5)

    @given(st.floats(0.01, 100.0), st.floats(0.001, 10.0))
    def test_budget_invariant(self, c, delta):
        k = budget_stop(c, delta)
        assert c <= k * delta <= c + delta + 1e-9 * c


class TestDiscrepancy:
    def test_huge_delta_stops_immediately(self):
        log = make_log(res_noisy=[5.0, 4.0, 3.0])
        assert discrepancy_stop(log, 1.0, 10.0) == 0

    def test_never_reached(self):
        log = make_log(res_noisy=[5.0, 4.0, 3.0])
        assert discrepancy_stop(log, 1.0, 0.0) is None

    def test_matches_hand_scan(self):
        res = [5.0, 2.5, 1.4, 0.9, 0.4, 0.6]
        log = make_log(res_noisy=res)
        tau_d, delta = 1.1, 1.0
        expected = next(k for k, r in enumerate(res) if r <= tau_d * delta)
        assert discrepancy_stop(log, tau_d, delta) == expected

    def test_tau_below_one_rejected(self):
        log = make_log(res_noisy=[1.0])
        with pytest.raises(ContractViolation):
            discrepancy_stop(log, 0.9, 1.0)


class TestOracle:
    def test_monotone_decreasing_returns_last(self):
        log = make_log(dist=[5.0, 4.0, 3.0, 2.0])
        assert oracle_stop(log) == (3, 2.0)

    def test_u_shape_interior(self):
        log = make_log(dist=[5.0, 1.0, 0.5, 2.0, 4.0])
        assert oracle_stop(log) == (2, 0.5)

    def test_tie_breaks_to_smaller_k(self):
        log = make_log(dist=[3.0, 1.0, 2.0, 1.0])
        assert oracle_stop(log) == (1, 1.0)

    def test_missing_column_rejected(self):
        log = make_log(res_noisy=[1.0, 0.5])
        with pytest.raises(ContractViolation):
            oracle_stop(log)

    def test_minimum_dominates_all_rows(self):
        rng = np.random.default_rng(0)
        dist = np.abs(rng.standard_normal(50)).tolist()
        log = make_log(dist=dist)
        _, d_star = oracle_stop(log)
        assert all(d_star <= d for d in dist)
