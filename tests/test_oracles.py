import numpy as np
import pytest

from reference import fl_kernel, fl_objective
from oracles import (
    LimitExceeded,
    OracleBudgetLimits,
    oracle_greedy_step,
    oracle_kcenter_radius,
    oracle_minmax_allocation,
)


class TestMinmax:
    def test_known_instance(self):
        optimal = oracle_minmax_allocation([3, 10, 10], 13)
        assert max(optimal[0]) == 5
        assert all(sum(a) == 13 and max(a) == 5 for a in optimal)
        assert (3, 5, 5) in optimal

    def test_unique_allocation(self):
        assert oracle_minmax_allocation([2, 2], 4) == [(2, 2)]

    def test_symmetric_ties(self):
        optimal = oracle_minmax_allocation([1, 1, 1], 2)
        assert max(optimal[0]) == 1
        assert len(optimal) == 3

    def test_limits(self):
        with pytest.raises(LimitExceeded):
            oracle_minmax_allocation([1] * 7, 3)
        with pytest.raises(LimitExceeded):
            oracle_minmax_allocation([20], 5)
        with pytest.raises(LimitExceeded):
            oracle_minmax_allocation([10, 10, 10, 10], 31)

    def test_infeasible_budget(self):
        with pytest.raises(ValueError):
            oracle_minmax_allocation([2, 2], 5)


class TestGreedyStep:
    def test_first_fl_step_is_column_sum(self, rng):
        pts = rng.normal(size=(5, 2))
        kernel = fl_kernel(pts, "rbf", 0.3)
        maximizers = oracle_greedy_step(fl_objective(kernel), (), range(5))
        assert maximizers == [int(np.argmax(kernel.sum(axis=0)))]

    def test_symmetric_candidates_all_tie(self):
        kernel = np.eye(4)
        objective = lambda s: float(np.linalg.slogdet(kernel[np.ix_(s, s)])[1])
        maximizers = oracle_greedy_step(objective, (0,), (1, 2, 3))
        assert maximizers == [1, 2, 3]

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            oracle_greedy_step(lambda s: 0.0, (), range(13))


class TestKCenterRadius:
    def test_line_instance(self):
        assert oracle_kcenter_radius([[0.0], [1.0], [10.0]], 2) == pytest.approx(1.0)

    def test_budget_equals_n(self, rng):
        pts = rng.normal(size=(5, 2))
        assert oracle_kcenter_radius(pts, 5) == 0.0

    def test_coincident_points(self):
        assert oracle_kcenter_radius([[1.0, 1.0], [1.0, 1.0]], 1) == 0.0

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            oracle_kcenter_radius(np.zeros((13, 2)), 2)

    def test_custom_limits(self):
        limits = OracleBudgetLimits(max_points=20)
        assert oracle_kcenter_radius(np.zeros((15, 1)), 3, limits=limits) == 0.0
