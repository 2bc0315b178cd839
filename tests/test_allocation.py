import numpy as np
import pytest

from oracles import oracle_minmax_allocation
from reference import bisect_weighted_alpha, loop_active_it, loop_water_fill
from taskpick.allocation import (
    allocate_active_it,
    allocate_task_diversity,
    allocate_weighted,
    ceil_allocation,
)
from taskpick.errors import InvalidBudget, NoTasks
from taskpick.scoring import TaskConfidence


def conf_of(values, labels=None):
    values = np.asarray(values, dtype=np.float64)
    if labels is None:
        labels = tuple(f"t{i}" for i in range(len(values)))
    return TaskConfidence(tasks=tuple(labels), values=values)


class TestTaskDiversity:
    def test_water_filling_example(self):
        alloc = allocate_task_diversity([3, 10, 10], 13)
        assert list(alloc.alpha) == [3.0, 5.0, 5.0]
        assert alloc.feasible

    def test_budget_equals_pool(self):
        alloc = allocate_task_diversity([4, 4], 8)
        assert list(alloc.alpha) == [4.0, 4.0]

    def test_symmetry(self):
        alloc = allocate_task_diversity([7, 7, 7], 6)
        assert list(alloc.alpha) == [2.0, 2.0, 2.0]

    def test_budget_capped_at_pool(self):
        alloc = allocate_task_diversity([2, 3], 99)
        assert list(alloc.alpha) == [2.0, 3.0]
        assert not alloc.feasible
        assert any("capped" in w for w in alloc.warnings)

    def test_empty_tasks(self):
        with pytest.raises(NoTasks):
            allocate_task_diversity([], 5)

    def test_bad_budget(self):
        with pytest.raises(InvalidBudget):
            allocate_task_diversity([3], 0)

    def test_budget_exactness_randomized(self, rng):
        for _ in range(300):
            n_tasks = int(rng.integers(1, 51))
            counts = rng.integers(1, 201, size=n_tasks)
            budget = int(rng.integers(1, counts.sum() + 20))
            alloc = allocate_task_diversity(counts, budget)
            assert abs(alloc.alpha.sum() - min(budget, counts.sum())) <= 1e-6
            assert np.all(alloc.alpha >= 0) and np.all(alloc.alpha <= counts)

    def test_water_level_structure(self, rng):
        # every task below the max allocation is saturated
        for _ in range(100):
            n_tasks = int(rng.integers(2, 10))
            counts = rng.integers(1, 30, size=n_tasks)
            budget = int(rng.integers(1, counts.sum() + 1))
            alpha = allocate_task_diversity(counts, budget).alpha
            peak = alpha.max()
            below = alpha < peak - 1e-12
            assert np.all(alpha[below] == counts[below])

    def test_minmax_matches_oracle_small(self, rng):
        for _ in range(60):
            n_tasks = int(rng.integers(1, 7))
            counts = rng.integers(1, 11, size=n_tasks)
            budget = int(rng.integers(1, min(30, counts.sum()) + 1))
            alloc = allocate_task_diversity(counts, budget)
            optimal = oracle_minmax_allocation([int(c) for c in counts], budget)
            assert int(ceil_allocation(alloc.alpha).max()) == max(optimal[0])


class TestWeighted:
    def test_hand_derived_instance_exact(self):
        alloc = allocate_weighted([100, 100], conf_of([0.2, 0.4]), 30)
        assert list(alloc.alpha) == [20.0, 10.0]

    def test_equal_confidence_splits_evenly(self):
        alloc = allocate_weighted([50, 50], conf_of([0.3, 0.3]), 20)
        assert list(alloc.alpha) == [10.0, 10.0]

    def test_small_task_upper_clamped(self):
        alloc = allocate_weighted([3, 100], conf_of([0.9, 0.1]), 20)
        assert list(alloc.alpha) == [3.0, 17.0]

    def test_clamp_bounds_randomized(self, rng):
        for _ in range(200):
            n_tasks = int(rng.integers(1, 21))
            counts = rng.integers(1, 201, size=n_tasks)
            conf = rng.uniform(1e-3, 1.0, size=n_tasks)
            lo = np.minimum(5, counts)
            budget = int(rng.integers(max(1, lo.sum()), counts.sum() + 1))
            alloc = allocate_weighted(counts, conf_of(conf), budget)
            assert abs(alloc.alpha.sum() - budget) <= 1e-6
            assert np.all(alloc.alpha >= lo - 1e-12)
            assert np.all(alloc.alpha <= counts + 1e-12)

    def test_small_tasks_fully_taken(self):
        # tasks smaller than the base floor are taken whole
        alloc = allocate_weighted([1, 2, 50], conf_of([0.5, 0.5, 0.5]), 20)
        assert alloc.alpha[0] == 1.0
        assert alloc.alpha[1] == 2.0
        assert alloc.alpha[2] == 17.0

    def test_matches_independent_bisection(self, rng):
        for _ in range(100):
            n_tasks = int(rng.integers(2, 21))
            counts = rng.integers(1, 101, size=n_tasks)
            conf = rng.uniform(0.01, 1.0, size=n_tasks)
            lo = np.minimum(5, counts)
            budget = int(rng.integers(max(1, lo.sum()), counts.sum() + 1))
            alpha = allocate_weighted(counts, conf_of(conf), budget).alpha
            ref = bisect_weighted_alpha(counts, conf, budget)
            assert np.allclose(alpha, ref, atol=1e-6)

    def test_inverse_confidence_proportionality(self, rng):
        for _ in range(50):
            n_tasks = int(rng.integers(2, 15))
            counts = rng.integers(30, 200, size=n_tasks)
            conf = rng.uniform(0.05, 1.0, size=n_tasks)
            budget = int(rng.integers(6 * n_tasks, counts.sum()))
            alpha = allocate_weighted(counts, conf_of(conf), budget).alpha
            interior = (alpha > np.minimum(5, counts) + 1e-9) & (alpha < counts - 1e-9)
            idx = np.where(interior)[0]
            if len(idx) < 2:
                continue
            products = alpha[idx] * conf[idx]
            assert np.allclose(products, products[0], rtol=1e-6)
            order = np.argsort(conf[idx])
            assert np.all(np.diff(alpha[idx][order]) <= 1e-9)

    def test_scale_invariance(self):
        counts = [40, 25, 60, 9]
        conf = np.array([0.31, 0.07, 0.55, 0.9])
        a1 = allocate_weighted(counts, conf_of(conf), 70).alpha
        a2 = allocate_weighted(counts, conf_of(conf * 7.3), 70).alpha
        assert np.allclose(a1, a2, atol=1e-9)

    def test_base_infeasible_falls_back_to_water_filling(self):
        alloc = allocate_weighted([10, 10, 10], conf_of([0.1, 0.5, 0.9]), 6)
        fallback = allocate_task_diversity([10, 10, 10], 6)
        assert np.allclose(alloc.alpha, fallback.alpha)
        assert not alloc.feasible
        assert any("infeasible" in w for w in alloc.warnings)
        assert alloc.tasks == ("t0", "t1", "t2")

    def test_budget_above_pool_capped(self):
        alloc = allocate_weighted([4, 4], conf_of([0.2, 0.8]), 50)
        assert list(alloc.alpha) == [4.0, 4.0]
        assert not alloc.feasible


class TestActiveIT:
    def test_single_whole_task(self):
        alloc = allocate_active_it([5, 5], conf_of([0.1, 0.9]), 5)
        assert list(alloc.alpha) == [5.0, 0.0]

    def test_two_whole_tasks_plus_residual(self):
        # greedy oracle: take whole tasks ascending by confidence, then the rest
        alloc = allocate_active_it([4, 4, 4], conf_of([0.2, 0.5, 0.8]), 10)
        assert list(alloc.alpha) == [4.0, 4.0, 2.0]

    def test_single_task(self):
        alloc = allocate_active_it([6], conf_of([0.5]), 6)
        assert list(alloc.alpha) == [6.0]

    def test_ties_broken_by_label(self):
        alloc = allocate_active_it([3, 3], conf_of([0.5, 0.5], labels=("zz", "aa")), 3)
        assert list(alloc.alpha) == [0.0, 3.0]

    def test_prefix_property_randomized(self, rng):
        for _ in range(100):
            n_tasks = int(rng.integers(1, 12))
            counts = rng.integers(1, 40, size=n_tasks)
            conf = rng.uniform(0.01, 1.0, size=n_tasks)
            budget = int(rng.integers(1, counts.sum() + 1))
            tc = conf_of(conf)
            alloc = allocate_active_it(counts, tc, budget)
            assert abs(alloc.alpha.sum() - budget) <= 1e-6
            order = np.lexsort((np.asarray(tc.tasks), conf))
            full = [bool(alloc.alpha[i] == counts[i]) for i in order]
            # the fully-taken tasks form a prefix of the confidence order
            seen_partial = False
            for is_full in full:
                if not is_full:
                    seen_partial = True
                elif seen_partial:
                    pytest.fail("whole task after a partial task")


def test_closed_forms_match_the_loops_bytewise(rng):
    # water filling (also the infeasible-floor fallback) and active_it
    for _ in range(500):
        n_tasks = int(rng.integers(1, 40))
        counts = rng.integers(1, int(rng.choice([5, 200, 10**5])) + 1, size=n_tasks)
        if rng.random() < 0.3:
            counts = rng.choice([1, 4, 9], size=n_tasks)
        conf = rng.choice([0.1, 0.5, 0.9], size=n_tasks) if rng.random() < 0.3 else rng.uniform(size=n_tasks)
        labels = tuple(f"t{i:02d}" for i in rng.permutation(n_tasks))
        budget = int(rng.integers(1, counts.sum() + 1))
        level = loop_water_fill(counts, budget).tobytes()
        assert allocate_task_diversity(counts, budget).alpha.tobytes() == level
        base = int(counts.max()) + 1
        if counts.sum() > budget:  # floors of whole tasks overshoot: fallback
            assert allocate_weighted(counts, conf_of(conf, labels), budget, base=base).alpha.tobytes() == level
        ref = loop_active_it(counts, conf, labels, budget).tobytes()
        assert allocate_active_it(counts, conf_of(conf, labels), budget).alpha.tobytes() == ref


def test_weighted_sweep_is_exact_at_large_targets(rng):
    # targets where a 1e-9 absolute tolerance is below one ulp
    for _ in range(300):
        n_tasks = int(rng.integers(2, 400))
        counts = rng.integers(1, 2 * 10**6, size=n_tasks)
        conf = rng.uniform(1e-4, 1.0, size=n_tasks)
        budget = int(rng.integers(10**7, max(10**7 + 1, counts.sum())))
        if budget > counts.sum():
            continue
        for base in (0, 5, 60):
            alpha = allocate_weighted(counts, conf_of(conf), budget, base=base).alpha
            assert abs(alpha.sum() - budget) <= 1e-12 * budget
            assert np.all(alpha >= np.minimum(base, counts)) and np.all(alpha <= counts)


def test_ceil_allocation_absorbs_float_noise():
    alpha = np.array([5.0 + 1e-12, 4.333333333, 0.0, 2.9999999999999])
    assert list(ceil_allocation(alpha)) == [5, 5, 0, 3]
