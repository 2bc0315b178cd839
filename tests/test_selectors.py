import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_pool
from oracles import oracle_kcenter_radius
from reference import (
    dpp_exact_residuals,
    dpp_kernel,
    dpp_objective,
    fl_kernel,
    fl_lowest_near_max_pick,
    fl_objective,
    kcenter_lowest_near_max_pick,
    log_confidence,
    loop_round_robin,
    margins,
    mean_entropy,
)
from taskpick import selectors
from taskpick.allocation import (
    AllocationVector,
    allocate_active_it,
    allocate_task_diversity,
    allocate_weighted,
    ceil_allocation,
)
from taskpick.errors import (
    ConfigError,
    InvalidBudget,
    InvalidKernel,
    MissingConfidence,
    MissingEmbedding,
    MissingScore,
)
from taskpick.pool import Pool, PromptRecord
from taskpick.scoring import score_pool, task_mean_confidence
from taskpick.selectors import (
    KernelSpec,
    StrategyConfig,
    manifest_payload,
    round_robin,
    run_strategy,
    select_dpp,
    select_facility_location,
    select_k_center,
    select_random,
    select_uncertainty,
)


def alloc_of(alpha, tasks=None):
    return AllocationVector(alpha=np.asarray(alpha, dtype=np.float64), tasks=tasks)


class TestRoundRobin:
    def test_allocation_saturates_pools(self):
        pool = make_pool({"a": 2, "b": 2})
        result = round_robin(alloc_of([2, 2]), pool.partition, 4, seed=1)
        assert result.per_task == {"a": 2, "b": 2}
        assert sorted(result.selected) == [0, 1, 2, 3]

    def test_budget_break_mid_pass(self):
        # ceil caps [2, 3]; passes fill (1,1) then (2,2) and the budget stops the loop
        pool = make_pool({"a": 3, "b": 4})
        result = round_robin(alloc_of([1.2, 3.0]), pool.partition, 4, seed=0)
        assert result.per_task == {"a": 2, "b": 2}
        assert len(result.selected) == 4

    def test_pool_exhaustion_diagnostic(self):
        pool = make_pool({"a": 3})
        result = round_robin(alloc_of([5.0]), pool.partition, 5, seed=3)
        assert result.per_task == {"a": 3}
        assert len(result.selected) == 3
        assert any("exhausted" in w for w in result.warnings)

    def test_invalid_budget(self):
        pool = make_pool({"a": 2})
        with pytest.raises(InvalidBudget):
            round_robin(alloc_of([1.0]), pool.partition, 0, seed=0)

    def test_deterministic_under_seed(self):
        pool = make_pool({"a": 30, "b": 20, "c": 10})
        alloc = allocate_task_diversity(pool.partition.counts, 25, tasks=pool.partition.tasks)
        r1 = round_robin(alloc, pool.partition, 25, seed=99)
        r2 = round_robin(alloc, pool.partition, 25, seed=99)
        assert r1.selected == r2.selected
        r3 = round_robin(alloc, pool.partition, 25, seed=100)
        assert r1.selected != r3.selected

    def test_task_stream_independent_of_other_tasks(self):
        # the draws inside task "keep" do not depend on what other tasks exist
        pool_a = make_pool({"keep": 12, "other": 5})
        pool_b = make_pool({"keep": 12, "zzz": 9, "yyy": 4})
        # same members for "keep" in both pools: indices 0..11
        assert np.array_equal(pool_a.partition.members_of("keep"), pool_b.partition.members_of("keep"))
        ra = round_robin(alloc_of([4, 0], tasks=("keep", "other")), pool_a.partition, 4, seed=5)
        rb = round_robin(
            alloc_of([4, 0, 0], tasks=("keep", "yyy", "zzz")), pool_b.partition, 4, seed=5
        )
        keep_a = [i for i in ra.selected if i in set(pool_a.partition.members_of("keep"))]
        keep_b = [i for i in rb.selected if i in set(pool_b.partition.members_of("keep"))]
        assert keep_a == keep_b

    @pytest.mark.parametrize("tasks", [("b", "a"), ("a", "c"), ("a",)])
    def test_labelled_allocation_must_be_in_partition_order(self, tasks):
        pool = make_pool({"a": 2, "b": 2})
        with pytest.raises(ConfigError, match="partition order"):
            round_robin(alloc_of([1.0] * len(tasks), tasks=tasks), pool.partition, 2, seed=0)

    def test_caps_and_fairness_randomized(self, rng):
        for _ in range(150):
            n_tasks = int(rng.integers(1, 8))
            sizes = {f"t{i}": int(rng.integers(1, 15)) for i in range(n_tasks)}
            pool = make_pool(sizes)
            counts = np.array(pool.partition.counts)
            alpha = rng.uniform(0.0, counts + 2.0)
            budget = int(rng.integers(1, counts.sum() + 4))
            seed = int(rng.integers(0, 1000))
            result = round_robin(alloc_of(alpha, tasks=pool.partition.tasks), pool.partition, budget, seed=seed)
            # the closed form draws exactly what the pass-by-pass loop draws
            assert result.selected == loop_round_robin(pool.partition, alpha, budget, seed)
            caps = ceil_allocation(
                [dict(zip(pool.partition.tasks, alpha))[t] for t in pool.partition.tasks]
            )
            taken = np.array([result.per_task[t] for t in pool.partition.tasks])
            available = np.minimum(caps, counts).sum()
            assert len(result.selected) == min(budget, available)
            assert len(set(result.selected)) == len(result.selected)
            assert np.all(taken <= caps)
            assert np.all(taken <= counts)
            open_tasks = (taken < caps) & (taken < counts)
            if open_tasks.sum() >= 2:
                vals = taken[open_tasks]
                assert vals.max() - vals.min() <= 1


class TestRandom:
    def test_full_budget_selects_all(self):
        pool = make_pool({"a": 4, "b": 3})
        result = select_random(pool, 7, seed=0)
        assert sorted(result.selected) == list(range(7))

    def test_zero_budget_rejected(self):
        pool = make_pool({"a": 2})
        with pytest.raises(InvalidBudget):
            select_random(pool, 0, seed=0)

    def test_seed_reproducibility(self):
        pool = make_pool({"a": 50})
        assert select_random(pool, 10, seed=7).selected == select_random(pool, 10, seed=7).selected

    def test_budget_capped_with_warning(self):
        pool = make_pool({"a": 3})
        result = select_random(pool, 10, seed=1)
        assert sorted(result.selected) == [0, 1, 2]
        assert result.warnings


class TestUncertainty:
    def test_least_confidence_argmin(self):
        pool = make_pool({"t": 3}, confidences=[0.9, 0.1, 0.5])
        result = select_uncertainty(pool, score_pool(pool), "least_confidence", 1)
        assert result.selected == [1]

    def test_mean_margin(self):
        traces = [((0.9, 0.1),), ((0.6, 0.4),)]  # margins 0.8 and 0.2
        pool = make_pool({"t": 2}, token_probs=traces)
        result = select_uncertainty(pool, score_pool(pool), "mean_margin", 1)
        assert result.selected == [1]

    def test_mean_entropy_top_two(self):
        traces = [
            ((1.0, 0.0),),          # entropy 0
            ((0.5, 0.5),),          # entropy ln 2
            ((0.9, 0.1),),          # entropy ~0.33
        ]
        pool = make_pool({"t": 3}, token_probs=traces)
        result = select_uncertainty(pool, score_pool(pool), "mean_entropy", 2)
        assert result.selected == [1, 2]

    def test_matches_argsort_oracle(self, rng):
        for criterion in ("least_confidence", "mean_entropy", "mean_margin", "min_margin"):
            n = 40
            traces = []
            for _ in range(n):
                length = int(rng.integers(1, 8))
                top = rng.uniform(0.4, 1.0, size=length)
                second = rng.uniform(0.0, 0.4, size=length)
                traces.append(tuple((float(a), float(b)) for a, b in zip(top, second)))
            pool = make_pool({"t": n}, token_probs=traces)
            scores = score_pool(pool)
            budget = 12
            result = select_uncertainty(pool, scores, criterion, budget)
            if criterion == "least_confidence":
                keys = [log_confidence(t) for t in traces]
            elif criterion == "mean_entropy":
                keys = [-mean_entropy(t) for t in traces]
            elif criterion == "mean_margin":
                keys = [margins(t)[0] for t in traces]
            else:
                keys = [margins(t)[1] for t in traces]
            expected = sorted(range(n), key=lambda i: (keys[i], i))[:budget]
            assert result.selected == expected

    def test_ties_break_by_pool_index(self):
        pool = make_pool({"t": 3}, confidences=[0.5, 0.5, 0.5])
        result = select_uncertainty(pool, score_pool(pool), "least_confidence", 2)
        assert result.selected == [0, 1]

    def test_missing_score(self):
        pool = Pool(
            [
                PromptRecord(id="a", task="t", confidence=0.5),
                PromptRecord(id="b", task="t", confidence=0.7),
            ]
        )
        with pytest.raises(MissingScore, match="mean_entropy"):
            select_uncertainty(pool, score_pool(pool), "mean_entropy", 1)


@pytest.mark.parametrize("kind", ["rbf", "euclidean", "cosine"])
@pytest.mark.parametrize("gamma", [float("inf"), float("-inf"), float("nan")])
def test_kernel_spec_rejects_non_finite_gamma(kind, gamma):
    with pytest.raises(InvalidKernel):
        KernelSpec(kind, gamma)


class TestKCenter:
    def test_two_points(self):
        result = select_k_center(np.array([[0.0], [10.0]]), 2)
        assert sorted(result.selected) == [0, 1]

    def test_medoid_seed_then_farthest(self):
        result = select_k_center(np.array([[0.0], [1.0], [10.0]]), 2)
        assert result.selected == [1, 2]
        assert result.objective_trace[-1] == pytest.approx(1.0)
        assert oracle_kcenter_radius([[0.0], [1.0], [10.0]], 2) == pytest.approx(1.0)

    def test_budget_equals_n(self, rng):
        pts = rng.normal(size=(6, 2))
        result = select_k_center(pts, 6)
        assert sorted(result.selected) == list(range(6))
        assert result.objective_trace[-1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_euclidean(self):
        with pytest.raises(InvalidKernel):
            select_k_center(np.zeros((3, 2)), 2, KernelSpec("rbf", 0.5))

    def test_duplicate_points_no_reselection(self):
        pts = np.zeros((4, 2))
        result = select_k_center(pts, 3)
        assert len(set(result.selected)) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_every_pick_is_the_lowest_near_max(self, seed):
        # the points share one norm and sum to zero, so every total squared
        # distance ties, and so do the farthest points of each step; float
        # noise would otherwise decide these picks
        pts = mirrored_pairs(seed=seed)
        result = select_k_center(pts, len(pts))
        for step, pick in enumerate(result.selected):
            assert pick == kcenter_lowest_near_max_pick(pts, result.selected[:step]), step

    def test_two_approximation_small(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 11))
            pts = rng.normal(size=(n, 2))
            budget = int(rng.integers(1, 4))
            result = select_k_center(pts, budget)
            optimal = oracle_kcenter_radius(pts, budget)
            assert result.objective_trace[-1] <= 2.0 * optimal + 1e-9


class TestFacilityLocation:
    def test_budget_one_is_max_column_sum(self, rng):
        pts = rng.normal(size=(9, 3))
        for kind, gamma in (("euclidean", None), ("rbf", 0.5), ("cosine", None)):
            result = select_facility_location(pts, 1, KernelSpec(kind, gamma))
            ref = fl_kernel(pts, kind, gamma)
            assert result.selected[0] == int(np.argmax(ref.sum(axis=0)))
            assert result.objective_trace[0] == pytest.approx(ref.sum(axis=0).max(), rel=1e-9)

    def test_identical_clusters_pick_one_each(self):
        cluster = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        pts = np.vstack([cluster, cluster + np.array([10.0, 0.0])])
        result = select_facility_location(pts, 2, KernelSpec("rbf", 1.0))
        sides = {0 if i < 3 else 1 for i in result.selected}
        assert sides == {0, 1}
        # brute force over all pairs confirms greedy lands on an optimal pair
        ref = fl_objective(fl_kernel(pts, "rbf", 1.0))
        best_pair = max(
            ref((i, j)) for i in range(6) for j in range(6) if i != j
        )
        assert ref(tuple(result.selected)) == pytest.approx(best_pair, rel=1e-9)

    def test_greedy_matches_per_step_argmax(self, rng):
        for kind, gamma in (("euclidean", None), ("rbf", 0.1), ("cosine", None)):
            for _ in range(15):
                n = int(rng.integers(4, 10))
                pts = rng.normal(size=(n, 3))
                budget = int(rng.integers(2, min(4, n) + 1))
                result = select_facility_location(pts, budget, KernelSpec(kind, gamma))
                objective = fl_objective(fl_kernel(pts, kind, gamma))
                chosen = []
                for step, pick in enumerate(result.selected):
                    values = {
                        c: objective(tuple(chosen) + (c,))
                        for c in range(n)
                        if c not in chosen
                    }
                    best = max(values.values())
                    ties = [c for c, v in values.items() if v >= best - 1e-9 * max(1, abs(best))]
                    assert pick in ties
                    chosen.append(pick)
                    assert result.objective_trace[step] == pytest.approx(
                        objective(tuple(chosen)), rel=1e-9
                    )

    @pytest.mark.parametrize("kind, gamma", [("euclidean", None), ("rbf", 0.5), ("cosine", None)])
    def test_picks_never_repeat(self, kind, gamma):
        # once a copy is picked, its duplicates' gain is zero, as a pick's
        # own is; an empty front, as at the start, must not let a pick back in
        pts = np.array([[1.0, 2.0]] * 3 + [[5.0, 5.0]])
        result = select_facility_location(pts, 4, KernelSpec(kind, gamma))
        assert result.selected == [0, 3, 1, 2]
        pts = np.repeat(np.random.default_rng(5).normal(size=(20, 3)), 2, axis=0)
        result = select_facility_location(pts, 40, KernelSpec(kind, gamma))
        assert sorted(result.selected) == list(range(40))

    def test_trace_non_decreasing(self, rng):
        pts = rng.normal(size=(30, 4))
        result = select_facility_location(pts, 10, KernelSpec("rbf", 0.05))
        trace = result.objective_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_cosine_handles_all_negative_similarities(self):
        # two opposed directions: the second pick's best gain is negative
        pts = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-0.9, -0.1]])
        result = select_facility_location(pts, 2, KernelSpec("cosine"))
        objective = fl_objective(fl_kernel(pts, "cosine"))
        first = result.selected[0]
        values = {c: objective((first, c)) for c in range(4) if c != first}
        assert objective(tuple(result.selected)) == pytest.approx(max(values.values()), rel=1e-9)
        sides = {0 if pts[i, 0] > 0 else 1 for i in result.selected}
        assert sides == {0, 1}


def mirrored_pairs(d=8, seed=3):
    """Two-point clusters {c + v, c - v} at c = +-e_k with v = e_(k+1) / 4,
    rotated at random. Under rbf gamma=50 the clusters barely see each
    other, so every uncovered cluster offers the same gain in exact
    arithmetic and every greedy step is a near tie; the rotation puts float
    noise of about 1e-15 on those gains."""
    centers = np.vstack([np.eye(d), -np.eye(d)])
    offsets = 0.25 * np.tile(np.roll(np.eye(d), 1, axis=1), (2, 1))
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return np.vstack([centers + offsets, centers - offsets]) @ q


class TestFacilityLocationTiles:
    def test_near_ties_go_to_lowest_index(self):
        for seed in range(4):
            pts = mirrored_pairs(seed=seed)
            dense = fl_kernel(pts, "rbf", 50.0)
            result = select_facility_location(pts, len(pts) // 2 + 4, KernelSpec("rbf", 50.0))
            for step, pick in enumerate(result.selected):
                assert pick == fl_lowest_near_max_pick(dense, result.selected[:step]), (seed, step)
            assert result.stats["near_tie_picks"] == len(result.selected)

    def test_tiles_stay_within_cap_and_picks_do_not_depend_on_them(self, rng, monkeypatch):
        centers = 4.0 * rng.standard_normal((12, 5))
        pts = centers[rng.integers(0, 12, size=700)] + rng.standard_normal((700, 5))
        spec = KernelSpec("rbf", 0.05)
        reference = select_facility_location(pts, 60, spec)
        cross = selectors._ColumnKernel.cross

        def checked_cross(self, rows, cols):
            block = cross(self, rows, cols)
            assert block.size <= selectors._TILE_FLOATS
            return block

        monkeypatch.setattr(selectors._ColumnKernel, "cross", checked_cross)
        for tile_floats in (1 << 12, 1 << 15, selectors._TILE_FLOATS):
            monkeypatch.setattr(selectors, "_TILE_FLOATS", tile_floats)
            result = select_facility_location(pts, 60, spec)
            assert result.selected == reference.selected
            assert result.objective_trace[-1] == pytest.approx(
                reference.objective_trace[-1], rel=1e-12
            )

    def test_picks_do_not_depend_on_the_front_cap(self, rng, monkeypatch):
        centers = 4.0 * rng.standard_normal((12, 5))
        pts = centers[rng.integers(0, 12, size=700)] + rng.standard_normal((700, 5))
        for spec in (KernelSpec("rbf", 0.05), KernelSpec("euclidean"), KernelSpec("cosine")):
            reference = select_facility_location(pts, 60, spec)
            for cap in (2, 16, 256, 10**9):
                monkeypatch.setattr(selectors, "_FRONT_CAP", cap)
                result = select_facility_location(pts, 60, spec)
                assert result.selected == reference.selected, (spec.kind, cap)
                assert result.objective_trace == reference.objective_trace
            monkeypatch.undo()

    def test_stats_repeat_exactly(self, rng):
        emb = rng.normal(size=(300, 4))
        pool = make_pool({"a": 150, "b": 150}, embeddings=emb)
        config = StrategyConfig("facility_location", budget=40, seed=0)
        blobs = [
            json.dumps(manifest_payload(run_strategy(pool, config), pool), sort_keys=True)
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1]
        stats = json.loads(blobs[0])["stats"]
        assert set(stats) == {"kernel_entries", "gain_evaluations", "front_demotions", "near_tie_picks"}
        assert stats["kernel_entries"] >= 300 * 301 // 2  # the column sums alone
        assert stats["gain_evaluations"] >= 39

    def test_other_strategies_have_no_stats(self, rng):
        pool = make_pool({"a": 6}, embeddings=rng.normal(size=(6, 2)))
        for name in ("k_center", "dpp", "random"):
            result = run_strategy(pool, StrategyConfig(name, budget=2, seed=0))
            assert result.stats is None
            assert "stats" not in manifest_payload(result, pool)


_THREAD_SCRIPT = """
import json
import numpy as np
from taskpick.selectors import KernelSpec, select_dpp, select_facility_location, select_k_center
rng = np.random.default_rng(99)
pts = 3.0 * rng.standard_normal((40, 16))[rng.integers(0, 40, size=2500)]
pts += rng.standard_normal(pts.shape)
print(json.dumps([
    select_facility_location(pts, 80, KernelSpec("rbf", 0.05)).selected,
    select_dpp(pts, 40, KernelSpec("euclidean")).selected,
    select_dpp(pts, 40, KernelSpec("cosine")).selected,
    select_k_center(pts, 80).selected,
]))
"""


def test_selections_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(selectors.__file__))
    picks = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        picks.append(json.loads(out.stdout))
    assert picks[0] == picks[1]


class TestDpp:
    def test_orthonormal_tie_break(self):
        result = select_dpp(np.eye(3), 2, KernelSpec("euclidean"))
        assert result.selected == [0, 1]
        assert abs(result.objective_trace[-1]) < 1e-5  # ~0 aside from jitter

    def test_residual_hand_example(self):
        pts = np.array([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0]])
        result = select_dpp(pts, 2, KernelSpec("euclidean"))
        assert result.selected == [0, 2]

    def test_greedy_matches_per_step_argmax(self, rng):
        jitter = 1e-6
        for kind, gamma in (("euclidean", None), ("rbf", 0.1), ("cosine", None)):
            for _ in range(15):
                n = int(rng.integers(4, 10))
                pts = rng.normal(size=(n, 4))
                budget = int(rng.integers(2, min(4, n) + 1))
                result = select_dpp(pts, budget, KernelSpec(kind, gamma), jitter=jitter)
                objective = dpp_objective(dpp_kernel(pts, kind, gamma), jitter)
                chosen = []
                for step, pick in enumerate(result.selected):
                    values = {
                        c: objective(tuple(chosen) + (c,))
                        for c in range(n)
                        if c not in chosen
                    }
                    best = max(values.values())
                    ties = [c for c, v in values.items() if v >= best - 1e-8 * max(1, abs(best))]
                    assert pick in ties
                    chosen.append(pick)
                    assert result.objective_trace[step] == pytest.approx(
                        objective(tuple(chosen)), rel=1e-6, abs=1e-9
                    )

    def test_rank_exhaustion_flags_partial_result(self):
        # rbf duplicates: K is all ones, so with a jitter below the rounding
        # of 1.0 every residual after the first pick is exactly zero
        pts = np.array([[1.0]] * 3)
        result = select_dpp(pts, 3, KernelSpec("rbf", 0.5), jitter=1e-20)
        assert result.selected == [0]
        assert any("rank exhausted" in w for w in result.warnings)

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.6, 0.8)])
    @pytest.mark.parametrize("norm", [1e3, 1e9])
    def test_linear_duplicates_get_exact_jitter_pivots(self, norm, direction):
        # K + jitter*I on three copies of x has pivots ||x||^2 + jitter,
        # then 2 jitter and 1.5 jitter (up to jitter / ||x||^2); off the
        # axes the jitter is below the rounding of X^T X's entries
        jitter = 1e-6
        pts = norm * np.array([direction] * 3)
        result = select_dpp(pts, 3, KernelSpec("euclidean"), jitter=jitter)
        assert result.selected == [0, 1, 2]
        pivots = np.exp(np.diff(result.objective_trace))
        assert pivots == pytest.approx([2 * jitter, 1.5 * jitter], rel=1e-9)

    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    def test_every_pick_is_the_lowest_exact_near_max(self, kind):
        pts = 100 * np.random.default_rng(1).standard_normal((300, 4)) + 300
        jitter = 1e-6
        result = select_dpp(pts, 60, KernelSpec(kind), jitter=jitter)
        if kind == "cosine":
            pts = pts / np.sqrt((pts * pts).sum(axis=1))[:, None]
        assert len(result.selected) == 60
        for step, pick in enumerate(result.selected):
            residuals = dpp_exact_residuals(pts, result.selected[:step], jitter)
            top = residuals.max()
            assert pick == int(np.argmax(residuals >= top - 1e-12 * abs(top))), step

    @pytest.mark.parametrize("kind", ["euclidean", "cosine"])
    def test_linear_kernels_hold_no_budget_sized_factor(self, kind):
        # the k x N factor would be 4000 * 4000 * 8 bytes = 128 MB
        pts = np.random.default_rng(2).standard_normal((4000, 3))
        tracemalloc.start()
        try:
            result = select_dpp(pts, 4000, KernelSpec(kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(result.selected) == list(range(4000))
        assert peak < 4 << 20

    def test_rbf_factor_is_checked_against_physical_memory(self):
        # a 200K x 200K float64 factor is 320 GB
        pts = np.zeros((200_000, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="320000000000 bytes"):
                select_dpp(pts, 200_000, KernelSpec("rbf", 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_warns_once_when_jitter_decides_picks(self, rng):
        pts = rng.normal(size=(30, 3))
        within_rank = select_dpp(pts, 3, KernelSpec("euclidean"))
        past_rank = select_dpp(pts, 6, KernelSpec("euclidean"))
        assert past_rank.selected[:3] == within_rank.selected
        assert not within_rank.warnings
        notes = [w for w in past_rank.warnings if "decided by the jitter" in w]
        assert len(notes) == 1 and "at step 3 " in notes[0]

    @pytest.mark.parametrize("jitter", [float("inf"), float("nan"), 0.0, -1e-6])
    def test_rejects_non_positive_or_non_finite_jitter(self, jitter):
        with pytest.raises(ConfigError):
            select_dpp(np.eye(3), 2, KernelSpec("euclidean"), jitter=jitter)

    def test_positive_pivots(self, rng):
        pts = rng.normal(size=(12, 3))
        result = select_dpp(pts, 6, KernelSpec("rbf", 0.5))
        # each trace increment is log of a positive pivot
        assert np.all(np.isfinite(result.objective_trace))
        assert len(result.selected) == 6


class TestRunStrategy:
    def test_task_diversity_composition(self):
        pool = make_pool({"a": 3, "b": 10, "c": 10})
        result = run_strategy(pool, StrategyConfig("task_diversity", budget=13, seed=4))
        assert result.per_task == {"a": 3, "b": 5, "c": 5}
        assert len(result.selected) == 13
        assert result.allocation is not None
        by_task = {r["task"]: r for r in result.allocation}
        assert by_task["b"]["alpha"] == 5.0
        assert by_task["b"]["alpha_ceil"] == 5

    def test_weighted_composition(self):
        confs = [0.2] * 100 + [0.4] * 100
        pool = make_pool({"a": 100, "b": 100}, confidences=confs)
        result = run_strategy(pool, StrategyConfig("weighted_task_diversity", budget=30, seed=0))
        assert result.per_task == {"a": 20, "b": 10}
        rows = {r["task"]: r for r in result.allocation}
        assert rows["a"]["confidence"] == pytest.approx(0.2)

    def test_active_it_takes_whole_tasks(self):
        confs = [0.1] * 4 + [0.5] * 4 + [0.9] * 4
        pool = make_pool({"a": 4, "b": 4, "c": 4}, confidences=confs)
        result = run_strategy(pool, StrategyConfig("active_it", budget=10, seed=0))
        assert result.per_task == {"a": 4, "b": 4, "c": 2}

    @pytest.mark.parametrize("strategy", ["task_diversity", "weighted_task_diversity", "active_it"])
    def test_library_composition_matches_run_strategy(self, rng, strategy):
        # the README's Library section: allocate over the partition, then round robin
        sizes = {f"task{t}": int(rng.integers(1, 40)) for t in range(12)}
        confs = list(rng.uniform(0.02, 0.98, size=sum(sizes.values())))
        pool = make_pool(sizes, confidences=confs)
        budget, seed = 90, 5
        counts, conf = pool.partition.counts, task_mean_confidence(pool)
        if strategy == "task_diversity":
            alloc = allocate_task_diversity(counts, budget, tasks=pool.partition.tasks)
        elif strategy == "weighted_task_diversity":
            alloc = allocate_weighted(counts, conf, budget, base=5)
        else:
            alloc = allocate_active_it(counts, conf, budget)
        composed = round_robin(alloc, pool.partition, budget, seed)
        result = run_strategy(pool, StrategyConfig(strategy, budget=budget, seed=seed))
        assert composed.selected == result.selected
        assert composed.per_task == result.per_task

    def test_random_full_budget(self):
        pool = make_pool({"a": 5})
        result = run_strategy(pool, StrategyConfig("random", budget=5, seed=0))
        assert sorted(result.selected) == list(range(5))

    def test_unknown_strategy(self):
        pool = make_pool({"a": 2})
        with pytest.raises(ConfigError):
            run_strategy(pool, StrategyConfig("frobnicate", budget=1))

    def test_geometric_requires_embeddings(self):
        pool = make_pool({"a": 3})
        with pytest.raises(MissingEmbedding):
            run_strategy(pool, StrategyConfig("k_center", budget=2))

    def test_weighted_requires_confidence(self):
        pool = make_pool({"a": 3})
        with pytest.raises(MissingConfidence):
            run_strategy(pool, StrategyConfig("weighted_task_diversity", budget=2))

    def test_per_task_tally_for_geometric(self, rng):
        emb = rng.normal(size=(8, 3))
        pool = make_pool({"a": 4, "b": 4}, embeddings=emb)
        result = run_strategy(pool, StrategyConfig("dpp", budget=4, seed=0))
        assert sum(result.per_task.values()) == len(result.selected) == 4

    def test_kernel_defaults_resolved_in_params(self, rng):
        emb = rng.normal(size=(6, 2))
        pool = make_pool({"a": 6}, embeddings=emb)
        result = run_strategy(pool, StrategyConfig("facility_location", budget=2, seed=0))
        assert result.params["kernel"] == "rbf"
        assert result.params["gamma"] == 0.1

    @pytest.mark.parametrize(
        "strategy, kind",
        [("k_center", None),
         *((strategy, kind) for strategy in ("facility_location", "dpp")
           for kind in ("euclidean", "rbf", "cosine"))],
    )
    def test_direct_call_params_are_the_manifest_params(self, rng, strategy, kind):
        pool = make_pool({"a": 4, "b": 4}, embeddings=rng.normal(size=(8, 3)))
        kernel = None if kind is None else KernelSpec(kind)
        result = run_strategy(pool, StrategyConfig(strategy, budget=3, kernel=kernel))
        select = getattr(selectors, f"select_{strategy}")
        assert select(pool.embedding_matrix(), 3, kernel).params == result.params

    def test_manifest_is_byte_stable(self, rng):
        emb = rng.normal(size=(10, 3))
        confs = list(rng.uniform(0.1, 1.0, size=10))
        pool = make_pool({"a": 5, "b": 5}, confidences=confs, embeddings=emb)
        blobs = []
        for _ in range(2):
            result = run_strategy(pool, StrategyConfig("weighted_task_diversity", budget=8, seed=11))
            blobs.append(json.dumps(manifest_payload(result, pool), sort_keys=True))
        assert blobs[0] == blobs[1]
