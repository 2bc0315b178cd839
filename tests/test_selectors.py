import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import make_pool, run_python
from oracles import oracle_kcenter_radius
from reference import (
    dpp_exact_residuals,
    dpp_kernel,
    dpp_objective,
    fl_kernel,
    fl_lowest_near_max_pick,
    fl_objective,
    kcenter_lowest_near_max_pick,
    kcenter_sq_radii,
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
    ShapeError,
    ValidationError,
)
from taskpick.manifest import manifest_payload
from taskpick.pool import Pool, PromptRecord
from taskpick.scoring import score_pool, task_mean_confidence
from taskpick.selectors import (
    KernelSpec,
    StrategyConfig,
    round_robin,
    run_strategy,
    select_dpp,
    select_facility_location,
    select_k_center,
    select_random,
    select_uncertainty,
)


def alloc_of(alpha):
    return AllocationVector(alpha=np.asarray(alpha, dtype=np.float64))


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
        alloc = allocate_task_diversity(pool.partition.counts, 25)
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
        # both allocations are in partition order: ("keep", "other") and ("keep", "yyy", "zzz")
        ra = round_robin(alloc_of([4, 0]), pool_a.partition, 4, seed=5)
        rb = round_robin(alloc_of([4, 0, 0]), pool_b.partition, 4, seed=5)
        keep_a = [i for i in ra.selected if i in set(pool_a.partition.members_of("keep"))]
        keep_b = [i for i in rb.selected if i in set(pool_b.partition.members_of("keep"))]
        assert keep_a == keep_b

    @pytest.mark.parametrize("alpha", [[1.0], [1.0, 1.0, 1.0]])
    def test_allocation_needs_one_entry_per_task(self, alpha):
        pool = make_pool({"a": 2, "b": 2})
        with pytest.raises(ConfigError, match=f"{len(alpha)} entries for 2 tasks"):
            round_robin(alloc_of(alpha), pool.partition, 2, seed=0)

    def test_caps_and_fairness_randomized(self, rng):
        for _ in range(150):
            n_tasks = int(rng.integers(1, 8))
            sizes = {f"t{i}": int(rng.integers(1, 15)) for i in range(n_tasks)}
            pool = make_pool(sizes)
            counts = np.array(pool.partition.counts)
            alpha = rng.uniform(0.0, counts + 2.0)
            budget = int(rng.integers(1, counts.sum() + 4))
            seed = int(rng.integers(0, 1000))
            result = round_robin(alloc_of(alpha), pool.partition, budget, seed=seed)
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

    def test_unknown_criterion(self):
        pool = make_pool({"t": 2}, confidences=[0.5, 0.7])
        with pytest.raises(ConfigError, match="unknown uncertainty criterion 'max_margin'"):
            select_uncertainty(pool, score_pool(pool), "max_margin", 1)

    def test_scores_of_another_pool(self):
        pool = make_pool({"t": 2}, confidences=[0.5, 0.7])
        other = make_pool({"t": 3}, confidences=[0.5, 0.7, 0.9])
        with pytest.raises(ConfigError, match="got 3 score entries for 2 records"):
            select_uncertainty(pool, score_pool(other), "least_confidence", 1)


def test_kernel_spec_rejects_an_unknown_kind():
    with pytest.raises(InvalidKernel, match="unknown kernel kind 'manhattan'"):
        KernelSpec("manhattan")


@pytest.mark.parametrize("kind", ["rbf", "euclidean", "cosine"])
@pytest.mark.parametrize("gamma", [float("inf"), float("-inf"), float("nan")])
def test_kernel_spec_rejects_non_finite_gamma(kind, gamma):
    with pytest.raises(InvalidKernel):
        KernelSpec(kind, gamma)


# each greedy selector with each kernel it accepts
GREEDY = [(select_k_center, None)] + [
    (select, KernelSpec(kind)) for select in (select_facility_location, select_dpp)
    for kind in ("euclidean", "rbf", "cosine")
]


@pytest.mark.parametrize("select, kernel", GREEDY)
@pytest.mark.parametrize("shape", [(0, 4), (0, 0), (4,), (), (3, 4, 2)])
def test_greedy_selectors_reject_embeddings_that_are_not_a_non_empty_matrix(select, kernel, shape):
    with pytest.raises(ShapeError, match=r"^embeddings must be a non-empty N x d matrix, got shape \("):
        select(np.zeros(shape), 3, kernel)


@pytest.mark.parametrize("select, kernel", GREEDY)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_greedy_selectors_name_non_finite_embeddings(rng, select, kernel, value):
    pts = rng.standard_normal((6, 3))
    pts[4, 1] = value
    with pytest.raises(ValidationError, match=r"^embeddings hold a non-finite value, or .* overflows float64"):
        select(pts, 3, kernel)


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

    def test_duplicate_points_across_blocks(self, rng):
        # 10 distinct points three times over: 30 points, two blocks wide;
        # after the 10 distinct ones the radius is +0.0, never -0.0
        pts = np.tile(rng.normal(size=(10, 3)), (3, 1))
        result = select_k_center(pts, len(pts))
        for step, pick in enumerate(result.selected):
            assert pick == kcenter_lowest_near_max_pick(pts, result.selected[:step]), step
        assert sorted(result.selected) == list(range(30))
        assert {x.hex() for x in result.objective_trace[9:]} == {"0x0.0p+0"}

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 50])
    def test_blocks_at_and_around_their_width(self, rng, n):
        # N <= 16 is one block of every point; at N = 17 the partition leaves
        # one point out; at budget N, late blocks hold picked points at -inf
        pts = rng.normal(size=(n, 3))
        result = select_k_center(pts, n)
        for step, pick in enumerate(result.selected):
            assert pick == kcenter_lowest_near_max_pick(pts, result.selected[:step]), step
        assert sorted(result.selected) == list(range(n))
        assert result.objective_trace[-1] == 0.0
        stats = result.stats
        assert stats["kernel_entries"] == stats["column_blocks"] * min(n, 16) * n
        assert (stats["column_blocks"] == 1) == (n <= 16)

    @pytest.mark.parametrize("width", [2, None])
    def test_block_width_decides_no_pick(self, monkeypatch, rng, width):
        # blocks of 2 and of every point give the picks of blocks of 16, and
        # traces within the kernel's tolerance, which both sides may use
        pts = 3.0 * rng.standard_normal((30, 8))[rng.integers(0, 30, size=400)]
        pts += rng.standard_normal(pts.shape)
        base = select_k_center(pts, 150)
        monkeypatch.setattr(selectors, "_KCENTER_BLOCK", width or len(pts))
        other = select_k_center(pts, 150)
        assert other.selected == base.selected
        _, bounds = kcenter_sq_radii(pts, base.selected)
        assert np.all(np.abs(np.square(other.objective_trace) - np.square(base.objective_trace)) <= 2 * bounds)
        blocks = other.stats["column_blocks"]
        assert (blocks == 1) if width is None else (blocks > base.stats["column_blocks"])

    def test_stats_count_blocks_and_near_ties(self):
        pts = mirrored_pairs(seed=0)
        result = select_k_center(pts, len(pts))
        stats = result.stats
        assert set(stats) == {"kernel_entries", "column_blocks", "near_tie_picks"}
        assert stats["kernel_entries"] == stats["column_blocks"] * 16 * len(pts)
        assert 0 < stats["near_tie_picks"] < len(pts)
        assert select_k_center(pts, len(pts)).stats == stats

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


@pytest.mark.parametrize("select, kernel", [
    (select_facility_location, KernelSpec("rbf", 50.0)),
    (select_k_center, None),
    (select_dpp, KernelSpec("euclidean")),
])
def test_near_tie_picks_are_warned_once_with_the_first_step_and_the_total(select, kernel):
    # every mirrored point has the same column sum, medoid sum and norm, so
    # each greedy selector's first pick is a near tie
    tied = select(mirrored_pairs(), 6, kernel)
    assert tied.stats["near_tie_picks"] > 0
    assert [w for w in tied.warnings if "near-tie" in w] == [
        f"near-tie picks: {tied.stats['near_tie_picks']}, the first at step 0; each went to"
        " the lowest index within 1e-12 (relative) of the best"
    ]
    spread = select(np.random.default_rng(5).standard_normal((40, 3)), 3, kernel)
    assert (spread.stats["near_tie_picks"], spread.warnings) == (0, [])


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
        specs = (KernelSpec("rbf", 0.05), KernelSpec("euclidean"), KernelSpec("cosine"))
        references = [select_facility_location(pts, 60, spec) for spec in specs]
        cross = selectors._ColumnKernel._cross
        shapes = set()

        def checked_cross(self, rows, right):
            block = cross(self, rows, right)
            assert block.size <= selectors._TILE_FLOATS
            assert max(block.shape) <= selectors._TILE_FLOATS // 64
            shapes.add(block.shape)
            return block

        monkeypatch.setattr(selectors._ColumnKernel, "_cross", checked_cross)
        for tile_floats in (1 << 12, 1 << 15, selectors._TILE_FLOATS):
            monkeypatch.setattr(selectors, "_TILE_FLOATS", tile_floats)
            for spec, reference in zip(specs, references):
                result = select_facility_location(pts, 60, spec)
                assert result.selected == reference.selected, (spec.kind, tile_floats)
                assert [x.hex() for x in result.objective_trace] == [
                    x.hex() for x in reference.objective_trace
                ], (spec.kind, tile_floats)
        # at the default cap, a one-column pass gathers at most 1,024 rows
        # and a wide pass at most 1,024 columns
        kern = selectors._ColumnKernel(rng.standard_normal((2_500, 3)), KernelSpec("euclidean"))
        shapes.clear()
        for rows, cols in ((np.arange(2_500), np.array([5])), (np.array([5]), np.arange(2_500))):
            kern.clipped_sums(rows, cols, np.zeros(rows.size))
        assert shapes == {(1_024, 1), (452, 1), (1, 1_024), (1, 452)}

    @pytest.mark.parametrize("kind", ["rbf", "euclidean", "cosine"])
    def test_tiles_do_not_overwrite_earlier_columns(self, rng, kind, monkeypatch):
        pts = rng.standard_normal((300, 4))
        kern = selectors._ColumnKernel(pts, KernelSpec(kind))
        column = kern.columns([7])[0]
        kept = column.copy()
        cross = selectors._ColumnKernel._cross

        def checked_cross(self, rows, right):
            tile = cross(self, rows, right)
            assert not np.shares_memory(tile, column)
            return tile

        monkeypatch.setattr(selectors._ColumnKernel, "_cross", checked_cross)
        kern.column_sums()
        kern.clipped_sums(None, np.arange(300), np.zeros(300))
        assert column.tobytes() == kept.tobytes()
        assert column.tobytes() == kern.columns([7])[0].tobytes()

    @pytest.mark.parametrize("kind", ["rbf", "euclidean", "cosine"])
    def test_walks_are_the_only_public_methods_and_own_their_results(self, rng, kind):
        # columns, the two column sums and clipped_sums are K's whole
        # interface, and none hands out the scratch tile, which the next tile
        # overwrites; rbf has no closed-form sums
        public = {name for name in vars(selectors._ColumnKernel) if not name.startswith("_")}
        assert public == {"columns", "closed_sums", "column_sums", "clipped_sums"}
        pts = rng.standard_normal((700, 4))
        kern = selectors._ColumnKernel(pts, KernelSpec(kind))
        dense = fl_kernel(kern.points, kind, 0.1)
        rows, cols = rng.permutation(700)[:500], rng.permutation(700)[:300]
        floor, cap = rng.standard_normal(500), np.abs(rng.standard_normal(500))
        sums, low = kern.column_sums()
        clipped = kern.clipped_sums(rows, cols, floor, cap)
        uncapped = kern.clipped_sums(None, cols, np.zeros(700))
        block = kern.columns(cols[:16])
        closed = sums if kind == "rbf" else kern.closed_sums()
        for walked in (kern.columns([7])[0], block, sums, closed, clipped, uncapped):
            assert not np.shares_memory(walked, kern._tile)
        assert np.allclose(closed, sums, rtol=1e-12, atol=1e-9)
        assert block.flags.c_contiguous and block.shape == (16, 700)
        assert np.allclose(block, dense[:, cols[:16]].T, rtol=1e-12, atol=1e-9)
        assert np.allclose(sums, dense.sum(axis=0), rtol=1e-12, atol=1e-9)
        assert low == pytest.approx(dense.min(), rel=1e-12, abs=1e-12)
        expected = np.minimum(np.maximum(dense[np.ix_(rows, cols)] - floor[:, None], 0.0), cap[:, None])
        assert np.allclose(clipped, expected.sum(axis=0), rtol=1e-12, atol=1e-9)
        assert np.allclose(uncapped, np.maximum(dense[:, cols], 0.0).sum(axis=0), rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("kind", ["rbf", "euclidean", "cosine"])
    def test_tiles_are_the_product_form_to_the_bit(self, rng, kind):
        # every tile and one-column block is the rows [x, |x|^2, 1] times
        # [2y, -1, -|y|^2] (or [y, 0, 0]), then min(t, 0), and gamma and exp
        # for rbf, to the bit; the FL and DPP rbf pins rest on the one-column case
        spec = KernelSpec(kind, 0.3 if kind == "rbf" else None)
        kern = selectors._ColumnKernel(3.0 * rng.standard_normal((300, 16)), spec)
        pts, sq = kern.points, kern.sq_norms
        cols = rng.permutation(300)[:200]
        rows = np.column_stack([pts, sq, np.ones(300)])
        assert kern.rows.tobytes() == rows.tobytes()
        if kind == "cosine":
            right = np.column_stack([pts, np.zeros((300, 2))]).T
        else:
            right = np.column_stack([2.0 * pts, -np.ones(300), -sq]).T

        def plain(t):
            if kind != "cosine":
                t = np.minimum(t, 0.0)
            return np.exp(t * 0.3) if kind == "rbf" else t

        dense = self.tiled(kern, cols)
        assert dense.tobytes() == plain(rows @ right[:, cols]).tobytes()
        assert kern.columns([7])[0].tobytes() == plain(rows @ right[:, 7]).tobytes()

    @staticmethod
    def tiled(kern, cols, side=64):
        """K[:, cols] from the kernel's tile product, in side x side tiles."""
        dense = np.empty((kern.n, cols.size))
        for c in range(0, cols.size, side):
            right = kern._right(cols[c : c + side])
            for r in range(0, kern.n, side):
                dense[r : r + side, c : c + side] = kern._cross(slice(r, r + side), right)
        return dense

    @classmethod
    def kernel_tiles(cls, rng, kind, d):
        """A kernel on 300 points in d dimensions, half of them within 1e-6
        of the other half, 200 shuffled columns, and the tiles' K[:, cols]."""
        x = rng.standard_normal((300, d)) * np.sqrt(10.0 / d)
        x[150:] = x[:150] + 1e-6 * rng.standard_normal((150, d))
        kern = selectors._ColumnKernel(x, KernelSpec(kind, 0.3 if kind == "rbf" else None))
        cols = rng.permutation(300)[:200]
        return kern, cols, cls.tiled(kern, cols)

    @staticmethod
    def within_kernel_tolerance(kind, d, values, exact, norm_sums):
        """Whether kernel values are within (d + 2) eps (|a|^2 + |b|^2) of
        -|a - b|^2 (euclidean) or a.b (cosine); rbf's exp(-0.3 |a - b|^2)
        moves by at most 0.3 times that, plus its own rounding."""
        error = np.abs(values - exact)
        bound = (d + 2) * np.finfo(float).eps * norm_sums
        if kind == "rbf":
            bound = 0.3 * bound + 4 * np.finfo(float).eps * exact
        return bool(np.all(error <= bound))

    @pytest.mark.parametrize("d", [16, 64, 1024])
    @pytest.mark.parametrize("kind", ["rbf", "euclidean", "cosine"])
    def test_tiles_are_within_the_tolerance_of_the_textbook_distance(self, rng, kind, d):
        kern, cols, dense = self.kernel_tiles(rng, kind, d)
        # the textbook forms, in extended precision where the platform has
        # it, one row at a time to keep the d-wide differences small
        pts = kern.points.astype(np.longdouble)
        if kind == "cosine":
            exact = pts @ pts[cols].T
        else:
            dist = np.array([((p - pts[cols]) ** 2).sum(axis=1) for p in pts])
            exact = -dist if kind == "euclidean" else np.exp(-0.3 * dist)
        norm_sums = np.add.outer(kern.sq_norms, kern.sq_norms[cols])
        assert self.within_kernel_tolerance(kind, d, dense, exact, norm_sums)

    @pytest.mark.parametrize("d", [16, 64, 1024])
    @pytest.mark.parametrize("kind", ["rbf", "euclidean", "cosine"])
    def test_columns_agree_with_the_tiles_within_the_tolerance(self, rng, kind, d):
        # a one-column block is a matrix-vector product, and a wider block
        # and a tile are matrix products, which may round differently
        kern, cols, dense = self.kernel_tiles(rng, kind, d)
        block = kern.columns(cols[::7])
        for row, c in enumerate(range(0, 200, 7)):
            norm_sums = kern.sq_norms + kern.sq_norms[cols[c]]
            for column in (kern.columns(cols[c : c + 1])[0], block[row]):
                assert self.within_kernel_tolerance(kind, d, column, dense[:, c], norm_sums)

    def test_capture_loss_is_the_clip_form_to_the_bit(self, rng):
        # FL's capture update takes min(max(K - old, 0), new - old) for
        # clip(K, old, new) - old; every float must come out the same
        tiny = np.nextafter(0.0, 1.0)
        edge = [-0.0, 0.0, tiny, -tiny, 1e-310, -1e-310, 2.0**-1022, 0.5, 1.0, -3.0,
                np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]
        olds, news, ks = [], [], []
        for old in edge:
            for new in edge:
                if old > new:
                    continue
                near = [np.nextafter(x, to) for x in (old, new) for to in (-np.inf, np.inf)]
                for k in edge + near:
                    olds.append(old)
                    news.append(new)
                    ks.append(k)
        old = np.concatenate([olds, rng.standard_normal(5000)])
        new = np.concatenate([news, old[len(olds):] + np.abs(rng.standard_normal(5000))])
        k = np.concatenate([ks, old[len(olds):] + 1.5 * rng.standard_normal(5000)])

        clipped = np.clip(k, old, new) - old
        capped = np.minimum(np.maximum(k - old, 0.0), new - old)
        assert capped.tobytes() == clipped.tobytes()

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

    def test_k_center_stats_reach_the_manifest(self, rng):
        pool = make_pool({"a": 6}, embeddings=rng.normal(size=(6, 2)))
        result = run_strategy(pool, StrategyConfig("k_center", budget=2, seed=0))
        assert manifest_payload(result, pool)["stats"] == result.stats
        assert result.stats == {"kernel_entries": 36, "column_blocks": 1, "near_tie_picks": 0}

    @pytest.mark.parametrize("kind, entries, ties", [("euclidean", 0, 0), ("rbf", 12, 1)])
    def test_dpp_stats_reach_the_manifest(self, rng, kind, entries, ties):
        # only rbf computes kernel columns, one per pick, and its residuals
        # all start at 1 + jitter, so its first pick is a near tie
        pool = make_pool({"a": 6}, embeddings=rng.normal(size=(6, 2)))
        result = run_strategy(pool, StrategyConfig("dpp", budget=2, kernel=KernelSpec(kind)))
        assert manifest_payload(result, pool)["stats"] == result.stats
        assert result.stats == {"kernel_entries": entries, "jitter_step": None, "near_tie_picks": ties}

    def test_other_strategies_have_no_stats(self, rng):
        pool = make_pool({"a": 6}, embeddings=rng.normal(size=(6, 2)))
        for name in ("random", "task_diversity"):
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
    picks = []
    for threads in ("1", "2"):
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = run_python("-c", _THREAD_SCRIPT, env=env, check=True, timeout=300)
        picks.append(json.loads(out.stdout))
    assert picks[0] == picks[1]


# The high-water mark of a fresh process's own memory. Its ru_maxrss would
# start at the spawning test process's, which exec replaced, and hide a rise.
_HIGH_WATER = """
def high_water():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmHWM:"))
"""

_MEMORY_SCRIPT = _HIGH_WATER + """
import sys
import numpy as np
from taskpick.selectors import KernelSpec, _ColumnKernel
n = int(sys.argv[1])
pts = np.random.default_rng(5).standard_normal((n, 64), dtype=np.float32)
before = high_water()
kern = _ColumnKernel(pts, KernelSpec("rbf", 0.002))
kern.clipped_sums(np.arange(n), np.array([7]), np.zeros(n))
kern.columns([7])[0]
print(high_water() - before)
"""


_PEAK_SCRIPT = _HIGH_WATER + """
import json, sys
import numpy as np
from taskpick.selectors import KernelSpec, select_dpp, select_facility_location, select_k_center
strategy, kind, k, n = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
rng = np.random.default_rng(5)
pts = rng.standard_normal((n, 64), dtype=np.float32)
if strategy == "facility_location":
    # clustered, as lazy greedy on one Gaussian cloud is slow; in place, so
    # that no N x d temporary sets the peak before the call
    centers = 6.0 * rng.standard_normal((40, 64), dtype=np.float32)
    labels = rng.integers(0, 40, size=n)
    for r in range(0, n, 1_024):
        pts[r : r + 1_024] += centers[labels[r : r + 1_024]]
select = {"k_center": select_k_center, "facility_location": select_facility_location, "dpp": select_dpp}
before = high_water()
result = select[strategy](pts, k, KernelSpec(kind, 0.002 if kind == "rbf" else None))
print(json.dumps([high_water() - before, result.warnings]))
"""


def _kernel_bytes(n, d):
    """The kernel's N x (d + 2) float64 rows and its 512 KB scratch tile."""
    return 8 * n * (d + 2) + (1 << 19)


# (strategy, kernel, budget): the peak each selector's docstring states, in N, d and k
STATED_PEAKS = {
    ("k_center", "euclidean", 50): lambda n, d, k: _kernel_bytes(n, d) + 144 * n,
    ("facility_location", "rbf", 20): lambda n, d, k: _kernel_bytes(n, d) + 65 * n,
    ("dpp", "euclidean", 100): lambda n, d, k: _kernel_bytes(n, d) + 24 * n + 8 * n * d + 16 * d * (k + 2 * d + 1_024),
    ("dpp", "cosine", 100): lambda n, d, k: _kernel_bytes(n, d) + 24 * n + 8 * n * d + 16 * d * (k + 2 * d + 1_024),
    ("dpp", "rbf", 50): lambda n, d, k: _kernel_bytes(n, d) + 24 * n + 8 * k * n,
}


class TestKernelMemory:
    @staticmethod
    def physical_memory(monkeypatch, nbytes):
        sysconf = os.sysconf
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        monkeypatch.setattr(selectors.os, "sysconf", lambda name: sizes.get(name) or sysconf(name))

    def test_kernel_rows_are_checked_before_they_are_allocated(self, monkeypatch):
        # 1,000 rows [x, |x|^2, 1] of 4 + 2 float64 are 48,000 bytes
        pts = np.ones((1_000, 4), dtype=np.float32)
        self.physical_memory(monkeypatch, 48_000)
        assert selectors._ColumnKernel(pts, KernelSpec("euclidean")).rows.nbytes == 48_000
        self.physical_memory(monkeypatch, 47_999)
        message = r"^the kernel needs 1000 x 6 float64 rows \(48000 bytes\); physical memory is 47999 bytes$"
        for select, kernel in ((select_k_center, None), (select_facility_location, KernelSpec("rbf")),
                               (select_dpp, KernelSpec("cosine"))):
            with pytest.raises(ConfigError, match=message):
                select(pts, 10, kernel)

    def test_dpp_rbf_factor_is_checked_with_the_kernel_rows(self, monkeypatch, rng):
        # 48,000 bytes of kernel rows plus a 10 x 1,000 factor of 80,000 bytes
        pts = rng.standard_normal((1_000, 4))
        self.physical_memory(monkeypatch, 128_000)
        assert len(select_dpp(pts, 10, KernelSpec("rbf", 0.5)).selected) == 10
        self.physical_memory(monkeypatch, 127_999)
        with pytest.raises(ConfigError, match=(
            r"^dpp with the rbf kernel needs a 10 x 1000 float64 factor and the kernel's rows"
            r" \(128000 bytes\); physical memory is 127999 bytes$"
        )):
            select_dpp(pts, 10, KernelSpec("rbf", 0.5))
        assert len(select_dpp(pts, 10, KernelSpec("euclidean")).selected) == 10

    @pytest.mark.parametrize("n", [30_000, 60_000])
    def test_peak_is_the_rows_plus_a_tile(self, n):
        # float32 points, then a one-column pass over every row as an index
        # array, and one column: the peak may rise by the N x 66 float64 rows
        # plus 8 MiB, so by no float64 copy, N x d temporary or N-row gather
        out = run_python("-c", _MEMORY_SCRIPT, str(n), check=True, timeout=300)
        assert int(out.stdout) <= n * 66 * 8 + (8 << 20)

    @pytest.mark.parametrize("strategy, kind, budget", STATED_PEAKS)
    def test_peak_is_within_the_stated_formula(self, strategy, kind, budget):
        # a fresh process at 30K x 64 float32 on one BLAS thread; 4 MiB is the
        # runtime's share: OpenBLAS's work buffers, which the first level-3
        # call touches, and free memory the allocator keeps
        n = 30_000
        out = run_python("-c", _PEAK_SCRIPT, strategy, kind, str(budget), str(n),
                         env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, check=True, timeout=300)
        rise, warnings = json.loads(out.stdout)
        assert rise <= STATED_PEAKS[strategy, kind, budget](n, 64, budget) + (4 << 20)
        if strategy == "dpp" and kind != "rbf":
            # the budget passes d = 64, so the points were re-based
            assert any("at step 64 is below" in w for w in warnings)


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
        # the jitter decides from step d on, so 56 and 184 picks follow the switch
        jitter = 1e-6
        for n, d, budget in ((300, 4, 60), (400, 16, 200)):
            pts = 100 * np.random.default_rng(1).standard_normal((n, d)) + 300
            result = select_dpp(pts, budget, KernelSpec(kind), jitter=jitter)
            if kind == "cosine":
                pts = pts / np.sqrt((pts * pts).sum(axis=1))[:, None]
            assert len(result.selected) == budget
            assert any(f"at step {d} " in w for w in result.warnings)
            pivots = np.exp(np.diff(result.objective_trace))
            for step, pick in enumerate(result.selected):
                residuals = dpp_exact_residuals(pts, result.selected[:step], jitter)
                top = residuals.max()
                assert pick == int(np.argmax(residuals >= top - 1e-12 * abs(top))), (d, step)
                if step >= d:  # past the switch; the worst measured is 2.3e-13
                    assert pivots[step - 1] == pytest.approx(residuals[pick], rel=1e-12), (d, step)

    def test_one_solve_per_switch(self, monkeypatch, rng):
        # the switch re-bases the points with one triangular solve; later
        # picks reuse the pre-switch update, and rbf never switches
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        pts = rng.normal(size=(30, 3))
        for kind in ("euclidean", "cosine"):
            calls.clear()
            result = select_dpp(pts, 12, KernelSpec(kind))
            assert any("at step 3 " in w for w in result.warnings)
            assert len(calls) == 1, kind
        calls.clear()
        select_dpp(pts, 12, KernelSpec("rbf", 0.5))
        assert calls == []

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
        # a 200K x 200K float64 factor is 320 GB, beside 4.8 MB of kernel rows
        pts = np.zeros((200_000, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="320004800000 bytes"):
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
        assert (within_rank.stats["jitter_step"], past_rank.stats["jitter_step"]) == (None, 3)

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
            alloc = allocate_task_diversity(counts, budget)
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
