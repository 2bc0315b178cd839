"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its elapsed time; run with ``pytest -s
tests/test_acceptance.py`` to see them. Every tolerance is pinned here,
not configurable. The desk-scale throughput test builds a 90K-record
synthetic pool, so this module takes a few minutes; everything else
finishes in seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import make_pool
from oracles import oracle_greedy_step, oracle_kcenter_radius, oracle_minmax_allocation
from reference import (
    bisect_weighted_alpha,
    dpp_kernel,
    dpp_objective,
    fl_kernel,
    fl_objective,
)
from taskpick.allocation import (
    AllocationVector,
    allocate_task_diversity,
    allocate_weighted,
    ceil_allocation,
)
from taskpick.pool import load_pool, read_embeddings, write_embeddings
from taskpick.scoring import TaskConfidence, confidence, margins, mean_entropy, task_mean_confidence
from taskpick.selectors import (
    KernelSpec,
    StrategyConfig,
    manifest_payload,
    round_robin,
    run_strategy,
    select_dpp,
    select_facility_location,
    select_k_center,
)


def _report(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance] criterion {number} PASS ({elapsed:.1f}s of {limit:.0f}s): {label}")
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s runtime budget"


def conf_of(values):
    values = np.asarray(values, dtype=np.float64)
    return TaskConfidence(tasks=tuple(f"t{i}" for i in range(len(values))), values=values)


def test_criterion_1_minmax_allocation_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    instances = 1000
    for _ in range(instances):
        n_tasks = int(rng.integers(1, 7))
        counts = rng.integers(1, 11, size=n_tasks)
        budget = int(rng.integers(1, min(30, counts.sum()) + 1))
        solver_max = int(ceil_allocation(allocate_task_diversity(counts, budget).alpha).max())
        optimal = oracle_minmax_allocation([int(c) for c in counts], budget)
        assert solver_max == max(optimal[0]), (list(counts), budget)
    _report(1, f"water filling matches exhaustive min-max on {instances} instances", started, 30)


def test_criterion_2_weighted_allocation_correctness():
    started = time.perf_counter()
    # pinned hand-derived instance, exact equality
    hand = allocate_weighted([100, 100], conf_of([0.2, 0.4]), 30, base=5)
    assert list(hand.alpha) == [20.0, 10.0]

    rng = np.random.default_rng(202)
    instances = 1000
    for _ in range(instances):
        n_tasks = int(rng.integers(1, 21))
        counts = rng.integers(1, 201, size=n_tasks)
        conf = rng.uniform(0.005, 1.0, size=n_tasks)
        floor = np.minimum(5, counts)
        budget = int(rng.integers(max(1, floor.sum()), counts.sum() + 1))
        alpha = allocate_weighted(counts, conf_of(conf), budget, base=5).alpha
        assert abs(alpha.sum() - budget) <= 1e-6
        # clamp bounds hold exactly (clip output, no epsilon)
        assert np.all(alpha >= floor) and np.all(alpha <= counts)
        ref = bisect_weighted_alpha(counts, conf, budget, base=5)
        assert abs(ref.sum() - budget) <= 1e-6
        assert np.allclose(alpha, ref, atol=1e-6)
    _report(2, f"sweep agrees with independent bisection on {instances} instances", started, 10)


def test_criterion_3_round_robin_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    instances = 1000
    for trial in range(instances):
        n_tasks = int(rng.integers(1, 9))
        sizes = {f"t{i}": int(rng.integers(1, 16)) for i in range(n_tasks)}
        pool = make_pool(sizes)
        counts = np.array(pool.partition.counts)
        alpha = rng.uniform(0.0, counts + 2.0)
        budget = int(rng.integers(1, counts.sum() + 4))
        seed = int(rng.integers(0, 2**32))
        allocation = AllocationVector(alpha=alpha, tasks=pool.partition.tasks)
        result = round_robin(allocation, pool.partition, budget, seed)

        caps = ceil_allocation(alpha)
        taken = np.array([result.per_task[t] for t in pool.partition.tasks])
        available = int(np.minimum(caps, counts).sum())
        assert len(result.selected) == min(budget, available)
        assert len(set(result.selected)) == len(result.selected)
        assert np.all(taken <= caps) and np.all(taken <= counts)
        open_tasks = (taken < caps) & (taken < counts)
        if open_tasks.sum() >= 2:
            assert taken[open_tasks].max() - taken[open_tasks].min() <= 1

        if trial % 10 == 0:  # byte-identical manifests under a fixed seed
            rerun = round_robin(allocation, pool.partition, budget, seed)
            blob1 = json.dumps(manifest_payload(result, pool), sort_keys=True)
            blob2 = json.dumps(manifest_payload(rerun, pool), sort_keys=True)
            assert blob1 == blob2
    _report(3, f"cardinality, caps, fairness, reproducibility on {instances} instances", started, 30)


def test_criterion_4_greedy_step_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    kernel_grid = (
        ("euclidean", None),
        ("cosine", None),
        ("rbf", 0.1),
        ("rbf", 0.002),
    )
    jitter = 1e-6
    instances = 0
    for kind, gamma in kernel_grid:
        for _ in range(60):
            instances += 1
            n = int(rng.integers(5, 13))
            d = int(rng.integers(2, 7))
            budget = int(rng.integers(2, min(4, n) + 1))
            pts = rng.standard_normal((n, d))
            spec = KernelSpec(kind, gamma)

            fl_result = select_facility_location(pts, budget, spec)
            fl_value = fl_objective(fl_kernel(pts, kind, gamma))
            chosen = []
            for pick in fl_result.selected:
                ties = oracle_greedy_step(
                    fl_value, chosen, [c for c in range(n) if c not in chosen]
                )
                assert pick in ties, (kind, gamma, chosen, pick, ties)
                chosen.append(pick)

            dpp_result = select_dpp(pts, budget, spec, jitter=jitter)
            dpp_value = dpp_objective(dpp_kernel(pts, kind, gamma), jitter)
            chosen = []
            for pick in dpp_result.selected:
                ties = oracle_greedy_step(
                    dpp_value, chosen, [c for c in range(n) if c not in chosen], rel_tol=1e-8
                )
                assert pick in ties, (kind, gamma, chosen, pick, ties)
                chosen.append(pick)
    _report(
        4,
        f"facility location and DPP match per-step argmax on {instances} instances x 2 selectors",
        started,
        60,
    )


def test_criterion_5_kcenter_approximation_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    instances = 200
    for _ in range(instances):
        n = int(rng.integers(3, 11))
        d = int(rng.integers(1, 5))
        budget = int(rng.integers(1, 4))
        pts = rng.standard_normal((n, d))
        greedy_radius = select_k_center(pts, budget).objective_trace[-1]
        optimal = oracle_kcenter_radius(pts, budget)
        assert greedy_radius <= 2.0 * optimal + 1e-9, (n, budget)
    _report(5, f"greedy radius within 2x optimal on {instances} instances", started, 60)


def test_criterion_6_scoring_numerics():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(300):
        length = int(rng.integers(1, 21))
        probs = tuple((float(p),) for p in rng.uniform(0.01, 1.0, size=length))
        direct = float(np.prod([p[0] for p in probs]))
        assert confidence(probs) == pytest.approx(direct, rel=1e-9)

    # unit examples reproduce exactly
    assert mean_entropy(((1.0,), (1.0,))) == 0.0
    assert mean_entropy(((0.5, 0.5),)) == pytest.approx(math.log(2), rel=1e-12)
    assert mean_entropy(((0.5, 0.5), (1.0,))) == pytest.approx(math.log(2) / 2, rel=1e-12)
    assert margins(((0.9, 0.1), (0.9, 0.1))) == pytest.approx((0.8, 0.8), rel=1e-12)
    mean_m, min_m = margins(((0.6, 0.4), (0.9, 0.1)))
    assert mean_m == pytest.approx(0.5, rel=1e-12) and min_m == pytest.approx(0.2, rel=1e-12)
    assert margins(((0.5, 0.5),)) == (0.0, 0.0)

    # scale invariance of the weighted allocation under conf -> 7.3 * conf
    counts = [40, 25, 60, 9, 140]
    conf = np.array([0.31, 0.07, 0.55, 0.9, 0.18])
    base_alpha = allocate_weighted(counts, conf_of(conf), 110).alpha
    scaled_alpha = allocate_weighted(counts, conf_of(conf * 7.3), 110).alpha
    assert np.allclose(base_alpha, scaled_alpha, atol=1e-9)
    _report(6, "log-space confidence, unit examples, scale invariance", started, 5)


@pytest.fixture(scope="module")
def desk_scale_inputs(tmp_path_factory):
    """Synthetic 90K x 64 pool over 1,691 tasks, confidences plus embeddings.

    Task sizes are heavy-tailed and each task forms its own embedding
    mode (center plus per-task radius), so the embedding cloud has more
    density modes than the selection budget, as task-partitioned corpora
    do.
    """
    rng = np.random.default_rng(707)
    n, dim, n_tasks = 90_000, 64, 1_691
    root = tmp_path_factory.mktemp("desk")
    labels = [f"task{i:04d}" for i in range(n_tasks)]
    weights = 1.0 / np.arange(1, n_tasks + 1) ** 0.9
    weights /= weights.sum()
    assign = np.concatenate(
        [np.arange(n_tasks), rng.choice(n_tasks, size=n - n_tasks, p=weights)]
    )
    conf = rng.uniform(0.01, 0.99, size=n)
    lines = [
        json.dumps({"id": f"p{i:06d}", "task": labels[assign[i]], "confidence": float(conf[i])})
        for i in range(n)
    ]
    pool_path = root / "pool.jsonl"
    pool_path.write_text("\n".join(lines) + "\n")

    centers = 8.0 * rng.standard_normal((n_tasks, dim))
    radii = np.exp(rng.normal(0.0, 0.5, size=n_tasks))
    emb = centers[assign] + radii[assign][:, None] * rng.standard_normal((n, dim))
    emb_path = root / "embeddings.bin"
    write_embeddings(emb_path, emb.astype(np.float32))
    return str(pool_path), str(emb_path)


def test_criterion_7_desk_scale_throughput(desk_scale_inputs):
    pool_path, emb_path = desk_scale_inputs
    budget = 9_000

    started = time.perf_counter()
    pool = load_pool(pool_path)
    task_conf = task_mean_confidence(pool)
    allocation = allocate_weighted(pool.partition.counts, task_conf, budget, base=5)
    result = round_robin(allocation, pool.partition, budget, seed=17)
    pipeline_s = time.perf_counter() - started
    assert len(result.selected) == budget
    assert pipeline_s < 10.0, f"weighted pipeline took {pipeline_s:.1f}s"

    fl_started = time.perf_counter()
    embeddings = read_embeddings(emb_path).astype(np.float64)
    fl = select_facility_location(embeddings, 1_000, KernelSpec("rbf", 0.002))
    fl_s = time.perf_counter() - fl_started
    assert len(fl.selected) == 1_000
    trace = fl.objective_trace
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
    assert fl_s < 600.0, f"facility location took {fl_s:.0f}s"

    print(
        f"\n[acceptance] criterion 7 PASS: weighted pipeline {pipeline_s:.2f}s of 10s,"
        f" facility location {fl_s:.0f}s of 600s on N=90000, d=64, T=1691"
    )


def test_criterion_8_low_confidence_tasks_dominate():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    sizes = {f"cat{i}": 100 for i in range(8)}
    hard = {"cat2", "cat5"}
    confs = []
    for task, size in sizes.items():
        low, high = (0.02, 0.10) if task in hard else (0.55, 0.75)
        confs.extend(float(c) for c in rng.uniform(low, high, size=size))
    pool = make_pool(sizes, confidences=confs)
    budget = 100

    uniform = run_strategy(pool, StrategyConfig("task_diversity", budget=budget, seed=1))
    weighted = run_strategy(pool, StrategyConfig("weighted_task_diversity", budget=budget, seed=1))

    for task in hard:
        assert weighted.per_task[task] > uniform.per_task[task], task
    for task, size in sizes.items():
        assert weighted.per_task[task] >= min(5, size)
    assert sum(weighted.per_task.values()) == budget
    _report(8, "low-confidence tasks receive strictly more under weighting", started, 30)
