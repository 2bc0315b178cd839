"""Exhaustive reference solvers for desk-scale instances.

These exist so the test suite can check the production algorithms
against enumerated ground truth. They share no code with the production
solvers, enumerate instead of optimizing, and are deliberately limited
to instance sizes where enumeration finishes in seconds. Never use them
on real pools.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from taskpick.errors import TaskpickError


class LimitExceeded(TaskpickError):
    """An exhaustive oracle was asked to enumerate past its size limits."""


@dataclass(frozen=True)
class OracleBudgetLimits:
    max_tasks: int = 6
    max_count: int = 10
    max_budget: int = 30
    max_points: int = 12


def oracle_minmax_allocation(counts, budget: int, limits: OracleBudgetLimits = OracleBudgetLimits()):
    """Every integer allocation with the minimal possible maximum entry.

    Enumerates all integer vectors with sum == budget and alpha_t <=
    counts_t, and returns the list of those whose max entry is minimal.
    """
    counts = [int(c) for c in counts]
    if len(counts) > limits.max_tasks:
        raise LimitExceeded(f"{len(counts)} tasks > limit {limits.max_tasks}")
    if any(c > limits.max_count for c in counts):
        raise LimitExceeded(f"count above limit {limits.max_count}")
    if budget > limits.max_budget:
        raise LimitExceeded(f"budget {budget} > limit {limits.max_budget}")
    if budget > sum(counts):
        raise ValueError(f"budget {budget} exceeds total availability {sum(counts)}")

    suffix = [0] * (len(counts) + 1)
    for i in range(len(counts) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + counts[i]

    best_value = budget + 1
    best: list[tuple[int, ...]] = []

    def walk(i, left, prefix, cur_max):
        nonlocal best_value, best
        if i == len(counts):
            if left == 0:
                if cur_max < best_value:
                    best_value = cur_max
                    best = [prefix]
                elif cur_max == best_value:
                    best.append(prefix)
            return
        lowest = max(0, left - suffix[i + 1])
        highest = min(counts[i], left)
        for v in range(lowest, highest + 1):
            walk(i + 1, left - v, prefix + (v,), max(cur_max, v))

    walk(0, budget, (), 0)
    return best


def oracle_greedy_step(objective, current, candidates, rel_tol: float = 1e-9,
                       limits: OracleBudgetLimits = OracleBudgetLimits()):
    """All candidates maximizing objective(current + [c]), ties within rel_tol."""
    candidates = list(candidates)
    if len(candidates) > limits.max_points:
        raise LimitExceeded(f"{len(candidates)} candidates > limit {limits.max_points}")
    current = tuple(current)
    values = [objective(current + (c,)) for c in candidates]
    top = max(values)
    tol = rel_tol * max(1.0, abs(top))
    return [c for c, v in zip(candidates, values) if v >= top - tol]


def oracle_kcenter_radius(points, budget: int,
                          limits: OracleBudgetLimits = OracleBudgetLimits()) -> float:
    """Optimal covering radius by brute force over all budget-subsets."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n > limits.max_points:
        raise LimitExceeded(f"{n} points > limit {limits.max_points}")
    dist = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            dist[i, j] = float(np.sqrt(((pts[i] - pts[j]) ** 2).sum()))
    best = np.inf
    for subset in combinations(range(n), min(budget, n)):
        radius = dist[:, list(subset)].min(axis=1).max()
        best = min(best, float(radius))
    return best
