"""Per-task budget allocation solvers.

Three strategies split an annotation budget across tasks:

* ``allocate_task_diversity`` levels the budget (water filling), so small
  tasks saturate and everyone else shares a common level;
* ``allocate_weighted`` spreads the budget in proportion to inverse task
  confidence, clamped between a base floor and the task size;
* ``allocate_active_it`` spends whole tasks in ascending-confidence order.

The first two are one problem: find C with ``clip(C * w, lo, hi)`` summing
to the budget. ``_level`` solves it exactly; water filling is its case
w = 1, lo = 0, hi = the task sizes.

Allocations stay real-valued here; rounding to integers is the sampler's
job (see ``selectors.round_robin``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidBudget, NoTasks
from .scoring import CONFIDENCE_FLOOR, TaskConfidence

# Absorbs float noise in allocations that land exactly on integers.
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class AllocationVector:
    """Per-task real-valued budget split.

    The warnings say when the requested budget had to be capped at the
    pool size or the base floor could not be honored; ``feasible`` means
    there are none. ``tasks`` is None for label-free instances, which
    align positionally with a partition.
    """

    alpha: np.ndarray
    tasks: tuple[str, ...] | None = None
    warnings: tuple[str, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.warnings


def ceil_allocation(alpha) -> np.ndarray:
    """Elementwise ceiling with a small tolerance for float noise."""
    return np.maximum(np.ceil(np.asarray(alpha, dtype=np.float64) - _CEIL_EPS), 0).astype(int)


def _check_budget(budget: int) -> None:
    if not 1 <= budget < 2**63:
        raise InvalidBudget(f"budget must be >= 1 and < 2**63, got {budget}")


def _prologue(counts, budget: int, task_conf: TaskConfidence | None = None):
    """Validated counts, the budget capped at the pool size, and the cap's warning."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise NoTasks("allocation requested over an empty task list")
    if np.any(counts < 1):
        raise ConfigError("every task must have at least one available example")
    if task_conf is not None and len(task_conf.tasks) != len(counts):
        raise ConfigError("task confidences and counts cover different numbers of tasks")
    _check_budget(budget)
    total = int(counts.sum())
    if budget > total:
        return counts, total, [f"budget {budget} exceeds pool size {total}; capped at {total}"]
    return counts, budget, []


def _vector(alpha: np.ndarray, tasks, warnings) -> AllocationVector:
    alpha.flags.writeable = False
    return AllocationVector(
        alpha=alpha, tasks=tuple(tasks) if tasks is not None else None, warnings=tuple(warnings)
    )


def _level(weights: np.ndarray, lo: np.ndarray, hi: np.ndarray, target: int) -> np.ndarray:
    """``clip(C * weights, lo, hi)`` summing to ``target``, for lo.sum() <= target.

    The spend is a continuous, piecewise-linear, non-decreasing function
    of C whose kinks are the clamp breakpoints lo/w and hi/w. A binary
    search over the sorted breakpoints finds the linear piece that
    reaches the target, and C is solved in closed form on it.
    """
    if target >= hi.sum():
        return hi.copy()
    c_lo = lo / weights
    c_hi = hi / weights
    brk = np.unique(np.concatenate(([0.0], c_lo, c_hi)))
    # first breakpoint whose spend reaches the target
    lo_i, hi_i = 0, len(brk) - 1
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if np.clip(brk[mid] * weights, lo, hi).sum() < target:
            lo_i = mid + 1
        else:
            hi_i = mid
    c = 0.0
    if lo_i:
        a, b = brk[lo_i - 1], brk[lo_i]
        ramp_weight = weights[(c_lo <= a) & (c_hi >= b)].sum()
        fixed = hi[c_hi <= a].sum() + lo[c_lo >= b].sum()
        c = a if ramp_weight == 0.0 else min(max((target - fixed) / ramp_weight, a), b)
    return np.clip(c * weights, lo, hi)


def _water_level(counts: np.ndarray, target: int) -> np.ndarray:
    return _level(np.ones(len(counts)), np.zeros(len(counts)), counts.astype(np.float64), target)


def allocate_task_diversity(counts, budget: int, tasks=None) -> AllocationVector:
    """Minimize the largest per-task allocation subject to full budget use
    and per-task availability. Water filling solves this exactly."""
    counts, target, warnings = _prologue(counts, budget)
    return _vector(_water_level(counts, target), tasks, warnings)


def allocate_weighted(counts, task_conf: TaskConfidence, budget: int, base: int = 5) -> AllocationVector:
    """Clamped inverse-confidence allocation.

    Solves for the constant ``C`` with ``alpha_t = clamp(C / conf_t,
    min(base, counts_t), counts_t)`` summing to the budget, exactly, by
    the breakpoint sweep of ``_level``; there is no iterative fallback.
    Water filling is the same solve with unit weights and zero floors:
    when even the base floors overshoot the budget, the allocation falls
    back to it, with a warning.
    """
    if not 0 <= base < 2**63:
        raise ConfigError(f"base allocation must be non-negative and < 2**63, got {base}")
    counts, target, warnings = _prologue(counts, budget, task_conf)
    lo = np.minimum(base, counts).astype(np.float64)
    if lo.sum() > target + 1e-9:
        warnings.append(
            f"base allocation infeasible (task floors sum to {lo.sum():.0f} > budget"
            f" {target}); fell back to task-diversity water filling"
        )
        return _vector(_water_level(counts, target), task_conf.tasks, warnings)
    weights = 1.0 / np.maximum(np.asarray(task_conf.values, dtype=np.float64), CONFIDENCE_FLOOR)
    alpha = _level(weights, lo, counts.astype(np.float64), target)
    return _vector(alpha, task_conf.tasks, warnings)


def allocate_active_it(counts, task_conf: TaskConfidence, budget: int) -> AllocationVector:
    """Spend whole tasks in ascending mean-confidence order (ties by label);
    the first task that no longer fits receives the leftover budget."""
    counts, target, warnings = _prologue(counts, budget, task_conf)
    order = np.lexsort((np.asarray(task_conf.tasks), np.asarray(task_conf.values, dtype=np.float64)))
    before = np.cumsum(counts[order]) - counts[order]
    alpha = np.zeros(len(counts))
    alpha[order] = np.clip(target - before, 0, counts[order])
    return _vector(alpha, task_conf.tasks, warnings)
