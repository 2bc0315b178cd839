"""Independent reference computations for the tests.

Everything here is built from scipy/numpy primitives along different
code paths than the production package (per-trace scores as scalar loops
over one trace, pairwise distances via cdist, log-dets via slogdet, the
weighted allocation via bisection on the division form, water filling,
active_it and round robin as explicit loops), so agreement with the
package is meaningful.
"""

import math

import numpy as np
from scipy.spatial.distance import cdist

from taskpick.allocation import ceil_allocation
from taskpick.selectors import _stream


def log_confidence(token_probs) -> float:
    """Sum of the log realized-token probabilities (each position's first entry)."""
    if not token_probs:
        raise ValueError("token_probs has no positions")
    total = 0.0
    for j, pos in enumerate(token_probs):
        if pos[0] <= 0.0:
            raise ValueError(f"realized-token probability {pos[0]!r} at position {j}")
        total += math.log(pos[0])
    return total


def mean_entropy(token_probs) -> float:
    """Mean per-position Shannon entropy (natural log, 0 log 0 = 0)."""
    if not token_probs:
        raise ValueError("token_probs has no positions")
    total = 0.0
    for pos in token_probs:
        total -= sum(p * math.log(p) for p in pos if p > 0.0)
    return total / len(token_probs)


def margins(token_probs) -> tuple[float, float]:
    """(mean, min) of the per-position gaps between the top two entries."""
    if not token_probs:
        raise ValueError("token_probs has no positions")
    if any(len(pos) < 2 for pos in token_probs):
        raise ValueError("a position has fewer than 2 entries")
    gaps = [pos[0] - pos[1] for pos in token_probs]
    return sum(gaps) / len(gaps), min(gaps)


def fl_kernel(points, kind, gamma=None):
    """Similarity matrix under facility-location semantics."""
    points = np.asarray(points, dtype=np.float64)
    if kind == "euclidean":
        return -cdist(points, points, "sqeuclidean")
    if kind == "rbf":
        return np.exp(-gamma * cdist(points, points, "sqeuclidean"))
    if kind == "cosine":
        return 1.0 - cdist(points, points, "cosine")
    raise ValueError(kind)


def fl_lowest_near_max_pick(kernel_matrix, chosen, rtol=1e-12):
    """The greedy facility-location pick after ``chosen``, from gains
    recomputed in full on the dense kernel: the lowest index whose gain is
    within ``rtol`` (relative) of the best gain."""
    if chosen:
        best = kernel_matrix[:, list(chosen)].max(axis=1)
        gains = np.maximum(kernel_matrix - best[:, None], 0.0).sum(axis=0)
    else:
        gains = kernel_matrix.sum(axis=0)
    gains[list(chosen)] = -np.inf
    top = gains.max()
    return int(np.flatnonzero(gains >= top - rtol * abs(top))[0])


def kcenter_lowest_near_max_pick(points, chosen, rtol=1e-12):
    """The greedy k-center pick after ``chosen``, from dense cdist
    distances: the lowest index within ``rtol`` (relative) of the largest
    distance to the nearest chosen point. With nothing chosen it is the
    lowest index within ``rtol`` of the smallest total squared distance
    (the medoid)."""
    points = np.asarray(points, dtype=np.float64)
    if not chosen:
        totals = cdist(points, points, "sqeuclidean").sum(axis=1)
        low = totals.min()
        return int(np.flatnonzero(totals <= low + rtol * abs(low))[0])
    nearest = cdist(points, points[list(chosen)]).min(axis=1)
    nearest[list(chosen)] = -np.inf
    top = nearest.max()
    return int(np.flatnonzero(nearest >= top - rtol * abs(top))[0])


def kcenter_sq_radii(points, selected):
    """The squared covering radius after each pick of ``selected``, from
    dense cdist squared distances, and the kernel's tolerance for it,
    (d + 2) eps (|x|^2 + |y|^2) with |x|^2 the largest squared norm of a
    point not yet picked and |y|^2 that of a pick so far."""
    points = np.asarray(points, dtype=np.float64)
    sq = cdist(points, points[list(selected)], "sqeuclidean")
    norms = (points * points).sum(axis=1)
    nearest = np.full(len(points), np.inf)
    picked = np.zeros(len(points), dtype=bool)
    radii, bounds = [], []
    for step, pick in enumerate(selected):
        np.minimum(nearest, sq[:, step], out=nearest)
        picked[pick] = True
        radii.append(float(nearest[~picked].max(initial=0.0)))
        top = float(norms[~picked].max(initial=0.0)) + float(norms[list(selected[: step + 1])].max())
        bounds.append((points.shape[1] + 2) * np.finfo(float).eps * top)
    return np.array(radii), np.array(bounds)


def dpp_kernel(points, kind, gamma=None):
    """Similarity matrix under DPP semantics (euclidean = inner product)."""
    points = np.asarray(points, dtype=np.float64)
    if kind == "euclidean":
        return points @ points.T
    return fl_kernel(points, kind, gamma)


def dpp_exact_residuals(points, selected, jitter):
    """Marginal log-det gains of the linear DPP kernel X X^T + jitter*I
    after ``selected``, computed densely in feature space as
    jitter * (1 + ||L^-1 x_i||^2) with L = chol(jitter*I + X_S^T X_S).
    Selected points get -inf."""
    points = np.asarray(points, dtype=np.float64)
    chosen = points[list(selected)]
    lower = np.linalg.cholesky(jitter * np.eye(points.shape[1]) + chosen.T @ chosen)
    whitened = np.linalg.solve(lower, points.T)
    residuals = jitter * (1.0 + (whitened * whitened).sum(axis=0))
    residuals[list(selected)] = -np.inf
    return residuals


def fl_objective(kernel_matrix):
    """Coverage value of a subset: sum over points of best similarity."""

    def value(subset):
        return float(kernel_matrix[:, list(subset)].max(axis=1).sum())

    return value


def dpp_objective(kernel_matrix, jitter):
    """Jittered log-det of the subset's kernel block."""

    def value(subset):
        subset = list(subset)
        block = kernel_matrix[np.ix_(subset, subset)] + jitter * np.eye(len(subset))
        sign, logdet = np.linalg.slogdet(block)
        return float(logdet) if sign > 0 else -np.inf

    return value


def bisect_weighted_alpha(counts, conf, budget, base=5, iters=200):
    """Clamped inverse-confidence allocation solved by pure bisection.

    Uses the division form alpha = clip(c / conf, ...) rather than the
    package's multiply-by-inverse form.
    """
    counts = np.asarray(counts, dtype=np.float64)
    conf = np.asarray(conf, dtype=np.float64)
    lo = np.minimum(base, counts)
    hi = counts

    def spend(c):
        return np.clip(c / conf, lo, hi).sum()

    a, b = 0.0, float(conf.max() * counts.max()) + 1.0
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if spend(mid) < budget:
            a = mid
        else:
            b = mid
    return np.clip(b / conf, lo, hi)


def loop_water_fill(counts, target):
    """Water filling as a loop over the tasks in ascending size."""
    # Saturate tasks in ascending size until the remaining budget spread
    # evenly over the remaining tasks no longer covers the next size;
    # that spread is the water level.
    alpha = np.zeros(len(counts))
    order = np.argsort(counts, kind="stable")
    left = int(target)
    for rank, idx in enumerate(order):
        rest = len(counts) - rank
        if counts[idx] * rest <= left:
            alpha[idx] = counts[idx]
            left -= int(counts[idx])
        else:
            remaining = order[rank:]
            alpha[remaining] = np.minimum(counts[remaining], left / rest)
            break
    return alpha


def loop_active_it(counts, conf, labels, target):
    """Whole tasks in ascending (confidence, label) order, one at a time,
    until the target is spent."""
    order = np.lexsort((np.asarray(labels), np.asarray(conf, dtype=np.float64)))
    alpha = np.zeros(len(counts))
    left = int(target)
    for idx in order:
        take = min(int(counts[idx]), left)
        alpha[idx] = take
        left -= take
        if left == 0:
            break
    return alpha


def loop_round_robin(partition, alpha, budget, seed):
    """Round robin run pass by pass: the reference for the closed form.

    ``alpha`` is aligned with ``partition.tasks``. Each pass visits the
    tasks in ascending (ceil(alpha), label) order and draws once from
    every task still below its cap and its size.
    """
    caps = ceil_allocation(alpha)
    sizes = partition.counts
    n_tasks = len(partition.tasks)
    order = sorted(range(n_tasks), key=lambda t: (caps[t], partition.tasks[t]))
    queues = {}
    taken = [0] * n_tasks
    selected = []
    while True:
        progressed = False
        for t in order:
            if taken[t] >= caps[t] or taken[t] >= sizes[t]:
                continue
            if t not in queues:
                members = partition.members_of(partition.tasks[t])
                queues[t] = _stream(seed, partition.tasks[t]).permutation(members)
            selected.append(int(queues[t][taken[t]]))
            taken[t] += 1
            progressed = True
            if len(selected) == budget:
                return selected
        if not progressed:
            return selected
