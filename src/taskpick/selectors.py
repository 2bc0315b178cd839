"""Subset materialization: round-robin sampling over an allocation plus
random, uncertainty, k-center, facility-location, and deterministic DPP
selectors, and the strategy dispatcher tying them together.

Determinism contract: identical (pool, config, seed) always reproduces
the identical selection. Randomized selectors draw from counter-based
generators keyed by (seed, task label), so the within-task draws do not
depend on how many other tasks exist or in which order they are visited.
All argmax reductions break ties toward the lowest index.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .allocation import (
    AllocationVector,
    _check_budget,
    allocate_active_it,
    allocate_task_diversity,
    allocate_weighted,
    ceil_allocation,
)
from .errors import ConfigError, InvalidKernel, MissingScore, ValidationError
from .pool import Pool, TaskPartition
from .scoring import Scores, score_pool, task_mean_confidence

# Largest kernel tile: 2^16 floats (256 x 256, 512 KB). _ColumnKernel writes
# every tile into two scratch arrays of this size, the Gram block and the
# |a|^2 + |b|^2 block, which fit in a 2 MB L2 cache together; no tile
# allocates, and a tile is valid only until the next tile is made.
_TILE_FLOATS = 1 << 16
# Gains within this relative distance of the best count as tied; a greedy
# pick is the lowest index among them, so float noise cannot decide it.
_TIE_RTOL = 1e-12
# Facility location's front of exactly-tracked candidates is halved when it
# grows past _FRONT_CAP, and stale candidates join it in batches growing to
# _FRONT_CAP, so no batch more than doubles a full front.
_FRONT_CAP = 256
# DPP pivots below this multiple of the jitter are jitter, not kernel.
_JITTER_MARGIN = 1e3

UNCERTAINTY_CRITERIA = ("least_confidence", "mean_entropy", "mean_margin", "min_margin")

STRATEGIES = (
    "random",
    "least_confidence",
    "mean_entropy",
    "mean_margin",
    "min_margin",
    "task_diversity",
    "weighted_task_diversity",
    "active_it",
    "k_center",
    "facility_location",
    "dpp",
)


@dataclass(frozen=True)
class KernelSpec:
    """Similarity choice for the geometric selectors.

    ``euclidean`` means raw geometry: true distance for k-center,
    negative squared distance for facility location, and the plain
    inner-product Gram matrix for DPP. ``rbf`` is exp(-gamma * ||a-b||^2),
    with gamma 0.1 unless given, and ``cosine`` is the (possibly negative)
    cosine similarity.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "rbf", "cosine"):
            raise InvalidKernel(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and self.gamma is None:
            object.__setattr__(self, "gamma", 0.1)
        if self.gamma is not None and not math.isfinite(self.gamma):
            raise InvalidKernel(f"gamma must be finite, got {self.gamma!r}")
        if self.kind == "rbf" and not self.gamma > 0:
            raise InvalidKernel(f"rbf kernel needs gamma > 0, got {self.gamma!r}")


@dataclass
class SelectionResult:
    """Outcome of one selection run."""

    selected: list[int]
    strategy: str
    params: dict
    seed: int | None = None
    per_task: dict[str, int] | None = None
    objective_trace: list[float] | None = None
    warnings: list[str] = field(default_factory=list)
    allocation: list[dict] | None = None
    stats: dict | None = None


def _check_seed(seed: int) -> None:
    if not (0 <= seed < 2**64):
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")


def _label_key(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little")


def _stream(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, _label_key(label)))))


def _cap_note(budget: int, available: int, what: str) -> list[str]:
    if budget > available:
        return [f"budget {budget} exceeds {what} ({available}); selecting {available}"]
    return []


def _tally(partition: TaskPartition, selected) -> dict[str, int]:
    codes = partition.codes[np.asarray(selected, dtype=np.intp)]
    return dict(zip(partition.tasks, np.bincount(codes, minlength=len(partition.tasks)).tolist()))


def round_robin(allocation: AllocationVector, partition: TaskPartition, budget: int, seed: int) -> SelectionResult:
    """Materialize an allocation by cycling over tasks, one draw per pass.

    The allocation holds one entry per task, in the partition's task
    order. Tasks are visited in ascending ceil(alpha) order (ties by
    label, which is partition order); a task is eligible while it is
    below both its rounded allocation and its pool size. Draws are
    uniform without replacement within a task. Stops when the budget is
    met or no task is eligible.

    In closed form: task t draws in passes r < min(ceil(alpha_t), size_t),
    so the draws are the pairs (r, visit rank of t) in lexicographic
    order, truncated at the budget.
    """
    _check_budget(budget)
    _check_seed(seed)

    n_tasks = len(partition.tasks)
    if len(allocation.alpha) != n_tasks:
        raise ConfigError(f"allocation has {len(allocation.alpha)} entries for {n_tasks} tasks")

    caps = ceil_allocation(allocation.alpha)
    visit_rank = np.argsort(np.argsort(caps, kind="stable"))  # labels are already sorted
    draws = np.minimum(caps, partition.counts)
    task = np.repeat(np.arange(n_tasks), draws)
    rounds = np.arange(task.size) - np.repeat(np.cumsum(draws) - draws, draws)
    order = np.lexsort((visit_rank[task], rounds))[:budget]
    task, rounds = task[order].tolist(), rounds[order].tolist()
    queues = {t: _stream(seed, partition.tasks[t]).permutation(partition.members[t]) for t in set(task)}
    selected = [int(queues[t][r]) for t, r in zip(task, rounds)]

    warnings = list(allocation.warnings)
    if len(selected) < budget:
        warnings.append(f"allocation exhausted after {len(selected)} of {budget} requested examples")
    return SelectionResult(
        selected=selected,
        strategy="round_robin",
        params={"budget": budget},
        seed=seed,
        per_task=_tally(partition, selected),
        warnings=warnings,
    )


def select_random(pool: Pool, budget: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement, deterministic under the seed."""
    _check_budget(budget)
    _check_seed(seed)
    n = len(pool)
    k = min(budget, n)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    selected = [int(i) for i in rng.choice(n, size=k, replace=False)]
    return SelectionResult(
        selected=selected,
        strategy="random",
        params={"budget": budget},
        seed=seed,
        per_task=_tally(pool.partition, selected),
        warnings=_cap_note(budget, n, "pool size"),
    )


def select_uncertainty(pool: Pool, scores: Scores, criterion: str, budget: int) -> SelectionResult:
    """Pick the examples the model is least sure about.

    Ranking is ascending log-confidence, descending mean entropy, or
    ascending mean/min margin; ties go to the lower pool index.
    """
    if criterion not in UNCERTAINTY_CRITERIA:
        raise ConfigError(f"unknown uncertainty criterion {criterion!r}")
    _check_budget(budget)
    n = len(pool)
    if len(scores.confidence) != n:
        raise ConfigError(f"got {len(scores.confidence)} score entries for {n} records")
    field = "log_confidence" if criterion == "least_confidence" else criterion
    keys = -scores.mean_entropy if criterion == "mean_entropy" else getattr(scores, field)
    if (missing := np.flatnonzero(np.isnan(keys))).size:
        raise MissingScore(f"record {pool.ids()[missing[0]]!r} has no {criterion} score")
    selected = np.argsort(keys, kind="stable")[: min(budget, n)].tolist()
    return SelectionResult(
        selected=selected,
        strategy=criterion,
        params={"budget": budget},
        per_task=_tally(pool.partition, selected),
        warnings=_cap_note(budget, n, "pool size"),
    )


class _ColumnKernel:
    """Evaluates kernel blocks on demand, one tile of at most _TILE_FLOATS
    entries at a time.

    The full N x N kernel never exists in memory, which is what makes the
    greedy selectors usable on pools of ~100K examples. This is the one
    place that widens the points to float64 and forms squared norms,
    squared distances and the cosine normalisation. ``entries`` counts the
    kernel values computed so far. A tile lives in the kernel's scratch
    arrays, while ``column()`` returns an array of its own. The -2 of the
    squared distance is folded into the right operand, once per column
    block; -2 is a power of two, so that is exact barring subnormal products.
    """

    def __init__(self, embeddings, spec: KernelSpec):
        embeddings = np.asarray(embeddings, dtype=np.float64)
        self.spec = spec
        self.n = embeddings.shape[0]
        self.points = embeddings
        with np.errstate(over="ignore"):
            self.sq_norms = (embeddings * embeddings).sum(axis=1)
        # bounds every squared distance, column sum and k-center total
        if not math.isfinite(4.0 * self.n * self.sq_norms.max(initial=0.0)):
            raise ValidationError(
                "embeddings are too large: 4 x N x their largest squared norm"
                " overflows float64; rescale them"
            )
        if spec.kind == "cosine":
            self.points = embeddings / np.maximum(np.sqrt(self.sq_norms), 1e-30)[:, None]
            self.sq_norms = (self.points * self.points).sum(axis=1)
        self.entries = 0
        self._gram, self._sums = np.empty((2, _TILE_FLOATS))
        # rows [|x|^2, 1, |x|^2]: [|a|^2, 1] times [1, |b|^2]^T rounds once,
        # so it is |a|^2 + |b|^2 to the bit, and a matrix product forms a
        # block of those sums several times faster than a broadcast add
        self._norms = np.column_stack([self.sq_norms, np.ones(self.n), self.sq_norms])

    def right(self, cols) -> np.ndarray:
        """points[cols]^T, times -2 unless cosine: the right operand of K[:, cols]."""
        return (self.points[cols] * (1.0 if self.spec.kind == "cosine" else -2.0)).T

    def _similarity(self, gram: np.ndarray, norm_sums) -> np.ndarray:
        """Kernel values, in place, from the Gram block with right(cols);
        ``norm_sums()`` gives |a|^2 + |b|^2, called for the distance kernels."""
        self.entries += gram.size
        if self.spec.kind == "cosine":
            return gram
        # squared distance (|a|^2 + |b|^2) - 2 a.b, clamped at 0; the
        # euclidean similarity is its negation, rbf exp(-gamma * it)
        gram += norm_sums()
        np.maximum(gram, 0.0, out=gram)
        with np.errstate(over="ignore"):  # a huge gamma gives -inf, and exp(-inf) = 0 is exact
            gram *= -1.0 if self.spec.kind == "euclidean" else -self.spec.gamma
        if self.spec.kind == "rbf":
            np.exp(gram, out=gram)
        return gram

    def cross(self, rows, cols, right: np.ndarray) -> np.ndarray:
        """Similarity tile K[rows, cols] in the scratch arrays; ``right`` is right(cols)."""
        left = self.points[rows]
        size = left.shape[0] * right.shape[1]
        gram = np.matmul(left, right, out=self._gram[:size].reshape(left.shape[0], -1))
        sums = self._sums[:size].reshape(gram.shape)
        return self._similarity(
            gram, lambda: np.matmul(self._norms[rows, :2], self._norms[cols, 1:].T, out=sums)
        )

    def column(self, j: int) -> np.ndarray:
        """Similarity column K[:, j], as one matrix-vector product."""
        return self._similarity(self.points @ self.right(j), lambda: self.sq_norms + self.sq_norms[j])

    def tiles(self, rows, cols):
        """Yield (row span, column span, tile) covering K[rows, cols].

        ``rows`` and ``cols`` are index arrays, or None for every point;
        the spans are slices into them. Each tile is at most _TILE_FLOATS.
        """
        n_rows, n_cols = (self.n if idx is None else len(idx) for idx in (rows, cols))
        width = max(1, min(n_cols, _TILE_FLOATS))
        height = max(1, _TILE_FLOATS // width)
        for c in range(0, n_cols, width):
            cs = slice(c, c + width)
            col_idx = cs if cols is None else cols[cs]
            right = self.right(col_idx)
            for r in range(0, n_rows, height):
                rs = slice(r, r + height)
                yield rs, cs, self.cross(rs if rows is None else rows[rs], col_idx, right)


def select_k_center(embeddings, budget: int, kernel: KernelSpec | None = None) -> SelectionResult:
    """Greedy farthest-first traversal under Euclidean distance.

    The first center is the point with minimum total squared distance to
    the rest (the dataset medoid); each later center is the point
    farthest from its nearest chosen center. Both picks are the lowest
    index within _TIE_RTOL (relative) of the best, as in the other greedy
    selectors. The trace records the covering radius after each pick.
    A pick's distance becomes -inf, so it can never be the farthest again.
    """
    if kernel is not None and kernel.kind != "euclidean":
        raise InvalidKernel("k-center supports the euclidean kernel only")
    _check_budget(budget)
    kern = _ColumnKernel(embeddings, KernelSpec("euclidean"))
    points, sq_norms, n = kern.points, kern.sq_norms, kern.n
    k = min(budget, n)

    totals = n * sq_norms + sq_norms.sum() - 2.0 * (points @ points.sum(axis=0))
    first, _ = _lowest_near_max(-totals)

    def dist_to(j: int) -> np.ndarray:
        return np.sqrt(-kern.column(j))

    selected = [first]
    min_dist = dist_to(first)
    min_dist[first] = -np.inf
    trace = [max(float(min_dist.max()), 0.0)]
    while len(selected) < k:
        nxt, _ = _lowest_near_max(min_dist)
        selected.append(nxt)
        np.minimum(min_dist, dist_to(nxt), out=min_dist)
        min_dist[nxt] = -np.inf
        trace.append(max(float(min_dist.max()), 0.0))

    return SelectionResult(
        selected=selected,
        strategy="k_center",
        params={"budget": budget, "kernel": "euclidean"},
        objective_trace=trace,
        warnings=_cap_note(budget, n, "number of points"),
    )


def _kernel_params(kernel: KernelSpec) -> dict:
    """A kernel as the manifest records it: its kind, and gamma for rbf only."""
    return {"kernel": kernel.kind, **({"gamma": kernel.gamma} if kernel.kind == "rbf" else {})}


def _lowest_near_max(values: np.ndarray) -> tuple[int, bool]:
    """Lowest index whose value is within _TIE_RTOL of the max, and whether
    any other value is too."""
    top = values.max()
    near = values >= top - _TIE_RTOL * abs(top)
    pos = int(np.argmax(near))
    return pos, bool(near[pos + 1 :].any())


def select_facility_location(embeddings, budget: int, kernel: KernelSpec) -> SelectionResult:
    """Lazy greedy maximization of sum-of-best-similarities coverage.

    Each point is served by its most similar chosen center; the greedy
    step adds the candidate with the largest coverage gain. Per-point
    best similarities start at -inf so negative (cosine) similarities
    rank correctly (the definitional first pick, the max column sum,
    realizes that initialization). Gains within _TIE_RTOL (relative) of
    the best are ties, and every pick, the first included, is the lowest
    index among them.

    The kernel is only ever built in tiles of at most _TILE_FLOATS
    entries, so memory is O(N*d) plus two tile buffers. The column sums come
    from the tiles K[A, B] with B >= A, each computed once and summed
    along both axes, since K is symmetric.

    Laziness is Minoux's, and exact: ``gain`` holds one value per
    candidate, and the mask ``front`` marks the candidates whose value is
    exact. Front gains stay exact by subtracting the coverage each new
    center steals, which needs only the kernel between the captured points
    and the front, so near ties (thousands of candidates within rounding
    of the best gain) do not force full column recomputes at every step.
    Other values are upper bounds: the column-sum seed, or the exact gain
    at demotion, which submodularity keeps valid. Before each pick, stale
    candidates whose bound reaches the front's tie window get their exact
    gain and join the front, in batches growing to _FRONT_CAP; past
    _FRONT_CAP members the cold half goes stale. A pick's value becomes
    NaN, which fails every comparison, so no pick re-enters; -inf would
    not do, as an empty front puts the window's floor at -inf too.

    ``stats`` counts the work: kernel entries computed, exact gain
    evaluations, candidates demoted from the front, and near-tie picks.
    """
    _check_budget(budget)
    cols = _ColumnKernel(embeddings, kernel)
    n = cols.n
    k = min(budget, n)

    side = math.isqrt(_TILE_FLOATS)
    col_sums = np.zeros(n)
    low = np.inf  # smallest kernel entry
    for b in range(0, n, side):
        right = cols.right(slice(b, b + side))
        for a in range(0, b + 1, side):
            tile = cols.cross(slice(a, a + side), slice(b, b + side), right)
            col_sums[b : b + side] += tile.sum(axis=0)
            if b != a:
                col_sums[a : a + side] += tile.sum(axis=1)
            low = min(low, float(tile.min()))

    first, tied = _lowest_near_max(col_sums)
    best = cols.column(first)
    selected = [first]
    trace = [float(best.sum())]
    stats = {"gain_evaluations": 0, "front_demotions": 0, "near_tie_picks": int(tied)}

    def covered(rows, idx: np.ndarray, floor: np.ndarray, cap=None) -> np.ndarray:
        """Sum over ``rows`` (None for all) of min(max(K(i, c) - floor_i, 0), cap_i)
        for each c in ``idx``; ``floor`` and ``cap`` align with ``rows``."""
        sums = np.zeros(idx.size)
        for rs, cs, tile in cols.tiles(rows, idx):
            tile -= floor[rs, None]
            np.maximum(tile, 0.0, out=tile)
            if cap is not None:
                np.minimum(tile, cap[rs, None], out=tile)
            sums[cs] += tile.sum(axis=0)
        return sums

    # The seed bound needs no second kernel pass: every term
    # max(K(i,c) - best_i, 0) is at most K(i,c) - low, so the gain is at
    # most col_sums[c] - n * low. The relative slack keeps it above the
    # exact gains when the two are rounded differently (they sum in other
    # orders, over tiles of other shapes).
    gain = col_sums - n * low
    gain += 1e-9 * (np.abs(col_sums) + n * abs(low))
    gain[first] = np.nan
    front = np.zeros(n, dtype=bool)

    while len(selected) < k:
        # absorb every stale candidate whose bound reaches the tie window
        # of the front's best, so no tied candidate stays stale; highest
        # bound first, lowest index among equal bounds
        batch = 64
        while True:
            members = np.flatnonzero(front)
            top = gain[members].max(initial=-np.inf)
            stale = np.flatnonzero(~front & (gain >= top - _TIE_RTOL * abs(top)))
            if not stale.size:
                break
            absorbed = stale[np.argsort(-gain[stale], kind="stable")[:batch]]
            gain[absorbed] = covered(None, absorbed, best)
            stats["gain_evaluations"] += absorbed.size
            front[absorbed] = True
            batch = min(batch * 4, _FRONT_CAP)

        # members is index-sorted, so its first near-max is the lowest index
        pos, tied = _lowest_near_max(gain[members])
        stats["near_tie_picks"] += tied
        chosen = int(members[pos])
        selected.append(chosen)
        gain[chosen] = np.nan
        front[chosen] = False
        members = np.delete(members, pos)

        column = cols.column(chosen)
        captured = np.flatnonzero(column > best)
        if captured.size and members.size:
            # a captured point i moves from old_i to new_i, so candidate c
            # loses clip(K(i,c), old_i, new_i) - old_i of its gain, which
            # is min(max(K(i,c) - old_i, 0), new_i - old_i) to the bit, as
            # rounding is monotone
            old_best = best[captured]
            gain[members] -= covered(captured, members, old_best, column[captured] - old_best)
        best[captured] = column[captured]
        trace.append(float(best.sum()))

        if members.size > _FRONT_CAP:
            # the cold half goes stale, its exact gains left as tight bounds
            cold = members[np.argsort(gain[members], kind="stable")[: members.size // 2]]
            front[cold] = False
            stats["front_demotions"] += cold.size

    return SelectionResult(
        selected=selected,
        strategy="facility_location",
        params={"budget": budget, **_kernel_params(kernel)},
        objective_trace=trace,
        warnings=_cap_note(budget, n, "number of points"),
        stats={"kernel_entries": cols.entries, **stats},
    )


def select_dpp(embeddings, budget: int, kernel: KernelSpec, jitter: float = 1e-6) -> SelectionResult:
    """Greedy log-determinant maximization (deterministic DPP).

    Each step adds the point with the largest residual of the jittered
    kernel K + jitter*I after projecting out the chosen points; the
    residual equals the marginal log-det gain (Chen, Zhang & Zhou 2018).
    Every pick is the lowest index within _TIE_RTOL (relative) of the
    largest residual. A pivot below _JITTER_MARGIN x jitter means the
    kernel's rank is spent and the jitter decides the picks; the first
    such step is named in a warning.

    The euclidean and cosine kernels are K = X X^T for the (normalized)
    points X, so the state lives in d dimensions, with no k x N factor.
    While the best residual is at least _JITTER_MARGIN x jitter, the
    incremental Cholesky factor rows are X c for c in R^d, and only
    P = sum c c^T is kept: c = (x_j - P x_j) / sqrt(pivot), and the
    residuals drop by (X c)^2. Past that point the subtraction would
    cancel to noise, so the residuals are recomputed exactly as
    jitter * (1 + ||z_i||^2), with the whitened points z_i = R^-T x_i and
    R^T R = G = jitter*I + X_S^T X_S. Each later pick j then downdates them
    by Sherman-Morrison: with M = I + (sum of z z^T over those picks),
    G = R^T M R, and residual_i -= jitter (z_i^T u)^2 / (1 + z_j^T u) for
    u = M^-1 z_j; M >= I, so its solves stay accurate. A pick costs
    O(N d + d^2) before the switch and O(N d + d^3) after it; memory is
    O(N d + d^2). A d in the thousands would want a Cholesky update of M
    instead of a solve.

    The rbf kernel has no finite feature map, so it keeps the k x N
    factor; its k*N*8 bytes are checked against physical memory before
    anything is allocated. If every rbf residual collapses to zero the
    result is returned partial, flagged with a warning.
    """
    _check_budget(budget)
    if not (jitter > 0 and math.isfinite(jitter)):
        raise ConfigError(f"jitter must be positive and finite, got {jitter!r}")
    kern = _ColumnKernel(embeddings, kernel)
    points = kern.points
    n, d = points.shape
    k = min(budget, n)
    floor = _JITTER_MARGIN * jitter
    rbf = kernel.kind == "rbf"

    if rbf:
        need = k * n * 8
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            raise ConfigError(
                f"dpp with the rbf kernel needs a {k} x {n} float64 factor ({need} bytes);"
                f" physical memory is {have} bytes"
            )
        factors = np.zeros((k, n))
        residual = np.full(n, 1.0 + jitter)
    else:
        proj = np.zeros((d, d))  # P, before the switch
        whitened = None  # Z, after it
        residual = kern.sq_norms + jitter

    selected: list[int] = []
    trace: list[float] = []
    warnings = _cap_note(budget, n, "number of points")
    log_det = 0.0
    jitter_noted = False
    for step in range(k):
        if not rbf and whitened is None and not residual.max() >= floor:
            # R from the QR of [X_S; sqrt(jitter) I] has R^T R = G without
            # forming G, so the jitter survives where it is below G's rounding
            stacked = np.vstack([points[selected], math.sqrt(jitter) * np.eye(d)])
            upper = np.linalg.qr(stacked, mode="r")
            whitened = np.linalg.solve(upper.T, points.T)  # Z = R^-T X^T
            gram = np.eye(d)  # M, with G = R^T M R as picks join S
            residual = jitter * (1.0 + np.einsum("ij,ij->j", whitened, whitened))
            residual[selected] = -np.inf
        j, _ = _lowest_near_max(residual)
        pivot = float(residual[j])
        if not pivot > 0.0:
            warnings.append(
                f"kernel rank exhausted after {step} of {k} selections; partial result"
            )
            break
        if not jitter_noted and pivot < floor:
            jitter_noted = True
            warnings.append(
                f"pivot {pivot:.3g} at step {step} is below {_JITTER_MARGIN:g} x jitter"
                f" ({jitter:g}); picks from step {step} on are decided by the jitter"
            )
        log_det += math.log(pivot)
        trace.append(log_det)
        if rbf:
            row = kern.column(j)
            row -= factors[:step, j] @ factors[:step]
            row /= math.sqrt(pivot)
            factors[step] = row
            residual -= row * row
        elif whitened is None:
            x = points[j]
            c = (x - proj @ x) / math.sqrt(pivot)
            proj += np.outer(c, c)
            residual -= np.square(points @ c)
        else:
            z = whitened[:, j]
            u = np.linalg.solve(gram, z)
            residual -= jitter * np.square(u @ whitened) / (1.0 + z @ u)
            gram += np.outer(z, z)
        selected.append(j)
        residual[j] = -np.inf

    return SelectionResult(
        selected=selected,
        strategy="dpp",
        params={"budget": budget, **_kernel_params(kernel), "jitter": jitter},
        objective_trace=trace,
        warnings=warnings,
    )


@dataclass
class StrategyConfig:
    """Parameters of one selection run; unset kernel falls back to the
    strategy's natural default."""

    strategy: str
    budget: int
    seed: int = 0
    base: int = 5
    kernel: KernelSpec | None = None
    jitter: float = 1e-6


# Each geometric strategy's kernel kind when none is given.
_DEFAULT_KERNELS = {"k_center": "euclidean", "facility_location": "rbf", "dpp": "euclidean"}


def _allocation_table(partition, allocation, result, task_conf=None) -> list[dict]:
    """One manifest row per task, from columns in the partition's task order."""
    columns = {"task": partition.tasks, "available": partition.counts.tolist(),
               "alpha": allocation.alpha.tolist(),
               "alpha_ceil": ceil_allocation(allocation.alpha).tolist(),
               "selected": [result.per_task[label] for label in partition.tasks]}
    if task_conf is not None:
        columns["confidence"] = task_conf.tolist()
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def run_strategy(pool: Pool, config: StrategyConfig, scores=None) -> SelectionResult:
    """Dispatch a named strategy over a pool.

    The two allocation-first strategies compose partition -> (confidence
    when weighted) -> allocation -> round robin; ``scores`` may carry
    precomputed per-example scores, used by the uncertainty and the
    confidence-weighted strategies.
    """
    name = config.strategy
    if name not in STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r}")
    _check_seed(config.seed)
    part = pool.partition

    if name == "random":
        result = select_random(pool, config.budget, config.seed)
    elif name in UNCERTAINTY_CRITERIA:
        if scores is None:
            scores = score_pool(pool)
        result = select_uncertainty(pool, scores, name, config.budget)
    elif name in ("task_diversity", "weighted_task_diversity", "active_it"):
        task_conf = None if name == "task_diversity" else task_mean_confidence(pool, scores)
        if name == "task_diversity":
            alloc = allocate_task_diversity(part.counts, config.budget)
        elif name == "weighted_task_diversity":
            alloc = allocate_weighted(part.counts, task_conf, config.budget, base=config.base)
        else:
            alloc = allocate_active_it(part.counts, task_conf, config.budget)
        result = round_robin(alloc, part, config.budget, config.seed)
        result.allocation = _allocation_table(part, alloc, result, task_conf)
        if name == "weighted_task_diversity":
            result.params["base"] = config.base
    else:
        kernel = config.kernel if config.kernel is not None else KernelSpec(_DEFAULT_KERNELS[name])
        embeddings = pool.embedding_matrix()
        if name == "k_center":
            result = select_k_center(embeddings, config.budget, kernel)
        elif name == "facility_location":
            result = select_facility_location(embeddings, config.budget, kernel)
        else:
            result = select_dpp(embeddings, config.budget, kernel, jitter=config.jitter)
        result.per_task = _tally(part, result.selected)

    result.strategy = name
    result.seed = config.seed
    return result


def manifest_payload(result: SelectionResult, pool: Pool) -> dict:
    """Serializable selection manifest; keys are stable across runs."""
    ids = pool.ids()
    payload = {
        "strategy": result.strategy,
        "params": result.params,
        "seed": result.seed,
        "budget": result.params.get("budget"),
        "selected_ids": [ids[i] for i in result.selected],
        "per_task": result.per_task,
        "warnings": result.warnings,
    }
    if result.objective_trace is not None:
        payload["objective_trace"] = result.objective_trace
    if result.allocation is not None:
        payload["allocation"] = result.allocation
    if result.stats is not None:
        payload["stats"] = result.stats
    return payload
