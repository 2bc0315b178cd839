"""Subset materialization: round-robin sampling over an allocation plus
random, uncertainty, k-center, facility-location, and deterministic DPP
selectors, and the strategy dispatcher tying them together.

Determinism contract: identical (pool, config, seed) always reproduces
the identical selection. Randomized selectors draw from counter-based
generators keyed by (seed, task label), so the within-task draws do not
depend on how many other tasks exist or in which order they are visited.
All argmax reductions break ties toward the lowest index.
"""

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
from .errors import ConfigError, InvalidKernel, MissingScore, ShapeError, ValidationError
from .manifest import _allocation_table
from .pool import Pool, TaskPartition
from .scoring import Scores, score_pool, task_mean_confidence

# Largest kernel tile: 2^16 floats (256 x 256, 512 KB). _ColumnKernel writes
# every tile into one scratch array of this size, which fits in a 2 MB L2
# cache beside the tile's operands; no tile allocates, and a tile is valid
# only until the next tile is made.
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
# k-center computes the columns of this many likely next centres in one
# product over the kernel's rows, which reads the rows once for all of them.
_KCENTER_BLOCK = 16

UNCERTAINTY_CRITERIA = ("least_confidence", "mean_entropy", "mean_margin", "min_margin")
# The allocation family: partition -> allocation -> round robin. All but
# task_diversity weigh the tasks by their mean confidence.
_ALLOCATION_STRATEGIES = ("task_diversity", "weighted_task_diversity", "active_it")
# The strategies that read per-example scores; only they use a scores cache.
_SCORED_STRATEGIES = (*UNCERTAINTY_CRITERIA, *_ALLOCATION_STRATEGIES[1:])
_KERNEL_KINDS = ("euclidean", "rbf", "cosine")
# Each geometric strategy's kernel kind when none is given.
_DEFAULT_KERNELS = {"k_center": "euclidean", "facility_location": "rbf", "dpp": "euclidean"}

STRATEGIES = ("random", *UNCERTAINTY_CRITERIA, *_ALLOCATION_STRATEGIES, *_DEFAULT_KERNELS)


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
        if self.kind not in _KERNEL_KINDS:
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
    import hashlib  # OpenSSL starts in 3-5 ms; only round robin's streams hash

    return int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little")


def _stream(seed: int, label: str) -> "np.random.Generator":
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


def _check_memory(need: int, what: str) -> None:
    """Raise ConfigError, naming ``what``, unless ``need`` bytes fit in physical memory."""
    if need > (have := os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")):
        raise ConfigError(f"{what} ({need} bytes); physical memory is {have} bytes")


# Tiles and columns are within (d + 2) eps (|x|^2 + |y|^2) of the textbook
# |x - y|^2 (or x.y): the worst-case rounding of a length-(d + 2) dot product.
class _ColumnKernel:
    """The kernel K on demand, in 8 N (d + 2) bytes of rows and a 512 KB
    tile, never N x N, so that the greedy selectors run on ~100K points.

    Each point is one row [x, |x|^2, 1] of the N x (d + 2) float64 ``rows``,
    the one place that widens points, squares them and normalises them for
    cosine, in place; ``points`` and ``sq_norms`` are views of it. A row
    times _right(y) = [2y, -1, -|y|^2] is -|x - y|^2, and times [y, 0, 0]
    (cosine) x.y, so every kernel value is one product. ``columns``,
    ``closed_sums``, ``column_sums`` and ``clipped_sums`` return arrays of
    their own; the last two walk K one scratch tile of at most _TILE_FLOATS
    at a time.
    ``entries`` counts the kernel values computed so far.
    """

    def __init__(self, embeddings, spec: KernelSpec):
        if np.ndim(embeddings) != 2 or not len(embeddings):
            raise ShapeError(f"embeddings must be a non-empty N x d matrix, got shape {np.shape(embeddings)}")
        n, d = np.shape(embeddings)
        _check_memory(n * (d + 2) * 8, f"the kernel needs {n} x {d + 2} float64 rows")
        self.spec, self.n, self.entries = spec, n, 0
        self.rows = np.ones((n, d + 2))
        self.points, self.sq_norms = self.rows[:, :d], self.rows[:, d]
        self.points[:] = embeddings  # float32 widens here, with no float64 copy beside it
        self._square_norms()
        # bounds every squared distance, column sum and k-center total
        if not math.isfinite(4.0 * n * self.sq_norms.max(initial=0.0)):
            raise ValidationError(
                "embeddings hold a non-finite value, or 4 x N x their largest"
                " squared norm overflows float64; rescale them"
            )
        if spec.kind == "cosine":
            self.points /= np.maximum(np.sqrt(self.sq_norms), 1e-30)[:, None]
            self._square_norms()
        # _right() scales a row [y, |y|^2, 1] by these, then swaps its last two
        self._weights = np.repeat([1.0, 0.0] if spec.kind == "cosine" else [2.0, -1.0], [d, 2])
        self._tile = np.empty(_TILE_FLOATS)

    def _square_norms(self) -> None:
        """sq_norms as (x * x).sum(axis=1), in row blocks, with no N x d temporary."""
        step = _TILE_FLOATS // max(1, self.points.shape[1])
        with np.errstate(over="ignore"):
            for r in range(0, self.n, step):
                self.sq_norms[r : r + step] = np.square(self.points[r : r + step]).sum(axis=1)

    def _right(self, cols) -> np.ndarray:
        """The right operand of K[:, cols], one column right(y) per point y in ``cols``."""
        right = self.rows[cols] * self._weights
        right[..., [-2, -1]] = right[..., [-1, -2]]
        return right.T

    def _finish(self, t: np.ndarray) -> np.ndarray:
        """Kernel values, in place, from products with _right(); rbf is exp(gamma * euclidean)."""
        self.entries += t.size
        if self.spec.kind != "cosine":
            np.minimum(t, 0.0, out=t)
        if self.spec.kind == "rbf":
            with np.errstate(over="ignore"):  # a huge gamma gives -inf, and exp(-inf) = 0 is exact
                t *= self.spec.gamma
            np.exp(t, out=t)
        return t

    def _cross(self, rows, right: np.ndarray) -> np.ndarray:
        """Similarity tile K[rows, cols] in the scratch tile; ``right`` is _right(cols)."""
        left = self.rows[rows]
        size = left.shape[0] * right.shape[1]
        return self._finish(np.matmul(left, right, out=self._tile[:size].reshape(left.shape[0], -1)))

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The columns K[:, cols] as the rows of one C-contiguous (len(cols), N)
        block, from one matrix product that reads the rows once."""
        return self._finish(self._right(cols).T @ self.rows.T)

    def closed_sums(self) -> np.ndarray:
        """Every column sum of the euclidean or cosine K in closed form, in
        O(N d): -(N |c|^2 + sum |x|^2 - 2 c.sum x), or c.sum x on the
        normalised points."""
        dots = self.points @ self.points.sum(axis=0)
        if self.spec.kind == "cosine":
            return dots
        return -(self.n * self.sq_norms + self.sq_norms.sum() - 2.0 * dots)

    def column_sums(self) -> tuple[np.ndarray, float]:
        """Every column sum of K and its smallest entry, from the tiles K[A, B]
        with B >= A, each summed along both axes, as K is symmetric; rbf has
        no closed form."""
        side = math.isqrt(_TILE_FLOATS)
        sums = np.zeros(self.n)
        low = np.inf
        for b in range(0, self.n, side):
            right = self._right(slice(b, b + side))
            for a in range(0, b + 1, side):
                tile = self._cross(slice(a, a + side), right)
                sums[b : b + side] += tile.sum(axis=0)
                if b != a:
                    sums[a : a + side] += tile.sum(axis=1)
                low = min(low, float(tile.min()))
        return sums, low

    def clipped_sums(self, rows, cols: np.ndarray, floor: np.ndarray, cap=None) -> np.ndarray:
        """For each c in ``cols``, the sum over ``rows`` (None for every point)
        of min(max(K(i, c) - floor_i, 0), cap_i), in tiles at most
        _TILE_FLOATS // 64 rows high and columns wide."""
        n_rows = self.n if rows is None else len(rows)
        width = max(1, min(cols.size, _TILE_FLOATS // 64))
        height = min(_TILE_FLOATS // 64, _TILE_FLOATS // width)
        sums = np.zeros(cols.size)
        for c in range(0, cols.size, width):
            cs = slice(c, c + width)
            right = self._right(cols[cs])
            for r in range(0, n_rows, height):
                rs = slice(r, r + height)
                tile = self._cross(rs if rows is None else rows[rs], right)
                tile -= floor[rs, None]
                np.maximum(tile, 0.0, out=tile)
                if cap is not None:
                    np.minimum(tile, cap[rs, None], out=tile)
                sums[cs] += tile.sum(axis=0)
        return sums


def select_k_center(embeddings, budget: int, kernel: KernelSpec | None = None) -> SelectionResult:
    """Greedy farthest-first traversal under Euclidean distance.

    The first center is the point with minimum total squared distance to
    the rest (the dataset medoid); each later center is the point
    farthest from its nearest chosen center. Both picks are the lowest
    index within _TIE_RTOL (relative) of the best, as in the other greedy
    selectors. The trace records the covering radius after each pick.
    A pick's distance becomes -inf, so it can never be the farthest again.
    Each trace value's square is within the kernel's bound,
    (d + 2) eps (|x|^2 + |y|^2), of the exact squared distance it stands for.

    Distance columns come in blocks of _KCENTER_BLOCK: when a pick's column
    is not in the last block, one product computes it with the columns of
    the other points farthest from their nearest centre, which are likely
    the next picks. A block depends only on the distances and the pick, so
    it decides which columns are computed together, never a pick, and a
    larger budget still holds every smaller one. ``stats`` counts the
    kernel entries, the blocks (products over the rows) and the picks that
    had a near tie, which a warning names with the step of the first.

    Peak memory is the kernel's plus 144 N bytes: the distances, a block of
    8 _KCENTER_BLOCK N bytes, and either the block's N partition indices or
    the medoid sum's three temporaries.
    """
    if kernel is not None and kernel.kind != "euclidean":
        raise InvalidKernel("k-center supports the euclidean kernel only")
    _check_budget(budget)
    kern = _ColumnKernel(embeddings, KernelSpec("euclidean"))
    n = kern.n
    k = min(budget, n)

    # the medoid, from each point's total squared distance to the rest
    nxt, tied = _lowest_near_max(kern.closed_sums())
    ties = [0] if tied else []  # the steps of the picks that had a near tie

    def distance_block(pick: int) -> dict:
        """Distance columns of ``pick`` and the other points farthest from
        their nearest centre, by point, as rows of one block."""
        width = min(_KCENTER_BLOCK, n)
        far = np.argpartition(min_dist, n - width)[n - width :]
        block = np.concatenate(([pick], far[far != pick][: width - 1]))
        dist = kern.columns(block)
        np.sqrt(np.subtract(0.0, dist, out=dist), out=dist)  # not -K: a zero distance is +0.0
        return dict(zip(block.tolist(), dist))

    selected, trace, cached, blocks = [], [], {}, 0
    min_dist = np.full(n, np.inf)  # before the medoid, every point is as far as any
    while True:
        if nxt not in cached:
            cached = {}  # the last block goes before the next is made
            cached, blocks = distance_block(nxt), blocks + 1
        selected.append(nxt)
        np.minimum(min_dist, cached.pop(nxt), out=min_dist)
        min_dist[nxt] = -np.inf
        trace.append(max(float(min_dist.max()), 0.0))
        if len(selected) == k:
            break
        nxt, tied = _lowest_near_max(min_dist)
        if tied:
            ties.append(len(selected))

    return SelectionResult(
        selected=selected,
        strategy="k_center",
        params={"budget": budget, "kernel": "euclidean"},
        objective_trace=trace,
        warnings=_cap_note(budget, n, "number of points") + _near_tie_note(ties),
        stats={"kernel_entries": kern.entries, "column_blocks": blocks, "near_tie_picks": len(ties)},
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


def _near_tie_note(steps: list[int]) -> list[str]:
    """The warning for the picks, by step, that had a near tie: the first and the total."""
    if not steps:
        return []
    return [f"near-tie picks: {len(steps)}, the first at step {steps[0]}; each went to the lowest"
            f" index within {_TIE_RTOL:g} (relative) of the best"]


def select_facility_location(embeddings, budget: int, kernel: KernelSpec) -> SelectionResult:
    """Lazy greedy maximization of sum-of-best-similarities coverage.

    Each point is served by its most similar chosen center; the greedy
    step adds the candidate with the largest coverage gain. Per-point
    best similarities start at -inf so negative (cosine) similarities
    rank correctly (the definitional first pick, the max column sum,
    realizes that initialization). Gains within _TIE_RTOL (relative) of
    the best are ties, and every pick, the first included, is the lowest
    index among them.

    Laziness is Minoux's, and exact: ``gain`` holds one value per
    candidate, and the mask ``front`` marks the candidates whose value is
    exact. Front gains stay exact by subtracting the coverage each new
    center steals, which needs only the kernel between the captured points
    and the front, so near ties (thousands of candidates within rounding
    of the best gain) do not force full column recomputes at every step.
    Other values are upper bounds: the column-sum seed (+inf but for rbf,
    the one kernel without closed-form column sums), or the exact gain at
    demotion, which submodularity keeps valid. Before each pick, stale
    candidates whose bound reaches the front's tie window get their exact
    gain and join the front, in batches growing to _FRONT_CAP; past
    _FRONT_CAP members the cold half goes stale. A pick's value becomes
    NaN, which fails every comparison, so no pick re-enters; -inf would
    not do, as an empty front puts the window's floor at -inf too.

    ``stats`` counts the work: kernel entries computed, exact gain
    evaluations, candidates demoted from the front, and near-tie picks,
    which a warning names with the step of the first.

    Peak memory is the kernel's plus 65 N bytes: the column sums, gains,
    best values and ``front``, and five N-vectors if a pick captures all.
    """
    _check_budget(budget)
    cols = _ColumnKernel(embeddings, kernel)
    n = cols.n
    k = min(budget, n)
    # rbf's column sums walk K; euclidean and cosine have closed forms and
    # take -inf for the smallest entry, as the seed bound that the true one
    # gives them never ruled a candidate out
    col_sums, low = cols.column_sums() if kernel.kind == "rbf" else (cols.closed_sums(), -np.inf)
    first, tied = _lowest_near_max(col_sums)
    best = cols.columns([first])[0]
    selected = [first]
    trace = [float(best.sum())]
    ties = [0] if tied else []  # the steps of the picks that had a near tie
    stats = {"gain_evaluations": 0, "front_demotions": 0}

    # The seed bound needs no second kernel pass: every term
    # max(K(i,c) - best_i, 0) is at most K(i,c) - low, so the gain is at
    # most col_sums[c] - n * low (+inf for low = -inf). The relative slack
    # keeps it above the exact gains when the two are rounded differently
    # (they sum in other orders, over tiles of other shapes).
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
            gain[absorbed] = cols.clipped_sums(None, absorbed, best)
            stats["gain_evaluations"] += absorbed.size
            front[absorbed] = True
            batch = min(batch * 4, _FRONT_CAP)

        # members is index-sorted, so its first near-max is the lowest index
        pos, tied = _lowest_near_max(gain[members])
        if tied:
            ties.append(len(selected))
        chosen = int(members[pos])
        selected.append(chosen)
        gain[chosen] = np.nan
        front[chosen] = False
        members = np.delete(members, pos)

        column = cols.columns([chosen])[0]
        captured = np.flatnonzero(column > best)
        if captured.size and members.size:
            # a captured point i moves from old_i to new_i, so candidate c
            # loses clip(K(i,c), old_i, new_i) - old_i of its gain, which
            # is min(max(K(i,c) - old_i, 0), new_i - old_i) to the bit, as
            # rounding is monotone
            old_best = best[captured]
            gain[members] -= cols.clipped_sums(captured, members, old_best, column[captured] - old_best)
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
        warnings=_cap_note(budget, n, "number of points") + _near_tie_note(ties),
        stats={"kernel_entries": cols.entries, **stats, "near_tie_picks": len(ties)},
    )


def select_dpp(embeddings, budget: int, kernel: KernelSpec, jitter: float = 1e-6) -> SelectionResult:
    """Greedy log-determinant maximization (deterministic DPP).

    Each step adds the point with the largest residual of the jittered
    kernel K + jitter*I after projecting out the chosen points; the
    residual equals the marginal log-det gain (Chen, Zhang & Zhou 2018).
    Every pick is the lowest index within _TIE_RTOL (relative) of the
    largest residual. A pivot below _JITTER_MARGIN x jitter means the
    kernel's rank is spent and the jitter decides the picks; the first
    such step is named in a warning. ``stats`` counts the kernel entries
    (rbf only computes any), that step (None if the jitter decides no
    pick) and the picks that had a near tie, which a warning names with
    the step of the first.

    The euclidean and cosine kernels are K = X X^T for the (normalized)
    points X, so the state lives in d dimensions, with no k x N factor.
    The incremental Cholesky factor rows are X c for c in R^d, and only
    P = sum c c^T is kept: c = (x_j - P x_j) / sqrt(pivot), and the
    residuals drop by (X c)^2. A pick costs O(N d + d^2); memory is
    O(N d + d^2). Once the best residual falls below _JITTER_MARGIN x
    jitter, that subtraction would cancel to noise, so the points are
    re-based once: with R^T R = jitter*I + X_S^T X_S, the kernel on the
    unpicked points is X' X'^T + jitter*I for X' = sqrt(jitter) X R^-1
    (push-through identity). The same update then runs on X' from P = 0
    and residuals jitter + ||x'_i||^2, which are below about
    _JITTER_MARGIN x jitter, so they no longer cancel.

    The rbf kernel has no finite feature map, so it keeps the k x N
    factor, checked with the kernel's rows against physical memory before
    it is allocated. If every rbf residual collapses to zero the result is
    returned partial, flagged with a warning.

    Peak memory is the kernel's plus 24 N bytes (residuals, and a column or
    product with its transform), plus 8 k N for the rbf factor, or else
    8 N d + 16 d (k + 2d + 1,024): X', made before the kernel's rows are
    released, and the d x d state, QR copies and one 1,024-row block.
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
        what = f"dpp with the rbf kernel needs a {k} x {n} float64 factor and the kernel's rows"
        _check_memory(kern.rows.nbytes + k * n * 8, what)
        factors = np.zeros((k, n))
        residual = np.full(n, 1.0 + jitter)
    else:
        proj = np.zeros((d, d))  # P
        residual = kern.sq_norms + jitter

    selected: list[int] = []
    trace: list[float] = []
    warnings = _cap_note(budget, n, "number of points")
    log_det = 0.0
    jitter_step, ties = None, []
    for step in range(k):
        if not rbf and kern is not None and not residual.max() >= floor:
            # R from the QR of [X_S; sqrt(jitter) I] has R^T R = jitter*I +
            # X_S^T X_S without forming it, so the jitter survives where it
            # is below the rounding of X_S^T X_S
            upper = np.linalg.qr(np.vstack([points[selected], math.sqrt(jitter) * np.eye(d)]), mode="r")
            # X R^-1 in 1,024-row blocks, so the solve copies no N x d operand,
            # into a column-major array, on which each later X' c is about a
            # third faster than on the kernel's rows; those rows then go, and
            # kern becomes None, which marks the points as re-based
            rebased = np.empty((n, d), order="F")
            for r in range(0, n, 1_024):
                rebased[r : r + 1_024] = np.linalg.solve(upper.T, points[r : r + 1_024].T).T
            points, kern = rebased, None
            points *= math.sqrt(jitter)
            proj[:] = 0.0
            residual = jitter + np.einsum("ij,ij->i", points, points)
            residual[selected] = -np.inf
        j, tied = _lowest_near_max(residual)
        pivot = float(residual[j])
        if not pivot > 0.0:
            warnings.append(
                f"kernel rank exhausted after {step} of {k} selections; partial result"
            )
            break
        if tied:
            ties.append(step)
        if jitter_step is None and pivot < floor:
            jitter_step = step
            warnings.append(
                f"pivot {pivot:.3g} at step {step} is below {_JITTER_MARGIN:g} x jitter"
                f" ({jitter:g}); picks from step {step} on are decided by the jitter"
            )
        log_det += math.log(pivot)
        trace.append(log_det)
        if rbf:
            row = kern.columns([j])[0]
            row -= factors[:step, j] @ factors[:step]
            row /= math.sqrt(pivot)
            factors[step] = row
            residual -= row * row
        else:
            x = points[j]
            c = (x - proj @ x) / math.sqrt(pivot)
            proj += np.outer(c, c)
            residual -= np.square(points @ c)
        selected.append(j)
        residual[j] = -np.inf

    return SelectionResult(
        selected=selected,
        strategy="dpp",
        params={"budget": budget, **_kernel_params(kernel), "jitter": jitter},
        objective_trace=trace,
        warnings=warnings + _near_tie_note(ties),
        stats={"kernel_entries": kern.entries if rbf else 0, "jitter_step": jitter_step,
               "near_tie_picks": len(ties)},
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


def _resolve_kernel(strategy: str, kind: str | None = None, gamma=None) -> KernelSpec | None:
    """For a geometric strategy, ``kind`` or its default kind, with ``gamma``
    applied when it is rbf; None, with the arguments unchecked, for the others."""
    if strategy not in _DEFAULT_KERNELS:
        return None
    kind = kind or _DEFAULT_KERNELS[strategy]
    return KernelSpec(kind, gamma if kind == "rbf" else None)


def run_strategy(pool: Pool, config: StrategyConfig, scores=None) -> SelectionResult:
    """Dispatch a named strategy over a pool.

    The allocation-first strategies compose partition -> (confidence
    when weighted) -> allocation -> round robin; ``scores`` may carry
    precomputed per-example scores, which only _SCORED_STRATEGIES read.
    """
    name = config.strategy
    if name not in STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r}")
    _check_seed(config.seed)
    part = pool.partition
    if name in _SCORED_STRATEGIES and scores is None:
        scores = score_pool(pool)

    if name == "random":
        result = select_random(pool, config.budget, config.seed)
    elif name in UNCERTAINTY_CRITERIA:
        result = select_uncertainty(pool, scores, name, config.budget)
    elif name in _ALLOCATION_STRATEGIES:
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
        kernel = config.kernel or _resolve_kernel(name)
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
