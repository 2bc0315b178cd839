"""The desk-scale synthetic pool: 90K records over 1,691 tasks, d=64.

Acceptance criterion 7 runs on it at seed 707, and the pinned selections on
its 6K prefixes and on a 3K prefix with token traces. ``perfbench/gen.py``
restates both for the benchmark, which does not import test code. At seed
707 both give byte-identical pool and sidecar files, whose digests
``perfbench/test_perfbench.py`` pins.
"""

import numpy as np

DESK_N, DESK_DIM, DESK_TASKS = 90_000, 64, 1_691


def desk_arrays(seed: int):
    """Task labels, per-record task index, confidences and float32 embeddings.

    Task sizes are heavy-tailed (Zipf 0.9) and the first DESK_TASKS rows
    cover every task once, so any prefix of at least DESK_TASKS rows keeps
    all tasks. Each task forms its own embedding mode (center plus per-task
    radius), so the embedding cloud has more density modes than the
    selection budget, as task-partitioned corpora do.
    """
    rng = np.random.default_rng(seed)
    labels = [f"task{i:04d}" for i in range(DESK_TASKS)]
    weights = 1.0 / np.arange(1, DESK_TASKS + 1) ** 0.9
    weights /= weights.sum()
    assign = np.concatenate(
        [np.arange(DESK_TASKS), rng.choice(DESK_TASKS, size=DESK_N - DESK_TASKS, p=weights)]
    )
    conf = rng.uniform(0.01, 0.99, size=DESK_N)
    centers = 8.0 * rng.standard_normal((DESK_TASKS, DESK_DIM))
    radii = np.exp(rng.normal(0.0, 0.5, size=DESK_TASKS))
    emb = centers[assign] + radii[assign][:, None] * rng.standard_normal((DESK_N, DESK_DIM))
    return labels, assign, conf, emb.astype(np.float32)


TRACE_POSITIONS, TRACE_CANDIDATES = 40, 5


def desk_token_probs(seed: int, task_index: np.ndarray) -> np.ndarray:
    """Per-record token traces of shape (rows, TRACE_POSITIONS, TRACE_CANDIDATES).

    Each position holds the top candidates of a Dirichlet draw whose
    realized-token concentration depends on the task, sorted non-increasing,
    rounded to six decimals and floored at 1e-6.
    """
    rng = np.random.default_rng([seed, 1])
    easiness = rng.uniform(2.0, 12.0, size=DESK_TASKS)
    alpha = np.ones((task_index.shape[0], TRACE_POSITIONS, TRACE_CANDIDATES + 1))
    alpha[..., 0] = easiness[task_index][:, None]
    draws = rng.standard_gamma(alpha)
    draws /= draws.sum(axis=-1, keepdims=True)
    draws = -np.sort(-draws, axis=-1)[..., :TRACE_CANDIDATES]
    return np.maximum(np.round(draws, 6), 1e-6)
