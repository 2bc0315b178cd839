"""The desk-scale synthetic pool: 90K records over 1,691 tasks, d=64.

Acceptance criterion 7 runs on it at seed 707, and the pinned selections on
its 6K prefixes. ``perfbench/gen.py`` restates it for the benchmark, which
does not import test code. At seed 707 both give byte-identical pool and
sidecar files, whose digests ``perfbench/test_perfbench.py`` pins.
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
