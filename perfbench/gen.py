"""Seeded input generators for the benchmark.

The program under test never sees this module: it only reads the files
written here. Everything is a pure function of the seed, so one seed
always gives byte-identical files.

``write_desk_pool`` is acceptance criterion 7's generator (tests/test_acceptance.py,
fixture ``desk_scale_inputs``), restated here so the benchmark does not
import test code. At seed 707 with the default sizes it writes exactly the
pool and sidecar that criterion builds; ``test_perfbench.py`` pins both
digests. The sidecar is written without ``taskpick.write_embeddings`` so a
change to the program cannot change the benchmark's inputs.
"""

import json
import struct

import numpy as np

DESK_N, DESK_DIM, DESK_TASKS = 90_000, 64, 1_691
TRACE_POSITIONS, TRACE_CANDIDATES = 40, 5


def desk_arrays(seed: int, n: int = DESK_N, dim: int = DESK_DIM, n_tasks: int = DESK_TASKS):
    """Task labels, per-record task index, confidences and float32 embeddings.

    Task sizes are heavy-tailed (Zipf 0.9) and the first ``n_tasks`` rows
    cover every task once, so any prefix of at least ``n_tasks`` rows keeps
    all tasks. Each task is its own embedding mode.
    """
    rng = np.random.default_rng(seed)
    labels = [f"task{i:04d}" for i in range(n_tasks)]
    weights = 1.0 / np.arange(1, n_tasks + 1) ** 0.9
    weights /= weights.sum()
    assign = np.concatenate(
        [np.arange(n_tasks), rng.choice(n_tasks, size=n - n_tasks, p=weights)]
    )
    conf = rng.uniform(0.01, 0.99, size=n)
    centers = 8.0 * rng.standard_normal((n_tasks, dim))
    radii = np.exp(rng.normal(0.0, 0.5, size=n_tasks))
    emb = centers[assign] + radii[assign][:, None] * rng.standard_normal((n, dim))
    return labels, assign, conf, emb.astype(np.float32)


def write_sidecar(path, matrix: np.ndarray) -> None:
    """The embedding sidecar format: uint64 N, uint64 d, then N*d float32, all little-endian."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", *matrix.shape))
        fh.write(matrix.tobytes())


def record_id(i: int) -> str:
    return f"p{i:06d}"


def ids_and_tasks(seed: int, rows: int):
    """Ids and task labels of the first ``rows`` records, shared by both pools."""
    labels, assign, _, _ = desk_arrays(seed)
    return [record_id(i) for i in range(rows)], [labels[t] for t in assign[:rows]]


def write_desk_pool(pool_path, sidecar_path, seed: int, rows: int = DESK_N) -> None:
    """The first ``rows`` records of the desk pool (confidence only) and their sidecar."""
    labels, assign, conf, emb = desk_arrays(seed)
    lines = [
        json.dumps({"id": record_id(i), "task": labels[assign[i]], "confidence": float(conf[i])})
        for i in range(rows)
    ]
    with open(pool_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if sidecar_path is not None:
        write_sidecar(sidecar_path, emb[:rows])


def token_probs(seed: int, task_index: np.ndarray, n_tasks: int = DESK_TASKS) -> np.ndarray:
    """Per-record token traces, shape (rows, TRACE_POSITIONS, TRACE_CANDIDATES).

    Each position holds the top candidates of a Dirichlet draw, sorted
    non-increasing and rounded to six decimals (rounding keeps the order),
    with a floor of 1e-6 so every realized-token probability is positive.
    A per-task concentration on the realized token makes task-mean
    confidences differ, so the weighted allocation has work to do. Forty
    positions keep the log-confidence within tens of nats, far from the
    ~745 nats where the raw product underflows.
    """
    rng = np.random.default_rng([seed, 1])
    easiness = rng.uniform(2.0, 12.0, size=n_tasks)
    rows = task_index.shape[0]
    shape = (rows, TRACE_POSITIONS, TRACE_CANDIDATES + 1)
    alpha = np.ones(shape)
    alpha[..., 0] = easiness[task_index][:, None]
    draws = rng.standard_gamma(alpha)
    draws /= draws.sum(axis=-1, keepdims=True)
    draws = -np.sort(-draws, axis=-1)[..., :TRACE_CANDIDATES]
    return np.maximum(np.round(draws, 6), 1e-6)


def write_token_pool(pool_path, seed: int, rows: int) -> None:
    """The first ``rows`` desk ids and tasks, each with a token trace instead of a confidence."""
    labels, assign, _, _ = desk_arrays(seed)
    probs = token_probs(seed, assign[:rows])
    with open(pool_path, "w", encoding="utf-8") as fh:
        for i in range(rows):
            rec = {"id": record_id(i), "task": labels[assign[i]], "token_probs": probs[i].tolist()}
            fh.write(json.dumps(rec) + "\n")
