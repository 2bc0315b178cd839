import json
import os
import subprocess
import sys

import numpy as np
import pytest

import taskpick
from taskpick.pool import Pool, PromptRecord

SRC = os.path.dirname(os.path.dirname(taskpick.__file__))


def make_pool(task_sizes, confidences=None, embeddings=None, token_probs=None):
    """Build a pool with the given per-task sizes (label -> count)."""
    labels = [task for task, size in task_sizes.items() for _ in range(size)]
    records = []
    for i, task in enumerate(labels):
        records.append(
            PromptRecord(
                id=f"ex-{i:04d}",
                task=task,
                confidence=None if confidences is None else confidences[i],
                embedding=None if embeddings is None else np.asarray(embeddings[i], float),
                token_probs=None if token_probs is None else token_probs[i],
            )
        )
    return Pool(records)


def write_pool(path, rows):
    """Write ``rows`` as JSON lines to ``path``; return it as a string."""
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path)


def conf_of(values):
    return np.asarray(values, dtype=np.float64)


def run_python(*args, env=None, timeout=None, check=False):
    """Run ``python *args`` in a fresh process on this checkout: its ``src``
    goes ahead of any PYTHONPATH, and ``env`` adds variables."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, check=check)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
