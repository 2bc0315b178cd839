"""Traced run of one taskpick CLI command, in its own process.

    python3 perfbench/traced.py SPANS.json -- <taskpick CLI arguments>
    python3 perfbench/traced.py SPANS.json --probe POOL [SIDECAR]

The first form wraps the package's public functions in spans where their
callers look them up (``TRACED``), then runs ``taskpick.cli.main`` on the
arguments, so the spans always time the code the CLI runs. The second
times the pool layer on its own: a full ``load_pool``, a ``Pool`` rebuild
from the loaded records (validation and partition), a plain ``json.loads``
over the same lines as a floor, and, with a sidecar, ``read_embeddings``
and ``embedding_matrix``.

Spans are ``[name, start, end, parent]`` in ``time.perf_counter`` seconds,
kept in memory and written to SPANS.json when the process ends. A span's
name is ``<module>.<what>``; the module is the layer it is charged to.
The package is imported inside a span so its import time is charged to
``cli``.
"""

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

PROBE_REPEATS = 3

# (module, attribute, span name). The module is the caller's namespace:
# the CLI calls load_pool, score_pool, read_scores, render_scores,
# run_strategy and manifest_payload from taskpick.cli, and run_strategy
# calls the scorers, allocators and selectors from taskpick.selectors.
# run_strategy's own time (dispatch, tally, allocation table) is charged
# to selectors.
TRACED = (
    ("taskpick.cli", "load_pool", "pool.load_pool"),
    ("taskpick.pool", "Pool.embedding_matrix", "pool.embedding_matrix"),
    ("taskpick.cli", "score_pool", "scoring.score_pool"),
    ("taskpick.cli", "read_scores", "scoring.read_scores"),
    ("taskpick.cli", "render_scores", "scoring.render_scores"),
    ("taskpick.selectors", "score_pool", "scoring.score_pool"),
    ("taskpick.selectors", "task_mean_confidence", "scoring.task_mean"),
    ("taskpick.selectors", "allocate_task_diversity", "allocation.task_diversity"),
    ("taskpick.selectors", "allocate_weighted", "allocation.weighted"),
    ("taskpick.selectors", "allocate_active_it", "allocation.active_it"),
    ("taskpick.cli", "run_strategy", "selectors.run_strategy"),
    ("taskpick.selectors", "round_robin", "selectors.round_robin"),
    ("taskpick.selectors", "select_random", "selectors.random"),
    ("taskpick.selectors", "select_uncertainty", "selectors.uncertainty"),
    ("taskpick.selectors", "select_facility_location", "selectors.facility_location"),
    ("taskpick.selectors", "select_dpp", "selectors.dpp"),
    ("taskpick.selectors", "select_k_center", "selectors.k_center"),
    ("taskpick.cli", "manifest_payload", "selectors.manifest"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def instrument(tr):
    """Replace every ``TRACED`` function with a spanned wrapper."""
    for module, attr, name in TRACED:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, tr.wrap(name, getattr(owner, leaf)))


def probe_pool(pool_path, sidecar, tr):
    """Median seconds of each pool-layer step over PROBE_REPEATS rounds."""
    with tr.span("cli.import"):
        import taskpick as tp
    samples = {}

    def timed(name, fn):
        start = time.perf_counter()
        value = fn()
        samples.setdefault(name, []).append(time.perf_counter() - start)
        return value

    def json_floor():
        with open(pool_path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    for _ in range(PROBE_REPEATS):
        pool = timed("pool.load_s", lambda: tp.load_pool(pool_path, sidecar))
        timed("pool.validate_s", lambda: tp.Pool(pool.records))
        timed("pool.json_floor_s", json_floor)
        if sidecar:
            timed("pool.read_embeddings_s", lambda: tp.read_embeddings(sidecar))
            fresh = tp.Pool(pool.records)
            timed("pool.embedding_matrix_s", fresh.embedding_matrix)
        del pool
    return {name: statistics.median(values) for name, values in samples.items()}


def main(argv):
    spans_path, rest = argv[0], argv[1:]
    tr = Tracer()
    out = {"spans": tr.spans}
    status = 0
    with tr.span("command"):
        if rest[0] == "--probe":
            out["probe"] = probe_pool(rest[1], rest[2] if len(rest) > 2 else None, tr)
        else:
            with tr.span("cli.import"):
                import taskpick.cli
            instrument(tr)
            status = taskpick.cli.main(rest[1:])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
