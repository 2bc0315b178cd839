"""Tests of the benchmark itself: inputs, output checks and the metric list.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import gen
import run

# Criterion 7's desk pool and sidecar (tests/test_acceptance.py, seed 707).
DESK_POOL_SHA256 = "8d09944145b3f983fb201cf742f09d028070280fc6e4ce037e59ae3c4a468495"
DESK_SIDECAR_SHA256 = "d89935c15644c9459bc1697382c2a83fed65941237a68dea74fdb21169e33bb9"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_seed_707_reproduces_criterion_7_inputs(tmp_path):
    gen.write_desk_pool(tmp_path / "pool.jsonl", tmp_path / "emb.bin", 707)
    assert sha256(tmp_path / "pool.jsonl") == DESK_POOL_SHA256
    assert sha256(tmp_path / "emb.bin") == DESK_SIDECAR_SHA256


def test_every_workload_prefix_keeps_all_tasks():
    for wl in run.WORKLOADS.values():
        _, tasks = gen.ids_and_tasks(707, wl.rows)
        assert len(set(tasks)) == gen.DESK_TASKS
    _, tasks = gen.ids_and_tasks(707, gen.DESK_TASKS)
    assert len(set(tasks)) == gen.DESK_TASKS


def test_token_pool_is_seeded_and_valid(tmp_path):
    gen.write_token_pool(tmp_path / "a.jsonl", 3, rows=40)
    gen.write_token_pool(tmp_path / "b.jsonl", 3, rows=40)
    gen.write_token_pool(tmp_path / "c.jsonl", 4, rows=40)
    assert sha256(tmp_path / "a.jsonl") == sha256(tmp_path / "b.jsonl")
    assert sha256(tmp_path / "a.jsonl") != sha256(tmp_path / "c.jsonl")
    ids, tasks = gen.ids_and_tasks(3, 40)
    records = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
    assert [r["id"] for r in records] == ids and [r["task"] for r in records] == tasks
    probs = np.array([r["token_probs"] for r in records])
    assert probs.shape == (40, gen.TRACE_POSITIONS, gen.TRACE_CANDIDATES)
    assert np.all(probs > 0) and np.all(probs <= 1)
    assert np.all(np.diff(probs, axis=-1) <= 0)


def _inputs(n=6):
    ids = [gen.record_id(i) for i in range(n)]
    tasks = ["a", "a", "b", "b", "b", "c"][:n]
    return run.Inputs("pool.jsonl", None, ids, dict(zip(ids, tasks)), {})


def _manifest(path, selected, per_task, **extra):
    path.write_text(json.dumps({"selected_ids": selected, "per_task": per_task,
                                "warnings": [], **extra}))
    return path


def test_check_select_accepts_a_good_manifest_and_flags_bad_ones(tmp_path):
    inputs = _inputs()
    step = run.Step("random", "rank", budget=3)
    good = _manifest(tmp_path / "m.json", ["p000000", "p000002", "p000005"],
                     {"a": 1, "b": 1, "c": 1})
    problems, digest, _ = run.check_select(step, good, inputs)
    assert problems == [] and digest == run.digest(["p000000", "p000002", "p000005"])

    cases = {
        "short": (["p000000", "p000002"], {"a": 1, "b": 1, "c": 0}),
        "duplicate": (["p000000", "p000000", "p000002"], {"a": 2, "b": 1, "c": 0}),
        "foreign": (["p000000", "p000002", "x"], {"a": 1, "b": 1, "c": 0}),
        "miscounted": (["p000000", "p000002", "p000005"], {"a": 2, "b": 1, "c": 0}),
    }
    for name, (selected, per_task) in cases.items():
        bad = _manifest(tmp_path / f"{name}.json", selected, per_task)
        problems, _, _ = run.check_select(step, bad, inputs)
        assert problems, name

    missing, _, _ = run.check_select(step, tmp_path / "absent.json", inputs)
    assert missing


def test_check_select_allocation_ceiling_and_traces(tmp_path):
    inputs = _inputs()
    alloc = run.Step("task_diversity", "alloc", budget=2)
    rows = [{"task": "a", "selected": 2, "alpha_ceil": 1, "available": 2}]
    over = _manifest(tmp_path / "a.json", ["p000000", "p000001"], {"a": 2}, allocation=rows)
    assert run.check_select(alloc, over, inputs)[0]

    fl = run.Step("facility_location", "fl", budget=2)
    falling = _manifest(tmp_path / "f.json", ["p000000", "p000002"], {"a": 1, "b": 1},
                        objective_trace=[2.0, 1.0])
    assert run.check_select(fl, falling, inputs)[0]
    kc = run.Step("k_center", "kcenter", budget=2)
    rising = _manifest(tmp_path / "k.json", ["p000000", "p000002"], {"a": 1, "b": 1},
                       objective_trace=[1.0, 2.0])
    assert run.check_select(kc, rising, inputs)[0]
    assert not run.check_select(kc, falling, inputs)[0]


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in doc["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]


def test_traced_run_spans_the_cli_calls_and_selects_the_same(tmp_path):
    gen.write_desk_pool(tmp_path / "pool.jsonl", tmp_path / "emb.bin", 5, rows=300)
    common = ["--pool", tmp_path / "pool.jsonl", "--embeddings", tmp_path / "emb.bin"]
    expected = {
        "weighted_task_diversity": {"pool.load_pool", "selectors.run_strategy", "scoring.task_mean",
                                    "allocation.weighted", "selectors.round_robin",
                                    "selectors.manifest"},
        "k_center": {"pool.load_pool", "selectors.run_strategy", "pool.embedding_matrix",
                     "selectors.k_center", "selectors.manifest"},
    }
    for strategy, names in expected.items():
        args = ["select", *common, "--strategy", strategy, "--budget", "40"]
        plain, traced = tmp_path / f"{strategy}.json", tmp_path / f"{strategy}.traced.json"
        env = run.child_env()
        cli = [sys.executable, "-m", "taskpick.cli", *args, "--output", plain]
        subprocess.run([str(a) for a in cli], env=env, check=True, capture_output=True)
        spans_path = tmp_path / f"{strategy}.spans.json"
        tracer = [sys.executable, run.HERE / "traced.py", spans_path, "--", *args, "--output", traced]
        subprocess.run([str(a) for a in tracer], env=env, check=True, capture_output=True)
        spans = json.loads(spans_path.read_text())["spans"]
        assert names <= {name for name, *_ in spans}
        ours, theirs = json.loads(traced.read_text()), json.loads(plain.read_text())
        assert ours["selected_ids"] == theirs["selected_ids"] and ours["per_task"] == theirs["per_task"]
