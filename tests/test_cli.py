import gc
import inspect
import json
import os
import re
import stat
import warnings

import numpy as np
import pytest

import taskpick
from conftest import SRC, run_python, write_pool
from taskpick import cli
from taskpick.allocation import allocate_weighted
from taskpick.cli import build_parser, main
from taskpick.pool import load_pool, write_embeddings
from taskpick.selectors import _SCORED_STRATEGIES, StrategyConfig, select_dpp


def toy_pool(tmp_path):
    rows = []
    for task, size in (("a", 3), ("b", 10), ("c", 10)):
        for i in range(size):
            rows.append({"id": f"{task}{i}", "task": task, "confidence": 0.5})
    return write_pool(tmp_path / "pool.jsonl", rows)


def dolly_shaped_pool(tmp_path, rng):
    # 8 categories with uneven sizes and confidences
    sizes = [3, 12, 20, 7, 30, 15, 9, 25]
    rows = []
    for t, size in enumerate(sizes):
        for i in range(size):
            rows.append(
                {
                    "id": f"cat{t}-{i}",
                    "task": f"category_{t}",
                    "confidence": float(rng.uniform(0.05, 0.95)),
                }
            )
    return write_pool(tmp_path / "dolly.jsonl", rows)


class TestScore:
    def test_full_trace_pool_yields_all_scores(self, tmp_path):
        pool = write_pool(
            tmp_path / "p.jsonl",
            [{"id": "x", "task": "t", "token_probs": [[0.9, 0.1], [0.8, 0.2]]}],
        )
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--pool", pool, "--output", str(out)]) == 0
        row = json.loads(out.read_text())
        assert set(row) == {
            "id", "confidence", "log_confidence", "mean_entropy", "mean_margin", "min_margin"
        }

    def test_confidence_only_pool_omits_other_scores(self, tmp_path):
        pool = write_pool(tmp_path / "p.jsonl", [{"id": "x", "task": "t", "confidence": 0.4}])
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--pool", pool, "--output", str(out)]) == 0
        row = json.loads(out.read_text())
        assert set(row) == {"id", "confidence", "log_confidence"}

    def test_rerun_is_byte_identical(self, tmp_path):
        pool = write_pool(
            tmp_path / "p.jsonl",
            [{"id": "x", "task": "t", "token_probs": [[0.7, 0.2], [0.6, 0.3]]}],
        )
        out = tmp_path / "scores.jsonl"
        main(["score", "--pool", pool, "--output", str(out)])
        first = out.read_bytes()
        main(["score", "--pool", pool, "--output", str(out)])
        assert out.read_bytes() == first


class TestSelect:
    def test_task_diversity_manifest(self, tmp_path):
        pool = toy_pool(tmp_path)
        out = tmp_path / "manifest.json"
        code = main(
            [
                "select",
                "--pool",
                pool,
                "--strategy",
                "task_diversity",
                "--budget",
                "13",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads(out.read_text())
        assert manifest["per_task"] == {"a": 3, "b": 5, "c": 5}
        assert manifest["strategy"] == "task_diversity"
        assert manifest["seed"] == 0
        assert manifest["params"]["budget"] == 13
        assert manifest["inputs"]["pool"] == pool
        assert len(manifest["selected_ids"]) == 13

    def test_weighted_on_eight_task_pool(self, tmp_path, rng):
        pool = dolly_shaped_pool(tmp_path, rng)
        out = tmp_path / "manifest.json"
        code = main(
            [
                "select",
                "--pool",
                pool,
                "--strategy",
                "weighted_task_diversity",
                "--budget",
                "60",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads(out.read_text())
        assert len(manifest["per_task"]) == 8
        for row in manifest["allocation"]:
            assert row["selected"] >= min(5, row["available"])

    def test_budget_above_pool_caps_with_warning(self, tmp_path):
        pool = write_pool(
            tmp_path / "p.jsonl", [{"id": f"x{i}", "task": "t"} for i in range(4)]
        )
        out = tmp_path / "m.json"
        code = main(
            [
                "select",
                "--pool",
                pool,
                "--strategy",
                "random",
                "--budget",
                "10",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads(out.read_text())
        assert len(manifest["selected_ids"]) == 4
        assert any("exceeds" in w for w in manifest["warnings"])

    def test_identical_config_gives_identical_manifest(self, tmp_path):
        pool = toy_pool(tmp_path)
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = [
            "select",
            "--pool",
            pool,
            "--strategy",
            "weighted_task_diversity",
            "--budget",
            "12",
            "--seed",
            "42",
        ]
        main(args + ["--output", str(out1)])
        main(args + ["--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_scores_cache_created_then_reused(self, tmp_path):
        rows = [
            {"id": f"x{i}", "task": "t", "token_probs": [[0.9, 0.1], [0.5, 0.3]]}
            for i in range(6)
        ]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        cache = tmp_path / "scores.jsonl"
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = [
            "select",
            "--pool",
            pool,
            "--strategy",
            "mean_entropy",
            "--budget",
            "3",
            "--scores-cache",
            str(cache),
        ]
        assert main(args + ["--output", str(out1)]) == 0
        assert cache.exists()
        cache_bytes = cache.read_bytes()
        assert main(args + ["--output", str(out2)]) == 0
        assert cache.read_bytes() == cache_bytes
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "strategy",
        ["least_confidence", "mean_entropy", "mean_margin", "min_margin",
         "weighted_task_diversity", "active_it"],
    )
    def test_cached_manifest_matches_uncached_past_underflow(self, tmp_path, strategy):
        # 700 positions at p=0.3: the sequence confidence underflows to 0.0
        rows = [
            {"id": f"x{i}", "task": f"t{i % 2}", "token_probs": [[0.3, 0.2]] * (700 if i < 2 else 3)}
            for i in range(6)
        ]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        cache = tmp_path / "scores.jsonl"
        assert main(["score", "--pool", pool, "--output", str(cache)]) == 0
        manifests = []
        for extra in ([], ["--scores-cache", str(cache)]):
            out = tmp_path / "m.json"
            args = ["select", "--pool", pool, "--strategy", strategy, "--budget", "3"]
            assert main(args + extra + ["--output", str(out)]) == 0
            manifest = json.loads(out.read_text())
            manifest["inputs"].pop("scores_cache")
            manifests.append(manifest)
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("kind", ["confidence", "token_probs"])
    def test_cache_of_another_pool_exits_with_one_error_line(self, tmp_path, capsys, kind):
        # pools A and B share ids and differ only in which record is the less confident
        def rows(low, high):
            if kind == "confidence":
                values = {"a": low, "b": high}
            else:
                values = {"a": [[low, 0.05]], "b": [[high, 0.05]]}
            return [{"id": rec_id, "task": "t", kind: value} for rec_id, value in values.items()]

        pool_a = write_pool(tmp_path / "a.jsonl", rows(0.2, 0.9))
        pool_b = write_pool(tmp_path / "b.jsonl", rows(0.9, 0.2))
        cache = tmp_path / "scores.jsonl"
        assert main(["score", "--pool", pool_a, "--output", str(cache)]) == 0
        capsys.readouterr()
        out = tmp_path / "m.json"
        code = main(["select", "--pool", pool_b, "--strategy", "least_confidence", "--budget", "1",
                     "--scores-cache", str(cache), "--output", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out.exists()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cache}:1: record 'a': ")
        assert err[0].endswith("re-run `taskpick score` to rewrite the cache")

    @pytest.mark.parametrize("flags", [("--strategy", "random", "--budget", "0"),
                                       ("--strategy", "dpp", "--budget", "1")])
    def test_failed_select_writes_no_scores_cache(self, tmp_path, capsys, flags):
        pool = toy_pool(tmp_path)  # no embeddings, so dpp fails at dispatch
        cache, out = tmp_path / "scores.jsonl", tmp_path / "m.json"
        code = main(["select", "--pool", pool, *flags, "--scores-cache", str(cache),
                     "--output", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out.exists() and not cache.exists()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_only_scored_strategies_use_the_scores_cache(self, tmp_path, capsys):
        # record 'a' cannot be scored, which random never needs to do
        rows = [{"id": "a", "task": "t", "token_probs": [[0.0, 0.0]]},
                {"id": "b", "task": "t", "confidence": 0.5}]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        cache, out = tmp_path / "scores.jsonl", tmp_path / "m.json"
        base = ["select", "--pool", pool, "--budget", "1", "--output", str(out)]
        assert main([*base, "--strategy", "random"]) == 0
        expected = out.read_bytes()
        assert main([*base, "--strategy", "random", "--scores-cache", str(cache)]) == 0
        assert out.read_bytes() == expected and not cache.exists()
        capsys.readouterr()
        assert main([*base, "--strategy", "least_confidence", "--scores-cache", str(cache)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "realized-token probability 0" in err[0]

    def test_kernel_flags_are_checked_only_for_geometric_strategies(self, tmp_path, capsys):
        rows = [{"id": f"x{i}", "task": "t", "embedding": [float(i), 1.0]} for i in range(4)]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        out = tmp_path / "m.json"
        flags = ["select", "--pool", pool, "--budget", "2", "--kernel", "rbf", "--gamma", "-1",
                 "--output", str(out)]
        assert main([*flags, "--strategy", "random"]) == 0
        out.unlink()
        capsys.readouterr()
        assert main([*flags, "--strategy", "dpp"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert not out.exists()
        assert err == ["error: rbf kernel needs gamma > 0, got -1.0"]

    @pytest.mark.parametrize("strategy", ["facility_location", "dpp"])
    def test_huge_rbf_gamma_runs_without_warnings(self, tmp_path, strategy):
        rows = [{"id": f"x{i}", "task": "t", "embedding": point}
                for i, point in enumerate([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["select", "--pool", pool, "--strategy", strategy, "--kernel", "rbf",
                         "--gamma", "1e308", "--budget", "2", "--output", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["selected_ids"]) == 2

    def test_outputs_follow_the_umask(self, tmp_path):
        pool = toy_pool(tmp_path)
        old = os.umask(0o022)
        try:
            assert main(["score", "--pool", pool, "--output", str(tmp_path / "s.jsonl")]) == 0
            args = ["select", "--pool", pool, "--strategy", "random", "--budget", "2"]
            assert main(args + ["--output", str(tmp_path / "m.json")]) == 0
        finally:
            os.umask(old)
        for name in ("s.jsonl", "m.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644

    def test_geometric_with_sidecar(self, tmp_path, rng):
        rows = [{"id": f"x{i}", "task": f"t{i % 2}"} for i in range(12)]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        sidecar = tmp_path / "emb.bin"
        write_embeddings(sidecar, rng.normal(size=(12, 4)).astype(np.float32))
        out = tmp_path / "m.json"
        code = main(
            [
                "select",
                "--pool",
                pool,
                "--embeddings",
                str(sidecar),
                "--strategy",
                "facility_location",
                "--kernel",
                "rbf",
                "--gamma",
                "0.002",
                "--budget",
                "5",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads(out.read_text())
        assert manifest["params"]["gamma"] == 0.002
        assert len(manifest["objective_trace"]) == 5

    @pytest.mark.parametrize(
        "strategy, flags, params",
        [
            ("facility_location", ("--gamma", "0.002"), {"kernel": "rbf", "gamma": 0.002}),
            ("facility_location", (), {"kernel": "rbf", "gamma": 0.1}),
            ("dpp", ("--kernel", "rbf"), {"kernel": "rbf", "gamma": 0.1}),
            ("dpp", ("--gamma", "0.002"), {"kernel": "euclidean", "gamma": None}),
        ],
    )
    def test_gamma_applies_to_the_default_rbf_kernel(self, tmp_path, strategy, flags, params):
        rows = [{"id": f"x{i}", "task": "t", "embedding": [float(i), 1.0]} for i in range(4)]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        out = tmp_path / "m.json"
        code = main(["select", "--pool", pool, "--strategy", strategy, "--budget", "1",
                     "--output", str(out), *flags])
        assert code == 0
        manifest = json.loads(out.read_text())
        assert {k: manifest["params"].get(k) for k in params} == params

    def test_missing_pool_file_fails_without_output(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            [
                "select",
                "--pool",
                str(tmp_path / "absent.jsonl"),
                "--strategy",
                "random",
                "--budget",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()

    def test_unknown_strategy_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["select", "--pool", "p", "--strategy", "nope", "--budget", "1", "--output", "o"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [("--strategy", "facility_location", "--kernel", "rbf", "--gamma", "inf"),
         ("--strategy", "dpp", "--jitter", "inf")],
    )
    def test_non_finite_kernel_parameters_exit_with_one_error_line(self, tmp_path, capsys, flags):
        rows = [{"id": f"x{i}", "task": "t", "embedding": [float(i), 1.0]} for i in range(4)]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        out = tmp_path / "m.json"
        code = main(["select", "--pool", pool, "--budget", "3", "--output", str(out), *flags])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out.exists()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "flags",
        [("--strategy", "weighted_task_diversity", "--base-allocation", str(10**23)),
         ("--strategy", "random", "--budget", str(10**400)),
         *(("--strategy", strategy, "--seed", str(10**400))
           for strategy in ("k_center", "facility_location", "dpp"))],
    )
    def test_integers_a_manifest_cannot_hold_exit_with_one_error_line(
        self, tmp_path, capsys, flags
    ):
        rows = [{"id": f"x{i}", "task": "t", "confidence": 0.5, "embedding": [float(i), 1.0]}
                for i in range(4)]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        out = tmp_path / "m.json"
        options = {"--budget": "3", **dict(zip(flags[::2], flags[1::2]))}
        code = main(["select", "--pool", pool, "--output", str(out), *sum(options.items(), ())])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out.exists()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("field", ["confidence", "token_probs", "embedding", "log_confidence"])
    def test_huge_integer_exits_with_one_error_line(self, tmp_path, capsys, field):
        huge = "1" + "0" * 400
        row = {"id": "x", "task": "t", "confidence": 0.5, "embedding": [0.0, 1.0]}
        cache = tmp_path / "scores.jsonl"
        if field == "log_confidence":
            cache.write_text(f'{{"id": "x", "confidence": 0.5, "log_confidence": -{huge}}}\n')
        else:
            row[field] = "HUGE" if field == "confidence" else (
                [["HUGE", 0.0]] if field == "token_probs" else ["HUGE", 1.0])
        pool = tmp_path / "p.jsonl"
        pool.write_text(json.dumps(row).replace('"HUGE"', huge) + "\n")
        out = tmp_path / "m.json"
        code = main(["select", "--pool", str(pool), "--strategy", "least_confidence",
                     "--budget", "1", "--scores-cache", str(cache), "--output", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out.exists()
        if field == "log_confidence":
            assert err == [f"error: {cache}:1: record 'x': cached scores differ from this pool's;"
                           " re-run `taskpick score` to rewrite the cache"]
        else:
            assert err == [f"error: {pool}:1: integer of 401 digits does not fit a float"]

    @pytest.mark.parametrize("target", ["pool", "scores_cache", "report"])
    def test_non_utf8_input_exits_with_one_error_line(self, tmp_path, capsys, target):
        pool = tmp_path / "p.jsonl"
        cache = tmp_path / "scores.jsonl"
        manifest = tmp_path / "m.json"
        write_pool(pool, [{"id": "x", "task": "t", "confidence": 0.5}])
        cache.write_text('{"id": "x", "confidence": 0.5, "log_confidence": -0.6931471805599453}\n')
        assert main(["select", "--pool", str(pool), "--strategy", "random", "--budget", "1",
                     "--output", str(manifest)]) == 0
        bad = {"pool": pool, "scores_cache": cache, "report": manifest}[target]
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        capsys.readouterr()
        if target == "report":
            code = main(["report", str(manifest)])
        else:
            code = main(["select", "--pool", str(pool), "--strategy", "least_confidence",
                         "--budget", "1", "--scores-cache", str(cache),
                         "--output", str(tmp_path / "out.json")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize("field", ["id", "task"])
    @pytest.mark.parametrize("strategy", ["task_diversity", "weighted_task_diversity", "active_it"])
    def test_lone_surrogate_exits_with_one_error_line(self, tmp_path, capsys, strategy, field):
        # "\ud800" is valid JSON for a string that is not valid Unicode
        rows = [{"id": i, "task": "t", "confidence": 0.5} for i in "ab"]
        rows[1][field] = "\ud800"
        pool = write_pool(tmp_path / "p.jsonl", rows)
        out = tmp_path / "m.json"
        code = main(["select", "--pool", pool, "--strategy", strategy, "--budget", "2",
                     "--output", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out.exists()
        assert err == [f"error: {pool}:2: '{field}' holds a lone surrogate, which is not valid Unicode"]

    @pytest.mark.parametrize("kernel", ["euclidean", "rbf", "cosine"])
    @pytest.mark.parametrize("strategy", ["dpp", "k_center", "facility_location"])
    def test_embeddings_whose_squares_overflow_exit_with_one_error_line(
        self, tmp_path, capsys, strategy, kernel
    ):
        rows = [{"id": "x", "task": "t", "embedding": [1e200, 0.0]},
                {"id": "y", "task": "t", "embedding": [0.0, 1.0]}]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        out = tmp_path / "m.json"
        code = main(["select", "--pool", pool, "--strategy", strategy, "--kernel", kernel,
                     "--budget", "2", "--output", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out.exists()
        assert len(err) == 1 and err[0].startswith("error:")
        if strategy != "k_center" or kernel == "euclidean":
            assert "overflow" in err[0]

    @pytest.mark.parametrize("strategy, kernel, memory, message", [
        ("k_center", "euclidean", 47, "the kernel needs 2 x 3 float64 rows (48 bytes)"),
        ("facility_location", "rbf", 47, "the kernel needs 2 x 3 float64 rows (48 bytes)"),
        ("dpp", "rbf", 79, "dpp with the rbf kernel needs a 2 x 2 float64 factor"
                           " and the kernel's rows (80 bytes)"),
    ])
    def test_memory_beyond_physical_exits_with_one_error_line(
        self, tmp_path, capsys, monkeypatch, strategy, kernel, memory, message
    ):
        rows = [{"id": "x", "task": "t", "embedding": [1.0]},
                {"id": "y", "task": "t", "embedding": [0.0]}]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        out = tmp_path / "m.json"
        sysconf = os.sysconf
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
        monkeypatch.setattr(os, "sysconf", lambda name: sizes.get(name) or sysconf(name))
        code = main(["select", "--pool", pool, "--strategy", strategy, "--kernel", kernel,
                     "--budget", "2", "--output", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out.exists()
        assert err == [f"error: {message}; physical memory is {memory} bytes"]

    def test_strategy_error_exits_nonzero(self, tmp_path):
        pool = write_pool(tmp_path / "p.jsonl", [{"id": "x", "task": "t"}])
        out = tmp_path / "m.json"
        code = main(
            [
                "select",
                "--pool",
                pool,
                "--strategy",
                "k_center",
                "--budget",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 1  # no embeddings anywhere
        assert not out.exists()


class TestReport:
    def test_report_allocation_manifest(self, tmp_path, capsys):
        pool = toy_pool(tmp_path)
        out = tmp_path / "m.json"
        main(
            [
                "select",
                "--pool",
                pool,
                "--strategy",
                "task_diversity",
                "--budget",
                "13",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "task_diversity" in captured
        lines = [l for l in captured.splitlines() if l.startswith(("a", "b", "c"))]
        counts = [int(l.split()[1]) for l in lines]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == 13

    def test_report_trace_summary(self, tmp_path, rng, capsys):
        rows = [{"id": f"x{i}", "task": "t"} for i in range(8)]
        pool = write_pool(tmp_path / "p.jsonl", rows)
        sidecar = tmp_path / "emb.bin"
        write_embeddings(sidecar, rng.normal(size=(8, 3)).astype(np.float32))
        out = tmp_path / "m.json"
        main(
            [
                "select",
                "--pool",
                pool,
                "--embeddings",
                str(sidecar),
                "--strategy",
                "dpp",
                "--budget",
                "3",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "objective trace: 3 steps" in capsys.readouterr().out

    def test_report_prints_confidences_and_warnings(self, tmp_path, capsys):
        # a weighted allocation carries task confidences, and a budget over
        # the pool size a warning
        out = tmp_path / "m.json"
        assert main(["select", "--pool", toy_pool(tmp_path), "--strategy", "weighted_task_diversity",
                     "--budget", "30", "--output", str(out)]) == 0
        warnings = json.loads(out.read_text())["warnings"]
        assert warnings
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("task"))
        assert header.split() == ["task", "selected", "available", "alpha", "ceil", "confidence"]
        rows = [line.split() for line in lines if line.startswith(("a ", "b ", "c "))]
        assert len(rows) == 3 and all(float(row[-1]) == 0.5 for row in rows)
        assert [line for line in lines if line.startswith("warning:")] == [
            f"warning: {note}" for note in warnings
        ]

    @pytest.mark.parametrize("manifest", [[], "m", 3, None])
    def test_manifest_that_is_not_an_object(self, tmp_path, capsys, manifest):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(manifest))
        assert main(["report", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: manifest is not an object"]

    def test_corrupted_manifest(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_missing_keys(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"strategy": "random"}))
        assert main(["report", str(bad)]) == 1

    @pytest.mark.parametrize(
        "manifest",
        [
            {"strategy": "x", "per_task": {"a": 1}, "selected_ids": ["a"],
             "allocation": [{"task": "a", "available": 1, "alpha": 1.0, "alpha_ceil": 1}]},
            {"strategy": "x", "per_task": {"a": 1}, "selected_ids": ["a"], "params": ["budget"]},
            {"strategy": "x", "per_task": {"a": 1}, "selected_ids": ["a"], "allocation": ["a"]},
            {"strategy": "x", "per_task": {"a": 1}, "selected_ids": ["a"], "objective_trace": [10**400]},
            {"strategy": "x", "per_task": {"\ud800": 1}, "selected_ids": ["a"]},
            {"strategy": "x", "per_task": {"a": 1}, "selected_ids": ["a"], "warnings": ["\udfff"]},
            {"strategy": "x", "per_task": {"a": True}, "selected_ids": ["a"]},
            {"strategy": "x", "per_task": {"a": 1}, "selected_ids": ["a"],
             "allocation": [{"task": "a", "selected": True, "available": 1, "alpha": 1.0,
                             "alpha_ceil": 1}]},
            {"strategy": "x", "per_task": {"a": 1}, "selected_ids": ["a"],
             "objective_trace": [1.0, True]},
        ],
    )
    def test_malformed_manifest_shapes_exit_with_one_error_line(self, tmp_path, capsys, manifest):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(manifest))
        assert main(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1


def report_pool(tmp_path):
    """23 records in three tasks, each with a two-position token trace and a
    4-d embedding in a sidecar; returns the pool and sidecar paths."""
    rows, vectors = [], []
    for task, top in (("a", 0.55), ("b", 0.7), ("c", 0.9)):
        for i in range(10 if task != "a" else 3):
            p = top - 0.01 * i
            rows.append({"id": f"{task}{i}", "task": task, "token_probs": [[p, 1 - p], [0.8, 0.2]]})
            n = len(vectors)
            vectors.append([n % 3, n * 7 % 5, n * 3 % 4, 1.0])
    sidecar = tmp_path / "emb.bin"
    write_embeddings(sidecar, np.array(vectors, dtype=np.float32))
    return write_pool(tmp_path / "pool.jsonl", rows), str(sidecar)


# `report`'s stdout for manifests `select` writes from report_pool, and for
# two hand-written ones, recorded before report moved to taskpick.manifest
REPORT_SELECTS = {
    "weighted_task_diversity": ("--strategy", "weighted_task_diversity", "--budget", "19"),
    "task_diversity": ("--strategy", "task_diversity", "--budget", "13"),
    "random": ("--strategy", "random", "--budget", "5", "--seed", "7"),
    "dpp": ("--strategy", "dpp", "--budget", "3"),
    "over_budget": ("--strategy", "weighted_task_diversity", "--budget", "30"),
}
REPORT_MANIFESTS = {
    "mixed_confidence": {
        "strategy": "hand", "seed": None, "params": {"budget": 4, "note": "x"},
        "selected_ids": ["a0", "a1", "b0", "c0"], "per_task": {"a": 2, "b": 1, "c": 1},
        "allocation": [
            {"task": "a", "selected": 2, "available": 3, "alpha": 2, "alpha_ceil": 2,
             "confidence": 0.25},
            {"task": "b", "selected": 1, "available": 5, "alpha": 1.5, "alpha_ceil": 2},
            {"task": "c", "selected": 1, "available": 1, "alpha": 0.5, "alpha_ceil": 1,
             "confidence": 3},
        ],
        "warnings": ["first note", "second note"],
    },
    "empty_per_task": {"strategy": "hand", "per_task": {}, "selected_ids": []},
}
REPORT_PINS = {
    "weighted_task_diversity": (
        "strategy: weighted_task_diversity\n"
        "seed: 0\n"
        "params: base=5, budget=19\n"
        "selected: 19\n"
        "task                         selected  available     alpha  ceil  confidence\n"
        "b                                   9         10      9.06    10       0.524\n"
        "c                                   7         10      6.94     7       0.684\n"
        "a                                   3          3      3.00     3       0.432\n"
    ),
    "task_diversity": (
        "strategy: task_diversity\n"
        "seed: 0\n"
        "params: budget=13\n"
        "selected: 13\n"
        "task                         selected  available     alpha  ceil\n"
        "b                                   5         10      5.00     5\n"
        "c                                   5         10      5.00     5\n"
        "a                                   3          3      3.00     3\n"
    ),
    "random": (
        "strategy: random\n"
        "seed: 7\n"
        "params: budget=5\n"
        "selected: 5\n"
        "task                         selected\n"
        "b                                   2\n"
        "c                                   2\n"
        "a                                   1\n"
    ),
    "dpp": (
        "strategy: dpp\n"
        "seed: 0\n"
        "params: budget=3, jitter=1e-06, kernel=euclidean\n"
        "selected: 3\n"
        "task                         selected\n"
        "c                                   2\n"
        "b                                   1\n"
        "a                                   0\n"
        "objective trace: 3 steps, first=3.4012, last=6.57925\n"
    ),
    "over_budget": (
        "strategy: weighted_task_diversity\n"
        "seed: 0\n"
        "params: base=5, budget=30\n"
        "selected: 23\n"
        "task                         selected  available     alpha  ceil  confidence\n"
        "b                                  10         10     10.00    10       0.524\n"
        "c                                  10         10     10.00    10       0.684\n"
        "a                                   3          3      3.00     3       0.432\n"
        "warning: budget 30 exceeds pool size 23; capped at 23\n"
        "warning: allocation exhausted after 23 of 30 requested examples\n"
    ),
    "mixed_confidence": (
        "strategy: hand\n"
        "seed: None\n"
        "params: budget=4, note=x\n"
        "selected: 4\n"
        "task                         selected  available     alpha  ceil  confidence\n"
        "a                                   2          3      2.00     2        0.25\n"
        "b                                   1          5      1.50     2         nan\n"
        "c                                   1          1      0.50     1           3\n"
        "warning: first note\n"
        "warning: second note\n"
    ),
    "empty_per_task": (
        "strategy: hand\n"
        "seed: None\n"
        "params: \n"
        "selected: 0\n"
        "task                         selected\n"
    ),
}


@pytest.mark.parametrize("name", [*REPORT_SELECTS, *REPORT_MANIFESTS])
def test_report_output_is_pinned(tmp_path, capsys, name):
    manifest = tmp_path / "m.json"
    if name in REPORT_SELECTS:
        pool, sidecar = report_pool(tmp_path)
        assert main(["select", "--pool", pool, "--embeddings", sidecar, *REPORT_SELECTS[name],
                     "--output", str(manifest)]) == 0
    else:
        manifest.write_text(json.dumps(REPORT_MANIFESTS[name]))
    capsys.readouterr()
    assert main(["report", str(manifest)]) == 0
    assert capsys.readouterr().out == REPORT_PINS[name]


@pytest.mark.parametrize("module", ["numpy.random", "hashlib", "_hashlib"])
def test_importing_the_cli_leaves_numpy_random_and_hashlib_unloaded(module):
    # numpy imports numpy.random on first use, at 10 ms or more, and hashlib
    # starts OpenSSL in 3-5 ms; a command that draws no random numbers, or
    # hashes no task label, should not pay for either at import
    code = f"import sys, taskpick.cli; print({module!r} in sys.modules)"
    out = run_python("-c", code, check=True)
    assert out.stdout == "False\n"


def test_output_path_that_is_a_directory_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    code = main(["select", "--pool", toy_pool(tmp_path), "--strategy", "random", "--budget", "2",
                 "--output", str(target)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:")
    assert target.is_dir() and not any(target.iterdir())
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".taskpick-tmp-")]


def run_module(*args, timeout=60):
    """Run ``python -m taskpick.cli`` on ``args`` against this checkout."""
    return run_python("-m", "taskpick.cli", *args, timeout=timeout)


def test_every_strategy_round_trips_through_report(tmp_path, capsys):
    pool, sidecar = report_pool(tmp_path)
    warned = set()
    collector = gc.get_freeze_count(), gc.isenabled()
    for strategy in taskpick.STRATEGIES:
        manifest = tmp_path / f"{strategy}.json"
        assert main(["select", "--pool", pool, "--embeddings", sidecar, "--strategy", strategy,
                     "--budget", "6", "--output", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["report", str(manifest)]) == 0
        lines = capsys.readouterr().out.splitlines()
        written = json.loads(manifest.read_text())
        assert written["strategy"] == strategy and lines[0] == f"strategy: {strategy}"
        assert f"selected: {len(written['selected_ids'])}" in lines
        assert [line for line in lines if line.startswith("warning: ")] == [
            f"warning: {note}" for note in written["warnings"]
        ]
        warned.update([strategy] if written["warnings"] else [])
    # floors over budget; a rank-4 kernel; near ties between integer points
    assert warned == {"weighted_task_diversity", "dpp", "k_center", "facility_location"}
    # only the process entry point freezes the collector, never main
    assert (gc.get_freeze_count(), gc.isenabled()) == collector

    # a successful select writes nothing to stderr, so importing the package
    # does not import taskpick.cli ahead of runpy
    manifest = tmp_path / "module.json"
    run = run_module("select", "--pool", pool, "--strategy", "task_diversity", "--budget", "6",
                     "--output", str(manifest))
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(manifest.read_text())["warnings"] == []
    # neither entry point, -m or the console script's target, loses a line
    # main prints; the script's atexit handler still runs, and finds the
    # collector frozen
    assert main(["report", str(manifest)]) == 0
    printed = capsys.readouterr().out
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
        module, function = re.search(r'^taskpick = "(.+):(.+)"$', fh.read(), re.M).groups()
    script = ("import atexit, gc, sys; atexit.register(lambda: print(gc.get_freeze_count() > 0,"
              f" file=sys.stderr)); from {module} import {function}; sys.exit({function}())")
    run = run_module("report", str(manifest))
    assert (run.returncode, run.stdout, run.stderr) == (0, printed, "")
    run = run_python("-c", script, "report", str(manifest))
    assert (run.returncode, run.stdout, run.stderr) == (0, printed, "True\n")


@pytest.mark.parametrize("depth", [995, 100_000])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, depth):
    nested = "[" * depth + "]" * depth
    pool = tmp_path / "pool.jsonl"
    pool.write_text(f'{{"id": "a", "task": "t", "token_probs": {nested}}}\n')
    out = tmp_path / "m.json"
    assert main(["select", "--pool", str(pool), "--strategy", "random", "--budget", "1",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {pool}:1: invalid JSON (nested too deeply)"
    ]
    assert not out.exists()

    out.write_text(f'{{"strategy": "x", "per_task": {{}}, "selected_ids": {nested}}}')
    assert main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {out}: invalid JSON (nested too deeply)"]


@pytest.mark.parametrize("command", [["score"], ["select", "--strategy", "random", "--budget", "2"],
                                     ["select", "--strategy", "least_confidence", "--budget", "2",
                                      "--scores-cache", "new-cache.jsonl"]])
def test_output_path_that_is_a_fifo_is_refused(tmp_path, capsys, monkeypatch, command):
    # a FIFO or a directory is refused before the pool is read; no temp file
    # is left and, as for any failed select, no new cache written
    monkeypatch.chdir(tmp_path)
    pool = toy_pool(tmp_path)
    loads = []
    monkeypatch.setattr(cli, "load_pool", lambda *args: loads.append(args) or load_pool(*args))
    os.mkfifo("out")
    os.mkdir("dir")
    for output in ("out", "dir"):
        code = main([command[0], "--pool", pool, *command[1:], "--output", output])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {output} exists and is not a regular file"]
    assert loads == []
    assert stat.S_ISFIFO(os.stat("out").st_mode) and not any(os.scandir("dir"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out", "pool.jsonl"]


def test_scores_cache_that_is_a_fifo_is_refused_without_blocking(tmp_path):
    # in a subprocess, so that opening the FIFO to read would time out
    # here instead of stalling the suite
    fifo = tmp_path / "scores.jsonl"
    os.mkfifo(fifo)
    out = tmp_path / "m.json"
    run = run_module("select", "--pool", toy_pool(tmp_path), "--strategy", "least_confidence",
                     "--budget", "2", "--scores-cache", str(fifo), "--output", str(out), timeout=30)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [f"error: {fifo} exists and is not a regular file"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and not out.exists()


@pytest.mark.parametrize("pool, command, output, named", [
    ("pool.jsonl", ["select", "--strategy", "random"], "pool.jsonl", "pool.jsonl"),
    ("pool.jsonl", ["select", "--strategy", "k_center"], "emb.bin", "emb.bin"),
    ("pool.jsonl", ["select", "--strategy", "least_confidence", "--scores-cache", "scores.jsonl"],
     "scores.jsonl", "scores.jsonl"),
    ("pool.jsonl", ["select", "--strategy", "least_confidence", "--scores-cache", "new.jsonl"],
     "new.jsonl", "new.jsonl"),
    ("pool.jsonl", ["score"], "pool.jsonl", "pool.jsonl"),
    ("pool.jsonl", ["score"], "emb.bin", "emb.bin"),
    ("link.jsonl", ["select", "--strategy", "random"], "pool.jsonl", "link.jsonl"),
])
def test_output_that_names_an_input_is_refused(tmp_path, capsys, monkeypatch, pool, command,
                                               output, named):
    # every input keeps its bytes, and no manifest, scores cache or temp file is written
    monkeypatch.chdir(tmp_path)
    write_pool(tmp_path / "pool.jsonl",
               [{"id": f"r{i}", "task": f"t{i % 3}", "confidence": 0.1 + 0.08 * i} for i in range(10)])
    write_embeddings("emb.bin", np.arange(40, dtype=np.float32).reshape(10, 4))
    assert main(["score", "--pool", "pool.jsonl", "--output", "scores.jsonl"]) == 0
    os.symlink("pool.jsonl", "link.jsonl")  # so --pool link.jsonl reads pool.jsonl
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    budget = ["--budget", "3"] if command[0] == "select" else []
    code = main([command[0], "--pool", pool, "--embeddings", "emb.bin", *command[1:], *budget,
                 "--output", output])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: output {output} is the same file as input {named}"
    ]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_strategy_table_and_defaults_are_the_library_s():
    # argparse's choices are STRATEGIES, in this order; the flags' defaults are
    # StrategyConfig's, and so are the two public signatures' own literals
    assert taskpick.STRATEGIES == (
        "random", "least_confidence", "mean_entropy", "mean_margin", "min_margin", "task_diversity",
        "weighted_task_diversity", "active_it", "k_center", "facility_location", "dpp",
    )
    assert _SCORED_STRATEGIES == (
        "least_confidence", "mean_entropy", "mean_margin", "min_margin",
        "weighted_task_diversity", "active_it",
    )
    config = StrategyConfig("random", 1)
    args = build_parser().parse_args(["select", "--pool", "p", "--strategy", "random", "--budget", "1",
                                      "--output", "o"])
    assert (args.seed, args.base_allocation, args.jitter) == (config.seed, config.base, config.jitter)
    assert inspect.signature(select_dpp).parameters["jitter"].default == config.jitter
    assert inspect.signature(allocate_weighted).parameters["base"].default == config.base
