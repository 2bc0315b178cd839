import json
import os
import warnings

import numpy as np
import pytest

from taskpick.cli import main
from taskpick.pool import write_embeddings


def write_pool(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path)


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
        code = main(["select", "--pool", str(pool), "--strategy", "random", "--budget", "1",
                     "--scores-cache", str(cache), "--output", str(out)])
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
