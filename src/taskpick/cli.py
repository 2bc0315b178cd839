"""Command-line interface: score a pool, select a subset, report a manifest.

Scoring is split out from selection so one scores cache can serve a
whole sweep of strategies and budgets over the same pool. Every output
is written atomically (temp file + rename) and reruns with identical
inputs produce byte-identical files.
"""

import argparse
import json
import os
import sys
import tempfile

from .errors import ParseError, TaskpickError
from .pool import _NUMBERS, _SURROGATE, _not_utf8, _parse_json, load_pool
from .scoring import read_scores, render_scores, score_pool
from .selectors import (
    _DEFAULT_KERNELS,
    STRATEGIES,
    KernelSpec,
    StrategyConfig,
    manifest_payload,
    run_strategy,
)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".taskpick-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; outputs follow the umask
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_score(args) -> int:
    pool = load_pool(args.pool, args.embeddings)
    scores = score_pool(pool)
    _atomic_write(args.output, render_scores(pool, scores))
    print(f"wrote scores for {len(pool)} records to {args.output}")
    return 0


def _resolve_kernel(args) -> KernelSpec | None:
    """--kernel, else the strategy's default kind, with --gamma applied when it is rbf."""
    kind = args.kernel or _DEFAULT_KERNELS.get(args.strategy)
    return None if kind is None else KernelSpec(kind, args.gamma if kind == "rbf" else None)


def cmd_select(args) -> int:
    pool = load_pool(args.pool, args.embeddings)

    scores = None
    new_cache = args.scores_cache and not os.path.exists(args.scores_cache)
    if args.scores_cache:
        scores = score_pool(pool) if new_cache else read_scores(args.scores_cache, pool)

    config = StrategyConfig(
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        base=args.base_allocation,
        kernel=_resolve_kernel(args),
        jitter=args.jitter,
    )
    result = run_strategy(pool, config, scores=scores)
    if new_cache:  # only once the selection has succeeded
        _atomic_write(args.scores_cache, render_scores(pool, scores))

    manifest = manifest_payload(result, pool)
    manifest["inputs"] = {
        "pool": args.pool,
        "embeddings": args.embeddings,
        "scores_cache": args.scores_cache,
    }
    _atomic_write(args.output, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(
        f"{result.strategy}: selected {len(result.selected)} of {len(pool)}"
        f" -> {args.output}"
    )
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return 0


# exact types, as the pool reader takes numbers: a JSON true is not a count
_ALLOCATION_ROW = {"task": {str}, "selected": {int}, "available": {int}, "alpha": _NUMBERS,
                   "alpha_ceil": {int}}
# key: (type, value when absent or null); None marks a required key
_MANIFEST = {"strategy": (str, None), "per_task": (dict, None), "selected_ids": (list, None),
             "params": (dict, {}), "allocation": (list, []), "objective_trace": (list, []),
             "warnings": (list, [])}


def cmd_report(args) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(args.manifest, exc) from exc
    manifest = _parse_json(text, args.manifest)
    if not isinstance(manifest, dict):
        raise ParseError(f"{args.manifest}: manifest is not an object")
    if _SURROGATE.search(json.dumps(manifest, ensure_ascii=False)):
        raise ParseError(f"{args.manifest}: manifest holds a lone surrogate, which is not valid Unicode")
    fields = []
    for key, (kind, default) in _MANIFEST.items():
        value = manifest.get(key)
        if value is None and default is None:
            raise ParseError(f"{args.manifest}: manifest is missing {key!r}")
        fields.append(default if value is None else value)
        if not isinstance(fields[-1], kind):
            raise ParseError(f"{args.manifest}: manifest {key!r} is not a {kind.__name__}")
    strategy, per_task, selected, params, allocation, trace, warnings = fields
    for row in allocation:
        if not isinstance(row, dict) or type(row.get("confidence", 0.0)) not in _NUMBERS or any(
            type(row.get(k)) not in kinds for k, kinds in _ALLOCATION_ROW.items()
        ):
            raise ParseError(f"{args.manifest}: malformed allocation row {row!r}")
    if any(type(v) is not int for v in per_task.values()) or not _NUMBERS.issuperset(
        map(type, trace)
    ):
        raise ParseError(f"{args.manifest}: manifest counts or trace values are not numbers")

    print(f"strategy: {strategy}")
    print(f"seed: {manifest.get('seed')}")
    print("params: " + ", ".join(f"{k}={v}" for k, v in sorted(params.items())))
    print(f"selected: {len(selected)}")

    if allocation:
        rows = sorted(allocation, key=lambda r: (-r["selected"], r["task"]))
        has_conf = any("confidence" in r for r in rows)
        header = f"{'task':<28}{'selected':>9}{'available':>11}{'alpha':>10}{'ceil':>6}"
        if has_conf:
            header += f"{'confidence':>12}"
        print(header)
        for r in rows:
            line = (
                f"{r['task']:<28}{r['selected']:>9}{r['available']:>11}"
                f"{r['alpha']:>10.2f}{r['alpha_ceil']:>6}"
            )
            if has_conf:
                line += f"{r.get('confidence', float('nan')):>12.4g}"
            print(line)
    else:
        print(f"{'task':<28}{'selected':>9}")
        for task, count in sorted(per_task.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{task:<28}{count:>9}")

    if trace:
        print(f"objective trace: {len(trace)} steps, first={trace[0]:.6g}, last={trace[-1]:.6g}")
    for note in warnings:
        print(f"warning: {note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskpick",
        description="Select which prompts to send for annotation under a fixed budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="compute per-example scores and cache them")
    score.add_argument("--pool", required=True, help="pool file (JSON lines)")
    score.add_argument("--embeddings", default=None, help="binary embedding sidecar")
    score.add_argument("--output", required=True, help="scores cache to write (JSON lines)")
    score.set_defaults(func=cmd_score)

    select = sub.add_parser("select", help="run a selection strategy and write a manifest")
    select.add_argument("--pool", required=True, help="pool file (JSON lines)")
    select.add_argument("--embeddings", default=None, help="binary embedding sidecar")
    select.add_argument("--strategy", required=True, choices=STRATEGIES)
    select.add_argument("--budget", required=True, type=int, help="number of prompts to select")
    select.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    select.add_argument(
        "--base-allocation",
        type=int,
        default=5,
        help="per-task floor for weighted_task_diversity (default: 5)",
    )
    select.add_argument(
        "--kernel",
        choices=("euclidean", "rbf", "cosine"),
        default=None,
        help="similarity for geometric strategies; default depends on the strategy"
        " (k_center/dpp: euclidean, facility_location: rbf)",
    )
    select.add_argument("--gamma", type=float, default=None, help="rbf bandwidth (default: 0.1)")
    select.add_argument(
        "--jitter", type=float, default=1e-6, help="dpp diagonal jitter (default: 1e-6)"
    )
    select.add_argument(
        "--scores-cache",
        default=None,
        help="scores cache path: loaded when present, computed and written when absent",
    )
    select.add_argument("--output", required=True, help="selection manifest to write (JSON)")
    select.set_defaults(func=cmd_select)

    report = sub.add_parser("report", help="print a per-task summary of a manifest")
    report.add_argument("manifest", help="selection manifest written by 'select'")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TaskpickError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
