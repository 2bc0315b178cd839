"""Command-line interface: score a pool, select a subset, report a manifest.

Scoring is split out from selection so one scores cache can serve a
whole sweep of strategies and budgets over the same pool. Every output
is written atomically (temp file + rename) and reruns with identical
inputs produce byte-identical files.
"""

import argparse
import gc
import json
import os
import sys
import tempfile

from .errors import ConfigError, TaskpickError
from .manifest import manifest_payload, report_lines
from .pool import load_pool
from .scoring import read_scores, render_scores, score_pool
from .selectors import (
    _DEFAULT_KERNELS,
    _KERNEL_KINDS,
    _SCORED_STRATEGIES,
    STRATEGIES,
    StrategyConfig,
    _resolve_kernel,
    run_strategy,
)


def _check_regular(path: str) -> None:
    # renaming over a FIFO or device node replaces it; reading a FIFO blocks
    if os.path.exists(path) and not os.path.isfile(path):
        raise ConfigError(f"{path} exists and is not a regular file")


def _check_output(args, cache: str | None = None) -> None:
    """Before any work: the output and the scores cache, which is both read
    and written, must be regular files or absent, and the output no input."""
    output = args.output
    for path in filter(None, (cache, output)):
        _check_regular(path)
    # renaming over an input replaces it; a scores cache that does not exist
    # yet can only be compared by its resolved path
    for path in filter(None, (args.pool, args.embeddings, cache)):
        if os.path.exists(output) and os.path.exists(path):
            same = os.path.samefile(output, path)
        else:
            same = os.path.realpath(output) == os.path.realpath(path)
        if same:
            raise ConfigError(f"output {output} is the same file as input {path}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".taskpick-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; outputs follow the umask
        _check_regular(path)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_score(args) -> int:
    _check_output(args)
    pool = load_pool(args.pool, args.embeddings)
    scores = score_pool(pool)
    _atomic_write(args.output, render_scores(pool, scores))
    print(f"wrote scores for {len(pool)} records to {args.output}")
    return 0


def cmd_select(args) -> int:
    cache = args.scores_cache if args.strategy in _SCORED_STRATEGIES else None
    _check_output(args, cache)  # before any work: a failed select writes no cache
    pool = load_pool(args.pool, args.embeddings)

    scores = None
    new_cache = cache and not os.path.exists(cache)
    if cache:
        scores = score_pool(pool) if new_cache else read_scores(cache, pool)

    config = StrategyConfig(
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        base=args.base_allocation,
        kernel=_resolve_kernel(args.strategy, args.kernel, args.gamma),
        jitter=args.jitter,
    )
    result = run_strategy(pool, config, scores=scores)
    if new_cache:  # only once the selection has succeeded
        _atomic_write(cache, render_scores(pool, scores))

    manifest = manifest_payload(result, pool)
    manifest["inputs"] = {"pool": args.pool, "embeddings": args.embeddings, "scores_cache": cache}
    _atomic_write(args.output, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"{result.strategy}: selected {len(result.selected)} of {len(pool)} -> {args.output}")
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    for line in report_lines(args.manifest):
        print(line)
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
    select.add_argument("--seed", type=int, default=StrategyConfig.seed,
                        help="sampling seed (default: %(default)s)")
    select.add_argument("--base-allocation", type=int, default=StrategyConfig.base,
                        help="per-task floor for weighted_task_diversity (default: %(default)s)")
    kernels = ", ".join(f"{name}: {kind}" for name, kind in _DEFAULT_KERNELS.items())
    select.add_argument("--kernel", choices=_KERNEL_KINDS, help="similarity for geometric strategies;"
                        f" default depends on the strategy ({kernels})")
    select.add_argument("--gamma", type=float, default=None, help="rbf bandwidth (default: 0.1)")
    select.add_argument("--jitter", type=float, default=StrategyConfig.jitter,
                        help="dpp diagonal jitter (default: %(default)s)")
    select.add_argument(
        "--scores-cache",
        default=None,
        help="scores cache path: loaded when present, computed and written when absent;"
        " only the uncertainty criteria, weighted_task_diversity and active_it use it",
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


def _run(argv=None) -> None:
    """The process entry point: ``main``, then exit with its status."""
    status = main(argv)
    # CPython's shutdown collections would walk the ~21K objects numpy and
    # taskpick leave tracked. Unlike os._exit this skips no atexit handler or
    # stream flush, and _atomic_write has closed every output by now. Only the
    # process does this: main, which tests call in-process, leaves gc alone.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    _run()
