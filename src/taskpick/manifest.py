"""The selection manifest: ``select`` builds it, ``report`` reads, checks and
prints it. Only the CLI's ``inputs`` paths are spelled anywhere else."""

import json

from .allocation import ceil_allocation
from .errors import ParseError
from .pool import _NUMBERS, _SURROGATE, _not_utf8, _parse_json

# The allocation rows' columns, in report order: key -> (accepted types,
# report header, width, precision). Types are exact, as the pool reader
# takes numbers: a JSON true is not a count. Only the last column may be
# absent from a row; a per-task manifest prints the first two.
_COLUMNS = {
    "task": ({str}, "task", "<28", ""),
    "selected": ({int}, "selected", ">9", ""),
    "available": ({int}, "available", ">11", ""),
    "alpha": (_NUMBERS, "alpha", ">10", ".2f"),
    "alpha_ceil": ({int}, "ceil", ">6", ""),
    "confidence": (_NUMBERS, "confidence", ">12", ".4g"),
}
# key: (type, value when absent or null); None marks a required key
_MANIFEST = {"strategy": (str, None), "per_task": (dict, None), "selected_ids": (list, None),
             "params": (dict, {}), "allocation": (list, []), "objective_trace": (list, []),
             "warnings": (list, [])}


def _allocation_table(partition, allocation, result, task_conf=None) -> list[dict]:
    """One row per task, from columns in the partition's task order."""
    columns = [partition.tasks, [result.per_task[label] for label in partition.tasks],
               partition.counts.tolist(), allocation.alpha.tolist(),
               ceil_allocation(allocation.alpha).tolist()]  # in _COLUMNS order
    if task_conf is not None:
        columns.append(task_conf.tolist())
    return [dict(zip(_COLUMNS, row)) for row in zip(*columns)]


def manifest_payload(result, pool) -> dict:
    """Serializable selection manifest; keys are stable across runs."""
    ids = pool.ids()
    payload = {"strategy": result.strategy, "params": result.params, "seed": result.seed,
               "budget": result.params.get("budget"), "per_task": result.per_task,
               "selected_ids": [ids[i] for i in result.selected], "warnings": result.warnings}
    for key in ("objective_trace", "allocation", "stats"):  # written only when set
        if getattr(result, key) is not None:
            payload[key] = getattr(result, key)
    return payload


def report_lines(path: str) -> list[str]:
    """The lines ``taskpick report`` prints for the manifest at ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
    manifest = _parse_json(text, path)
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: manifest is not an object")
    if _SURROGATE.search(json.dumps(manifest, ensure_ascii=False)):
        raise ParseError(f"{path}: manifest holds a lone surrogate, which is not valid Unicode")
    fields = []
    for key, (kind, default) in _MANIFEST.items():
        value = manifest.get(key)
        if value is None and default is None:
            raise ParseError(f"{path}: manifest is missing {key!r}")
        fields.append(default if value is None else value)
        if not isinstance(fields[-1], kind):
            raise ParseError(f"{path}: manifest {key!r} is not a {kind.__name__}")
    strategy, per_task, selected, params, allocation, trace, warnings = fields
    for row in allocation:
        if not isinstance(row, dict) or any(type(row[k]) not in kinds if k in row else k != "confidence"
                                            for k, (kinds, *_) in _COLUMNS.items()):
            raise ParseError(f"{path}: malformed allocation row {row!r}")
    if any(type(v) is not int for v in per_task.values()) or not _NUMBERS.issuperset(map(type, trace)):
        raise ParseError(f"{path}: manifest counts or trace values are not numbers")

    rows = allocation or [dict(zip(_COLUMNS, item)) for item in per_task.items()]
    shown = {k: spec for i, (k, spec) in enumerate(_COLUMNS.items()) if i < 2 or any(k in r for r in rows)}
    lines = [f"strategy: {strategy}", f"seed: {manifest.get('seed')}",
             "params: " + ", ".join(f"{k}={v}" for k, v in sorted(params.items())),
             f"selected: {len(selected)}", "".join(f"{head:{width}}" for _, head, width, _ in shown.values())]
    for r in sorted(rows, key=lambda r: (-r["selected"], r["task"])):
        lines.append("".join(f"{r.get(k, float('nan')):{width}{precision}}"
                             for k, (_, _, width, precision) in shown.items()))
    if trace:
        lines.append(f"objective trace: {len(trace)} steps, first={trace[0]:.6g}, last={trace[-1]:.6g}")
    return lines + [f"warning: {note}" for note in warnings]
